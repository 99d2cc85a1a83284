//! Submission-queue batched read engine under the store tiers.
//!
//! SmartSAGE's premise (and GIDS's, see PAPERS.md) is that
//! storage-resident training lives or dies on how many flash reads the
//! host keeps in flight. The device side already models
//! `queue_depth`-deep flash arrays; this module gives the *host* tiers
//! the matching machinery: callers hand a whole per-batch page-run
//! plan to [`ReadEngine::submit`] and a fixed pool of I/O workers
//! executes the positioned reads concurrently — across runs and across
//! shard files.
//!
//! # Pages, copied once
//!
//! The engine's unit of completion is the **page**. Each worker owns
//! one fixed read buffer (`WORKER_BUF_BYTES`, allocated when the
//! thread starts and never resized): a job is read into it with a
//! positioned read — a request longer than the buffer in buffer-sized
//! pieces, a whole number of pages each, inside the same job — and
//! sliced into `Arc<[u8]>` pages of the source's page size
//! ([`ReadSource::paged`]) while the bytes are still in the worker's
//! cache. That slice is the only copy a fetched byte sees in user
//! space: kernel → worker buffer → page. Nothing is allocated, zeroed
//! or reserved from a request's `len`, so a request that runs past the
//! end of its file — by however much — is an `Err` in its own slot. A
//! job that fails in a later piece yields that `Err` alone: no partial
//! pages, no bytes counted.
//!
//! # Ordering guarantee
//!
//! Workers complete jobs in whatever order the OS serves them, but the
//! [`Completion`] handle indexes every result by its submission slot:
//! [`Completion::wait`] returns each request's pages in exactly the
//! order the requests were submitted. Because the underlying files are
//! immutable once written, a batch resolved through the engine is
//! bit-identical to the same plan executed as serial positioned reads
//! — the engine changes *when* bytes arrive, never *which* bytes.
//!
//! # Stats scoping
//!
//! The engine itself counts only transport-level totals
//! ([`EngineStats`]: batches, jobs, bytes, peak queue depth and peak
//! in-flight reads; a request is one job however many pieces it was
//! read in). Store-level accounting (pages read, cache misses) stays
//! with the callers, which count each run from its plan exactly as the
//! serial path did — so `StoreStats` deltas are unchanged by engine
//! adoption.

use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::sync::{CondvarExt, LockExt};

/// Bytes in each worker's read buffer: a fraction of one core's L2, so
/// the pages sliced out of a piece are copied from cache, not from
/// memory. A constant — results are identical at any size.
const WORKER_BUF_BYTES: usize = 256 << 10;

/// A cheaply clonable handle to one immutable backing file.
///
/// Wraps the open descriptor, its path and the page size its reads
/// complete in, behind one `Arc`, so read jobs can be shipped to
/// `'static` worker threads without borrowing the owning store.
#[derive(Clone)]
pub struct ReadSource(Arc<SourceInner>);

struct SourceInner {
    file: File,
    path: PathBuf,
    /// 0: a read completes as a single page.
    page_bytes: usize,
}

impl ReadSource {
    /// Wraps an open file and the path it was opened from. A read of
    /// this source completes as a single page.
    pub fn new(file: File, path: PathBuf) -> Self {
        Self(Arc::new(SourceInner {
            file,
            path,
            page_bytes: 0,
        }))
    }

    /// Wraps an open file whose reads complete as `page_bytes`-sized
    /// pages (the last one short if the read's length is not a
    /// multiple).
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is zero.
    pub fn paged(file: File, path: PathBuf, page_bytes: usize) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        Self(Arc::new(SourceInner {
            file,
            path,
            page_bytes,
        }))
    }

    /// The path the source was opened from (for error reporting).
    pub fn path(&self) -> &Path {
        &self.0.path
    }

    /// Fills `buf` from byte `offset`, exactly — a positioned read
    /// that does not move any shared cursor, so concurrent jobs on
    /// the same file never interfere.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.0.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            // Portable fallback: a private handle per read keeps the
            // source cursor-free at the cost of an extra open.
            use std::io::{Read, Seek, SeekFrom};
            let mut file = File::open(&self.0.path)?;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }
}

impl std::fmt::Debug for ReadSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadSource")
            .field("path", &self.0.path)
            .finish()
    }
}

/// One positioned read: `len` bytes of `source` starting at `offset`.
#[derive(Debug, Clone)]
pub struct ReadRequest {
    /// The file to read from.
    pub source: ReadSource,
    /// Absolute byte offset of the first byte.
    pub offset: u64,
    /// Number of bytes to read. A range that does not lie inside the
    /// file completes as an `Err`.
    pub len: usize,
}

/// The pages of one completed request, in file order.
type Pages = Vec<Arc<[u8]>>;

/// Reads `request` through `buf` and slices it into pages (module
/// docs). Only whole pieces that were read are ever sliced, and the
/// first failed piece fails the request.
fn read_pages(buf: &mut [u8], request: &ReadRequest) -> io::Result<Pages> {
    let &ReadRequest {
        ref source,
        offset,
        len,
    } = request;
    let mut pages = Pages::new();
    if len == 0 {
        return Ok(pages);
    }
    let page = match source.0.page_bytes {
        0 => len,
        page_bytes => page_bytes,
    };
    let room = buf.len();
    let mut done = 0;
    if page <= room {
        let whole_pages = room / page * page;
        while done < len {
            let piece = &mut buf[..whole_pages.min(len - done)];
            source.read_exact_at(piece, offset + done as u64)?;
            pages.extend(piece.chunks(page).map(Arc::from));
            done += piece.len();
        }
    } else {
        // A page larger than the buffer (typically an unpaged source's
        // whole request) grows as its pieces arrive, so it too is
        // bounded by what the file held, not by what was asked for.
        while done < len {
            let page_len = page.min(len - done);
            let mut assembled = Vec::new();
            while assembled.len() < page_len {
                let piece = &mut buf[..room.min(page_len - assembled.len())];
                source.read_exact_at(piece, offset + (done + assembled.len()) as u64)?;
                assembled.extend_from_slice(piece);
            }
            done += page_len;
            pages.push(Arc::from(assembled));
        }
    }
    Ok(pages)
}

/// A queued unit of work: a request plus where its result lands.
struct Job {
    request: ReadRequest,
    slot: usize,
    completion: Arc<CompletionState>,
}

/// Slots for one submitted batch, filled by workers out of order.
struct CompletionSlots {
    slots: Vec<Option<io::Result<Pages>>>,
    remaining: usize,
}

struct CompletionState {
    state: Mutex<CompletionSlots>,
    done: Condvar,
}

impl CompletionState {
    fn new(len: usize) -> Self {
        Self {
            state: Mutex::new(CompletionSlots {
                slots: (0..len).map(|_| None).collect(),
                remaining: len,
            }),
            done: Condvar::new(),
        }
    }

    fn fill(&self, slot: usize, result: io::Result<Pages>) {
        let mut state = self.state.safe_lock();
        state.slots[slot] = Some(result);
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// Handle to one submitted batch; resolves in submission order.
pub struct Completion {
    state: Arc<CompletionState>,
}

impl Completion {
    /// Blocks until every job in the batch has completed and returns
    /// each request's pages **in submission order**, regardless of the
    /// order workers finished them. A request's pages are its bytes in
    /// file order, cut at its source's page size (one page for a
    /// source without one, none for a zero-length request).
    pub fn wait(self) -> Vec<io::Result<Vec<Arc<[u8]>>>> {
        let mut state = self.state.state.safe_lock();
        while state.remaining > 0 {
            state = self.state.done.safe_wait(state);
        }
        state
            .slots
            .iter_mut()
            .map(|slot| slot.take().expect("all completion slots filled"))
            .collect()
    }
}

/// Snapshot of the engine's transport-level counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of I/O worker threads in the pool.
    pub workers: usize,
    /// Batches submitted (one per `submit` call).
    pub batches: u64,
    /// Individual read jobs submitted.
    pub jobs: u64,
    /// Bytes successfully read by workers.
    pub bytes_read: u64,
    /// Peak number of reads executing concurrently.
    pub max_inflight: u64,
    /// Peak submission-queue depth observed at submit time.
    pub max_queue_depth: u64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    batches: AtomicU64,
    jobs: AtomicU64,
    bytes_read: AtomicU64,
    inflight: AtomicU64,
    max_inflight: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl Shared {
    fn execute(&self, job: Job, buf: &mut [u8]) {
        let now_inflight = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_inflight.fetch_max(now_inflight, Ordering::SeqCst);
        let result = read_pages(buf, &job.request);
        if result.is_ok() {
            self.bytes_read
                .fetch_add(job.request.len as u64, Ordering::Relaxed);
        }
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        job.completion.fill(job.slot, result);
    }
}

fn worker_loop(shared: &Shared) {
    let mut buf = vec![0u8; WORKER_BUF_BYTES];
    loop {
        let job = {
            let mut state = shared.queue.safe_lock();
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if !state.open {
                    break None;
                }
                state = shared.available.safe_wait(state);
            }
        };
        match job {
            Some(job) => shared.execute(job, &mut buf),
            None => return,
        }
    }
}

/// A fixed pool of I/O workers draining a shared submission queue.
///
/// Stores share one process-wide instance ([`ReadEngine::global`]);
/// conformance tests construct private engines with
/// [`ReadEngine::new`] to sweep worker counts.
pub struct ReadEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ReadEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadEngine")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ReadEngine {
    /// Spawns a pool of `workers` I/O threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            available: Condvar::new(),
            batches: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            max_inflight: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ss-ioeng-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn read-engine worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// The process-wide engine shared by every store opened without an
    /// explicit engine. Worker count adapts to the host (clamped to
    /// keep tiny CI runners and large dev boxes in the same regime);
    /// results are bit-identical at any worker count.
    pub fn global() -> &'static Arc<ReadEngine> {
        // The global read engine is the sanctioned process-wide I/O
        // worker pool (module docs); its counters are transport-level
        // occupancy totals, not per-sweep results — sweeps that need
        // isolated counters construct private engines via
        // `ReadEngine::new`. `tests/global_state.rs` lists it.
        static GLOBAL: OnceLock<Arc<ReadEngine>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8);
            Arc::new(ReadEngine::new(workers))
        })
    }

    /// Submits a batch of positioned reads and returns the handle that
    /// resolves them in submission order. An empty batch resolves
    /// immediately and is not counted.
    pub fn submit(&self, requests: Vec<ReadRequest>) -> Completion {
        let n = requests.len();
        let completion = Arc::new(CompletionState::new(n));
        if n == 0 {
            return Completion { state: completion };
        }
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        self.shared.jobs.fetch_add(n as u64, Ordering::Relaxed);
        {
            let mut state = self.shared.queue.safe_lock();
            for (slot, request) in requests.into_iter().enumerate() {
                state.jobs.push_back(Job {
                    request,
                    slot,
                    completion: Arc::clone(&completion),
                });
            }
            let depth = state.jobs.len() as u64;
            self.shared
                .max_queue_depth
                .fetch_max(depth, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        Completion { state: completion }
    }

    /// Snapshot of the transport-level counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            workers: self.workers.len(),
            batches: self.shared.batches.load(Ordering::Relaxed),
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            bytes_read: self.shared.bytes_read.load(Ordering::Relaxed),
            max_inflight: self.shared.max_inflight.load(Ordering::SeqCst),
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::SeqCst),
        }
    }
}

impl Drop for ReadEngine {
    fn drop(&mut self) {
        {
            let mut state = self.shared.queue.safe_lock();
            state.open = false;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unique temp path removed on drop (hostio cannot use the store
    /// crate's `ScratchFile` — store depends on hostio).
    struct TempPayload(PathBuf);

    impl Drop for TempPayload {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Writes `bytes` to a fresh temp file and opens it, unpaged
    /// (`page_bytes` 0) or paged.
    fn temp_source(bytes: &[u8], page_bytes: usize) -> (ReadSource, TempPayload) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ss-ioeng-test-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).expect("write payload");
        let file = File::open(&path).expect("reopen");
        let source = match page_bytes {
            0 => ReadSource::new(file, path.clone()),
            _ => ReadSource::paged(file, path.clone(), page_bytes),
        };
        (source, TempPayload(path))
    }

    fn temp_file(bytes: &[u8]) -> (ReadSource, TempPayload) {
        temp_source(bytes, 0)
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn request(source: &ReadSource, offset: u64, len: usize) -> ReadRequest {
        ReadRequest {
            source: source.clone(),
            offset,
            len,
        }
    }

    fn truncate(file: &TempPayload, len: u64) {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&file.0)
            .expect("open for truncation")
            .set_len(len)
            .expect("truncate");
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(64 * 1024).collect();
        let (source, _keep) = temp_file(&payload);
        let engine = ReadEngine::new(4);
        // Deliberately submit out-of-offset-order slices; slot order
        // must still match submission order.
        let spans: Vec<(u64, usize)> =
            vec![(4096, 100), (0, 7), (60_000, 4000), (1, 1), (30_000, 1024)];
        let requests = spans
            .iter()
            .map(|&(offset, len)| ReadRequest {
                source: source.clone(),
                offset,
                len,
            })
            .collect();
        let results = engine.submit(requests).wait();
        assert_eq!(results.len(), spans.len());
        for (&(offset, len), result) in spans.iter().zip(&results) {
            // A source with no page size: one page per read.
            let [page] = &result.as_ref().expect("read ok")[..] else {
                panic!("an unpaged read completed as {result:?}");
            };
            assert_eq!(&page[..], &payload[offset as usize..offset as usize + len]);
        }
        let stats = engine.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.jobs, 5);
        assert!(stats.max_queue_depth >= 1);
    }

    #[test]
    fn pages_are_the_file_cut_at_the_page_size_whatever_the_piece_count() {
        for page in [512usize, 1000, 4096, 16_384] {
            // Stretches of one page, one page short of a buffer-full,
            // exactly one, one page over, and three and a bit — the
            // last running to the end of a file whose final page is
            // short — in one batch, not in offset order.
            let per_piece = WORKER_BUF_BYTES / page;
            let counts = [1, per_piece - 1, per_piece, per_piece + 1];
            let file_len = (3 * per_piece + 2) * page + 123;
            let payload = patterned(file_len);
            let mut spans: Vec<(usize, usize)> = counts
                .iter()
                .enumerate()
                .map(|(i, &count)| ((i + 1) * page, count * page))
                .collect();
            spans.insert(2, (page, file_len - page));
            let want: Vec<Vec<&[u8]>> = spans
                .iter()
                .map(|&(offset, len)| payload[offset..offset + len].chunks(page).collect())
                .collect();
            assert_eq!(want[2].last().map(|p| p.len()), Some(123));
            let (source, _keep) = temp_source(&payload, page);
            for workers in [1, 2, 8] {
                let engine = ReadEngine::new(workers);
                let requests = spans
                    .iter()
                    .map(|&(offset, len)| request(&source, offset as u64, len))
                    .collect();
                let got: Vec<Pages> = engine
                    .submit(requests)
                    .wait()
                    .into_iter()
                    .map(|result| result.expect("read ok"))
                    .collect();
                for (slot, (got, want)) in got.iter().zip(&want).enumerate() {
                    let got: Vec<&[u8]> = got.iter().map(|p| &p[..]).collect();
                    assert!(got == *want, "page {page} workers {workers} slot {slot}");
                }
                // One job per request, however many pieces it took.
                let stats = engine.stats();
                assert_eq!(stats.jobs, spans.len() as u64);
                let asked: usize = spans.iter().map(|&(_, len)| len).sum();
                assert_eq!(stats.bytes_read, asked as u64);
            }
        }
    }

    #[test]
    fn a_zero_length_read_has_no_pages_and_an_unpaged_one_has_one() {
        let payload = patterned(3 * WORKER_BUF_BYTES + 5);
        let (unpaged, _keep) = temp_file(&payload);
        let (paged, _keep_paged) = temp_source(&payload, 4096);
        let engine = ReadEngine::new(2);
        let results = engine
            .submit(vec![
                request(&unpaged, 7, 0),
                request(&paged, 4096, 0),
                // Longer than the buffer, and still one page.
                request(&unpaged, 3, payload.len() - 3),
            ])
            .wait();
        assert!(results[0].as_ref().expect("read ok").is_empty());
        assert!(results[1].as_ref().expect("read ok").is_empty());
        let [page] = &results[2].as_ref().expect("read ok")[..] else {
            panic!("an unpaged read completed as more than one page");
        };
        assert!(page[..] == payload[3..]);
    }

    #[test]
    fn short_read_surfaces_as_error_in_the_right_slot() {
        let (source, _keep) = temp_file(&[1, 2, 3, 4]);
        let (paged, _keep_paged) = temp_source(&[1, 2, 3, 4], 2);
        // Two buffer-fulls at open time, cut underneath to one and a
        // bit: a read of all of it fails in its second piece.
        let (cut, cut_file) = temp_source(&patterned(2 * WORKER_BUF_BYTES), 4096);
        truncate(&cut_file, WORKER_BUF_BYTES as u64 + 100);
        let engine = ReadEngine::new(2);
        let requests = vec![
            request(&source, 0, 4),
            request(&source, 2, 100), // past EOF
            // However far past: nothing is sized from `len`.
            request(&source, 0, usize::MAX / 2),
            request(&paged, 0, usize::MAX / 2),
            request(&cut, 0, 2 * WORKER_BUF_BYTES),
            request(&paged, 0, 4),
        ];
        let results = engine.submit(requests).wait();
        let ok: Vec<bool> = results.iter().map(|r| r.is_ok()).collect();
        assert_eq!(ok, [true, false, false, false, false, true]);
        // A failed job counts nothing, its first pieces included.
        assert_eq!(engine.stats().bytes_read, 8);
        // The workers outlived the failures.
        let again = engine.submit(vec![request(&source, 1, 3)]).wait();
        assert_eq!(again[0].as_ref().expect("read ok")[0][..], [2, 3, 4]);
    }

    #[test]
    fn a_workers_buffer_never_grows_past_its_fixed_size() {
        // What a worker does with a job, on a buffer the test can see:
        // a 32 MiB stretch goes through it 128 times over.
        let payload = patterned(32 << 20);
        let (source, _keep) = temp_source(&payload, 4096);
        let mut buf = vec![0u8; WORKER_BUF_BYTES];
        let pages = read_pages(&mut buf, &request(&source, 0, payload.len())).expect("read ok");
        assert_eq!(
            (buf.len(), buf.capacity()),
            (WORKER_BUF_BYTES, WORKER_BUF_BYTES)
        );
        assert_eq!(pages.len(), payload.len() / 4096);
        assert!(pages.iter().map(|p| &p[..]).eq(payload.chunks(4096)));
    }

    #[test]
    fn empty_batch_resolves_immediately_and_is_uncounted() {
        let engine = ReadEngine::new(1);
        assert!(engine.submit(Vec::new()).wait().is_empty());
        assert_eq!(engine.stats().batches, 0);
    }

    #[test]
    fn many_batches_from_many_threads_stay_isolated() {
        let payload: Vec<u8> = (0..255u8).cycle().take(32 * 1024).collect();
        let (source, _keep) = temp_file(&payload);
        let engine = Arc::new(ReadEngine::new(3));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let source = source.clone();
                let payload = payload.clone();
                std::thread::spawn(move || {
                    for round in 0..10u64 {
                        let spans: Vec<(u64, usize)> = (0..6)
                            .map(|k| (((t * 1000 + round * 37 + k * 411) % 31_000), 512usize))
                            .collect();
                        let requests = spans
                            .iter()
                            .map(|&(offset, len)| ReadRequest {
                                source: source.clone(),
                                offset,
                                len,
                            })
                            .collect();
                        for (&(offset, len), result) in
                            spans.iter().zip(engine.submit(requests).wait())
                        {
                            let pages = result.expect("read ok");
                            assert_eq!(pages.len(), 1);
                            assert_eq!(
                                pages[0][..],
                                payload[offset as usize..offset as usize + len]
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
        let stats = engine.stats();
        assert_eq!(stats.batches, 80);
        assert_eq!(stats.jobs, 480);
    }

    #[test]
    fn a_large_batch_keeps_two_reads_in_flight() {
        // The occupancy contract: one batch of 64 × 128 KiB reads
        // cannot finish inside a single worker's turn, so a 2-worker
        // engine overlaps them. The peak is sticky, so a round lost to
        // an unlucky schedule (one worker draining the queue before
        // the other wakes) is simply followed by another.
        const CHUNK: usize = 128 << 10;
        let (source, _keep) = temp_file(&vec![0x5Au8; CHUNK * 8]);
        let engine = ReadEngine::new(2);
        for _ in 0..20 {
            let requests = (0..64u64)
                .map(|i| ReadRequest {
                    source: source.clone(),
                    offset: (i % 8) * CHUNK as u64,
                    len: CHUNK,
                })
                .collect();
            for result in engine.submit(requests).wait() {
                assert_eq!(result.expect("read ok")[0].len(), CHUNK);
            }
            if engine.stats().max_inflight >= 2 {
                break;
            }
        }
        let stats = engine.stats();
        assert!(stats.max_inflight >= 2, "reads never overlapped: {stats:?}");
        assert!(stats.max_queue_depth >= 2);
    }

    #[test]
    fn drop_joins_workers_after_draining() {
        let (source, _keep) = temp_file(&[0u8; 4096]);
        let engine = ReadEngine::new(2);
        let completion = engine.submit(
            (0..16)
                .map(|i| ReadRequest {
                    source: source.clone(),
                    offset: i * 64,
                    len: 64,
                })
                .collect(),
        );
        assert_eq!(completion.wait().len(), 16);
        drop(engine); // must not hang
    }
}
