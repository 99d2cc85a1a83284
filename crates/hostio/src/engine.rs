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
//! # Ordering guarantee
//!
//! Workers complete jobs in whatever order the OS serves them, but the
//! [`Completion`] handle indexes every result by its submission slot:
//! [`Completion::wait`] returns buffers in exactly the order the
//! requests were submitted. Because the underlying files are immutable
//! once written, a batch resolved through the engine is bit-identical
//! to the same plan executed as serial positioned reads — the engine
//! changes *when* bytes arrive, never *which* bytes.
//!
//! # Stats scoping
//!
//! The engine itself counts only transport-level totals
//! ([`EngineStats`]: batches, jobs, bytes, peak queue depth and peak
//! in-flight reads). Store-level accounting (pages read, cache misses)
//! stays with the callers, which count each run from its plan exactly
//! as the serial path did — so `StoreStats` deltas are unchanged by
//! engine adoption.

use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::sync::{CondvarExt, LockExt};

/// A cheaply clonable handle to one immutable backing file.
///
/// Wraps the open descriptor and its path so read jobs can be shipped
/// to `'static` worker threads without borrowing the owning store.
#[derive(Clone)]
pub struct ReadSource {
    file: Arc<File>,
    path: Arc<PathBuf>,
}

impl ReadSource {
    /// Wraps an open file and the path it was opened from.
    pub fn new(file: File, path: PathBuf) -> Self {
        Self {
            file: Arc::new(file),
            path: Arc::new(path),
        }
    }

    /// The path the source was opened from (for error reporting).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fills `buf` from byte `offset`, exactly — a positioned read
    /// that does not move any shared cursor, so concurrent jobs on
    /// the same file never interfere.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            // Portable fallback: a private handle per read keeps the
            // source cursor-free at the cost of an extra open.
            use std::io::{Read, Seek, SeekFrom};
            let mut file = File::open(self.path.as_ref())?;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }
}

impl std::fmt::Debug for ReadSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadSource")
            .field("path", &self.path)
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
    /// Number of bytes to read (must lie inside the file).
    pub len: usize,
}

/// A queued unit of work: a request plus where its result lands.
struct Job {
    request: ReadRequest,
    slot: usize,
    completion: Arc<CompletionState>,
}

/// Slots for one submitted batch, filled by workers out of order.
struct CompletionSlots {
    slots: Vec<Option<io::Result<Vec<u8>>>>,
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

    fn fill(&self, slot: usize, result: io::Result<Vec<u8>>) {
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
    /// the per-request results **in submission order**, regardless of
    /// the order workers finished them.
    pub fn wait(self) -> Vec<io::Result<Vec<u8>>> {
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
    fn execute(&self, job: Job) {
        let now_inflight = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_inflight.fetch_max(now_inflight, Ordering::SeqCst);
        let mut buf = vec![0u8; job.request.len];
        let result = job
            .request
            .source
            .read_exact_at(&mut buf, job.request.offset)
            .map(|()| buf);
        if let Ok(bytes) = &result {
            self.bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        job.completion.fill(job.slot, result);
    }
}

fn worker_loop(shared: &Shared) {
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
            Some(job) => shared.execute(job),
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
        // ssl::allow(SSL004): the global read engine is the sanctioned
        // process-wide I/O worker pool (module docs); its counters are
        // transport-level occupancy totals, not per-sweep results —
        // sweeps that need isolated counters construct private
        // engines via `ReadEngine::new`.
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

    fn temp_file(bytes: &[u8]) -> (ReadSource, TempPayload) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ss-ioeng-test-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).expect("write payload");
        let file = File::open(&path).expect("reopen");
        (ReadSource::new(file, path.clone()), TempPayload(path))
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
            let bytes = result.as_ref().expect("read ok");
            assert_eq!(&bytes[..], &payload[offset as usize..offset as usize + len]);
        }
        let stats = engine.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.jobs, 5);
        assert!(stats.max_queue_depth >= 1);
    }

    #[test]
    fn short_read_surfaces_as_error_in_the_right_slot() {
        let (source, _keep) = temp_file(&[1, 2, 3, 4]);
        let engine = ReadEngine::new(2);
        let requests = vec![
            ReadRequest {
                source: source.clone(),
                offset: 0,
                len: 4,
            },
            ReadRequest {
                source: source.clone(),
                offset: 2,
                len: 100, // past EOF
            },
        ];
        let results = engine.submit(requests).wait();
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
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
                            let bytes = result.expect("read ok");
                            assert_eq!(bytes, payload[offset as usize..offset as usize + len]);
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
                assert_eq!(result.expect("read ok").len(), CHUNK);
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
