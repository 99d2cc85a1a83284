//! The one paged read path under every file-backed store.
//!
//! A [`PagedFile`] is an open, already validated file plus the page
//! cache and [`ReadEngine`] it is read through. The cache is one
//! exact-LRU [`LruMap`] of `Arc<[u8]>` pages behind one lock, sized to
//! exactly `cache_pages`. It knows nothing about what the bytes mean —
//! the format layers ([`SharedFileStore`](crate::SharedFileStore) rows,
//! [`SharedCsrFile`](crate::SharedCsrFile) `u64` entries) turn a
//! request into byte ranges and decode what comes back. It is the only
//! code that turns a byte range into page numbers, and the pages a
//! [`PagedFile::read`] resolved are handed back as that read's **plan**
//! ([`StagedPages::into_plan`]): the format layers pass it up beside
//! their I/O deltas, and the ISP tiers cost exactly those pages, each
//! with the first range to need it ([`Plan::first_needs`], over the
//! ranges re-derived in request order) — nobody derives the pages of a
//! request a second time. A read takes its ranges as a cloneable
//! iterator, listed once here and once more by the format layer's
//! decode, so no per-range list is built. Every read follows one
//! algorithm:
//!
//! 1. **Plan** — the distinct pages the ranges touch, as one
//!    [`RankSet`] walked in maximal contiguous runs; pure address
//!    arithmetic. Every range lists its pages straight into the set: a
//!    read dense in its span is a bitmap and is never sorted, a sparse
//!    one sorts its list once, and any order lists the same pages.
//! 2. **Classify** — under the cache lock, walking the runs in
//!    ascending order, resident pages are hits (not promoted yet, and
//!    staged as `Arc` clones so a concurrent eviction can never
//!    invalidate bytes mid-assembly); each maximal stretch of missing
//!    pages becomes one positioned read and holds its place in the
//!    staging vector, where a page's slot is its rank in the plan's
//!    set.
//! 3. **Fetch** — the whole miss plan goes to the engine as one batch.
//!    Stretches resolve concurrently across I/O workers, and the worker
//!    that read a stretch also cut it into this file's pages
//!    ([`ReadSource::paged`]) — the one copy a fetched byte sees — so
//!    the reading thread only counts what came back. The completion
//!    hands results back in submission order, so staging is
//!    bit-identical to reading the stretches serially.
//! 4. **Publish** — only once every stretch was fetched, under the
//!    cache lock again: the hits are promoted in ascending page order,
//!    then the fetched pages enter the cache in ascending page order. A
//!    read whose fetch fails leaves the cache as it found it.
//!
//! Decoding pays per page, not per range: a [`PageMemo`] walks the
//! read's ranges in any order and asks the read's set for a page's slot
//! ([`StagedPages::page`]: one word and one popcount on a dense set, a
//! bisection on a sparse one) only when a range leaves the page it last
//! looked up. A range inside that page is a bounds check and a slice;
//! only a range that straddles a page boundary (a page size that does
//! not divide the entry or row) is copied, by [`StagedPages::bytes`].

// Untrusted input fails as a typed error, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::error::StoreError;
use crate::file::FileStoreOptions;
use crate::StoreStats;
use smartsage_hostio::{ByteRange, LockExt, ReadEngine, ReadRequest, ReadSource};
use smartsage_sim::{LruMap, RankSet};
use std::fs::File;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Decoded values, the call's exact I/O deltas, and the read's plan
/// (or the plans of its reads).
pub(crate) type Planned<T, P = Plan> = (T, StoreStats, P);

/// A read's plan: the set of every page it resolved, each counted
/// exactly once into the read's `page_hits` or `pages_read`. It holds
/// no ranges: the caller that asks for first needs derives them again.
#[derive(Debug)]
pub(crate) struct Plan {
    pages: RankSet,
    page_bytes: u64,
}

impl Plan {
    /// The pages each of `ranges` was the first to need, in the order
    /// given, as `(pages, ends)`: range `i` first needed `pages[ends[i]..ends[i
    /// + 1]]`, so every page of the plan is listed once, with the first
    /// range that touches it. Every range must lie in pages the plan
    /// resolved. Only the ISP tiers' one command entry
    /// (`IspDevice::command`) asks, so only they pay.
    pub fn first_needs(
        &self,
        ranges: impl IntoIterator<Item = ByteRange>,
    ) -> (Vec<u64>, Vec<usize>) {
        let mut needed = vec![false; self.pages.len()];
        let (mut pages, mut ends) = (Vec::new(), vec![0]);
        for range in ranges {
            if let Some((first, last)) = range.blocks(self.page_bytes) {
                // A range's pages are consecutive members of the set.
                let staged = (first..=last).zip(self.pages.rank(first)..);
                let new = staged.filter(|&(_, i)| !std::mem::replace(&mut needed[i], true));
                pages.extend(new.map(|(page, _)| page));
            }
            ends.push(pages.len());
        }
        (pages, ends)
    }

    /// The plan of this read and `next` together: a page both resolved
    /// is listed once.
    pub fn merge(self, next: Plan) -> Plan {
        Plan {
            pages: RankSet::new(self.pages.iter().chain(next.pages.iter())),
            ..self
        }
    }
}

/// An open file read page-wise through a shared cache (module docs).
#[derive(Debug)]
pub(crate) struct PagedFile {
    source: ReadSource,
    file_len: u64,
    opts: FileStoreOptions,
    cache: Mutex<LruMap<u64, Arc<[u8]>>>,
    engine: Arc<ReadEngine>,
}

/// The pages one [`PagedFile::read`] resolved: its plan, and the
/// pages' bytes in the set's order — held by `Arc` while the format
/// layer decodes them (through a [`PageMemo`]), so a page's slot is its
/// rank.
#[derive(Debug)]
pub(crate) struct StagedPages {
    plan: Plan,
    staged: Vec<Arc<[u8]>>,
}

impl StagedPages {
    /// The bytes of `page`, which the read resolved: its slot is its
    /// rank in the read's set.
    pub fn page(&self, page: u64) -> &[u8] {
        &self.staged[self.plan.pages.rank(page)]
    }

    /// A decode walk over these pages, in any order of ranges, that
    /// remembers the page it last looked up.
    pub fn memo(&self) -> PageMemo<'_> {
        PageMemo {
            staged: self,
            number: u64::MAX,
            page: &[],
        }
    }

    /// The bytes of `range`, copied page by page into `spill`
    /// (`spill.len() == range.len`). `range` must lie in pages the read
    /// resolved, so its pages are staged, and staged side by side; its
    /// first page's slot is that page's rank in the read's set. The
    /// straddling path of [`PageMemo::bytes`], which slices everything
    /// else.
    pub fn bytes<'a>(&self, range: ByteRange, spill: &'a mut [u8]) -> &'a [u8] {
        let Plan { pages, page_bytes } = &self.plan;
        let Some((page, _)) = range.blocks(*page_bytes) else {
            return &[];
        };
        let (mut done, mut lo, mut at) = (
            0,
            (range.offset - page * page_bytes) as usize,
            pages.rank(page),
        );
        while done < spill.len() {
            let src = &self.staged[at];
            let n = (src.len() - lo).min(spill.len() - done);
            spill[done..done + n].copy_from_slice(&src[lo..lo + n]);
            (done, lo, at) = (done + n, 0, at + 1);
        }
        spill
    }

    /// The read's plan.
    pub fn into_plan(self) -> Plan {
        self.plan
    }
}

/// Decodes ranges of one read out of its staged pages, looking a page
/// up only when a range leaves the page it last looked up.
#[derive(Debug)]
pub(crate) struct PageMemo<'a> {
    staged: &'a StagedPages,
    /// The page last looked up (`u64::MAX` before the first), and its
    /// bytes. A range is matched against the page's *number*, so
    /// deciding whether to look a page up waits on no load.
    number: u64,
    page: &'a [u8],
}

impl PageMemo<'_> {
    /// The bytes of `range`, which must lie in pages the read resolved:
    /// a slice of its page when it lies within one (looked up by rank
    /// unless it is the page remembered, and then remembered), else —
    /// across a page boundary — copied into `spill` (`spill.len() ==
    /// range.len`).
    pub fn bytes<'s>(&'s mut self, range: ByteRange, spill: &'s mut [u8]) -> &'s [u8] {
        let page_bytes = self.staged.plan.page_bytes;
        match range.blocks(page_bytes) {
            Some((first, last)) if first == last => {
                if first != self.number {
                    (self.number, self.page) = (first, self.staged.page(first));
                }
                let lo = (range.offset - first * page_bytes) as usize;
                self.page.get(lo..lo + range.len as usize).unwrap_or(&[])
            }
            _ => self.staged.bytes(range, spill),
        }
    }
}

impl PagedFile {
    /// Wraps an open file of exactly `file_len` bytes whose reads
    /// complete in `opts.page_bytes` pages, cached `opts.cache_pages`
    /// at a time.
    pub fn new(
        file: File,
        path: &Path,
        file_len: u64,
        opts: FileStoreOptions,
        engine: Arc<ReadEngine>,
    ) -> PagedFile {
        assert!(opts.page_bytes > 0, "page size must be positive");
        PagedFile {
            source: ReadSource::paged(file, path.to_path_buf(), opts.page_bytes as usize),
            file_len,
            opts,
            cache: Mutex::new(LruMap::new(opts.cache_pages)),
            engine,
        }
    }

    pub fn path(&self) -> &Path {
        self.source.path()
    }

    pub fn options(&self) -> FileStoreOptions {
        self.opts
    }

    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    pub fn cache_resident(&self) -> usize {
        self.cache.safe_lock().len()
    }

    pub fn cache_capacity(&self) -> usize {
        self.opts.cache_pages
    }

    pub fn clear_cache(&self) {
        self.cache.safe_lock().clear();
    }

    /// Submits one positioned read per stretch as a single engine batch
    /// and forwards the per-stretch pages — cut by the worker that read
    /// them — **in submission order** (the file's final page may be
    /// short). A successful stretch counts into `io` — pages, misses,
    /// and bytes, which on this host path (Fig 10(a)) the device read
    /// from media and shipped to the host whole; the ISP tiers re-scope
    /// the host side afterwards. A failed stretch surfaces as its `Err`
    /// slot and counts nothing.
    fn fetch(
        &self,
        stretches: &[(u64, u64)],
        io: &mut StoreStats,
    ) -> Vec<Result<Vec<Arc<[u8]>>, std::io::Error>> {
        if stretches.is_empty() {
            return Vec::new();
        }
        let pb = self.opts.page_bytes;
        let len_of = |first: u64, count: u64| (count * pb).min(self.file_len - first * pb);
        let requests = stretches
            .iter()
            .map(|&(first, count)| ReadRequest {
                source: self.source.clone(),
                offset: first * pb,
                len: len_of(first, count) as usize,
            })
            .collect();
        let results = self.engine.submit(requests).wait();
        for (&(first, count), result) in stretches.iter().zip(&results) {
            if result.is_ok() {
                let len = len_of(first, count);
                io.pages_read += count;
                io.page_misses += count;
                io.bytes_read += len;
                io.device_bytes_read += len;
                io.host_bytes_transferred += len;
            }
        }
        results
    }

    /// Resolves every page `ranges` touch through the cache (module
    /// docs), adding this call's exact I/O deltas to `io`. It locks the
    /// cache twice, to classify and to publish; the first failed
    /// stretch fails the read — naming the file — before the second.
    pub fn read(
        &self,
        ranges: impl IntoIterator<Item = ByteRange, IntoIter: Clone>,
        io: &mut StoreStats,
    ) -> Result<StagedPages, StoreError> {
        // The pages each range touches, listed straight into the set.
        let page_bytes = self.opts.page_bytes;
        let touched = ranges.into_iter().filter_map(|r| r.blocks(page_bytes));
        let pages = RankSet::new(touched.flat_map(|(first, last)| first..=last));
        // Classify: a resident page is a hit; a missing one opens a
        // stretch `(first_page, page_count)` that extends while the
        // cache does not hold the next page of the run. Its pages hold
        // their place in the staging vector as holes — empty, which no
        // page of a file is — until the stretch is fetched.
        let hole: Arc<[u8]> = Arc::from([]);
        let mut staged: Vec<Arc<[u8]>> = Vec::with_capacity(pages.len());
        let mut stretches: Vec<(u64, u64)> = Vec::new();
        let cache = self.cache.safe_lock();
        for run in pages.runs() {
            let (mut p, end) = (*run.start(), *run.end() + 1);
            while p < end {
                if let Some(buf) = cache.peek(&p) {
                    io.page_hits += 1;
                    staged.push(Arc::clone(buf));
                    p += 1;
                    continue;
                }
                let mut q = p + 1;
                while q < end && !cache.contains(&q) {
                    q += 1;
                }
                stretches.push((p, q - p));
                staged.extend((p..q).map(|_| Arc::clone(&hole)));
                p = q;
            }
        }
        drop(cache);
        let mut fetched = Vec::new();
        for result in self.fetch(&stretches, io) {
            fetched.extend(result.map_err(StoreError::io(self.path(), "read run"))?);
        }
        // Every stretch succeeded: promote the hits, then fill the holes
        // and publish them, each in ascending page order.
        let mut cache = self.cache.safe_lock();
        for (page, _) in pages.iter().zip(&staged).filter(|(_, buf)| !buf.is_empty()) {
            cache.touch(&page);
        }
        let slots = pages.iter().zip(&mut staged);
        let holes = slots.filter(|(_, buf)| buf.is_empty());
        for ((page, slot), buf) in holes.zip(fetched) {
            cache.put(page, Arc::clone(&buf));
            *slot = buf;
        }
        let plan = Plan { pages, page_bytes };
        Ok(StagedPages { plan, staged })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ScratchFile;

    /// A plan of `ranges` that resolved every page they touch, for
    /// tests that price a command without reading a file.
    pub(crate) fn plan_covering(ranges: &[ByteRange], page_bytes: u64) -> Plan {
        let pages: Vec<u64> = ranges
            .iter()
            .filter_map(|r| r.blocks(page_bytes))
            .flat_map(|(first, last)| first..=last)
            .collect();
        Plan {
            pages: RankSet::new(pages),
            page_bytes,
        }
    }

    impl Plan {
        /// The plan's pages, ascending.
        pub(crate) fn page_list(&self) -> Vec<u64> {
            self.pages.iter().collect()
        }
    }

    /// A file of `len` bytes where byte `i` is `i % 251`.
    fn patterned(tag: &str, len: u64) -> (ScratchFile, Vec<u8>) {
        let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let file = ScratchFile::new(tag);
        std::fs::write(file.path(), &bytes).unwrap();
        (file, bytes)
    }

    fn open(file: &ScratchFile, len: u64, page_bytes: u64, cache_pages: usize) -> PagedFile {
        PagedFile::new(
            File::open(file.path()).unwrap(),
            file.path(),
            len,
            FileStoreOptions {
                page_bytes,
                cache_pages,
            },
            Arc::clone(ReadEngine::global()),
        )
    }

    fn range(offset: u64, len: u64) -> ByteRange {
        ByteRange { offset, len }
    }

    #[test]
    fn every_page_size_cache_size_and_the_short_final_page_resolve_the_same_bytes() {
        // 10_001 bytes: no page size below divides it, so the final
        // page is always short. The ranges straddle page boundaries,
        // repeat, sit grouped inside one page, run backwards, and end
        // on the file's last byte; their pages are dense in their span.
        // 8_000_001 bytes: a few ranges spread over the whole file, so
        // at every page size their pages are sparse in their span; two
        // straddle 512-, 1000- and 4096-byte boundaries.
        let sparse_len = 8_000_001;
        let cases = [
            (
                10_001,
                vec![
                    range(9_991, 10),
                    range(0, 7),
                    range(4_090, 12),
                    range(4_090, 12),
                    range(4_104, 8),
                    range(4_096, 8),
                    range(4_112, 16),
                    range(505, 1_100),
                    range(999, 2),
                    range(8_000, 16),
                    range(8_000, 16),
                ],
            ),
            (
                sparse_len,
                vec![
                    range(sparse_len - 10, 10),
                    range(0, 7),
                    range(3_999_997, 6),
                    range(2_559_998, 4),
                    range(sparse_len - 10, 10),
                ],
            ),
        ];
        for (len, grouped) in cases {
            let (file, bytes) = patterned("paged-sizes", len);
            // The same multiset in three more orders: order and grouping
            // are exploited by the read, never required.
            let mut sorted = grouped.clone();
            sorted.sort_by_key(|r| (r.offset, r.len));
            let reversed: Vec<ByteRange> = sorted.iter().rev().copied().collect();
            let mut shuffled = grouped.clone();
            let mut rng = smartsage_sim::Xoshiro256::seed_from_u64(0x5EED);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.range_usize(i + 1));
            }
            let orders = [grouped, sorted, reversed, shuffled];
            // Decodes every range, in the order presented, and checks it.
            let check = |staged: &StagedPages, ranges: &[ByteRange], what: &str| {
                let mut memo = staged.memo();
                for &r in ranges {
                    let mut spill = vec![0u8; r.len as usize];
                    let want = &bytes[r.offset as usize..(r.offset + r.len) as usize];
                    assert_eq!(memo.bytes(r, &mut spill), want, "{what} {r:?}");
                }
            };
            for page_bytes in [512u64, 1000, 4096, 16_384] {
                // The plan, derived independently of `read`: every page a
                // range touches, once, ascending.
                let mut plan: Vec<u64> = orders[0]
                    .iter()
                    .flat_map(|r| r.offset / page_bytes..=(r.offset + r.len - 1) / page_bytes)
                    .collect();
                plan.sort_unstable();
                plan.dedup();
                let planned = plan.len() as u64;
                // A read lists at most every page of every range.
                let listed: u64 = orders[0].iter().map(|r| r.block_count(page_bytes)).sum();
                let span = plan[plan.len() - 1] - plan[0] + 1;
                assert_eq!(span > 64 * listed, len == sparse_len, "page {page_bytes}");
                // The first needs, derived independently: each range's pages
                // that no earlier range touched.
                let first_needs = |ranges: &[ByteRange]| {
                    let mut seen = std::collections::BTreeSet::new();
                    let (mut pages, mut ends) = (Vec::new(), vec![0]);
                    for r in ranges {
                        let touched = r.offset / page_bytes..=(r.offset + r.len - 1) / page_bytes;
                        pages.extend(touched.filter(|&p| seen.insert(p)));
                        ends.push(pages.len());
                    }
                    (pages, ends)
                };
                for (cache_pages, ranges) in [0usize, 1, 64]
                    .into_iter()
                    .flat_map(|c| orders.iter().map(move |o| (c, o)))
                {
                    let what = format!("file {len} page {page_bytes} cache {cache_pages}");
                    let paged = open(&file, len, page_bytes, cache_pages);
                    let mut cold = StoreStats::default();
                    let staged = paged.read(ranges.iter().copied(), &mut cold).unwrap();
                    check(&staged, ranges, &what);
                    // Any order decodes, not just the read's.
                    check(&staged, &orders[0], &what);
                    let cold_plan = staged.into_plan();
                    let needs = cold_plan.first_needs(ranges.iter().copied());
                    assert_eq!(needs, first_needs(ranges), "{what}");
                    assert_eq!(cold_plan.page_list(), plan, "{what} cold");
                    assert_eq!(cold.page_hits, 0);
                    assert_eq!(cold.pages_read, planned, "every planned page read once");
                    assert_eq!(cold.page_misses, planned);
                    assert_eq!(cold.host_bytes_transferred, cold.bytes_read);
                    // The short final page is read short, not padded.
                    assert!(cold.bytes_read < planned * page_bytes);
                    // The plan is the same list whatever the cache held.
                    let mut again = StoreStats::default();
                    let restaged = paged.read(ranges.iter().copied(), &mut again).unwrap();
                    check(&restaged, ranges, &what);
                    let warm_plan = restaged.into_plan();
                    assert_eq!(warm_plan.page_list(), plan, "{what} warm");
                    assert_eq!(again.page_hits + again.pages_read, planned);
                    assert_eq!(again.pages_read, again.page_misses);
                    match cache_pages {
                        // No cache: every read goes back to the file.
                        0 => assert_eq!(again, cold),
                        // Everything fits: the second pass reads nothing.
                        64 => assert_eq!((again.page_hits, again.bytes_read), (planned, 0)),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn a_failed_stretch_counts_nothing_and_commits_nothing() {
        // (pages at open time, pages left after truncating underneath,
        // the range whose stretch now fails). First a stretch wholly
        // past the new end; then one 4 MiB stretch cut at 3.5 MiB, so
        // it fails pieces after a worker's first buffer-full was read
        // and cut into pages. The stretch covering page 0 succeeds
        // either way.
        for (pages, kept, failing) in [
            (5, 3, range(4 * 512, 8)),
            (8192, 7168, range(2 * 512, 8190 * 512)),
        ] {
            let (file, _) = patterned("paged-fail", pages * 512);
            let paged = open(&file, pages * 512, 512, 16);
            std::fs::OpenOptions::new()
                .write(true)
                .open(file.path())
                .unwrap()
                .set_len(kept * 512)
                .unwrap();
            let ranges = [range(0, 8), failing];
            let mut io = StoreStats::default();
            let err = paged.read(ranges, &mut io).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Io {
                        action: "read run",
                        ..
                    }
                ),
                "{err}"
            );
            assert!(err.to_string().contains(file.path().to_str().unwrap()));
            // Only the stretch that succeeded was counted, and a failed
            // read leaves the cache untouched.
            assert_eq!((io.pages_read, io.bytes_read), (1, 512));
            assert_eq!(paged.cache_resident(), 0);
            // A demand read of the surviving page alone lands it, and
            // the next one hits it without reading.
            let mut landed = StoreStats::default();
            paged.read([range(0, 8)], &mut landed).unwrap();
            assert_eq!((landed.pages_read, landed.bytes_read), (1, 512));
            assert_eq!(paged.cache_resident(), 1);
            let mut demand = StoreStats::default();
            paged.read([range(0, 8)], &mut demand).unwrap();
            assert_eq!((demand.page_hits, demand.pages_read), (1, 0));
        }
    }

    #[test]
    fn a_failed_read_promotes_nothing() {
        // Pages A = 0, B = 1, C = 2 of a 5-page file, in a 2-page
        // cache; pages 3 and 4 are cut off underneath it.
        let (file, _) = patterned("paged-no-promote", 5 * 512);
        let paged = open(&file, 5 * 512, 512, 2);
        let page = |p: u64| range(p * 512, 8);
        let read = |p: u64| {
            let mut io = StoreStats::default();
            paged.read([page(p)], &mut io).unwrap();
            (io.page_hits, io.pages_read)
        };
        assert_eq!((read(0), read(1)), ((0, 1), (0, 1)));
        std::fs::OpenOptions::new()
            .write(true)
            .open(file.path())
            .unwrap()
            .set_len(3 * 512)
            .unwrap();
        // A hits, the stretch past the new end fails: A stays LRU.
        let mut io = StoreStats::default();
        assert!(paged.read([page(0), page(4)], &mut io).is_err());
        assert_eq!(io.page_hits, 1);
        // So C evicts A, and B is still resident.
        assert_eq!(read(2), (0, 1));
        assert_eq!(read(1), (1, 0), "B survives");
        assert_eq!(read(0), (0, 1), "A was the victim");
    }

    #[test]
    fn a_poisoned_cache_lock_still_serves_reads() {
        let (file, bytes) = patterned("paged-poison", 4 * 512);
        let paged = open(&file, 4 * 512, 512, 4);
        let mut io = StoreStats::default();
        paged.read([range(0, 8)], &mut io).unwrap();
        // A reader dies holding the cache lock: the lock is poisoned.
        // (A page and its payload are one record, so there is no
        // half-updated state for it to leave behind.)
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _cache = paged.cache.lock().unwrap();
                panic!("gather died holding the cache lock");
            })
            .join()
        });
        assert!(died.is_err() && paged.cache.is_poisoned());
        let ranges = [range(0, 8), range(600, 8)];
        let mut after = StoreStats::default();
        let staged = paged.read(ranges, &mut after).unwrap();
        assert_eq!((after.page_hits, after.pages_read), (1, 1));
        let mut spill = [0u8; 8];
        assert_eq!(staged.memo().bytes(ranges[1], &mut spill), &bytes[600..608]);
        assert_eq!(paged.cache_resident(), 2);
        paged.clear_cache();
        assert_eq!(paged.cache_resident(), 0);
    }
}
