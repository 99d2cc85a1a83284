//! The one paged read path under every file-backed store.
//!
//! A [`PagedFile`] is an open, already validated file plus the
//! lock-striped [`ShardedPageCache`] and [`ReadEngine`] it is read
//! through. It knows nothing about what the bytes mean — the format
//! layers ([`SharedFileStore`](crate::SharedFileStore) rows,
//! [`SharedCsrFile`](crate::SharedCsrFile) `u64` entries) turn a
//! request into byte ranges and decode what comes back. It is the only
//! code that turns a byte range into page numbers, and the pages a
//! [`PagedFile::read`] resolved are handed back as that read's **plan**
//! ([`StagedPages::into_plan`]): the format layers pass it up beside
//! their I/O deltas, and the ISP tiers cost exactly that list — nobody
//! derives the pages of a request a second time. Every read follows
//! one algorithm:
//!
//! 1. **Plan** — the distinct pages the ranges touch, merged into
//!    maximal contiguous runs ([`merge_page_runs`]); pure address
//!    arithmetic. A range inside the page just listed lists nothing
//!    and an ascending list is not sorted, so grouped picks and sorted
//!    rows pay per page here, not per range — exploited, never
//!    required: any order sorts and dedups to the same runs.
//! 2. **Classify** — walking the runs in ascending order, resident
//!    pages are hits (promoted, and staged as `Arc` clones so a
//!    concurrent eviction can never invalidate bytes mid-assembly);
//!    each maximal stretch of missing pages becomes one positioned
//!    read and holds its place in the staging vector.
//! 3. **Fetch** — the whole miss plan goes to the engine as one batch.
//!    Stretches resolve concurrently across I/O workers, and the worker
//!    that read a stretch also cut it into this file's pages
//!    ([`ReadSource::paged`]) — the one copy a fetched byte sees — so
//!    the reading thread only counts what came back. The completion
//!    hands results back in submission order, so staging is
//!    bit-identical to reading the stretches serially.
//! 4. **Commit** — fetched pages enter the cache in ascending page
//!    order.
//!
//! Decoding pays per range, inside one page: [`StagedPages::bytes`]
//! searches the staged pages only when a range leaves its cursor's page.

use crate::error::StoreError;
use crate::file::FileStoreOptions;
use crate::StoreStats;
use smartsage_hostio::{
    merge_page_runs, ByteRange, ReadEngine, ReadRequest, ReadSource, ShardedPageCache,
};
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// Decoded values, the call's exact I/O deltas, and the read's plan.
pub(crate) type Planned<T> = (T, StoreStats, Vec<u64>);

/// An open file read page-wise through a shared cache (module docs).
#[derive(Debug)]
pub(crate) struct PagedFile {
    source: ReadSource,
    file_len: u64,
    opts: FileStoreOptions,
    cache: ShardedPageCache,
    engine: Arc<ReadEngine>,
}

/// The pages one [`PagedFile::read`] resolved — `(page number, bytes)`,
/// ascending and distinct — held by `Arc` while the format layer decodes
/// them, and `at`, the index of the page the previous range resolved to.
#[derive(Debug)]
pub(crate) struct StagedPages {
    pages: Vec<(u64, Arc<[u8]>)>,
    page_bytes: u64,
    at: usize,
}

impl StagedPages {
    /// The bytes of `range`: a slice of its staged page when it lies
    /// within one (searched for only if it is not the previous range's),
    /// otherwise copied across the boundary into `spill` (`spill.len()
    /// == range.len`). `range` must be one of the ranges the read was
    /// planned from, so its pages are staged, and staged side by side.
    pub fn bytes<'a>(&'a mut self, range: ByteRange, spill: &'a mut [u8]) -> &'a [u8] {
        if range.len == 0 {
            return &[];
        }
        let pb = self.page_bytes;
        let cursor = self.pages[self.at].0 * pb;
        if !(cursor..cursor + pb).contains(&range.offset) {
            let first = range.offset / pb;
            self.at = self.pages.partition_point(|&(page, _)| page < first);
        }
        let (page, src) = &self.pages[self.at];
        let lo = (range.offset - page * pb) as usize;
        if let Some(within) = src.get(lo..lo + range.len as usize) {
            return within;
        }
        let mut done = 0;
        while done < spill.len() {
            let (page, src) = &self.pages[self.at];
            let lo = (range.offset + done as u64 - page * pb) as usize;
            let n = (src.len() - lo).min(spill.len() - done);
            spill[done..done + n].copy_from_slice(&src[lo..lo + n]);
            done += n;
            self.at += 1;
        }
        self.at -= 1;
        spill
    }

    /// The read's plan: every page it resolved, ascending and distinct
    /// — each one counted exactly once into the read's `page_hits` or
    /// `pages_read`.
    pub fn into_plan(self) -> Vec<u64> {
        self.pages.into_iter().map(|(page, _)| page).collect()
    }
}

impl PagedFile {
    /// Wraps an open file of exactly `file_len` bytes whose reads
    /// complete in `opts.page_bytes` pages, striping its page cache over
    /// `stripes` locks (rounded up to a power of two).
    pub fn new(
        file: File,
        path: &Path,
        file_len: u64,
        opts: FileStoreOptions,
        stripes: usize,
        engine: Arc<ReadEngine>,
    ) -> PagedFile {
        assert!(opts.page_bytes > 0, "page size must be positive");
        PagedFile {
            source: ReadSource::paged(file, path.to_path_buf(), opts.page_bytes as usize),
            file_len,
            opts,
            cache: ShardedPageCache::new(opts.cache_pages, stripes),
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

    pub fn cache_occupancy(&self) -> Vec<usize> {
        self.cache.occupancy()
    }

    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    pub fn clear_cache(&self) {
        self.cache.clear();
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
    /// docs), adding this call's exact I/O deltas to `io`. The first
    /// failed stretch fails the read — naming the file — before
    /// anything is committed to the cache.
    pub fn read(
        &self,
        ranges: &[ByteRange],
        io: &mut StoreStats,
    ) -> Result<StagedPages, StoreError> {
        // A range inside the page just listed costs one compare and
        // lists nothing; `merge_page_runs` sorts only a list that needs it.
        let pb = self.opts.page_bytes;
        let mut touched: Vec<u64> = Vec::new();
        let mut listed = 0..0;
        for range in ranges {
            if listed.start <= range.offset && range.offset + range.len <= listed.end {
                continue;
            }
            if let Some((first, last)) = range.blocks(pb) {
                let relisted = touched.last() == Some(&first);
                touched.extend(first + u64::from(relisted)..=last);
                listed = last * pb..(last + 1) * pb;
            }
        }
        // Classify: a resident page is a hit; a missing one opens a
        // stretch `(first_page, page_count)` that extends while the
        // cache does not hold the next page of the run. Its pages hold
        // their place in the staging vector as holes — empty, which no
        // page of a file is — until the stretch is fetched.
        let hole: Arc<[u8]> = Arc::from([]);
        let mut pages: Vec<(u64, Arc<[u8]>)> = Vec::new();
        let mut stretches: Vec<(u64, u64)> = Vec::new();
        for run in merge_page_runs(&touched) {
            let mut p = run.first;
            while p < run.end() {
                if let Some(buf) = self.cache.get(p) {
                    io.page_hits += 1;
                    pages.push((p, buf));
                    p += 1;
                    continue;
                }
                let mut q = p + 1;
                while q < run.end() && !self.cache.contains(q) {
                    q += 1;
                }
                stretches.push((p, q - p));
                pages.extend((p..q).map(|page| (page, Arc::clone(&hole))));
                p = q;
            }
        }
        let mut fetched = Vec::new();
        for result in self.fetch(&stretches, io) {
            fetched.extend(result.map_err(|source| StoreError::Io {
                path: self.path().to_path_buf(),
                action: "read run",
                source,
            })?);
        }
        // Every stretch succeeded: fill the holes and commit, both in
        // ascending page order.
        let holes = pages.iter_mut().filter(|(_, buf)| buf.is_empty());
        for ((page, slot), buf) in holes.zip(fetched) {
            self.cache.insert(*page, Arc::clone(&buf));
            *slot = buf;
        }
        Ok(StagedPages {
            pages,
            page_bytes: pb,
            at: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchFile;

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
            2,
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
        // on the file's last byte.
        let (file, bytes) = patterned("paged-sizes", 10_001);
        let grouped = vec![
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
        ];
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
        let check = |staged: &mut StagedPages, ranges: &[ByteRange], what: &str| {
            for &r in ranges {
                let mut spill = vec![0u8; r.len as usize];
                let want = &bytes[r.offset as usize..(r.offset + r.len) as usize];
                assert_eq!(staged.bytes(r, &mut spill), want, "{what} {r:?}");
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
            for (cache_pages, ranges) in [0usize, 1, 64]
                .into_iter()
                .flat_map(|c| orders.iter().map(move |o| (c, o)))
            {
                let what = format!("page {page_bytes} cache {cache_pages}");
                let paged = open(&file, 10_001, page_bytes, cache_pages);
                let mut cold = StoreStats::default();
                let mut staged = paged.read(ranges, &mut cold).unwrap();
                check(&mut staged, ranges, &what);
                // The cursor follows any order, not just the read's.
                check(&mut staged, &orders[0], &what);
                assert_eq!(staged.into_plan(), plan, "{what} cold");
                assert_eq!(cold.page_hits, 0);
                assert_eq!(cold.pages_read, planned, "every planned page read once");
                assert_eq!(cold.page_misses, planned);
                assert_eq!(cold.host_bytes_transferred, cold.bytes_read);
                // The short final page is read short, not padded.
                assert!(cold.bytes_read < planned * page_bytes);
                // The plan is the same list whatever the cache held.
                let mut again = StoreStats::default();
                let mut restaged = paged.read(ranges, &mut again).unwrap();
                check(&mut restaged, ranges, &what);
                assert_eq!(restaged.into_plan(), plan, "{what} warm");
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
            let err = paged.read(&ranges, &mut io).unwrap_err();
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
            assert_eq!(paged.cache_occupancy().iter().sum::<usize>(), 0);
            // A demand read of the surviving page alone lands it, and
            // the next one hits it without reading.
            let mut landed = StoreStats::default();
            paged.read(&[range(0, 8)], &mut landed).unwrap();
            assert_eq!((landed.pages_read, landed.bytes_read), (1, 512));
            assert_eq!(paged.cache_occupancy().iter().sum::<usize>(), 1);
            let mut demand = StoreStats::default();
            paged.read(&[range(0, 8)], &mut demand).unwrap();
            assert_eq!((demand.page_hits, demand.pages_read), (1, 0));
        }
    }
}
