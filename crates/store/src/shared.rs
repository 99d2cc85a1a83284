//! The shared, thread-safe feature store: one open `SSFEAT01` file
//! serving every concurrent training job in the process.
//!
//! SmartSAGE's premise is *many* training workers contending for *one*
//! storage device. [`SharedFileStore`] models that as a real concurrent
//! subsystem — the row-format layer over a crate-private `PagedFile`
//! (`paged.rs`), which owns the read algorithm:
//!
//! * the file is opened once and read with **positioned reads** (no
//!   shared seek cursor to race on);
//! * the page cache is one exact-LRU map of immutable `Arc<[u8]>`
//!   pages, sized to exactly `cache_pages` behind one lock that a
//!   gather takes twice — to classify its pages, then to publish them
//!   once its misses were read with no lock held;
//! * every operation takes `&self` and returns its **exact per-call
//!   I/O deltas**, which the caller's [`StoreHandle`](crate::StoreHandle)
//!   accumulates into *scoped* counters — no process-global state, no
//!   contamination between runs or sweeps.
//!
//! The determinism contract holds under any interleaving: page bytes
//! come from an immutable file, so gathers are bit-identical to
//! [`InMemoryStore`](crate::InMemoryStore) no matter which thread read
//! which page first. Only the *split* of lookups into hits and misses
//! (and hence bytes read) depends on scheduling; the totals remain
//! exact counts of what actually happened.

// Untrusted input fails as a typed error, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::error::StoreError;
use crate::file::{FileStoreOptions, RawFeatureFile, HEADER_BYTES};
use crate::isp::RowScratchpad;
use crate::paged::{PagedFile, Plan};
use crate::{check_buffer, check_ids, count_call, StoreStats};
use smartsage_graph::generate::community_of;
use smartsage_graph::NodeId;
use smartsage_hostio::{ByteRange, ReadEngine};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// A feature file opened once, shared by any number of threads.
///
/// Constructed directly with [`SharedFileStore::open_with`] or — the
/// usual path — deduplicated through a
/// [`StoreRegistry`](crate::StoreRegistry). Per-caller access goes
/// through [`StoreHandle`](crate::StoreHandle)s, which own the scoped
/// counters; this type itself counts nothing.
#[derive(Debug)]
pub struct SharedFileStore {
    paged: PagedFile,
    dim: usize,
    num_nodes: usize,
    num_classes: usize,
    scratchpad: OnceLock<Arc<RowScratchpad>>,
}

impl SharedFileStore {
    /// Opens `path` with default options.
    pub fn open(path: &Path) -> Result<SharedFileStore, StoreError> {
        SharedFileStore::open_with(path, FileStoreOptions::default())
    }

    /// Opens `path` through the magic/header/length validation. Reads
    /// go through the process-wide [`ReadEngine`].
    pub fn open_with(path: &Path, opts: FileStoreOptions) -> Result<SharedFileStore, StoreError> {
        SharedFileStore::open_with_engine(path, opts, Arc::clone(ReadEngine::global()))
    }

    /// Like [`SharedFileStore::open_with`], but reads through a
    /// caller-supplied engine — conformance suites use this to sweep
    /// I/O worker counts.
    pub fn open_with_engine(
        path: &Path,
        opts: FileStoreOptions,
        engine: Arc<ReadEngine>,
    ) -> Result<SharedFileStore, StoreError> {
        let raw = RawFeatureFile::open(path)?;
        Ok(SharedFileStore {
            paged: PagedFile::new(raw.file, path, raw.file_len, opts, engine),
            dim: raw.dim,
            num_nodes: raw.num_nodes,
            num_classes: raw.num_classes,
            scratchpad: OnceLock::new(),
        })
    }

    /// The host row scratchpad shared by every
    /// [`IspGatherStore`](crate::IspGatherStore) over this file,
    /// created on first use with the same byte budget as this store's
    /// page cache (`cache_pages × page_bytes`). File-tier callers never
    /// touch it, so it costs nothing unless the ISP tier runs.
    pub fn isp_scratchpad(&self) -> Arc<RowScratchpad> {
        Arc::clone(self.scratchpad.get_or_init(|| {
            let opts = self.paged.options();
            Arc::new(RowScratchpad::new(
                opts.cache_pages as u64 * opts.page_bytes,
                self.dim as u64 * 4,
            ))
        }))
    }

    /// The file this store reads from.
    pub fn path(&self) -> &Path {
        self.paged.path()
    }

    /// The configured options.
    pub fn options(&self) -> FileStoreOptions {
        self.paged.options()
    }

    /// Feature dimensionality of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of node rows the store holds.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The label (class) of `node`.
    pub fn label(&self, node: NodeId) -> usize {
        community_of(node, self.num_classes)
    }

    /// Exact length of the backing file in bytes (header + matrix).
    pub fn file_len(&self) -> u64 {
        self.paged.file_len()
    }

    /// Resident pages of the page cache (`reproduce`'s occupancy
    /// report).
    pub fn cache_resident(&self) -> usize {
        self.paged.cache_resident()
    }

    /// Total page capacity of the cache.
    pub fn cache_capacity(&self) -> usize {
        self.paged.cache_capacity()
    }

    /// Drops every cached page and ISP scratchpad row; the next gather
    /// starts cold on either tier. Counters are unaffected (they belong
    /// to handles, not the store).
    pub fn clear_cache(&self) {
        self.paged.clear_cache();
        if let Some(scratchpad) = self.scratchpad.get() {
            scratchpad.clear();
        }
    }

    // Read-ahead is gone; this stub leaves with its last caller
    // (`benchmark/`, frozen for one PR) in the next `benchmark` PR.
    #[doc(hidden)]
    pub fn prefetch_stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// Byte range of `node`'s row within the file (`node` is in range).
    pub(crate) fn row_range(&self, node: NodeId) -> ByteRange {
        let row_bytes = self.dim as u64 * 4;
        ByteRange {
            offset: HEADER_BYTES + node.index() as u64 * row_bytes,
            len: row_bytes,
        }
    }

    /// Gathers the feature rows of `nodes` into `out` (row-major,
    /// `nodes.len() × dim`), returning this call's **exact** counter
    /// deltas — access counts and the I/O it caused. The caller (a
    /// [`StoreHandle`](crate::StoreHandle)) owns where those deltas
    /// accumulate; the shared store keeps no per-caller state.
    pub fn gather_into(&self, nodes: &[NodeId], out: &mut [f32]) -> Result<StoreStats, StoreError> {
        let (mut io, _) = self.gather_planned(nodes, out)?;
        count_call(&mut io, nodes.len(), self.dim as u64 * 4);
        Ok(io)
    }

    /// [`SharedFileStore::gather_into`]'s values and **I/O** deltas (the
    /// caller counts the call), plus the plan of the read it executed:
    /// the pages backing the rows of `nodes` (the ISP tier's
    /// timing-model input, over a [`SharedFileStore::row_range`] per
    /// row).
    pub(crate) fn gather_planned(
        &self,
        nodes: &[NodeId],
        out: &mut [f32],
    ) -> Result<(StoreStats, Plan), StoreError> {
        check_buffer(nodes.len() * self.dim, out)?;
        // Fails on the first out-of-range node, before any I/O.
        check_ids(nodes.iter().copied(), self.num_nodes)?;
        let ranges = nodes.iter().map(|&node| self.row_range(node));
        let mut io = StoreStats::default();
        let staged = self.paged.read(ranges.clone(), &mut io)?;
        // `spill` only carries a row that straddles a page boundary.
        let (mut memo, mut spill) = (staged.memo(), vec![0u8; self.dim * 4]);
        for (range, out_row) in ranges.zip(out.chunks_exact_mut(self.dim)) {
            let row = memo.bytes(range, &mut spill);
            #[expect(clippy::expect_used, reason = "chunks_exact(4) yields 4 bytes")]
            for (v, chunk) in out_row.iter_mut().zip(row.chunks_exact(4)) {
                *v = f32::from_le_bytes(chunk.try_into().expect("4 bytes"));
            }
        }
        Ok((io, staged.into_plan()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_feature_file, FeatureStore, InMemoryStore, ScratchFile};
    use smartsage_graph::FeatureTable;

    fn write_table(tag: &str, dim: usize, nodes: usize) -> (ScratchFile, FeatureTable) {
        let table = FeatureTable::new(dim, 3, 0xFEED);
        let path = ScratchFile::new(tag);
        write_feature_file(path.path(), &table, nodes).unwrap();
        (path, table)
    }

    #[test]
    fn shared_gathers_match_memory_bit_for_bit() {
        let (path, table) = write_table("shared-equiv", 7, 40);
        let store = SharedFileStore::open(path.path()).unwrap();
        let nodes: Vec<NodeId> = [3u32, 0, 39, 3, 17].map(NodeId::new).to_vec();
        let mut got = vec![0.0; nodes.len() * 7];
        let io = store.gather_into(&nodes, &mut got).unwrap();
        let want = InMemoryStore::new(table, 40).gather(&nodes).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(io.gathers, 1);
        assert_eq!(io.nodes_gathered, 5);
        assert!(io.bytes_read > 0);
        assert_eq!(store.label(NodeId::new(5)), 5 % 3);
    }

    #[test]
    fn per_call_deltas_are_exact_and_cache_is_shared() {
        let (path, _) = write_table("shared-deltas", 16, 64);
        let store = SharedFileStore::open(path.path()).unwrap();
        let nodes: Vec<NodeId> = (0..64u32).map(NodeId::new).collect();
        let mut buf = vec![0.0; 64 * 16];
        let cold = store.gather_into(&nodes, &mut buf).unwrap();
        assert!(cold.pages_read > 0);
        assert_eq!(cold.page_hits, 0);
        let warm = store.gather_into(&nodes, &mut buf).unwrap();
        assert_eq!(warm.pages_read, 0, "second pass reads nothing");
        assert_eq!(warm.page_hits + warm.page_misses, cold.page_misses);
        assert_eq!(store.cache_resident() as u64, cold.pages_read);
    }

    #[test]
    fn concurrent_gathers_are_bit_identical_and_counters_sum() {
        let (path, table) = write_table("shared-conc", 5, 50);
        let store = Arc::new(
            SharedFileStore::open_with(
                path.path(),
                FileStoreOptions {
                    page_bytes: 512,
                    cache_pages: 8, // smaller than the file: real eviction churn
                },
            )
            .unwrap(),
        );
        let nodes: Vec<NodeId> = (0..50u32).map(NodeId::new).collect();
        let want = InMemoryStore::new(table, 50).gather(&nodes).unwrap();
        let totals: Vec<StoreStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let store = Arc::clone(&store);
                    let nodes = nodes.clone();
                    let want = want.clone();
                    s.spawn(move || {
                        let mut sum = StoreStats::default();
                        let mut buf = vec![0.0; nodes.len() * 5];
                        for _ in 0..20 {
                            let io = store.gather_into(&nodes, &mut buf).unwrap();
                            assert_eq!(buf, want, "gather diverged under contention");
                            sum.accumulate(&io);
                        }
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all = StoreStats::default();
        for t in &totals {
            all.accumulate(t);
        }
        assert_eq!(all.gathers, 160);
        assert_eq!(all.nodes_gathered, 160 * 50);
        // Every planned page lookup is classified exactly once.
        let lookups_per_gather = {
            let range_pages = |n: u32| {
                let r = store.row_range(NodeId::new(n));
                let (f, l) = r.blocks(512).unwrap();
                f..=l
            };
            let mut pages: Vec<u64> = Vec::new();
            for n in 0..50u32 {
                pages.extend(range_pages(n));
            }
            pages.sort_unstable();
            pages.dedup();
            pages.len() as u64
        };
        assert_eq!(all.page_hits + all.page_misses, 160 * lookups_per_gather);
        assert_eq!(all.pages_read, all.page_misses);
    }
}
