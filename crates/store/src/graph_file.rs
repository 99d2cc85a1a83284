//! The on-disk CSR graph file: real page-aligned storage for the
//! neighbor edge-list array.
//!
//! # On-disk layout (`SSGRPH01`)
//!
//! A graph file is the store-file header of [`mod@crate::file`] (the
//! sibling `SSFEAT01` format holds the feature half) followed by the
//! paper's Fig 10 byte space exactly as the modeled SSD lays it out:
//! [`smartsage_hostio::GraphFile`] placed at [`HEADER_BYTES`]. Every
//! offset and neighbor address below is that layout's; this module
//! does no address arithmetic of its own.
//!
//! ```text
//! offset 0      magic  "SSGRPH01"             (8 bytes)
//! offset 8      num_nodes   u64 LE
//! offset 16     num_edges   u64 LE
//! offset 24     zero padding to 4096
//! offset 4096   offsets: (num_nodes + 1) × u64 LE
//!               zero padding to the next 4096 boundary
//! offset E      edge array: num_edges × u64 LE neighbor ids
//! ```
//!
//! Every entry is 8 bytes ([`NEIGHBOR_ENTRY_BYTES`], the paper's
//! "fine-grained 8 byte read transactions"). A file whose length
//! disagrees with its header fails to open with
//! [`StoreError::Truncated`] naming the file and the expected length;
//! internally inconsistent CSR content — offsets out of monotone order,
//! an edge index past the end of the edge array, a neighbor id past the
//! node count — fails the read that discovers it with
//! [`StoreError::CorruptGraph`], never a panic.
//!
//! # Read path
//!
//! [`SharedCsrFile`] is the topology analogue of
//! [`SharedFileStore`](crate::SharedFileStore): the `u64`-entry format
//! layer over the same crate-private `PagedFile` (`paged.rs`). The
//! file is opened once per registry; a batch of offset or edge entries
//! becomes the layout's byte ranges that the paged read path resolves
//! through its page cache, and the entries decode straight
//! out of the staged pages into the caller's output, each page looked
//! up once per change of page. A pick batch reads one offset pair per
//! maximal run of equal consecutive parents, checks every pick of the
//! run against it, and plans a run whose list lies in one page as that
//! one range. Every operation takes
//! `&self` and returns its exact per-call I/O deltas, which the caller's
//! [`FileTopology`](crate::FileTopology) handle accumulates into scoped
//! counters.

// Untrusted input fails as a typed error, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::error::StoreError;
use crate::file::{check_len, create_with_header, open_header, FileStoreOptions, HEADER_BYTES};
use crate::paged::{PagedFile, Plan, Planned};
use crate::{check_ids, check_pick, StoreStats};
use smartsage_graph::csr::NEIGHBOR_ENTRY_BYTES;
use smartsage_graph::{CsrGraph, NodeId};
use smartsage_hostio::{ByteRange, GraphFile, ReadEngine};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a graph topology file (versioned).
pub const GRAPH_FILE_MAGIC: [u8; 8] = *b"SSGRPH01";

/// Serializes `graph` to `path` in the layout above. Overwrites any
/// existing file.
pub fn write_graph_file(path: &Path, graph: &CsrGraph) -> Result<(), StoreError> {
    write_graph_shard(path, graph, 0, graph.num_nodes())
}

/// Global edge offset of node index `i` (`i == num_nodes` is the end of
/// the edge array).
pub(crate) fn edge_offset(graph: &CsrGraph, i: usize) -> u64 {
    if i == graph.num_nodes() {
        graph.num_edges()
    } else {
        graph.edge_list_start(NodeId::new(i as u32))
    }
}

/// Serializes the edge lists of the global node range `start..end` of
/// `graph` to `path` as a standalone graph-shard file.
///
/// A graph shard is a perfectly ordinary `SSGRPH01` file that keeps the
/// **global** node count in its header (so neighbor ids — which remain
/// global — still validate against it) and a full-length offset array
/// that is flat outside the shard's range: offsets below `start` are
/// `0`, offsets inside `start..=end` are rebased by the shard's first
/// global edge offset, and offsets above `end` equal the shard's edge
/// count. The endpoint invariants every open path checks (first offset
/// `0`, last offset == header edge count) therefore hold by
/// construction, out-of-shard nodes read as degree `0`, and in-shard
/// nodes resolve to exactly their global edge lists — no id
/// translation anywhere on the topology axis. An empty range writes a
/// valid zero-edge shard. Overwrites any existing file.
pub fn write_graph_shard(
    path: &Path,
    graph: &CsrGraph,
    start: usize,
    end: usize,
) -> Result<(), StoreError> {
    let n = graph.num_nodes();
    assert!(start <= end && end <= n, "bad shard range {start}..{end}");
    let base = edge_offset(graph, start);
    let top = edge_offset(graph, end);
    #[expect(
        clippy::expect_used,
        reason = "an in-memory graph's layout fits in u64"
    )]
    let layout = GraphFile::at(HEADER_BYTES, n as u64, top - base).expect("layout fits");
    let mut w = create_with_header(path, GRAPH_FILE_MAGIC, &[n as u64, top - base])?;
    for i in 0..=n {
        let off = edge_offset(graph, i).clamp(base, top) - base;
        w.write_all(&off.to_le_bytes())
            .map_err(StoreError::io(path, "write offsets"))?;
    }
    // Zero-pad up to where the layout starts the edge array.
    let table_end = w
        .stream_position()
        .map_err(StoreError::io(path, "write offsets"))?;
    let pad = layout.edge_entries(0, 0).offset - table_end;
    w.write_all(&vec![0u8; pad as usize])
        .map_err(StoreError::io(path, "write padding"))?;
    for i in start..end {
        for &t in graph.neighbors(NodeId::new(i as u32)) {
            w.write_all(&(t.raw() as u64).to_le_bytes())
                .map_err(StoreError::io(path, "write edges"))?;
        }
    }
    w.flush().map_err(StoreError::io(path, "flush"))
}

/// Two picks of one run: the same parent.
pub(crate) fn same_parent(a: &(NodeId, u64), b: &(NodeId, u64)) -> bool {
    a.0 == b.0
}

/// The `N` LE `u64` entries `bytes` holds.
fn entries<const N: usize>(bytes: &[u8]) -> [u64; N] {
    let mut entries = [0u64; N];
    for (entry, chunk) in entries.iter_mut().zip(bytes.chunks_exact(8)) {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(chunk);
        *entry = u64::from_le_bytes(raw);
    }
    entries
}

/// An opened, validated graph file: the read handle, its header fields
/// and the layout they imply.
#[derive(Debug)]
pub(crate) struct RawGraphFile {
    pub file: File,
    pub num_nodes: usize,
    pub num_edges: u64,
    pub layout: GraphFile,
    pub file_len: u64,
}

impl RawGraphFile {
    /// Opens `path`, validating magic, header consistency, the exact
    /// file length, and the cheap end-point CSR invariants (first
    /// offset 0, last offset = edge count) before any slice is read.
    pub fn open(path: &Path) -> Result<RawGraphFile, StoreError> {
        let (mut file, file_len, [num_nodes, num_edges]) = open_header(path, GRAPH_FILE_MAGIC)?;
        if num_nodes > u32::MAX as u64 {
            return Err(StoreError::BadHeader {
                path: path.to_path_buf(),
                reason: format!("node count {num_nodes} exceeds u32 ids"),
            });
        }
        let layout = check_len(
            path,
            file_len,
            GraphFile::at(HEADER_BYTES, num_nodes, num_edges),
            GraphFile::total_bytes,
            format_args!("{num_nodes} nodes, {num_edges} edges"),
        )?;
        // End-point CSR invariants are one read each; the interior
        // (monotonicity, targets in range) is validated lazily by the
        // reads that touch it.
        let corrupt = |reason: String| StoreError::CorruptGraph {
            path: path.to_path_buf(),
            reason,
        };
        let mut offset_of = |node: u64| -> Result<u64, StoreError> {
            let mut buf = [0u8; NEIGHBOR_ENTRY_BYTES as usize];
            file.seek(SeekFrom::Start(
                layout.offset_entry_range(NodeId::new(node as u32)).offset,
            ))
            .and_then(|_| file.read_exact(&mut buf))
            .map_err(StoreError::io(path, "read offsets"))?;
            Ok(u64::from_le_bytes(buf))
        };
        let first = offset_of(0)?;
        if first != 0 {
            return Err(corrupt(format!("first offset is {first}, expected 0")));
        }
        let last = offset_of(num_nodes)?;
        if last != num_edges {
            return Err(corrupt(format!(
                "last offset {last} disagrees with edge count {num_edges}"
            )));
        }
        Ok(RawGraphFile {
            file,
            num_nodes: num_nodes as usize,
            num_edges,
            layout,
            file_len,
        })
    }
}

/// Each node's `(start, end)` entry indices into the edge array.
type OffsetPairs = Vec<(u64, u64)>;

/// A graph topology file opened once, shared by any number of threads.
///
/// The topology analogue of [`SharedFileStore`](crate::SharedFileStore):
/// constructed directly with [`SharedCsrFile::open_with`] or — the
/// usual path — deduplicated through a
/// [`StoreRegistry`](crate::StoreRegistry). Per-caller access goes
/// through [`FileTopology`](crate::FileTopology) handles (scoped
/// counters) or an [`IspSampleTopology`](crate::IspSampleTopology)
/// (device-side resolution); this type itself keeps no per-caller
/// state.
#[derive(Debug)]
pub struct SharedCsrFile {
    paged: PagedFile,
    num_nodes: usize,
    num_edges: u64,
    pub(crate) layout: GraphFile,
}

impl SharedCsrFile {
    /// Opens `path` with default options.
    pub fn open(path: &Path) -> Result<SharedCsrFile, StoreError> {
        SharedCsrFile::open_with(path, FileStoreOptions::default())
    }

    /// Opens `path` through the full magic/header/length/end-point
    /// validation. Reads go through the process-wide [`ReadEngine`].
    pub fn open_with(path: &Path, opts: FileStoreOptions) -> Result<SharedCsrFile, StoreError> {
        SharedCsrFile::open_with_engine(path, opts, Arc::clone(ReadEngine::global()))
    }

    /// Like [`SharedCsrFile::open_with`], but reads through a
    /// caller-supplied engine — conformance suites use this to sweep
    /// I/O worker counts.
    pub fn open_with_engine(
        path: &Path,
        opts: FileStoreOptions,
        engine: Arc<ReadEngine>,
    ) -> Result<SharedCsrFile, StoreError> {
        let raw = RawGraphFile::open(path)?;
        Ok(SharedCsrFile {
            paged: PagedFile::new(raw.file, path, raw.file_len, opts, engine),
            num_nodes: raw.num_nodes,
            num_edges: raw.num_edges,
            layout: raw.layout,
        })
    }

    /// The file this store reads from.
    pub fn path(&self) -> &Path {
        self.paged.path()
    }

    /// The configured options.
    pub fn options(&self) -> FileStoreOptions {
        self.paged.options()
    }

    /// Number of nodes the graph holds.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges the graph holds.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Exact length of the backing file in bytes.
    pub fn file_len(&self) -> u64 {
        self.paged.file_len()
    }

    /// Resident pages of the page cache.
    pub fn cache_resident(&self) -> usize {
        self.paged.cache_resident()
    }

    /// Total page capacity of the cache.
    pub fn cache_capacity(&self) -> usize {
        self.paged.cache_capacity()
    }

    /// Drops every cached page; the next read starts cold.
    pub fn clear_cache(&self) {
        self.paged.clear_cache();
    }

    fn corrupt(&self, reason: String) -> StoreError {
        StoreError::CorruptGraph {
            path: self.path().to_path_buf(),
            reason,
        }
    }

    /// Reads the `(start, end)` offset pair of every node in `nodes`,
    /// returning the pairs, this call's exact **I/O** deltas (the
    /// caller owns the access-level counters — a topology tier may
    /// chain several raw reads into one logical operation) and the
    /// read's plan (the ISP tier's timing-model input, over an offset
    /// range per node). Validates node
    /// bounds before any I/O and the CSR monotone/EOF invariants on
    /// every pair it returns. A pair decodes straight out of its staged
    /// page, looked up once per page change.
    pub(crate) fn offset_pairs(
        &self,
        nodes: &[NodeId],
    ) -> Result<Planned<OffsetPairs>, StoreError> {
        check_ids(nodes.iter().copied(), self.num_nodes)?;
        // The two adjacent offset entries of a node (start + end of
        // its neighbor slice) are one 16-byte range.
        let ranges = nodes
            .iter()
            .map(|&node| self.layout.offset_entry_range(node));
        let mut io = StoreStats::default();
        let staged = self.paged.read(ranges.clone(), &mut io)?;
        let (mut memo, mut spill) = (staged.memo(), [0u8; 2 * NEIGHBOR_ENTRY_BYTES as usize]);
        let mut pairs = Vec::with_capacity(nodes.len());
        for (&node, range) in nodes.iter().zip(ranges) {
            let [start, end] = entries(memo.bytes(range, &mut spill));
            if start > end {
                return Err(self.corrupt(format!(
                    "offsets out of monotone order at node {node}: {start} > {end}"
                )));
            }
            if end > self.num_edges {
                return Err(self.corrupt(format!(
                    "edge index {end} at node {node} is past the end of the \
                     {}-entry edge array",
                    self.num_edges
                )));
            }
            pairs.push((start, end));
        }
        Ok((pairs, io, staged.into_plan()))
    }

    /// The byte ranges the ISP tier's command covers, run by run: per
    /// maximal run of equal consecutive parents (whose offset pair
    /// `pairs` holds, in run order), the parent's offset range, then
    /// each pick's edge entry. Derived on the fly, never listed.
    pub(crate) fn pick_ranges<'a>(
        &self,
        picks: &'a [(NodeId, u64)],
        pairs: &'a [(u64, u64)],
    ) -> impl Iterator<Item = ByteRange> + Clone + 'a {
        let (runs, layout) = (picks.chunk_by(same_parent).zip(pairs), self.layout);
        runs.flat_map(move |(run, &(start, _))| {
            let parent = layout.offset_entry_range(run[0].0);
            let edges = run.iter().map(move |p| layout.edge_entries(start + p.1, 1));
            std::iter::once(parent).chain(edges)
        })
    }

    /// Resolves `(node, position)` picks end to end into `out`
    /// (`out.len() == picks.len()`), run by run: one offset pair per
    /// maximal run of equal consecutive nodes locates and validates
    /// that run's picks, then the picked edge entries resolve in one
    /// read. That read lists a run whose parent's whole list lies in
    /// one page as that one range (the same page its picks touch), and
    /// any other run pick by pick, so the read plans the pages of the
    /// picks' entries exactly, and builds no per-pick list. Each pick
    /// then decodes as an offset into its staged page, looked up once
    /// per page change. Returns the combined exact I/O deltas, the
    /// plans of the offset read and the edge read, unmerged (only the
    /// ISP tier's command reads them), and the runs' offset pairs, from
    /// which [`SharedCsrFile::pick_ranges`] re-derives the ranges the
    /// ISP command covers. Shared by [`FileTopology`](crate::FileTopology)
    /// and [`IspSampleTopology`](crate::IspSampleTopology) so the two
    /// tiers' validation and error wording can never drift.
    pub(crate) fn resolve_picks(
        &self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<Planned<OffsetPairs, [Plan; 2]>, StoreError> {
        let runs = || picks.chunk_by(same_parent);
        let parents: Vec<NodeId> = runs().map(|run| run[0].0).collect();
        let (pairs, mut io, offset_plan) = self.offset_pairs(&parents)?;
        // Every pair lies inside the edge array, so every pick inside its
        // parent's pair does too.
        for (run, &(start, end)) in runs().zip(&pairs) {
            for &pick in run {
                check_pick(pick, end - start)?;
            }
        }
        let (layout, page_bytes) = (self.layout, self.options().page_bytes);
        let ranges = runs().zip(&pairs).flat_map(move |(run, &(start, end))| {
            let list = layout.edge_entries(start, end - start);
            let one_page = list
                .blocks(page_bytes)
                .is_some_and(|(first, last)| first == last);
            let each = if one_page { &run[..0] } else { run };
            let edges = each
                .iter()
                .map(move |p| layout.edge_entries(start + p.1, 1));
            one_page.then_some(list).into_iter().chain(edges)
        });
        let staged = self.paged.read(ranges, &mut io)?;
        let (mut memo, mut spill) = (staged.memo(), [0u8; NEIGHBOR_ENTRY_BYTES as usize]);
        let mut slots = out.iter_mut();
        for (run, &(start, _)) in runs().zip(&pairs) {
            for (&(node, position), slot) in run.iter().zip(&mut slots) {
                let entry = layout.edge_entries(start + position, 1);
                let [raw] = entries(memo.bytes(entry, &mut spill));
                if raw >= self.num_nodes as u64 {
                    return Err(self.corrupt(format!(
                        "neighbor id {raw} at position {position} of node {node} is past the \
                         {}-node bound",
                        self.num_nodes
                    )));
                }
                *slot = NodeId::new(raw as u32);
            }
        }
        Ok((pairs, io, [offset_plan, staged.into_plan()]))
    }

    // Read-ahead is gone; this stub leaves with its last caller
    // (`benchmark/`, frozen for one PR) in the next `benchmark` PR.
    #[doc(hidden)]
    pub fn prefetch_stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchFile;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};

    fn graph(nodes: usize, seed: u64) -> CsrGraph {
        generate_power_law(&PowerLawConfig {
            nodes,
            avg_degree: 6.0,
            seed,
            ..PowerLawConfig::default()
        })
    }

    fn write_graph(tag: &str, g: &CsrGraph) -> ScratchFile {
        let file = ScratchFile::new(tag);
        write_graph_file(file.path(), g).unwrap();
        file
    }

    #[test]
    fn roundtrip_matches_the_in_memory_csr() {
        let g = graph(120, 0xA);
        let file = write_graph("roundtrip", &g);
        let shared = SharedCsrFile::open(file.path()).unwrap();
        assert_eq!(shared.num_nodes(), 120);
        assert_eq!(shared.num_edges(), g.num_edges());
        let nodes: Vec<NodeId> = (0..120u32).map(NodeId::new).collect();
        let (pairs, io, _) = shared.offset_pairs(&nodes).unwrap();
        assert!(io.bytes_read > 0);
        let mut picks = Vec::new();
        for (node, &(start, end)) in nodes.iter().zip(&pairs) {
            assert_eq!(end - start, g.degree(*node));
            picks.extend((0..end - start).map(|position| (*node, position)));
        }
        let mut targets = vec![NodeId::default(); picks.len()];
        shared.resolve_picks(&picks, &mut targets).unwrap();
        let mut want = Vec::new();
        for node in g.node_ids() {
            want.extend_from_slice(g.neighbors(node));
        }
        assert_eq!(targets, want, "edge array round-trips bit-for-bit");
    }

    #[test]
    fn repeat_reads_hit_the_page_cache_and_deltas_are_exact() {
        let g = graph(200, 0xB);
        let file = write_graph("cache", &g);
        let shared = SharedCsrFile::open(file.path()).unwrap();
        let nodes: Vec<NodeId> = (0..200u32).map(NodeId::new).collect();
        let (_, cold, _) = shared.offset_pairs(&nodes).unwrap();
        assert!(cold.pages_read > 0);
        assert_eq!(cold.page_hits, 0);
        assert_eq!(cold.pages_read, cold.page_misses);
        let (_, warm, _) = shared.offset_pairs(&nodes).unwrap();
        assert_eq!(warm.pages_read, 0, "second pass reads nothing");
        assert_eq!(warm.page_hits + warm.page_misses, cold.page_misses);
        assert_eq!(shared.cache_resident() as u64, cold.pages_read);
        shared.clear_cache();
        assert_eq!(shared.cache_resident(), 0);
    }

    #[test]
    fn odd_page_sizes_resolve_identically() {
        let g = graph(300, 0xC);
        let file = write_graph("pagesizes", &g);
        let degree_one = g.node_ids().find(|&n| g.degree(n) == 1).unwrap();
        let hub = g.node_ids().max_by_key(|&n| g.degree(n)).unwrap();
        assert!(g.degree(hub) >= 3);
        // Every node in id order, then stragglers: repeats, a descent,
        // and the nodes whose pair a page boundary below splits.
        let mut nodes: Vec<NodeId> = g.node_ids().collect();
        nodes.extend([299u32, 0, 63, 63, 113, 112, 0].map(NodeId::new));
        // Every pick of every node, grouped per parent; then the hub
        // interleaved with another parent (A, B, A), repeated in a
        // second run of its own, and a degree-1 parent.
        let mut picks: Vec<(NodeId, u64)> = g
            .node_ids()
            .flat_map(|n| (0..g.degree(n)).map(move |k| (n, k)))
            .collect();
        picks.extend([(hub, 0), (degree_one, 0), (hub, 2), (hub, 1), (hub, 1)]);
        let want_pairs: Vec<(u64, u64)> = nodes
            .iter()
            .map(|&n| (edge_offset(&g, n.index()), edge_offset(&g, n.index() + 1)))
            .collect();
        let want_targets: Vec<NodeId> = picks.iter().map(|&(n, k)| g.neighbor(n, k)).collect();
        // 1001 splits 8-byte entries (offset entry 113, edge entries),
        // 4100 splits offset entry 0, 512 splits node 63's pair between
        // its two entries.
        for page_bytes in [512u64, 1001, 1024, 4096, 4100, 16384] {
            let shared = SharedCsrFile::open_with(
                file.path(),
                FileStoreOptions {
                    page_bytes,
                    cache_pages: 2,
                },
            )
            .unwrap();
            assert_eq!(
                shared.offset_pairs(&nodes).unwrap().0,
                want_pairs,
                "page size {page_bytes} diverged"
            );
            let mut targets = vec![NodeId::default(); picks.len()];
            shared.resolve_picks(&picks, &mut targets).unwrap();
            assert_eq!(targets, want_targets, "page size {page_bytes} diverged");
        }
    }

    /// `resolve_picks` the plain way, on `file`: the runs' offset pairs,
    /// then every pick's own entry range, each read through
    /// [`PagedFile::read`] and decoded range by range.
    fn reference_picks(
        file: &SharedCsrFile,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Planned<OffsetPairs> {
        let layout = file.layout;
        let mut io = StoreStats::default();
        let offsets = picks
            .chunk_by(same_parent)
            .map(|run| layout.offset_entry_range(run[0].0));
        let staged = file.paged.read(offsets.clone(), &mut io).unwrap();
        let mut spill = [0u8; 16];
        let pairs: Vec<(u64, u64)> = offsets
            .map(|range| {
                let [start, end] = entries(staged.bytes(range, &mut spill));
                (start, end)
            })
            .collect();
        let offset_plan = staged.into_plan();
        let runs = picks.chunk_by(same_parent).zip(&pairs);
        let edges: Vec<ByteRange> = runs
            .flat_map(|(run, &(start, _))| {
                run.iter().map(move |p| layout.edge_entries(start + p.1, 1))
            })
            .collect();
        let staged = file.paged.read(edges.iter().copied(), &mut io).unwrap();
        for (&range, slot) in edges.iter().zip(out) {
            let [raw] = entries(staged.bytes(range, &mut spill[..8]));
            *slot = NodeId::new(raw as u32);
        }
        (pairs, io, offset_plan.merge(staged.into_plan()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Run-by-run planning and decoding changes nothing observable:
        /// on random graphs with hubs whose lists span many pages, at
        /// page sizes that divide the entries, split them, and hold
        /// less than two of them, `resolve_picks` and the per-pick
        /// reference — each on its own open of one file, cold, then
        /// again warm through a cache that churns or holds everything
        /// — agree on the answers, the pairs, every I/O counter, the
        /// plan's pages and the ISP command's first needs.
        #[test]
        fn run_by_run_picks_match_the_per_pick_reference(
            seed in proptest::prelude::any::<u64>(),
            cache in 0usize..3,
        ) {
            use proptest::prelude::*;
            let mut rng = smartsage_sim::Xoshiro256::seed_from_u64(seed);
            // 1–3 hubs of 600–3000 edges (a list across up to seven
            // 4 KiB pages), the rest 0–12 edges.
            let n = 8 + rng.range_usize(100);
            let hubs = 1 + rng.range_usize(3);
            let mut edges = Vec::new();
            for node in 0..n {
                let degree = match node < hubs {
                    true => 600 + rng.range_usize(2400),
                    false => rng.range_usize(13),
                };
                edges.extend((0..degree).map(|_| (node as u32, rng.range_usize(n) as u32)));
            }
            let g = CsrGraph::from_edges(n, edges);
            // Runs of 1–20 picks on parents that have edges, a hub one
            // time in three; a parent may come back in a later run.
            let parents: Vec<NodeId> = g.node_ids().filter(|&v| g.degree(v) > 0).collect();
            let mut picks = Vec::new();
            for _ in 0..1 + rng.range_usize(40) {
                let parent = match rng.range_usize(3) {
                    0 => NodeId::new(rng.range_usize(hubs) as u32),
                    _ => parents[rng.range_usize(parents.len())],
                };
                let degree = g.degree(parent) as usize;
                let run = (0..1 + rng.range_usize(20)).map(|_| rng.range_usize(degree) as u64);
                picks.extend(run.map(|position| (parent, position)));
            }
            let want: Vec<NodeId> = picks.iter().map(|&(v, k)| g.neighbor(v, k)).collect();
            let file = write_graph("picks-reference", &g);
            for page_bytes in [512u64, 1001, 4096, 12] {
                let opts = FileStoreOptions { page_bytes, cache_pages: [0, 3, 1 << 20][cache] };
                let open = || SharedCsrFile::open_with(file.path(), opts).unwrap();
                let (shared, twin) = (open(), open());
                for _ in 0..2 {
                    let mut got = vec![NodeId::default(); picks.len()];
                    let mut ref_got = got.clone();
                    let (pairs, io, [offsets, edges]) =
                        shared.resolve_picks(&picks, &mut got).unwrap();
                    let plan = offsets.merge(edges);
                    let (ref_pairs, ref_io, ref_plan) =
                        reference_picks(&twin, &picks, &mut ref_got);
                    prop_assert_eq!(&got, &want, "page {}", page_bytes);
                    prop_assert_eq!(&ref_got, &want, "page {}", page_bytes);
                    prop_assert_eq!(&pairs, &ref_pairs);
                    prop_assert_eq!(io, ref_io, "page {}", page_bytes);
                    prop_assert_eq!(plan.page_list(), ref_plan.page_list());
                    let ranges = shared.pick_ranges(&picks, &pairs);
                    let needs = plan.first_needs(ranges.clone());
                    prop_assert_eq!(needs, ref_plan.first_needs(ranges));
                }
            }
        }
    }

    #[test]
    fn a_bad_position_inside_a_run_names_its_pick_and_counts_nothing() {
        use crate::{FileTopology, TopologyStore};
        let g = graph(120, 0x10);
        let file = write_graph("midrun", &g);
        let hub = g.node_ids().max_by_key(|&n| g.degree(n)).unwrap();
        let degree = g.degree(hub);
        let other = g.node_ids().find(|&n| n != hub && g.degree(n) > 0).unwrap();
        let mut topology = FileTopology::new(Arc::new(SharedCsrFile::open(file.path()).unwrap()));
        let picks = [(other, 0), (hub, 0), (hub, degree), (hub, 1)];
        let mut out = [NodeId::default(); 4];
        let err = topology.pick_neighbors_into(&picks, &mut out).unwrap_err();
        assert!(
            matches!(err, StoreError::PickOutOfRange { node, position, degree: d }
                if node == hub && position == degree && d == degree),
            "{err}"
        );
        assert_eq!(topology.stats(), StoreStats::default());
    }

    #[test]
    fn truncated_graph_file_names_file_and_expected_length() {
        let g = graph(40, 0xD);
        let file = write_graph("trunc", &g);
        let full = std::fs::metadata(file.path()).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(file.path())
            .unwrap()
            .set_len(full - 9)
            .unwrap();
        let err = SharedCsrFile::open(file.path()).unwrap_err();
        assert!(matches!(err, StoreError::Truncated { expected, actual, .. }
            if expected == full && actual == full - 9));
        let msg = err.to_string();
        assert!(msg.contains(file.path().to_str().unwrap()), "{msg}");
        assert!(msg.contains(&full.to_string()), "{msg}");
    }

    #[test]
    fn bad_magic_and_corrupt_endpoints_are_typed() {
        let file = ScratchFile::new("graph-magic");
        std::fs::write(file.path(), vec![0u8; HEADER_BYTES as usize]).unwrap();
        assert!(matches!(
            SharedCsrFile::open(file.path()).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        // A valid-length file whose last offset disagrees with the edge
        // count is corrupt, not truncated.
        let g = graph(10, 0xE);
        let file = write_graph("graph-endpoint", &g);
        let layout = GraphFile::at(HEADER_BYTES, 10, g.num_edges()).unwrap();
        let at = layout.offset_entry_range(NodeId::new(10)).offset;
        let mut bytes = std::fs::read(file.path()).unwrap();
        bytes[at as usize..at as usize + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(file.path(), &bytes).unwrap();
        let err = SharedCsrFile::open(file.path()).unwrap_err();
        assert!(matches!(err, StoreError::CorruptGraph { .. }), "{err}");
        assert!(err.to_string().contains("last offset"), "{err}");
    }

    #[test]
    fn overflowing_header_size_is_rejected_not_wrapped() {
        // num_edges × 8 overflows u64: must fail typed, never wrap
        // around the truncation check.
        let file = ScratchFile::new("graph-overflow");
        let mut bytes = vec![0u8; HEADER_BYTES as usize];
        bytes[0..8].copy_from_slice(&GRAPH_FILE_MAGIC);
        bytes[8..16].copy_from_slice(&4u64.to_le_bytes()); // nodes
        bytes[16..24].copy_from_slice(&(u64::MAX / 4).to_le_bytes()); // edges
        std::fs::write(file.path(), &bytes).unwrap();
        let err = SharedCsrFile::open(file.path()).unwrap_err();
        assert!(matches!(err, StoreError::BadHeader { .. }), "{err}");
        assert!(err.to_string().contains("impossible size"), "{err}");
    }

    #[test]
    fn out_of_range_node_fails_before_io() {
        let g = graph(12, 0xF);
        let file = write_graph("range", &g);
        let shared = SharedCsrFile::open(file.path()).unwrap();
        let err = shared.offset_pairs(&[NodeId::new(12)]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::NodeOutOfRange { num_nodes: 12, .. }
        ));
    }
}
