//! The on-disk CSR graph file: real page-aligned storage for the
//! neighbor edge-list array.
//!
//! # On-disk layout (`SSGRPH01`)
//!
//! A graph file is one page-aligned header, the offset array, and the
//! neighbor edge-list array — the paper's Fig 10 byte space made real
//! (the feature half lives in the sibling `SSFEAT01` format of
//! [`mod@crate::file`]):
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
//! Every neighbor entry is 8 bytes
//! ([`smartsage_graph::csr::NEIGHBOR_ENTRY_BYTES`], the paper's
//! "fine-grained 8 byte read transactions"), and the edge array starts
//! page-aligned, exactly like the simulated on-SSD layout of
//! [`smartsage_hostio::GraphFile`]. A file whose length disagrees with
//! its header fails to open with [`StoreError::Truncated`] naming the
//! file and the expected length; internally inconsistent CSR content —
//! offsets out of monotone order, an edge index past the end of the
//! edge array, a neighbor id past the node count — fails the read that
//! discovers it with [`StoreError::CorruptGraph`], never a panic.
//!
//! # Read path
//!
//! [`SharedCsrFile`] is the topology analogue of
//! [`SharedFileStore`](crate::SharedFileStore): the `u64`-entry format
//! layer over the same crate-private `PagedFile` (`paged.rs`). The
//! file is opened once per registry; a batch of offset or edge entries
//! becomes byte ranges (pure address arithmetic) that the paged read
//! path resolves through its lock-striped page cache, and the entries
//! decode straight out of the staged pages into the caller's output. A
//! pick batch reads one offset pair per maximal run of equal consecutive
//! parents and checks every pick of the run against it. Every operation
//! takes `&self` and returns its exact per-call I/O deltas, which the
//! caller's [`FileTopology`](crate::FileTopology) handle accumulates
//! into scoped counters.

use crate::error::StoreError;
use crate::file::FileStoreOptions;
use crate::paged::{PagedFile, Planned};
use crate::StoreStats;
use smartsage_graph::{CsrGraph, NodeId};
use smartsage_hostio::{ByteRange, ReadEngine};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a graph topology file (versioned).
pub const GRAPH_FILE_MAGIC: [u8; 8] = *b"SSGRPH01";

/// Bytes reserved for the header; the offset array starts here.
pub const GRAPH_HEADER_BYTES: u64 = 4096;

/// Bytes per offset / neighbor entry (u64 LE, matching the 8-byte
/// neighbor entries of the simulated on-SSD layout).
pub const GRAPH_ENTRY_BYTES: u64 = 8;

/// Byte offset where the edge array of an `n`-node graph begins: the
/// offset array padded out to the next page boundary.
pub fn edge_array_base(num_nodes: u64) -> u64 {
    (GRAPH_HEADER_BYTES + (num_nodes + 1) * GRAPH_ENTRY_BYTES).next_multiple_of(GRAPH_HEADER_BYTES)
}

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
    let io_err = |action: &'static str| {
        move |source: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            action,
            source,
        }
    };
    let base = edge_offset(graph, start);
    let top = edge_offset(graph, end);
    let shard_edges = top - base;
    let file = File::create(path).map_err(io_err("create"))?;
    let mut w = BufWriter::new(file);
    let mut header = [0u8; GRAPH_HEADER_BYTES as usize];
    header[0..8].copy_from_slice(&GRAPH_FILE_MAGIC);
    header[8..16].copy_from_slice(&(n as u64).to_le_bytes());
    header[16..24].copy_from_slice(&shard_edges.to_le_bytes());
    w.write_all(&header).map_err(io_err("write header"))?;
    for i in 0..=n {
        let off = edge_offset(graph, i).clamp(base, top) - base;
        w.write_all(&off.to_le_bytes())
            .map_err(io_err("write offsets"))?;
    }
    let n64 = n as u64;
    let pad = edge_array_base(n64) - (GRAPH_HEADER_BYTES + (n64 + 1) * GRAPH_ENTRY_BYTES);
    w.write_all(&vec![0u8; pad as usize])
        .map_err(io_err("write padding"))?;
    for i in start..end {
        for &t in graph.neighbors(NodeId::new(i as u32)) {
            w.write_all(&(t.raw() as u64).to_le_bytes())
                .map_err(io_err("write edges"))?;
        }
    }
    w.flush().map_err(io_err("flush"))?;
    Ok(())
}

/// An opened, validated graph file: the read handle plus header fields.
#[derive(Debug)]
pub(crate) struct RawGraphFile {
    pub file: File,
    pub num_nodes: usize,
    pub num_edges: u64,
    pub file_len: u64,
}

impl RawGraphFile {
    /// Opens `path`, validating magic, header consistency, the exact
    /// file length, and the cheap end-point CSR invariants (first
    /// offset 0, last offset = edge count) before any slice is read.
    pub fn open(path: &Path) -> Result<RawGraphFile, StoreError> {
        let io_err = |action: &'static str| {
            move |source: std::io::Error| StoreError::Io {
                path: path.to_path_buf(),
                action,
                source,
            }
        };
        let mut file = File::open(path).map_err(io_err("open"))?;
        let file_len = file.metadata().map_err(io_err("stat"))?.len();
        if file_len < GRAPH_HEADER_BYTES {
            return Err(StoreError::Truncated {
                path: path.to_path_buf(),
                expected: GRAPH_HEADER_BYTES,
                actual: file_len,
            });
        }
        let mut header = [0u8; 24];
        file.read_exact(&mut header)
            .map_err(io_err("read header"))?;
        if header[0..8] != GRAPH_FILE_MAGIC {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        // ssl::allow(SSL001): `header` is a fixed [u8; 24] and every
        // call site passes at <= 16, so the 8-byte slice always fits.
        let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let num_nodes = field(8);
        let num_edges = field(16);
        let bad = |reason: String| StoreError::BadHeader {
            path: path.to_path_buf(),
            reason,
        };
        if num_nodes > u32::MAX as u64 {
            return Err(bad(format!("node count {num_nodes} exceeds u32 ids")));
        }
        // Checked arithmetic: a corrupt header must fail typed, not
        // overflow past the truncation check.
        let expected = num_edges
            .checked_mul(GRAPH_ENTRY_BYTES)
            .and_then(|b| b.checked_add(edge_array_base(num_nodes)))
            .ok_or_else(|| {
                bad(format!(
                    "header implies an impossible size ({num_nodes} nodes, {num_edges} edges)"
                ))
            })?;
        if file_len != expected {
            return Err(StoreError::Truncated {
                path: path.to_path_buf(),
                expected,
                actual: file_len,
            });
        }
        // End-point CSR invariants are one read each; the interior
        // (monotonicity, targets in range) is validated lazily by the
        // reads that touch it.
        let corrupt = |reason: String| StoreError::CorruptGraph {
            path: path.to_path_buf(),
            reason,
        };
        let mut read_u64_at = |offset: u64| -> Result<u64, StoreError> {
            let mut buf = [0u8; 8];
            file.seek(SeekFrom::Start(offset))
                .and_then(|_| file.read_exact(&mut buf))
                .map_err(io_err("read offsets"))?;
            Ok(u64::from_le_bytes(buf))
        };
        let first = read_u64_at(GRAPH_HEADER_BYTES)?;
        if first != 0 {
            return Err(corrupt(format!("first offset is {first}, expected 0")));
        }
        let last = read_u64_at(GRAPH_HEADER_BYTES + num_nodes * GRAPH_ENTRY_BYTES)?;
        if last != num_edges {
            return Err(corrupt(format!(
                "last offset {last} disagrees with edge count {num_edges}"
            )));
        }
        Ok(RawGraphFile {
            file,
            num_nodes: num_nodes as usize,
            num_edges,
            file_len,
        })
    }
}

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
    edge_base: u64,
}

impl SharedCsrFile {
    /// Opens `path` with default options and stripe count.
    pub fn open(path: &Path) -> Result<SharedCsrFile, StoreError> {
        SharedCsrFile::open_with(
            path,
            FileStoreOptions::default(),
            crate::shared::DEFAULT_CACHE_SHARDS,
        )
    }

    /// Opens `path` through the full magic/header/length/end-point
    /// validation, striping the page cache over `shards` locks. Reads
    /// go through the process-wide [`ReadEngine`].
    pub fn open_with(
        path: &Path,
        opts: FileStoreOptions,
        shards: usize,
    ) -> Result<SharedCsrFile, StoreError> {
        SharedCsrFile::open_with_engine(path, opts, shards, Arc::clone(ReadEngine::global()))
    }

    /// Like [`SharedCsrFile::open_with`], but reads through a
    /// caller-supplied engine — conformance suites use this to sweep
    /// I/O worker counts.
    pub fn open_with_engine(
        path: &Path,
        opts: FileStoreOptions,
        shards: usize,
        engine: Arc<ReadEngine>,
    ) -> Result<SharedCsrFile, StoreError> {
        let raw = RawGraphFile::open(path)?;
        Ok(SharedCsrFile {
            edge_base: edge_array_base(raw.num_nodes as u64),
            paged: PagedFile::new(raw.file, path, raw.file_len, opts, shards, engine),
            num_nodes: raw.num_nodes,
            num_edges: raw.num_edges,
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

    /// Resident pages per cache stripe.
    pub fn cache_occupancy(&self) -> Vec<usize> {
        self.paged.cache_occupancy()
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

    fn check_node(&self, node: NodeId) -> Result<(), StoreError> {
        if node.index() >= self.num_nodes {
            return Err(StoreError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes,
            });
        }
        Ok(())
    }

    /// Resolves `ranges` (each `N` whole u64 entries) through the paged
    /// read path and hands `each` the range's index and LE values, in
    /// request order (an entry may straddle a page boundary under odd
    /// page sizes). Returns the read's plan — the ascending, distinct
    /// pages it resolved.
    fn read_entries<const N: usize>(
        &self,
        ranges: &[ByteRange],
        io: &mut StoreStats,
        mut each: impl FnMut(usize, [u64; N]) -> Result<(), StoreError>,
    ) -> Result<Vec<u64>, StoreError> {
        let mut staged = self.paged.read(ranges, io)?;
        let mut spill = [0u8; 2 * GRAPH_ENTRY_BYTES as usize];
        let mut raw = [0u8; GRAPH_ENTRY_BYTES as usize];
        for (i, &range) in ranges.iter().enumerate() {
            let bytes = staged.bytes(range, &mut spill[..raw.len() * N]);
            let mut entries = [0u64; N];
            for (entry, chunk) in entries.iter_mut().zip(bytes.chunks_exact(raw.len())) {
                raw.copy_from_slice(chunk);
                *entry = u64::from_le_bytes(raw);
            }
            each(i, entries)?;
        }
        Ok(staged.into_plan())
    }

    /// Reads the `(start, end)` offset pair of every node in `nodes`,
    /// returning the pairs, this call's exact **I/O** deltas (the
    /// caller owns the access-level counters — a topology tier may
    /// chain several raw reads into one logical operation) and the
    /// read's plan (the ISP tier's timing-model input). Validates node
    /// bounds before any I/O and the CSR monotone/EOF invariants on
    /// every pair it returns.
    pub(crate) fn offset_pairs(
        &self,
        nodes: &[NodeId],
    ) -> Result<Planned<Vec<(u64, u64)>>, StoreError> {
        for &node in nodes {
            self.check_node(node)?;
        }
        // The two adjacent offset entries of a node (start + end of
        // its neighbor slice) are one 16-byte range.
        let ranges: Vec<ByteRange> = nodes
            .iter()
            .map(|&node| ByteRange {
                offset: GRAPH_HEADER_BYTES + node.index() as u64 * GRAPH_ENTRY_BYTES,
                len: 2 * GRAPH_ENTRY_BYTES,
            })
            .collect();
        let mut io = StoreStats::default();
        let mut pairs = Vec::with_capacity(nodes.len());
        let plan = self.read_entries(&ranges, &mut io, |i, [start, end]| {
            if start > end {
                return Err(self.corrupt(format!(
                    "offsets out of monotone order at node {}: {start} > {end}",
                    nodes[i]
                )));
            }
            if end > self.num_edges {
                return Err(self.corrupt(format!(
                    "edge index {end} at node {} is past the end of the \
                     {}-entry edge array",
                    nodes[i], self.num_edges
                )));
            }
            pairs.push((start, end));
            Ok(())
        })?;
        Ok((pairs, io, plan))
    }

    /// Reads the neighbor ids at absolute edge indices `edges` into
    /// `out` (`out.len() == edges.len()`), returning this call's exact
    /// **I/O** deltas (access counters belong to the caller) and the
    /// read's plan, as [`SharedCsrFile::offset_pairs`] does. Indices
    /// must already be validated against the owning node's offset pair.
    fn edge_targets(
        &self,
        edges: &[u64],
        out: &mut [NodeId],
    ) -> Result<(StoreStats, Vec<u64>), StoreError> {
        for &e in edges {
            if e >= self.num_edges {
                return Err(self.corrupt(format!(
                    "edge index {e} is past the end of the {}-entry edge array",
                    self.num_edges
                )));
            }
        }
        let ranges: Vec<ByteRange> = edges
            .iter()
            .map(|&e| ByteRange {
                offset: self.edge_base + e * GRAPH_ENTRY_BYTES,
                len: GRAPH_ENTRY_BYTES,
            })
            .collect();
        let mut io = StoreStats::default();
        let plan = self.read_entries(&ranges, &mut io, |i, [raw]| {
            if raw >= self.num_nodes as u64 {
                return Err(self.corrupt(format!(
                    "neighbor id {raw} at edge index {} is past the {}-node bound",
                    edges[i], self.num_nodes
                )));
            }
            out[i] = NodeId::new(raw as u32);
            Ok(())
        })?;
        Ok((io, plan))
    }

    /// Resolves `(node, position)` picks end to end into `out`
    /// (`out.len() == picks.len()`): one offset pair per maximal run
    /// of equal consecutive nodes locates and validates that run's
    /// picks, then the picked edge entries resolve in one read.
    /// Returns the combined exact I/O deltas and the batch's plan: the
    /// offset read's pages, then the edge read's. Shared by
    /// [`FileTopology`](crate::FileTopology) and
    /// [`IspSampleTopology`](crate::IspSampleTopology) so the two
    /// tiers' validation and error wording can never drift.
    pub(crate) fn resolve_picks(
        &self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(StoreStats, Vec<u64>), StoreError> {
        let same_parent = |a: &(NodeId, u64), b: &(NodeId, u64)| a.0 == b.0;
        let parents: Vec<NodeId> = picks.chunk_by(same_parent).map(|run| run[0].0).collect();
        let (pairs, mut io, mut plan) = self.offset_pairs(&parents)?;
        let mut edges = Vec::with_capacity(picks.len());
        for (run, &(start, end)) in picks.chunk_by(same_parent).zip(&pairs) {
            for &(node, k) in run {
                if k >= end - start {
                    return Err(StoreError::PickOutOfRange {
                        node,
                        position: k,
                        degree: end - start,
                    });
                }
                edges.push(start + k);
            }
        }
        let (edge_io, edge_plan) = self.edge_targets(&edges, out)?;
        io.accumulate(&edge_io);
        // The edge array begins where the offset array ends, so the two
        // plans concatenate ascending. A page size that does not divide
        // the arrays' 4096-byte alignment puts that boundary inside one
        // page, which both reads may have resolved: it is kept once.
        let shared = plan.last().is_some_and(|p| edge_plan.first() == Some(p));
        plan.extend_from_slice(&edge_plan[usize::from(shared)..]);
        Ok((io, plan))
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
            for e in start..end {
                picks.push((*node, e));
            }
        }
        let edges: Vec<u64> = picks.iter().map(|&(_, e)| e).collect();
        let mut targets = vec![NodeId::default(); edges.len()];
        shared.edge_targets(&edges, &mut targets).unwrap();
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
        assert_eq!(
            shared.cache_occupancy().iter().sum::<usize>() as u64,
            cold.pages_read
        );
        shared.clear_cache();
        assert_eq!(shared.cache_occupancy().iter().sum::<usize>(), 0);
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
                2,
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
        std::fs::write(file.path(), vec![0u8; GRAPH_HEADER_BYTES as usize]).unwrap();
        assert!(matches!(
            SharedCsrFile::open(file.path()).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        // A valid-length file whose last offset disagrees with the edge
        // count is corrupt, not truncated.
        let g = graph(10, 0xE);
        let file = write_graph("graph-endpoint", &g);
        let at = GRAPH_HEADER_BYTES + 10 * GRAPH_ENTRY_BYTES;
        let mut bytes = std::fs::read(file.path()).unwrap();
        bytes[at as usize..at as usize + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(file.path(), &bytes).unwrap();
        let err = SharedCsrFile::open(file.path()).unwrap_err();
        assert!(matches!(err, StoreError::CorruptGraph { .. }), "{err}");
        assert!(err.to_string().contains("last offset"), "{err}");
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
