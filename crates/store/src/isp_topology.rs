//! The in-storage sampling topology: hop expansion resolves inside the
//! (modeled) SSD, and only the sampled neighbor ids cross the host
//! link.
//!
//! [`FileTopology`](crate::FileTopology) is a Fig 10(a) system for the
//! edge-list half of the dataset: every offset/edge page a hop touches
//! is fetched from the device and shipped to the host whole. SmartSAGE
//! moves sampling into the device (paper §IV, Fig 11): firmware walks
//! the offset table and edge lists next to the SSD's DRAM page buffer
//! and DMAs back only the *result* of the hop — a dense packed list of
//! 8-byte neighbor ids — so scattered hops stop page-amplifying PCIe
//! traffic.
//!
//! [`IspSampleTopology`] models that tier on the real graph file:
//!
//! * **Values** come from the actual on-disk `SSGRPH01` file, resolved
//!   through a [`SharedCsrFile`] — the determinism contract holds, so
//!   sampling is bit-identical to the in-memory CSR. Those file reads
//!   are the *device's* media reads
//!   ([`StoreStats::device_bytes_read`]), never host traffic.
//! * **Host traffic** is only the packed payload: 8 bytes per degree
//!   answer (the host RNG needs the degrees to draw positions) and
//!   8 bytes per sampled neighbor id — never the pages they came from.
//! * **Time** is costed per batched read against a real
//!   [`smartsage_storage::Ssd`] component model in virtual time, with
//!   flash reads issued at up to
//!   [`IspGatherOptions::queue_depth`](crate::IspGatherOptions) in
//!   flight — the same device pass the ISP feature tier pays
//!   ([`mod@crate::isp`]), accumulated in [`StoreStats::device_ns`] and
//!   [`IspSampleTopology::device_time`]. The pass is handed the plan of
//!   the read(s) it prices — the pages [`SharedCsrFile`]'s paged reads
//!   just resolved: a degree batch's offset pages; a pick batch's
//!   offset pages followed by its edge pages. This tier never turns an
//!   id into a page itself.
//!
//! Like [`IspGatherStore`](crate::IspGatherStore), the device timing
//! model keeps its own page-buffer LRU seeded only by this store's
//! reads, so the modeled cost of a run is a deterministic function of
//! its request sequence — shared payload-cache residency can never
//! leak scheduling noise into virtual time.

use crate::error::StoreError;
use crate::graph_file::SharedCsrFile;
use crate::isp::{IspDevice, IspGatherOptions};
use crate::topology::{check_out_len, count_answers, TopologyStore};
use crate::StoreStats;
use smartsage_graph::NodeId;
use smartsage_sim::SimDuration;
use smartsage_storage::Ssd;
use std::path::Path;
use std::sync::Arc;

/// Bytes per id/degree answer shipped over the modeled link.
const ENTRY_BYTES: u64 = crate::graph_file::GRAPH_ENTRY_BYTES;

/// A [`TopologyStore`] whose reads execute device-side against an SSD
/// timing model, shipping only packed degrees and sampled neighbor ids
/// to the host.
///
/// Construct one with [`IspSampleTopology::over`] a [`SharedCsrFile`]:
/// registry-shared on the pipeline's path (concurrent runs then share
/// one open file and one payload cache), or a private
/// [`SharedCsrFile::open_with`] of its own.
#[derive(Debug)]
pub struct IspSampleTopology {
    shared: Arc<SharedCsrFile>,
    device: IspDevice,
    stats: StoreStats,
}

impl IspSampleTopology {
    /// Wraps an already-open shared graph file in the ISP sampling
    /// tier, with a device model aligned to the file geometry.
    pub fn over(shared: Arc<SharedCsrFile>, opts: IspGatherOptions) -> IspSampleTopology {
        IspSampleTopology {
            device: IspDevice::new(opts, shared.options(), shared.file_len()),
            shared,
            stats: StoreStats::default(),
        }
    }

    /// The shared graph file serving this tier's media reads.
    pub fn shared(&self) -> &Arc<SharedCsrFile> {
        &self.shared
    }

    /// The file this store reads from.
    pub fn path(&self) -> &Path {
        self.shared.path()
    }

    /// Total modeled device-side time across all reads so far.
    /// Survives [`TopologyStore::reset_stats`] along with the device
    /// state itself (resetting counters must not rewind the clock).
    pub fn device_time(&self) -> SimDuration {
        self.device.device_time()
    }

    /// The composed device model (for inspecting component counters).
    pub fn ssd(&self) -> &Ssd {
        self.device.ssd()
    }
}

impl TopologyStore for IspSampleTopology {
    fn num_nodes(&self) -> usize {
        self.shared.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.shared.num_edges()
    }

    fn degrees_into(&mut self, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError> {
        check_out_len(nodes.len(), out)?;
        // Device-side offset walk; the host receives one packed 8-byte
        // degree per node (it draws the sample positions).
        let (pairs, io, pages) = self.shared.offset_pairs(nodes)?;
        for (slot, (start, end)) in out.iter_mut().zip(pairs) {
            *slot = end - start;
        }
        let shipped = nodes.len() as u64 * ENTRY_BYTES;
        let io = self.device.pass(io, &pages, nodes.len() as u64, shipped);
        self.stats.accumulate(&io);
        count_answers(&mut self.stats, nodes.len() as u64);
        Ok(())
    }

    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError> {
        check_out_len(picks.len(), out)?;
        // The whole hop resolves inside the device: offset pairs locate
        // the slices, edge entries resolve the picks (shared with the
        // file tier via [`SharedCsrFile::resolve_picks`]), and only
        // the dense sampled-id list is DMAed back.
        let (io, pages) = self.shared.resolve_picks(picks, out)?;
        // One device pass covers the pages of both the offset walk and
        // the edge reads (firmware chains them without surfacing to the
        // host).
        let shipped = picks.len() as u64 * ENTRY_BYTES;
        let io = self.device.pass(io, &pages, picks.len() as u64, shipped);
        self.stats.accumulate(&io);
        // One logical device command per batch, uniform with the other
        // tiers' access-counter convention.
        count_answers(&mut self.stats, picks.len() as u64);
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileStoreOptions;
    use crate::graph_file::write_graph_file;
    use crate::topology::{FileTopology, InMemoryTopology};
    use crate::ScratchFile;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
    use smartsage_graph::CsrGraph;

    fn graph(nodes: usize, seed: u64) -> CsrGraph {
        generate_power_law(&PowerLawConfig {
            nodes,
            avg_degree: 6.0,
            seed,
            ..PowerLawConfig::default()
        })
    }

    /// An ISP tier over its own one-stripe open of `path`.
    fn isp_over(path: &Path, opts: IspGatherOptions) -> IspSampleTopology {
        let shared = SharedCsrFile::open_with(path, FileStoreOptions::default(), 1).unwrap();
        IspSampleTopology::over(Arc::new(shared), opts)
    }

    fn write_graph(tag: &str, g: &CsrGraph) -> ScratchFile {
        let file = ScratchFile::new(tag);
        write_graph_file(file.path(), g).unwrap();
        file
    }

    #[test]
    fn isp_topology_matches_memory_bit_for_bit() {
        let g = graph(80, 0x90);
        let file = write_graph("isp-topo-equiv", &g);
        let mut mem = InMemoryTopology::new(g);
        let mut isp = isp_over(file.path(), IspGatherOptions::default());
        assert_eq!(isp.num_nodes(), mem.num_nodes());
        assert_eq!(isp.num_edges(), mem.num_edges());
        let nodes: Vec<NodeId> = (0..80u32).map(NodeId::new).collect();
        let mut want = vec![0u64; 80];
        let mut got = vec![0u64; 80];
        mem.degrees_into(&nodes, &mut want).unwrap();
        isp.degrees_into(&nodes, &mut got).unwrap();
        assert_eq!(got, want);
        let picks: Vec<(NodeId, u64)> = nodes
            .iter()
            .zip(&want)
            .filter(|&(_, &d)| d > 0)
            .map(|(&n, &d)| (n, d - 1))
            .collect();
        let mut want_n = vec![NodeId::default(); picks.len()];
        let mut got_n = vec![NodeId::default(); picks.len()];
        mem.pick_neighbors_into(&picks, &mut want_n).unwrap();
        isp.pick_neighbors_into(&picks, &mut got_n).unwrap();
        assert_eq!(got_n, want_n);
    }

    #[test]
    fn only_packed_ids_cross_the_host_link() {
        let g = graph(600, 0x91);
        let file = write_graph("isp-topo-host", &g);
        let mut isp = isp_over(file.path(), IspGatherOptions::default());
        let mut disk = FileTopology::new(Arc::new(SharedCsrFile::open(file.path()).unwrap()));
        // Scattered picks across the whole id space: the file tier
        // pays whole offset+edge pages per pick, the ISP tier ships
        // 8 bytes per answer.
        let nodes: Vec<NodeId> = (0..40u32).map(|i| NodeId::new(i * 14)).collect();
        let mut d_isp = vec![0u64; nodes.len()];
        let mut d_file = vec![0u64; nodes.len()];
        isp.degrees_into(&nodes, &mut d_isp).unwrap();
        disk.degrees_into(&nodes, &mut d_file).unwrap();
        assert_eq!(d_isp, d_file);
        let picks: Vec<(NodeId, u64)> = nodes
            .iter()
            .zip(&d_isp)
            .filter(|&(_, &d)| d > 0)
            .map(|(&n, _)| (n, 0))
            .collect();
        let mut out = vec![NodeId::default(); picks.len()];
        isp.pick_neighbors_into(&picks, &mut out).unwrap();
        disk.pick_neighbors_into(&picks, &mut out).unwrap();
        let (i, d) = (isp.stats(), disk.stats());
        assert_eq!(
            i.host_bytes_transferred,
            (nodes.len() + picks.len()) as u64 * 8,
            "isp ships packed answers only"
        );
        assert_eq!(d.host_bytes_transferred, d.bytes_read, "file ships pages");
        assert!(
            i.host_bytes_transferred < d.host_bytes_transferred,
            "isp host bytes {} must undercut the file tier's {}",
            i.host_bytes_transferred,
            d.host_bytes_transferred
        );
        assert!(i.transfer_reduction() > 1.0);
        assert!(i.device_ns > 0, "device passes cost modeled time");
        assert_eq!(isp.device_time().as_nanos(), i.device_ns);
        // Counters reset; the device clock does not rewind.
        isp.reset_stats();
        assert_eq!(isp.stats(), StoreStats::default());
        assert!(!isp.device_time().is_zero());
    }

    #[test]
    fn failed_reads_cost_nothing() {
        let g = graph(10, 0x92);
        let file = write_graph("isp-topo-err", &g);
        let mut isp = isp_over(file.path(), IspGatherOptions::default());
        let mut out = [0u64];
        assert!(isp.degrees_into(&[NodeId::new(10)], &mut out).is_err());
        assert_eq!(isp.stats(), StoreStats::default());
        assert!(isp.device_time().is_zero());
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_is_rejected() {
        let g = graph(10, 0x93);
        let file = write_graph("isp-topo-qd", &g);
        let _ = isp_over(
            file.path(),
            IspGatherOptions {
                queue_depth: 0,
                ..IspGatherOptions::default()
            },
        );
    }
}
