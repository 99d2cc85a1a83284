//! The in-storage-processing feature store: gathers resolve inside the
//! (modeled) SSD, and only packed feature rows cross the host link.
//!
//! [`crate::SharedFileStore`] is a Fig 10(a) system: every page a
//! gather touches is fetched from the device and shipped to the host
//! *whole*, so SSD→host traffic is page-amplified
//! relative to the payload. SmartSAGE's headline mechanism (paper §IV,
//! Fig 10(b)) moves the gather into the device: firmware reads the
//! pages from flash into the SSD's DRAM page buffer, picks the feature
//! rows out next to that buffer, and DMAs back a dense packed result —
//! an order of magnitude less PCIe traffic for scattered accesses.
//!
//! [`IspGatherStore`] models that tier on the *real* feature path:
//!
//! * **Values** come from the actual on-disk `SSFEAT01` file, resolved
//!   through a [`SharedFileStore`] — the determinism contract holds, so
//!   gathers are bit-identical to every other store. Those file reads
//!   are the *device's* media reads: they count as
//!   [`StoreStats::device_bytes_read`], never as host traffic.
//! * **Host traffic** is only the packed payload: rows the host does
//!   not already hold cross the modeled PCIe link at `dim × 4` bytes
//!   each ([`StoreStats::host_bytes_transferred`]). The host driver
//!   keeps a [`RowScratchpad`] — the same DRAM budget the file tier
//!   spends on its page cache, but keyed by node row, so a resident
//!   row is served host-side and never re-shipped. Because pages carry
//!   padding and never-requested neighbor rows while the scratchpad
//!   holds only requested rows, the ISP tier's host bytes undercut the
//!   file tier's for the same gather sequence.
//! * **Time** is costed per gather against a real
//!   [`smartsage_storage::Ssd`] component model in virtual time: one
//!   ISP command decode on the embedded cores, an FTL lookup per page,
//!   flash page reads issued with up to
//!   [`IspGatherOptions::queue_depth`] requests in flight (channel
//!   parallelism, the same page fetch as the edge-list ISP cost policy
//!   under a page-granular window — see `IspDevice::pass`), page-buffer
//!   hits served from SSD DRAM, a per-row pack cost on the cores, and
//!   finally the result DMA. The pages it is costed for are not
//!   derived here: they are the plan of the media read that just
//!   resolved the missing rows — the ascending, distinct pages the one
//!   paged read path (`paged.rs`) handed back through
//!   [`SharedFileStore`] — so the model can only be priced for pages
//!   that were actually resolved. The accumulated busy time is reported
//!   in [`StoreStats::device_ns`] and [`IspGatherStore::device_time`].
//!
//! The device timing model keeps its *own* page-buffer LRU
//! ([`smartsage_storage::PageBuffer`], looked up only through
//! [`Ssd::fetch_page`]) seeded only by this store's gathers, so the
//! modeled cost of a gather is a deterministic function of the rows it
//! had to ship — the residency of the shared *payload* cache can never
//! leak scheduling noise into virtual time.
//! Which rows miss, however, is decided by the shared [`RowScratchpad`]
//! (and hence, under concurrent runs over one file, by interleaving —
//! exactly like the hit/miss split of the shared page cache): a serial
//! run's `device_ns` is fully reproducible, a parallel sweep's is an
//! exact account of what happened.

use crate::error::StoreError;
use crate::file::FileStoreOptions;
use crate::shared::SharedFileStore;
use crate::{FeatureStore, StoreStats};
use smartsage_graph::NodeId;
use smartsage_hostio::LockExt;
use smartsage_sim::{LruMap, SimDuration, SimTime};
use smartsage_storage::{Ssd, SsdParams};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The host driver's row-granular gather scratchpad.
///
/// The file tier spends its host DRAM budget on a *page* cache: every
/// resident byte is a page byte, requested or not. The ISP host driver
/// receives *packed rows*, so it keeps the same byte budget keyed by
/// node instead (the user-space-scratchpad idiom of SmartSAGE (SW),
/// paper §IV-C): a row that already crossed PCIe is served from host
/// DRAM and never re-shipped. One scratchpad is shared by every ISP
/// run over the same feature file
/// ([`SharedFileStore::isp_scratchpad`]), exactly like the file tier's
/// shared page cache — the sweep's concurrent jobs model workers on
/// one host.
///
/// Residency is exact-LRU in rows (capacity = budget bytes ÷ row
/// bytes); payloads are immutable `Arc<[f32]>` rows, so a hit is a
/// refcount bump and eviction can never invalidate bytes mid-copy.
#[derive(Debug)]
pub struct RowScratchpad {
    capacity_rows: usize,
    rows: Mutex<LruMap<u32, Arc<[f32]>>>,
}

impl RowScratchpad {
    /// A scratchpad holding at most `budget_bytes / row_bytes` rows
    /// (zero budget disables caching entirely).
    pub fn new(budget_bytes: u64, row_bytes: u64) -> RowScratchpad {
        let capacity_rows = (budget_bytes / row_bytes.max(1)) as usize;
        RowScratchpad {
            capacity_rows,
            rows: Mutex::new(LruMap::new(capacity_rows)),
        }
    }

    /// Row capacity.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Resident rows.
    pub fn len(&self) -> usize {
        self.rows.safe_lock().len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The resident row of `node`, promoting it to most-recently-used.
    pub fn get(&self, node: NodeId) -> Option<Arc<[f32]>> {
        self.rows.safe_lock().get(&node.raw()).cloned()
    }

    /// Inserts (or refreshes) `node`'s row, evicting the LRU row if the
    /// budget is exhausted. A zero-capacity scratchpad stays empty.
    pub fn insert(&self, node: NodeId, row: Arc<[f32]>) {
        self.rows.safe_lock().put(node.raw(), row);
    }

    /// Drops every resident row, keeping capacity.
    pub fn clear(&self) {
        self.rows.safe_lock().clear();
    }
}

/// Tuning knobs for the ISP gather tier (on top of the file geometry,
/// which comes from the wrapped store's [`FileStoreOptions`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IspGatherOptions {
    /// Flash page requests the in-device gather unit keeps in flight
    /// simultaneously — the channel parallelism the ISP taps (paper
    /// Fig 11, steps 3–4).
    pub queue_depth: usize,
    /// Device model parameters. The flash page size, FTL logical space,
    /// and page-buffer capacity are overridden at open time to match
    /// the feature file's geometry; everything else (channel counts,
    /// latencies, PCIe link) is taken as configured.
    pub ssd: SsdParams,
    /// Embedded-core work to locate and pack one feature row out of the
    /// page buffer.
    pub pack_cost_per_row: SimDuration,
}

impl Default for IspGatherOptions {
    /// 16 in-flight pages (one per flash channel of the default
    /// geometry), OpenSSD-class device parameters, 120 ns per packed
    /// row.
    fn default() -> Self {
        IspGatherOptions {
            queue_depth: 16,
            ssd: SsdParams::default(),
            pack_cost_per_row: SimDuration::from_nanos(120),
        }
    }
}

/// A [`FeatureStore`] whose gathers execute device-side against an SSD
/// timing model, shipping only packed feature rows to the host.
///
/// Construct one with [`IspGatherStore::over`] a [`SharedFileStore`]:
/// registry-shared on the pipeline's path (concurrent runs then share
/// one open file and one payload cache), or a private
/// [`SharedFileStore::open_with`] of its own.
#[derive(Debug)]
pub struct IspGatherStore {
    shared: Arc<SharedFileStore>,
    scratchpad: Arc<RowScratchpad>,
    device: IspDevice,
    stats: StoreStats,
}

/// One modeled in-storage device under an ISP tier: the SSD component
/// model plus the virtual clock its passes advance. Shared by the ISP
/// feature-gather tier and the ISP sampling topology
/// ([`crate::IspSampleTopology`]), one per member device.
#[derive(Debug)]
pub(crate) struct IspDevice {
    ssd: Ssd,
    queue_depth: usize,
    pack_cost_per_row: SimDuration,
    /// Each pass starts where the previous one finished, so
    /// shared-resource contention (cores, channels, PCIe) accumulates
    /// across a run exactly like in the edge-list policies.
    clock: SimTime,
    device_time: SimDuration,
}

impl IspDevice {
    /// A device aligned to the geometry of the `file_len`-byte file it
    /// serves: flash pages are the store's I/O pages, the FTL covers
    /// the whole file, and the device page buffer matches the payload
    /// cache capacity.
    pub fn new(opts: IspGatherOptions, file_opts: FileStoreOptions, file_len: u64) -> IspDevice {
        assert!(opts.queue_depth > 0, "queue depth must be positive");
        let mut params = opts.ssd;
        params.flash.page_bytes = file_opts.page_bytes;
        params.ftl.logical_pages = params
            .ftl
            .logical_pages
            .max(file_len.div_ceil(file_opts.page_bytes).max(1));
        params.buffer_pages = file_opts.cache_pages;
        IspDevice {
            ssd: Ssd::new(params),
            queue_depth: opts.queue_depth,
            pack_cost_per_row: opts.pack_cost_per_row,
            clock: SimTime::ZERO,
            device_time: SimDuration::ZERO,
        }
    }

    /// Total modeled busy time across all passes so far.
    pub fn device_time(&self) -> SimDuration {
        self.device_time
    }

    /// The composed device model.
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Costs one ISP pass against the device model — command decode on
    /// the embedded cores, FTL translation + flash read (or page-buffer
    /// hit) per page of `pages` (the plan of the read(s) that produced
    /// `io`, in the order given) with at most `queue_depth` reads in
    /// flight, per-row pack work on the cores, and the packed-result
    /// DMA of `shipped` bytes — and re-scopes `io`'s transfer split:
    /// the shared file accounted its page reads as host traffic (it is
    /// a host-path reader); here they happened inside the device, and
    /// only the `shipped` packed bytes crossed the link.
    pub fn pass(
        &mut self,
        mut io: StoreStats,
        pages: &[u64],
        rows: u64,
        shipped: u64,
    ) -> StoreStats {
        let ssd = &mut self.ssd;
        let start = self.clock;
        // Firmware picks the command off the queue and decodes its
        // descriptor.
        let (_, mut t) = ssd.cores.exec_raw(start, ssd.nvme.isp_command_cost);
        // Page fetches, each the device's one `Ssd::fetch_page`, under
        // this tier's queueing discipline: a page-granular sliding
        // window — up to `queue_depth` fetches outstanding, a new issue
        // waiting for the oldest once the window is full — with each
        // page's FTL lookup scheduled on the cores and a buffer hit
        // costing its DRAM touch. (The edge-list cost policy in
        // `smartsage-core` issues an access chunk's pages together
        // behind a barrier instead; `isp_golden` pins this one.)
        let mut inflight: VecDeque<SimTime> = VecDeque::with_capacity(self.queue_depth);
        let mut ready = t;
        for &lpn in pages {
            let issue = if inflight.len() >= self.queue_depth {
                inflight.pop_front().expect("window is full").max(t)
            } else {
                t
            };
            let (_, translated) = ssd.cores.exec_raw(issue, ssd.ftl.translate_cost());
            let (_, done) = ssd.fetch_page(translated, lpn, None);
            ready = ready.max(done);
            inflight.push_back(done);
            t = t.max(issue);
        }
        // Gather/pack next to the page buffer, then one dense DMA of
        // the packed payload back to the host.
        let (_, packed) = ssd
            .cores
            .exec_raw(ready, self.pack_cost_per_row.mul_u64(rows));
        let done = ssd.dma_to_host(packed, shipped);
        self.clock = done;
        let busy = done.elapsed_since(start);
        self.device_time += busy;
        io.device_ns = busy.as_nanos();
        io.device_bytes_read = io.bytes_read;
        io.host_bytes_transferred = shipped;
        io
    }
}

impl IspGatherStore {
    /// Wraps an already-open shared store in the ISP gather tier,
    /// joining the host row scratchpad every ISP run of that store
    /// shares ([`SharedFileStore::isp_scratchpad`]).
    pub fn over(shared: Arc<SharedFileStore>, opts: IspGatherOptions) -> IspGatherStore {
        IspGatherStore {
            device: IspDevice::new(opts, shared.options(), shared.file_len()),
            scratchpad: shared.isp_scratchpad(),
            shared,
            stats: StoreStats::default(),
        }
    }

    /// The shared store serving this tier's media reads.
    pub fn shared(&self) -> &Arc<SharedFileStore> {
        &self.shared
    }

    /// The host row scratchpad this run shares with every other ISP
    /// run over the same feature file.
    pub fn scratchpad(&self) -> &Arc<RowScratchpad> {
        &self.scratchpad
    }

    /// The file this store reads from.
    pub fn path(&self) -> &Path {
        self.shared.path()
    }

    /// Total modeled device-side time across all gathers so far.
    /// Survives [`FeatureStore::reset_stats`] along with the device
    /// state itself (resetting counters must not rewind the clock).
    pub fn device_time(&self) -> SimDuration {
        self.device.device_time()
    }

    /// The composed device model (for inspecting component counters —
    /// flash pages read, buffer hit ratio, PCIe bytes moved).
    pub fn ssd(&self) -> &Ssd {
        self.device.ssd()
    }
}

impl FeatureStore for IspGatherStore {
    fn dim(&self) -> usize {
        self.shared.dim()
    }

    fn num_classes(&self) -> usize {
        self.shared.num_classes()
    }

    fn num_nodes(&self) -> usize {
        self.shared.num_nodes()
    }

    fn label(&self, node: NodeId) -> usize {
        self.shared.label(node)
    }

    fn gather_into(&mut self, nodes: &[NodeId], out: &mut [f32]) -> Result<(), StoreError> {
        let dim = self.shared.dim();
        if out.len() != nodes.len() * dim {
            return Err(StoreError::BadBuffer {
                expected: nodes.len() * dim,
                actual: out.len(),
            });
        }
        // Validate every node before touching any state (including the
        // scratchpad's recency order), so a failed gather costs — and
        // counts — nothing.
        let num_nodes = self.shared.num_nodes();
        for &node in nodes {
            if node.index() >= num_nodes {
                return Err(StoreError::NodeOutOfRange { node, num_nodes });
            }
        }
        // Partition: scratchpad-resident rows are served from host DRAM
        // (they crossed PCIe on an earlier gather); the rest — first
        // occurrence of each missing node — go to the device.
        let mut missing: Vec<NodeId> = Vec::new();
        let mut miss_index: HashMap<u32, usize> = HashMap::new();
        let mut resolved: Vec<Option<Arc<[f32]>>> = Vec::with_capacity(nodes.len());
        for &node in nodes {
            if miss_index.contains_key(&node.raw()) {
                resolved.push(None);
                continue;
            }
            match self.scratchpad.get(node) {
                Some(row) => resolved.push(Some(row)),
                None => {
                    miss_index.insert(node.raw(), missing.len());
                    missing.push(node);
                    resolved.push(None);
                }
            }
        }
        let mut io = StoreStats::default();
        let mut miss_buf = vec![0.0f32; missing.len() * dim];
        if !missing.is_empty() {
            // Device-side resolution through the shared store: real
            // media I/O, bit-identical values. Its per-call deltas are
            // the device reads of this gather.
            let (media, plan) = self.shared.gather_planned(&missing, &mut miss_buf)?;
            // The pages that read resolved drive the timing model's
            // FTL/flash/buffer sequence; only the packed missing rows
            // cross the link.
            let shipped = missing.len() as u64 * dim as u64 * 4;
            io = self
                .device
                .pass(media, &plan, missing.len() as u64, shipped);
            // Publish the freshly shipped rows to the scratchpad.
            for (j, &node) in missing.iter().enumerate() {
                let row: Arc<[f32]> = miss_buf[j * dim..(j + 1) * dim].into();
                self.scratchpad.insert(node, row);
            }
        }
        // Assemble the caller's buffer: resident rows from the
        // scratchpad, missing rows from the device gather.
        for (i, &node) in nodes.iter().enumerate() {
            let out_row = &mut out[i * dim..(i + 1) * dim];
            match &resolved[i] {
                Some(row) => out_row.copy_from_slice(row),
                None => {
                    let j = miss_index[&node.raw()];
                    out_row.copy_from_slice(&miss_buf[j * dim..(j + 1) * dim]);
                }
            }
        }
        // Access counters describe the whole gather, not just the
        // device's share of it.
        io.gathers = 1;
        io.nodes_gathered = nodes.len() as u64;
        io.feature_bytes = nodes.len() as u64 * dim as u64 * 4;
        self.stats.accumulate(&io);
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
    use crate::{write_feature_file, InMemoryStore, ScratchFile, StoreHandle};
    use smartsage_graph::FeatureTable;

    /// An ISP tier over its own one-stripe open of `path`.
    fn isp_over(
        path: &Path,
        file_opts: FileStoreOptions,
        opts: IspGatherOptions,
    ) -> IspGatherStore {
        let shared = SharedFileStore::open_with(path, file_opts, 1).unwrap();
        IspGatherStore::over(Arc::new(shared), opts)
    }

    fn isp_default(path: &Path) -> IspGatherStore {
        isp_over(
            path,
            FileStoreOptions::default(),
            IspGatherOptions::default(),
        )
    }

    fn write_table(tag: &str, dim: usize, nodes: usize) -> (ScratchFile, FeatureTable) {
        let table = FeatureTable::new(dim, 3, 0x15B);
        let path = ScratchFile::new(tag);
        write_feature_file(path.path(), &table, nodes).unwrap();
        (path, table)
    }

    #[test]
    fn isp_gathers_match_memory_bit_for_bit() {
        let (path, table) = write_table("isp-equiv", 7, 40);
        let mut isp = isp_default(path.path());
        let nodes: Vec<NodeId> = [3u32, 0, 39, 3, 17].map(NodeId::new).to_vec();
        let got = isp.gather(&nodes).unwrap();
        let want = InMemoryStore::new(table, 40).gather(&nodes).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(isp.num_nodes(), 40);
        assert_eq!(isp.num_classes(), 3);
        assert_eq!(isp.label(NodeId::new(5)), 5 % 3);
    }

    #[test]
    fn only_packed_rows_cross_the_host_link() {
        // 8-dim rows are 32 bytes, 128 rows per 4 KiB page. A scattered
        // gather (one row per page) costs the device a whole page per
        // row, but the host sees only the packed payload.
        let (path, _) = write_table("isp-host", 8, 1024);
        let mut isp = isp_default(path.path());
        let nodes: Vec<NodeId> = (0..8u32).map(|i| NodeId::new(i * 128)).collect();
        isp.gather(&nodes).unwrap();
        let s = isp.stats();
        assert_eq!(s.host_bytes_transferred, 8 * 8 * 4);
        assert_eq!(s.device_bytes_read, s.bytes_read);
        assert!(s.device_bytes_read > 0);
        assert!(
            s.host_bytes_transferred < s.device_bytes_read,
            "packed payload {} must undercut page reads {}",
            s.host_bytes_transferred,
            s.device_bytes_read
        );
        assert!(s.transfer_reduction() > 1.0);
        // The device's own accounting agrees with the host split.
        assert_eq!(isp.ssd().bytes_to_host(), s.host_bytes_transferred);
    }

    #[test]
    fn host_bytes_stay_strictly_below_the_file_store_host_path() {
        let (path, _) = write_table("isp-vs-file", 8, 1024);
        let mut isp = isp_default(path.path());
        let mut file = StoreHandle::new(Arc::new(SharedFileStore::open(path.path()).unwrap()));
        let nodes: Vec<NodeId> = (0..8u32).map(|i| NodeId::new(i * 128)).collect();
        isp.gather(&nodes).unwrap();
        file.gather(&nodes).unwrap();
        assert!(
            isp.stats().host_bytes_transferred < file.stats().host_bytes_transferred,
            "isp host {} must be below file host {}",
            isp.stats().host_bytes_transferred,
            file.stats().host_bytes_transferred
        );
        // The two tiers read the same pages device-side.
        assert_eq!(
            isp.stats().device_bytes_read,
            file.stats().device_bytes_read
        );
    }

    #[test]
    fn device_time_advances_and_buffer_warm_gathers_are_faster() {
        // 64-byte rows, 64 per page. The cold gather reads one row per
        // page (16 flash page reads); the second gather wants each
        // page's *neighbor* row — all scratchpad-missing, so they
        // really go to the device, but every page is now resident in
        // its DRAM buffer: the warm path (FTL + buffer touch, no
        // flash) must be paid, and must be far cheaper than the cold
        // one.
        let (path, _) = write_table("isp-time", 16, 1024);
        let mut isp = isp_default(path.path());
        let even: Vec<NodeId> = (0..16u32).map(|i| NodeId::new(i * 64)).collect();
        let odd: Vec<NodeId> = (0..16u32).map(|i| NodeId::new(i * 64 + 1)).collect();
        isp.gather(&even).unwrap();
        let cold = isp.device_time();
        assert!(!cold.is_zero(), "cold gather must cost device time");
        assert_eq!(isp.stats().device_ns, cold.as_nanos());
        isp.gather(&odd).unwrap();
        let warm = isp.device_time() - cold;
        assert!(!warm.is_zero(), "odd rows still cross the device");
        assert!(
            warm.as_nanos_f64() * 2.0 < cold.as_nanos_f64(),
            "page-buffer-warm gather {warm} should be well under cold {cold}"
        );
        // A fully scratchpad-resident gather never reaches the device.
        isp.gather(&even).unwrap();
        assert_eq!(isp.device_time(), cold + warm);
        // Counters reset; the device clock does not rewind.
        isp.reset_stats();
        assert_eq!(isp.stats(), StoreStats::default());
        assert_eq!(isp.device_time(), cold + warm);
    }

    #[test]
    fn queue_depth_widens_flash_parallelism() {
        let (path, _) = write_table("isp-qd", 32, 256);
        let nodes: Vec<NodeId> = (0..256u32).map(NodeId::new).collect();
        let time_at = |qd: usize| {
            let mut isp = isp_over(
                path.path(),
                FileStoreOptions {
                    cache_pages: 0, // every gather re-reads: pure flash path
                    ..FileStoreOptions::default()
                },
                IspGatherOptions {
                    queue_depth: qd,
                    ..IspGatherOptions::default()
                },
            );
            isp.gather(&nodes).unwrap();
            isp.device_time()
        };
        let serial = time_at(1);
        let parallel = time_at(16);
        assert!(
            parallel.as_nanos_f64() * 2.0 < serial.as_nanos_f64(),
            "queue depth 16 ({parallel}) should far outrun depth 1 ({serial})"
        );
    }

    #[test]
    fn failed_gathers_cost_nothing() {
        let (path, _) = write_table("isp-err", 4, 5);
        let mut isp = isp_default(path.path());
        assert!(isp.gather(&[NodeId::new(5)]).is_err());
        assert_eq!(isp.stats(), StoreStats::default());
        assert!(isp.device_time().is_zero());
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_is_rejected() {
        let (path, _) = write_table("isp-zeroqd", 4, 5);
        let _ = isp_over(
            path.path(),
            FileStoreOptions::default(),
            IspGatherOptions {
                queue_depth: 0,
                ..IspGatherOptions::default()
            },
        );
    }
}
