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
//!   [`smartsage_storage::Ssd`] component model in virtual time, run
//!   through the one ISP firmware the edge-list cost policy prices the
//!   figures with: the gather is one command of one access per missing
//!   row, in request order, priced by `IspDevice::command` (the one
//!   command entry of both ISP tiers) — [`Ssd::isp_decode`], then
//!   [`Ssd::isp_chunk`] over `ssd.isp.queue_depth` accesses at a time
//!   (each row one answer; a chunk's core work pooled, its pages issued
//!   together, done at the later of the cores and the flash), then the
//!   packed-result DMA. The pages an access is costed for are not
//!   derived here: the command takes the plan of the media read that
//!   just resolved the missing rows, handed back by the one paged read
//!   path (`paged.rs`) through [`SharedFileStore`], the read's ranges in
//!   request order (a row range per missing row), and each access as
//!   the ranges it spans and its answers (a row is one range, one
//!   answer); its pages are the ones those ranges were the first to
//!   need — so each resolved page is fetched once per
//!   command, and the model can only be priced for pages that were
//!   actually resolved. The accumulated busy time is reported in
//!   [`StoreStats::device_ns`] and [`IspGatherStore::device_time`].
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
use crate::paged::Plan;
use crate::shared::SharedFileStore;
use crate::{check_buffer, check_ids, count_call, FeatureStore, StoreStats};
use smartsage_graph::NodeId;
use smartsage_hostio::{ByteRange, LockExt};
use smartsage_sim::{LruMap, SimDuration, SimTime};
use smartsage_storage::{Ssd, SsdParams};
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
/// bytes). A gather takes the lock twice, not once per row: its lookup
/// copies resident rows straight into the caller's buffer without
/// promoting them, and once its device read has succeeded it publishes
/// every lookup's recency update in request order, then the rows it
/// shipped — the order a row-at-a-time lookup-then-insert leaves.
#[derive(Debug)]
pub struct RowScratchpad {
    rows: Mutex<LruMap<u32, Box<[f32]>>>,
}

impl RowScratchpad {
    /// A scratchpad holding at most `budget_bytes / row_bytes` rows
    /// (zero budget disables caching entirely).
    pub fn new(budget_bytes: u64, row_bytes: u64) -> RowScratchpad {
        let capacity_rows = (budget_bytes / row_bytes.max(1)) as usize;
        RowScratchpad {
            rows: Mutex::new(LruMap::new(capacity_rows)),
        }
    }

    /// Resident rows.
    pub fn len(&self) -> usize {
        self.rows.safe_lock().len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident row, keeping capacity.
    pub fn clear(&self) {
        self.rows.safe_lock().clear();
    }
}

/// Knobs of the ISP tiers: none. The device model is the default
/// [`SsdParams`] aligned to the file's geometry, and its firmware knobs
/// are [`SsdParams::isp`]. The constructors still take this because the
/// `benchmark/` package passes it; it goes when that package is ported.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct IspGatherOptions {}

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
/// model plus the virtual clock its commands advance. Shared by the ISP
/// feature-gather tier and the ISP sampling topology
/// ([`crate::IspSampleTopology`]), one per member device.
#[derive(Debug)]
pub(crate) struct IspDevice {
    pub ssd: Ssd,
    /// Each command starts where the previous one finished, so
    /// shared-resource contention (cores, channels, PCIe) accumulates
    /// across a run exactly like in the edge-list policies — and the
    /// clock is the device's total busy time.
    clock: SimTime,
}

impl IspDevice {
    /// A default device aligned to the geometry of the `file_len`-byte
    /// file it serves: flash pages are the store's I/O pages, the FTL
    /// covers the whole file, and the device page buffer matches the
    /// payload cache capacity.
    pub fn new(file_opts: FileStoreOptions, file_len: u64) -> IspDevice {
        let mut params = SsdParams::default();
        params.flash.page_bytes = file_opts.page_bytes;
        params.ftl.logical_pages = params
            .ftl
            .logical_pages
            .max(file_len.div_ceil(file_opts.page_bytes).max(1));
        params.buffer_pages = file_opts.cache_pages;
        IspDevice::from_params(params)
    }

    /// A device over exactly `params`, its clock at zero. Panics, as
    /// [`Ssd::new`] does, on parameters the model rejects.
    pub fn from_params(params: SsdParams) -> IspDevice {
        IspDevice {
            ssd: Ssd::new(params),
            clock: SimTime::ZERO,
        }
    }

    /// Total modeled busy time across all commands so far.
    pub fn device_time(&self) -> SimDuration {
        self.clock.since_epoch()
    }

    /// Costs one ISP command against the device's firmware and re-scopes
    /// `io`'s transfer split. `plan` is the plan of the read(s) that
    /// produced `io`, `ranges` the ranges they read, in request order,
    /// and the command is `accesses` in request order, each `(spans,
    /// answers)`: it covers the next `spans` of `ranges` and answers
    /// `answers` results out of the pages those ranges were the first to
    /// need ([`Plan::first_needs`]), so each resolved page is fetched
    /// once per command. The firmware decodes
    /// the command, runs its accesses a chunk at a time, and DMAs the
    /// `shipped` packed bytes back. The shared file accounted its page
    /// reads as host traffic (it is a host-path reader); here they
    /// happened inside the device, and only the `shipped` bytes crossed
    /// the link.
    pub fn command(
        &mut self,
        mut io: StoreStats,
        plan: &Plan,
        ranges: impl IntoIterator<Item = ByteRange>,
        accesses: impl IntoIterator<Item = (usize, u64)>,
        shipped: u64,
    ) -> StoreStats {
        let (pages, ends) = plan.first_needs(ranges);
        let mut at = 0;
        let mut accesses = accesses
            .into_iter()
            .map(|(spans, answers)| {
                let first = at;
                at += spans;
                (answers, pages[ends[first]..ends[at]].iter().copied())
            })
            .peekable();
        let ssd = &mut self.ssd;
        let start = self.clock;
        let mut t = ssd.isp_decode(start);
        while accesses.peek().is_some() {
            t = ssd.isp_chunk(t, &mut accesses, |_| None);
        }
        self.clock = ssd.dma_to_host(t, shipped);
        // Whole nanoseconds of the clock, so the commands' `device_ns`
        // sum to `device_time` exactly.
        io.device_ns = self.clock.since_epoch().as_nanos() - start.since_epoch().as_nanos();
        io.device_bytes_read = io.bytes_read;
        io.host_bytes_transferred = shipped;
        io
    }
}

impl IspGatherStore {
    /// Wraps an already-open shared store in the ISP gather tier,
    /// joining the host row scratchpad every ISP run of that store
    /// shares ([`SharedFileStore::isp_scratchpad`]).
    pub fn over(shared: Arc<SharedFileStore>, _: IspGatherOptions) -> IspGatherStore {
        IspGatherStore {
            device: IspDevice::new(shared.options(), shared.file_len()),
            scratchpad: shared.isp_scratchpad(),
            shared,
            stats: StoreStats::default(),
        }
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
        &self.device.ssd
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
        // Validate every node before touching any state (including the
        // scratchpad's recency order), so a failed gather costs — and
        // counts — nothing.
        check_buffer(nodes.len() * dim, out)?;
        check_ids(nodes.iter().copied(), self.shared.num_nodes())?;
        // Each node's request positions, grouped by one sort. An
        // ascending request (every pipeline and serve gather) is already
        // sorted, and the sort finishes it in one linear pass.
        let mut by_node: Vec<(u32, usize)> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node.raw(), i))
            .collect();
        by_node.sort_unstable();
        let row_of = |i: usize| i * dim..(i + 1) * dim;
        // Lookup: a resident row is served from host DRAM (it crossed
        // PCIe on an earlier gather) into every position asking for it;
        // a missing node goes to the device once. Nothing is promoted
        // yet, so a failed read leaves the scratchpad as it was.
        let mut misses: Vec<&[(u32, usize)]> = Vec::new();
        {
            let rows = self.scratchpad.rows.safe_lock();
            for group in by_node.chunk_by(|a, b| a.0 == b.0) {
                match rows.peek(&group[0].0) {
                    Some(row) => {
                        for &(_, i) in group {
                            out[row_of(i)].copy_from_slice(row);
                        }
                    }
                    None => misses.push(group),
                }
            }
        }
        // The device resolves the missing rows in request order (of
        // their first occurrence).
        misses.sort_unstable_by_key(|group| group[0].1);
        let missing: Vec<NodeId> = misses.iter().map(|g| NodeId::new(g[0].0)).collect();
        let mut io = StoreStats::default();
        let mut miss_buf = vec![0.0f32; missing.len() * dim];
        if !missing.is_empty() {
            // Device-side resolution through the shared store: real
            // media I/O, bit-identical values. Its per-call deltas are
            // the device reads of this gather.
            let (media, plan) = self.shared.gather_planned(&missing, &mut miss_buf)?;
            // One firmware access per missing row, answering its row out
            // of the pages it first needed; only the packed missing rows
            // cross the link.
            let shipped = missing.len() as u64 * dim as u64 * 4;
            let ranges = missing.iter().map(|&node| self.shared.row_range(node));
            let accesses = std::iter::repeat_n((1, 1), missing.len());
            io = self.device.command(media, &plan, ranges, accesses, shipped);
        }
        // Publish: every lookup's recency update in request order (a
        // node that missed is not resident, or is re-put just below),
        // then the freshly shipped rows.
        {
            let mut rows = self.scratchpad.rows.safe_lock();
            for node in nodes {
                rows.touch(&node.raw());
            }
            for (j, group) in misses.iter().enumerate() {
                rows.put(group[0].0, miss_buf[row_of(j)].into());
            }
        }
        for (j, group) in misses.iter().enumerate() {
            for &(_, i) in *group {
                out[row_of(i)].copy_from_slice(&miss_buf[row_of(j)]);
            }
        }
        // Access counters describe the whole gather, not just the
        // device's share of it.
        self.stats.accumulate(&io);
        count_call(&mut self.stats, nodes.len(), dim as u64 * 4);
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
    use crate::file::HEADER_BYTES;
    use crate::{write_feature_file, InMemoryStore, ScratchFile, StoreHandle};
    use smartsage_graph::FeatureTable;
    use smartsage_hostio::ByteRange;
    use std::collections::BTreeMap;
    use std::path::Path;

    /// An ISP tier over its own open of `path`.
    fn isp_default(path: &Path) -> IspGatherStore {
        let shared = SharedFileStore::open_with(path, FileStoreOptions::default()).unwrap();
        IspGatherStore::over(Arc::new(shared), IspGatherOptions::default())
    }

    /// A device at ISP queue depth `queue_depth` with 4 KiB pages and no
    /// page buffer.
    fn device_at(queue_depth: usize) -> IspDevice {
        let mut params = SsdParams::default();
        params.flash.page_bytes = 4096;
        params.isp.queue_depth = queue_depth;
        IspDevice::from_params(params)
    }

    /// `n` accesses of one answer, each first needing its own page.
    fn one_page_each(n: u64) -> impl Iterator<Item = (u64, [u64; 1])> {
        (0..n).map(|page| (1, [page]))
    }

    /// [`one_page_each`] as a command: `n` one-byte ranges on 4 KiB
    /// pages `0..n`, costed on `device`.
    fn command_one_page_each(device: &mut IspDevice, n: u64, shipped: u64) -> StoreStats {
        let ranges = (0..n).map(|page| ByteRange {
            offset: page * 4096,
            len: 1,
        });
        let plan = crate::paged::tests::plan_covering(&ranges.clone().collect::<Vec<_>>(), 4096);
        let accesses = std::iter::repeat_n((1, 1), n as usize);
        device.command(StoreStats::default(), &plan, ranges, accesses, shipped)
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
        // 256 accesses, each missing its own page: pure flash path.
        let time_at = |queue_depth| {
            let mut device = device_at(queue_depth);
            command_one_page_each(&mut device, 256, 0);
            device.device_time()
        };
        let serial = time_at(1);
        let parallel = time_at(16);
        assert!(
            parallel.as_nanos_f64() * 2.0 < serial.as_nanos_f64(),
            "queue depth 16 ({parallel}) should far outrun depth 1 ({serial})"
        );
    }

    #[test]
    fn a_pass_no_longer_than_its_queue_depth_prices_as_one_chunk() {
        let device_ns = |queue_depth| {
            let mut device = device_at(queue_depth);
            command_one_page_each(&mut device, 12, 160).device_ns
        };
        // One chunk by hand on a twin device: decode, all 12 accesses,
        // the DMA.
        let ssd = &mut device_at(12).ssd;
        let decoded = ssd.isp_decode(SimTime::ZERO);
        let chunk = ssd.isp_chunk(decoded, &mut one_page_each(12), |_| None);
        let one_chunk = ssd.dma_to_host(chunk, 160).since_epoch().as_nanos();
        assert_eq!(device_ns(12), one_chunk);
        assert_eq!(device_ns(64), one_chunk);
        assert!(
            device_ns(4) > one_chunk,
            "three chunks queue behind each other"
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
        let _ = device_at(0);
    }

    /// The gather as it was written one row at a time — a scratchpad
    /// lookup (and promotion) per row, a `BTreeMap` of the first
    /// occurrence of each miss, one insert per shipped row — kept as the
    /// reference the batched [`IspGatherStore::gather_into`] must match
    /// on every successful call.
    fn gather_reference(isp: &mut IspGatherStore, nodes: &[NodeId], out: &mut [f32]) {
        let dim = isp.shared.dim();
        assert_eq!(out.len(), nodes.len() * dim);
        let mut missing: Vec<NodeId> = Vec::new();
        let mut miss_index: BTreeMap<u32, usize> = BTreeMap::new();
        let mut resolved: Vec<Option<Box<[f32]>>> = Vec::with_capacity(nodes.len());
        for &node in nodes {
            if miss_index.contains_key(&node.raw()) {
                resolved.push(None);
                continue;
            }
            match isp.scratchpad.rows.safe_lock().get(&node.raw()).cloned() {
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
            let (media, plan) = isp.shared.gather_planned(&missing, &mut miss_buf).unwrap();
            let shipped = missing.len() as u64 * dim as u64 * 4;
            let ranges = missing.iter().map(|&node| isp.shared.row_range(node));
            let accesses = missing.iter().map(|_| (1, 1));
            io = isp.device.command(media, &plan, ranges, accesses, shipped);
            for (j, &node) in missing.iter().enumerate() {
                let row: Box<[f32]> = miss_buf[j * dim..(j + 1) * dim].into();
                isp.scratchpad.rows.safe_lock().put(node.raw(), row);
            }
        }
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
        io.gathers = 1;
        io.nodes_gathered = nodes.len() as u64;
        io.feature_bytes = nodes.len() as u64 * dim as u64 * 4;
        isp.stats.accumulate(&io);
    }

    fn scratchpad_keys(isp: &IspGatherStore) -> Vec<u32> {
        isp.scratchpad.rows.safe_lock().keys_mru_first()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The batched gather and the per-row reference, each on its own
        /// open of one file (512-byte pages, a 4-page cache: pages and
        /// rows churn), agree after every call on the rows, all ten
        /// counters, the device time and the scratchpad's recency order.
        /// Requests are ascending-distinct, unsorted, duplicate-heavy or
        /// empty; scratchpads hold 0, 1, 7 or every row.
        #[test]
        fn batched_gather_matches_the_per_row_reference(
            capacity in 0usize..4,
            requests in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(0u32..96, 0..40)),
                1..8,
            ),
        ) {
            use proptest::prelude::*;
            let (path, _) = write_table("isp-reference", 8, 96);
            let opts = FileStoreOptions {
                page_bytes: 512,
                cache_pages: 4,
            };
            let rows = [0u64, 1, 7, 96][capacity];
            let open = || {
                let shared = SharedFileStore::open_with(path.path(), opts).unwrap();
                let mut isp = IspGatherStore::over(Arc::new(shared), IspGatherOptions::default());
                isp.scratchpad = Arc::new(RowScratchpad::new(rows * 32, 32));
                isp
            };
            let (mut batched, mut reference) = (open(), open());
            for (kind, mut raw) in requests {
                match kind {
                    0 => {
                        raw.sort_unstable();
                        raw.dedup();
                    }
                    1 => {}
                    2 => raw.iter_mut().for_each(|n| *n %= 6),
                    _ => raw.clear(),
                }
                let nodes: Vec<NodeId> = raw.into_iter().map(NodeId::new).collect();
                let mut got = vec![f32::NAN; nodes.len() * 8];
                let mut want = vec![0.0f32; nodes.len() * 8];
                batched.gather_into(&nodes, &mut got).unwrap();
                gather_reference(&mut reference, &nodes, &mut want);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(batched.stats(), reference.stats());
                prop_assert_eq!(batched.device_time(), reference.device_time());
                prop_assert_eq!(scratchpad_keys(&batched), scratchpad_keys(&reference));
            }
        }
    }

    #[test]
    fn a_failed_media_read_leaves_the_scratchpad_untouched() {
        // 32-byte rows, 16 to a 512-byte page. Rows 5, 1, 3 are warmed
        // (MRU first: 3, 1, 5), then the file is cut after row 63, under
        // the open store: a gather of hits 1 and 5 plus the lost row 200
        // must fail without promoting either hit.
        let (path, _) = write_table("isp-cut", 8, 256);
        let opts = FileStoreOptions {
            page_bytes: 512,
            cache_pages: 4,
        };
        let shared = SharedFileStore::open_with(path.path(), opts).unwrap();
        let mut isp = IspGatherStore::over(Arc::new(shared), IspGatherOptions::default());
        isp.gather(&[5u32, 1, 3].map(NodeId::new)).unwrap();
        let (keys, stats, device) = (scratchpad_keys(&isp), isp.stats(), isp.device_time());
        assert_eq!(keys, [3, 1, 5]);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path.path())
            .unwrap();
        file.set_len(HEADER_BYTES + 64 * 32).unwrap();
        assert!(isp.gather(&[1u32, 200, 5].map(NodeId::new)).is_err());
        assert_eq!(scratchpad_keys(&isp), keys);
        assert_eq!(isp.stats(), stats);
        assert_eq!(isp.device_time(), device);
    }
}
