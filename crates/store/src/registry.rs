//! The store registry: each content-keyed feature file is opened once
//! per registry and shared by every caller.
//!
//! Feature bytes are a pure function of `(dim, num_classes, seed,
//! num_nodes)`, so the registry names files by that **content key** in
//! the OS temp directory and deduplicates opens: the first caller
//! publishes (write to a private temp name, then an atomic rename) and
//! opens; everyone else gets an `Arc` clone of the same
//! [`SharedFileStore`] — one file descriptor, one page cache.
//!
//! There are two kinds of registry:
//!
//! * [`StoreRegistry::global`] — the process-wide instance used by
//!   ad-hoc pipeline runs; its caches persist for the process lifetime.
//! * Private instances (`StoreRegistry::new`) — a
//!   [`Runner`](../../smartsage_core/runner/index.html) sweep creates
//!   its own, so each sweep starts cold, concurrent sweeps cannot
//!   perturb each other's hit rates, and a second sweep in the same
//!   process reports exactly what its solo run would.
//!
//! # Feature-file lifecycle
//!
//! Published files (`smartsage-feat-*.fbin`) are content-keyed and
//! immutable: they are *meant* to outlive the process so later runs
//! skip re-serialization. They are reclaimed by
//! [`remove_cached_feature_files`] (exposed as `reproduce
//! --clean-store`). Orphaned publish temporaries
//! (`smartsage-feat-*.tmp-<pid>-<seq>`, left by a crash between write
//! and rename) are swept automatically on every publish and by the same
//! cleanup call; a temporary is stale when its embedded pid is no
//! longer alive (falling back to a 24-hour age cutoff where liveness
//! cannot be checked).

// Untrusted input fails as a typed error, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::error::StoreError;
use crate::file::{write_feature_shard, FileStoreOptions};
use crate::graph_file::{edge_offset, write_graph_shard, SharedCsrFile};
use crate::sharded::shard_ranges;
use crate::shared::SharedFileStore;
use smartsage_graph::{CsrGraph, FeatureTable};
use smartsage_hostio::LockExt;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Prefix of every feature file the registry manages in the temp
/// directory.
const FILE_PREFIX: &str = "smartsage-feat-";

/// Prefix of every graph topology file the registry manages.
const GRAPH_PREFIX: &str = "smartsage-graph-";

/// Marker separating a publish temporary's name from its `<pid>-<seq>`
/// suffix.
const TMP_MARKER: &str = ".tmp-";

/// Occupancy snapshot of one registered store, for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreOccupancy {
    /// The backing feature file.
    pub path: PathBuf,
    /// Resident pages of the cache.
    pub resident_pages: usize,
    /// Total page capacity of the cache.
    pub capacity_pages: usize,
}

/// One content key's slot: the per-key lock serializes publication of
/// *this* file only, so a multi-MB serialize of one key never blocks
/// opens of already-published keys on other sweep threads.
type Slot<F> = Arc<Mutex<Option<Arc<F>>>>;

// BTreeMap, not HashMap: occupancy() and close_all() iterate these
// maps, and registry output feeds reports — iteration order must be a
// function of the keys alone (`clippy.toml` disallows `HashMap`).
type Slots<F> = Mutex<BTreeMap<PathBuf, Slot<F>>>;

/// The two shared file types the registry deduplicates.
trait Published: Sized {
    /// The validating open.
    fn open_published(path: &Path, opts: FileStoreOptions) -> Result<Self, StoreError>;
    /// The options the file was opened with.
    fn opened_with(&self) -> FileStoreOptions;
}

impl Published for SharedFileStore {
    fn open_published(path: &Path, opts: FileStoreOptions) -> Result<Self, StoreError> {
        SharedFileStore::open_with(path, opts)
    }
    fn opened_with(&self) -> FileStoreOptions {
        self.options()
    }
}

impl Published for SharedCsrFile {
    fn open_published(path: &Path, opts: FileStoreOptions) -> Result<Self, StoreError> {
        SharedCsrFile::open_with(path, opts)
    }
    fn opened_with(&self) -> FileStoreOptions {
        self.options()
    }
}

/// The one open-or-publish sequence behind every registry open. The
/// first call for `path` in `slots` does the work; every later call
/// returns the same `Arc`.
///
/// Two-level locking: the map lock is held only long enough to
/// fetch/create this key's slot; serialization (a multi-MB write)
/// happens under the per-key slot lock, so opens of other keys proceed
/// concurrently while concurrent sweep threads wanting the same key
/// cannot both serialize it.
///
/// An existing on-disk file is revalidated through the usual
/// magic/header/length checks plus `matches`; anything stale or foreign
/// is replaced by `write` into a private temporary + atomic rename
/// (sweeping any orphaned temporaries found next to it). A key that is
/// already open with *different* options fails with
/// [`StoreError::OptionsConflict`] — never hand a caller a store whose
/// I/O accounting would silently be computed against someone else's
/// page size and capacity.
fn open_or_publish<F: Published>(
    slots: &Slots<F>,
    path: PathBuf,
    opts: FileStoreOptions,
    matches: impl Fn(&F) -> bool,
    write: impl FnOnce(&Path) -> Result<(), StoreError>,
) -> Result<Arc<F>, StoreError> {
    let slot: Slot<F> = {
        let mut slots = slots.safe_lock();
        Arc::clone(slots.entry(path.clone()).or_default())
    };
    let mut guard = slot.safe_lock();
    if let Some(existing) = guard.as_ref() {
        if existing.opened_with() != opts {
            return Err(StoreError::OptionsConflict {
                path,
                requested: opts,
                open: existing.opened_with(),
            });
        }
        return Ok(Arc::clone(existing));
    }
    let file = match F::open_published(&path, opts) {
        Ok(file) if matches(&file) => file,
        _ => {
            // Publish-temporary sequence number: names files, never read
            // as a statistic (listed in `tests/global_state.rs`).
            static SEQ: AtomicU64 = AtomicU64::new(0);
            if let Some(dir) = path.parent() {
                sweep_stale_tmp_files(dir);
            }
            let tmp = path.with_extension(format!(
                "tmp-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            write(&tmp)?;
            std::fs::rename(&tmp, &path).map_err(StoreError::io(&path, "publish"))?;
            F::open_published(&path, opts)?
        }
    };
    let file = Arc::new(file);
    *guard = Some(Arc::clone(&file));
    Ok(file)
}

/// Every file currently open in `slots` (empty slots from failed opens
/// are skipped).
fn open_files<F>(slots: &Slots<F>) -> Vec<Arc<F>> {
    let slots: Vec<Slot<F>> = {
        let slots = slots.safe_lock();
        slots.values().cloned().collect()
    };
    slots
        .iter()
        .filter_map(|slot| slot.safe_lock().clone())
        .collect()
}

/// Deduplicates [`SharedFileStore`] and [`SharedCsrFile`] opens by
/// content-keyed path — one registry serves both halves of the
/// dataset (features and topology), so a sweep's jobs share one open
/// file and one page cache per key on each axis.
#[derive(Debug, Default)]
pub struct StoreRegistry {
    entries: Slots<SharedFileStore>,
    graph_entries: Slots<SharedCsrFile>,
}

impl StoreRegistry {
    /// An empty registry with no open stores.
    pub fn new() -> StoreRegistry {
        StoreRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static StoreRegistry {
        // The global registry is the sanctioned process-wide instance
        // (module docs, listed in `tests/global_state.rs`); sweeps that
        // need isolation construct private registries instead.
        static GLOBAL: OnceLock<StoreRegistry> = OnceLock::new();
        GLOBAL.get_or_init(StoreRegistry::new)
    }

    /// The content-keyed path for `table`'s first `num_nodes` rows: the
    /// one file of its 1-way partition.
    pub fn content_key_path(table: &FeatureTable, num_nodes: usize) -> PathBuf {
        StoreRegistry::feature_shard_key_path(table, num_nodes, 0, 1)
    }

    /// The content-keyed path for `graph`'s topology file (its 1-way
    /// partition): node/edge counts plus the graph's
    /// [`CsrGraph::content_hash`], so distinct graphs can never collide
    /// on a key. The hash is one O(edges) pass, paid once per graph —
    /// every later key of the same graph reuses it.
    pub fn graph_content_key_path(graph: &CsrGraph) -> PathBuf {
        StoreRegistry::graph_shard_key_path(graph, 0, 1)
    }

    /// The content-keyed path for shard `shard` of a `shards`-way
    /// feature partition of `table`'s first `num_nodes` rows: the
    /// content key, with a `-p{i}of{k}` suffix above one device — so
    /// every partition width publishes its own immutable file set, and
    /// the 1-way partition *is* the unsharded file.
    pub fn feature_shard_key_path(
        table: &FeatureTable,
        num_nodes: usize,
        shard: usize,
        shards: usize,
    ) -> PathBuf {
        std::env::temp_dir().join(format!(
            "{FILE_PREFIX}n{num_nodes}-d{}-c{}-s{:x}{}.fbin",
            table.dim(),
            table.num_classes(),
            table.seed(),
            partition_suffix(shard, shards),
        ))
    }

    /// The content-keyed path for shard `shard` of a `shards`-way
    /// topology partition of `graph` — the graph analogue of
    /// [`StoreRegistry::feature_shard_key_path`].
    pub fn graph_shard_key_path(graph: &CsrGraph, shard: usize, shards: usize) -> PathBuf {
        std::env::temp_dir().join(format!(
            "{GRAPH_PREFIX}n{}-e{}-h{:016x}{}.gbin",
            graph.num_nodes(),
            graph.num_edges(),
            graph.content_hash(),
            partition_suffix(shard, shards),
        ))
    }

    /// Opens (publishing first if needed) the shared store for
    /// `table`'s first `num_nodes` rows — the one-element case of
    /// [`StoreRegistry::open_feature_shards`], so both spell the same
    /// registry slot, file and page cache.
    pub fn open_feature_table(
        &self,
        table: &FeatureTable,
        num_nodes: usize,
        opts: FileStoreOptions,
    ) -> Result<Arc<SharedFileStore>, StoreError> {
        let path = StoreRegistry::content_key_path(table, num_nodes);
        self.open_feature_rows(path, table, 0, num_nodes, opts)
    }

    /// Opens (publishing first if needed) the `shards`-way feature
    /// partition of `table`'s first `num_nodes` rows: one shard file
    /// per contiguous [`shard_ranges`] range, each holding its range's
    /// rows at local indices, in shard order. One file descriptor and
    /// one page cache per content key; [`StoreError::OptionsConflict`]
    /// if a key is already open with different options.
    pub fn open_feature_shards(
        &self,
        table: &FeatureTable,
        num_nodes: usize,
        shards: usize,
        opts: FileStoreOptions,
    ) -> Result<Vec<Arc<SharedFileStore>>, StoreError> {
        shard_ranges(num_nodes, shards)
            .into_iter()
            .enumerate()
            .map(|(i, (start, end))| {
                let path = StoreRegistry::feature_shard_key_path(table, num_nodes, i, shards);
                self.open_feature_rows(path, table, start, end, opts)
            })
            .collect()
    }

    /// The file at `path` holding rows `start..end` of `table` at local
    /// indices.
    fn open_feature_rows(
        &self,
        path: PathBuf,
        table: &FeatureTable,
        start: usize,
        end: usize,
        opts: FileStoreOptions,
    ) -> Result<Arc<SharedFileStore>, StoreError> {
        open_or_publish(
            &self.entries,
            path,
            opts,
            |s| {
                s.dim() == table.dim()
                    && s.num_nodes() == end - start
                    && s.num_classes() == table.num_classes()
            },
            |tmp| write_feature_shard(tmp, table, start, end),
        )
    }

    /// Opens (publishing first if needed) the shared topology file for
    /// `graph` — the one-element case of
    /// [`StoreRegistry::open_graph_shards`].
    pub fn open_graph_csr(
        &self,
        graph: &CsrGraph,
        opts: FileStoreOptions,
    ) -> Result<Arc<SharedCsrFile>, StoreError> {
        let path = StoreRegistry::graph_content_key_path(graph);
        self.open_graph_range(path, graph, 0, graph.num_nodes(), opts)
    }

    /// Opens (publishing first if needed) the `shards`-way topology
    /// partition of `graph`: one shard file per contiguous
    /// [`shard_ranges`] range, each an `SSGRPH01` file carrying the
    /// global node count and its own range's edges (see
    /// [`write_graph_shard`]), each deduplicated like
    /// [`StoreRegistry::open_feature_shards`]. The returned files are in
    /// shard order, at the paths [`StoreRegistry::graph_shard_key_path`]
    /// names; the O(edges) content hash they share is computed once per
    /// graph.
    pub fn open_graph_shards(
        &self,
        graph: &CsrGraph,
        shards: usize,
        opts: FileStoreOptions,
    ) -> Result<Vec<Arc<SharedCsrFile>>, StoreError> {
        shard_ranges(graph.num_nodes(), shards)
            .into_iter()
            .enumerate()
            .map(|(i, (start, end))| {
                let path = StoreRegistry::graph_shard_key_path(graph, i, shards);
                self.open_graph_range(path, graph, start, end, opts)
            })
            .collect()
    }

    /// The file at `path` holding the edge lists of nodes `start..end`
    /// of `graph`.
    fn open_graph_range(
        &self,
        path: PathBuf,
        graph: &CsrGraph,
        start: usize,
        end: usize,
        opts: FileStoreOptions,
    ) -> Result<Arc<SharedCsrFile>, StoreError> {
        let edges = edge_offset(graph, end) - edge_offset(graph, start);
        open_or_publish(
            &self.graph_entries,
            path,
            opts,
            |s| s.num_nodes() == graph.num_nodes() && s.num_edges() == edges,
            |tmp| write_graph_shard(tmp, graph, start, end),
        )
    }

    /// Number of distinct stores (feature + graph) this registry has
    /// open.
    pub fn len(&self) -> usize {
        open_files(&self.entries).len() + open_files(&self.graph_entries).len()
    }

    /// `true` when no store is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-store cache occupancy — feature stores and graph topology
    /// files alike — sorted by path for stable output.
    pub fn occupancy(&self) -> Vec<StoreOccupancy> {
        let mut out: Vec<StoreOccupancy> = open_files(&self.entries)
            .iter()
            .map(|s| StoreOccupancy {
                path: s.path().to_path_buf(),
                resident_pages: s.cache_resident(),
                capacity_pages: s.cache_capacity(),
            })
            .collect();
        out.extend(
            open_files(&self.graph_entries)
                .iter()
                .map(|g| StoreOccupancy {
                    path: g.path().to_path_buf(),
                    resident_pages: g.cache_resident(),
                    capacity_pages: g.cache_capacity(),
                }),
        );
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    }

    /// Closes every open store. Outstanding handles keep their `Arc`s
    /// alive; the registry just forgets them, so the next open is
    /// fresh.
    pub fn close_all(&self) {
        self.entries.safe_lock().clear();
        self.graph_entries.safe_lock().clear();
    }
}

/// What a partition's width adds to a content key: `-p{i}of{k}`, and
/// nothing at one device (the 1-way partition is the unsharded file).
fn partition_suffix(shard: usize, shards: usize) -> String {
    match shards {
        1 => String::new(),
        _ => format!("-p{shard}of{shards}"),
    }
}

/// Parses the pid out of a publish-temporary file name
/// (`...fbin` replaced by `tmp-<pid>-<seq>`).
fn tmp_file_pid(name: &str) -> Option<u32> {
    let rest = &name[name.find(TMP_MARKER)? + TMP_MARKER.len()..];
    rest.split('-').next()?.parse().ok()
}

/// Whether the process that created a temporary is still alive (when
/// that can be determined on this platform).
fn pid_alive(pid: u32) -> Option<bool> {
    if cfg!(target_os = "linux") {
        Some(Path::new(&format!("/proc/{pid}")).exists())
    } else {
        None
    }
}

fn is_stale_tmp(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    if (!name.starts_with(FILE_PREFIX) && !name.starts_with(GRAPH_PREFIX))
        || !name.contains(TMP_MARKER)
    {
        return false;
    }
    let Some(pid) = tmp_file_pid(name) else {
        return false;
    };
    if pid == std::process::id() {
        // Possibly mid-publish in this very process; never touch it.
        return false;
    }
    match pid_alive(pid) {
        Some(alive) => !alive,
        None => {
            // Liveness unknown: only reclaim clearly abandoned files.
            let day = std::time::Duration::from_secs(24 * 60 * 60);
            std::fs::metadata(path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > day)
        }
    }
}

/// Removes orphaned publish temporaries from `dir` (see the module docs
/// for what counts as stale); returns how many were removed. Called
/// automatically before every publish; safe to call any time.
pub fn sweep_stale_tmp_files(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if is_stale_tmp(&path) && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Removes every published feature file (`smartsage-feat-*.fbin`),
/// every published graph topology file (`smartsage-graph-*.gbin`), and
/// every stale publish temporary from the OS temp directory; returns
/// how many files were removed. The global registry's entries are
/// closed first so no deleted file is still being served — later opens
/// simply re-publish. This is the cleanup path behind `reproduce
/// --clean-store`.
pub fn remove_cached_feature_files() -> usize {
    StoreRegistry::global().close_all();
    let dir = std::env::temp_dir();
    let mut removed = sweep_stale_tmp_files(&dir);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return removed;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_published = path.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
            (n.starts_with(FILE_PREFIX) && n.ends_with(".fbin"))
                || (n.starts_with(GRAPH_PREFIX) && n.ends_with(".gbin"))
        });
        if is_published && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureStore;
    use crate::StoreHandle;
    use smartsage_graph::NodeId;

    fn table(seed: u64) -> FeatureTable {
        FeatureTable::new(5, 3, seed)
    }

    #[test]
    fn same_key_is_opened_exactly_once() {
        let reg = StoreRegistry::new();
        let opts = FileStoreOptions::default();
        let a = reg.open_feature_table(&table(0xA11CE), 30, opts).unwrap();
        let b = reg.open_feature_table(&table(0xA11CE), 30, opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one registry entry per content key");
        assert_eq!(reg.len(), 1);
        let c = reg.open_feature_table(&table(0xA11CE), 31, opts).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "node count is part of the key");
        assert_eq!(reg.len(), 2);
        let _ = std::fs::remove_file(a.path());
        let _ = std::fs::remove_file(c.path());
    }

    #[test]
    fn concurrent_opens_dedup_per_key_without_cross_key_blocking() {
        let reg = StoreRegistry::new();
        let opts = FileStoreOptions::default();
        // 3 distinct keys × several threads racing on each: every
        // thread of a key must get the same Arc (one open per key),
        // and all keys publish concurrently under per-key locks.
        let stores: Vec<Vec<Arc<SharedFileStore>>> = std::thread::scope(|s| {
            let reg = &reg;
            (0..3u64)
                .map(|k| {
                    let handles: Vec<_> = (0..4)
                        .map(move |_| {
                            s.spawn(move || {
                                reg.open_feature_table(&table(0xCC00 + k), 25 + k as usize, opts)
                                    .unwrap()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
                .collect()
        });
        assert_eq!(reg.len(), 3);
        for per_key in &stores {
            for other in &per_key[1..] {
                assert!(Arc::ptr_eq(&per_key[0], other), "same key, same store");
            }
        }
        assert!(!Arc::ptr_eq(&stores[0][0], &stores[1][0]));
        for per_key in &stores {
            let _ = std::fs::remove_file(per_key[0].path());
        }
    }

    #[test]
    fn occupancy_order_is_a_function_of_keys_not_insertion_order() {
        // Adversarial insertion orders: two registries open the same
        // key set forwards and backwards. Occupancy feeds reports, so
        // the listings must be byte-identical — this is the regression
        // test behind the BTreeMap choice (the ordered-maps rule).
        let opts = FileStoreOptions::default();
        let seeds = [0xD0_01u64, 0xD0_02, 0xD0_03, 0xD0_04, 0xD0_05];
        let forward = StoreRegistry::new();
        for (i, &seed) in seeds.iter().enumerate() {
            forward
                .open_feature_table(&table(seed), 20 + i, opts)
                .unwrap();
        }
        let backward = StoreRegistry::new();
        for (i, &seed) in seeds.iter().enumerate().rev() {
            backward
                .open_feature_table(&table(seed), 20 + i, opts)
                .unwrap();
        }
        let render = |reg: &StoreRegistry| {
            reg.occupancy()
                .iter()
                .map(|o| format!("{}:{}\n", o.path.display(), o.capacity_pages))
                .collect::<String>()
        };
        assert_eq!(render(&forward), render(&backward));
        for o in forward.occupancy() {
            let _ = std::fs::remove_file(&o.path);
        }
    }

    #[test]
    fn conflicting_options_for_an_open_key_are_rejected() {
        let reg = StoreRegistry::new();
        let t = table(0xBADA);
        let opts = FileStoreOptions::default();
        let store = reg.open_feature_table(&t, 12, opts).unwrap();
        let err = reg
            .open_feature_table(
                &t,
                12,
                FileStoreOptions {
                    page_bytes: 512,
                    ..opts
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, crate::StoreError::OptionsConflict { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("already open"), "{err}");
        // Same options still dedup to the same Arc.
        let again = reg.open_feature_table(&t, 12, opts).unwrap();
        assert!(Arc::ptr_eq(&store, &again));
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn registries_share_files_but_not_caches() {
        let t = table(0xB0B);
        let opts = FileStoreOptions::default();
        let reg1 = StoreRegistry::new();
        let reg2 = StoreRegistry::new();
        let a = reg1.open_feature_table(&t, 20, opts).unwrap();
        let b = reg2.open_feature_table(&t, 20, opts).unwrap();
        assert_eq!(a.path(), b.path(), "same content key, same file");
        let nodes: Vec<NodeId> = (0..20u32).map(NodeId::new).collect();
        let mut h = StoreHandle::new(Arc::clone(&a));
        h.gather(&nodes).unwrap();
        assert!(a.cache_resident() > 0);
        assert_eq!(
            b.cache_resident(),
            0,
            "a sweep-private registry starts cold"
        );
        let _ = std::fs::remove_file(a.path());
    }

    #[test]
    fn occupancy_follows_residency_and_close_all_forgets() {
        let reg = StoreRegistry::new();
        let t = table(0xCAFE);
        let store = reg
            .open_feature_table(&t, 40, FileStoreOptions::default())
            .unwrap();
        let mut h = StoreHandle::new(Arc::clone(&store));
        h.gather(&(0..40u32).map(NodeId::new).collect::<Vec<_>>())
            .unwrap();
        let occ = reg.occupancy();
        assert_eq!(occ.len(), 1);
        assert!(occ[0].resident_pages > 0);
        assert_eq!(occ[0].capacity_pages, store.cache_capacity());
        assert_eq!(occ[0].path, store.path());
        store.clear_cache();
        assert_eq!(reg.occupancy()[0].resident_pages, 0);
        reg.close_all();
        assert!(reg.is_empty());
        // Outstanding Arcs still work after close_all.
        h.gather(&[NodeId::new(1)]).unwrap();
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn clear_cache_reaches_the_isp_row_scratchpad() {
        use crate::{FeatureStore, IspGatherOptions, IspGatherStore};
        let reg = StoreRegistry::new();
        let store = reg
            .open_feature_table(&table(0xC01D), 40, FileStoreOptions::default())
            .unwrap();
        let nodes: Vec<NodeId> = (0..40u32).map(NodeId::new).collect();
        // A fresh ISP run's counters for one gather of `nodes`.
        let gather = || {
            let mut isp = IspGatherStore::over(Arc::clone(&store), IspGatherOptions::default());
            isp.gather(&nodes).unwrap();
            let io = isp.stats();
            (io.host_bytes_transferred, io.device_bytes_read)
        };
        let cold = gather();
        assert!(cold.0 > 0 && cold.1 > 0);
        assert_eq!(store.isp_scratchpad().len(), 40);
        assert_eq!(gather(), (0, 0), "resident rows are never re-shipped");
        store.clear_cache();
        assert_eq!(store.isp_scratchpad().len(), 0);
        assert_eq!(gather(), cold, "a cleared store starts cold");
        let _ = std::fs::remove_file(store.path());
    }

    #[test]
    fn graph_keys_dedup_share_and_conflict_like_feature_keys() {
        use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
        let gen = |seed| {
            generate_power_law(&PowerLawConfig {
                nodes: 40,
                avg_degree: 4.0,
                seed,
                ..PowerLawConfig::default()
            })
        };
        let g = gen(0x6AF);
        let reg = StoreRegistry::new();
        let opts = FileStoreOptions::default();
        let a = reg.open_graph_csr(&g, opts).unwrap();
        let b = reg.open_graph_csr(&g, opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one registry entry per graph key");
        assert_eq!(reg.len(), 1);
        let c = reg.open_graph_csr(&gen(0x6B0), opts).unwrap();
        assert_ne!(a.path(), c.path(), "content hash is part of the key");
        assert_eq!(reg.len(), 2);
        let err = reg
            .open_graph_csr(
                &g,
                FileStoreOptions {
                    page_bytes: 512,
                    ..opts
                },
            )
            .unwrap_err();
        assert!(matches!(err, crate::StoreError::OptionsConflict { .. }));
        // Occupancy covers graph stores once they are warm.
        let nodes: Vec<NodeId> = (0..40u32).map(NodeId::new).collect();
        a.offset_pairs(&nodes).unwrap();
        let occ = reg.occupancy();
        assert_eq!(occ.len(), 2);
        assert!(occ
            .iter()
            .any(|o| o.path == a.path() && o.resident_pages > 0));
        a.clear_cache();
        assert!(reg.occupancy().iter().all(|o| o.resident_pages == 0));
        reg.close_all();
        assert!(reg.is_empty());
        for p in [a.path(), c.path()] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn graph_shards_open_exactly_the_published_shard_key_paths() {
        use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
        let g = generate_power_law(&PowerLawConfig {
            nodes: 50,
            avg_degree: 4.0,
            seed: 0x6B2,
            ..PowerLawConfig::default()
        });
        let reg = StoreRegistry::new();
        for n in [2usize, 3] {
            let files = reg
                .open_graph_shards(&g, n, FileStoreOptions::default())
                .unwrap();
            let opened: Vec<&Path> = files.iter().map(|f| f.path()).collect();
            let named: Vec<PathBuf> = (0..n)
                .map(|i| StoreRegistry::graph_shard_key_path(&g, i, n))
                .collect();
            assert_eq!(opened, named, "{n}-way shard files");
        }
        // The registry holds exactly those five files, nothing else.
        assert_eq!(reg.len(), 5);
        for o in reg.occupancy() {
            let _ = std::fs::remove_file(&o.path);
        }
    }

    #[test]
    fn graph_file_names_are_pinned() {
        // A published `.gbin` is found again by name, so the content key
        // must spell the same name on every build.
        let g = CsrGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
        let name = |shard, shards| {
            let path = StoreRegistry::graph_shard_key_path(&g, shard, shards);
            path.file_name().unwrap().to_string_lossy().into_owned()
        };
        assert_eq!(name(0, 1), "smartsage-graph-n4-e5-hc31990ef72236f02.gbin");
        for i in 0..3 {
            assert_eq!(
                name(i, 3),
                format!("smartsage-graph-n4-e5-hc31990ef72236f02-p{i}of3.gbin")
            );
        }
    }

    #[test]
    fn shard_files_hold_their_ranges_and_route_like_the_unsharded_store() {
        use crate::topology::CsrView;
        use crate::{InMemoryStore, ShardedFeatureStore, ShardedTopology, TopologyStore};
        use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
        let g = generate_power_law(&PowerLawConfig {
            nodes: 20,
            avg_degree: 4.0,
            seed: 0x6B3,
            ..PowerLawConfig::default()
        });
        let t = table(0x5A4E);
        let reg = StoreRegistry::new();
        let opts = FileStoreOptions::default();
        // Every node, in reverse: each seam is crossed, out of order.
        let nodes: Vec<NodeId> = (0..20u32).rev().map(NodeId::new).collect();
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        // 24 shards over 20 nodes leaves four empty tail shards.
        for shards in [1usize, 3, 24] {
            let ranges = shard_ranges(20, shards);
            let features = reg.open_feature_shards(&t, 20, shards, opts).unwrap();
            let rows: Vec<usize> = features.iter().map(|f| f.num_nodes()).collect();
            let want: Vec<usize> = ranges.iter().map(|&(start, end)| end - start).collect();
            assert_eq!(rows, want, "{shards}-way feature shards hold their ranges");
            let graphs = reg.open_graph_shards(&g, shards, opts).unwrap();
            assert!(
                graphs.iter().all(|f| f.num_nodes() == 20),
                "{shards}-way graph shards carry the global node count"
            );

            let mut sharded = ShardedFeatureStore::over_files(&features).unwrap();
            let mut solo = InMemoryStore::new(t.clone(), 20);
            assert_eq!(
                bits(sharded.gather(&nodes).unwrap()),
                bits(solo.gather(&nodes).unwrap()),
                "{shards}-way gather"
            );
            let mut topology = ShardedTopology::over_files(&graphs, &ranges).unwrap();
            let (mut got, mut want) = (vec![0u64; 20], vec![0u64; 20]);
            topology.degrees_into(&nodes, &mut got).unwrap();
            CsrView::new(&g).degrees_into(&nodes, &mut want).unwrap();
            assert_eq!(got, want, "{shards}-way degrees");
        }
        for o in reg.occupancy() {
            let _ = std::fs::remove_file(&o.path);
        }
    }

    #[test]
    fn stale_foreign_graph_file_is_republished() {
        use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
        let g = generate_power_law(&PowerLawConfig {
            nodes: 12,
            avg_degree: 3.0,
            seed: 0x6B1,
            ..PowerLawConfig::default()
        });
        let reg = StoreRegistry::new();
        let path = StoreRegistry::graph_content_key_path(&g);
        // A foreign and a truncated `.gbin` fail typed, naming the path
        // as a store file, never as a feature file.
        for (bytes, foreign) in [
            (vec![0u8; 4096], true),
            (b"not a graph file".to_vec(), false),
        ] {
            std::fs::write(&path, bytes).unwrap();
            let err = SharedCsrFile::open(&path).unwrap_err();
            assert_eq!(matches!(err, StoreError::BadMagic { .. }), foreign, "{err}");
            let msg = err.to_string();
            assert!(msg.contains(path.to_str().unwrap()), "{msg}");
            assert!(!msg.contains("feature"), "{msg}");
        }
        let store = reg.open_graph_csr(&g, FileStoreOptions::default()).unwrap();
        assert_eq!(store.num_nodes(), 12);
        assert_eq!(store.num_edges(), g.num_edges());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_foreign_file_is_republished() {
        let reg = StoreRegistry::new();
        let t = table(0xD00D);
        let path = StoreRegistry::content_key_path(&t, 10);
        std::fs::write(&path, b"not a feature file").unwrap();
        let store = reg
            .open_feature_table(&t, 10, FileStoreOptions::default())
            .unwrap();
        assert_eq!(store.num_nodes(), 10);
        let mut h = StoreHandle::new(Arc::clone(&store));
        h.gather(&[NodeId::new(0)]).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_tmp_files_are_swept_and_live_ones_kept() {
        let dir =
            std::env::temp_dir().join(format!("smartsage-tmp-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A dead pid (u32::MAX is never a live pid) → stale.
        let dead = dir.join(format!("{FILE_PREFIX}n1-d1-c1-s0.tmp-{}-0", u32::MAX));
        // Our own pid → possibly mid-publish, must be kept.
        let ours = dir.join(format!(
            "{FILE_PREFIX}n1-d1-c1-s0.tmp-{}-0",
            std::process::id()
        ));
        // Unrelated files are never touched.
        let other = dir.join("some-other-file.tmp-1-0");
        for f in [&dead, &ours, &other] {
            std::fs::write(f, b"x").unwrap();
        }
        let removed = sweep_stale_tmp_files(&dir);
        assert_eq!(removed, 1, "exactly the dead-pid temporary goes");
        assert!(!dead.exists());
        assert!(ours.exists());
        assert!(other.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_pid_parsing() {
        assert_eq!(
            tmp_file_pid("smartsage-feat-n1-d1-c1-s0.tmp-123-4"),
            Some(123)
        );
        assert_eq!(tmp_file_pid("smartsage-feat-n1.tmp-abc-4"), None);
        assert_eq!(tmp_file_pid("smartsage-feat-n1.fbin"), None);
    }
}
