//! Seeded inputs and the small process-level helpers every workload
//! shares (FNV checksums, peak RSS, the published files of a TMPDIR).

use smartsage_graph::datasets::MaterializedDataset;
use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
use smartsage_graph::{Dataset, DatasetProfile, FeatureTable, GraphScale};
use std::path::Path;
use std::sync::Arc;

/// Mini-batch size of every sweep and training workload.
pub const BATCH_SIZE: usize = 192;
/// Label classes of the generated datasets.
pub const CLASSES: usize = 16;
/// Page-cache pages per tier (4 MiB of 4 KiB pages) — the pipeline's
/// own fixed budget, mirrored here so the replay opens the same caches.
pub const CACHE_PAGES: usize = 1024;

/// The two generated dataset shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 100 000 nodes, dim 128: ≈51 MB of features and ≈29 MB of
    /// topology, each at least 7× its 4 MiB page cache.
    Wide,
    /// 12 000 nodes, dim 64: ≈3.1 MB + ≈3.5 MB, both fit their caches.
    Small,
}

impl Shape {
    /// Node count (÷10 under `--quick`).
    pub fn nodes(self, quick: bool) -> usize {
        let full = match self {
            Shape::Wide => 100_000,
            Shape::Small => 12_000,
        };
        if quick {
            full / 10
        } else {
            full
        }
    }

    /// Feature dimension.
    pub fn feature_dim(self) -> usize {
        match self {
            Shape::Wide => 128,
            Shape::Small => 64,
        }
    }
}

/// Average degree of both shapes (the Amazon large-scale profile's).
pub const AVG_DEGREE: f64 = 36.0;

/// Generates a dataset of `shape` from `seed`: a power-law community
/// graph plus a synthetic feature table, wrapped with the Amazon
/// large-scale profile (which only feeds the cost policies' analytic
/// locality rates).
pub fn materialize(shape: Shape, seed: u64, quick: bool) -> MaterializedDataset {
    let graph = generate_power_law(&PowerLawConfig {
        nodes: shape.nodes(quick),
        avg_degree: AVG_DEGREE,
        exponent: 2.1,
        communities: CLASSES,
        homophily: 0.8,
        seed,
    });
    MaterializedDataset {
        profile: DatasetProfile::of(Dataset::Amazon),
        scale: GraphScale::LargeScale,
        graph: Arc::new(graph),
        features: FeatureTable::new(shape.feature_dim(), CLASSES, seed),
    }
}

/// FNV-1a over a byte stream, for output checksums.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes every value's bit pattern in.
    pub fn write_f32s(&mut self, values: &[f32]) {
        for v in values {
            self.write(&v.to_bits().to_le_bytes());
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Removes every store file published into `dir` (content-keyed
/// `smartsage-*` files), so the next set-up publishes again.
pub fn remove_published(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry
            .file_name()
            .to_string_lossy()
            .starts_with("smartsage-")
        {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// How many times an untraced pass sets its workload up from nothing;
/// `setup_s` is the median. Five, because a slow spell of the sandbox
/// that covers two of three set-ups moved the median by 30 %.
pub fn setups(quick: bool) -> usize {
    if quick {
        1
    } else {
        5
    }
}

/// `available_parallelism`, 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_dataset_other_seed_other_dataset() {
        let a = materialize(Shape::Small, 3, true);
        let b = materialize(Shape::Small, 3, true);
        let c = materialize(Shape::Small, 4, true);
        assert_eq!(a.graph.num_nodes(), 1_200);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.features.seed(), 3);
        let edges = |d: &MaterializedDataset| -> Vec<u32> {
            d.graph
                .node_ids()
                .flat_map(|n| d.graph.neighbors(n).iter().map(|t| t.raw()))
                .collect()
        };
        assert_eq!(edges(&a), edges(&b));
        assert_ne!(edges(&a), edges(&c));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 1.0);
        }
    }
}
