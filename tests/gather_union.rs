//! `gnn::gather_union` — the one union gather behind the offline
//! pipeline's windows and serve's merged infer groups — on every
//! feature tier at 1 and 3 shards (`merged ≡ solo`):
//!
//! * it makes exactly `slices` store calls, empty ones included;
//! * the calls are ascending and disjoint, and together they are the
//!   sorted union of the lists; none is longer than ⌈union / slices⌉;
//! * at one slice, each list's rows looked up by the returned set's
//!   `rank` equal that list's own gather on a fresh tier.

use proptest::prelude::*;
use smartsage::gnn::gather_union;
use smartsage::graph::{CsrGraph, FeatureTable, NodeId};
use smartsage::store::file::FileStoreOptions;
use smartsage::store::{
    FeatureStore, StoreError, StoreKind, StoreRegistry, StoreStats, TierSpec, TopologyKind,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// A feature store that records the node list of every call it passes
/// on to the tier it wraps.
#[derive(Debug)]
struct Recording {
    inner: Box<dyn FeatureStore + Send>,
    calls: Vec<Vec<NodeId>>,
}

impl FeatureStore for Recording {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn label(&self, node: NodeId) -> usize {
        self.inner.label(node)
    }
    fn gather_into(&mut self, nodes: &[NodeId], out: &mut [f32]) -> Result<(), StoreError> {
        self.calls.push(nodes.to_vec());
        self.inner.gather_into(nodes, out)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// Registry files a case published, removed when it is done with them
/// (content-keyed files otherwise outlive the process by design).
struct Published(Vec<PathBuf>);

impl Drop for Published {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A list drawn in one of three shapes: spread over the whole id
/// space (a sparse union), clustered in a 48-id span (a dense one), or
/// only the two end ids. Repeats come with every shape.
fn shaped_list(shape: u8, offset: u32, raw: &[u32], num_nodes: u32) -> Vec<NodeId> {
    let last = num_nodes - 1;
    raw.iter()
        .map(|&r| match shape {
            0 => r % num_nodes,
            1 => (offset % num_nodes + r % 48).min(last),
            _ => [0, last][r as usize % 2],
        })
        .map(NodeId::new)
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_union_gather_equals_each_list_gathered_alone(
        num_nodes in 2u32..2500,
        dim in 1usize..6,
        seed in any::<u64>(),
        page_bytes in 512u64..4096,
        cache_pages in 0usize..16,
        raw_lists in proptest::collection::vec(
            (0u8..3, any::<u32>(), proptest::collection::vec(any::<u32>(), 0..40)),
            1..6,
        ),
        slice_pick in any::<usize>(),
        keep_pick in 0usize..4,
    ) {
        let rows = num_nodes as usize;
        let table = FeatureTable::new(dim, 3, seed);
        let graph = Arc::new(CsrGraph::from_edges(rows, [(0, 1)]));
        // Short lists leave fewer distinct ids than slices: empty parts.
        let keep = [0, 1, 3, 40][keep_pick];
        let lists: Vec<Vec<NodeId>> = raw_lists
            .iter()
            .map(|(shape, offset, raw)| {
                shaped_list(*shape, *offset, &raw[..raw.len().min(keep)], num_nodes)
            })
            .collect();
        let slices = 1 + slice_pick % lists.len();
        let union: Vec<NodeId> = lists.iter().flatten().copied().collect::<BTreeSet<_>>()
            .into_iter().collect();
        let file = FileStoreOptions { page_bytes, cache_pages };
        let mut published = Published(Vec::new());
        for store in [StoreKind::Mem, StoreKind::File, StoreKind::Isp] {
            for shards in [1, 3] {
                if store != StoreKind::Mem {
                    published.0.extend((0..shards).map(|i| {
                        StoreRegistry::feature_shard_key_path(&table, rows, i, shards)
                    }));
                }
                let spec = TierSpec { store, topology: TopologyKind::Mem, shards, file };
                // A fresh registry per tier: cold page caches.
                let fresh = || Recording {
                    inner: StoreRegistry::new()
                        .open_tiers(&graph, &table, rows, &spec)
                        .unwrap()
                        .features,
                    calls: Vec::new(),
                };
                let what = format!("{store:?} x{shards}, {slices} slices of {}", union.len());

                let mut sliced = fresh();
                let mut buf = Vec::new();
                let set = gather_union(&mut sliced, lists.iter().map(Vec::as_slice), slices, &mut buf)
                    .unwrap();
                let members: Vec<NodeId> = set.iter().map(|id| NodeId::new(id as u32)).collect();
                prop_assert_eq!(&members, &union, "{}", what);
                prop_assert_eq!(sliced.calls.len(), slices, "{}", what);
                prop_assert_eq!(sliced.stats().gathers, slices as u64, "{}", what);
                // The calls concatenate to the strictly ascending union,
                // so each is ascending and no two overlap.
                prop_assert_eq!(sliced.calls.concat(), union.clone(), "{}", what);
                let longest = sliced.calls.iter().map(Vec::len).max().unwrap_or(0);
                prop_assert!(longest <= union.len().div_ceil(slices), "{}: {}", what, longest);

                let mut merged = fresh();
                let mut buf = Vec::new();
                let set = gather_union(&mut merged, lists.iter().map(Vec::as_slice), 1, &mut buf)
                    .unwrap();
                prop_assert_eq!(&merged.calls, &vec![union.clone()], "{}", what);
                prop_assert_eq!(buf.len(), union.len() * dim, "{}", what);
                let mut solo = fresh();
                for list in &lists {
                    let looked_up: Vec<f32> = list
                        .iter()
                        .flat_map(|n| {
                            let row = set.rank(u64::from(n.raw()));
                            buf[row * dim..(row + 1) * dim].iter().copied()
                        })
                        .collect();
                    let alone = solo.gather(list).unwrap();
                    prop_assert_eq!(bits(&looked_up), bits(&alone), "{}: {:?}", what, list);
                }
            }
        }
    }
}
