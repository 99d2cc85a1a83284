//! GraphSAGE neighbor sampling (paper §II-B, Algorithm 1).
//!
//! A mini-batch is sampled in **one pass** through a
//! [`TopologyStore`]: per hop, the pass reads the frontier's degrees,
//! draws which entries of each node's neighbor list to sample, and
//! resolves those picks to neighbor ids — the way
//! SmartSAGE's ISP builds the subgraph inside the device once
//! (Fig 10(b)). The pass writes one record, the [`SampledBatch`]: per
//! hop, the degrees the store answered for the frontier and the
//! resolved neighbors, which are the next hop's frontier. Training
//! consumes the batch; the cost policies price its
//! [`SampleTrace`], which is the batch moved
//! ([`SampledBatch::into_trace`]: each frontier paired with its
//! degrees, the leaves dropped), not a second record.
//!
//! [`sample_group_on`] is the one group sampler: a group of requests
//! (serve's merged group, the offline pass's window of `queue_depth`
//! batches), each on its own seeded RNG, shares one `degrees_into` and
//! one `pick_neighbors_into` call per hop — the paper's one `NSconfig`
//! per command group (Fig 11) — and every request's batch is the one it
//! would get alone. [`sample_on`] is its one-request case for a caller
//! with a running RNG or one batch at a time (the trainer, Fig 5, the
//! examples). There is one hop-expansion implementation, so the graph
//! half of the dataset can live in memory
//! ([`CsrView`](smartsage_store::CsrView)),
//! on storage ([`FileTopology`](smartsage_store::FileTopology)) or
//! resolve inside the modeled SSD
//! ([`IspSampleTopology`](smartsage_store::IspSampleTopology)) without
//! the tiers drifting: bit-identical batches are asserted across tiers,
//! and group ≡ solo, by `tests/topology_store_conformance.rs`.
//!
//! The draws are not kept: a caller that needs the picks
//! (Fig 5's memory trace) samples through the store-side recorder,
//! [`TracingTopology`].
//!
//! The paper's default configuration samples 25 neighbors at the first
//! GNN layer and 10 at the second (§VI-F); mini-batch size is 1024 (§V).
//! A GraphSAINT random walk of length `L` (Fig 20) is fan-outs
//! `[1; L]`: one uniformly random neighbor per step, and a sink's
//! self-loop keeps its walk in place.

use smartsage_graph::NodeId;
use smartsage_sim::{RankSet, Xoshiro256};
use smartsage_store::{
    FeatureStore, SampleTrace, StoreError, TopologyStore, TraceHop, TracingTopology,
};

/// Per-layer sampling fan-outs, outermost (target) layer first.
///
/// # Example
///
/// ```
/// use smartsage_gnn::Fanouts;
/// let f = Fanouts::paper_default();
/// assert_eq!(f.as_slice(), &[25, 10]);
/// assert_eq!(f.scaled(2.0).as_slice(), &[50, 20]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fanouts(Vec<usize>);

impl Fanouts {
    /// Creates fan-outs from a per-hop list.
    ///
    /// # Panics
    ///
    /// Panics if empty or any fan-out is zero.
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        assert!(fanouts.iter().all(|&f| f > 0), "fan-outs must be positive");
        Fanouts(fanouts)
    }

    /// The paper's default: 25 neighbors at layer 1, 10 at layer 2.
    pub fn paper_default() -> Self {
        Fanouts(vec![25, 10])
    }

    /// The per-hop fan-outs.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.0.len()
    }

    /// Fan-outs scaled by `factor` (minimum 1 each) — Fig 21's sweep.
    pub fn scaled(&self, factor: f64) -> Fanouts {
        Fanouts(
            self.0
                .iter()
                .map(|&f| ((f as f64 * factor).round() as usize).max(1))
                .collect(),
        )
    }
}

/// Reassembles one request's hop in frontier order from the store's
/// pick answers (`resolved` yields one id per drawn position),
/// substituting self-loops for isolated nodes so the tree keeps its
/// shape.
fn hop_neighbors<'a>(
    frontier: &[NodeId],
    degrees: &[u64],
    fanout: usize,
    resolved: &mut impl Iterator<Item = &'a NodeId>,
) -> Vec<NodeId> {
    let mut neighbors = Vec::with_capacity(frontier.len() * fanout);
    for (&node, &degree) in frontier.iter().zip(degrees) {
        if degree == 0 {
            neighbors.extend(std::iter::repeat_n(node, fanout));
        } else {
            neighbors.extend(resolved.take(fanout).copied());
        }
    }
    neighbors
}

/// One resolved hop: the degrees the store answered for the hop's
/// frontier, and each frontier node's `fanout` sampled neighbors,
/// flattened in frontier order. The frontier is the previous hop's
/// `neighbors` (the batch's targets for hop 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopSample {
    /// Fan-out at this hop.
    pub fanout: usize,
    /// Each frontier node's out-degree, as the store answered it.
    pub degrees: Vec<u64>,
    /// Sampled neighbors; frontier length × `fanout` entries.
    pub neighbors: Vec<NodeId>,
}

/// A sampled mini-batch: the one record of its sampling pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledBatch {
    /// The target nodes.
    pub targets: Vec<NodeId>,
    /// Resolved hops, outermost first.
    pub hops: Vec<HopSample>,
}

impl SampledBatch {
    /// The nodes the next hop expands: the last resolved hop's
    /// neighbors, or the targets before any hop.
    fn frontier(&self) -> &[NodeId] {
        self.hops.last().map_or(&self.targets, |h| &h.neighbors)
    }

    /// The batch's byte trace, by move: hop `k`'s frontier (the targets,
    /// then each hop's neighbors) paired with the degrees the store
    /// answered for it. The last hop's neighbors — the leaves, which no
    /// hop expands — are dropped; nothing is copied.
    pub fn into_trace(self) -> SampleTrace {
        let mut frontier = self.targets;
        let hops = (self.hops.into_iter())
            .map(|hop| TraceHop {
                fanout: hop.fanout,
                nodes: std::mem::replace(&mut frontier, hop.neighbors),
                degrees: hop.degrees,
            })
            .collect();
        SampleTrace { hops }
    }

    /// All distinct nodes in the subgraph (targets + sampled), sorted:
    /// the members of the [`RankSet`] of their ids, so a batch dense in
    /// the id space is a bitmap walk, not a sort.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let sampled = self.hops.iter().flat_map(|hop| &hop.neighbors);
        let set = RankSet::new(sampled.chain(&self.targets).map(|n| u64::from(n.raw())));
        let mut nodes = Vec::with_capacity(set.len());
        nodes.extend(set.iter().map(|id| NodeId::new(id as u32)));
        nodes
    }

    /// Total sampled-ID count (the payload the ISP ships back).
    pub fn num_sampled(&self) -> u64 {
        self.hops.iter().map(|h| h.neighbors.len() as u64).sum()
    }

    /// Size in bytes of the dense sampled-ID list (8 B per entry,
    /// matching the edge-list entry width).
    pub fn subgraph_bytes(&self) -> u64 {
        self.num_sampled() * smartsage_graph::csr::NEIGHBOR_ENTRY_BYTES
    }
}

/// The hop-expansion loop (paper Algorithm 1, applied per hop), for
/// any number of independent requests at once: request `i` samples
/// `targets[i]` with `rngs[i]`.
///
/// Per hop, every request's frontier merges into **one coalesced**
/// `degrees_into` batch; each request then draws `fanout` picks
/// with replacement per non-isolated frontier node from its own RNG, in
/// frontier order; and all drawn picks resolve as **one coalesced**
/// `pick_neighbors_into` batch whose answers are both the hop's sampled
/// neighbors and the next hop's frontier. Hop 0's frontier is the
/// request's targets. Each request keeps the degrees the store answered
/// for its frontier with the hop's neighbors.
///
/// The pick list (16 B a pick) is the largest buffer of a group, so no
/// other per-pick buffer lives beside it but the store's answers: the
/// draws go only into the list, which is dropped once it is answered.
fn expand_hops<'t>(
    topology: &mut dyn TopologyStore,
    targets: impl Iterator<Item = &'t [NodeId]>,
    rngs: &mut [Xoshiro256],
    fanouts: &Fanouts,
) -> Result<Vec<SampledBatch>, StoreError> {
    let mut out: Vec<SampledBatch> = targets
        .map(|targets| SampledBatch {
            targets: targets.to_vec(),
            hops: Vec::with_capacity(fanouts.hops()),
        })
        .collect();
    for &fanout in fanouts.as_slice() {
        let frontiers: Vec<&[NodeId]> = out.iter().map(SampledBatch::frontier).collect();
        let merged = frontiers.concat();
        let mut degrees = vec![0u64; merged.len()];
        topology.degrees_into(&merged, &mut degrees)?;
        let mut picks: Vec<(NodeId, u64)> = Vec::with_capacity(merged.len() * fanout);
        drop(merged);
        let mut answered = degrees.into_iter();
        let degrees: Vec<Vec<u64>> = (frontiers.iter().zip(rngs.iter_mut()))
            .map(|(frontier, rng)| {
                let degrees: Vec<u64> = answered.by_ref().take(frontier.len()).collect();
                for (&node, &degree) in frontier.iter().zip(&degrees) {
                    if degree > 0 {
                        picks.extend((0..fanout).map(|_| (node, rng.range_u64(degree))));
                    }
                }
                degrees
            })
            .collect();
        drop(answered);
        let mut resolved = vec![NodeId::default(); picks.len()];
        topology.pick_neighbors_into(&picks, &mut resolved)?;
        drop(picks);
        let mut answers = resolved.iter();
        for (batch, degrees) in out.iter_mut().zip(degrees) {
            let neighbors = hop_neighbors(batch.frontier(), &degrees, fanout, &mut answers);
            batch.hops.push(HopSample {
                fanout,
                degrees,
                neighbors,
            });
        }
    }
    Ok(out)
}

/// Samples one mini-batch through a [`TopologyStore`] in a single pass
/// (two batched store calls per hop): the one-request case of
/// [`sample_group_on`], for callers that carry a running RNG or sample
/// one batch at a time (the trainer, Fig 5, the examples).
///
/// `rng` is consumed per hop, per frontier node in frontier order,
/// `fanout` draws per non-isolated node — so for the same seed, batches
/// are bit-identical across tiers.
pub fn sample_on(
    topology: &mut dyn TopologyStore,
    targets: &[NodeId],
    fanouts: &Fanouts,
    rng: &mut Xoshiro256,
) -> Result<SampledBatch, StoreError> {
    let rngs = std::slice::from_mut(rng);
    let mut sampled = expand_hops(topology, std::iter::once(targets), rngs, fanouts)?;
    Ok(sampled.pop().expect("one request in, one sample out"))
}

// A batch's trace and the picks its pass forwarded, hop by hop,
// recorded by a `TracingTopology` around `sample_on`. Nothing in the
// workspace's product code names it; it stays while `benchmark/`
// (frozen) spells the plan-then-resolve path.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePlan {
    pub trace: SampleTrace,
    picks: Vec<Vec<(NodeId, u64)>>,
}

impl SamplePlan {
    // Resolves the recorded picks through `topology`, one
    // `pick_neighbors_into` call per hop: the batch `sample_on` returned
    // alongside the plan.
    #[doc(hidden)]
    pub fn resolve_on(&self, topology: &mut dyn TopologyStore) -> Result<SampledBatch, StoreError> {
        let targets = self.trace.hops.first().map_or(&[][..], |h| &h.nodes);
        let mut batch = SampledBatch {
            targets: targets.to_vec(),
            hops: Vec::with_capacity(self.trace.hops.len()),
        };
        for (hop, picks) in self.trace.hops.iter().zip(&self.picks) {
            let mut resolved = vec![NodeId::default(); picks.len()];
            topology.pick_neighbors_into(picks, &mut resolved)?;
            let neighbors =
                hop_neighbors(&hop.nodes, &hop.degrees, hop.fanout, &mut resolved.iter());
            batch.hops.push(HopSample {
                fanout: hop.fanout,
                degrees: hop.degrees.clone(),
                neighbors,
            });
        }
        Ok(batch)
    }
}

// `sample_on` through a `TracingTopology`, keeping the batch's trace
// and the recorded picks: the RNG is consumed exactly as `sample_on`
// consumes it.
#[doc(hidden)]
pub fn plan_sample_on(
    topology: &mut dyn TopologyStore,
    targets: &[NodeId],
    fanouts: &Fanouts,
    rng: &mut Xoshiro256,
) -> Result<SamplePlan, StoreError> {
    let mut tracer = TracingTopology::new(topology);
    let batch = sample_on(&mut tracer, targets, fanouts, rng)?;
    let (_, picks) = tracer.into_parts();
    Ok(SamplePlan {
        trace: batch.into_trace(),
        picks,
    })
}

/// One request of a group [`sample_group_on`] samples together: its
/// targets, borrowed, and the seed of its own position RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec<'a> {
    /// The request's mini-batch target nodes.
    pub targets: &'a [NodeId],
    /// Seed of the request's private position RNG.
    pub seed: u64,
}

/// Samples a group of independent requests through a [`TopologyStore`]
/// in **one coalesced pass per hop** — the one group sampler: serve
/// samples each merged group with it, the offline pass each window of
/// batches. All
/// requests' frontiers merge into a single `degrees_into` batch and a
/// single `pick_neighbors_into` batch, so `2 × hops` store calls sample
/// the whole group, and overlapping neighborhoods share page fetches,
/// cache hits and ISP commands.
///
/// Each request draws its neighbor picks from its own
/// [`Xoshiro256`] seeded with `spec.seed`, consumed in exactly the
/// order [`sample_on`] consumes it — so every returned batch is
/// bit-identical to sampling that request alone:
///
/// ```text
/// sample_group_on(t, specs, f)?[i]
///     == sample_on(t, specs[i].targets, f,
///                  &mut Xoshiro256::seed_from_u64(specs[i].seed))?
/// ```
///
/// Only the store's I/O accounting differs (fewer, larger batched
/// calls); the answers a group is given are the ones its requests
/// would be given alone, so `nodes_gathered` / `feature_bytes` are
/// their sums.
pub fn sample_group_on(
    topology: &mut dyn TopologyStore,
    specs: &[SampleSpec<'_>],
    fanouts: &Fanouts,
) -> Result<Vec<SampledBatch>, StoreError> {
    let mut rngs: Vec<Xoshiro256> = specs
        .iter()
        .map(|s| Xoshiro256::seed_from_u64(s.seed))
        .collect();
    let targets = specs.iter().map(|s| s.targets);
    expand_hops(topology, targets, &mut rngs, fanouts)
}

/// Concatenates independent [`SampledBatch`]es (same hop structure)
/// into one batch whose forward pass computes every request at once:
/// the targets, and each hop's degrees and neighbors, in request order
/// — so the merged batch's trace is its requests' traces concatenated
/// hop by hop.
///
/// Because every [`Matrix`](crate::tensor::Matrix) operation in the
/// model is row-local and `group_mean` groups consecutive fixed-size
/// runs, request boundaries always align with group boundaries — so
/// the merged logits split back into per-request logits that are
/// bit-identical to running each request alone (asserted by
/// `smartsage-serve`'s coalescing tests).
///
/// # Panics
///
/// Panics if the batches' hop counts or fan-outs differ (the caller
/// groups requests by fan-out before merging).
pub fn merge_batches(batches: &[SampledBatch]) -> SampledBatch {
    let (first, rest) = batches.split_first().expect("nothing to merge");
    let fanouts = |b: &SampledBatch| b.hops.iter().map(|h| h.fanout).collect::<Vec<_>>();
    let mut merged = first.clone();
    for b in rest {
        assert_eq!(
            fanouts(b),
            fanouts(first),
            "merge requires identical fan-outs"
        );
        merged.targets.extend_from_slice(&b.targets);
        for (into, hop) in merged.hops.iter_mut().zip(&b.hops) {
            into.degrees.extend_from_slice(&hop.degrees);
            into.neighbors.extend_from_slice(&hop.neighbors);
        }
    }
    merged
}

/// Gathers a group's features as **one** sorted-distinct union of its
/// node lists (a [`RankSet`] of their ids), so a row the lists share
/// crosses the store interface once — the hyperbatch idea both group
/// gathers use: the offline pass reads a window of batches, serve a
/// merged infer group.
///
/// The union is read in `slices` ascending parts
/// `union[len·i/slices .. len·(i+1)/slices]`, one
/// [`FeatureStore::gather_into`] call each, empty parts included (so a
/// window read in one slice per batch still counts one `gathers` per
/// batch). `rows` is resized to each part and holds the last one: at
/// one slice that is the whole union in rank order, so `id`'s row is
/// the returned set's `rank(id)`.
pub fn gather_union<'a>(
    store: &mut dyn FeatureStore,
    lists: impl Iterator<Item = &'a [NodeId]> + Clone,
    slices: usize,
    rows: &mut Vec<f32>,
) -> Result<RankSet, StoreError> {
    let set = RankSet::new(lists.flatten().map(|n| u64::from(n.raw())));
    let union: Vec<NodeId> = set.iter().map(|id| NodeId::new(id as u32)).collect();
    for i in 0..slices {
        let part = &union[union.len() * i / slices..union.len() * (i + 1) / slices];
        rows.resize(part.len() * store.dim(), 0.0);
        store.gather_into(part, rows)?;
    }
    Ok(set)
}

/// Draws `batch_size` target nodes for step `step` of an epoch-long
/// deterministic permutation (sampling without replacement across the
/// epoch, as ML dataloaders do).
pub fn epoch_targets(
    num_nodes: usize,
    batch_size: usize,
    step: usize,
    epoch_seed: u64,
) -> Vec<NodeId> {
    let mut rng = Xoshiro256::seed_from_u64(epoch_seed);
    // A cheap full permutation would cost O(n) per call; instead use a
    // random affine bijection over [0, n): x -> (a*x + b) mod n with
    // gcd(a, n) = 1, which visits every node exactly once per epoch.
    let n = num_nodes as u64;
    let mut a = rng.range(1, n.max(2));
    while gcd(a, n) != 1 {
        a = rng.range(1, n.max(2));
    }
    let b = rng.range_u64(n.max(1));
    let start = (step * batch_size) as u64;
    (0..batch_size as u64)
        .map(|i| {
            let x = (start + i) % n;
            let y = (a.wrapping_mul(x) + b) % n;
            NodeId::new(y as u32)
        })
        .collect()
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
    use smartsage_graph::traversal::k_hop_neighborhood;
    use smartsage_graph::CsrGraph;
    use smartsage_store::CsrView;

    fn sample(g: &CsrGraph, targets: &[NodeId], f: &Fanouts, seed: u64) -> SampledBatch {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        sample_on(&mut CsrView::new(g), targets, f, &mut rng).unwrap()
    }

    /// The doc-hidden plan of the same pass, for the resolve checks.
    fn planned(g: &CsrGraph, targets: &[NodeId], f: &Fanouts, seed: u64) -> SamplePlan {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        plan_sample_on(&mut CsrView::new(g), targets, f, &mut rng).unwrap()
    }

    /// The pass behind the store-side recorder: the batch, and the
    /// picks forwarded at each hop.
    fn traced(
        g: &CsrGraph,
        targets: &[NodeId],
        f: &Fanouts,
        seed: u64,
    ) -> (SampledBatch, Vec<Vec<(NodeId, u64)>>) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut view = CsrView::new(g);
        let mut tracer = TracingTopology::new(&mut view);
        let batch = sample_on(&mut tracer, targets, f, &mut rng).unwrap();
        (batch, tracer.into_parts().1)
    }

    fn graph() -> CsrGraph {
        generate_power_law(&PowerLawConfig {
            nodes: 500,
            avg_degree: 8.0,
            seed: 77,
            ..PowerLawConfig::default()
        })
    }

    #[test]
    fn fanout_arithmetic() {
        let f = Fanouts::paper_default();
        assert_eq!(f.hops(), 2);
        assert_eq!(f.scaled(0.5).as_slice(), &[13, 5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fanout_panics() {
        Fanouts::new(vec![5, 0]);
    }

    #[test]
    fn plan_counts_match_structure() {
        let g = graph();
        let targets: Vec<NodeId> = (0..16u32).map(NodeId::new).collect();
        let f = Fanouts::new(vec![4, 3]);
        let batch = sample(&g, &targets, &f, 1);
        assert_eq!(batch.targets, targets);
        assert_eq!(batch.hops[0].degrees.len(), 16);
        assert_eq!(batch.hops[1].degrees.len(), 16 * 4);
        let trace = batch.into_trace();
        assert_eq!(trace.hops.len(), 2);
        assert_eq!(trace.hops[0].nodes, targets);
        assert_eq!(trace.hops[1].nodes.len(), 16 * 4);
        assert_eq!(trace.num_accesses(), 16 + 64);
        assert_eq!(trace.num_sampled(), 16 * 4 + 64 * 3);
        for hop in &trace.hops {
            let degrees: Vec<u64> = hop.nodes.iter().map(|&n| g.degree(n)).collect();
            assert_eq!(hop.degrees, degrees, "the store's answers are kept");
        }
        // A 4-step walk from 10 roots: one access and one id per step.
        let roots = &targets[..10];
        let walk = sample(&g, roots, &Fanouts::new(vec![1; 4]), 8);
        assert_eq!(walk.targets, roots);
        let walk = walk.into_trace();
        for hop in &walk.hops {
            assert_eq!((hop.fanout, hop.nodes.len()), (1, 10));
        }
        assert_eq!(walk.num_accesses(), 40);
        assert_eq!(walk.num_sampled(), 40);
    }

    #[test]
    fn resolve_is_deterministic_and_consistent() {
        let g = graph();
        let targets: Vec<NodeId> = (0..8u32).map(NodeId::new).collect();
        for (f, seed) in [(Fanouts::new(vec![5, 2]), 9), (Fanouts::new(vec![1; 3]), 2)] {
            let sampled = sample(&g, &targets, &f, seed);
            let plan = planned(&g, &targets, &f, seed);
            assert_eq!(plan.trace, sampled.clone().into_trace());
            let a = plan.resolve_on(&mut CsrView::new(&g)).unwrap();
            let b = plan.resolve_on(&mut CsrView::new(&g)).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, sampled, "the pass's batch is its plan, resolved");
            // Hop k's frontier is exactly hop k-1's flattened neighbors.
            for k in 1..f.hops() {
                assert_eq!(plan.trace.hops[k].nodes, a.hops[k - 1].neighbors);
            }
            assert_eq!(a.num_sampled(), plan.trace.num_sampled());
            assert_eq!(a.subgraph_bytes(), plan.trace.num_sampled() * 8);
        }
    }

    #[test]
    fn sampled_nodes_are_real_neighbors() {
        let g = graph();
        let targets: Vec<NodeId> = (0..8u32).map(NodeId::new).collect();
        // A fan-out tree, and walks: each step moves along a real edge.
        for (f, seed) in [(Fanouts::new(vec![4, 4]), 3), (Fanouts::new(vec![1; 3]), 2)] {
            let batch = sample(&g, &targets, &f, seed);
            let trace = batch.clone().into_trace();
            for (hop, asked) in batch.hops.iter().zip(&trace.hops) {
                for (i, &parent) in asked.nodes.iter().enumerate() {
                    let nbrs = g.neighbors(parent);
                    for k in 0..hop.fanout {
                        let sampled = hop.neighbors[i * hop.fanout + k];
                        assert!(
                            nbrs.contains(&sampled) || (nbrs.is_empty() && sampled == parent),
                            "{sampled} is not a neighbor of {parent}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn subgraph_is_within_k_hops() {
        let g = graph();
        let targets: Vec<NodeId> = (0..4u32).map(NodeId::new).collect();
        let f = Fanouts::new(vec![6, 6]);
        let batch = sample(&g, &targets, &f, 4);
        let hood = k_hop_neighborhood(&g, &targets, 2);
        for n in batch.all_nodes() {
            assert!(hood.contains(&n), "{n} escaped the 2-hop neighborhood");
        }
    }

    #[test]
    fn isolated_nodes_self_loop() {
        let g = CsrGraph::from_edges(3, [(0, 1)]); // node 2 isolated
        let f = Fanouts::new(vec![3]);
        let (batch, picks) = traced(&g, &[NodeId::new(2)], &f, 5);
        assert_eq!(batch.hops[0].degrees, vec![0]);
        assert_eq!(
            picks,
            vec![Vec::new()],
            "an isolated node draws no position"
        );
        assert_eq!(batch.hops[0].neighbors, vec![NodeId::new(2); 3]);
        let plan = planned(&g, &[NodeId::new(2)], &f, 5);
        assert_eq!(plan.resolve_on(&mut CsrView::new(&g)).unwrap(), batch);
        // A walk that reaches the sink stays there: 0 -> 1 -> 1 -> 1.
        let walk = Fanouts::new(vec![1; 3]);
        let batch = sample(&g, &[NodeId::new(0)], &walk, 1);
        for hop in &batch.hops {
            assert_eq!(hop.neighbors, vec![NodeId::new(1)]);
        }
        let plan = planned(&g, &[NodeId::new(0)], &walk, 1);
        assert_eq!(plan.resolve_on(&mut CsrView::new(&g)).unwrap(), batch);
    }

    #[test]
    fn isolated_nodes_inside_a_frontier_are_skipped_by_the_position_cursor() {
        // Nodes 1 and 3 are sinks between connected nodes, in hop 0's
        // frontier and again (reached from 0 and 2) in hop 1's.
        let g = CsrGraph::from_edges(5, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 0)]);
        let targets: Vec<NodeId> = (0..5u32).map(NodeId::new).collect();
        let f = Fanouts::new(vec![3, 2]);
        let (batch, picks) = traced(&g, &targets, &f, 11);
        assert_eq!(batch.hops[0].degrees, vec![2, 0, 2, 0, 1]);
        assert_eq!(picks[0].len(), 3 * 3, "three non-isolated nodes");
        let trace = batch.clone().into_trace();
        for (k, hop) in trace.hops.iter().enumerate() {
            let mut undrawn = &picks[k][..];
            for (i, &node) in hop.nodes.iter().enumerate() {
                let (drawn, rest) = undrawn.split_at(hop.picks(i));
                undrawn = rest;
                assert!(drawn.iter().all(|&(parent, _)| parent == node));
                let resolved = &batch.hops[k].neighbors[i * hop.fanout..][..hop.fanout];
                let want: Vec<NodeId> = if drawn.is_empty() {
                    vec![node; hop.fanout]
                } else {
                    drawn.iter().map(|&(_, p)| g.neighbor(node, p)).collect()
                };
                assert_eq!(resolved, &want[..], "hop {k} access {i}");
            }
            assert!(undrawn.is_empty(), "hop {k} forwarded a stray pick");
        }
        assert!(
            trace.hops[1].degrees.contains(&0),
            "sinks recur mid-frontier"
        );
        let plan = planned(&g, &targets, &f, 11);
        assert_eq!(plan.resolve_on(&mut CsrView::new(&g)).unwrap(), batch);
    }

    #[test]
    fn epoch_targets_form_a_permutation() {
        let n: usize = 97;
        let bs = 10;
        let mut seen: Vec<u32> = Vec::new();
        for step in 0..n.div_ceil(bs) {
            seen.extend(epoch_targets(n, bs, step, 42).iter().map(|t| t.raw()));
        }
        seen.truncate(n);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "epoch must visit each node once");
    }

    #[test]
    fn merged_requests_record_what_solo_passes_record() {
        let g = graph();
        let f = Fanouts::new(vec![4, 3]);
        let targets: Vec<Vec<NodeId>> = (0..3u32)
            .map(|i| (0..5u32).map(|t| NodeId::new(t * 11 + i)).collect())
            .collect();
        let mut rngs: Vec<Xoshiro256> = (0..3).map(|i| Xoshiro256::seed_from_u64(70 + i)).collect();
        let requests = targets.iter().map(Vec::as_slice);
        let merged = expand_hops(&mut CsrView::new(&g), requests, &mut rngs, &f).unwrap();
        for (i, (t, record)) in targets.iter().zip(&merged).enumerate() {
            assert_eq!(record, &sample(&g, t, &f, 70 + i as u64), "request {i}");
        }
    }

    #[test]
    fn sample_many_matches_solo_sampling_bit_for_bit() {
        let g = graph();
        let f = Fanouts::new(vec![4, 3]);
        let targets: Vec<Vec<NodeId>> = (0..5u32)
            .map(|i| (0..6u32).map(|t| NodeId::new(t * 7 + i)).collect())
            .collect();
        let specs: Vec<SampleSpec> = targets
            .iter()
            .zip(1000..)
            .map(|(targets, seed)| SampleSpec { targets, seed })
            .collect();
        let mut group_topo = CsrView::new(&g);
        let group = sample_group_on(&mut group_topo, &specs, &f).unwrap();
        assert_eq!(group.len(), specs.len());
        let mut solo_answers = 0;
        for (spec, sampled) in specs.iter().zip(&group) {
            let mut solo_topo = CsrView::new(&g);
            let mut rng = Xoshiro256::seed_from_u64(spec.seed);
            let solo = sample_on(&mut solo_topo, spec.targets, &f, &mut rng).unwrap();
            assert_eq!(sampled, &solo, "a group must not change batches");
            assert_eq!(solo_topo.stats().gathers, 2 * f.hops() as u64);
            solo_answers += solo_topo.stats().nodes_gathered;
        }
        // The group answers exactly the solo passes' node count through
        // only two batched calls per hop.
        let group_stats = group_topo.stats();
        assert_eq!(group_stats.nodes_gathered, solo_answers);
        assert_eq!(group_stats.gathers, 2 * f.hops() as u64);
    }

    #[test]
    fn group_sampling_handles_isolated_nodes_and_empty_spec_lists() {
        let g = CsrGraph::from_edges(3, [(0, 1)]); // node 2 isolated
        let f = Fanouts::new(vec![2]);
        let specs = [SampleSpec {
            targets: &[NodeId::new(2)],
            seed: 3,
        }];
        let out = sample_group_on(&mut CsrView::new(&g), &specs, &f).unwrap();
        assert_eq!(out[0].hops[0].neighbors, vec![NodeId::new(2); 2]);
        assert!(sample_group_on(&mut CsrView::new(&g), &[], &f)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn merge_batches_concatenates_per_hop() {
        let g = graph();
        let f = Fanouts::new(vec![3, 2]);
        let targets: Vec<[NodeId; 2]> = (0..3u32)
            .map(|i| [NodeId::new(i), NodeId::new(40 + i)])
            .collect();
        let specs: Vec<SampleSpec> = targets
            .iter()
            .zip(0..)
            .map(|(targets, seed)| SampleSpec { targets, seed })
            .collect();
        let batches = sample_group_on(&mut CsrView::new(&g), &specs, &f).unwrap();
        let merged = merge_batches(&batches);
        assert_eq!(merged.targets.len(), 6);
        assert_eq!(merged.hops[0].neighbors.len(), 6 * 3);
        assert_eq!(merged.hops[1].neighbors.len(), 6 * 3 * 2);
        // Request i's rows sit at contiguous offsets in request order.
        assert_eq!(&merged.targets[2..4], &batches[1].targets[..]);
        assert_eq!(
            &merged.hops[1].neighbors[12..24],
            &batches[1].hops[1].neighbors[..]
        );
        // Hop 1 still holds `fanout` neighbors per hop-0 neighbor.
        assert_eq!(
            merged.hops[1].neighbors.len(),
            merged.hops[0].neighbors.len() * merged.hops[1].fanout
        );
    }

    #[test]
    fn a_merged_batch_traces_as_its_requests_concatenated_hop_by_hop() {
        let g = graph();
        for f in [Fanouts::new(vec![3, 2]), Fanouts::new(vec![1; 3])] {
            let targets: Vec<Vec<NodeId>> = (0..4u32)
                .map(|i| (0..3u32).map(|t| NodeId::new(t * 37 + i * 5)).collect())
                .collect();
            let specs: Vec<SampleSpec> = targets
                .iter()
                .zip(20..)
                .map(|(targets, seed)| SampleSpec { targets, seed })
                .collect();
            let batches = sample_group_on(&mut CsrView::new(&g), &specs, &f).unwrap();
            let merged = merge_batches(&batches).into_trace();
            let solo: Vec<SampleTrace> =
                batches.into_iter().map(SampledBatch::into_trace).collect();
            assert_eq!(merged.hops.len(), f.hops());
            for (k, hop) in merged.hops.iter().enumerate() {
                let nodes: Vec<NodeId> =
                    solo.iter().flat_map(|t| t.hops[k].nodes.clone()).collect();
                let degrees: Vec<u64> = solo
                    .iter()
                    .flat_map(|t| t.hops[k].degrees.clone())
                    .collect();
                assert_eq!(hop.nodes, nodes, "hop {k} nodes");
                assert_eq!(hop.degrees, degrees, "hop {k} degrees");
                assert!(solo.iter().all(|t| t.hops[k].fanout == hop.fanout));
                assert_eq!(hop.fanout, f.as_slice()[k], "hop {k} fan-out");
            }
        }
    }

    #[test]
    #[should_panic(expected = "identical fan-outs")]
    fn merge_batches_rejects_mismatched_fanouts() {
        let g = graph();
        let a = sample(&g, &[NodeId::new(1)], &Fanouts::new(vec![2]), 1);
        let b = sample(&g, &[NodeId::new(1)], &Fanouts::new(vec![3]), 1);
        merge_batches(&[a, b]);
    }

    #[test]
    fn all_nodes_is_the_sorted_deduplicated_id_list() {
        // 16 targets and fan-outs 5, 3: 336 ids drawn from a span 40 ×
        // or 40 000 × that — the first a bitmap, the second a sorted
        // list (beyond 64 ×) — near the bottom and the top of the id
        // space; and an empty batch.
        let mut rng = Xoshiro256::seed_from_u64(0xA11);
        let top = u64::from(u32::MAX);
        for (spread, base, targets) in [
            (40u64, 0u64, 16usize),
            (40, top - 40 * 336, 16),
            (40_000, 0, 16),
            (40_000, top - 40_000 * 336, 16),
            (40, 0, 0),
        ] {
            let fanouts = [5usize, 3];
            let mut draw = |n: usize| -> Vec<NodeId> {
                (0..n)
                    .map(|_| NodeId::new((base + rng.range_u64(spread * 336)) as u32))
                    .collect()
            };
            let batch = SampledBatch {
                targets: draw(targets),
                hops: vec![
                    HopSample {
                        fanout: fanouts[0],
                        degrees: vec![1; targets],
                        neighbors: draw(targets * fanouts[0]),
                    },
                    HopSample {
                        fanout: fanouts[1],
                        degrees: vec![1; targets * fanouts[0]],
                        neighbors: draw(targets * fanouts[0] * fanouts[1]),
                    },
                ],
            };
            let mut want = batch.targets.clone();
            for hop in &batch.hops {
                want.extend_from_slice(&hop.neighbors);
            }
            want.sort_unstable();
            want.dedup();
            assert_eq!(batch.all_nodes(), want, "spread {spread} base {base}");
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let g = graph();
        let targets: Vec<NodeId> = (0..8u32).map(NodeId::new).collect();
        let f = Fanouts::paper_default();
        assert_ne!(sample(&g, &targets, &f, 1), sample(&g, &targets, &f, 2));
    }
}
