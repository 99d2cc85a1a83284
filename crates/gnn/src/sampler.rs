//! GraphSAGE neighbor sampling (paper §II-B, Algorithm 1).
//!
//! A mini-batch is sampled in **one pass** through a
//! [`TopologyStore`]: per hop, [`sample_on`] reads the frontier's
//! degrees, draws the **positions** of the sampled neighbors within
//! each node's neighbor list, and resolves those picks to neighbor ids
//! — the way SmartSAGE's ISP builds the subgraph inside the device once
//! (Fig 10(b)). The pass writes what it did once, as flat per-hop arrays:
//!
//! * the [`SamplePlan`] — the [`SampleTrace`] the pass recorded as it
//!   asked the store (each hop's frontier and the degrees the store
//!   answered: the access stream each system's cost policy prices)
//!   plus the positions it drew;
//! * the [`SampledBatch`] — the resolved subgraph training consumes.
//!
//! [`plan_sample_on`] keeps only the plan and [`sample_many_on`] runs
//! many requests through the same loop with their frontiers merged, so
//! there is one hop-expansion implementation and the graph half of the
//! dataset can live in memory ([`CsrView`](smartsage_store::CsrView)),
//! on storage ([`FileTopology`](smartsage_store::FileTopology)) or
//! resolve inside the modeled SSD
//! ([`IspSampleTopology`](smartsage_store::IspSampleTopology)) without
//! the tiers drifting: bit-identical plans and batches are asserted
//! across tiers by `tests/topology_store_conformance.rs`.
//!
//! [`SamplePlan::resolve_on`] re-materializes a batch from a finished
//! plan. GraphSAINT walk plans ([`crate::saint::plan_random_walk`],
//! the same record filled from the in-memory CSR) resolve through it,
//! and the conformance suites use it as the independent reference
//! `sample_on` must equal.
//!
//! The paper's default configuration samples 25 neighbors at the first
//! GNN layer and 10 at the second (§VI-F); mini-batch size is 1024 (§V).

use smartsage_graph::NodeId;
use smartsage_sim::Xoshiro256;
use smartsage_store::{SampleTrace, StoreError, TopologyStore, TraceHop};

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

    /// Total sampled nodes per target (s1 + s1*s2 + ...).
    pub fn sampled_per_target(&self) -> u64 {
        let mut total = 0u64;
        let mut layer = 1u64;
        for &f in &self.0 {
            layer *= f as u64;
            total += layer;
        }
        total
    }
}

/// The complete sampling plan for one mini-batch: what the pass asked
/// the store, what the store answered, and the random choices drawn
/// from those answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePlan {
    /// Per hop, the frontier and its degrees — the byte trace the cost
    /// policies price. Hop 0's frontier is the mini-batch's targets.
    pub trace: SampleTrace,
    /// Per hop, the sampled indices into the frontier nodes' neighbor
    /// lists (with replacement): `fanout` per non-isolated node, in
    /// frontier order. Isolated nodes draw none (the resolver
    /// substitutes self-loops).
    pub positions: Vec<Vec<u64>>,
}

impl SamplePlan {
    /// The mini-batch target nodes.
    pub fn targets(&self) -> &[NodeId] {
        self.trace.hops.first().map_or(&[], |h| &h.nodes)
    }

    /// Hop `k`'s edge-list accesses in frontier order: each node with
    /// the positions drawn from its neighbor list (none when isolated).
    pub fn accesses(&self, k: usize) -> impl Iterator<Item = (NodeId, &[u64])> + '_ {
        let hop = &self.trace.hops[k];
        let mut undrawn = &self.positions[k][..];
        (0..hop.nodes.len()).map(move |i| {
            let (drawn, rest) = undrawn.split_at(hop.picks(i));
            undrawn = rest;
            (hop.nodes[i], drawn)
        })
    }

    /// Re-materializes the sampled neighbor IDs of a finished plan
    /// through a [`TopologyStore`]: each hop's picks are resolved as
    /// **one coalesced batch** (the file tier merges their pages into
    /// contiguous runs, the ISP tier issues one device command per hop).
    /// Positions index into each node's neighbor list; nodes without
    /// neighbors contribute self-loops. The result is deterministic
    /// given the plan and — by the store determinism contract — equal
    /// to the batch [`sample_on`] produced alongside the plan.
    pub fn resolve_on(&self, topology: &mut dyn TopologyStore) -> Result<SampledBatch, StoreError> {
        let mut hops = Vec::with_capacity(self.trace.hops.len());
        for (k, hop) in self.trace.hops.iter().enumerate() {
            let picks: Vec<(NodeId, u64)> = self
                .accesses(k)
                .flat_map(|(node, drawn)| drawn.iter().map(move |&pos| (node, pos)))
                .collect();
            let mut resolved = vec![NodeId::default(); picks.len()];
            topology.pick_neighbors_into(&picks, &mut resolved)?;
            hops.push(HopSample {
                fanout: hop.fanout,
                neighbors: hop_neighbors(hop, &mut resolved.iter()),
            });
        }
        Ok(SampledBatch {
            targets: self.targets().to_vec(),
            hops,
        })
    }
}

/// Reassembles one request's hop in frontier order from the store's
/// pick answers (`resolved` yields one id per drawn position),
/// substituting self-loops for isolated nodes so the tree keeps its
/// shape.
fn hop_neighbors<'a>(
    hop: &TraceHop,
    resolved: &mut impl Iterator<Item = &'a NodeId>,
) -> Vec<NodeId> {
    let mut neighbors = Vec::with_capacity(hop.nodes.len() * hop.fanout);
    for (&node, &degree) in hop.nodes.iter().zip(&hop.degrees) {
        if degree == 0 {
            neighbors.extend(std::iter::repeat_n(node, hop.fanout));
        } else {
            neighbors.extend(resolved.take(hop.fanout).copied());
        }
    }
    neighbors
}

/// One resolved hop: each frontier node's `fanout` sampled neighbors,
/// flattened in frontier order. The frontier is the previous hop's
/// `neighbors` (the batch's targets for hop 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopSample {
    /// Fan-out at this hop.
    pub fanout: usize,
    /// Sampled neighbors; frontier length × `fanout` entries.
    pub neighbors: Vec<NodeId>,
}

/// A resolved mini-batch subgraph.
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

    /// All distinct nodes in the subgraph (targets + sampled), sorted.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.targets.clone();
        for hop in &self.hops {
            nodes.extend_from_slice(&hop.neighbors);
        }
        nodes.sort_unstable();
        nodes.dedup();
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
/// any number of independent requests at once.
///
/// Per hop, every request's frontier merges into **one coalesced**
/// `degrees_into` batch; each request then draws `fanout` positions
/// with replacement per non-isolated frontier node from its own RNG, in
/// frontier order; and all drawn picks resolve as **one coalesced**
/// `pick_neighbors_into` batch whose answers are both the hop's sampled
/// neighbors and the next hop's frontier. Hop 0's frontier is the
/// request's targets. Each request's frontier and the degrees the store
/// answered for it are kept as that hop of the request's trace.
fn expand_hops(
    topology: &mut dyn TopologyStore,
    requests: &mut [(&[NodeId], &mut Xoshiro256)],
    fanouts: &Fanouts,
) -> Result<Vec<(SamplePlan, SampledBatch)>, StoreError> {
    let mut out: Vec<(SamplePlan, SampledBatch)> = requests
        .iter()
        .map(|(targets, _)| {
            (
                SamplePlan {
                    trace: SampleTrace::default(),
                    positions: Vec::with_capacity(fanouts.hops()),
                },
                SampledBatch {
                    targets: targets.to_vec(),
                    hops: Vec::with_capacity(fanouts.hops()),
                },
            )
        })
        .collect();
    for &fanout in fanouts.as_slice() {
        let merged: Vec<NodeId> = out
            .iter()
            .flat_map(|(_, batch)| batch.frontier())
            .copied()
            .collect();
        let mut degrees = vec![0u64; merged.len()];
        topology.degrees_into(&merged, &mut degrees)?;
        let mut picks: Vec<(NodeId, u64)> = Vec::with_capacity(merged.len() * fanout);
        let mut answered = degrees.as_slice();
        for ((plan, batch), (_, rng)) in out.iter_mut().zip(requests.iter_mut()) {
            let nodes = batch.frontier().to_vec();
            let (degrees, rest) = answered.split_at(nodes.len());
            answered = rest;
            let mut positions = Vec::with_capacity(nodes.len() * fanout);
            for (&node, &degree) in nodes.iter().zip(degrees) {
                if degree > 0 {
                    for _ in 0..fanout {
                        let pos = rng.range_u64(degree);
                        positions.push(pos);
                        picks.push((node, pos));
                    }
                }
            }
            plan.positions.push(positions);
            plan.trace.hops.push(TraceHop {
                fanout,
                nodes,
                degrees: degrees.to_vec(),
            });
        }
        let mut resolved = vec![NodeId::default(); picks.len()];
        topology.pick_neighbors_into(&picks, &mut resolved)?;
        let mut resolved = resolved.iter();
        for (plan, batch) in &mut out {
            let hop = &plan.trace.hops[batch.hops.len()];
            batch.hops.push(HopSample {
                fanout,
                neighbors: hop_neighbors(hop, &mut resolved),
            });
        }
    }
    Ok(out)
}

/// Samples one mini-batch through a [`TopologyStore`] in a single pass
/// (two batched store calls per hop), returning the plan and the
/// resolved batch together.
///
/// `rng` is consumed per hop, per frontier node in frontier order,
/// `fanout` draws per non-isolated node — so for the same seed, plans
/// and batches are bit-identical across tiers, and the batch equals
/// [`SamplePlan::resolve_on`] of the plan.
pub fn sample_on(
    topology: &mut dyn TopologyStore,
    targets: &[NodeId],
    fanouts: &Fanouts,
    rng: &mut Xoshiro256,
) -> Result<(SamplePlan, SampledBatch), StoreError> {
    let mut sampled = expand_hops(topology, &mut [(targets, rng)], fanouts)?;
    Ok(sampled.pop().expect("one request in, one sample out"))
}

/// Draws the sampling plan for one mini-batch through a
/// [`TopologyStore`]: [`sample_on`], keeping only the plan.
pub fn plan_sample_on(
    topology: &mut dyn TopologyStore,
    targets: &[NodeId],
    fanouts: &Fanouts,
    rng: &mut Xoshiro256,
) -> Result<SamplePlan, StoreError> {
    sample_on(topology, targets, fanouts, rng).map(|(plan, _)| plan)
}

/// One independent sampling request inside a merged, coalesced pass —
/// the unit `smartsage-serve`'s batcher hands to [`sample_many_on`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSpec {
    /// The request's mini-batch target nodes.
    pub targets: Vec<NodeId>,
    /// Seed of the request's private position RNG.
    pub seed: u64,
}

/// Samples many independent requests through a [`TopologyStore`] in
/// **one coalesced pass per hop**: all requests' frontiers merge into a
/// single `degrees_into` batch and a single `pick_neighbors_into`
/// batch, so overlapping neighborhoods share page fetches, cache hits,
/// and ISP passes.
///
/// Each request draws its neighbor positions from its own
/// [`Xoshiro256`] seeded with `spec.seed`, consumed in exactly the
/// order [`sample_on`] consumes it — so every returned batch is
/// bit-identical to running that request alone:
///
/// ```text
/// sample_many_on(t, specs, f)[i]
///     == sample_on(t, &specs[i].targets, f,
///                  &mut Xoshiro256::seed_from_u64(specs[i].seed))?.1
/// ```
///
/// Only the store's I/O accounting differs (fewer, larger batched
/// operations); `nodes_gathered`/`feature_bytes` totals are unchanged
/// because merging neither adds nor drops answers.
pub fn sample_many_on(
    topology: &mut dyn TopologyStore,
    specs: &[SampleSpec],
    fanouts: &Fanouts,
) -> Result<Vec<SampledBatch>, StoreError> {
    let mut rngs: Vec<Xoshiro256> = specs
        .iter()
        .map(|s| Xoshiro256::seed_from_u64(s.seed))
        .collect();
    let mut requests: Vec<(&[NodeId], &mut Xoshiro256)> = specs
        .iter()
        .zip(&mut rngs)
        .map(|(spec, rng)| (&spec.targets[..], rng))
        .collect();
    let sampled = expand_hops(topology, &mut requests, fanouts)?;
    Ok(sampled.into_iter().map(|(_, batch)| batch).collect())
}

/// Concatenates independent [`SampledBatch`]es (same hop structure)
/// into one batch whose forward pass computes every request at once.
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
    assert!(!batches.is_empty(), "nothing to merge");
    let fanouts: Vec<usize> = batches[0].hops.iter().map(|h| h.fanout).collect();
    for b in batches {
        let got: Vec<usize> = b.hops.iter().map(|h| h.fanout).collect();
        assert_eq!(got, fanouts, "merge requires identical fan-outs");
    }
    let mut merged = SampledBatch {
        targets: Vec::new(),
        hops: fanouts
            .iter()
            .map(|&fanout| HopSample {
                fanout,
                neighbors: Vec::new(),
            })
            .collect(),
    };
    for b in batches {
        merged.targets.extend_from_slice(&b.targets);
        for (into, hop) in merged.hops.iter_mut().zip(&b.hops) {
            into.neighbors.extend_from_slice(&hop.neighbors);
        }
    }
    merged
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

    fn sample(
        g: &CsrGraph,
        targets: &[NodeId],
        f: &Fanouts,
        seed: u64,
    ) -> (SamplePlan, SampledBatch) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        sample_on(&mut CsrView::new(g), targets, f, &mut rng).unwrap()
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
        assert_eq!(f.sampled_per_target(), 25 + 25 * 10);
        assert_eq!(f.scaled(0.5).as_slice(), &[13, 5]);
        assert_eq!(Fanouts::new(vec![3]).sampled_per_target(), 3);
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
        let (plan, _) = sample(&g, &targets, &f, 1);
        assert_eq!(plan.targets(), &targets[..]);
        assert_eq!(plan.trace.hops.len(), 2);
        assert_eq!(plan.accesses(0).count(), 16);
        assert_eq!(plan.accesses(1).count(), 16 * 4);
        assert_eq!(plan.trace.num_accesses(), 16 + 64);
        assert_eq!(plan.trace.num_sampled(), 16 * 4 + 64 * 3);
        for hop in &plan.trace.hops {
            let degrees: Vec<u64> = hop.nodes.iter().map(|&n| g.degree(n)).collect();
            assert_eq!(hop.degrees, degrees, "the store's answers are kept");
        }
    }

    #[test]
    fn resolve_is_deterministic_and_consistent() {
        let g = graph();
        let targets: Vec<NodeId> = (0..8u32).map(NodeId::new).collect();
        let f = Fanouts::new(vec![5, 2]);
        let (plan, sampled) = sample(&g, &targets, &f, 9);
        let a = plan.resolve_on(&mut CsrView::new(&g)).unwrap();
        let b = plan.resolve_on(&mut CsrView::new(&g)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, sampled, "the pass's batch is its plan, resolved");
        // Hop 1's frontier is exactly hop 0's flattened neighbors.
        assert_eq!(plan.trace.hops[1].nodes, a.hops[0].neighbors);
        assert_eq!(a.num_sampled(), plan.trace.num_sampled());
        assert_eq!(a.subgraph_bytes(), plan.trace.num_sampled() * 8);
    }

    #[test]
    fn sampled_nodes_are_real_neighbors() {
        let g = graph();
        let targets: Vec<NodeId> = (0..8u32).map(NodeId::new).collect();
        let f = Fanouts::new(vec![4, 4]);
        let (plan, batch) = sample(&g, &targets, &f, 3);
        for (hop, asked) in batch.hops.iter().zip(&plan.trace.hops) {
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

    #[test]
    fn subgraph_is_within_k_hops() {
        let g = graph();
        let targets: Vec<NodeId> = (0..4u32).map(NodeId::new).collect();
        let f = Fanouts::new(vec![6, 6]);
        let (_, batch) = sample(&g, &targets, &f, 4);
        let hood = k_hop_neighborhood(&g, &targets, 2);
        for n in batch.all_nodes() {
            assert!(hood.contains(&n), "{n} escaped the 2-hop neighborhood");
        }
    }

    #[test]
    fn isolated_nodes_self_loop() {
        let g = CsrGraph::from_edges(3, [(0, 1)]); // node 2 isolated
        let f = Fanouts::new(vec![3]);
        let (plan, batch) = sample(&g, &[NodeId::new(2)], &f, 5);
        assert_eq!(plan.accesses(0).next(), Some((NodeId::new(2), &[][..])));
        assert_eq!(batch.hops[0].neighbors, vec![NodeId::new(2); 3]);
        assert_eq!(plan.resolve_on(&mut CsrView::new(&g)).unwrap(), batch);
    }

    #[test]
    fn isolated_nodes_inside_a_frontier_are_skipped_by_the_position_cursor() {
        // Nodes 1 and 3 are sinks between connected nodes, in hop 0's
        // frontier and again (reached from 0 and 2) in hop 1's.
        let g = CsrGraph::from_edges(5, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 0)]);
        let targets: Vec<NodeId> = (0..5u32).map(NodeId::new).collect();
        let f = Fanouts::new(vec![3, 2]);
        let (plan, batch) = sample(&g, &targets, &f, 11);
        assert_eq!(plan.trace.hops[0].degrees, vec![2, 0, 2, 0, 1]);
        assert_eq!(plan.positions[0].len(), 3 * 3, "three non-isolated nodes");
        for (k, hop) in plan.trace.hops.iter().enumerate() {
            for (i, (node, drawn)) in plan.accesses(k).enumerate() {
                assert_eq!(drawn.len(), hop.picks(i));
                let resolved = &batch.hops[k].neighbors[i * hop.fanout..][..hop.fanout];
                let want: Vec<NodeId> = if drawn.is_empty() {
                    vec![node; hop.fanout]
                } else {
                    drawn.iter().map(|&p| g.neighbor(node, p)).collect()
                };
                assert_eq!(resolved, &want[..], "hop {k} access {i}");
            }
        }
        assert!(
            plan.trace.hops[1].degrees.contains(&0),
            "sinks recur mid-frontier"
        );
        assert_eq!(plan.resolve_on(&mut CsrView::new(&g)).unwrap(), batch);
    }

    #[test]
    fn merged_requests_record_what_solo_passes_record() {
        let g = graph();
        let f = Fanouts::new(vec![4, 3]);
        let targets: Vec<Vec<NodeId>> = (0..3u32)
            .map(|i| (0..5u32).map(|t| NodeId::new(t * 11 + i)).collect())
            .collect();
        let mut rngs: Vec<Xoshiro256> = (0..3).map(|i| Xoshiro256::seed_from_u64(70 + i)).collect();
        let mut requests: Vec<(&[NodeId], &mut Xoshiro256)> =
            targets.iter().map(Vec::as_slice).zip(&mut rngs).collect();
        let merged = expand_hops(&mut CsrView::new(&g), &mut requests, &f).unwrap();
        for (i, (t, record)) in targets.iter().zip(&merged).enumerate() {
            assert_eq!(record, &sample(&g, t, &f, 70 + i as u64), "request {i}");
        }
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
    fn sample_many_matches_solo_sampling_bit_for_bit() {
        let g = graph();
        let f = Fanouts::new(vec![4, 3]);
        let specs: Vec<SampleSpec> = (0..5u64)
            .map(|i| SampleSpec {
                targets: (0..6u32).map(|t| NodeId::new(t * 7 + i as u32)).collect(),
                seed: 1000 + i,
            })
            .collect();
        let mut merged_topo = CsrView::new(&g);
        let merged = sample_many_on(&mut merged_topo, &specs, &f).unwrap();
        assert_eq!(merged.len(), specs.len());
        let mut solo_answers = 0;
        for (spec, batch) in specs.iter().zip(&merged) {
            let mut solo_topo = CsrView::new(&g);
            let mut rng = Xoshiro256::seed_from_u64(spec.seed);
            let (_, solo) = sample_on(&mut solo_topo, &spec.targets, &f, &mut rng).unwrap();
            assert_eq!(batch, &solo, "merged sampling must not change results");
            assert_eq!(solo_topo.stats().gathers, 2 * f.hops() as u64);
            solo_answers += solo_topo.stats().nodes_gathered;
        }
        // Merging answers exactly the solo passes' node count through
        // only two batched ops per hop.
        let merged_stats = merged_topo.stats();
        assert_eq!(merged_stats.nodes_gathered, solo_answers);
        assert_eq!(merged_stats.gathers, 2 * f.hops() as u64);
    }

    #[test]
    fn sample_many_handles_isolated_nodes_and_empty_spec_lists() {
        let g = CsrGraph::from_edges(3, [(0, 1)]); // node 2 isolated
        let f = Fanouts::new(vec![2]);
        let specs = vec![SampleSpec {
            targets: vec![NodeId::new(2)],
            seed: 3,
        }];
        let out = sample_many_on(&mut CsrView::new(&g), &specs, &f).unwrap();
        assert_eq!(out[0].hops[0].neighbors, vec![NodeId::new(2); 2]);
        assert!(sample_many_on(&mut CsrView::new(&g), &[], &f)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn merge_batches_concatenates_per_hop() {
        let g = graph();
        let f = Fanouts::new(vec![3, 2]);
        let specs: Vec<SampleSpec> = (0..3u64)
            .map(|i| SampleSpec {
                targets: vec![NodeId::new(i as u32), NodeId::new(40 + i as u32)],
                seed: i,
            })
            .collect();
        let batches = sample_many_on(&mut CsrView::new(&g), &specs, &f).unwrap();
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
    #[should_panic(expected = "identical fan-outs")]
    fn merge_batches_rejects_mismatched_fanouts() {
        let g = graph();
        let spec = vec![SampleSpec {
            targets: vec![NodeId::new(1)],
            seed: 1,
        }];
        let a = sample_many_on(&mut CsrView::new(&g), &spec, &Fanouts::new(vec![2])).unwrap();
        let b = sample_many_on(&mut CsrView::new(&g), &spec, &Fanouts::new(vec![3])).unwrap();
        merge_batches(&[a[0].clone(), b[0].clone()]);
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let g = graph();
        let targets: Vec<NodeId> = (0..8u32).map(NodeId::new).collect();
        let f = Fanouts::paper_default();
        assert_ne!(sample(&g, &targets, &f, 1), sample(&g, &targets, &f, 2));
    }
}
