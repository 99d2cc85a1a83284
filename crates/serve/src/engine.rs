//! The serving engine: one dataset, one model, one store tier pair,
//! and the merged-execution path the batcher drives.
//!
//! [`Engine::execute`] takes a whole admission-window's worth of
//! requests and runs them as **merged groups**: requests with
//! identical fan-outs sample through one [`sample_group_on`] call (one
//! degree batch + one pick batch per hop for the whole group), and the
//! group's infer requests share one feature gather plus one batched
//! GraphSage forward. Both halves are the offline pipeline's too: it
//! samples each window of `queue_depth` batches as one
//! [`sample_group_on`] group and gathers the window with
//! [`gather_union`], which serve reads in one slice: the group's
//! distinct nodes cross the store interface once, and each sampled
//! node's row is its rank in the union.
//!
//! Merging is invisible in the responses — every request's sample and
//! logits are bit-identical to running it alone (each request draws
//! from its own seeded RNG, and every matrix op in the model is
//! row-local) — it only changes the I/O accounting, which is the whole
//! point: overlapping neighborhoods share page fetches, cache hits, and
//! ISP passes.

use crate::api::{infer_response, sample_response, ApiRequest, ServeError, MAX_REQUEST_NODES};
use smartsage_gnn::model::ModelDims;
use smartsage_gnn::{
    gather_union, merge_batches, sample_group_on, Fanouts, GraphSageModel, Matrix, SampleSpec,
    SampledBatch,
};
use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
use smartsage_graph::{CsrGraph, FeatureTable, NodeId};
use smartsage_sim::Xoshiro256;
use smartsage_store::{
    FeatureStore, FileStoreOptions, StoreError, StoreKind, StoreRegistry, StoreStats, TierSpec,
    TopologyKind, TopologyStore,
};
use std::sync::Arc;

/// The synthetic dataset an engine materializes and publishes to its
/// store tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Graph/feature population size.
    pub nodes: usize,
    /// Power-law average degree.
    pub avg_degree: f64,
    /// Graph generation seed.
    pub graph_seed: u64,
    /// Feature dimension.
    pub feature_dim: usize,
    /// Label/classification classes.
    pub classes: usize,
    /// Feature table seed.
    pub feature_seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            nodes: 4096,
            avg_degree: 12.0,
            graph_seed: 42,
            feature_dim: 32,
            classes: 8,
            feature_seed: 7,
        }
    }
}

/// Everything needed to stand up an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The dataset to materialize.
    pub dataset: DatasetConfig,
    /// Feature-store tier.
    pub store: StoreKind,
    /// Topology-store tier.
    pub topology: TopologyKind,
    /// Default per-request fan-outs (requests may override).
    pub fanouts: Fanouts,
    /// Hidden width of both GraphSage layers.
    pub hidden: usize,
    /// Model weight-initialization seed.
    pub model_seed: u64,
    /// Page size for the file/ISP tiers.
    pub page_bytes: u64,
    /// Page-cache capacity (pages) for the file/ISP tiers. Small
    /// caches put the server in the thrashing regime where coalescing
    /// visibly cuts host bytes.
    pub cache_pages: usize,
    /// Modeled storage devices the dataset is partitioned across
    /// (contiguous node ranges, one per-shard file and cache-budget
    /// slice per device; a request one device owns — every request at
    /// one device — is answered by it in place). Responses are
    /// identical at every shard count; only the I/O accounting gains a
    /// per-shard breakdown.
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dataset: DatasetConfig::default(),
            store: StoreKind::Mem,
            topology: TopologyKind::Mem,
            fanouts: Fanouts::paper_default(),
            hidden: 32,
            model_seed: 1234,
            page_bytes: 4096,
            cache_pages: 1024,
            shards: 1,
        }
    }
}

/// Executor-side service counters, reported by `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Requests executed (not counting typed rejections).
    pub requests: u64,
    /// Of those, `/v1/sample` requests.
    pub sample_requests: u64,
    /// Of those, `/v1/infer` requests.
    pub infer_requests: u64,
    /// Merged sampling passes executed. Coalescing is working exactly
    /// when this stays below `requests`.
    pub merged_batches: u64,
    /// Requests that shared their sampling pass with at least one
    /// other request.
    pub coalesced_requests: u64,
}

/// One dataset + model + store tier pair, executing merged request
/// groups. Owned by the batcher's executor; `GET /stats` readers take
/// the same lock between batches.
pub struct Engine {
    store: Box<dyn FeatureStore + Send>,
    topology: Box<dyn TopologyStore + Send>,
    model: GraphSageModel,
    config: EngineConfig,
    counters: EngineCounters,
}

impl Engine {
    /// Materializes the dataset and serves it ([`Engine::with_dataset`]).
    pub fn new(config: EngineConfig) -> Result<Engine, StoreError> {
        let d = &config.dataset;
        let graph = generate_power_law(&PowerLawConfig {
            nodes: d.nodes,
            avg_degree: d.avg_degree,
            seed: d.graph_seed,
            ..PowerLawConfig::default()
        });
        let table = FeatureTable::new(d.feature_dim, d.classes, d.feature_seed);
        Engine::with_dataset(config, Arc::new(graph), table)
    }

    /// Publishes `graph` and the first `config.dataset.nodes` rows of
    /// `table` to the configured tiers through a private
    /// [`StoreRegistry`] (cold caches per engine) and initializes the
    /// model. Store failures — including a graph whose population
    /// disagrees with the feature rows on file-backed tiers — come back
    /// typed, before the engine serves anything.
    pub fn with_dataset(
        config: EngineConfig,
        graph: Arc<CsrGraph>,
        table: FeatureTable,
    ) -> Result<Engine, StoreError> {
        let d = &config.dataset;
        let spec = TierSpec {
            store: config.store,
            topology: config.topology,
            shards: config.shards,
            file: FileStoreOptions {
                page_bytes: config.page_bytes,
                cache_pages: config.cache_pages,
            },
        };
        let tiers = StoreRegistry::new().open_tiers(&graph, &table, d.nodes, &spec)?;
        let dims = ModelDims {
            features: d.feature_dim,
            hidden1: config.hidden,
            hidden2: config.hidden,
            classes: d.classes,
        };
        let model = GraphSageModel::new(dims, &mut Xoshiro256::seed_from_u64(config.model_seed));
        Ok(Engine {
            store: tiers.features,
            topology: tiers.topology,
            model,
            config,
            counters: EngineCounters::default(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Nodes in the served population.
    pub fn num_nodes(&self) -> usize {
        self.config.dataset.nodes
    }

    /// Service counters so far.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Feature-store I/O counters (scoped to this engine's handle).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Topology-store I/O counters (scoped to this engine's handle).
    pub fn topology_stats(&self) -> StoreStats {
        self.topology.stats()
    }

    /// Executes one admission window of requests and returns one
    /// response (or typed error) per request, in request order.
    ///
    /// Requests are grouped by effective fan-outs; each group samples
    /// as one merged pass, and its infer subset shares one distinct-node
    /// gather + one batched forward. Per-request validation failures
    /// (out-of-range ids, wrong hop count for infer) never poison the
    /// rest of the window.
    pub fn execute(&mut self, requests: &[ApiRequest]) -> Vec<Result<String, ServeError>> {
        let mut responses: Vec<Option<Result<String, ServeError>>> =
            requests.iter().map(|_| None).collect();
        // Validate every request up front; group the valid ones by
        // effective fan-outs (first-seen order).
        let mut groups: Vec<(Fanouts, Vec<usize>)> = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            match self.validate(request) {
                Err(e) => responses[i] = Some(Err(e)),
                Ok(fanouts) => match groups.iter_mut().find(|(f, _)| *f == fanouts) {
                    Some((_, members)) => members.push(i),
                    None => groups.push((fanouts, vec![i])),
                },
            }
        }
        for (fanouts, members) in &groups {
            self.execute_group(requests, fanouts, members, &mut responses);
        }
        self.counters.requests += requests.len() as u64;
        for request in requests {
            match request {
                ApiRequest::Sample(_) => self.counters.sample_requests += 1,
                ApiRequest::Infer(_) => self.counters.infer_requests += 1,
            }
        }
        responses
            .into_iter()
            .map(|r| {
                // Every index is filled by validate() or its group; a
                // gap is an engine bug, reported as a 500 rather than
                // a dead worker.
                r.unwrap_or_else(|| {
                    Err(ServeError::Internal(
                        "request fell through the execution window".to_string(),
                    ))
                })
            })
            .collect()
    }

    fn validate(&self, request: &ApiRequest) -> Result<Fanouts, ServeError> {
        let sample = request.sample();
        for node in &sample.nodes {
            if node.index() >= self.num_nodes() {
                return Err(ServeError::NodeOutOfRange {
                    node: node.raw(),
                    num_nodes: self.num_nodes(),
                });
            }
        }
        let fanouts = sample
            .fanouts
            .clone()
            .unwrap_or_else(|| self.config.fanouts.clone());
        if matches!(request, ApiRequest::Infer(_)) && fanouts.hops() != 2 {
            return Err(ServeError::BadRequest(format!(
                "infer requires exactly 2 hops (the model is depth-2), got {}",
                fanouts.hops()
            )));
        }
        // Hop expansion sizes its buffers by the tree: one request must
        // not be able to ask for more than a full-size request at the
        // paper's fan-outs.
        let tree = sample_tree(sample.nodes.len(), &fanouts);
        let limit = sample_tree(MAX_REQUEST_NODES, &Fanouts::paper_default());
        if tree > limit {
            return Err(ServeError::BadRequest(format!(
                "{} targets at fan-outs {:?} sample {tree} nodes; the per-request limit is \
                 {limit} ({MAX_REQUEST_NODES} targets at the paper's fan-outs)",
                sample.nodes.len(),
                fanouts.as_slice()
            )));
        }
        Ok(fanouts)
    }

    fn execute_group(
        &mut self,
        requests: &[ApiRequest],
        fanouts: &Fanouts,
        members: &[usize],
        responses: &mut [Option<Result<String, ServeError>>],
    ) {
        let specs: Vec<SampleSpec> = members
            .iter()
            .map(|&i| {
                let s = requests[i].sample();
                SampleSpec {
                    targets: &s.nodes,
                    seed: s.seed,
                }
            })
            .collect();
        let sampled = match sample_group_on(self.topology.as_mut(), &specs, fanouts) {
            Ok(sampled) => sampled,
            Err(e) => {
                // An I/O failure fails the whole merged pass; every
                // member gets the same typed error.
                let msg = e.to_string();
                for &i in members {
                    responses[i] = Some(Err(ServeError::Internal(msg.clone())));
                }
                return;
            }
        };
        self.counters.merged_batches += 1;
        if members.len() > 1 {
            self.counters.coalesced_requests += members.len() as u64;
        }
        let mut infer_members: Vec<usize> = Vec::new();
        let mut infer_batches: Vec<SampledBatch> = Vec::new();
        for (&i, batch) in members.iter().zip(sampled) {
            match &requests[i] {
                ApiRequest::Sample(_) => responses[i] = Some(Ok(sample_response(&batch))),
                ApiRequest::Infer(_) => {
                    infer_members.push(i);
                    infer_batches.push(batch);
                }
            }
        }
        if infer_members.is_empty() {
            return;
        }
        let merged = merge_batches(&infer_batches);
        // One store gather over the group's distinct nodes: a node five
        // requests reference crosses the store interface once, and its
        // row is its rank in the union.
        let hops = merged.hops.iter().map(|hop| &hop.neighbors[..]);
        let lists = std::iter::once(&merged.targets[..]).chain(hops);
        let mut rows = Vec::new();
        let set = match gather_union(self.store.as_mut(), lists, 1, &mut rows) {
            Ok(set) => set,
            Err(e) => {
                let e = ServeError::from(e);
                for &i in &infer_members {
                    responses[i] = Some(Err(e.clone()));
                }
                return;
            }
        };
        let dim = self.store.dim();
        let fill = |nodes: &[NodeId]| {
            let mut data = Vec::with_capacity(nodes.len() * dim);
            for node in nodes {
                let row = set.rank(u64::from(node.raw()));
                data.extend_from_slice(&rows[row * dim..(row + 1) * dim]);
            }
            Matrix::from_vec(nodes.len(), dim, data)
        };
        let cache = self.model.forward(
            &merged,
            fill(&merged.targets),
            fill(&merged.hops[0].neighbors),
            fill(&merged.hops[1].neighbors),
        );
        let predictions = GraphSageModel::predictions(&cache);
        let mut offset = 0;
        for (&i, batch) in infer_members.iter().zip(&infer_batches) {
            let own = offset..offset + batch.targets.len();
            responses[i] = Some(Ok(infer_response(
                &batch.targets,
                own.clone().map(|r| cache.logits.row(r)),
                &predictions[own],
            )));
            offset += batch.targets.len();
        }
    }
}

/// Nodes a request of `targets` targets samples at `fanouts`:
/// `targets × Σₖ Πⱼ≤ₖ fanoutⱼ`, saturating.
fn sample_tree(targets: usize, fanouts: &Fanouts) -> u64 {
    fanouts
        .as_slice()
        .iter()
        .scan(targets as u64, |width, &f| {
            *width = width.saturating_mul(f as u64);
            Some(*width)
        })
        .fold(0, u64::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SampleRequest;
    use smartsage_gnn::sampler::sample_on;

    fn tiny_config() -> EngineConfig {
        EngineConfig {
            dataset: DatasetConfig {
                nodes: 300,
                avg_degree: 8.0,
                feature_dim: 8,
                classes: 4,
                ..DatasetConfig::default()
            },
            fanouts: Fanouts::new(vec![3, 2]),
            hidden: 8,
            ..EngineConfig::default()
        }
    }

    fn request(verb: &str, nodes: &[u32], seed: u64) -> ApiRequest {
        let body = format!(
            "{{\"nodes\":[{}],\"seed\":{seed}}}",
            nodes
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let parsed = SampleRequest::parse(&body).unwrap();
        if verb == "infer" {
            ApiRequest::Infer(parsed)
        } else {
            ApiRequest::Sample(parsed)
        }
    }

    #[test]
    fn merged_execution_is_bit_identical_to_serial_with_exact_stats() {
        let requests = vec![
            request("sample", &[1, 2, 3], 11),
            request("infer", &[4, 5], 22),
            request("infer", &[2, 6, 7, 8], 33),
            request("sample", &[9], 44),
        ];
        // One engine executes the whole window as one merged group...
        let mut merged = Engine::new(tiny_config()).unwrap();
        let merged_responses = merged.execute(&requests);
        // ...a twin engine executes the same requests one at a time.
        let mut serial = Engine::new(tiny_config()).unwrap();
        let serial_responses: Vec<_> = requests
            .iter()
            .map(|r| serial.execute(std::slice::from_ref(r)).remove(0))
            .collect();
        for (m, s) in merged_responses.iter().zip(&serial_responses) {
            assert_eq!(m.as_ref().unwrap(), s.as_ref().unwrap());
        }
        // Exact accounting: one merged pass vs four, same topology
        // answer totals (sampling merges neither add nor drop reads).
        assert_eq!(merged.counters().merged_batches, 1);
        assert_eq!(merged.counters().coalesced_requests, 4);
        assert_eq!(serial.counters().merged_batches, 4);
        assert_eq!(serial.counters().coalesced_requests, 0);
        assert_eq!(
            merged.topology_stats().nodes_gathered,
            serial.topology_stats().nodes_gathered
        );
        // One sampling pass per execute: a degree read and a pick batch
        // per hop, whether it served four requests or one.
        assert_eq!(merged.topology_stats().gathers, 2 * 2);
        assert_eq!(serial.topology_stats().gathers, 4 * 2 * 2);
        // The feature half dedups across the group: never more nodes
        // than serial, and both ship 4 bytes x dim per gathered node.
        let (ms, ss) = (merged.store_stats(), serial.store_stats());
        assert!(ms.nodes_gathered <= ss.nodes_gathered, "{ms:?} vs {ss:?}");
        assert_eq!(ms.feature_bytes, ms.nodes_gathered * 8 * 4);
        assert_eq!(ss.feature_bytes, ss.nodes_gathered * 8 * 4);
        assert_eq!(merged.counters().requests, 4);
        assert_eq!(merged.counters().infer_requests, 2);
        assert_eq!(merged.counters().sample_requests, 2);
    }

    #[test]
    fn merged_infers_equal_the_per_hop_reference_on_dense_and_sparse_unions() {
        // Two groups in one window. At fan-outs [1, 1], targets 0 and
        // 1999 list 6 ids over a 2000-id span (more than 64 x 6): the
        // union's set is sparse. At the default fan-outs the group lists
        // far more ids than 2000 / 64: the set is dense.
        let config = EngineConfig {
            dataset: DatasetConfig {
                nodes: 2000,
                feature_dim: 8,
                classes: 4,
                ..DatasetConfig::default()
            },
            hidden: 8,
            ..EngineConfig::default()
        };
        let parse = |body: &str| ApiRequest::Infer(SampleRequest::parse(body).unwrap());
        let requests = [
            parse(r#"{"nodes":[0],"fanouts":[1,1],"seed":3}"#),
            parse(r#"{"nodes":[5,9,1200],"seed":4}"#),
            parse(r#"{"nodes":[1999],"fanouts":[1,1],"seed":5}"#),
            parse(r#"{"nodes":[9,17],"seed":6}"#),
        ];
        // The reference: each request's own batch, gathered per hop and
        // run through one forward on a fresh mem engine.
        let mut solo = Engine::new(config.clone()).unwrap();
        // Per group (sparse, dense): ids listed, repeats included, and
        // their span, which decide the shape of the group's set.
        let mut listed = [(0usize, u32::MAX, 0u32); 2];
        let want: Vec<String> = requests
            .iter()
            .map(|request| {
                let s = request.sample();
                let fanouts = solo.validate(request).unwrap();
                let mut rng = Xoshiro256::seed_from_u64(s.seed);
                let topology = solo.topology.as_mut();
                let batch = sample_on(topology, &s.nodes, &fanouts, &mut rng).unwrap();
                let group = &mut listed[usize::from(fanouts == config.fanouts)];
                let hops = batch.hops.iter().flat_map(|hop| &hop.neighbors);
                for node in batch.targets.iter().chain(hops) {
                    *group = (
                        group.0 + 1,
                        group.1.min(node.raw()),
                        group.2.max(node.raw()),
                    );
                }
                let model = &solo.model;
                let (x0, x1, x2) = model
                    .gather_features_from(&batch, solo.store.as_mut())
                    .unwrap();
                let cache = model.forward(&batch, x0, x1, x2);
                let logits = (0..batch.targets.len()).map(|r| cache.logits.row(r));
                infer_response(&batch.targets, logits, &GraphSageModel::predictions(&cache))
            })
            .collect();
        let [(sparse, lo, hi), (dense, dlo, dhi)] = listed;
        assert!(
            u64::from(hi - lo) / 64 >= sparse as u64,
            "{sparse} ids over {lo}..={hi}"
        );
        assert!(
            u64::from(dhi - dlo) / 64 < dense as u64,
            "{dense} ids over {dlo}..={dhi}"
        );
        for (store, topology) in [
            (StoreKind::Mem, TopologyKind::Mem),
            (StoreKind::File, TopologyKind::File),
            (StoreKind::Isp, TopologyKind::Isp),
        ] {
            let mut engine = Engine::new(EngineConfig {
                store,
                topology,
                ..config.clone()
            })
            .unwrap();
            let got: Vec<String> = engine
                .execute(&requests)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, want, "{store:?}/{topology:?}");
            assert_eq!(engine.counters().merged_batches, 2);
            // One union gather per group.
            assert_eq!(engine.store_stats().gathers, 2);
        }
    }

    #[test]
    fn responses_are_identical_across_store_tiers() {
        let requests = vec![
            request("infer", &[1, 2, 3], 5),
            request("sample", &[4, 5, 6], 6),
        ];
        let run = |store, topology| {
            let mut engine = Engine::new(EngineConfig {
                store,
                topology,
                ..tiny_config()
            })
            .unwrap();
            engine
                .execute(&requests)
                .into_iter()
                .map(|r| r.unwrap())
                .collect::<Vec<_>>()
        };
        let want = run(StoreKind::Mem, TopologyKind::Mem);
        assert_eq!(run(StoreKind::File, TopologyKind::File), want);
        assert_eq!(run(StoreKind::Isp, TopologyKind::Isp), want);
    }

    #[test]
    fn responses_are_identical_across_shard_counts_with_exact_breakdowns() {
        let requests = vec![
            request("infer", &[1, 2, 3], 5),
            request("sample", &[4, 5, 299], 6),
        ];
        let run = |store, topology, shards| {
            let mut engine = Engine::new(EngineConfig {
                store,
                topology,
                shards,
                ..tiny_config()
            })
            .unwrap();
            let responses = engine
                .execute(&requests)
                .into_iter()
                .map(|r| r.unwrap())
                .collect::<Vec<_>>();
            (responses, engine)
        };
        let (want, _) = run(StoreKind::Mem, TopologyKind::Mem, 1);
        for (store, topology) in [
            (StoreKind::Mem, TopologyKind::Mem),
            (StoreKind::File, TopologyKind::File),
            (StoreKind::Isp, TopologyKind::Isp),
        ] {
            let (got, engine) = run(store, topology, 3);
            assert_eq!(got, want, "{store:?}/{topology:?} diverged under shards");
            // The per-device breakdown is exact: I/O-level fields sum
            // to the engine totals.
            for (per_shard, total) in [
                (engine.store.shard_stats(), engine.store_stats()),
                (engine.topology.shard_stats(), engine.topology_stats()),
            ] {
                assert_eq!(per_shard.len(), 3);
                assert_eq!(
                    per_shard.iter().map(|s| s.nodes_gathered).sum::<u64>(),
                    total.nodes_gathered
                );
                assert_eq!(
                    per_shard.iter().map(|s| s.bytes_read).sum::<u64>(),
                    total.bytes_read
                );
                assert_eq!(
                    per_shard
                        .iter()
                        .map(|s| s.host_bytes_transferred)
                        .sum::<u64>(),
                    total.host_bytes_transferred
                );
            }
        }
    }

    #[test]
    fn out_of_range_node_is_a_422_naming_the_id_without_poisoning_the_window() {
        let mut engine = Engine::new(tiny_config()).unwrap();
        let requests = vec![request("sample", &[1], 1), request("infer", &[7777], 2)];
        let responses = engine.execute(&requests);
        assert!(responses[0].is_ok());
        let err = responses[1].as_ref().unwrap_err();
        assert_eq!(err.status(), 422);
        assert!(err.to_string().contains("7777"), "{err}");
        assert!(err.to_string().contains("300"), "{err}");
    }

    #[test]
    fn infer_with_non_depth2_fanouts_is_a_400() {
        let mut engine = Engine::new(tiny_config()).unwrap();
        let parsed = SampleRequest::parse(r#"{"nodes":[1],"fanouts":[3]}"#).unwrap();
        let responses = engine.execute(&[ApiRequest::Infer(parsed)]);
        let err = responses[0].as_ref().unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.to_string().contains("depth-2"), "{err}");
    }

    #[test]
    fn mixed_fanouts_split_into_separate_merged_groups() {
        let mut engine = Engine::new(tiny_config()).unwrap();
        let a = SampleRequest::parse(r#"{"nodes":[1],"fanouts":[2,2]}"#).unwrap();
        let b = SampleRequest::parse(r#"{"nodes":[2],"fanouts":[3,3]}"#).unwrap();
        let c = SampleRequest::parse(r#"{"nodes":[3],"fanouts":[2,2]}"#).unwrap();
        let responses = engine.execute(&[
            ApiRequest::Sample(a),
            ApiRequest::Sample(b),
            ApiRequest::Sample(c),
        ]);
        assert!(responses.iter().all(Result::is_ok));
        assert_eq!(engine.counters().merged_batches, 2);
        assert_eq!(engine.counters().coalesced_requests, 2); // a + c
    }
}
