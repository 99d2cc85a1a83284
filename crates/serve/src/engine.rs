//! The serving engine: one dataset, one model, one store tier pair,
//! and the merged-execution path the batcher drives.
//!
//! [`Engine::execute`] takes a whole admission-window's worth of
//! requests and runs them as **merged groups**: requests with
//! identical fan-outs sample through one
//! [`sample_many_on`] pass (one degree batch + one
//! pick batch per hop for the whole group), and the group's infer
//! requests share one distinct-node feature gather plus one batched
//! GraphSage forward. Merging is invisible in the responses — every
//! request's sample and logits are bit-identical to running it alone
//! (each request draws from its own seeded RNG, and every matrix op in
//! the model is row-local) — it only changes the I/O accounting, which
//! is the whole point: overlapping neighborhoods share page fetches,
//! cache hits, and ISP passes.

use crate::api::{sample_response, ApiRequest, ServeError};
use smartsage_gnn::model::ModelDims;
use smartsage_gnn::{
    merge_batches, sample_many_on, Fanouts, GraphSageModel, Matrix, SampleSpec, SampledBatch,
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

    /// Per-device feature-store breakdown (at one device, one entry
    /// whose I/O fields equal [`Engine::store_stats`]). The I/O-level
    /// fields sum exactly to the totals.
    pub fn store_shard_stats(&self) -> Vec<StoreStats> {
        self.store.shard_stats()
    }

    /// Per-device topology breakdown, mirroring
    /// [`Engine::store_shard_stats`].
    pub fn topology_shard_stats(&self) -> Vec<StoreStats> {
        self.topology.shard_stats()
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
                    targets: s.nodes.clone(),
                    seed: s.seed,
                }
            })
            .collect();
        let batches = match sample_many_on(self.topology.as_mut(), &specs, fanouts) {
            Ok(batches) => batches,
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
        for (&i, batch) in members.iter().zip(batches) {
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
        match self.infer_merged(&merged) {
            Ok(bodies) => {
                let mut offset = 0;
                for (&i, batch) in infer_members.iter().zip(&infer_batches) {
                    responses[i] = Some(Ok(crate::api::infer_response(
                        &batch.targets,
                        bodies.0[offset..offset + batch.targets.len()]
                            .iter()
                            .cloned(),
                        &bodies.1[offset..offset + batch.targets.len()],
                    )));
                    offset += batch.targets.len();
                }
            }
            Err(e) => {
                for &i in &infer_members {
                    responses[i] = Some(Err(e.clone()));
                }
            }
        }
    }

    /// Runs gather + forward on a merged batch; returns per-target
    /// logit rows and predictions (request-order, so callers split by
    /// target counts).
    fn infer_merged(
        &mut self,
        merged: &SampledBatch,
    ) -> Result<(Vec<Vec<f32>>, Vec<usize>), ServeError> {
        let (x0, x1, x2) = self.gather_distinct(merged)?;
        let cache = self.model.forward(merged, x0, x1, x2);
        let predictions = GraphSageModel::predictions(&cache);
        let logits: Vec<Vec<f32>> = (0..cache.logits.rows())
            .map(|r| cache.logits.row(r).to_vec())
            .collect();
        Ok((logits, predictions))
    }

    /// Gathers the merged batch's three hop matrices through **one**
    /// store gather over the distinct node set — the feature half of
    /// coalescing: a node referenced by five requests crosses the
    /// store interface once. Row values are bit-identical to
    /// [`GraphSageModel::gather_features_from`] by the store
    /// determinism contract.
    fn gather_distinct(
        &mut self,
        batch: &SampledBatch,
    ) -> Result<(Matrix, Matrix, Matrix), ServeError> {
        let dim = self.store.dim();
        let distinct = batch.all_nodes(); // sorted + deduplicated
        let flat = self.store.gather(&distinct)?;
        let fill = |nodes: &[NodeId]| -> Result<Matrix, ServeError> {
            let mut data = Vec::with_capacity(nodes.len() * dim);
            for node in nodes {
                // all_nodes() collects every sampled node, so the
                // search only misses if the sampler broke its own
                // contract — a 500, not a panic.
                let row = distinct.binary_search(node).map_err(|_| {
                    ServeError::Internal(format!(
                        "sampled node {} missing from its distinct set",
                        node.raw()
                    ))
                })?;
                data.extend_from_slice(&flat[row * dim..(row + 1) * dim]);
            }
            Ok(Matrix::from_vec(nodes.len(), dim, data))
        };
        Ok((
            fill(&batch.targets)?,
            fill(&batch.hops[0].neighbors)?,
            fill(&batch.hops[1].neighbors)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SampleRequest;

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
                (engine.store_shard_stats(), engine.store_stats()),
                (engine.topology_shard_stats(), engine.topology_stats()),
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
