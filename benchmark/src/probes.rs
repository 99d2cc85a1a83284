//! Isolated probes for layers the replay cannot time in place: each
//! calls one layer's public functions in a tight loop, on inputs
//! recorded from the workload where the layer's cost depends on them.

use crate::report::WorkloadResult;
use crate::stats::median;
use smartsage_core::context::RunContext;
use smartsage_core::json;
use smartsage_core::pipeline::PipelineConfig;
use smartsage_gnn::sampler::{epoch_targets, plan_sample_on};
use smartsage_gnn::Matrix;
use smartsage_graph::{FeatureTable, NodeId};
use smartsage_hostio::ShardedPageCache;
use smartsage_hostio::{merge_page_runs, LruSet, ReadEngine, ReadRequest, ReadSource};
use smartsage_serve::api::SampleRequest;
use smartsage_sim::Xoshiro256;
use smartsage_store::{
    FeatureStore, InMemoryStore, InMemoryTopology, ShardedFeatureStore, ShardedTopology,
    StoreError, TopologyStore,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const PAGE_BYTES: u64 = 4096;
const CACHE_PAGES: u64 = crate::data::CACHE_PAGES as u64;

/// Median nanoseconds per operation over five rounds of `ops` calls.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|round| {
            let start = Instant::now();
            for i in 0..ops {
                op(round * ops + i);
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&rounds)
}

/// `hostio.lru`, `hostio.page_cache`, `hostio.coalesce`: the hit-path
/// data structures at the pipeline's cache geometry (1024 pages over 8
/// lock stripes), and run merging over the page list of the recorded
/// batch's feature rows.
pub fn cache_probes(result: &mut WorkloadResult, table: &FeatureTable, nodes: &[NodeId]) {
    const OPS: u64 = 200_000;
    let mut lru: LruSet<u64> = LruSet::new(CACHE_PAGES as usize);
    for page in 0..CACHE_PAGES {
        lru.insert(page);
    }
    // A stride coprime with the capacity visits every resident key.
    result.set_value(
        "hostio.lru.touch_ns",
        ns_per_op(OPS, |i| {
            black_box(lru.touch(&((i * 389) % CACHE_PAGES)));
        }),
    );
    result.set_value(
        "hostio.lru.insert_evict_ns",
        ns_per_op(OPS, |i| {
            black_box(lru.insert(CACHE_PAGES + i));
        }),
    );

    let cache = ShardedPageCache::new(CACHE_PAGES as usize, 8);
    let payload: Arc<[u8]> = vec![0u8; PAGE_BYTES as usize].into();
    for page in 0..CACHE_PAGES {
        cache.insert(page, Arc::clone(&payload));
    }
    result.set_value(
        "hostio.page_cache.get_hit_ns",
        ns_per_op(OPS, |i| {
            black_box(cache.get((i * 389) % CACHE_PAGES));
        }),
    );
    result.set_value(
        "hostio.page_cache.insert_ns",
        ns_per_op(OPS, |i| cache.insert(CACHE_PAGES + i, Arc::clone(&payload))),
    );

    let row = table.bytes_per_node();
    let mut pages = Vec::with_capacity(nodes.len() * 2);
    for &node in nodes {
        let offset = table.byte_offset(node);
        pages.extend(offset / PAGE_BYTES..=(offset + row - 1) / PAGE_BYTES);
    }
    let merge_ns = ns_per_op(20, |_| {
        black_box(merge_page_runs(black_box(&pages)));
    });
    result.set_value(
        "hostio.coalesce.merge_ns_per_page",
        merge_ns / pages.len().max(1) as f64,
    );
}

/// `hostio.engine`: submit→wait latency of 1, 8 and 64 random 4 KiB
/// reads of the workload's feature file through the process-wide
/// engine. The file sits in the OS page cache, so this times the
/// engine's queueing and worker hand-off, not a device.
pub fn engine_probe(result: &mut WorkloadResult, feature_file: &Path, seed: u64) {
    let file = match std::fs::File::open(feature_file) {
        Ok(file) => file,
        Err(e) => {
            result.fail(format!(
                "engine probe: open {}: {e}",
                feature_file.display()
            ));
            return;
        }
    };
    let pages = file.metadata().map_or(0, |m| m.len()) / PAGE_BYTES;
    if pages == 0 {
        result.fail(format!("engine probe: {} is empty", feature_file.display()));
        return;
    }
    let source = ReadSource::new(file, feature_file.to_path_buf());
    let engine = ReadEngine::global();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for (width, metric) in [
        (1usize, "hostio.engine.submit_wait_us_1"),
        (8, "hostio.engine.submit_wait_us_8"),
        (64, "hostio.engine.submit_wait_us_64"),
    ] {
        let mut waits_us = Vec::new();
        let mut failed = 0usize;
        for _ in 0..100 {
            let requests: Vec<ReadRequest> = (0..width)
                .map(|_| ReadRequest {
                    source: source.clone(),
                    offset: rng.range_u64(pages) * PAGE_BYTES,
                    len: PAGE_BYTES as usize,
                })
                .collect();
            let start = Instant::now();
            let done = engine.submit(requests).wait();
            waits_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            failed += done.iter().filter(|r| r.is_err()).count();
        }
        result.check(failed == 0, || {
            format!("engine probe: {failed} of {} reads failed", 100 * width)
        });
        let wait = median(&waits_us);
        result.set_value(metric, wait);
        if width == 64 {
            result.set_value(
                "hostio.engine.probe_mb_per_s_64",
                (width as u64 * PAGE_BYTES) as f64 / wait,
            );
        }
    }
}

/// `store.sharded`: what the scatter/merge layer costs with no I/O
/// under it — the workload's first batch (plan, resolve, gather) on the
/// mem tier at `shards` shards over the same batch unsharded.
pub fn sharded_probe(
    result: &mut WorkloadResult,
    ctx: &Arc<RunContext>,
    cfg: &PipelineConfig,
    shards: usize,
) -> Result<(), StoreError> {
    let graph = &ctx.data.graph;
    let nodes = graph.num_nodes();
    let targets = epoch_targets(nodes, cfg.batch_size, 0, cfg.seed);
    let one_batch = |topology: &mut dyn TopologyStore,
                     features: &mut dyn FeatureStore|
     -> Result<f64, StoreError> {
        let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
        let start = Instant::now();
        let plan = plan_sample_on(topology, &targets, &cfg.fanouts, &mut rng)?;
        let batch = plan.resolve_on(topology)?;
        black_box(features.gather(&batch.all_nodes())?);
        Ok(start.elapsed().as_secs_f64())
    };
    let (mut flat_s, mut sharded_s) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        flat_s.push(one_batch(
            &mut InMemoryTopology::from_arc(Arc::clone(graph)),
            &mut InMemoryStore::new(ctx.data.features.clone(), nodes),
        )?);
        sharded_s.push(one_batch(
            &mut ShardedTopology::mem(Arc::clone(graph), shards),
            &mut ShardedFeatureStore::mem(ctx.data.features.clone(), nodes, shards),
        )?);
    }
    result.set_value(
        "store.sharded.mem_overhead_ratio",
        median(&sharded_s) / median(&flat_s),
    );
    Ok(())
}

/// `gnn.tensor`: the dense kernel at the workload's largest matmul
/// shape (hop-1 rows × feature dim × hidden width).
pub fn matmul_probe(result: &mut WorkloadResult, rows: usize, inner: usize, cols: usize) {
    let mut rng = Xoshiro256::seed_from_u64(1);
    let a = Matrix::randn(rows, inner, &mut rng);
    let b = Matrix::randn(inner, cols, &mut rng);
    let flops = 2.0 * (rows * inner * cols) as f64;
    // Enough calls per round that a small shape still runs ~0.1 s.
    let ns = ns_per_op(((1e8 / flops) as u64).clamp(3, 2_000), |_| {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    result.set_value("gnn.tensor.matmul_gflops", flops / ns);
}

/// `core.json`, `serve.api`: parsing the bodies the serve workload
/// actually exchanged.
pub fn json_probes(result: &mut WorkloadResult, requests: &[String], responses: &[String]) {
    let bytes: usize = requests.iter().chain(responses).map(String::len).sum();
    let mut bad = 0usize;
    let parse_ns = ns_per_op(3, |_| {
        for body in requests.iter().chain(responses) {
            bad += usize::from(black_box(json::parse(body)).is_err());
        }
    });
    result.check(bad == 0, || {
        format!("json probe: {bad} recorded bodies did not parse")
    });
    // bytes per ns × 1e3 = MB/s
    result.set_value("core.json.parse_mb_per_s", bytes as f64 / parse_ns * 1e3);
    let api_ns = ns_per_op(3, |_| {
        for body in requests {
            black_box(SampleRequest::parse(body).is_ok());
        }
    });
    result.set_value(
        "serve.api.parse_us",
        api_ns / 1e3 / requests.len().max(1) as f64,
    );
    result.set_value(
        "serve.api.response_bytes",
        responses.iter().map(String::len).sum::<usize>() as f64 / responses.len().max(1) as f64,
    );
}
