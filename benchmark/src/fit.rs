//! `fit_mem`: functional GraphSAGE training steps over the in-memory
//! tiers — no I/O anywhere, so the sampler and the tensor kernels do
//! the work.

use crate::data::{self, Fnv, Shape, BATCH_SIZE, CLASSES};
use crate::probes;
use crate::report::{RunOpts, WorkloadResult};
use crate::stats::{self, Summary};
use crate::sweep::{another_pair_fits, another_repeat, trace_overhead_pct, write_trace};
use crate::trace::{
    self, layer_times, per_item_ms, self_ns, total_ns, Layers, Recorder, Span, TracedFeatures,
    TracedTopology,
};
use smartsage_gnn::gpu::BatchDims;
use smartsage_gnn::model::ModelDims;
use smartsage_gnn::sampler::{epoch_targets, plan_sample_on};
use smartsage_gnn::trainer::{TrainConfig, Trainer};
use smartsage_gnn::{Fanouts, GraphSageModel};
use smartsage_graph::datasets::MaterializedDataset;
use smartsage_sim::Xoshiro256;
use smartsage_store::{
    FeatureStore, InMemoryStore, InMemoryTopology, StoreError, StoreStats, TopologyStore,
};
use std::sync::Arc;
use std::time::Instant;

const HIDDEN: usize = 64;
/// Steps per timed slice: short enough (~0.35 s) that some slice of a
/// pass falls between the sandbox's slow spells.
const SLICE: usize = 6;
const LEARNING_RATE: f32 = 0.05;

fn steps(quick: bool) -> usize {
    if quick {
        6
    } else {
        36
    }
}

fn dims() -> ModelDims {
    ModelDims {
        features: Shape::Wide.feature_dim(),
        hidden1: HIDDEN,
        hidden2: HIDDEN,
        classes: CLASSES,
    }
}

fn mem_tiers(data: &MaterializedDataset) -> (InMemoryTopology, InMemoryStore) {
    (
        InMemoryTopology::from_arc(Arc::clone(&data.graph)),
        InMemoryStore::new(data.features.clone(), data.graph.num_nodes()),
    )
}

/// One repeat through the real trainer: a fresh model from the seed,
/// then `steps` calls of `Trainer::train_step_via`.
struct Fit {
    wall_s: f64,
    step_ms: Vec<f64>,
    losses: Vec<u32>,
    payload_bytes: u64,
    io: StoreStats,
}

fn fit(data: &MaterializedDataset, seed: u64, steps: usize) -> Result<Fit, StoreError> {
    let (mut topology, mut store) = mem_tiers(data);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let config = TrainConfig {
        batch_size: BATCH_SIZE,
        fanouts: Fanouts::paper_default(),
        learning_rate: LEARNING_RATE,
    };
    let mut trainer = Trainer::new(dims(), config, &mut rng);
    let nodes = data.graph.num_nodes();
    let mut step_ms = Vec::with_capacity(steps);
    let mut losses = Vec::with_capacity(steps);
    let start = Instant::now();
    for step in 0..steps {
        let begun = Instant::now();
        let targets = epoch_targets(nodes, BATCH_SIZE, step, seed);
        let loss = trainer.train_step_via(&mut topology, &mut store, &targets, &mut rng)?;
        step_ms.push(begun.elapsed().as_secs_f64() * 1e3);
        losses.push(loss.to_bits());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut io = store.stats();
    io.accumulate(&topology.stats());
    Ok(Fit {
        wall_s,
        step_ms,
        losses,
        payload_bytes: io.feature_bytes,
        io,
    })
}

fn loss_hash(losses: &[u32]) -> String {
    let mut h = Fnv::default();
    for bits in losses {
        h.write(&bits.to_le_bytes());
    }
    format!("{:016x}", h.finish())
}

/// The untraced pass.
pub fn run_end_to_end(opts: &RunOpts) -> Result<WorkloadResult, StoreError> {
    let mut result = WorkloadResult::new(opts);
    let steps = steps(opts.quick);
    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..data::setups(opts.quick) {
        drop(data.take());
        let t = Instant::now();
        let dataset = data::materialize(Shape::Wide, opts.seed, opts.quick);
        drop(mem_tiers(&dataset));
        setup_s.push(t.elapsed().as_secs_f64());
        data = Some(dataset);
    }
    let data = data.expect("at least one set-up ran");

    // The warm-up's loss trajectory is the expected output: training is
    // a pure function of the seed, so every repeat must reproduce it
    // bit for bit.
    let warm = fit(&data, opts.seed, steps)?;
    let mut expected = warm.losses.clone();
    if opts.corrupt_expected {
        expected[0] ^= 1;
    }
    result.check(
        warm.losses.iter().all(|&l| f32::from_bits(l).is_finite()),
        || "a training loss is not finite".to_string(),
    );
    let (mut per_s, mut p50, mut payload_mb) = (Vec::new(), Vec::new(), Vec::new());
    let measuring = Instant::now();
    while another_repeat(opts, &measuring, payload_mb.len()) {
        let run = fit(&data, opts.seed, steps)?;
        result.attempted += steps as u64;
        if run.losses != expected {
            result.failed += steps as u64;
            result.fail(format!(
                "loss trajectory {} differs from the first pass's {}",
                loss_hash(&run.losses),
                loss_hash(&expected)
            ));
        }
        eprintln!("sagebench: fit_mem repeat: {:.3} s", run.wall_s);
        for slice in run.step_ms.chunks_exact(SLICE.min(steps)) {
            per_s.push(slice.len() as f64 * 1e3 / slice.iter().sum::<f64>());
            p50.push(stats::median(slice));
        }
        payload_mb.push(run.payload_bytes as f64 / 1e6 / steps as f64);
    }
    result.set("items_per_s", Summary::best_of(&per_s, true));
    result.set("latency_p50_ms", Summary::best_of(&p50, false));
    result.set("host_mb_per_item", Summary::of(&payload_mb));
    result.set("setup_s", Summary::of(&setup_s));
    result.set_value("peak_rss_mb", data::peak_rss_mb());
    result.set_exact("loss_hash", loss_hash(&warm.losses));
    result.set_exact("payload_bytes", warm.payload_bytes);
    Ok(result)
}

/// One replay of the training steps through the model's public
/// functions, a span per call.
struct Replay {
    wall_s: f64,
    losses: Vec<u32>,
    sampled_nodes: u64,
    rows_gathered: u64,
    flops: f64,
    spans: Vec<Span>,
}

fn replay(
    data: &MaterializedDataset,
    seed: u64,
    steps: usize,
    rec: &Recorder,
) -> Result<Replay, StoreError> {
    let (topology, store) = mem_tiers(data);
    let mut topology = TracedTopology::new(Box::new(topology), rec.clone());
    let mut store = TracedFeatures::new(Box::new(store), rec.clone());
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut model = GraphSageModel::new(dims(), &mut rng);
    let fanouts = Fanouts::paper_default();
    let nodes = data.graph.num_nodes();
    let mut out = Replay {
        wall_s: 0.0,
        losses: Vec::with_capacity(steps),
        sampled_nodes: 0,
        rows_gathered: 0,
        flops: 0.0,
        spans: Vec::new(),
    };
    let start = Instant::now();
    for step in 0..steps {
        rec.set_batch(step as u64);
        rec.span("bench.step", || -> Result<(), StoreError> {
            let targets = rec.span("gnn.sampler.epoch_targets", || {
                epoch_targets(nodes, BATCH_SIZE, step, seed)
            });
            let plan = rec.span("gnn.sampler.plan", || {
                plan_sample_on(&mut topology, &targets, &fanouts, &mut rng)
            })?;
            let batch = rec.span("gnn.sampler.resolve", || plan.resolve_on(&mut topology))?;
            let (x0, x1, x2) = rec.span("gnn.model.gather_features", || {
                model.gather_features_from(&batch, &mut store)
            })?;
            out.rows_gathered += (x0.rows() + x1.rows() + x2.rows()) as u64;
            let cache = rec.span("gnn.model.forward", || model.forward(&batch, x0, x1, x2));
            let labels: Vec<usize> = batch.targets.iter().map(|&t| store.label(t)).collect();
            let (loss, grads) = rec.span("gnn.model.backward", || {
                model.loss_and_gradients(&cache, &labels)
            });
            rec.span("gnn.model.apply", || {
                model.apply_gradients(&grads, LEARNING_RATE)
            });
            out.losses.push(loss.to_bits());
            out.sampled_nodes += batch.num_sampled();
            let d = dims();
            out.flops +=
                BatchDims::of_batch(&batch, d.features as u64, HIDDEN as u64, d.classes as u64)
                    .flops();
            Ok(())
        })?;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.spans = rec.take_spans();
    Ok(out)
}

/// The traced pass.
pub fn run_traced(opts: &RunOpts) -> Result<WorkloadResult, StoreError> {
    let mut result = WorkloadResult::new(opts);
    let steps = steps(opts.quick);
    let items = steps as f64;
    let t = Instant::now();
    let data = data::materialize(Shape::Wide, opts.seed, opts.quick);
    result.set_value("graph.materialize_s", t.elapsed().as_secs_f64());

    // The real trainer's trajectory is what the replay must reproduce.
    let real = fit(&data, opts.seed, steps)?;
    result.attempted = steps as u64;
    let mut expected = real.losses.clone();
    if opts.corrupt_expected {
        expected[0] ^= 1;
    }
    let budget = Instant::now();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut traced: Vec<Replay> = Vec::new();
    loop {
        for rec in [Recorder::on(Instant::now()), Recorder::off()] {
            let run = replay(&data, opts.seed, steps, &rec)?;
            if run.losses != expected {
                result.failed = result.attempted;
                result.fail(format!(
                    "replayed loss trajectory {} differs from Trainer::train_step_via's {}",
                    loss_hash(&run.losses),
                    loss_hash(&expected)
                ));
            }
            if run.spans.is_empty() {
                untraced_s.push(run.wall_s);
            } else {
                traced_s.push(run.wall_s);
                traced.push(run);
            }
        }
        if !another_pair_fits(opts, &budget, traced_s.len()) {
            break;
        }
    }
    result.set_value(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&traced_s, &untraced_s),
    );
    let first = &traced[0];
    result.set_exact("loss_hash", loss_hash(&real.losses));
    result.set_exact("sampled_nodes", first.sampled_nodes);
    result.set_exact("flops", first.flops);
    result.set_value(
        "gnn.sampler.sampled_nodes",
        first.sampled_nodes as f64 / items,
    );
    result.set_value("gnn.tensor.flops_per_step", first.flops / items);

    let runs: Vec<Layers> = traced.iter().map(|r| layer_times(&r.spans)).collect();
    result.set(
        "gnn.sampler.plan_self_ms",
        per_item_ms(&runs, items, |l| {
            self_ns(l, "gnn.sampler.plan") + self_ns(l, "gnn.sampler.epoch_targets")
        }),
    );
    result.set(
        "gnn.sampler.resolve_self_ms",
        per_item_ms(&runs, items, |l| self_ns(l, "gnn.sampler.resolve")),
    );
    // The model's gather stage includes the store gathers under it
    // (`store.feature.gather_ms` is the nested part).
    for (metric, span) in [
        ("gnn.model.gather_features_ms", "gnn.model.gather_features"),
        ("store.topology.degrees_ms", "store.topology.degrees"),
        ("store.topology.picks_ms", "store.topology.picks"),
        ("store.feature.gather_ms", "store.feature.gather"),
        ("gnn.model.forward_ms", "gnn.model.forward"),
        ("gnn.model.backward_ms", "gnn.model.backward"),
        ("gnn.model.apply_ms", "gnn.model.apply"),
    ] {
        result.set(metric, per_item_ms(&runs, items, |l| total_ns(l, span)));
    }
    let calls = |name: &str| runs[0].get(name).map_or(0, |l| l.calls);
    result.set_value(
        "store.topology.calls",
        (calls("store.topology.degrees") + calls("store.topology.picks")) as f64 / items,
    );
    let gather_s = result.metrics["store.feature.gather_ms"].value / 1e3;
    let rows = first.rows_gathered as f64 / items;
    result.set_value("store.feature.rows_per_s", rows / gather_s);
    result.set_value(
        "store.feature.payload_mb_per_s",
        rows * data.features.bytes_per_node() as f64 / 1e6 / gather_s,
    );
    result.slowest = trace::slowest(&runs, items);

    // Validity: this workload exists to bypass I/O.
    let io = real.io;
    if io.pages_read + io.bytes_read + io.device_bytes_read + io.host_bytes_transferred != 0 {
        result
            .notes
            .push(format!("INVALID WORKLOAD: the mem tiers did I/O: {io:?}"));
    }
    let model_ms: f64 = ["gather_features", "forward", "backward", "apply"]
        .iter()
        .map(|op| result.metrics[&format!("gnn.model.{op}_ms")].value)
        .sum();
    let step_ms = stats::median(&real.step_ms);
    if !opts.quick && model_ms < 0.6 * step_ms {
        result.notes.push(format!(
            "INVALID WORKLOAD: gnn.model spans {model_ms:.1} ms < 60% of the {step_ms:.1} ms step"
        ));
    }

    probes::matmul_probe(
        &mut result,
        BATCH_SIZE * Fanouts::paper_default().as_slice()[0],
        dims().features,
        HIDDEN,
    );
    if let Some(dir) = &opts.trace_out {
        write_trace(dir, &opts.workload, &traced[0].spans);
    }
    result.fill_missing_layers();
    Ok(result)
}
