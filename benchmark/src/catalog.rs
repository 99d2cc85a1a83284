//! The benchmark's catalogue: every workload and metric it prints, with
//! unit, direction, regression bound and — for layer metrics — which
//! end-to-end metric they should move on which workload.
//!
//! `BENCHMARK.json` at the repo root is this catalogue rendered by
//! [`benchmark_json`]; `tests/schema.rs` holds the two equal.

use smartsage_core::json::escape_string;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses and why it is in the set.
    pub why: &'static str,
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// What exactly is measured.
    pub what: &'static str,
}

/// A per-layer metric: a span total, a counter delta or a probe.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Printed name; the prefix up to the last `.` is the layer.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric an improvement here should move.
    pub moves: &'static str,
    /// The workloads it is measured on (0 elsewhere).
    pub on: &'static str,
}

/// Command-line name of the cold file-tier sweep.
pub const SWEEP_FILE_COLD: &str = "sweep_file_cold";
/// Command-line name of the hot file-tier sweep.
pub const SWEEP_FILE_HOT: &str = "sweep_file_hot";
/// Command-line name of the sharded ISP sweep.
pub const SWEEP_ISP_SHARDS4: &str = "sweep_isp_shards4";
/// Command-line name of the in-memory training workload.
pub const FIT_MEM: &str = "fit_mem";
/// Command-line name of the online inference workload.
pub const SERVE_INFER_FILE: &str = "serve_infer_file";

/// The five workloads, in run order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: SWEEP_FILE_COLD,
        why: "fig7 train sweep, file tiers, dataset 7x the page cache, caches cold each repeat: \
              the miss path (read engine, read-ahead, page-run reads, per-batch copies)",
    },
    Workload {
        name: SWEEP_FILE_HOT,
        why: "same call and tiers on a dataset that fits its caches, kept warm: the hit path \
              (LRU, page cache, row packing, cost policy); engine changes must not move it",
    },
    Workload {
        name: SWEEP_ISP_SHARDS4,
        why: "fig14 sampling sweep, ISP tiers over 4 shards, cold each repeat: device-side \
              resolve, row scratchpad and shard scatter/merge; byte counts repeat exactly",
    },
    Workload {
        name: FIT_MEM,
        why: "functional training steps over in-memory tiers: no I/O at all, so sampler and \
              tensor kernels do the work and I/O changes must not move it",
    },
    Workload {
        name: SERVE_INFER_FILE,
        why: "in-process HTTP server, file tiers, closed loop of 2 keep-alive clients posting \
              /v1/infer: the online path (http, json, batcher, merged execution, forward)",
    },
];

/// The end-to-end metrics; every workload reports every one.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "work items completed per second of wall-clock: 192-target batches (sweep_*), \
               training steps (fit_mem), requests (serve_infer_file; its QPS)",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall-clock of one item as its caller sees it: a request round trip, a \
               training step, or (sweeps, where batches overlap inside one call) a repeat's \
               wall-clock per batch",
    },
    EndToEnd {
        name: "host_mb_per_item",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        what: "bytes moved for one item: feature + topology bytes over the SSD-to-host link, \
               demand plus read-ahead (0 on the mem tier), plus the payload bytes the stores \
               delivered into the item's buffers (fixed by the workload)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        what: "VmHWM of the workload's process: caching the dataset in RAM must not read as \
               a win",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "materialize the dataset, publish it into the benchmark's own TMPDIR, open the \
               tiers (and start the server); the median of five set-ups",
    },
];

const SWEEPS: &str = "sweep_*";
const COLD_ISP: &str = "sweep_file_cold, sweep_isp_shards4";
const HOT_COLD: &str = "sweep_file_hot, sweep_file_cold";
const ITEMS: &str = "items_per_s";
const ITEMS_AND_BYTES: &str = "items_per_s, host_mb_per_item";
const P50: &str = "latency_p50_ms";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics; every workload reports every one (0 where the
/// layer is not on its path).
pub const PER_LAYER: [PerLayer; 68] = [
    layer("graph.materialize_s", "s", Lower, "setup_s", "all"),
    layer(
        "store.registry.publish_s",
        "s",
        Lower,
        "setup_s",
        "all but fit_mem",
    ),
    layer(
        "store.registry.open_s",
        "s",
        Lower,
        "setup_s",
        "all but fit_mem",
    ),
    layer(
        "store.registry.file_mb",
        "MB",
        Lower,
        "setup_s",
        "all but fit_mem",
    ),
    layer(
        "gnn.sampler.plan_self_ms",
        "ms",
        Lower,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "gnn.sampler.resolve_self_ms",
        "ms",
        Lower,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "gnn.sampler.sampled_nodes",
        "count",
        Lower,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "store.topology.degrees_ms",
        "ms",
        Lower,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "store.topology.picks_ms",
        "ms",
        Lower,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "store.topology.calls",
        "count",
        Lower,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "store.topology.page_hit_rate",
        "ratio",
        Higher,
        ITEMS_AND_BYTES,
        SWEEPS,
    ),
    layer(
        "store.topology.pages_read",
        "count",
        Lower,
        ITEMS_AND_BYTES,
        SWEEPS,
    ),
    layer(
        "store.topology.host_bytes",
        "bytes",
        Lower,
        "host_mb_per_item",
        SWEEPS,
    ),
    layer("store.topology.device_bytes", "bytes", Lower, ITEMS, SWEEPS),
    layer(
        "store.feature.gather_ms",
        "ms",
        Lower,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "store.feature.rows_per_s",
        "1/s",
        Higher,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "store.feature.payload_mb_per_s",
        "MB/s",
        Higher,
        ITEMS,
        "sweep_*, fit_mem",
    ),
    layer(
        "store.feature.page_hit_rate",
        "ratio",
        Higher,
        ITEMS_AND_BYTES,
        SWEEPS,
    ),
    layer(
        "store.feature.pages_read",
        "count",
        Lower,
        ITEMS_AND_BYTES,
        SWEEPS,
    ),
    layer(
        "store.feature.host_bytes",
        "bytes",
        Lower,
        "host_mb_per_item",
        SWEEPS,
    ),
    layer("store.feature.device_bytes", "bytes", Lower, ITEMS, SWEEPS),
    layer(
        "store.feature.read_amplification",
        "ratio",
        Lower,
        ITEMS_AND_BYTES,
        SWEEPS,
    ),
    layer(
        "store.isp.device_ms",
        "ms",
        Lower,
        "none (modeled; must not move)",
        SWEEP_ISP_SHARDS4,
    ),
    layer(
        "store.isp.transfer_reduction",
        "ratio",
        Higher,
        "none (exact; must not move)",
        SWEEP_ISP_SHARDS4,
    ),
    layer(
        "store.sharded.mem_overhead_ratio",
        "ratio",
        Lower,
        ITEMS,
        SWEEP_ISP_SHARDS4,
    ),
    layer(
        "store.sharded.shard_imbalance",
        "ratio",
        Lower,
        ITEMS,
        SWEEP_ISP_SHARDS4,
    ),
    layer("hostio.engine.jobs", "count", Lower, ITEMS, COLD_ISP),
    layer(
        "hostio.engine.mean_read_kib",
        "KiB",
        Higher,
        ITEMS,
        COLD_ISP,
    ),
    layer(
        "hostio.engine.max_inflight",
        "count",
        Higher,
        ITEMS,
        COLD_ISP,
    ),
    layer(
        "hostio.engine.max_queue_depth",
        "count",
        Higher,
        ITEMS,
        COLD_ISP,
    ),
    layer(
        "hostio.engine.submit_wait_us_1",
        "us",
        Lower,
        ITEMS,
        COLD_ISP,
    ),
    layer(
        "hostio.engine.submit_wait_us_8",
        "us",
        Lower,
        ITEMS,
        COLD_ISP,
    ),
    layer(
        "hostio.engine.submit_wait_us_64",
        "us",
        Lower,
        ITEMS,
        COLD_ISP,
    ),
    layer(
        "hostio.engine.probe_mb_per_s_64",
        "MB/s",
        Higher,
        ITEMS,
        COLD_ISP,
    ),
    layer(
        "hostio.prefetch.warm_pages",
        "count",
        Higher,
        ITEMS,
        SWEEP_FILE_COLD,
    ),
    layer(
        "hostio.prefetch.bytes_share",
        "ratio",
        Higher,
        "items_per_s, not host_mb_per_item",
        SWEEP_FILE_COLD,
    ),
    layer("hostio.lru.touch_ns", "ns", Lower, ITEMS, HOT_COLD),
    layer("hostio.lru.insert_evict_ns", "ns", Lower, ITEMS, HOT_COLD),
    layer("hostio.page_cache.get_hit_ns", "ns", Lower, ITEMS, HOT_COLD),
    layer("hostio.page_cache.insert_ns", "ns", Lower, ITEMS, HOT_COLD),
    layer(
        "hostio.coalesce.merge_ns_per_page",
        "ns",
        Lower,
        ITEMS,
        HOT_COLD,
    ),
    layer("core.cost.step_ms", "ms", Lower, ITEMS, SWEEPS),
    layer("core.cost.steps", "count", Lower, ITEMS, SWEEPS),
    layer(
        "core.cost.modeled_makespan_ms",
        "ms",
        Lower,
        "none (modeled; must not move)",
        SWEEPS,
    ),
    layer("core.pipeline.residual_ms", "ms", Lower, ITEMS, SWEEPS),
    layer("gnn.model.gather_features_ms", "ms", Lower, ITEMS, FIT_MEM),
    layer("gnn.model.forward_ms", "ms", Lower, ITEMS, FIT_MEM),
    layer("gnn.model.backward_ms", "ms", Lower, ITEMS, FIT_MEM),
    layer("gnn.model.apply_ms", "ms", Lower, ITEMS, FIT_MEM),
    layer("gnn.tensor.flops_per_step", "count", Lower, ITEMS, FIT_MEM),
    layer(
        "gnn.tensor.matmul_gflops",
        "GFLOP/s",
        Higher,
        ITEMS,
        "fit_mem, serve_infer_file",
    ),
    layer(
        "core.json.parse_mb_per_s",
        "MB/s",
        Higher,
        P50,
        SERVE_INFER_FILE,
    ),
    layer("serve.api.parse_us", "us", Lower, P50, SERVE_INFER_FILE),
    layer(
        "serve.api.response_bytes",
        "bytes",
        Lower,
        P50,
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.engine.execute_ms_solo",
        "ms",
        Lower,
        "items_per_s, latency_p50_ms",
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.engine.execute_ms_merged8",
        "ms",
        Lower,
        "items_per_s, latency_p50_ms",
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.engine.merge_gain",
        "ratio",
        Higher,
        ITEMS,
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.engine.host_bytes_per_req",
        "bytes",
        Lower,
        "host_mb_per_item",
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.engine.page_hit_rate",
        "ratio",
        Higher,
        ITEMS_AND_BYTES,
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.batcher.window_wait_ms",
        "ms",
        Lower,
        "latency_p50_ms (against items_per_s)",
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.batcher.service_ms",
        "ms",
        Lower,
        "latency_p50_ms (against items_per_s)",
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.batcher.reqs_per_pass",
        "count",
        Higher,
        "items_per_s (against latency_p50_ms)",
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.batcher.rejected_queue_full",
        "count",
        Lower,
        "failed",
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.http.overhead_ms_p50",
        "ms",
        Lower,
        P50,
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.http.latency_p95_ms",
        "ms",
        Lower,
        P50,
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.http.latency_p99_ms",
        "ms",
        Lower,
        P50,
        SERVE_INFER_FILE,
    ),
    layer(
        "serve.http.health_rtt_us",
        "us",
        Lower,
        P50,
        SERVE_INFER_FILE,
    ),
    layer(
        "bench.trace_overhead_pct",
        "%",
        Lower,
        "none (the benchmark's own cost)",
        "all",
    ),
];

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u32 = 20;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit of any catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// `BENCHMARK.json`, rendered from the catalogue.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| -> String {
        items
            .iter()
            .map(|s| escape_string(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                escape_string(w.name),
                escape_string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                escape_string(m.name),
                escape_string(m.unit),
                escape_string(m.better.label()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                escape_string(m.name),
                escape_string(m.unit),
                escape_string(m.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
