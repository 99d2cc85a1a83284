//! `serve_infer_file`: an in-process `Server` over the file tiers, driven
//! by a closed loop of keep-alive clients posting `/v1/infer`.
//!
//! Closed loop because each caller waits for its reply before sending
//! the next request; with two clients no backlog builds and a pass
//! merges at most two requests, so wider merges are measured by the
//! `serve.engine` probe instead.

use crate::data::{self, Fnv, Shape, AVG_DEGREE, CACHE_PAGES};
use crate::probes;
use crate::report::{RunOpts, WorkloadResult};
use crate::stats::{self, Summary};
use crate::sweep::{another_pair_fits, another_repeat, write_trace};
use crate::trace::{Span, Tracer};
use crate::BenchResult;
use smartsage_core::json::{self, JsonValue};
use smartsage_gnn::Fanouts;
use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
use smartsage_graph::FeatureTable;
use smartsage_serve::batcher::BatchTiming;
use smartsage_serve::client::HttpClient;
use smartsage_serve::{
    ApiRequest, BatchPolicy, DatasetConfig, Engine, EngineConfig, HttpOptions, SampleRequest,
    Server,
};
use smartsage_sim::Xoshiro256;
use smartsage_store::{FileStoreOptions, StoreKind, StoreRegistry, StoreStats, TopologyKind};
use std::net::SocketAddr;
use std::time::Instant;

/// Targets per request.
const TARGETS: usize = 4;
/// Leading responses per client checked byte for byte (64 in all with
/// two clients).
const CHECKED_PER_CLIENT: usize = 32;

/// Client threads: the reference sandbox's core count, never more than
/// the machine has.
fn clients() -> usize {
    data::nproc().clamp(1, 2)
}

fn requests_per_repeat(quick: bool) -> usize {
    if quick {
        300
    } else {
        3000
    }
}

fn engine_config(opts: &RunOpts, store: StoreKind, topology: TopologyKind) -> EngineConfig {
    EngineConfig {
        dataset: DatasetConfig {
            nodes: Shape::Wide.nodes(opts.quick),
            avg_degree: AVG_DEGREE,
            graph_seed: opts.seed,
            feature_dim: Shape::Wide.feature_dim(),
            feature_seed: opts.seed,
            ..DatasetConfig::default()
        },
        store,
        topology,
        fanouts: Fanouts::new(vec![10, 5]),
        cache_pages: CACHE_PAGES,
        ..EngineConfig::default()
    }
}

/// Every request body of one repeat, per client: seeded-uniform
/// targets and a per-request sampling seed.
fn request_bodies(opts: &RunOpts) -> Vec<Vec<String>> {
    let clients = clients();
    let per_client = requests_per_repeat(opts.quick) / clients;
    let nodes = Shape::Wide.nodes(opts.quick) as u64;
    (0..clients)
        .map(|client| {
            let mut rng = Xoshiro256::seed_from_u64(opts.seed).derive(client as u64);
            (0..per_client)
                .map(|i| {
                    let targets: Vec<String> = (0..TARGETS)
                        .map(|_| rng.range_u64(nodes).to_string())
                        .collect();
                    format!(
                        "{{\"nodes\":[{}],\"seed\":{}}}",
                        targets.join(","),
                        client * 1_000_000 + i
                    )
                })
                .collect()
        })
        .collect()
}

/// The leading third of every client's requests: the warm-up.
fn first_third(bodies: &[Vec<String>]) -> Vec<Vec<String>> {
    bodies
        .iter()
        .map(|client| client[..client.len() / 3].to_vec())
        .collect()
}

/// The expected leading responses: the same requests executed one at a
/// time on a mem-tier engine.
fn expected_responses(opts: &RunOpts, bodies: &[Vec<String>]) -> BenchResult<Vec<Vec<String>>> {
    let mut engine = Engine::new(engine_config(opts, StoreKind::Mem, TopologyKind::Mem))
        .map_err(|e| e.to_string())?;
    bodies
        .iter()
        .map(|client| {
            client
                .iter()
                .take(CHECKED_PER_CLIENT)
                .map(|body| {
                    let request = SampleRequest::parse(body).map_err(|e| e.to_string())?;
                    engine
                        .execute(&[ApiRequest::Infer(request)])
                        .remove(0)
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
        .collect()
}

struct Running {
    server: Server,
}

impl Running {
    /// Builds the engine (generate, publish, open) and starts the
    /// server with the default batching and connection policies.
    fn start(opts: &RunOpts) -> BenchResult<Running> {
        let engine = Engine::new(engine_config(opts, StoreKind::File, TopologyKind::File))
            .map_err(|e| format!("opening the store tiers: {e}"))?;
        let server = Server::start(
            engine,
            BatchPolicy::default(),
            HttpOptions::default(),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("binding the server: {e}"))?;
        Ok(Running { server })
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Feature + topology counters of the server's engine.
    fn io(&self) -> StoreStats {
        let engine = self.server.engine();
        let engine = engine.lock().expect("engine poisoned");
        let mut io = engine.store_stats();
        io.accumulate(&engine.topology_stats());
        io
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// Width of the slices a pass is cut into for the end-to-end numbers:
/// short enough that some slice falls between the sandbox's slow
/// spells, long enough (~150 requests) for a median.
const SLICE_S: f64 = 0.25;

/// One pass of the closed loop.
struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    /// When each request completed, seconds from the pass's start
    /// (same order as `latencies_ms`).
    completed_s: Vec<f64>,
    failed: u64,
    /// The leading responses of each client.
    leading: Vec<Vec<String>>,
    spans: Vec<Span>,
}

/// Drives every client's requests to completion, each client on its
/// own keep-alive connection and thread.
fn drive(addr: SocketAddr, bodies: &[Vec<String>], traced: bool) -> BenchResult<Pass> {
    let mut connections = Vec::new();
    for _ in bodies {
        connections.push(HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let start = Instant::now();
    type Client = (Vec<(f64, f64)>, u64, Vec<String>, Vec<Span>);
    let per_client: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .zip(bodies)
            .enumerate()
            .map(|(client, (mut conn, bodies))| {
                scope.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(start, client as u32));
                    let mut latencies = Vec::with_capacity(bodies.len());
                    let mut leading = Vec::new();
                    let mut failed = 0u64;
                    for (i, body) in bodies.iter().enumerate() {
                        let span = tracer.as_mut().map(|t| {
                            t.set_batch(i as u64);
                            t.open("serve.http.request")
                        });
                        let sent = Instant::now();
                        let reply = conn.request("POST", "/v1/infer", Some(body));
                        latencies.push((
                            sent.elapsed().as_secs_f64() * 1e3,
                            start.elapsed().as_secs_f64(),
                        ));
                        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                            t.close(id);
                        }
                        match reply {
                            Ok((200, response)) => {
                                if i < CHECKED_PER_CLIENT {
                                    leading.push(response);
                                }
                            }
                            Ok(_) => failed += 1,
                            Err(_) => {
                                // The connection is gone: everything
                                // this client still had to send failed.
                                failed += (bodies.len() - i) as u64;
                                break;
                            }
                        }
                    }
                    let spans = tracer.map_or_else(Vec::new, Tracer::into_spans);
                    (latencies, failed, leading, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall_s,
        latencies_ms: Vec::new(),
        completed_s: Vec::new(),
        failed: 0,
        leading: Vec::new(),
        spans: Vec::new(),
    };
    for (latencies, failed, leading, spans) in per_client {
        pass.latencies_ms.extend(latencies.iter().map(|l| l.0));
        pass.completed_s.extend(latencies.iter().map(|l| l.1));
        pass.failed += failed;
        pass.leading.push(leading);
        // Parent indices are per-thread; the request spans are roots.
        pass.spans.extend(spans);
    }
    Ok(pass)
}

impl Pass {
    /// Throughput and median latency of every full [`SLICE_S`] slice of
    /// the pass, by completion time (of the whole pass when it is
    /// shorter than one slice).
    fn slices(&self) -> Vec<(f64, f64)> {
        let full = (self.wall_s / SLICE_S).floor() as usize;
        if full == 0 {
            return vec![(
                self.latencies_ms.len() as f64 / self.wall_s,
                stats::median(&self.latencies_ms),
            )];
        }
        let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); full];
        for (&done, &ms) in self.completed_s.iter().zip(&self.latencies_ms) {
            if let Some(slice) = by_slice.get_mut((done / SLICE_S) as usize) {
                slice.push(ms);
            }
        }
        by_slice
            .iter()
            .filter(|slice| !slice.is_empty())
            .map(|slice| (slice.len() as f64 / SLICE_S, stats::median(slice)))
            .collect()
    }
}

/// Folds one pass's failures and leading-response check into `result`.
fn account(result: &mut WorkloadResult, pass: &Pass, expected: &[Vec<String>], requests: u64) {
    result.attempted += requests;
    result.failed += pass.failed;
    result.check(pass.failed == 0, || {
        format!("{} of {requests} requests did not return 200", pass.failed)
    });
    result.check(pass.leading == expected, || {
        "the leading responses differ from serial execution on a mem-tier engine".to_string()
    });
}

fn response_hash(responses: &[Vec<String>]) -> String {
    let mut h = Fnv::default();
    for body in responses.iter().flatten() {
        h.write(body.as_bytes());
    }
    format!("{:016x}", h.finish())
}

fn corrupt(expected: &mut [Vec<String>]) {
    expected[0][0].push(' ');
}

/// The untraced pass.
pub fn run_end_to_end(opts: &RunOpts) -> BenchResult<WorkloadResult> {
    let mut result = WorkloadResult::new(opts);
    let bodies = request_bodies(opts);
    let requests = bodies.iter().map(Vec::len).sum::<usize>() as u64;
    let mut expected = expected_responses(opts, &bodies)?;
    result.set_exact("response_hash", response_hash(&expected));
    if opts.corrupt_expected {
        corrupt(&mut expected);
    }
    let mut setup_s = Vec::new();
    let mut running = None;
    for _ in 0..data::setups(opts.quick) {
        drop(running.take());
        data::remove_published(&std::env::temp_dir());
        let t = Instant::now();
        let started = Running::start(opts)?;
        setup_s.push(t.elapsed().as_secs_f64());
        running = Some(started);
    }
    let running = running.expect("at least one set-up ran");

    // A third of a pass warms the server.
    drive(running.addr(), &first_third(&bodies), false)?;
    let (mut qps, mut p50, mut host_mb) = (Vec::new(), Vec::new(), Vec::new());
    let measuring = Instant::now();
    while another_repeat(opts, &measuring, host_mb.len()) {
        let before = running.io();
        let pass = drive(running.addr(), &bodies, false)?;
        let after = running.io();
        let moved = (after.host_bytes_transferred - before.host_bytes_transferred)
            + (after.feature_bytes - before.feature_bytes);
        account(&mut result, &pass, &expected, requests);
        eprintln!("sagebench: serve_infer_file repeat: {:.3} s", pass.wall_s);
        for (per_s, median_ms) in pass.slices() {
            qps.push(per_s);
            p50.push(median_ms);
        }
        host_mb.push(moved as f64 / 1e6 / requests as f64);
    }
    result.set("items_per_s", Summary::best_decile(&qps, true));
    result.set("latency_p50_ms", Summary::best_decile(&p50, false));
    result.set("host_mb_per_item", Summary::of(&host_mb));
    result.set("setup_s", Summary::of(&setup_s));
    drop(running);
    result.set_value("peak_rss_mb", data::peak_rss_mb());
    Ok(result)
}

/// Times the set-up phases the engine runs inside `Engine::new`, by
/// calling the same public functions on the same inputs; leaves the
/// files published, as the engine would.
fn setup_probe(result: &mut WorkloadResult, opts: &RunOpts) -> BenchResult<()> {
    let config = engine_config(opts, StoreKind::File, TopologyKind::File);
    let d = &config.dataset;
    let t = Instant::now();
    let graph = generate_power_law(&PowerLawConfig {
        nodes: d.nodes,
        avg_degree: d.avg_degree,
        seed: d.graph_seed,
        ..PowerLawConfig::default()
    });
    let table = FeatureTable::new(d.feature_dim, d.classes, d.feature_seed);
    result.set_value("graph.materialize_s", t.elapsed().as_secs_f64());
    let file_opts = FileStoreOptions {
        page_bytes: config.page_bytes,
        cache_pages: config.cache_pages,
    };
    let open = || -> BenchResult<u64> {
        let registry = StoreRegistry::new();
        let features = registry
            .open_feature_table(&table, d.nodes, file_opts)
            .map_err(|e| e.to_string())?;
        let topology = registry
            .open_graph_csr(&graph, file_opts)
            .map_err(|e| e.to_string())?;
        Ok(features.file_len() + topology.file_len())
    };
    data::remove_published(&std::env::temp_dir());
    let t = Instant::now();
    open()?;
    result.set_value("store.registry.publish_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let bytes = open()?;
    result.set_value("store.registry.open_s", t.elapsed().as_secs_f64());
    result.set_value("store.registry.file_mb", bytes as f64 / 1e6);
    Ok(())
}

/// `serve.engine`: the executor's cost per request alone and in merged
/// passes of eight, on a second engine over the same files.
fn engine_probe(result: &mut WorkloadResult, opts: &RunOpts, bodies: &[String]) -> BenchResult<()> {
    let mut engine = Engine::new(engine_config(opts, StoreKind::File, TopologyKind::File))
        .map_err(|e| e.to_string())?;
    let requests: Vec<ApiRequest> = bodies
        .iter()
        .map(|b| SampleRequest::parse(b).map(ApiRequest::Infer))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut failed = 0usize;
    let mut run = |engine: &mut Engine, width: usize| -> f64 {
        let per_request: Vec<f64> = requests
            .chunks(width)
            .map(|chunk| {
                let t = Instant::now();
                let replies = engine.execute(chunk);
                let ms = t.elapsed().as_secs_f64() * 1e3 / chunk.len() as f64;
                failed += replies.iter().filter(|r| r.is_err()).count();
                ms
            })
            .collect();
        stats::median(&per_request)
    };
    run(&mut engine, 1); // settle caches the same way for both widths
    let solo = run(&mut engine, 1);
    let merged = run(&mut engine, 8);
    result.check(failed == 0, || {
        format!("engine probe: {failed} requests failed")
    });
    result.set_value("serve.engine.execute_ms_solo", solo);
    result.set_value("serve.engine.execute_ms_merged8", merged);
    result.set_value("serve.engine.merge_gain", solo / merged);
    Ok(())
}

fn timing_delta(after: BatchTiming, before: BatchTiming) -> (f64, f64, f64) {
    let requests = (after.requests - before.requests).max(1) as f64;
    let batches = (after.batches - before.batches).max(1) as f64;
    (
        (after.window_wait - before.window_wait).as_secs_f64() * 1e3 / requests,
        (after.service - before.service).as_secs_f64() * 1e3 / requests,
        requests / batches,
    )
}

/// The traced pass.
pub fn run_traced(opts: &RunOpts) -> BenchResult<WorkloadResult> {
    let mut result = WorkloadResult::new(opts);
    let bodies = request_bodies(opts);
    let requests = bodies.iter().map(Vec::len).sum::<usize>() as u64;
    let mut expected = expected_responses(opts, &bodies)?;
    result.set_exact("response_hash", response_hash(&expected));
    let recorded_responses: Vec<String> = expected.iter().flatten().cloned().collect();
    if opts.corrupt_expected {
        corrupt(&mut expected);
    }
    setup_probe(&mut result, opts)?;
    let running = Running::start(opts)?;
    drive(running.addr(), &first_third(&bodies), false)?; // warm-up

    // Counters are read around the untraced passes; the traced passes
    // alternate with them and only feed the overhead and the trace.
    let budget = Instant::now();
    let (mut traced_qps, mut untraced_qps) = (Vec::new(), Vec::new());
    let mut pairs = 0;
    let (mut wait_ms, mut service_ms, mut per_pass) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p95, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut host_bytes, mut hit_rate) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    loop {
        let pass = drive(running.addr(), &bodies, true)?;
        account(&mut result, &pass, &expected, requests);
        traced_qps.extend(pass.slices().iter().map(|s| s.0));
        if spans.is_empty() {
            spans = pass.spans;
        }
        let (io, timing) = (running.io(), running.server.batch_timing());
        let pass = drive(running.addr(), &bodies, false)?;
        account(&mut result, &pass, &expected, requests);
        untraced_qps.extend(pass.slices().iter().map(|s| s.0));
        pairs += 1;
        let (wait, service, merged) = timing_delta(running.server.batch_timing(), timing);
        wait_ms.push(wait);
        service_ms.push(service);
        per_pass.push(merged);
        let sorted = stats::sorted(&pass.latencies_ms);
        p50.push(stats::percentile(&sorted, 0.50));
        p95.push(stats::percentile(&sorted, 0.95));
        p99.push(stats::percentile(&sorted, 0.99));
        let after = running.io();
        host_bytes.push(
            (after.host_bytes_transferred - io.host_bytes_transferred) as f64 / requests as f64,
        );
        let hits = (after.page_hits - io.page_hits) as f64;
        let misses = (after.page_misses - io.page_misses) as f64;
        hit_rate.push(hits / (hits + misses).max(1.0));
        if !another_pair_fits(opts, &budget, pairs) {
            break;
        }
    }
    result.set_value(
        "bench.trace_overhead_pct",
        // By the same least-disturbed slices as the end-to-end QPS.
        (Summary::best_decile(&untraced_qps, true).value
            / Summary::best_decile(&traced_qps, true).value
            - 1.0)
            * 100.0,
    );
    result.set("serve.batcher.window_wait_ms", Summary::of(&wait_ms));
    result.set("serve.batcher.service_ms", Summary::of(&service_ms));
    result.set("serve.batcher.reqs_per_pass", Summary::of(&per_pass));
    result.set("serve.http.latency_p95_ms", Summary::of(&p95));
    result.set("serve.http.latency_p99_ms", Summary::of(&p99));
    result.set_value(
        "serve.http.overhead_ms_p50",
        stats::median(&p50) - stats::median(&wait_ms) - stats::median(&service_ms),
    );
    result.set("serve.engine.host_bytes_per_req", Summary::of(&host_bytes));
    result.set("serve.engine.page_hit_rate", Summary::of(&hit_rate));

    // Control-plane round trips on one keep-alive connection.
    let mut conn = HttpClient::connect(running.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut rtt_us = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let reply = conn.request("GET", "/health", None);
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        result.check(matches!(reply, Ok((200, _))), || {
            "GET /health did not return 200".to_string()
        });
    }
    result.set_value("serve.http.health_rtt_us", stats::median(&rtt_us));
    let rejected = conn
        .request("GET", "/stats", None)
        .ok()
        .and_then(|(_, body)| json::parse(&body).ok())
        .and_then(|doc| {
            doc.get("service")?
                .get("rejected_queue_full")
                .and_then(JsonValue::as_u64)
        });
    match rejected {
        Some(n) => result.set_value("serve.batcher.rejected_queue_full", n as f64),
        None => result.fail("GET /stats did not report rejected_queue_full".to_string()),
    }
    drop(conn);
    drop(running);

    let recorded_requests: Vec<String> = bodies
        .iter()
        .flat_map(|client| client.iter().take(CHECKED_PER_CLIENT).cloned())
        .collect();
    engine_probe(&mut result, opts, &recorded_requests)?;
    probes::json_probes(&mut result, &recorded_requests, &recorded_responses);
    // A solo request's largest matmul: its hop-1 rows × features × hidden.
    let config = engine_config(opts, StoreKind::File, TopologyKind::File);
    probes::matmul_probe(
        &mut result,
        TARGETS * config.fanouts.as_slice()[0],
        config.dataset.feature_dim,
        config.hidden,
    );
    result.slowest = vec![
        (
            "serve.engine (batcher service)".to_string(),
            stats::median(&service_ms),
        ),
        (
            "serve.batcher (window wait)".to_string(),
            stats::median(&wait_ms),
        ),
        (
            "serve.http (client p50 - wait - service)".to_string(),
            result.metrics["serve.http.overhead_ms_p50"].value,
        ),
    ];
    result.slowest.sort_by(|a, b| b.1.total_cmp(&a.1));
    if let Some(dir) = &opts.trace_out {
        write_trace(dir, &opts.workload, &spans);
    }
    result.fill_missing_layers();
    Ok(result)
}
