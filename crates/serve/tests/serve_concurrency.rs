//! The concurrency regression test from the issue: eight closed-loop
//! clients hammering a coalescing server must get **bit-identical**
//! samples and logits to the same requests executed serially, one at a
//! time, with exact per-handle store accounting on both sides — and
//! must do it in fewer merged passes and fewer host bytes per request.

use smartsage_gnn::Fanouts;
use smartsage_serve::batcher::BatchPolicy;
use smartsage_serve::client::HttpClient;
use smartsage_serve::engine::{DatasetConfig, Engine, EngineConfig};
use smartsage_serve::http::{HttpOptions, Server};
use smartsage_store::{StoreKind, TopologyKind};
use std::collections::HashMap;
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS: usize = 15;
const NODES: usize = 600;
const DIM: usize = 8;

fn engine() -> Engine {
    Engine::new(EngineConfig {
        dataset: DatasetConfig {
            nodes: NODES,
            avg_degree: 8.0,
            feature_dim: DIM,
            classes: 4,
            ..DatasetConfig::default()
        },
        // Through real file-backed tiers with a deliberately tiny page
        // cache, so coalescing actually changes the I/O pattern the
        // responses must be invariant to.
        store: StoreKind::File,
        topology: TopologyKind::File,
        fanouts: Fanouts::new(vec![3, 2]),
        hidden: 8,
        cache_pages: 8,
        ..EngineConfig::default()
    })
    .expect("file-tier engine")
}

/// Client `c`'s request `i`: overlapping targets across clients (same
/// `i` means same nodes), unique seed per (client, request), and a
/// sample/infer mix so both response shapes are covered.
fn request_for(client: usize, i: usize) -> (&'static str, String) {
    let targets: Vec<String> = (0..3)
        .map(|j| ((i * 17 + j * 211) % NODES).to_string())
        .collect();
    let body = format!(
        "{{\"nodes\":[{}],\"seed\":{}}}",
        targets.join(","),
        client * 1000 + i
    );
    let path = if (client + i).is_multiple_of(2) {
        "/v1/infer"
    } else {
        "/v1/sample"
    };
    (path, body)
}

#[test]
fn eight_concurrent_clients_match_serial_execution_bit_for_bit() {
    // --- Coalesced: 8 real client threads against one server. --------
    let server = Server::start(
        engine(),
        BatchPolicy {
            window: Duration::from_millis(2),
            max_batch: 64,
            queue_depth: 256,
        },
        HttpOptions::default(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.addr();
    let mut workers = Vec::new();
    for client in 0..CLIENTS {
        workers.push(std::thread::spawn(move || {
            let mut conn = HttpClient::connect(addr).expect("connect");
            let mut out = Vec::with_capacity(REQUESTS);
            for i in 0..REQUESTS {
                let (path, body) = request_for(client, i);
                let (status, response) = conn.request("POST", path, Some(&body)).expect("request");
                assert_eq!(status, 200, "{body} -> {response}");
                out.push((body, response));
            }
            out
        }));
    }
    let mut coalesced: HashMap<String, String> = HashMap::new();
    for worker in workers {
        for (body, response) in worker.join().expect("client thread") {
            // Seeds make every body unique, so the map is well-defined.
            assert!(
                coalesced.insert(body, response).is_none(),
                "duplicate request body"
            );
        }
    }
    server.shutdown();
    let shared = server.engine();
    let concurrent = shared.lock().expect("engine");

    // --- Serial: a fresh engine replays the same bodies one at a time.
    let serial_server = Server::start(
        engine(),
        BatchPolicy::serial(),
        HttpOptions::default(),
        "127.0.0.1:0",
    )
    .expect("bind serial");
    let mut conn = HttpClient::connect(serial_server.addr()).expect("connect serial");
    let mut serial: HashMap<String, String> = HashMap::new();
    for client in 0..CLIENTS {
        for i in 0..REQUESTS {
            let (path, body) = request_for(client, i);
            let (status, response) = conn.request("POST", path, Some(&body)).expect("request");
            assert_eq!(status, 200, "{body} -> {response}");
            serial.insert(body, response);
        }
    }
    serial_server.shutdown();
    let shared = serial_server.engine();
    let serial_engine = shared.lock().expect("serial engine");

    // --- Bit-identity: every sample and every logit byte matches. ----
    assert_eq!(coalesced.len(), serial.len());
    for (body, serial_response) in &serial {
        assert_eq!(
            coalesced.get(body),
            Some(serial_response),
            "response diverged under concurrency for {body}"
        );
    }

    // --- Exact per-handle stats on both engines. ----------------------
    let total = (CLIENTS * REQUESTS) as u64;
    assert_eq!(concurrent.counters().requests, total);
    assert_eq!(serial_engine.counters().requests, total);
    assert_eq!(
        concurrent.counters().sample_requests + concurrent.counters().infer_requests,
        total
    );
    assert_eq!(
        concurrent.counters().sample_requests,
        serial_engine.counters().sample_requests
    );
    // Serial = one merged batch per request, nothing coalesced.
    assert_eq!(serial_engine.counters().merged_batches, total);
    assert_eq!(serial_engine.counters().coalesced_requests, 0);
    assert!(
        concurrent.counters().merged_batches < total,
        "eight closed loops never shared a window"
    );
    // Topology reads are fully determined per request (targets + seed),
    // so the totals are order- and merge-independent.
    assert_eq!(
        concurrent.topology_stats().nodes_gathered,
        serial_engine.topology_stats().nodes_gathered
    );
    // The feature half dedups within merged windows: never more nodes
    // than serial, and both sides ship exactly 4*dim bytes per node.
    let (cs, ss) = (concurrent.store_stats(), serial_engine.store_stats());
    assert!(cs.nodes_gathered <= ss.nodes_gathered, "{cs:?} vs {ss:?}");
    assert_eq!(cs.feature_bytes, cs.nodes_gathered * (DIM as u64) * 4);
    assert_eq!(ss.feature_bytes, ss.nodes_gathered * (DIM as u64) * 4);
    // The coalescing win on the file tier: merged windows share page
    // fetches, so the same requests cross the host link in fewer bytes
    // per request than one-at-a-time execution.
    let host_bytes = |e: &Engine| {
        e.store_stats().host_bytes_transferred + e.topology_stats().host_bytes_transferred
    };
    assert!(
        host_bytes(&concurrent) < host_bytes(&serial_engine),
        "coalesced {} B vs serial {} B over {total} requests each",
        host_bytes(&concurrent),
        host_bytes(&serial_engine)
    );
}
