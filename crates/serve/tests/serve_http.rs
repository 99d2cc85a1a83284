//! End-to-end tests over real TCP: every route, every typed error
//! status, and graceful shutdown — the request path must never panic,
//! it answers with typed JSON errors instead.

use smartsage_core::json;
use smartsage_gnn::Fanouts;
use smartsage_serve::batcher::BatchPolicy;
use smartsage_serve::client::{oneshot, HttpClient};
use smartsage_serve::engine::{DatasetConfig, Engine, EngineConfig};
use smartsage_serve::http::{HttpOptions, Server};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn tiny_engine() -> Engine {
    Engine::new(EngineConfig {
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
    })
    .expect("tiny engine")
}

fn start(policy: BatchPolicy, options: HttpOptions) -> Server {
    Server::start(tiny_engine(), policy, options, "127.0.0.1:0").expect("bind ephemeral port")
}

#[test]
fn health_stats_sample_and_infer_round_trip_on_one_connection() {
    let server = start(BatchPolicy::default(), HttpOptions::default());
    let mut conn = HttpClient::connect(server.addr()).unwrap();

    let (status, body) = conn.request("GET", "/health", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let health = json::parse(&body).expect("health is valid JSON");
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(health.get("nodes").and_then(|v| v.as_u64()), Some(300));

    let (status, body) = conn
        .request("POST", "/v1/sample", Some(r#"{"nodes":[1,2,3],"seed":7}"#))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let sample = json::parse(&body).expect("sample response is valid JSON");
    let targets = sample.get("targets").and_then(|v| v.as_array()).unwrap();
    assert_eq!(targets.len(), 3);
    assert_eq!(
        sample
            .get("hops")
            .and_then(|v| v.as_array())
            .map(|a| a.len()),
        Some(2)
    );

    let (status, body) = conn
        .request("POST", "/v1/infer", Some(r#"{"nodes":[4,5],"seed":9}"#))
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let infer = json::parse(&body).expect("infer response is valid JSON");
    assert_eq!(
        infer
            .get("logits")
            .and_then(|v| v.as_array())
            .map(|a| a.len()),
        Some(2)
    );
    assert_eq!(
        infer
            .get("predictions")
            .and_then(|v| v.as_array())
            .map(|a| a.len()),
        Some(2)
    );

    let (status, body) = conn.request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let stats = json::parse(&body).expect("stats is valid JSON");
    let service = stats.get("service").unwrap();
    assert_eq!(service.get("requests").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        service.get("sample_requests").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(
        service.get("infer_requests").and_then(|v| v.as_u64()),
        Some(1)
    );
    // The infer request gathered features, so the store tier moved bytes.
    let store = stats.get("store").unwrap();
    assert!(store.get("feature_bytes").and_then(|v| v.as_u64()).unwrap() > 0);
    server.shutdown();
}

#[test]
fn malformed_json_is_a_typed_400() {
    let server = start(BatchPolicy::default(), HttpOptions::default());
    for bad in [
        "{nodes:[1]}",
        "",
        "[1,2",
        r#"{"nodes":"zero"}"#,
        r#"{"nodes":[1],"seed":-3}"#,
    ] {
        let (status, body) = oneshot(server.addr(), "POST", "/v1/sample", Some(bad)).unwrap();
        assert_eq!(status, 400, "body {bad:?} -> {body}");
        let err = json::parse(&body).expect("error body is valid JSON");
        assert!(
            err.get("error").and_then(|v| v.as_str()).is_some(),
            "{body}"
        );
    }
    server.shutdown();
}

#[test]
fn out_of_range_node_is_a_422_naming_the_id() {
    let server = start(BatchPolicy::default(), HttpOptions::default());
    let (status, body) = oneshot(
        server.addr(),
        "POST",
        "/v1/sample",
        Some(r#"{"nodes":[999999]}"#),
    )
    .unwrap();
    assert_eq!(status, 422, "{body}");
    let err = json::parse(&body).expect("error body is valid JSON");
    assert_eq!(
        err.get("error").and_then(|v| v.as_str()),
        Some("node_out_of_range")
    );
    let message = err.get("message").and_then(|v| v.as_str()).unwrap();
    assert!(message.contains("999999"), "{message}");
    assert!(message.contains("300"), "{message}");
    server.shutdown();
}

#[test]
fn oversized_body_is_a_413_on_the_declared_length() {
    let server = start(
        BatchPolicy::default(),
        HttpOptions {
            workers: 2,
            max_body_bytes: 64,
        },
    );
    let big = format!(r#"{{"nodes":[{}]}}"#, vec!["1"; 200].join(","));
    let (status, body) = oneshot(server.addr(), "POST", "/v1/sample", Some(&big)).unwrap();
    assert_eq!(status, 413, "{body}");
    let err = json::parse(&body).expect("error body is valid JSON");
    assert_eq!(
        err.get("error").and_then(|v| v.as_str()),
        Some("body_too_large")
    );
    assert!(
        err.get("message")
            .and_then(|v| v.as_str())
            .unwrap()
            .contains("64-byte limit"),
        "{body}"
    );
    server.shutdown();
}

#[test]
fn unknown_routes_404_and_wrong_methods_405() {
    let server = start(BatchPolicy::default(), HttpOptions::default());
    let (status, body) = oneshot(server.addr(), "GET", "/nope", None).unwrap();
    assert_eq!(status, 404, "{body}");
    assert_eq!(
        json::parse(&body)
            .unwrap()
            .get("error")
            .and_then(|v| v.as_str()),
        Some("not_found")
    );
    for (method, path) in [
        ("GET", "/v1/sample"),
        ("DELETE", "/health"),
        ("POST", "/stats"),
    ] {
        let (status, body) = oneshot(server.addr(), method, path, None).unwrap();
        assert_eq!(status, 405, "{method} {path} -> {body}");
        assert_eq!(
            json::parse(&body)
                .unwrap()
                .get("error")
                .and_then(|v| v.as_str()),
            Some("method_not_allowed")
        );
    }
    server.shutdown();
}

#[test]
fn queue_overflow_is_a_typed_429() {
    // Capacity-1 queue behind a long window: a synchronized burst of 8
    // must see some requests admitted and the rest bounced as 429s.
    let server = Arc::new(start(
        BatchPolicy {
            window: Duration::from_millis(300),
            max_batch: 1,
            queue_depth: 1,
        },
        HttpOptions::default(),
    ));
    let barrier = Arc::new(Barrier::new(8));
    let mut workers = Vec::new();
    for client in 0..8 {
        let server = Arc::clone(&server);
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            let body = format!(r#"{{"nodes":[{client}],"seed":{client}}}"#);
            barrier.wait();
            let (status, body) = oneshot(server.addr(), "POST", "/v1/sample", Some(&body)).unwrap();
            (status, body)
        }));
    }
    let outcomes: Vec<(u16, String)> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let rejected = outcomes.iter().filter(|(s, _)| *s == 429).count();
    assert!(ok >= 1, "no request got through: {outcomes:?}");
    assert!(rejected >= 1, "no request was bounced: {outcomes:?}");
    assert_eq!(ok + rejected, 8, "unexpected statuses: {outcomes:?}");
    for (status, body) in &outcomes {
        if *status == 429 {
            let err = json::parse(body).expect("429 body is valid JSON");
            assert_eq!(
                err.get("error").and_then(|v| v.as_str()),
                Some("queue_full")
            );
            assert!(
                err.get("message")
                    .and_then(|v| v.as_str())
                    .unwrap()
                    .contains("retry later"),
                "{body}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn shutdown_endpoint_releases_wait_and_drains() {
    let server = Arc::new(start(BatchPolicy::default(), HttpOptions::default()));
    let waiter = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            server.wait();
            server.shutdown();
        })
    };
    // Work lands normally, then the shutdown request is acknowledged.
    let mut conn = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = conn
        .request("POST", "/v1/sample", Some(r#"{"nodes":[1]}"#))
        .unwrap();
    assert_eq!(status, 200);
    let (status, body) = conn.request("POST", "/v1/shutdown", None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("shutting down"), "{body}");
    waiter
        .join()
        .expect("wait() returned after the endpoint fired");
    // The drained server is really gone: fresh requests cannot complete.
    assert!(oneshot(server.addr(), "GET", "/health", None).is_err());
}

#[test]
fn a_zero_shard_count_is_a_usage_error_naming_the_flag() {
    // The same usage error `reproduce --shards 0` is: refused before
    // anything is opened, never served as one device.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--shards", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--shards expects at least one device"),
        "{err}"
    );
    assert!(err.contains("usage: serve"), "{err}");
}
