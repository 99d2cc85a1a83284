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
fn a_closed_loop_of_held_connections_does_not_wait_out_the_grace_slice() {
    // Two keep-alive clients, each sending its next request only after
    // its last answer: once both are queued nothing else can arrive,
    // so a pass must not linger a 1 s grace slice for more.
    let window = Duration::from_secs(4);
    let policy = BatchPolicy {
        window,
        ..BatchPolicy::default()
    };
    let server = start(policy, HttpOptions::default());
    let bodies: Vec<Vec<String>> = (0..2)
        .map(|client| {
            (0..10)
                .map(|i| format!(r#"{{"nodes":[{client},{}],"seed":{i}}}"#, 20 + 10 * i))
                .collect()
        })
        .collect();
    let barrier = Barrier::new(2);
    let started = std::time::Instant::now();
    let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = bodies
            .iter()
            .map(|bodies| {
                let (addr, barrier) = (server.addr(), &barrier);
                scope.spawn(move || {
                    let mut conn = HttpClient::connect(addr).unwrap();
                    barrier.wait();
                    bodies
                        .iter()
                        .map(|body| {
                            let (status, reply) =
                                conn.request("POST", "/v1/infer", Some(body)).unwrap();
                            assert_eq!(status, 200, "{reply}");
                            reply
                        })
                        .collect()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < window,
        "20 requests took {elapsed:?}: passes lingered for requests that could not arrive"
    );
    let (_, stats) = oneshot(server.addr(), "GET", "/stats", None).unwrap();
    let stats = json::parse(&stats).unwrap();
    let coalesced = stats
        .get("service")
        .and_then(|s| s.get("coalesced_requests"))
        .and_then(|v| v.as_u64());
    assert!(coalesced > Some(0), "{stats:?}");
    server.shutdown();

    let serial = start(BatchPolicy::serial(), HttpOptions::default());
    let mut conn = HttpClient::connect(serial.addr()).unwrap();
    for (client, replies) in bodies.iter().zip(&replies) {
        for (body, reply) in client.iter().zip(replies) {
            let (status, expected) = conn.request("POST", "/v1/infer", Some(body)).unwrap();
            assert_eq!(status, 200, "{expected}");
            assert_eq!(reply, &expected, "merged response differs for {body}");
        }
    }
    serial.shutdown();
}

/// Writes `request` on a fresh connection and reads until the server
/// closes it, failing if that takes longer than `timeout`. A server
/// that closes with request bytes still unread resets the connection
/// after its response, which is a close too.
fn send_and_read_to_close(server: &Server, request: &[u8], timeout: Duration) -> String {
    use std::io::{ErrorKind, Read, Write};
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(timeout)).unwrap();
    conn.write_all(request).unwrap();
    let mut response = Vec::new();
    match conn.read_to_end(&mut response) {
        Err(e) if e.kind() != ErrorKind::ConnectionReset => panic!(
            "the server kept the connection open ({e}) after: {}",
            String::from_utf8_lossy(&response)
        ),
        _ => String::from_utf8(response).unwrap(),
    }
}

#[test]
fn http10_without_keep_alive_and_a_close_option_both_close_after_the_response() {
    let server = start(BatchPolicy::default(), HttpOptions::default());
    for head in [
        "GET /health HTTP/1.0\r\n\r\n",
        "GET /health HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
        "GET /health HTTP/1.1\r\nconnection: Upgrade , CLOSE\r\n\r\n",
    ] {
        let response = send_and_read_to_close(&server, head.as_bytes(), Duration::from_secs(2));
        assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
        assert!(response.starts_with("HTTP/1.1 200"), "{head:?}: {response}");
        assert!(response.contains("Connection: close\r\n"), "{response}");
    }
    // HTTP/1.0 that asks for keep-alive keeps it: both answers arrive
    // on one connection.
    let mut conn = HttpClient::connect(server.addr()).unwrap();
    for _ in 0..2 {
        let (status, body) = conn.request("GET", "/health", None).unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let response = send_and_read_to_close(
        &server,
        b"GET /health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n\
          GET /health HTTP/1.0\r\n\r\n",
        Duration::from_secs(2),
    );
    assert_eq!(response.matches("HTTP/1.1 200").count(), 2, "{response}");
    assert!(
        response.contains("Connection: keep-alive\r\n"),
        "{response}"
    );
    server.shutdown();
}

#[test]
fn a_request_head_past_the_limit_is_a_400_naming_it() {
    let server = start(BatchPolicy::default(), HttpOptions::default());
    for (pad, status) in [(18_000, "HTTP/1.1 400"), (15_000, "HTTP/1.1 200")] {
        let head = format!(
            "GET /health HTTP/1.1\r\nX-Pad: {}\r\nConnection: close\r\n\r\n",
            "a".repeat(pad)
        );
        let response = send_and_read_to_close(&server, head.as_bytes(), Duration::from_secs(5));
        assert!(response.starts_with(status), "{pad}: {response}");
        if status.ends_with("400") {
            assert!(
                response.contains("request head exceeds 16384 bytes"),
                "{response}"
            );
        }
    }
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
fn a_chunked_request_gets_exactly_one_400_naming_the_header() {
    use std::io::{Read, Write};
    let server = start(BatchPolicy::default(), HttpOptions::default());
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    let body = r#"{"nodes":[1,2,3,4,5,6,7,8,9,10]}"#;
    let request = format!(
        "POST /v1/sample HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{body}\r\n0\r\n\r\n",
        body.len()
    );
    conn.write_all(request.as_bytes()).unwrap();
    // Keep-alive was not asked to end: only the server closing the
    // connection ends this read.
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("Transfer-Encoding"), "{response}");
    server.shutdown();
}

#[test]
fn an_ambiguous_content_length_gets_exactly_one_400_naming_the_header() {
    use std::io::{Read, Write};
    let server = start(BatchPolicy::default(), HttpOptions::default());
    let body = r#"{"nodes":[1]}"#;
    for lengths in [
        format!("Content-Length: {}\r\nContent-Length: 2\r\n", body.len()),
        format!("Content-Length: +{}\r\n", body.len()),
    ] {
        let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
        // A server that guessed a length keeps the connection open, so
        // a timeout ends the read there (with two answers in hand).
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let request =
            format!("POST /v1/sample HTTP/1.1\r\n{lengths}\r\n{body}GET /health HTTP/1.1\r\n\r\n");
        conn.write_all(request.as_bytes()).unwrap();
        let mut response = Vec::new();
        let _ = conn.read_to_end(&mut response);
        let response = String::from_utf8_lossy(&response);
        assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        // The head carries its own Content-Length; the body must name it.
        let (_, reply) = response.split_once("\r\n\r\n").unwrap();
        assert!(reply.contains("Content-Length"), "{response}");
    }
    server.shutdown();
}

#[test]
fn a_malformed_header_field_line_gets_exactly_one_400_then_a_close() {
    let server = start(BatchPolicy::default(), HttpOptions::default());
    let body = r#"{"nodes":[1]}"#;
    // Whitespace before the colon (RFC 9112 §5.1) and a folded line
    // (§5.2). A server that skips either line reads the body as the
    // next request and answers twice.
    for fields in [
        format!("Content-Length : {}\r\n", body.len()),
        format!("Content-Length: {}\r\nX-Note: a\r\n b\r\n", body.len()),
    ] {
        let request =
            format!("POST /v1/sample HTTP/1.1\r\n{fields}\r\n{body}GET /health HTTP/1.1\r\n\r\n");
        let response = send_and_read_to_close(&server, request.as_bytes(), Duration::from_secs(5));
        assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(
            response.contains("malformed header field line"),
            "{response}"
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
fn an_oversized_sample_tree_is_a_400_naming_the_limit_and_the_server_keeps_serving() {
    // Each request is within the parser's per-field limits, but its tree
    // (billions of picks) would take the host's memory down with it.
    let server = start(BatchPolicy::default(), HttpOptions::default());
    let nodes = vec!["1"; 4096].join(",");
    for (path, body) in [
        (
            "/v1/sample",
            r#"{"nodes":[0],"fanouts":[1024,1024,1024,1024]}"#.to_string(),
        ),
        (
            "/v1/infer",
            format!(r#"{{"nodes":[{nodes}],"fanouts":[1024,1024]}}"#),
        ),
    ] {
        let (status, reply) = oneshot(server.addr(), "POST", path, Some(&body)).unwrap();
        assert_eq!(status, 400, "{path} -> {reply}");
        let err = json::parse(&reply).expect("error body is valid JSON");
        assert_eq!(
            err.get("error").and_then(|v| v.as_str()),
            Some("bad_request")
        );
        let message = err.get("message").and_then(|v| v.as_str()).unwrap();
        assert!(message.contains("limit is 1126400"), "{message}");
    }
    let (status, body) = oneshot(server.addr(), "GET", "/health", None).unwrap();
    assert_eq!(status, 200, "{body}");
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
fn a_half_sent_request_cannot_hold_shutdown_open() {
    use std::io::{Read, Write};
    let server = start(BatchPolicy::default(), HttpOptions::default());
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    // A whole request, then half of the next one on the same
    // keep-alive connection: the first response byte proves a worker
    // owns the connection with the partial head behind it.
    stalled
        .write_all(b"GET /health HTTP/1.1\r\n\r\nPOST /v1/sample HTTP/1.1\r\n")
        .unwrap();
    let mut first = [0u8; 1];
    stalled.read_exact(&mut first).unwrap();
    let (done, returned) = std::sync::mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    returned
        .recv_timeout(Duration::from_secs(3))
        .expect("shutdown returns within 3 s with a half-sent request open");
    shutdown.join().unwrap();
    let mut rest = String::new();
    stalled.read_to_string(&mut rest).unwrap();
    // `rest` is the 200's tail (its first byte was read above), then
    // the stalled request's response.
    let stalled_response = &rest[rest.find("HTTP/1.1 ").unwrap()..];
    assert!(
        stalled_response.starts_with("HTTP/1.1 503"),
        "{stalled_response}"
    );
    assert!(
        stalled_response.contains("shutting_down"),
        "{stalled_response}"
    );
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

#[test]
fn an_unknown_tier_is_a_usage_error_naming_the_flag() {
    for flag in ["--store", "--graph"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([flag, "disk"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(out.stdout.is_empty());
        assert!(
            err.contains(&format!("{flag} must be mem|file|isp, got 'disk'")),
            "{err}"
        );
    }
}

#[test]
fn zero_sizes_and_counts_are_usage_errors_naming_the_flag() {
    // Past the flag parser each zero would panic (exit 101) in the HTTP
    // pool, the batcher, the dataset generator or the paged file — or,
    // for `--hidden`, serve all-zero logits.
    let refused = |args: &[&str], wanted: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(err.contains(wanted), "{err}");
        assert!(err.contains("usage: serve"), "{err}");
    };
    for args in [
        &["--workers", "0"][..],
        &["--max-batch", "0"],
        &["--queue-depth", "0"],
        &["--dim", "0"],
        &["--classes", "0"],
        &["--nodes", "0"],
        &["--hidden", "0"],
        &["--store", "file", "--page-bytes", "0"],
    ] {
        let flag = args[args.len() - 2];
        refused(args, &format!("{flag} must be at least 1"));
    }
    // Refused by the flag parser itself, before the dataset is built:
    // an out-of-range port, a flag where a value belongs, a repeat.
    for (args, wanted) in [
        (
            &["--port", "70000"][..],
            "--port must be at most 65535, got 70000",
        ),
        (&["--addr", "--port", "0"], "--addr needs a value"),
        (
            &["--nodes", "10", "--nodes", "20"],
            "--nodes given more than once",
        ),
    ] {
        refused(args, wanted);
    }
    // A degree the generator cannot build a graph at: its assert, or an
    // allocation failure at `inf`.
    for degree in ["0", "-3", "nan", "inf"] {
        refused(
            &["--avg-degree", degree],
            &format!("--avg-degree wants a finite number above 0, got '{degree}'"),
        );
    }
}
