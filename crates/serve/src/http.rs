//! The std-only HTTP/1.1 front end: a `TcpListener` shared by a fixed
//! pool of worker threads, each handling one keep-alive connection at
//! a time.
//!
//! Deliberately minimal (the workspace is offline — no tokio, no
//! hyper): request-line + headers + `Content-Length` bodies, JSON in
//! and out, typed errors end to end. Routes:
//!
//! | Route              | Behavior                                       |
//! |--------------------|------------------------------------------------|
//! | `GET /health`      | liveness + tier labels                         |
//! | `GET /stats`       | service counters + per-tier store stats        |
//! | `POST /v1/sample`  | k-hop sampling through the batcher             |
//! | `POST /v1/infer`   | sample + gather + GraphSage forward            |
//! | `POST /v1/shutdown`| acknowledge, then signal [`Server::wait`]      |
//!
//! Oversized bodies are rejected with a 413 *before* the body is read;
//! malformed framing — any `Transfer-Encoding` body, a repeated
//! `Content-Length` or one that is not plain digits, a header line with
//! no colon, a folded line or whitespace in its name, a head longer
//! than 16 KiB — gets a 400 and the connection closes; everything
//! after framing flows through [`crate::api`]'s typed errors.
//! `Connection` is read as a case-insensitive option list: a connection
//! closes after its response when `close` is listed, or when the
//! request is HTTP/1.0 and `keep-alive` is not.
//!
//! Each worker holds a batcher seat for the connection it serves, so
//! the batcher can start a pass as soon as every held connection is
//! waiting in it (see [`crate::batcher`]).
//!
//! There is one shutdown path, [`Server::shutdown`] (also run when a
//! [`Server`] drops, so a failed start unwinds through it): stop
//! accepting, drain the batcher, join the workers, release
//! [`Server::wait`]. A connection idle between requests closes at the
//! next read poll; one stalled mid-request is answered 503
//! `shutting_down` and closed, so no client can hold shutdown open.

use crate::api::{ApiRequest, SampleRequest, ServeError};
use crate::batcher::{BatchPolicy, Batcher, Seat};
use crate::engine::Engine;
use smartsage_core::json::JsonValue;
use smartsage_hostio::{CondvarExt, LockExt};
use smartsage_store::StoreStats;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Connection-level options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpOptions {
    /// Worker threads; each owns one connection at a time, so this
    /// bounds concurrent connections (excess waits in the OS accept
    /// backlog).
    pub workers: usize,
    /// Largest accepted request body; longer declarations get a 413
    /// without reading the body.
    pub max_body_bytes: usize,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            workers: 16,
            max_body_bytes: 1 << 20,
        }
    }
}

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// How often blocked reads wake up to notice shutdown.
const READ_POLL: Duration = Duration::from_millis(100);

struct Inner {
    engine: Arc<Mutex<Engine>>,
    batcher: Batcher,
    options: HttpOptions,
    shutting_down: AtomicBool,
    stop_requested: Mutex<bool>,
    stop_signal: Condvar,
}

impl Inner {
    /// Releases [`Server::wait`]: set the flag, then notify without
    /// holding its lock.
    fn signal_stop(&self) {
        *self.stop_requested.safe_lock() = true;
        self.stop_signal.notify_all();
    }
}

/// A running server: the listener, its worker pool, and the batcher +
/// engine behind them.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), starts the
    /// batcher executor and `options.workers` connection workers, and
    /// returns immediately. A worker that fails to spawn fails the
    /// start; dropping the half-built server shuts down the rest.
    pub fn start(
        engine: Engine,
        policy: BatchPolicy,
        options: HttpOptions,
        addr: &str,
    ) -> std::io::Result<Server> {
        assert!(options.workers > 0, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Mutex::new(engine));
        let server = Server {
            inner: Arc::new(Inner {
                engine: Arc::clone(&engine),
                batcher: Batcher::start(engine, policy)?,
                options,
                shutting_down: AtomicBool::new(false),
                stop_requested: Mutex::new(false),
                stop_signal: Condvar::new(),
            }),
            addr,
            workers: Mutex::new(Vec::with_capacity(options.workers)),
        };
        for i in 0..options.workers {
            let listener = listener.try_clone()?;
            let inner = Arc::clone(&server.inner);
            let worker = thread::Builder::new()
                .name(format!("serve-http-{i}"))
                .spawn(move || accept_loop(listener, inner))?;
            server.workers.safe_lock().push(worker);
        }
        Ok(server)
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for harnesses that read stats in-process.
    pub fn engine(&self) -> Arc<Mutex<Engine>> {
        Arc::clone(&self.inner.engine)
    }

    /// The batcher's window-wait vs service-time split, for harnesses
    /// that report engine throughput separately from coalescing idle.
    pub fn batch_timing(&self) -> crate::batcher::BatchTiming {
        self.inner.batcher.timing()
    }

    /// Blocks until a `POST /v1/shutdown` arrives (the caller then
    /// runs [`Server::shutdown`]).
    pub fn wait(&self) {
        let mut stop = self.inner.stop_requested.safe_lock();
        while !*stop {
            stop = self.inner.stop_signal.safe_wait(stop);
        }
    }

    /// Graceful shutdown: stop accepting, drain every admitted
    /// request, join the workers. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close the queue to new work and drain what was admitted.
        self.inner.batcher.close();
        // Unblock workers waiting in accept().
        let workers: Vec<_> = self.workers.safe_lock().drain(..).collect();
        for _ in 0..workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for worker in workers {
            // A worker that panicked already dropped its connection;
            // the rest of shutdown proceeds regardless.
            let _ = worker.join();
        }
        // Release anything blocked in wait().
        self.inner.signal_stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return; // the wake-up connection during shutdown
                }
                // Connection failures only end that connection; the
                // seat counts it for the batcher until then.
                let _ = handle_connection(stream, &inner, &mut inner.batcher.seat());
            }
            Err(_) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// One parsed request frame.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
    close: bool,
}

enum FrameError {
    /// The connection is done (clean EOF or I/O failure) — no response.
    Disconnect,
    /// Shutdown was signaled while the connection idled between
    /// requests — no response.
    ShuttingDown,
    /// The frame is unusable; respond with this and close.
    Reject(ServeError),
}

fn handle_connection(
    mut stream: TcpStream,
    inner: &Arc<Inner>,
    seat: &mut Seat<'_>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true)?;
    let mut buffer: Vec<u8> = Vec::new();
    loop {
        match read_request(&mut stream, &mut buffer, inner) {
            Ok(request) => {
                let close = request.close;
                let (status, body) = route(&request, inner, seat);
                respond(&mut stream, status, &body, close)?;
                seat.mark_answered();
                if close {
                    return Ok(());
                }
            }
            Err(FrameError::Disconnect) => return Ok(()),
            Err(FrameError::ShuttingDown) => return Ok(()),
            Err(FrameError::Reject(e)) => {
                respond(&mut stream, e.status(), &e.to_json(), true)?;
                return Ok(());
            }
        }
    }
}

/// Reads one request frame, polling for shutdown while idle. `buffer`
/// carries bytes already read past the previous frame (keep-alive).
fn read_request(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    inner: &Arc<Inner>,
) -> Result<HttpRequest, FrameError> {
    // The head runs through its blank line; with none in the first
    // `MAX_HEAD_BYTES` buffered, it is longer than that.
    let head_end = loop {
        match find_head_end(buffer) {
            Some(pos) if pos + 4 <= MAX_HEAD_BYTES => break pos,
            None if buffer.len() < MAX_HEAD_BYTES => fill(stream, buffer, inner)?,
            _ => {
                return Err(FrameError::Reject(ServeError::BadRequest(format!(
                    "request head exceeds {MAX_HEAD_BYTES} bytes"
                ))))
            }
        }
    };
    let head = std::str::from_utf8(&buffer[..head_end])
        .map_err(|_| FrameError::Reject(ServeError::BadRequest("non-UTF-8 request head".into())))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, http10) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_string(), p.to_string(), v == "HTTP/1.0")
        }
        _ => {
            return Err(FrameError::Reject(ServeError::BadRequest(format!(
                "malformed request line '{request_line}'"
            ))))
        }
    };
    let mut content_length = None;
    // `Connection` is a comma-separated, case-insensitive option list
    // and may repeat (RFC 9110 §7.6.1).
    let (mut close_listed, mut keep_alive_listed) = (false, false);
    for line in lines {
        // A line with no colon (a folded continuation among them) or a
        // name with whitespace in it is not a field line this server can
        // read; skipping it could skip a framing header (RFC 9112 §5.1,
        // §5.2). One 400, then the connection closes.
        let (name, value) = match line.split_once(':') {
            Some((name, value)) if !name.is_empty() && !name.contains(char::is_whitespace) => {
                (name, value)
            }
            _ => {
                return Err(FrameError::Reject(ServeError::BadRequest(format!(
                    "malformed header field line '{line}' (want 'Name: value', no whitespace \
                     in the name, no line folding)"
                ))))
            }
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Plain digits, once: a second length, or a `+13` that
            // `parse` would take, makes the body boundary a guess, and a
            // wrong guess desyncs the connection.
            let digits = value.bytes().all(|b| b.is_ascii_digit());
            match value.parse() {
                Ok(n) if digits && content_length.is_none() => content_length = Some(n),
                _ => {
                    return Err(FrameError::Reject(ServeError::BadRequest(format!(
                        "invalid or repeated Content-Length '{value}'"
                    ))))
                }
            }
        } else if name.eq_ignore_ascii_case("connection") {
            for option in value.split(',').map(str::trim) {
                close_listed |= option.eq_ignore_ascii_case("close");
                keep_alive_listed |= option.eq_ignore_ascii_case("keep-alive");
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Unframeable here: its body would be read as the next
            // request. One 400, then the connection closes.
            return Err(FrameError::Reject(ServeError::BadRequest(format!(
                "Transfer-Encoding '{value}' is not supported; send a Content-Length body"
            ))));
        }
    }
    // HTTP/1.1 persists unless `close` is listed; HTTP/1.0 closes
    // unless `keep-alive` is (RFC 9112 §9.3).
    let close = close_listed || (http10 && !keep_alive_listed);
    let content_length = content_length.unwrap_or(0);
    // Oversized bodies are rejected on the *declared* length — the
    // server never reads them in.
    if content_length > inner.options.max_body_bytes {
        return Err(FrameError::Reject(ServeError::BodyTooLarge {
            got: content_length,
            limit: inner.options.max_body_bytes,
        }));
    }
    let body_start = head_end + 4;
    while buffer.len() < body_start + content_length {
        fill(stream, buffer, inner)?;
    }
    let body = String::from_utf8(buffer[body_start..body_start + content_length].to_vec())
        .map_err(|_| FrameError::Reject(ServeError::BadRequest("non-UTF-8 request body".into())))?;
    buffer.drain(..body_start + content_length);
    Ok(HttpRequest {
        method,
        path,
        body,
        close,
    })
}

/// Appends more bytes from the socket. Every read timeout polls the
/// shutdown flag: once it is set, an idle connection (nothing
/// buffered) closes silently and a partial frame is answered 503.
fn fill(
    stream: &mut TcpStream,
    buffer: &mut Vec<u8>,
    inner: &Arc<Inner>,
) -> Result<(), FrameError> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buffer.is_empty() {
                    Err(FrameError::Disconnect)
                } else {
                    Err(FrameError::Reject(ServeError::BadRequest(
                        "connection closed mid-request".into(),
                    )))
                }
            }
            Ok(n) => {
                buffer.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return Err(if buffer.is_empty() {
                        FrameError::ShuttingDown
                    } else {
                        FrameError::Reject(ServeError::ShuttingDown)
                    });
                }
            }
            Err(_) => return Err(FrameError::Disconnect),
        }
    }
}

fn find_head_end(buffer: &[u8]) -> Option<usize> {
    buffer.windows(4).position(|w| w == b"\r\n\r\n")
}

fn route(request: &HttpRequest, inner: &Arc<Inner>, seat: &Seat<'_>) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => (200, health_json(inner)),
        ("GET", "/stats") => (200, stats_json(inner)),
        ("POST", "/v1/sample") => dispatch(seat, &request.body, ApiRequest::Sample),
        ("POST", "/v1/infer") => dispatch(seat, &request.body, ApiRequest::Infer),
        ("POST", "/v1/shutdown") => {
            // Acknowledge first; the owner thread (in `wait()`) runs
            // the actual drain + join.
            inner.signal_stop();
            let ack = JsonValue::obj([("status", "shutting down".into())]);
            (200, ack.to_string())
        }
        (_, "/health" | "/stats" | "/v1/sample" | "/v1/infer" | "/v1/shutdown") => {
            let e = ServeError::MethodNotAllowed;
            (e.status(), e.to_json())
        }
        _ => {
            let e = ServeError::NotFound;
            (e.status(), e.to_json())
        }
    }
}

/// Parses, admits, and awaits one request — every failure mode is a
/// typed [`ServeError`]; nothing here can panic a worker.
fn dispatch(
    seat: &Seat<'_>,
    body: &str,
    verb: impl FnOnce(SampleRequest) -> ApiRequest,
) -> (u16, String) {
    let outcome = SampleRequest::parse(body)
        .map(verb)
        .and_then(|request| seat.submit(request))
        .and_then(|receiver| {
            receiver
                .recv()
                // The executor drains every admitted request before
                // exiting, so a dropped channel means it died.
                .map_err(|_| ServeError::Internal("executor gone".into()))?
        });
    match outcome {
        Ok(body) => (200, body),
        Err(e) => (e.status(), e.to_json()),
    }
}

fn health_json(inner: &Arc<Inner>) -> String {
    let engine = inner.engine.safe_lock();
    JsonValue::obj([
        ("status", "ok".into()),
        ("store", engine.config().store.label().into()),
        ("graph", engine.config().topology.label().into()),
        ("nodes", (engine.num_nodes() as u64).into()),
    ])
    .to_string()
}

/// The `GET /stats` body: service counters plus per-tier I/O stats,
/// all from this engine's scoped handles.
fn stats_json(inner: &Arc<Inner>) -> String {
    let engine = inner.engine.safe_lock();
    let (c, batcher, config) = (engine.counters(), &inner.batcher, engine.config());
    let service = JsonValue::obj([
        ("requests", c.requests.into()),
        ("sample_requests", c.sample_requests.into()),
        ("infer_requests", c.infer_requests.into()),
        ("merged_batches", c.merged_batches.into()),
        ("coalesced_requests", c.coalesced_requests.into()),
        ("rejected_queue_full", batcher.rejected_queue_full().into()),
        ("queued", (batcher.queued() as u64).into()),
    ]);
    let store = tier_stats(config.store.label(), &engine.store_stats());
    let topology = tier_stats(config.topology.label(), &engine.topology_stats());
    JsonValue::obj([
        ("service", service),
        ("store", store),
        ("topology", topology),
    ])
    .to_string()
}

/// One store tier's counters.
fn tier_stats(tier: &str, s: &StoreStats) -> JsonValue {
    JsonValue::obj([
        ("tier", tier.into()),
        ("gathers", s.gathers.into()),
        ("nodes_gathered", s.nodes_gathered.into()),
        ("feature_bytes", s.feature_bytes.into()),
        ("pages_read", s.pages_read.into()),
        ("bytes_read", s.bytes_read.into()),
        ("page_hits", s.page_hits.into()),
        ("page_misses", s.page_misses.into()),
        ("device_bytes_read", s.device_bytes_read.into()),
        ("host_bytes_transferred", s.host_bytes_transferred.into()),
        ("device_ns", s.device_ns.into()),
        ("hit_rate", s.hit_rate().into()),
        ("transfer_reduction", s.transfer_reduction().into()),
    ])
}

fn respond(stream: &mut TcpStream, status: u16, body: &str, close: bool) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
