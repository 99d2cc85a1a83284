//! HTTP framing under structured mutation, over real sockets: valid
//! requests with headers dropped, repeated or re-cased, a
//! `Content-Length` off by one, the version switched between HTTP/1.0
//! and 1.1, `Connection` option lists, a space before a header's colon,
//! a folded header line, and the write split at random offsets. Every case must be answered by exactly the well-formed
//! responses its bytes call for (or a clean close), never hang, and
//! leave the server answering `GET /health`.
//!
//! One server serves every case, so a worker that a case wedged shows
//! up in the cases after it; that is why the cases are drawn in one
//! test from the vendored strategies rather than through `proptest!`.

use proptest::collection;
use proptest::prelude::*;
use proptest::TestRng;
use smartsage_core::json;
use smartsage_gnn::Fanouts;
use smartsage_serve::batcher::BatchPolicy;
use smartsage_serve::client::oneshot;
use smartsage_serve::engine::{DatasetConfig, Engine, EngineConfig};
use smartsage_serve::http::{HttpOptions, Server};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

const CASES: u32 = 96;

/// The valid requests every case starts from: `(method, path, body)`.
const BASES: [(&str, &str, &str); 4] = [
    ("GET", "/health", ""),
    ("GET", "/stats", ""),
    ("POST", "/v1/sample", r#"{"nodes":[1,2,3],"seed":7}"#),
    ("POST", "/v1/infer", r#"{"nodes":[4,5],"seed":9}"#),
];

/// `Connection` values a case may add, in assorted case and spacing.
const CONNECTION_LISTS: [&str; 7] = [
    "close",
    "keep-alive",
    "Keep-Alive",
    "keep-alive, close",
    "Upgrade , CLOSE",
    "x-custom,keep-alive",
    "x-custom",
];

/// One request as the client will send it.
struct Request {
    method: &'static str,
    path: &'static str,
    http10: bool,
    headers: Vec<(String, String)>,
    body: &'static str,
}

impl Request {
    fn base((method, path, body): (&'static str, &'static str, &'static str)) -> Request {
        let mut headers = vec![
            ("Host".to_string(), "smartsage".to_string()),
            ("Content-Type".to_string(), "application/json".to_string()),
        ];
        if method == "POST" {
            headers.push(("Content-Length".to_string(), body.len().to_string()));
        }
        Request {
            method,
            path,
            http10: false,
            headers,
            body,
        }
    }

    /// Applies mutation `kind`, steered by `pick`.
    fn mutate(&mut self, kind: u8, pick: u64) {
        let at = (pick as usize) % self.headers.len().max(1);
        match kind {
            0 if !self.headers.is_empty() => {
                self.headers.remove(at);
            }
            1 if !self.headers.is_empty() => {
                let repeated = self.headers[at].clone();
                self.headers.push(repeated);
            }
            2 if !self.headers.is_empty() => {
                let name = &mut self.headers[at].0;
                *name = name
                    .chars()
                    .enumerate()
                    .map(|(i, c)| {
                        if pick >> (i % 64) & 1 == 1 {
                            c.to_ascii_uppercase()
                        } else {
                            c.to_ascii_lowercase()
                        }
                    })
                    .collect();
            }
            3 => {
                let length = self
                    .headers
                    .iter_mut()
                    .find(|(name, _)| name.eq_ignore_ascii_case("content-length"));
                match length {
                    Some((_, value)) => {
                        let n: usize = value.parse().unwrap_or(0);
                        let shifted = if pick & 1 == 1 {
                            n + 1
                        } else {
                            n.saturating_sub(1)
                        };
                        *value = shifted.to_string();
                    }
                    None => self.headers.push(("Content-Length".into(), "1".into())),
                }
            }
            4 => self.http10 = !self.http10,
            5 if !self.headers.is_empty() => self.headers[at].0.push(' '),
            6 if !self.headers.is_empty() => self.headers[at].1.push_str("\r\n folded"),
            _ => {
                let list = CONNECTION_LISTS[(pick as usize) % CONNECTION_LISTS.len()];
                self.headers
                    .push(("Connection".to_string(), list.to_string()));
            }
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let version = if self.http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut text = format!("{} {} {version}\r\n", self.method, self.path);
        for (name, value) in &self.headers {
            text.push_str(&format!("{name}: {value}\r\n"));
        }
        text.push_str("\r\n");
        text.push_str(self.body);
        text.into_bytes()
    }

    fn values<'a>(&'a self, header: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.headers
            .iter()
            .filter(move |(name, _)| name.eq_ignore_ascii_case(header))
            .map(|(_, value)| value.as_str())
    }

    /// The `(status, closes)` of each response this request's bytes
    /// call for, read the way RFC 9112 frames them.
    fn expected(&self) -> Vec<(u16, bool)> {
        if self
            .headers
            .iter()
            .any(|(name, value)| name.contains(' ') || value.contains("\r\n"))
        {
            return vec![(400, true)]; // a field line the server cannot read
        }
        let lengths: Vec<usize> = self
            .values("content-length")
            .map(|v| v.parse().unwrap())
            .collect();
        if lengths.len() > 1 {
            return vec![(400, true)]; // an ambiguous frame: rejected
        }
        let declared = lengths.first().copied().unwrap_or(0);
        if declared > self.body.len() {
            return vec![(400, true)]; // the client's close cut the body short
        }
        let options: Vec<String> = self
            .values("connection")
            .flat_map(|v| v.split(','))
            .map(|o| o.trim().to_ascii_lowercase())
            .collect();
        let listed = |option: &str| options.iter().any(|o| o == option);
        let close = listed("close") || (self.http10 && !listed("keep-alive"));
        let status = if declared == self.body.len() {
            200
        } else {
            400
        };
        let mut responses = vec![(status, close)];
        if !close && declared < self.body.len() {
            // The unread body bytes are the next request, cut short.
            responses.push((400, true));
        }
        responses
    }
}

/// Splits `text` into well-formed responses: `(status, closes)` each.
/// `None` on anything else, including bytes left over.
fn parse_responses(mut text: &str) -> Option<Vec<(u16, bool)>> {
    let mut responses = Vec::new();
    while !text.is_empty() {
        let (head, rest) = text.split_once("\r\n\r\n")?;
        let mut lines = head.split("\r\n");
        let mut status_line = lines.next()?.splitn(3, ' ');
        let (version, status, reason) = (
            status_line.next()?,
            status_line.next()?,
            status_line.next()?,
        );
        if version != "HTTP/1.1" || reason.is_empty() {
            return None;
        }
        let (mut length, mut closes) = (None, None);
        for line in lines {
            match line.split_once(": ")? {
                ("Content-Length", value) => length = value.parse::<usize>().ok(),
                ("Connection", "close") => closes = Some(true),
                ("Connection", "keep-alive") => closes = Some(false),
                _ => {}
            }
        }
        let length = length?;
        json::parse(rest.get(..length)?).ok()?;
        responses.push((status.parse().ok()?, closes?));
        text = &rest[length..];
    }
    Some(responses)
}

/// Sends `bytes` in pieces cut at `splits`, half-closes, and reads
/// until the server closes. A reset after the server's close (it had
/// request bytes unread) is a close too; a read timeout is a hang.
fn exchange(server: &Server, bytes: &[u8], splits: &[u16]) -> String {
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut cuts: Vec<usize> = splits.iter().map(|&s| s as usize % bytes.len()).collect();
    cuts.extend([0, bytes.len()]);
    cuts.sort_unstable();
    for piece in cuts.windows(2) {
        if conn.write_all(&bytes[piece[0]..piece[1]]).is_err() {
            break; // the server already answered and closed
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = conn.shutdown(Shutdown::Write);
    let mut reply = Vec::new();
    match conn.read_to_end(&mut reply) {
        Err(e) if e.kind() != ErrorKind::ConnectionReset => panic!(
            "no close within 5 s ({e}) after: {}",
            String::from_utf8_lossy(&reply)
        ),
        _ => String::from_utf8(reply).expect("a UTF-8 reply"),
    }
}

#[test]
fn mutated_requests_get_well_formed_answers_and_the_server_keeps_serving() {
    let engine = Engine::new(EngineConfig {
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
    .expect("tiny engine");
    let options = HttpOptions {
        workers: 2,
        ..HttpOptions::default()
    };
    let server = Server::start(engine, BatchPolicy::default(), options, "127.0.0.1:0")
        .expect("bind ephemeral port");
    let mut rng = TestRng::from_name(concat!(module_path!(), "::mutated_requests"));
    let mutations = collection::vec((0u8..8, any::<u64>()), 1..5);
    let splits = collection::vec(any::<u16>(), 0..4);
    for case in 0..CASES {
        let mut request = Request::base(BASES[(0..BASES.len()).sample(&mut rng)]);
        for (kind, pick) in mutations.sample(&mut rng) {
            request.mutate(kind, pick);
        }
        let bytes = request.bytes();
        let reply = exchange(&server, &bytes, &splits.sample(&mut rng));
        let sent = String::from_utf8_lossy(&bytes);
        let got = parse_responses(&reply)
            .unwrap_or_else(|| panic!("case {case}: malformed reply to {sent:?}: {reply:?}"));
        assert_eq!(
            got,
            request.expected(),
            "case {case}: {sent:?} -> {reply:?}"
        );
        let (status, body) = oneshot(server.addr(), "GET", "/health", None).unwrap();
        assert_eq!(status, 200, "case {case}: /health after {sent:?}: {body}");
    }
    server.shutdown();
}
