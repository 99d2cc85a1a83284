//! Typed request/response/error surface of the serving API.
//!
//! Every request body is parsed through [`smartsage_core::json`] into a
//! typed request, and every failure — malformed JSON, a bad field, a
//! node the store does not hold, an overflowing queue — is a
//! [`ServeError`] variant with a fixed HTTP status and a JSON body.
//! Nothing in the request path unwraps: a client can only ever observe
//! a typed status, never a dead worker.

use smartsage_core::json::{self, JsonValue};
use smartsage_gnn::Fanouts;
use smartsage_graph::NodeId;
use smartsage_store::StoreError;
use std::fmt;

/// Upper bound on target nodes in one request — enough for any
/// mini-batch the paper runs, small enough that one request cannot
/// monopolize the batcher window.
pub const MAX_REQUEST_NODES: usize = 4096;

/// Upper bound on hops a sample request may ask for.
pub const MAX_REQUEST_HOPS: usize = 4;

/// A typed serving failure, each variant carrying its HTTP status.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The request body is not valid JSON (`400`).
    BadJson(json::JsonError),
    /// The body is valid JSON but not a valid request (`400`).
    BadRequest(String),
    /// A requested node id is outside the store's population (`422`).
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Nodes the store holds.
        num_nodes: usize,
    },
    /// The request body exceeds the configured limit (`413`).
    BodyTooLarge {
        /// Declared body length.
        got: usize,
        /// Configured limit.
        limit: usize,
    },
    /// The admission queue is at capacity (`429`) — back off and retry.
    QueueFull {
        /// The configured queue depth that was exhausted.
        depth: usize,
    },
    /// The server is draining for shutdown (`503`).
    ShuttingDown,
    /// No route for this method + path (`404`).
    NotFound,
    /// The path exists but not for this method (`405`).
    MethodNotAllowed,
    /// A store/model failure that is not the client's fault (`500`).
    Internal(String),
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadJson(_) | ServeError::BadRequest(_) => 400,
            ServeError::NotFound => 404,
            ServeError::MethodNotAllowed => 405,
            ServeError::BodyTooLarge { .. } => 413,
            ServeError::NodeOutOfRange { .. } => 422,
            ServeError::QueueFull { .. } => 429,
            ServeError::Internal(_) => 500,
            ServeError::ShuttingDown => 503,
        }
    }

    /// A stable machine-readable label for the error kind.
    pub fn label(&self) -> &'static str {
        match self {
            ServeError::BadJson(_) => "bad_json",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::NodeOutOfRange { .. } => "node_out_of_range",
            ServeError::BodyTooLarge { .. } => "body_too_large",
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::NotFound => "not_found",
            ServeError::MethodNotAllowed => "method_not_allowed",
            ServeError::Internal(_) => "internal",
        }
    }

    /// The JSON error body: `{"error": label, "message": human text}`.
    pub fn to_json(&self) -> String {
        JsonValue::obj([
            ("error", self.label().into()),
            ("message", self.to_string().as_str().into()),
        ])
        .to_string()
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadJson(e) => write!(f, "{e}"),
            ServeError::BadRequest(msg) => write!(f, "{msg}"),
            ServeError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range for a {num_nodes}-node store")
            }
            ServeError::BodyTooLarge { got, limit } => {
                write!(
                    f,
                    "request body of {got} bytes exceeds the {limit}-byte limit"
                )
            }
            ServeError::QueueFull { depth } => {
                write!(
                    f,
                    "admission queue full ({depth} requests pending); retry later"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::NotFound => write!(f, "no such route"),
            ServeError::MethodNotAllowed => write!(f, "method not allowed for this route"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        match e {
            // The one store failure that is the client's fault.
            StoreError::NodeOutOfRange { node, num_nodes } => ServeError::NodeOutOfRange {
                node: node.raw(),
                num_nodes,
            },
            other => ServeError::Internal(other.to_string()),
        }
    }
}

/// What a request wants done once it clears the batcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiRequest {
    /// `POST /v1/sample`: k-hop neighbor sampling only.
    Sample(SampleRequest),
    /// `POST /v1/infer`: sample + feature gather + GraphSage forward.
    Infer(SampleRequest),
}

impl ApiRequest {
    /// The sampling parameters, whichever the verb.
    pub fn sample(&self) -> &SampleRequest {
        match self {
            ApiRequest::Sample(s) | ApiRequest::Infer(s) => s,
        }
    }
}

/// Parsed sampling parameters shared by both verbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRequest {
    /// Target node ids.
    pub nodes: Vec<NodeId>,
    /// Seed of the request's private position RNG (default 0).
    pub seed: u64,
    /// Per-hop fan-outs; `None` uses the server default.
    pub fanouts: Option<Fanouts>,
}

impl SampleRequest {
    /// Parses a request body.
    ///
    /// Accepted shape: `{"nodes": [id, ...], "seed": n?, "fanouts":
    /// [k, ...]?}`. Every violation is a typed 400; node ids beyond
    /// the store population are caught later (422) where the
    /// population is known.
    pub fn parse(body: &str) -> Result<SampleRequest, ServeError> {
        let doc = json::parse(body).map_err(ServeError::BadJson)?;
        if !matches!(doc, JsonValue::Obj(_)) {
            return Err(ServeError::BadRequest(
                "request body must be a JSON object".to_string(),
            ));
        }
        let nodes_doc = doc
            .get("nodes")
            .ok_or_else(|| ServeError::BadRequest("missing required field 'nodes'".to_string()))?;
        let items = nodes_doc.as_array().ok_or_else(|| {
            ServeError::BadRequest("'nodes' must be an array of node ids".to_string())
        })?;
        if items.is_empty() {
            return Err(ServeError::BadRequest(
                "'nodes' must name at least one node".to_string(),
            ));
        }
        if items.len() > MAX_REQUEST_NODES {
            return Err(ServeError::BadRequest(format!(
                "'nodes' holds {} ids; the per-request limit is {MAX_REQUEST_NODES}",
                items.len()
            )));
        }
        let mut nodes = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let id = item
                .as_u64()
                .filter(|&v| v <= u32::MAX as u64)
                .ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "'nodes[{i}]' must be an unsigned 32-bit node id"
                    ))
                })?;
            nodes.push(NodeId::new(id as u32));
        }
        let seed = match doc.get("seed") {
            None => 0,
            Some(v) => v.as_u64().ok_or_else(|| {
                ServeError::BadRequest("'seed' must be an unsigned integer".to_string())
            })?,
        };
        let fanouts = match doc.get("fanouts") {
            None => None,
            Some(v) => {
                let hops = v.as_array().ok_or_else(|| {
                    ServeError::BadRequest(
                        "'fanouts' must be an array of per-hop counts".to_string(),
                    )
                })?;
                if hops.is_empty() || hops.len() > MAX_REQUEST_HOPS {
                    return Err(ServeError::BadRequest(format!(
                        "'fanouts' must name 1..={MAX_REQUEST_HOPS} hops"
                    )));
                }
                let mut per_hop = Vec::with_capacity(hops.len());
                for (i, h) in hops.iter().enumerate() {
                    let f = h
                        .as_u64()
                        .filter(|&v| (1..=1024).contains(&v))
                        .ok_or_else(|| {
                            ServeError::BadRequest(format!(
                                "'fanouts[{i}]' must be an integer in 1..=1024"
                            ))
                        })?;
                    per_hop.push(f as usize);
                }
                Some(Fanouts::new(per_hop))
            }
        };
        Ok(SampleRequest {
            nodes,
            seed,
            fanouts,
        })
    }
}

/// Renders a sampled subgraph as the `/v1/sample` response body.
pub fn sample_response(batch: &smartsage_gnn::SampledBatch) -> String {
    let hops = batch.hops.iter().map(|hop| {
        JsonValue::obj([
            ("fanout", (hop.fanout as u64).into()),
            ("neighbors", nodes(&hop.neighbors)),
        ])
    });
    JsonValue::obj([("targets", nodes(&batch.targets)), ("hops", hops.collect())]).to_string()
}

/// Renders per-target logits and predictions as the `/v1/infer`
/// response body. `logits` yields one row per target (the request's
/// rows of the logits matrix, borrowed).
pub fn infer_response<'a>(
    targets: &[NodeId],
    logits: impl Iterator<Item = &'a [f32]>,
    predictions: &[usize],
) -> String {
    // f32 → f64 is exact; the shortest-round-trip f64 form re-parses to
    // the same bits, keeping responses bit-comparable across serial and
    // coalesced execution.
    let logits = logits.map(|row| row.iter().map(|&x| f64::from(x)).collect::<JsonValue>());
    let predictions = predictions.iter().map(|&p| p as u64);
    JsonValue::obj([
        ("targets", nodes(targets)),
        ("logits", logits.collect()),
        ("predictions", predictions.collect()),
    ])
    .to_string()
}

/// Node ids as a JSON array of integers.
fn nodes(ids: &[NodeId]) -> JsonValue {
    ids.iter().map(|n| u64::from(n.raw())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = SampleRequest::parse(r#"{"nodes":[3,1,4],"seed":9,"fanouts":[5,2]}"#).unwrap();
        assert_eq!(
            r.nodes,
            vec![NodeId::new(3), NodeId::new(1), NodeId::new(4)]
        );
        assert_eq!(r.seed, 9);
        assert_eq!(r.fanouts.unwrap().as_slice(), &[5, 2]);
    }

    #[test]
    fn seed_and_fanouts_default() {
        let r = SampleRequest::parse(r#"{"nodes":[0]}"#).unwrap();
        assert_eq!(r.seed, 0);
        assert!(r.fanouts.is_none());
    }

    #[test]
    fn malformed_json_is_a_typed_400_never_a_panic() {
        for bad in ["", "{", "not json", "{\"nodes\":[1,]}", "\"str\""] {
            let e = SampleRequest::parse(bad).unwrap_err();
            assert_eq!(e.status(), 400, "{bad}");
        }
    }

    #[test]
    fn invalid_fields_are_typed_400s_naming_the_field() {
        let cases = [
            (r#"{"seed":1}"#, "nodes"),
            (r#"{"nodes":[]}"#, "nodes"),
            (r#"{"nodes":"x"}"#, "nodes"),
            (r#"{"nodes":[1.5]}"#, "nodes[0]"),
            (r#"{"nodes":[-1]}"#, "nodes[0]"),
            (r#"{"nodes":[4294967296]}"#, "nodes[0]"),
            (r#"{"nodes":[1],"seed":-2}"#, "seed"),
            (r#"{"nodes":[1],"fanouts":5}"#, "fanouts"),
            (r#"{"nodes":[1],"fanouts":[]}"#, "fanouts"),
            (r#"{"nodes":[1],"fanouts":[0]}"#, "fanouts[0]"),
            (r#"{"nodes":[1],"fanouts":[1,1,1,1,1]}"#, "fanouts"),
        ];
        for (body, field) in cases {
            let e = SampleRequest::parse(body).unwrap_err();
            assert_eq!(e.status(), 400, "{body}");
            assert!(e.to_string().contains(field), "{body}: {e}");
        }
    }

    #[test]
    fn oversized_node_lists_are_rejected() {
        let body = format!(
            "{{\"nodes\":[{}]}}",
            (0..=MAX_REQUEST_NODES)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let e = SampleRequest::parse(&body).unwrap_err();
        assert_eq!(e.status(), 400);
    }

    #[test]
    fn store_errors_map_to_statuses() {
        let e: ServeError = StoreError::NodeOutOfRange {
            node: NodeId::new(5),
            num_nodes: 3,
        }
        .into();
        assert_eq!(e.status(), 422);
        assert!(e.to_string().contains('5'), "{e}");
        let e: ServeError = StoreError::BadBuffer {
            expected: 1,
            actual: 2,
        }
        .into();
        assert_eq!(e.status(), 500);
    }

    #[test]
    fn cloned_errors_keep_status_label_and_body() {
        // The merged-execution path hands one failure to every infer
        // request in the group by cloning it; the clone must be
        // indistinguishable on the wire.
        let errors = [
            ServeError::BadJson(json::parse("{").unwrap_err()),
            ServeError::NodeOutOfRange {
                node: 9,
                num_nodes: 3,
            },
            ServeError::Internal("gather failed".to_string()),
        ];
        for e in &errors {
            let c = e.clone();
            assert_eq!(c.status(), e.status());
            assert_eq!(c.label(), e.label());
            assert_eq!(c.to_json(), e.to_json());
        }
    }

    #[test]
    fn error_bodies_are_json_with_label_and_message() {
        let e = ServeError::QueueFull { depth: 8 };
        let body = e.to_json();
        let doc = json::parse(&body).unwrap();
        assert_eq!(
            doc.get("error").and_then(JsonValue::as_str),
            Some("queue_full")
        );
        assert!(doc
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains('8'));
    }

    #[test]
    fn responses_are_valid_json() {
        use smartsage_gnn::sampler::{HopSample, SampledBatch};
        let batch = SampledBatch {
            targets: vec![NodeId::new(1), NodeId::new(2)],
            hops: vec![HopSample {
                fanout: 2,
                degrees: vec![1, 1],
                neighbors: vec![NodeId::new(3); 4],
            }],
        };
        let sample = sample_response(&batch);
        assert_eq!(
            sample,
            r#"{"targets":[1,2],"hops":[{"fanout":2,"neighbors":[3,3,3,3]}]}"#
        );
        let infer = infer_response(&batch.targets, [0.5f32, -1.0, 2.0, 0.1].chunks(2), &[1, 0]);
        // 0.1f32 widens exactly; its shortest f64 form re-parses to it.
        assert_eq!(
            infer,
            r#"{"targets":[1,2],"logits":[[0.5,-1],[2,0.10000000149011612]],"predictions":[1,0]}"#
        );
        let error = ServeError::BadRequest("bad \"x\"\n".to_string()).to_json();
        assert_eq!(error, r#"{"error":"bad_request","message":"bad \"x\"\n"}"#);
        for body in [sample, infer, error] {
            assert!(json::parse(&body).is_ok(), "{body}");
        }
    }
}
