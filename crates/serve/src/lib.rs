//! # smartsage-serve
//!
//! The online half of the SmartSAGE reproduction: an HTTP/1.1 service
//! that answers k-hop sampling (`POST /v1/sample`) and full
//! sample+gather+infer (`POST /v1/infer`) requests out of the same
//! registry-shared [`FeatureStore`](smartsage_store::FeatureStore) /
//! [`TopologyStore`](smartsage_store::TopologyStore) tiers
//! (`mem|file|isp`) the offline sweeps run through — the paper's ISP
//! architecture put in front of live traffic.
//!
//! The interesting mechanism is the **coalescing batcher**
//! ([`batcher`]): requests that arrive within a configurable
//! time/size window are merged into one
//! [`sample_group_on`](smartsage_gnn::sample_group_on) call — the one
//! group sampler, whose one-request case the offline pipeline samples
//! each batch with — so overlapping neighborhoods share degree reads,
//! page-cache hits, and ISP commands; the window's infer requests share
//! one distinct-node feature gather plus one batched GraphSage forward.
//! Merging is invisible in the responses: each request draws from its
//! own seeded RNG and every model matrix op is row-local, so samples
//! and logits are bit-identical to serial execution (asserted by the
//! conformance tests). Admission is bounded and typed — queue overflow is a 429,
//! drain-for-shutdown a 503 — and shutdown completes every admitted
//! request before the executor exits.
//!
//! Layering, front to back:
//!
//! * [`http`] — std-only HTTP/1.1 over `std::net::TcpListener` + a
//!   fixed worker pool; body framing and 404/405/413 handling.
//! * [`api`] — typed requests/responses/errors; every failure is a
//!   [`api::ServeError`] with a fixed status. No `unwrap` anywhere in
//!   the request path.
//! * [`batcher`] — the admission queue + coalescing window.
//! * [`engine`] — dataset + model + store tiers; merged execution.
//! * [`client`] — the minimal blocking client the closed-loop load
//!   harness (`serve_bench`) and the tests drive the server with.
//!
//! # Quickstart
//!
//! ```
//! use smartsage_serve::api::SampleRequest;
//! use smartsage_serve::batcher::BatchPolicy;
//! use smartsage_serve::engine::{DatasetConfig, Engine, EngineConfig};
//! use smartsage_serve::http::{HttpOptions, Server};
//! use smartsage_serve::client;
//!
//! let engine = Engine::new(EngineConfig {
//!     dataset: DatasetConfig { nodes: 256, feature_dim: 8, classes: 4, ..Default::default() },
//!     fanouts: smartsage_gnn::Fanouts::new(vec![3, 2]),
//!     hidden: 8,
//!     ..Default::default()
//! })
//! .unwrap();
//! let server = Server::start(engine, BatchPolicy::default(), HttpOptions::default(),
//!                            "127.0.0.1:0").unwrap();
//! let (status, body) = client::oneshot(
//!     server.addr(), "POST", "/v1/sample",
//!     Some(r#"{"nodes":[1,2,3],"seed":7}"#),
//! ).unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"targets\":[1,2,3]"));
//! server.shutdown();
//! ```

// Untrusted input fails as a typed error, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod api;
pub mod batcher;
pub mod client;
pub mod engine;
pub mod http;

pub use api::{ApiRequest, SampleRequest, ServeError};
pub use batcher::{BatchPolicy, BatchTiming};
pub use engine::{DatasetConfig, Engine, EngineConfig, EngineCounters};
pub use http::{HttpOptions, Server};
