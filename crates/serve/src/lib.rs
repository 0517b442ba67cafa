//! `ctxrank-serve` — the network front door for the §VI online ranker.
//!
//! The paper's Contextual Shortcuts platform is a *serving* system:
//! annotation and key-concept ranking run inside a user-facing page
//! pipeline at portal scale. Everything below the request boundary
//! already exists in this reproduction — the immutable [`Snapshot`]
//! artifact, the hot-swap [`ServiceHandle`], the batched
//! `rank_batch` API. This crate adds the boundary itself: a
//! **zero-external-dependency HTTP/1.1 server** on
//! `std::net::TcpListener` with
//!
//! * a connection [`front`] shared with the router: a thread per open
//!   connection under a **connection cap**, and a permit per executing
//!   request (sized via `CTXRANK_THREADS`, like every pool in the workspace);
//! * a **micro-batcher** that coalesces concurrent `POST /rank`
//!   requests into single `ServiceHandle::rank_batch_online` calls —
//!   one snapshot, one adjuster read, one epoch per batch, so clients
//!   can never observe a torn response across a hot-swap;
//! * **load shedding**: either bound filling yields an immediate `503`
//!   with `Retry-After`, never unbounded memory;
//! * an optional **epoch-keyed result cache** ([`cache`]) probed on
//!   the connection thread before the batcher — publishes invalidate by
//!   construction because the epoch is part of the key, so there are
//!   no TTLs and no stale reads;
//! * `GET /healthz`, `GET /metrics` (Prometheus text format), `POST
//!   /annotate`, and graceful **drain on shutdown** (stop accepting,
//!   finish queued work, close).
//!
//! See `DESIGN.md` §10 for the architecture diagram and the metrics
//! catalogue, and `examples/serve_demo.rs` for an end-to-end demo
//! binary.
//!
//! [`Snapshot`]: ctxrank_framework::Snapshot
//! [`ServiceHandle`]: ctxrank_framework::ServiceHandle

pub mod batcher;
pub mod cache;
pub mod client;
pub mod front;
pub mod http;
pub mod metrics;
pub mod server;

pub use batcher::{Batcher, RankJob, SubmitError};
pub use cache::{query_hash, ResultCache};
pub use client::{
    one_shot, request_classified, request_with_retry, ClientConfig, Conn, RequestError,
    RequestErrorKind,
};
pub use metrics::{Endpoint, Histogram, Metrics, LATENCY_BUCKETS_SECS};
pub use server::{render_rank_response, render_rank_response_sharded, ServeConfig, Server};
