//! The shard/single-process server: the [`Front`] with a handler for
//! `/rank` (cache, micro-batcher), `/healthz`, `/metrics`, `/annotate`,
//! `/feedback` and the epoch barrier.
//!
//! ```text
//!            ┌───────────┐ open < cap  ┌─────────────────┐ request  ┌──────────┐
//!  clients ─▶│ acceptor  │────────────▶│ thread per      │── read ─▶│ W permits│──▶ /healthz /metrics /annotate
//!            │ (1 thread)│ else 503    │ connection      │ in full  │          │──┐ /rank: cache hit answered here
//!            └───────────┘             └─────────────────┘          └──────────┘  │ miss ▼ (permit given back)
//!                                                                                 │
//!                                         bounded job  ┌──────────┐  rank_batch_online
//!                                         queue ──────▶│ batcher  │────▶ one snapshot,
//!                                         full? 503    │ (1 thread)     one epoch/batch
//!                                                      └──────────┘
//! ```
//!
//! Open connections and the batcher's queue are both bounded; once
//! either fills, the server sheds with `503` + `Retry-After` instead of
//! growing memory — admission control at the door, as in any serving
//! stack sized for peak. `W` follows `ctxrank_parallel::num_threads()`
//! (the `CTXRANK_THREADS` override), the same plumbing every parallel
//! path in the workspace uses.
//!
//! [`Front`]: crate::front::Front

use crate::batcher::{Batcher, RankJob, SubmitError};
use crate::cache::{query_hash, ResultCache};
use crate::front::{Front, Handler, Writer};
use crate::http::{Request, Response};
use crate::metrics::{Endpoint, Metrics};
use ctxrank_framework::partition::{EpochBarrier, ShardBounds};
use ctxrank_framework::{load_snapshot, ServiceHandle};
use serde_json::json;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs. `Default` is sized for a small box; every field exists
/// so tests can force the interesting regimes (tiny queues for
/// shedding, batch size 1 for the unbatched baseline).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Requests executing at once (permits a connection takes after
    /// reading a whole request and gives back once the response is
    /// written or handed to the batcher). 0 means
    /// `ctxrank_parallel::num_threads()`.
    pub workers: usize,
    /// Bound on open connections, idle ones included; above it the
    /// acceptor answers 503 + `Retry-After` and counts a shed.
    pub conn_backlog: usize,
    /// Bound on rank jobs queued in the micro-batcher.
    pub queue_capacity: usize,
    /// Micro-batch size cap fed to `rank_batch_online`.
    pub batch_max_size: usize,
    /// How long the batcher holds an underfull batch open.
    pub batch_max_wait: Duration,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
    /// Idle keep-alive read timeout before a connection is closed.
    pub keep_alive_timeout: Duration,
    /// Total time a request may take from its first byte to the end of
    /// its body. This — not the socket timeout — is what stops a
    /// slowloris client: each dripped byte lands inside its own socket
    /// window, but the sum cannot exceed this deadline. Exceeding it
    /// answers 408 and closes.
    pub request_deadline: Duration,
    /// Expose `POST /admin/shutdown` (used by the demo binary and CI to
    /// stop the server without signals).
    pub enable_shutdown_endpoint: bool,
    /// Byte budget for the epoch-keyed result cache. 0 disables the
    /// cache entirely (every `/rank` goes through the batcher), which
    /// is the default so batching tests keep exercising the ranker, not
    /// the cache. `serve_demo`, the repo benchmark and production
    /// configs turn it on.
    pub cache_capacity_bytes: usize,
    /// Mutex stripes in the result cache (contention control; the byte
    /// budget is split evenly across shards).
    pub cache_shards: usize,
    /// Serve one partition of a sharded snapshot. Publishes the bounds
    /// in `/healthz` and adds an `"owned"` flag to every `/rank` result
    /// so the scatter-gather router can keep each candidate's owning
    /// shard's entry and discard the rest.
    pub shard: Option<ShardBounds>,
    /// Expose `POST /admin/epoch/{prepare,commit,abort}` — the shard
    /// side of the two-phase publish barrier. Off by default: prepare
    /// loads a snapshot from a caller-named local directory, which only
    /// a deployment that runs the barrier should expose.
    pub enable_epoch_admin: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            conn_backlog: 256,
            queue_capacity: 1024,
            batch_max_size: 16,
            batch_max_wait: Duration::from_micros(500),
            retry_after_secs: 1,
            keep_alive_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            enable_shutdown_endpoint: false,
            cache_capacity_bytes: 0,
            cache_shards: 16,
            shard: None,
            enable_epoch_admin: false,
        }
    }
}

impl ServeConfig {
    /// `self` with the result cache enabled at `capacity_bytes`.
    pub fn with_cache(mut self, capacity_bytes: usize) -> Self {
        self.cache_capacity_bytes = capacity_bytes;
        self
    }

    /// `self` configured as one shard of a partition: bounds published,
    /// owned flags rendered, epoch barrier admin endpoints enabled.
    pub fn as_shard(mut self, bounds: ShardBounds) -> Self {
        self.shard = Some(bounds);
        self.enable_epoch_admin = true;
        self
    }
}

struct Inner {
    handle: Arc<ServiceHandle>,
    metrics: Arc<Metrics>,
    /// Epoch-keyed result cache, `None` when disabled. Probed on the
    /// connection thread before submitting to the batcher; filled by the
    /// batcher with rendered bodies.
    cache: Option<Arc<ResultCache>>,
    batcher: Batcher,
    config: ServeConfig,
    /// Two-phase publish staging (`/admin/epoch/*`); idle unless
    /// `enable_epoch_admin` routes to it.
    barrier: EpochBarrier,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// aborts the threads unjoined; call `shutdown` for a graceful drain.
pub struct Server {
    inner: Arc<Inner>,
    front: Front,
}

impl Server {
    /// Bind, start the batcher and the connection front, and start
    /// serving `handle`. Returns as soon as the listener is live.
    pub fn start(handle: Arc<ServiceHandle>, config: ServeConfig) -> std::io::Result<Server> {
        let metrics = Arc::new(Metrics::default());
        let cache = (config.cache_capacity_bytes > 0).then(|| {
            Arc::new(ResultCache::new(
                config.cache_capacity_bytes,
                config.cache_shards,
            ))
        });
        let batcher = Batcher::start(
            Arc::clone(&handle),
            Arc::clone(&metrics),
            cache.clone(),
            config.queue_capacity,
            config.batch_max_size,
            config.batch_max_wait,
            config.shard.is_some(),
        );
        let inner = Arc::new(Inner {
            handle,
            metrics,
            cache,
            batcher,
            config,
            barrier: EpochBarrier::new(),
        });
        let permits = match inner.config.workers {
            0 => ctxrank_parallel::num_threads(),
            workers => workers,
        };
        let front = Front::start(&inner.config, Some(permits), Arc::clone(&inner) as _)
            .inspect_err(|_| inner.batcher.shutdown())?;
        Ok(Server { inner, front })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The metric registry (scraped by `/metrics`; also handy in
    /// tests/benches).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Block until a client calls `POST /admin/shutdown` (requires
    /// `enable_shutdown_endpoint`).
    pub fn wait_for_shutdown_request(&self) {
        self.front.wait_for_shutdown_request();
    }

    /// Graceful drain: stop accepting, let every connection finish its
    /// request in flight, rank everything already in the batcher, join
    /// all threads.
    pub fn shutdown(self) {
        self.front.shutdown();
        // No submitters remain; drain the batcher's queue and join it.
        self.inner.batcher.shutdown();
    }
}

impl Handler for Inner {
    fn handle(&self, req: &Request, keep_alive: bool, writer: &Writer) -> Option<Response> {
        let start = Instant::now();
        let (endpoint, resp) = if req.method == "POST" && req.path == "/rank" {
            (Endpoint::Rank, self.rank(req, keep_alive, writer, start)?)
        } else {
            dispatch(self, req)
        };
        self.metrics
            .record_request(endpoint, start.elapsed().as_secs_f64());
        Some(resp)
    }

    fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }
}

impl Inner {
    /// `/rank`: answer a cache hit (or a refusal) here, or hand the
    /// request to the batcher, which renders and writes the response and
    /// records the request once the batch completes (`None`). The connection thread goes straight back to
    /// reading — a well-behaved client will not send its next request
    /// until the rank response arrives. (HTTP/1.1 pipelining of /rank
    /// with other endpoints is not supported; bytes still never tear
    /// because every write holds the connection's writer mutex.)
    fn rank(
        &self,
        req: &Request,
        keep_alive: bool,
        writer: &Writer,
        start: Instant,
    ) -> Option<Response> {
        let (text, candidates) = match parse_rank_body(&req.body) {
            Ok(parsed) => parsed,
            Err(detail) => return Some(Response::json(400, &json!({"error": detail}))),
        };
        // Probe the epoch-keyed cache before the batcher: a hit answers
        // on the connection thread with the body the ranker rendered for
        // this exact (epoch, query) — zero batcher, zero ranker work. The
        // epoch read is one atomic load; because it is part of the key, a
        // publish landing between the read and the write cannot produce a
        // stale pairing (the body was rendered by the epoch it claims).
        let qhash = self.cache.as_ref().map(|_| query_hash(&text, &candidates));
        if let (Some(cache), Some(qhash)) = (self.cache.as_ref(), qhash) {
            if let Some(body) = cache.get(self.handle.epoch(), qhash, &self.metrics) {
                return Some(Response {
                    status: 200,
                    content_type: "application/json",
                    body: body.to_vec(),
                    extra: Vec::new(),
                });
            }
        }
        let job = RankJob {
            text,
            candidates,
            enqueued: start,
            writer: Arc::clone(writer),
            keep_alive,
            query_hash: qhash,
        };
        // On success the batcher owns the response (and the request
        // metric, recorded when it writes).
        let err = self.batcher.submit(&self.metrics, job).err()?;
        self.metrics.record_shed();
        let detail = match err {
            SubmitError::QueueFull => "rank queue full",
            SubmitError::ShuttingDown => "shutting down",
        };
        Some(
            Response::json(503, &json!({"error": detail}))
                .with_header("retry-after", self.config.retry_after_secs.to_string()),
        )
    }
}

fn dispatch(inner: &Inner, req: &Request) -> (Endpoint, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let mut health = json!({
                "status": "ok",
                "epoch": inner.handle.epoch(),
                "queue_depth": inner.metrics.queue_depth(),
            });
            // Shard mode publishes the partition bounds and barrier
            // state so the router (and operators) can see what this
            // process owns and whether a publish is in flight.
            if let (serde_json::Value::Map(entries), Some(bounds)) =
                (&mut health, inner.config.shard)
            {
                entries.push(("shard".to_string(), json!(bounds.shard)));
                entries.push(("shards".to_string(), json!(bounds.shards)));
                entries.push(("tid_lo".to_string(), json!(bounds.tid_lo)));
                entries.push(("tid_hi".to_string(), json!(bounds.tid_hi)));
                entries.push((
                    "staged_epoch".to_string(),
                    match inner.barrier.staged_epoch() {
                        Some(e) => json!(e),
                        None => serde_json::Value::Null,
                    },
                ));
            }
            (Endpoint::Healthz, Response::json(200, &health))
        }
        ("GET", "/metrics") => {
            // Refresh the propensity-coverage gauge from the live
            // handle so a scrape always reflects the installed table.
            inner
                .metrics
                .set_propensity_ranks(inner.handle.propensity_ranks() as u64);
            let text = inner.metrics.render_prometheus(inner.handle.epoch());
            (Endpoint::Metrics, Response::text(200, text))
        }
        ("POST", "/annotate") => (Endpoint::Annotate, handle_annotate(inner, &req.body)),
        ("POST", "/feedback") => (Endpoint::Feedback, handle_feedback(inner, &req.body)),
        // The shard side of the two-phase publish. Prepare loads epoch
        // E+1 from a directory into barrier staging without touching
        // traffic; commit flips it into the ServiceHandle atomically; abort
        // drops a staging. A driver brings every shard through prepare
        // before any commit, so the mixed-epoch window collapses to the
        // commit fan-out (which the router retries across).
        ("POST", "/admin/epoch/prepare") if inner.config.enable_epoch_admin => {
            (Endpoint::Other, handle_epoch_prepare(inner, &req.body))
        }
        ("POST", "/admin/epoch/commit") if inner.config.enable_epoch_admin => {
            (Endpoint::Other, handle_epoch_commit(inner, &req.body))
        }
        ("POST", "/admin/epoch/abort") if inner.config.enable_epoch_admin => {
            let aborted = inner.barrier.abort();
            let resp = Response::json(
                200,
                &json!({
                    "aborted": match aborted {
                        Some(e) => json!(e),
                        None => serde_json::Value::Null,
                    },
                }),
            );
            (Endpoint::Other, resp)
        }
        ("GET" | "POST", _) => (
            Endpoint::Other,
            Response::json(404, &json!({"error": "no such endpoint"})),
        ),
        _ => (
            Endpoint::Other,
            Response::json(405, &json!({"error": "method not allowed"})),
        ),
    }
}

/// `POST /admin/epoch/prepare {"dir": ..., "epoch": E}` — load the
/// staged snapshot from `dir` and hold it in the barrier. The epoch in
/// the body is a cross-check against the artifact on disk: a driver
/// that points a shard at the wrong directory finds out here, not at
/// commit.
fn handle_epoch_prepare(inner: &Inner, body: &[u8]) -> Response {
    let value: serde_json::Value = match serde_json::from_slice(body) {
        Ok(v) => v,
        Err(_) => return Response::json(400, &json!({"error": "body is not valid JSON"})),
    };
    let Some(dir) = value.get("dir").and_then(|d| d.as_str()) else {
        return Response::json(400, &json!({"error": "missing string field \"dir\""}));
    };
    let Some(epoch) = value.get("epoch").and_then(|e| e.as_u64()) else {
        return Response::json(400, &json!({"error": "missing integer field \"epoch\""}));
    };
    let staged = match load_snapshot(std::path::Path::new(dir)) {
        Ok(s) => s,
        Err(e) => {
            return Response::json(409, &json!({"error": format!("load failed: {e}")}));
        }
    };
    if staged.epoch() != epoch {
        return Response::json(
            409,
            &json!({
                "error": format!(
                    "artifact in {dir} is epoch {}, prepare named {epoch}",
                    staged.epoch()
                ),
            }),
        );
    }
    match inner.barrier.prepare(staged, inner.handle.epoch()) {
        Ok(e) => Response::json(200, &json!({"staged": e})),
        Err(e) => Response::json(409, &json!({"error": e.to_string()})),
    }
}

/// `POST /admin/epoch/commit {"epoch": E}` — atomically flip the staged
/// snapshot into the serving `ServiceHandle`.
fn handle_epoch_commit(inner: &Inner, body: &[u8]) -> Response {
    let value: serde_json::Value = match serde_json::from_slice(body) {
        Ok(v) => v,
        Err(_) => return Response::json(400, &json!({"error": "body is not valid JSON"})),
    };
    let Some(epoch) = value.get("epoch").and_then(|e| e.as_u64()) else {
        return Response::json(400, &json!({"error": "missing integer field \"epoch\""}));
    };
    match inner.barrier.commit(epoch) {
        Ok(snapshot) => {
            let epoch = inner.handle.publish(snapshot);
            Response::json(200, &json!({"status": "committed", "epoch": epoch}))
        }
        Err(e) => Response::json(409, &json!({"error": e.to_string()})),
    }
}

/// Append `s` as a JSON string literal, escaping per RFC 8259.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite float (model scores are always finite; a NaN from a
/// future bug degrades to `null` rather than invalid JSON).
fn push_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&x.to_string());
    } else {
        out.push_str("null");
    }
}

/// Parse `{"text": ..., "candidates": [...]}`. Consumes the parsed
/// tree and moves its strings out instead of cloning them — the text
/// field is the whole document.
fn parse_rank_body(body: &[u8]) -> Result<(String, Vec<String>), &'static str> {
    let value: serde_json::Value =
        serde_json::from_slice(body).map_err(|_| "body is not valid JSON")?;
    let serde_json::Value::Map(entries) = value else {
        return Err("body must be a JSON object");
    };
    let mut text = None;
    let mut candidates = Vec::new();
    for (key, val) in entries {
        match key.as_str() {
            "text" => match val {
                serde_json::Value::Str(s) => text = Some(s),
                _ => return Err("missing string field \"text\""),
            },
            "candidates" => match val {
                serde_json::Value::Seq(items) => {
                    candidates.reserve(items.len());
                    for item in items {
                        match item {
                            serde_json::Value::Str(s) => candidates.push(s),
                            _ => return Err("\"candidates\" must be an array of strings"),
                        }
                    }
                }
                _ => return Err("\"candidates\" must be an array of strings"),
            },
            _ => {}
        }
    }
    let text = text.ok_or("missing string field \"text\"")?;
    Ok((text, candidates))
}

/// Render a `/rank` success response. Serialized by hand: this is the
/// hot path, and a `json!` value tree costs dozens of small
/// allocations per response. Called from the batcher thread. Public so
/// the scatter-gather router can re-render a merged result list with
/// byte-identical formatting (`f64::to_string` both ways), which is
/// what makes the merged body bit-equal to the unsharded server's.
pub fn render_rank_response(epoch: u64, ranked: &[ctxrank_framework::RankedConcept]) -> Response {
    render_rank(epoch, ranked, None)
}

/// Shard-mode render: every result additionally carries
/// `"owned": true|false` — whether this shard's snapshot stores the
/// candidate. The router keeps owned entries (exactly one shard owns
/// each stored concept) and deduplicates unowned ones, then re-renders
/// through [`render_rank_response`] so the flags never reach clients.
pub fn render_rank_response_sharded(
    snapshot: &ctxrank_framework::Snapshot,
    ranked: &[ctxrank_framework::RankedConcept],
) -> Response {
    render_rank(snapshot.epoch(), ranked, Some(snapshot))
}

fn render_rank(
    epoch: u64,
    ranked: &[ctxrank_framework::RankedConcept],
    owned_by: Option<&ctxrank_framework::Snapshot>,
) -> Response {
    let mut body = String::with_capacity(40 + ranked.len() * 72);
    body.push_str("{\"epoch\":");
    body.push_str(&epoch.to_string());
    body.push_str(",\"results\":[");
    for (i, r) in ranked.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"surface\":");
        push_json_str(&mut body, &r.surface);
        body.push_str(",\"score\":");
        push_json_f64(&mut body, r.score);
        body.push_str(",\"relevance\":");
        push_json_f64(&mut body, r.relevance);
        if let Some(snapshot) = owned_by {
            body.push_str(",\"owned\":");
            body.push_str(if snapshot.contains_concept(&r.surface) {
                "true"
            } else {
                "false"
            });
        }
        body.push('}');
    }
    body.push_str("]}");
    Response {
        status: 200,
        content_type: "application/json",
        body: body.into_bytes(),
        extra: Vec::new(),
    }
}

/// `POST /feedback {"surface": ..., "views": N, "clicks": N, "rank": R?}`
/// — fold one observed impression batch into the live §VIII online
/// adjuster. With `"rank"` the clicks are reweighted by the installed
/// clipped inverse-propensity table (a no-op weight of 1.0 when no
/// table is installed); without it the batch takes the naive
/// rank-agnostic path. The response echoes whether the ranked path was
/// taken so callers can tell which estimator absorbed the evidence.
fn handle_feedback(inner: &Inner, body: &[u8]) -> Response {
    let value: serde_json::Value = match serde_json::from_slice(body) {
        Ok(v) => v,
        Err(_) => return Response::json(400, &json!({"error": "body is not valid JSON"})),
    };
    let Some(surface) = value.get("surface").and_then(|s| s.as_str()) else {
        return Response::json(400, &json!({"error": "missing string field \"surface\""}));
    };
    let Some(views) = value.get("views").and_then(|v| v.as_u64()) else {
        return Response::json(400, &json!({"error": "missing integer field \"views\""}));
    };
    let Some(clicks) = value.get("clicks").and_then(|c| c.as_u64()) else {
        return Response::json(400, &json!({"error": "missing integer field \"clicks\""}));
    };
    if clicks > views {
        return Response::json(
            400,
            &json!({"error": "\"clicks\" must not exceed \"views\""}),
        );
    }
    let rank = match value.get("rank") {
        None | Some(serde_json::Value::Null) => None,
        Some(r) => match r.as_u64() {
            Some(r) => Some(r as usize),
            None => {
                return Response::json(400, &json!({"error": "\"rank\" must be an integer"}));
            }
        },
    };
    match rank {
        Some(rank) => inner
            .handle
            .record_feedback_ranked(surface, rank, views, clicks),
        None => inner.handle.record_feedback(surface, views, clicks),
    }
    inner.metrics.record_feedback();
    Response::json(
        200,
        &json!({
            "status": "recorded",
            "ranked": rank.is_some(),
            "propensity_ranks": inner.handle.propensity_ranks(),
        }),
    )
}

/// The Stemmer/context component of Figure 4 over the wire: the
/// document's stemmed terms plus how many resolve to snapshot-known
/// TIDs. Pinned to one snapshot like every other response.
fn handle_annotate(inner: &Inner, body: &[u8]) -> Response {
    let value: serde_json::Value = match serde_json::from_slice(body) {
        Ok(v) => v,
        Err(_) => return Response::json(400, &json!({"error": "body is not valid JSON"})),
    };
    let Some(text) = value.get("text").and_then(|t| t.as_str()) else {
        return Response::json(400, &json!({"error": "missing string field \"text\""}));
    };
    let ranker = inner.handle.ranker();
    let terms = ranker.stem_document(text);
    let context_terms = ranker.context_tids_cached(text).len();
    Response::json(
        200,
        &json!({
            "epoch": ranker.epoch(),
            "terms": terms,
            "context_terms": context_terms,
        }),
    )
}
