//! The router's HTTP front: the serve crate's [`Front`] with a handler
//! over [`ScatterGather`], so the router speaks exactly the wire dialect
//! shards and clients already speak and holds connections the same way.
//! Unlike the shard server there is no batcher and no permit pool: the
//! requests in flight are bounded by the open connections, and the real
//! concurrency lives in the per-request scatter (one scoped thread per
//! shard). Endpoints:
//!
//! * `POST /rank` — scatter, gather, merge; byte-identical body to the
//!   unsharded server's answer.
//! * `GET /healthz` — role, shard count, last uniformly-observed epoch.
//! * `GET /metrics` — Prometheus text (see [`RouterMetrics`]).
//! * `POST /admin/shutdown` — gated by
//!   [`RouterServerConfig::enable_shutdown_endpoint`]; wakes
//!   [`RouterServer::wait_for_shutdown_request`].
//!
//! [`Front`]: ctxrank_serve::front::Front
//! [`RouterMetrics`]: crate::metrics::RouterMetrics

use crate::ScatterGather;
use ctxrank_serve::front::{Front, Handler, Writer};
use ctxrank_serve::http::{Request, Response};
use ctxrank_serve::ServeConfig;
use serde_json::json;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Listener knobs. `Default` binds an ephemeral loopback port with the
/// admin shutdown endpoint off.
#[derive(Debug, Clone)]
pub struct RouterServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Idle keep-alive read timeout before a connection is closed.
    pub keep_alive_timeout: Duration,
    /// Total budget from a request's first byte to the end of its body
    /// (slowloris bound, same semantics as the shard server).
    pub request_deadline: Duration,
    /// Expose `POST /admin/shutdown`.
    pub enable_shutdown_endpoint: bool,
    /// `Retry-After` seconds advertised on 503 responses.
    pub retry_after_secs: u32,
}

impl Default for RouterServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            keep_alive_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            enable_shutdown_endpoint: false,
            retry_after_secs: 1,
        }
    }
}

struct Inner {
    sg: Arc<ScatterGather>,
    retry_after_secs: u32,
}

impl Handler for Inner {
    fn handle(&self, request: &Request, _keep_alive: bool, _writer: &Writer) -> Option<Response> {
        Some(dispatch(self, request))
    }
}

/// A running router front. Call [`RouterServer::shutdown`] for a
/// graceful drain; dropping without it aborts the threads unjoined.
pub struct RouterServer {
    front: Front,
}

impl RouterServer {
    /// Bind and start serving `sg`. Returns as soon as the listener is
    /// live.
    pub fn start(sg: Arc<ScatterGather>, config: RouterServerConfig) -> std::io::Result<Self> {
        let inner = Arc::new(Inner {
            sg,
            retry_after_secs: config.retry_after_secs,
        });
        // The shard server's default connection cap; no permits.
        let front_config = ServeConfig {
            addr: config.addr,
            keep_alive_timeout: config.keep_alive_timeout,
            request_deadline: config.request_deadline,
            enable_shutdown_endpoint: config.enable_shutdown_endpoint,
            retry_after_secs: config.retry_after_secs,
            ..ServeConfig::default()
        };
        let front = Front::start(&front_config, None, inner)?;
        Ok(Self { front })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Block until a client calls `POST /admin/shutdown` (requires
    /// `enable_shutdown_endpoint`).
    pub fn wait_for_shutdown_request(&self) {
        self.front.wait_for_shutdown_request();
    }

    /// Graceful drain: stop accepting, finish in-flight requests, wait
    /// for every connection to close.
    pub fn shutdown(self) {
        self.front.shutdown();
    }
}

fn dispatch(inner: &Inner, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/rank") => {
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return Response::json(400, &json!({"error": "body is not UTF-8"}));
            };
            match inner.sg.rank(body) {
                Ok(outcome) => outcome.render(),
                Err(e) => {
                    let status = e.status();
                    let resp = Response::json(status, &json!({"error": e.to_string()}));
                    if status == 503 {
                        resp.with_header("retry-after", inner.retry_after_secs.to_string())
                    } else {
                        resp
                    }
                }
            }
        }
        ("GET", "/healthz") => Response::json(
            200,
            &json!({
                "status": "ok",
                "role": "router",
                "shards": inner.sg.shard_count(),
                "observed_epoch": inner.sg.observed_epoch(),
            }),
        ),
        ("GET", "/metrics") => Response::text(
            200,
            inner
                .sg
                .metrics()
                .render_prometheus(inner.sg.observed_epoch()),
        ),
        ("GET" | "POST", _) => Response::json(404, &json!({"error": "no such endpoint"})),
        _ => Response::json(405, &json!({"error": "method not allowed"})),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RouterConfig, ShardSpec};
    use ctxrank_serve::{one_shot, ClientConfig};
    use std::net::TcpListener;

    fn start_router(shards: Vec<ShardSpec>) -> RouterServer {
        let sg = Arc::new(ScatterGather::new(
            shards,
            RouterConfig {
                client: ClientConfig {
                    connect_timeout: Duration::from_millis(200),
                    read_timeout: Duration::from_millis(200),
                    retries: 0,
                    ..ClientConfig::default()
                },
                gather_retries: 0,
                retry_backoff: Duration::from_millis(1),
            },
        ));
        RouterServer::start(
            sg,
            RouterServerConfig {
                enable_shutdown_endpoint: true,
                ..RouterServerConfig::default()
            },
        )
        .expect("start router")
    }

    /// A shard spec pointing at a bound-then-dropped port: connects are
    /// refused deterministically.
    fn dead_shard() -> ShardSpec {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        ShardSpec::single(addr)
    }

    #[test]
    fn healthz_and_metrics_respond_without_backends() {
        let router = start_router(vec![dead_shard(), dead_shard()]);
        let addr = router.local_addr();
        let (status, _, body) = one_shot(addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"role\":\"router\""), "{body}");
        assert!(body.contains("\"shards\":2"), "{body}");
        let (status, _, body) = one_shot(addr, "GET", "/metrics", None).expect("metrics");
        assert_eq!(status, 200);
        assert!(body.contains("ctxrank_router_fanout_total"), "{body}");
        router.shutdown();
    }

    #[test]
    fn rank_against_dead_shards_is_503_with_retry_after() {
        let router = start_router(vec![dead_shard()]);
        let addr = router.local_addr();
        let (status, headers, body) = one_shot(
            addr,
            "POST",
            "/rank",
            Some(r#"{"text":"x","candidates":["a"]}"#),
        )
        .expect("rank");
        assert_eq!(status, 503, "{body}");
        assert!(
            headers
                .iter()
                .any(|(name, _)| name.eq_ignore_ascii_case("retry-after")),
            "{headers:?}"
        );
        assert!(body.contains("unavailable"), "{body}");
        router.shutdown();
    }

    #[test]
    fn unknown_endpoint_is_404_and_shutdown_wakes_waiter() {
        let router = start_router(vec![dead_shard()]);
        let addr = router.local_addr();
        let (status, _, _) = one_shot(addr, "GET", "/nope", None).expect("404");
        assert_eq!(status, 404);
        let (status, _, _) = one_shot(addr, "POST", "/admin/shutdown", None).expect("shutdown");
        assert_eq!(status, 200);
        router.wait_for_shutdown_request();
        router.shutdown();
    }
}
