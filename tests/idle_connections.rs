//! An idle connection holds a thread, never a worker (DESIGN.md §10.1).
//!
//! Sockets that connect and send nothing, or stay open after one
//! request, must not delay anyone else's `/rank` — on the shard server
//! and on the router, which share one connection front. Above the
//! connection cap the acceptor answers 503 + `Retry-After` itself.
//!
//! No test here sleeps: each idle socket is parked before the client
//! that must not wait behind it connects, and the listener accepts in
//! arrival order.

use ctxrank_features::{InterestFeatures, RelevantTerms};
use ctxrank_framework::{
    partition_snapshot, GlobalTidTable, PackedInterestStore, PackedRelevanceStore, ServiceHandle,
    Snapshot, SnapshotBuilder,
};
use ctxrank_ltr::{train, RankGroup, SvmConfig};
use ctxrank_router::{RouterConfig, RouterServer, RouterServerConfig, ScatterGather, ShardSpec};
use ctxrank_serve::client::{one_shot, Conn};
use ctxrank_serve::{ServeConfig, Server};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Permits of the server under test: idle sockets are parked at 1× and
/// 4× this count.
const WORKERS: usize = 2;

/// How long a `/rank` may take behind parked sockets — far below the
/// default 5 s keep-alive window an idle socket could hold a worker for.
const PROMPT: Duration = Duration::from_secs(1);

const RANK_BODY: &str =
    r#"{"text": "sunspot radiation from the telescope", "candidates": ["solar flares"]}"#;

/// One concept whose relevance keyword appears in [`RANK_BODY`].
fn snapshot() -> Arc<Snapshot> {
    let interest = PackedInterestStore::build(&[(
        "solar flares".to_string(),
        InterestFeatures {
            freq_exact: 100,
            ..InterestFeatures::default()
        },
    )]);
    let mut tids = GlobalTidTable::new();
    let kw = RelevantTerms {
        terms: vec![(ctxrank_text::stem("sunspot"), 10.0)],
    };
    let relevance = PackedRelevanceStore::build(vec![("solar flares", &kw)], &mut tids);
    let groups: Vec<RankGroup> = (0..10)
        .map(|g| {
            RankGroup::from_pairs((0..2).map(|i| {
                let mut f = vec![0.0; 10];
                f[9] = (g + i) as f64;
                (f, i as f64 * 0.01)
            }))
        })
        .collect();
    SnapshotBuilder::new()
        .interest(interest)
        .relevance(relevance)
        .tids(tids)
        .model(train(&groups, &SvmConfig::default()))
        .build()
        .expect("test snapshot")
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    }
}

/// Park `n` idle sockets against `addr`, then time one `/rank` from a
/// new client; both idle shapes, at `WORKERS` and `4 * WORKERS` sockets.
fn assert_idle_sockets_do_not_delay_rank(addr: SocketAddr, front: &str) {
    for after_request in [false, true] {
        for n in [WORKERS, 4 * WORKERS] {
            let parked: Vec<Conn> = (0..n)
                .map(|_| {
                    let mut conn = Conn::connect(addr).expect("park a socket");
                    if after_request {
                        let (status, _, body) =
                            conn.request("GET", "/healthz", None).expect("healthz");
                        assert_eq!(status, 200, "{body}");
                    }
                    conn
                })
                .collect();
            let t = Instant::now();
            let (status, _, body) = one_shot(addr, "POST", "/rank", Some(RANK_BODY)).expect("rank");
            let took = t.elapsed();
            assert_eq!(status, 200, "{body}");
            assert!(body.contains("solar flares"), "{body}");
            let shape = if after_request {
                "idle after one request"
            } else {
                "connect-only"
            };
            assert!(
                took < PROMPT,
                "{front}: /rank took {took:?} behind {n} {shape} sockets"
            );
            drop(parked);
        }
    }
}

#[test]
fn idle_sockets_do_not_delay_a_new_client_of_the_server() {
    let server = Server::start(Arc::new(ServiceHandle::new(snapshot())), serve_config())
        .expect("start server");
    assert_idle_sockets_do_not_delay_rank(server.local_addr(), "server");
    server.shutdown();
}

#[test]
fn idle_sockets_do_not_delay_a_new_client_of_the_router() {
    let parts = partition_snapshot(&snapshot(), 1).expect("partition");
    let shard = Server::start(
        Arc::new(ServiceHandle::new(Arc::clone(&parts[0].snapshot))),
        serve_config().as_shard(parts[0].bounds),
    )
    .expect("start shard");
    let sg = Arc::new(ScatterGather::new(
        vec![ShardSpec::single(shard.local_addr())],
        RouterConfig::default(),
    ));
    let router = RouterServer::start(sg, RouterServerConfig::default()).expect("start router");
    assert_idle_sockets_do_not_delay_rank(router.local_addr(), "router");
    router.shutdown();
    shard.shutdown();
}

/// The acceptor's shed path: with `conn_backlog: 2`, the third open
/// connection is answered 503 + `Retry-After` and counted; once a
/// client closes one of the two, the next connection is served.
#[test]
fn connection_cap_sheds_above_it_and_frees_a_slot_on_close() {
    let server = Server::start(
        Arc::new(ServiceHandle::new(snapshot())),
        ServeConfig {
            conn_backlog: 2,
            ..serve_config()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    let mut first = TcpStream::connect(addr).expect("first");
    let second = TcpStream::connect(addr).expect("second");

    let mut third = TcpStream::connect(addr).expect("third");
    third
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reply = String::new();
    third
        .read_to_string(&mut reply)
        .expect("read the shed reply");
    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
    assert!(
        reply
            .to_ascii_lowercase()
            .contains("\r\nretry-after: 1\r\n"),
        "{reply}"
    );
    assert_eq!(server.metrics().shed_total(), 1);

    // Close `first` from the client side. The server frees the slot
    // before its side of the socket closes, so once EOF arrives the
    // next connection fits under the cap.
    first.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    first.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "{rest:?}");

    let (status, _, metrics) = one_shot(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.lines().any(|l| l == "ctxrank_shed_total 1"),
        "{metrics}"
    );

    drop(second);
    server.shutdown();
}
