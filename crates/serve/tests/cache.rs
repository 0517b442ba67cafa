//! End-to-end correctness of the epoch-keyed result cache over real
//! sockets: concurrent readers on a small (cache-friendly) query pool
//! while snapshots publish mid-traffic.
//!
//! The invariant under test is the one the cache design claims by
//! construction: a cached body is only ever served for the epoch that
//! ranked it, so no response may pair one epoch's number with another
//! epoch's scores — and after a publish the hit rate restarts at zero
//! because every old key is dead.

use ctxrank_features::{InterestFeatures, RelevantTerms};
use ctxrank_framework::{
    GlobalTidTable, PackedInterestStore, PackedRelevanceStore, ServiceHandle, Snapshot,
    SnapshotBuilder,
};
use ctxrank_ltr::{train, RankGroup, SvmConfig};
use ctxrank_serve::client::{one_shot, Conn};
use ctxrank_serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Same distinguishable-epoch builder as `tests/integration.rs`: the
/// probe term "sunspot" scores ~`weight`, so (epoch, relevance) pairs
/// are checkable against the publish log.
fn snapshot(weight: f64) -> Arc<Snapshot> {
    let interest = PackedInterestStore::build(&[(
        "solar flares".to_string(),
        InterestFeatures {
            freq_exact: 100,
            ..InterestFeatures::default()
        },
    )]);
    let mut tids = GlobalTidTable::new();
    let kw = RelevantTerms {
        terms: vec![(ctxrank_text::stem("sunspot"), weight)],
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
    let model = train(&groups, &SvmConfig::default());
    SnapshotBuilder::new()
        .interest(interest)
        .relevance(relevance)
        .tids(tids)
        .model(model)
        .build()
        .expect("test snapshot")
}

/// A small pool of distinct queries — small enough that a Zipf-free
/// round-robin over it still re-hits every key many times per epoch.
fn rank_body(i: usize) -> String {
    format!(r#"{{"text": "sunspot radiation reading number {i}", "candidates": ["solar flares"]}}"#)
}

fn parse_rank_response(body: &str) -> (u64, f64) {
    let v: serde_json::Value = serde_json::from_str(body).expect("response JSON");
    let epoch = v.get("epoch").and_then(|e| e.as_u64()).expect("epoch");
    let results = match v.get("results") {
        Some(serde_json::Value::Seq(items)) => items,
        other => panic!("malformed results: {other:?}"),
    };
    assert_eq!(results.len(), 1);
    let relevance = results[0]
        .get("relevance")
        .and_then(|r| r.as_f64())
        .expect("relevance");
    (epoch, relevance)
}

/// `ctxrank_<name> <value>` from the Prometheus text body.
fn counter(metrics: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    metrics
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("{name} missing from:\n{metrics}"))
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

fn scrape(addr: std::net::SocketAddr) -> String {
    let (status, _, body) = one_shot(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    body
}

/// K readers hammer a 4-query pool while M snapshots publish. With the
/// cache on, most responses come straight out of it — and every single
/// one must still score exactly like the epoch it claims. A stale read
/// (old epoch's body after its publish, or worse, a body paired with
/// the wrong epoch number) misses the weight check by ~10.
#[test]
fn cached_responses_never_cross_epochs_under_publish() {
    let weight_of_epoch: Arc<Mutex<HashMap<u64, f64>>> = Arc::new(Mutex::new(HashMap::new()));
    let first = snapshot(10.0);
    weight_of_epoch.lock().unwrap().insert(first.epoch(), 10.0);
    let handle = Arc::new(ServiceHandle::new(first));

    let server = Server::start(
        Arc::clone(&handle),
        ServeConfig {
            workers: 8,
            batch_max_size: 8,
            batch_max_wait: Duration::from_micros(300),
            ..ServeConfig::default()
        }
        .with_cache(4 << 20),
    )
    .expect("start server");
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    // Every client sends at least this many requests, and keeps going
    // until the last publish has landed.
    const MIN_REQUESTS: usize = 80;
    const PUBLISHES: usize = 8;
    const POOL: usize = 4;
    // Completed requests the publisher waits for after each publish: one
    // more than can have been in flight when it landed, so at least one
    // request is ranked on every published epoch.
    const SERVED_PER_EPOCH: usize = CLIENTS + 1;

    let completed = AtomicUsize::new(0);
    let published_all = AtomicBool::new(false);
    let observed: Vec<(u64, f64)> = std::thread::scope(|scope| {
        let mut client_threads = Vec::new();
        for c in 0..CLIENTS {
            let (completed, published_all) = (&completed, &published_all);
            client_threads.push(scope.spawn(move || {
                let mut conn = Conn::connect(addr).expect("connect");
                let mut seen = Vec::with_capacity(MIN_REQUESTS);
                let mut last_epoch = 0u64;
                let mut r = 0;
                while r < MIN_REQUESTS || !published_all.load(Ordering::SeqCst) {
                    let body = rank_body((c + r) % POOL);
                    r += 1;
                    let (status, _, body) =
                        conn.request("POST", "/rank", Some(&body)).expect("request");
                    assert_eq!(status, 200, "body: {body}");
                    let (epoch, relevance) = parse_rank_response(&body);
                    // A cache hit must never serve an epoch older than
                    // one this client already saw.
                    assert!(
                        epoch >= last_epoch,
                        "epoch went back: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    seen.push((epoch, relevance));
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                seen
            }));
        }

        let weights = Arc::clone(&weight_of_epoch);
        let publisher_handle = Arc::clone(&handle);
        let (completed, published_all) = (&completed, &published_all);
        let publisher = scope.spawn(move || {
            for i in 0..PUBLISHES {
                let w = 10.0 * (i + 2) as f64;
                let snap = snapshot(w);
                weights.lock().unwrap().insert(snap.epoch(), w);
                publisher_handle.publish(snap);
                let target = completed.load(Ordering::SeqCst) + SERVED_PER_EPOCH;
                let deadline = Instant::now() + Duration::from_secs(60);
                while completed.load(Ordering::SeqCst) < target {
                    assert!(Instant::now() < deadline, "clients stopped making progress");
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            published_all.store(true, Ordering::SeqCst);
        });

        let mut all = Vec::new();
        for t in client_threads {
            all.extend(t.join().expect("client thread"));
        }
        publisher.join().expect("publisher");
        all
    });

    assert!(
        observed.len() >= CLIENTS * MIN_REQUESTS,
        "{} responses",
        observed.len()
    );
    let weights = weight_of_epoch.lock().unwrap();
    let mut distinct_epochs: Vec<u64> = Vec::new();
    for (epoch, relevance) in &observed {
        let expected = weights
            .get(epoch)
            .unwrap_or_else(|| panic!("response claimed unknown epoch {epoch}"));
        // Weights are 10 apart; a cross-epoch body misses by ~10, far
        // outside quantization noise.
        assert!(
            (relevance - expected).abs() < 0.5,
            "epoch {epoch} expected relevance ~{expected}, got {relevance} — stale cached body"
        );
        if !distinct_epochs.contains(epoch) {
            distinct_epochs.push(*epoch);
        }
    }
    assert!(
        distinct_epochs.len() >= 3,
        "traffic overlapped too few publishes: {distinct_epochs:?}"
    );

    // The pool is 4 queries under ≥ 320 requests: the cache must have
    // answered a large share of them, or this test exercised nothing.
    let metrics = scrape(addr);
    let hits = counter(&metrics, "ctxrank_cache_hits_total");
    let misses = counter(&metrics, "ctxrank_cache_misses_total");
    assert!(
        hits > (observed.len() / 4) as u64,
        "cache barely hit: {hits} hits / {misses} misses"
    );

    server.shutdown();
}

/// After a publish, the very first request for a previously-hot query
/// must MISS — the epoch in the key changed, so the old entry is dead
/// by construction — and only the re-ranked body becomes hittable.
#[test]
fn publish_resets_hit_rate_to_zero() {
    let first = snapshot(10.0);
    let handle = Arc::new(ServiceHandle::new(first));
    let server = Server::start(
        Arc::clone(&handle),
        ServeConfig {
            // This test keeps its rank connection open across /metrics
            // scrapes on separate connections: it needs more than one
            // worker (workers: 0 resolves to the machine's thread
            // count, which can be 1) and an idle window that outlasts
            // the snapshot rebuilds between requests.
            workers: 4,
            keep_alive_timeout: Duration::from_secs(60),
            ..ServeConfig::default()
        }
        .with_cache(1 << 20),
    )
    .expect("start server");
    let addr = server.local_addr();
    let mut conn = Conn::connect(addr).expect("connect");
    let body = rank_body(0);

    // Cold: miss then fill (the batcher inserts before responding, so
    // by the time we see the 200 the entry is resident).
    let (status, _, resp) = conn.request("POST", "/rank", Some(&body)).expect("rank 1");
    assert_eq!(status, 200);
    let (epoch_a, rel_a) = parse_rank_response(&resp);
    assert!((rel_a - 10.0).abs() < 0.5);

    // Warm: the same query is a hit.
    let (status, _, resp) = conn.request("POST", "/rank", Some(&body)).expect("rank 2");
    assert_eq!(status, 200);
    assert_eq!(parse_rank_response(&resp).0, epoch_a);
    let m = scrape(addr);
    let hits_warm = counter(&m, "ctxrank_cache_hits_total");
    let misses_warm = counter(&m, "ctxrank_cache_misses_total");
    assert_eq!(hits_warm, 1, "second identical request must hit");
    assert_eq!(misses_warm, 1, "first request must miss");

    // Publish: every cached key is now dead without any flush call.
    let next = snapshot(20.0);
    let epoch_b = next.epoch();
    handle.publish(next);
    assert!(epoch_b > epoch_a);

    // Same query again: must MISS (hits unchanged), must carry the new
    // epoch and the new snapshot's scores.
    let (status, _, resp) = conn.request("POST", "/rank", Some(&body)).expect("rank 3");
    assert_eq!(status, 200);
    let (epoch, rel) = parse_rank_response(&resp);
    assert_eq!(epoch, epoch_b, "post-publish response must be re-ranked");
    assert!(
        (rel - 20.0).abs() < 0.5,
        "stale relevance {rel} after publish"
    );
    let m = scrape(addr);
    assert_eq!(
        counter(&m, "ctxrank_cache_hits_total"),
        hits_warm,
        "post-publish request hit a dead entry"
    );
    assert_eq!(counter(&m, "ctxrank_cache_misses_total"), misses_warm + 1);

    // And the re-ranked body is immediately hittable at the new epoch.
    let (status, _, resp) = conn.request("POST", "/rank", Some(&body)).expect("rank 4");
    assert_eq!(status, 200);
    assert_eq!(parse_rank_response(&resp).0, epoch_b);
    let m = scrape(addr);
    assert_eq!(counter(&m, "ctxrank_cache_hits_total"), hits_warm + 1);

    // Close this keep-alive connection before shutdown: the drain waits
    // for every open connection, and an idle one closes only at the end
    // of its keep-alive window.
    drop(conn);
    server.shutdown();
}
