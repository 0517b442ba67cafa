//! Deterministic fault-injection harness for the persist → publish →
//! serve path (see DESIGN.md §11).
//!
//! Every test resolves its seed through `CTXRANK_FAULT_SEED` and prints
//! it on entry, so any failure in CI is replayed locally with
//! `CTXRANK_FAULT_SEED=<seed> cargo test --test fault_injection`.
//!
//! The invariants, everywhere:
//!
//! * injected corruption surfaces as a typed [`PersistError`] or an
//!   HTTP error status — never a panic, never a hang;
//! * a save that dies mid-way never clobbers the previous good
//!   snapshot: the directory stays loadable;
//! * the served epoch never regresses, and every `/rank` response is
//!   consistent with exactly the snapshot its epoch names;
//! * with an empty [`FaultPlan`], behavior is bit-for-bit the
//!   happy path.

use ctxrank_faultsim::net::{
    send_oversized, send_partial_request, send_slowloris, send_then_vanish, ChaosProxy, NetOutcome,
};
use ctxrank_faultsim::{seed_from_env, FaultKind, FaultPlan, FaultyFs};
use ctxrank_features::{InterestFeatures, RelevantTerms};
use ctxrank_framework::persist::{
    load_service, load_service_with, load_snapshot, load_snapshot_with, save_service,
    save_service_with, save_snapshot, save_snapshot_with, PersistError, PersistFs,
};
use ctxrank_framework::{
    partition_snapshot, GlobalTidTable, PackedInterestStore, PackedRelevanceStore, ServiceHandle,
    Snapshot, SnapshotBuilder,
};
use ctxrank_ltr::{train, RankGroup, SvmConfig};
use ctxrank_querylog::{Event, SegmentConfig, SegmentFs, SegmentStore, StdSegmentFs};
use ctxrank_router::{RouterConfig, ScatterGather, ShardSpec};
use ctxrank_serve::client::{one_shot, request_with_retry, ClientConfig, Conn};
use ctxrank_serve::{render_rank_response, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------- helpers

/// A per-test scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ctxrank-faultsim-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Print the resolved seed so a CI failure is replayable verbatim.
fn announce(test: &str, seed: u64) {
    eprintln!("{test}: seed = {seed} (replay with CTXRANK_FAULT_SEED={seed})");
}

/// Same distinguishable-snapshot builder as the serve integration
/// tests: the probe text scores ~`weight`, so `(epoch, relevance)`
/// pairs identify which snapshot served a response.
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

const PROBE_TEXT: &str = "sunspot radiation from the telescope";
const RANK_BODY: &str =
    r#"{"text": "sunspot radiation from the telescope", "candidates": ["solar flares"]}"#;

/// The probe relevance a handle currently serves (exactly what `/rank`
/// reports for `RANK_BODY`, modulo JSON float formatting).
fn probe(handle: &ServiceHandle) -> f64 {
    let ranked = handle.rank(PROBE_TEXT, &["solar flares".to_string()]);
    assert_eq!(ranked.len(), 1);
    ranked[0].relevance
}

fn parse_rank_response(body: &str) -> (u64, f64) {
    let v: serde_json::Value = serde_json::from_str(body).expect("response JSON");
    let epoch = v.get("epoch").and_then(|e| e.as_u64()).expect("epoch");
    let results = match v.get("results") {
        Some(serde_json::Value::Seq(items)) => items,
        other => panic!("malformed results: {other:?}"),
    };
    assert_eq!(results.len(), 1, "one candidate in, one result out");
    let relevance = results[0]
        .get("relevance")
        .and_then(|r| r.as_f64())
        .expect("relevance");
    assert!(results[0].get("surface").and_then(|s| s.as_str()) == Some("solar flares"));
    (epoch, relevance)
}

// ------------------------------------------------------------- persist

/// The acceptance sweep: 200 seeded iterations at a 10% injection rate.
/// A faulty save over a good directory must never leave it unloadable
/// (the arena rename is the commit point), and a faulty load must return
/// `Ok` or a typed [`PersistError`] — zero panics, zero aborts.
#[test]
fn persist_sweep_survives_200_seeded_iterations() {
    let base = seed_from_env(0xC0FF_EE00);
    announce("persist_sweep", base);

    let mut save_failures = 0u32;
    let mut save_successes = 0u32;
    let mut load_failures = 0u32;
    for iter in 0..200u64 {
        let seed = base.wrapping_add(iter);
        let dir = TempDir::new("sweep");

        // A known-good directory.
        let good = Arc::new(ServiceHandle::new(snapshot(10.0)));
        save_service(&good, dir.path()).expect("clean save");

        // A faulty save of a *newer* snapshot on top of it.
        let next = Arc::new(ServiceHandle::new(snapshot(20.0)));
        let fs = FaultyFs::new(Arc::new(FaultPlan::new(seed, 100)));
        match save_service_with(&next, dir.path(), &fs) {
            Ok(()) => save_successes += 1,
            Err(e) => {
                // Typed, displayable, never a panic.
                let _ = e.to_string();
                save_failures += 1;
            }
        }

        // Whatever happened above, the directory must still load
        // cleanly, as either the old or the new epoch — per-file
        // atomicity plus arena-rename-last makes anything else a bug.
        let reloaded = load_service(dir.path())
            .unwrap_or_else(|e| panic!("seed {seed}: faulty save clobbered the directory: {e}"));
        assert!(
            reloaded.epoch() == good.epoch() || reloaded.epoch() == next.epoch(),
            "seed {seed}: reloaded epoch {} is neither {} nor {}",
            reloaded.epoch(),
            good.epoch(),
            next.epoch()
        );

        // A faulty *load* of the same directory: Ok or typed error.
        let fs = FaultyFs::new(Arc::new(FaultPlan::new(seed ^ 0xA5A5_A5A5, 100)));
        match load_service_with(dir.path(), &fs) {
            Ok(h) => {
                let _ = probe(&h);
            }
            Err(e @ (PersistError::Io { .. } | PersistError::Corrupt { .. })) => {
                let _ = e.to_string();
                load_failures += 1;
            }
        }
    }
    eprintln!(
        "persist_sweep: {save_failures} save failures, {save_successes} save successes, \
         {load_failures} load failures over 200 iterations"
    );
    // At a 10% per-operation rate the schedule must actually have hit
    // all three regimes; all-zero means injection is broken.
    assert!(save_failures > 0, "no save ever failed at 10% injection");
    assert!(
        save_successes > 0,
        "no save ever succeeded at 10% injection"
    );
    assert!(load_failures > 0, "no load ever failed at 10% injection");
}

/// An empty plan is the identity: persist through `FaultyFs` must be
/// byte-equivalent to persist through `StdFs`.
#[test]
fn empty_plan_changes_nothing() {
    let dir = TempDir::new("identity");
    let handle = Arc::new(ServiceHandle::new(snapshot(30.0)));
    let clean_score = probe(&handle);

    let fs = FaultyFs::new(Arc::new(FaultPlan::empty()));
    save_service_with(&handle, dir.path(), &fs).expect("save under empty plan");
    let via_faultsim = load_service_with(dir.path(), &fs).expect("load under empty plan");
    let via_std = load_service(dir.path()).expect("load via StdFs");

    assert_eq!(via_faultsim.epoch(), via_std.epoch());
    assert_eq!(via_faultsim.epoch(), handle.epoch());
    assert_eq!(probe(&via_faultsim), clean_score);
    assert_eq!(probe(&via_std), clean_score);
}

// --------------------------------------------------------- arena format

/// The arena-format acceptance sweep: 200 seeded iterations of torn
/// writes against `snapshot.ctxr` followed by bit flips / truncation
/// on the read side. On every seed:
///
/// * a torn save never clobbers the committed arena file — the
///   `.tmp` → rename commit means a clean load always sees exactly the
///   previous good snapshot or the new one, never a prefix;
/// * a faulty load returns the intact snapshot or a typed
///   [`PersistError`] — the whole-file checksum means a flipped bit
///   can never decode into silently wrong data.
#[test]
fn arena_sweep_torn_writes_and_bit_flips_over_snapshot_ctxr() {
    let base = seed_from_env(0xDEAD_BEEF);
    announce("arena_sweep", base);

    let good = snapshot(10.0);
    let next = snapshot(20.0);
    let good_score = probe(&ServiceHandle::new(Arc::clone(&good)));
    let next_score = probe(&ServiceHandle::new(Arc::clone(&next)));
    let expected = |epoch: u64, seed: u64| {
        if epoch == good.epoch() {
            good_score
        } else if epoch == next.epoch() {
            next_score
        } else {
            panic!("seed {seed}: loaded epoch {epoch} is neither good nor next");
        }
    };

    let mut torn_saves = 0u32;
    let mut clean_saves = 0u32;
    let mut faulted_loads = 0u32;
    let mut intact_loads = 0u32;
    for iter in 0..200u64 {
        let seed = base.wrapping_add(iter);
        let dir = TempDir::new("arena");

        // A committed good arena file.
        save_snapshot(&good, dir.path()).expect("clean arena save");
        assert!(
            dir.path().join("snapshot.ctxr").exists(),
            "arena save must produce snapshot.ctxr"
        );

        // Tear the save of a newer snapshot on top of it. Write faults
        // only, so every failure here is a torn `snapshot.ctxr.tmp`.
        let fs = FaultyFs::new(Arc::new(FaultPlan::with_kinds(
            seed,
            250,
            &[],
            &[FaultKind::TornWrite],
        )));
        match save_snapshot_with(&next, dir.path(), &fs) {
            Ok(()) => clean_saves += 1,
            Err(e) => {
                let _ = e.to_string();
                torn_saves += 1;
            }
        }

        // Clean load: exactly one of the two good snapshots, with the
        // relevance that snapshot actually computes.
        let loaded = load_snapshot(dir.path())
            .unwrap_or_else(|e| panic!("seed {seed}: torn save clobbered the arena file: {e}"));
        let score = probe(&ServiceHandle::new(Arc::clone(&loaded)));
        let want = expected(loaded.epoch(), seed);
        assert!(
            (score - want).abs() < 0.5,
            "seed {seed}: epoch {} served {score}, want ~{want}",
            loaded.epoch()
        );

        // Faulty load of the committed file: bit flips, truncation and
        // short reads. `Ok` must be byte-intact (registered score),
        // anything else a typed error — never a panic, never a wrong
        // score.
        let fs = FaultyFs::new(Arc::new(FaultPlan::with_kinds(
            seed ^ 0x0BAD_F00D,
            250,
            &[FaultKind::BitFlip, FaultKind::Eof, FaultKind::ShortRead],
            &[],
        )));
        match load_snapshot_with(dir.path(), &fs) {
            Ok(s) => {
                intact_loads += 1;
                let score = probe(&ServiceHandle::new(Arc::clone(&s)));
                let want = expected(s.epoch(), seed);
                assert!(
                    (score - want).abs() < 0.5,
                    "seed {seed}: faulted load decoded silently wrong data \
                     (epoch {} served {score}, want ~{want})",
                    s.epoch()
                );
            }
            Err(e @ (PersistError::Io { .. } | PersistError::Corrupt { .. })) => {
                let _ = e.to_string();
                faulted_loads += 1;
            }
        }
    }
    eprintln!(
        "arena_sweep: {torn_saves} torn saves, {clean_saves} clean saves, \
         {faulted_loads} rejected loads, {intact_loads} intact loads over 200 iterations"
    );
    // The schedule must actually have hit all four regimes; an all-zero
    // counter means the sweep is not exercising what it claims to.
    assert!(torn_saves > 0, "no save was ever torn at 25% injection");
    assert!(clean_saves > 0, "no save ever survived at 25% injection");
    assert!(
        faulted_loads > 0,
        "no load was ever rejected at 25% injection"
    );
    assert!(intact_loads > 0, "no load ever survived at 25% injection");
}

/// The propensity-table acceptance sweep: 200 seeded iterations of
/// torn writes against a service save carrying a propensity table,
/// followed by deterministic bit flips over the committed
/// `propensity.bin`. On every seed:
///
/// * a torn save never leaves a mixed table — a clean load sees
///   exactly the old table or the new one, byte-identical (each
///   component file commits via tmp → rename);
/// * a single flipped bit in `propensity.bin` *always* surfaces as
///   `PersistError::Corrupt { file: "propensity.bin" }` — the table
///   is IPW weights, so a silently skewed load would corrupt every
///   subsequent click estimate (the failure mode the binary
///   checksummed codec exists to kill).
#[test]
fn propensity_sweep_torn_writes_and_bit_flips_never_skew_the_table() {
    use ctxrank_framework::PropensityTable;

    let base = seed_from_env(0xDEB1_A5ED);
    announce("propensity_sweep", base);

    let table_a =
        PropensityTable::from_examination(&[1.0, 0.5, 0.25, 0.125], 10.0).expect("table a");
    let table_b =
        PropensityTable::from_examination(&[1.0, 0.8, 0.6, 0.4, 0.2], 8.0).expect("table b");

    let mut torn_saves = 0u32;
    let mut clean_saves = 0u32;
    let mut flips_rejected = 0u32;
    for iter in 0..200u64 {
        let seed = base.wrapping_add(iter);
        let dir = TempDir::new("propensity");

        // A committed good save with table A installed.
        let good = Arc::new(ServiceHandle::new(snapshot(10.0)));
        good.install_propensities(table_a.clone());
        save_service(&good, dir.path()).expect("clean save");
        let bin = dir.path().join("propensity.bin");
        assert!(bin.exists(), "save with a table must write propensity.bin");

        // Tear the save of a newer state (table B) on top of it.
        let next = Arc::new(ServiceHandle::new(snapshot(20.0)));
        next.install_propensities(table_b.clone());
        let fs = FaultyFs::new(Arc::new(FaultPlan::with_kinds(
            seed,
            250,
            &[],
            &[FaultKind::TornWrite],
        )));
        match save_service_with(&next, dir.path(), &fs) {
            Ok(()) => clean_saves += 1,
            Err(e) => {
                let _ = e.to_string();
                torn_saves += 1;
            }
        }

        // Whatever the tear did, a clean load must see exactly one of
        // the two real tables — never a prefix, never a blend.
        let reloaded = load_service(dir.path())
            .unwrap_or_else(|e| panic!("seed {seed}: torn save clobbered the directory: {e}"));
        let loaded_table = reloaded
            .adjuster_state()
            .propensities()
            .cloned()
            .unwrap_or_else(|| panic!("seed {seed}: reload lost the propensity table"));
        assert!(
            loaded_table == table_a || loaded_table == table_b,
            "seed {seed}: loaded table matches neither saved table: {loaded_table:?}"
        );

        // Deterministic bit flip over the committed propensity bytes:
        // the load must reject with a typed Corrupt naming the file.
        let clean_bytes = std::fs::read(&bin).expect("read propensity.bin");
        let bit = (seed as usize) % (clean_bytes.len() * 8);
        let mut flipped = clean_bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&bin, &flipped).expect("write flipped bytes");
        match load_service(dir.path()) {
            Err(PersistError::Corrupt { file, detail }) => {
                assert_eq!(
                    file, "propensity.bin",
                    "seed {seed}: corruption attributed to the wrong file"
                );
                assert!(!detail.is_empty());
                flips_rejected += 1;
            }
            Err(other) => panic!("seed {seed}: bit flip surfaced as non-Corrupt: {other}"),
            Ok(h) => {
                // The only acceptable Ok is a flip the codec provably
                // cannot see — there is none: every byte of the format
                // is covered by magic, length, payload or checksum.
                let t = h.adjuster_state().propensities().cloned();
                panic!("seed {seed}: flipped bit {bit} loaded silently (table {t:?})");
            }
        }

        // Restoring the clean bytes restores the load, byte-identical.
        std::fs::write(&bin, &clean_bytes).expect("restore clean bytes");
        let restored = load_service(dir.path()).expect("restored load");
        let restored_table = restored
            .adjuster_state()
            .propensities()
            .cloned()
            .expect("restored table");
        assert_eq!(restored_table.encode(), loaded_table.encode());
    }
    eprintln!(
        "propensity_sweep: {torn_saves} torn saves, {clean_saves} clean saves, \
         {flips_rejected} rejected bit flips over 200 iterations"
    );
    assert!(torn_saves > 0, "no save was ever torn at 25% injection");
    assert!(clean_saves > 0, "no save ever survived at 25% injection");
    assert_eq!(flips_rejected, 200, "every single bit flip must be caught");
}

// --------------------------------------------------------------- serve

/// Hostile clients — slowloris, partial request, oversized payload,
/// vanish mid-request — against a live server, interleaved with good
/// traffic. Every hostile connection must end in an error status or a
/// close (never a hang), good traffic must keep getting 200s, and the
/// timeout counter must move.
#[test]
fn hostile_clients_cannot_hang_the_server() {
    let seed = seed_from_env(0x5E12_7E57);
    announce("hostile_clients", seed);

    let handle = Arc::new(ServiceHandle::new(snapshot(10.0)));
    let server = Server::start(
        Arc::clone(&handle),
        ServeConfig {
            workers: 4,
            keep_alive_timeout: Duration::from_millis(400),
            request_deadline: Duration::from_millis(250),
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();
    let patience = Duration::from_secs(5);

    std::thread::scope(|scope| {
        // Slowloris: 25 bytes at 30ms/byte blows the 250ms deadline.
        let loris = scope.spawn(move || {
            send_slowloris(
                addr,
                b"GET /healthz HTTP/1.1\r\n\r\n",
                Duration::from_millis(30),
                patience,
            )
            .expect("slowloris connect")
        });
        // A body that never arrives.
        let partial = scope.spawn(move || {
            send_partial_request(
                addr,
                b"POST /rank HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort",
                patience,
            )
            .expect("partial connect")
        });
        // Content-Length far over MAX_BODY_BYTES.
        let oversized = scope.spawn(move || {
            send_oversized(addr, 64 * 1024 * 1024, patience).expect("oversized connect")
        });
        // Peers that disappear mid-request-line.
        let vanish = scope.spawn(move || {
            for _ in 0..4 {
                send_then_vanish(addr, b"GET /hea").expect("vanish connect");
            }
        });

        // Good traffic throughout, with the hardened retrying client.
        let good = scope.spawn(move || {
            let config = ClientConfig {
                retries: 3,
                backoff_base: Duration::from_millis(5),
                jitter_seed: seed,
                ..ClientConfig::default()
            };
            for _ in 0..10 {
                let (status, _, body) =
                    request_with_retry(addr, "POST", "/rank", Some(RANK_BODY), &config)
                        .expect("good rank request");
                assert_eq!(status, 200, "body: {body}");
                let (_, relevance) = parse_rank_response(&body);
                assert!((relevance - 10.0).abs() < 0.5, "got {relevance}");
                std::thread::sleep(Duration::from_millis(20));
            }
        });

        let loris = loris.join().expect("slowloris thread");
        assert!(
            matches!(loris, NetOutcome::Status(408) | NetOutcome::Closed),
            "slowloris outcome: {loris:?}"
        );
        let partial = partial.join().expect("partial thread");
        assert!(
            matches!(partial, NetOutcome::Status(400) | NetOutcome::Closed),
            "partial-request outcome: {partial:?}"
        );
        let oversized = oversized.join().expect("oversized thread");
        assert!(
            matches!(oversized, NetOutcome::Status(413) | NetOutcome::Closed),
            "oversized outcome: {oversized:?}"
        );
        vanish.join().expect("vanish thread");
        good.join().expect("good client thread");
    });

    // The slowloris blew the deadline, so the counter must have moved,
    // and it must be visible on the wire.
    assert!(
        server.metrics().timeout_total() >= 1,
        "slowloris did not register in ctxrank_timeout_total"
    );
    let (status, _, metrics_body) = one_shot(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics_body.contains("ctxrank_timeout_total"));
    assert!(metrics_body.contains("ctxrank_io_error_total"));

    // The server is still healthy after the abuse.
    let (status, _, _) = one_shot(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);

    server.shutdown();
}

// ------------------------------------------------------------- publish

/// The end-to-end chaos test: a publisher keeps persisting and
/// reloading snapshots through a faulty filesystem and publishes only
/// the ones that survive validation, while clients hammer `/rank`.
/// Served epochs must never regress per connection, and every response
/// must match the registered score of exactly the epoch it claims.
#[test]
fn publish_chaos_never_regresses_epochs_or_serves_torn_snapshots() {
    let base = seed_from_env(0xFA57_0001);
    announce("publish_chaos", base);

    let first = snapshot(10.0);
    let handle = Arc::new(ServiceHandle::new(first));
    // epoch → the probe relevance that snapshot actually serves,
    // registered before the epoch can ever appear in a response.
    let scores: Arc<Mutex<HashMap<u64, f64>>> = Arc::new(Mutex::new(HashMap::new()));
    scores
        .lock()
        .unwrap()
        .insert(handle.epoch(), probe(&handle));

    let server = Server::start(
        Arc::clone(&handle),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    const CLIENTS: usize = 3;
    const REQUESTS: usize = 60;
    const MAX_ROUNDS: u64 = 120;
    const WANT_PUBLISHES: u32 = 3;

    let observed: Vec<(u64, f64)> = std::thread::scope(|scope| {
        let mut client_threads = Vec::new();
        for _ in 0..CLIENTS {
            client_threads.push(scope.spawn(move || {
                let mut conn = Conn::connect(addr).expect("connect");
                let mut seen = Vec::with_capacity(REQUESTS);
                let mut last_epoch = 0u64;
                for _ in 0..REQUESTS {
                    let (status, _, body) = conn
                        .request("POST", "/rank", Some(RANK_BODY))
                        .expect("rank request");
                    assert_eq!(status, 200, "body: {body}");
                    let (epoch, relevance) = parse_rank_response(&body);
                    assert!(
                        epoch >= last_epoch,
                        "epoch regressed on one connection: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    seen.push((epoch, relevance));
                }
                seen
            }));
        }

        let publisher_handle = Arc::clone(&handle);
        let publisher_scores = Arc::clone(&scores);
        let publisher = scope.spawn(move || {
            let dir = TempDir::new("publish");
            let mut published = 0u32;
            let mut save_errors = 0u32;
            let mut load_errors = 0u32;
            let mut rejected = 0u32;
            for round in 0..MAX_ROUNDS {
                if published >= WANT_PUBLISHES {
                    break;
                }
                let weight = 10.0 * (round + 2) as f64;
                let snap = snapshot(weight);
                let expected_epoch = snap.epoch();

                let save_fs =
                    FaultyFs::new(Arc::new(FaultPlan::new(base.wrapping_add(round), 100)));
                if save_snapshot_with(&snap, dir.path(), &save_fs).is_err() {
                    // The directory still holds the previous snapshot;
                    // the load below sees a stale epoch and skips.
                    save_errors += 1;
                }

                let load_fs = FaultyFs::new(Arc::new(FaultPlan::new(
                    base.wrapping_add(round) ^ 0x0DD_C0DE,
                    100,
                )));
                let loaded = match load_snapshot_with(dir.path(), &load_fs) {
                    Ok(s) => s,
                    Err(_) => {
                        load_errors += 1;
                        continue;
                    }
                };
                // Publisher-side guards, as in production: never swap
                // in an older epoch, never swap in a snapshot that
                // fails its smoke probe (a bit flip can survive
                // decoding with a wrong score).
                if loaded.epoch() <= publisher_handle.epoch() {
                    rejected += 1;
                    continue;
                }
                let staging = ServiceHandle::new(Arc::clone(&loaded));
                let score = probe(&staging);
                if loaded.epoch() != expected_epoch || (score - weight).abs() > 0.5 {
                    rejected += 1;
                    continue;
                }
                // Register the score before the epoch can serve.
                publisher_scores
                    .lock()
                    .unwrap()
                    .insert(loaded.epoch(), score);
                publisher_handle.publish(loaded);
                published += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            eprintln!(
                "publish_chaos: {published} published, {save_errors} save errors, \
                 {load_errors} load errors, {rejected} rejected"
            );
            published
        });

        let mut all = Vec::new();
        for t in client_threads {
            all.extend(t.join().expect("client thread"));
        }
        let published = publisher.join().expect("publisher thread");
        assert!(
            published >= 1,
            "chaos publisher never got a snapshot through at 10% injection"
        );
        all
    });

    assert_eq!(observed.len(), CLIENTS * REQUESTS);
    let scores = scores.lock().unwrap();
    for (epoch, relevance) in &observed {
        let expected = scores
            .get(epoch)
            .unwrap_or_else(|| panic!("response claimed unregistered epoch {epoch}"));
        // Registered weights are 10 apart; a torn or corrupt snapshot
        // misses by ~10, quantization noise by far less than 0.5.
        assert!(
            (relevance - expected).abs() < 0.5,
            "epoch {epoch} expected relevance ~{expected}, got {relevance}"
        );
    }
    // Epoch is also monotone across the handle itself.
    assert!(handle.epoch() >= scores.keys().copied().min().unwrap_or(0));

    server.shutdown();
}

// ------------------------------------------------------------- segments

/// Adapts the persist-layer [`FaultyFs`] to the segment store's fs
/// trait. The two traits expose the same four primitives, so the same
/// seeded fault plans drive the event-log sweeps.
struct FaultSegmentFs(FaultyFs);

impl SegmentFs for FaultSegmentFs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read>> {
        PersistFs::open_read(&self.0, path)
    }
    fn create_write(&self, path: &Path) -> io::Result<Box<dyn Write>> {
        PersistFs::create_write(&self.0, path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        PersistFs::rename(&self.0, from, to)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        PersistFs::create_dir_all(&self.0, path)
    }
}

fn faulty_segment_fs(plan: FaultPlan) -> Arc<dyn SegmentFs> {
    Arc::new(FaultSegmentFs(FaultyFs::new(Arc::new(plan))))
}

/// A deterministic mixed click/query stream for the segment sweeps.
fn segment_events(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                Event::Query {
                    terms: vec![format!("term{}", i % 6), "probe".to_string()],
                    freq: i as u64 + 1,
                }
            } else {
                Event::Click {
                    story: (i / 3) as u64,
                    surface: format!("surface {}", i % 5),
                    views: 100 + i as u64,
                    clicks: (i % 9) as u64,
                }
            }
        })
        .collect()
}

/// Torn-write sweep over segment append + seal: a tear in the WAL or a
/// dying seal must truncate cleanly to the last valid record on
/// recovery — sealed history is never corrupted, and the recovered
/// unsealed tail is always a strict prefix of what was appended.
#[test]
fn segment_sweep_torn_appends_recover_a_clean_prefix() {
    let base = seed_from_env(0xC11C_5E65);
    announce("segment_sweep_torn_appends_recover_a_clean_prefix", base);

    const SEALED: usize = 12;
    const TAIL: usize = 10;
    let mut sync_failures = 0usize;
    let mut seal_failures = 0usize;
    let mut clean_runs = 0usize;
    let mut truncated_tails = 0usize;

    for round in 0..200u64 {
        let seed = base.wrapping_add(round);
        let dir = TempDir::new("seg-torn");

        // A good store with sealed history, written through a clean fs.
        let committed = segment_events(SEALED);
        let config = SegmentConfig {
            segment_bytes: 1 << 20,
        };
        {
            let mut store = SegmentStore::open(Arc::new(StdSegmentFs), dir.path(), config)
                .expect("open clean store");
            for e in &committed {
                store.append(e).expect("clean append");
            }
            store.seal().expect("clean seal");
        }

        // Append an unsealed tail through a torn-write-only fs: every
        // failure below is a partial write followed by an error, never
        // a silently dropped byte. ~13 faultable writes per round, so
        // 15% keeps every regime (clean, torn sync, torn seal) well
        // populated for arbitrary CI seeds.
        let fs = faulty_segment_fs(FaultPlan::with_kinds(
            seed,
            150,
            &[],
            &[FaultKind::TornWrite],
        ));
        let tail = segment_events(SEALED + TAIL)[SEALED..].to_vec();
        let mut round_failed = false;
        let final_seal_ok = {
            let mut store = SegmentStore::open(fs, dir.path(), config).expect("reads are clean");
            for e in &tail {
                store.append(e).expect("append only buffers in memory");
                if let Err(e) = store.sync() {
                    assert!(!e.to_string().is_empty(), "sync error must display");
                    sync_failures += 1;
                    round_failed = true;
                }
            }
            match store.seal() {
                Ok(meta) => {
                    assert!(meta.is_some(), "non-empty buffer seals to a segment");
                    true
                }
                Err(e) => {
                    assert!(!e.to_string().is_empty(), "seal error must display");
                    seal_failures += 1;
                    round_failed = true;
                    false
                }
            }
        };
        if !round_failed {
            clean_runs += 1;
        }

        // Crash and recover through a clean fs. Sealed history replays
        // intact; the recovered tail is a prefix of what was appended.
        let mut recovered = SegmentStore::open(Arc::new(StdSegmentFs), dir.path(), config)
            .expect("recovery after torn writes");
        if final_seal_ok {
            // The manifest committed: the whole tail is sealed history.
            assert_eq!(recovered.active_events(), 0);
            let mut expected = committed.clone();
            expected.extend(tail.iter().cloned());
            assert_eq!(recovered.replay().expect("replay"), expected);
        } else {
            let kept = recovered.active_events() as usize;
            assert!(kept <= TAIL, "recovered more events than were appended");
            if kept < TAIL {
                truncated_tails += 1;
            }
            assert_eq!(
                recovered.replay().expect("replay"),
                committed,
                "a torn tail write corrupted sealed history"
            );
            // Sealing the recovered tail yields exactly a prefix of the
            // appended events — nothing reordered, nothing invented.
            recovered.seal().expect("seal recovered tail");
            let mut expected = committed.clone();
            expected.extend(tail[..kept].iter().cloned());
            assert_eq!(recovered.replay().expect("replay recovered"), expected);
        }
    }

    eprintln!(
        "segment torn sweep: {sync_failures} torn syncs, {seal_failures} torn seals, \
         {clean_runs} clean runs, {truncated_tails} truncated tails"
    );
    assert!(sync_failures > 0, "sweep never tore a WAL sync");
    assert!(seal_failures > 0, "sweep never tore a seal");
    assert!(clean_runs > 0, "sweep never completed a clean round");
    assert!(truncated_tails > 0, "sweep never truncated a torn tail");
}

/// Read-fault sweep over sealed-segment replay: bit flips, premature
/// EOF, and short reads either leave replay byte-intact or surface as a
/// typed [`ctxrank_querylog::SegmentError`] — never a panic, never
/// silently wrong events.
#[test]
fn segment_sweep_bit_flips_never_corrupt_replay() {
    let base = seed_from_env(0x5E63_F11B);
    announce("segment_sweep_bit_flips_never_corrupt_replay", base);

    const SEALED: usize = 24;
    const TAIL: usize = 4;
    let mut open_rejected = 0usize;
    let mut replay_rejected = 0usize;
    let mut intact = 0usize;

    for round in 0..200u64 {
        let seed = base.wrapping_add(round) ^ 0x0BAD_F00D;
        let dir = TempDir::new("seg-flip");

        // Good on-disk state: several sealed segments plus a synced
        // unsealed tail, all through a clean fs. The tail goes in via a
        // large-segment reopen so it cannot auto-seal.
        let events = segment_events(SEALED + TAIL);
        let config = SegmentConfig { segment_bytes: 128 };
        {
            let mut store = SegmentStore::open(Arc::new(StdSegmentFs), dir.path(), config)
                .expect("open clean store");
            for e in &events[..SEALED] {
                store.append(e).expect("clean append");
            }
            store.seal().expect("clean seal");
        }
        {
            let tail_config = SegmentConfig {
                segment_bytes: 1 << 20,
            };
            let mut store = SegmentStore::open(Arc::new(StdSegmentFs), dir.path(), tail_config)
                .expect("reopen for tail");
            for e in &events[SEALED..] {
                store.append(e).expect("clean tail append");
            }
            store.sync().expect("clean sync");
        }

        // Reopen and replay through a read-fault-only fs. Replaying
        // many small segments touches ~20 faultable reads per round, so
        // the rate is lower than the write sweeps' to keep a healthy
        // population of fully intact rounds.
        let fs = faulty_segment_fs(FaultPlan::with_kinds(
            seed,
            100,
            &[FaultKind::BitFlip, FaultKind::Eof, FaultKind::ShortRead],
            &[],
        ));
        match SegmentStore::open(fs, dir.path(), config) {
            Err(e) => {
                // Manifest or WAL read faulted: typed and displayable.
                assert!(!e.to_string().is_empty(), "open error must display");
                open_rejected += 1;
            }
            Ok(store) => {
                // A flipped WAL byte fails its record checksum, so the
                // recovered tail can only shrink, never mutate.
                assert!(
                    store.active_events() as usize <= TAIL,
                    "faulted WAL recovery invented events"
                );
                match store.replay() {
                    Ok(replayed) => {
                        assert_eq!(
                            replayed,
                            &events[..SEALED],
                            "replay returned Ok with corrupted events"
                        );
                        intact += 1;
                    }
                    Err(e) => {
                        assert!(!e.to_string().is_empty(), "replay error must display");
                        replay_rejected += 1;
                    }
                }
            }
        }
    }

    eprintln!(
        "segment flip sweep: {open_rejected} opens rejected, \
         {replay_rejected} replays rejected, {intact} intact"
    );
    assert!(
        open_rejected + replay_rejected > 0,
        "sweep never detected an injected read fault"
    );
    assert!(intact > 0, "sweep never replayed an intact store");
}

// --------------------------------------------------------------- router

/// A multi-concept snapshot so a 2-way partition puts real entries on
/// both shards (the single-concept [`snapshot`] helper would leave one
/// shard empty).
fn cluster_snapshot() -> Arc<Snapshot> {
    const N: usize = 6;
    let concepts: Vec<(String, InterestFeatures)> = (0..N)
        .map(|i| {
            (
                format!("concept {i}"),
                InterestFeatures {
                    freq_exact: 100 + i as u64 * 7,
                    unit_score: (i as f64 * 0.13) % 1.0,
                    ..InterestFeatures::default()
                },
            )
        })
        .collect();
    let interest = PackedInterestStore::build(&concepts);
    let keyword_sets: Vec<RelevantTerms> = (0..N)
        .map(|i| RelevantTerms {
            terms: (0..3)
                .map(|j| (format!("kw{}x{j}", i), 1.0 + (i + j) as f64))
                .collect(),
        })
        .collect();
    let mut tids = GlobalTidTable::new();
    let relevance = PackedRelevanceStore::build(
        concepts
            .iter()
            .map(|(s, _)| s.as_str())
            .zip(keyword_sets.iter()),
        &mut tids,
    );
    let groups: Vec<RankGroup> = (0..10)
        .map(|g| {
            RankGroup::from_pairs((0..2).map(|i| {
                let mut f = vec![0.0; 10];
                f[0] = (g + i) as f64;
                f[9] = (g * 2 + i) as f64;
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
        .expect("cluster snapshot")
}

/// The router failover acceptance sweep: 200 seeded rounds with a
/// [`ChaosProxy`] between the router and shard 0's primary, killing
/// connections mid-exchange at a 40% per-write rate. Every round the
/// scatter must still produce the full, single-epoch, byte-identical
/// merged answer — the replica covers whatever the chaos kills — and
/// over the sweep the proxy must actually have dropped connections.
#[test]
fn router_failover_sweep_answers_from_replica() {
    let base = seed_from_env(0x0F41_0E42);
    announce("router_failover_sweep", base);

    let full = cluster_snapshot();
    let parts = partition_snapshot(&full, 2).expect("partition");
    let start_shard = |part: usize| {
        Server::start(
            Arc::new(ServiceHandle::new(parts[part].snapshot.clone())),
            ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            }
            .as_shard(parts[part].bounds),
        )
        .expect("start shard server")
    };
    let primary0 = start_shard(0);
    let replica0 = start_shard(0);
    let shard1 = start_shard(1);

    // The chaos-free reference answer, byte-exact.
    let text = "kw0x0 kw1x1 kw2x2 kw3x0 kw4x1 kw5x2 filler";
    let candidates: Vec<String> = (0..6)
        .map(|i| format!("concept {i}"))
        .chain(std::iter::once("unknown concept".to_string()))
        .collect();
    let handle = ServiceHandle::new(Arc::clone(&full));
    let (epoch, expected) = handle.rank_batch_online(&[(text, &candidates)]);
    let expected_body = render_rank_response(epoch, &expected[0]).body;
    let body = serde_json::to_string(&serde_json::json!({
        "text": text,
        "candidates": serde_json::Value::Seq(
            candidates.iter().cloned().map(serde_json::Value::Str).collect()
        ),
    }))
    .expect("request body");

    let mut dropped_total = 0u64;
    for round in 0..200u64 {
        let round_seed = base ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plan = Arc::new(FaultPlan::new(round_seed, 400));
        let proxy = ChaosProxy::start(primary0.local_addr(), plan).expect("start chaos proxy");
        // A fresh router per round: connection pools start cold, so the
        // chaos schedule is a pure function of the round seed.
        let sg = ScatterGather::new(
            vec![
                ShardSpec {
                    primary: proxy.local_addr(),
                    replicas: vec![replica0.local_addr()],
                },
                ShardSpec::single(shard1.local_addr()),
            ],
            RouterConfig {
                client: ClientConfig {
                    connect_timeout: Duration::from_millis(500),
                    read_timeout: Duration::from_millis(500),
                    retries: 0,
                    ..ClientConfig::default()
                },
                gather_retries: 2,
                retry_backoff: Duration::from_millis(1),
            },
        );
        for query in 0..2 {
            let outcome = sg.rank(&body).unwrap_or_else(|e| {
                panic!("seed {round_seed} query {query}: failover did not save the scatter: {e}")
            });
            assert_eq!(
                outcome.epoch, epoch,
                "seed {round_seed}: merged response left the published epoch"
            );
            assert_eq!(
                outcome.merged, expected[0],
                "seed {round_seed}: chaos changed the merged ranking"
            );
            assert_eq!(
                outcome.render().body,
                expected_body,
                "seed {round_seed}: merged body is not byte-identical under chaos"
            );
        }
        dropped_total += proxy.dropped_connections();
        proxy.shutdown();
    }
    eprintln!("router_failover_sweep: {dropped_total} proxied connections killed over 200 rounds");
    assert!(
        dropped_total > 0,
        "the chaos proxy never killed a connection at 40% injection"
    );

    primary0.shutdown();
    replica0.shutdown();
    shard1.shutdown();
}
