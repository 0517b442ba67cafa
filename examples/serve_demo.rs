//! End-to-end serving demo: build a synthetic snapshot through the
//! offline stage pipeline, stream a burst of fresh click events through
//! the append-only segment log into an incremental delta publish, then
//! serve the updated snapshot over HTTP until told to stop.
//!
//! ```text
//! cargo run --release --example serve_demo
//! # in another terminal:
//! curl -s localhost:7878/healthz
//! curl -s localhost:7878/rank -d '{"text": "...", "candidates": ["..."]}'
//! curl -s localhost:7878/metrics
//! curl -s -X POST localhost:7878/admin/shutdown
//! ```
//!
//! Knobs: `CTXRANK_SERVE_ADDR` (default `127.0.0.1:7878`),
//! `CTXRANK_THREADS` (requests executing at once).

use ctxrank_bench::{build_projector, Experiment, ExperimentConfig};
use ctxrank_framework::ServiceHandle;
use ctxrank_querylog::{Event, SegmentConfig, SegmentStore};
use ctxrank_serve::{ServeConfig, Server};
use std::sync::Arc;

fn main() {
    eprintln!("serve_demo: building the synthetic experiment (offline stage pipeline)...");
    let exp = Experiment::build(ExperimentConfig::small(0xd43a));
    let (mut projector, snapshot) = build_projector(&exp);
    eprintln!(
        "serve_demo: snapshot epoch {} with {} concepts",
        snapshot.epoch(),
        snapshot.interest().len()
    );

    // A few real surfaces from the snapshot so the printed curl line
    // returns non-trivial rankings out of the box.
    let mut surfaces: Vec<&String> = exp.interest_raw.keys().collect();
    surfaces.sort_unstable();
    let sample: Vec<String> = surfaces.iter().take(3).map(|s| s.to_string()).collect();
    let sample_doc = exp.world.news[0].text.chars().take(200).collect::<String>();

    let handle = Arc::new(ServiceHandle::new(snapshot));
    let addr = std::env::var("CTXRANK_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".into());
    let server = Server::start(
        Arc::clone(&handle),
        ServeConfig {
            addr,
            enable_shutdown_endpoint: true,
            ..ServeConfig::default()
        }
        // Epoch-keyed result cache: repeated queries are served from
        // memory until the next publish invalidates every key.
        .with_cache(32 << 20),
    )
    .expect("start server");

    // Streaming ingestion: a burst of fresh click events lands in the
    // append-only log, seals, and folds into an incremental delta
    // publish — the served epoch advances without an offline rebuild.
    let mut store = SegmentStore::in_memory(SegmentConfig::default());
    for (i, s) in surfaces.iter().take(64).enumerate() {
        store
            .append(&Event::Click {
                story: 1_000_000 + i as u64,
                surface: s.to_string(),
                views: 120,
                clicks: (i % 7) as u64,
            })
            .expect("in-memory append");
    }
    store.seal().expect("seal ingest burst");
    let folded = projector.folded_seq();
    let lag: u64 = store
        .sealed()
        .iter()
        .filter(|m| m.seq >= folded)
        .map(|m| m.events)
        .sum();
    server.metrics().set_ingest_lag_events(lag);
    server.metrics().set_segment_bytes(store.sealed_bytes());
    eprintln!("serve_demo: {lag} sealed events behind the served epoch");
    let epoch = projector
        .publish_from(&store, &handle)
        .expect("delta publish");
    server.metrics().record_delta_publish();
    server.metrics().set_ingest_lag_events(0);
    eprintln!("serve_demo: delta publish advanced serving to epoch {epoch}");

    let local = server.local_addr();
    let body = serde_json::json!({
        "text": sample_doc,
        "candidates": serde_json::Value::Seq(
            sample.iter().cloned().map(serde_json::Value::Str).collect()
        ),
    });
    println!("serve_demo: ready on http://{local}");
    println!("  curl -s {local}/healthz");
    println!(
        "  curl -s {local}/rank -d '{}'",
        serde_json::to_string(&body).expect("sample body")
    );
    println!("  curl -s {local}/metrics");
    println!("  curl -s -X POST {local}/admin/shutdown");

    server.wait_for_shutdown_request();
    eprintln!("serve_demo: shutdown requested, draining...");
    server.shutdown();
    eprintln!("serve_demo: done");
}
