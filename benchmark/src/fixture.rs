//! Everything a workload stands on before its warm-up: the
//! paper-calibrated world, the snapshot, the servers and the request
//! bodies. Building it is what `setup_s` times.

use crate::stats::Rng;
use ctxrank_bench::stages::{FeatureStage, MiningStage, PublishStage, TrainStage, WorldStage};
use ctxrank_bench::{Experiment, ExperimentConfig};
use ctxrank_framework::{
    load_service, partition_snapshot, save_service, ServiceHandle, Snapshot, SnapshotProjector,
};
use ctxrank_router::{RouterConfig, RouterServer, RouterServerConfig, ScatterGather, ShardSpec};
use ctxrank_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Documents are cut at the paper's §VI testbed size.
pub const DOC_BYTES: usize = 2_500;
/// The §VI testbed: 1445 documents.
pub const ANNOTATE_DOCS: usize = 1_445;
/// Result-cache budget of every benchmark server.
pub const CACHE_BYTES: usize = 2 << 20;
/// Body indices the Zipf mix draws from; the cache holds roughly the
/// top 30 % of them.
pub const ZIPF_KEYS: usize = 16_384;
pub const ZIPF_EXPONENT: f64 = 1.1;

/// Seconds spent in each of the five `stages.rs` `run` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSeconds {
    pub world: f64,
    pub mining: f64,
    pub feature: f64,
    pub train: f64,
    pub publish: f64,
}

/// The offline build: world → mining → features → train → publish, the
/// same composition as `Experiment::build` + `build_projector`, run
/// stage by stage so each stage is timed.
pub struct Offline {
    pub exp: Experiment,
    pub projector: SnapshotProjector,
    pub snapshot: Arc<Snapshot>,
    pub stages: StageSeconds,
}

impl Offline {
    /// `small` swaps the paper-calibrated 1000-story world for the
    /// 80-story test world (`--smoke` only).
    pub fn build(small: bool) -> Self {
        let config = if small {
            ExperimentConfig::small(0x2009)
        } else {
            ExperimentConfig::default()
        };
        let threads = ctxrank_parallel::num_threads();
        let mut stages = StageSeconds::default();
        let world = timed(&mut stages.world, || WorldStage::run(&config));
        let mining = timed(&mut stages.mining, || {
            MiningStage::run(&config, &world, threads)
        });
        let features = timed(&mut stages.feature, || {
            FeatureStage::run(&config, &world, &mining, threads)
        });
        let trained = timed(&mut stages.train, || TrainStage::run(&features.dataset));
        let (projector, snapshot) = timed(&mut stages.publish, || {
            PublishStage::run_bootstrap(&features.interest_raw, &features.relevance_models, trained)
        });
        let exp = Experiment {
            world: world.world,
            units: world.units,
            dictionary: world.dictionary,
            relevance_models: features.relevance_models,
            interest_raw: features.interest_raw,
            dataset: features.dataset,
            stats: features.stats,
            config,
        };
        Self {
            exp,
            projector,
            snapshot,
            stages,
        }
    }
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *slot = t.elapsed().as_secs_f64();
    out
}

/// A serving handle booted the way production boots: the snapshot is
/// saved as an arena and loaded back, so the server runs on the loaded
/// bytes.
pub struct Booted {
    pub handle: Arc<ServiceHandle>,
    pub save_ms: f64,
    pub load_ms: f64,
    pub snapshot_bytes: u64,
}

pub fn boot_service(snapshot: &Arc<Snapshot>, dir: &Path) -> Booted {
    let _ = std::fs::remove_dir_all(dir);
    let staging = ServiceHandle::new(Arc::clone(snapshot));
    let t = Instant::now();
    save_service(&staging, dir).expect("save the snapshot arena");
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let handle = load_service(dir).expect("load the snapshot arena");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let snapshot_bytes = std::fs::metadata(dir.join("snapshot.ctxr"))
        .expect("arena file")
        .len();
    Booted {
        handle: Arc::new(handle),
        save_ms,
        load_ms,
        snapshot_bytes,
    }
}

/// Touch and release `bytes` of fresh memory, then reset the process's
/// peak-RSS mark.
///
/// On the VM this benchmark was written on, the hypervisor backs guest
/// memory on first touch at 15–30 µs per page and takes freed pages back
/// within a minute. A workload whose RSS grows while it is measured
/// would therefore time the hypervisor — and differently on every run,
/// depending on how many backed pages the guest still holds. Released
/// here, the pages stay backed in the guest's free list for the run, so
/// growth costs a guest page fault, as it would on a machine whose
/// memory is its own.
pub fn back_memory(bytes: usize) {
    let mut block = vec![0u8; bytes];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    drop(std::hint::black_box(block));
    // "5" resets VmHWM to the current RSS, so `peak_rss_mb` reports the
    // program's peak and not this block. Best effort: a kernel without
    // `clear_refs` just keeps the old mark.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One configuration for every benchmark server: traffic is what
/// varies between workloads, not the server.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    }
    .with_cache(CACHE_BYTES)
}

pub fn start_server(handle: &Arc<ServiceHandle>) -> Server {
    Server::start(Arc::clone(handle), serve_config()).expect("start benchmark server")
}

/// Two shard servers over `partition_snapshot(.., 2)` behind a
/// scatter-gather router with an HTTP front.
pub struct Cluster {
    pub shards: Vec<Server>,
    pub sg: Arc<ScatterGather>,
    pub router: RouterServer,
    pub partition_ms: f64,
}

impl Cluster {
    pub fn start(snapshot: &Snapshot) -> Self {
        let t = Instant::now();
        let parts = partition_snapshot(snapshot, 2).expect("partition the snapshot");
        let partition_ms = t.elapsed().as_secs_f64() * 1e3;
        let shards: Vec<Server> = parts
            .iter()
            .map(|part| {
                Server::start(
                    Arc::new(ServiceHandle::new(Arc::clone(&part.snapshot))),
                    serve_config().as_shard(part.bounds),
                )
                .expect("start shard server")
            })
            .collect();
        let sg = Arc::new(ScatterGather::new(
            shards
                .iter()
                .map(|s| ShardSpec::single(s.local_addr()))
                .collect(),
            RouterConfig::default(),
        ));
        let router = RouterServer::start(Arc::clone(&sg), RouterServerConfig::default())
            .expect("start router");
        Self {
            shards,
            sg,
            router,
            partition_ms,
        }
    }

    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(Server::local_addr).collect()
    }

    /// Callers close their client connections first: both fronts join
    /// their connection handlers.
    pub fn shutdown(self) {
        self.router.shutdown();
        drop(self.sg);
        for s in self.shards {
            s.shutdown();
        }
    }
}

/// `/rank` request bodies. One base per dataset window (story text cut
/// at [`DOC_BYTES`], that window's surfaces as candidates); body index
/// `i` is base `i % bases` plus a ` [variant i]` suffix, rendered on
/// demand so no multi-megabyte pool sits in the benchmark's RSS.
pub struct Bodies {
    bases: Vec<Base>,
}

struct Base {
    text: String,
    candidates: Vec<String>,
    /// `{"text":"<escaped text>` — everything before the variant tag.
    head: String,
    /// `","candidates":[…]}` — everything after it.
    tail: String,
}

impl Bodies {
    pub fn from_experiment(exp: &Experiment) -> Self {
        let bases = exp
            .dataset
            .groups
            .iter()
            .map(|g| {
                let text = cut(&exp.world.news[g.story].text, DOC_BYTES).to_string();
                let candidates: Vec<String> = g.items.iter().map(|i| i.surface.clone()).collect();
                let mut head = String::from("{\"text\":\"");
                escape_into(&mut head, &text);
                let mut tail = String::from("\",\"candidates\":[");
                for (i, c) in candidates.iter().enumerate() {
                    if i > 0 {
                        tail.push(',');
                    }
                    tail.push('"');
                    escape_into(&mut tail, c);
                    tail.push('"');
                }
                tail.push_str("]}");
                Base {
                    text,
                    candidates,
                    head,
                    tail,
                }
            })
            .collect::<Vec<_>>();
        assert!(!bases.is_empty(), "the world has no ranking windows");
        Self { bases }
    }

    fn base(&self, index: u64) -> &Base {
        &self.bases[(index % self.bases.len() as u64) as usize]
    }

    /// The JSON request body for `index`.
    pub fn render(&self, index: u64, out: &mut Vec<u8>) {
        let base = self.base(index);
        out.clear();
        out.extend_from_slice(base.head.as_bytes());
        out.extend_from_slice(format!(" [variant {index}]").as_bytes());
        out.extend_from_slice(base.tail.as_bytes());
    }

    /// The same request as the server will parse it.
    pub fn doc(&self, index: u64) -> (String, &[String]) {
        let base = self.base(index);
        (format!("{} [variant {index}]", base.text), &base.candidates)
    }
}

/// Which body indices a lane sends, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// A fresh index per request: the cache probes, inserts and evicts
    /// but never hits.
    Miss,
    /// Zipf([`ZIPF_EXPONENT`]) over [`ZIPF_KEYS`] indices.
    Zipf,
}

/// One lane's seeded index sequence.
pub struct IndexStream {
    rng: Rng,
    zipf: Option<crate::stats::Zipf>,
    next_unique: u64,
    stride: u64,
}

impl IndexStream {
    pub fn new(mix: Mix, seed: u64, lane: usize, lanes: usize) -> Self {
        // Unique indices start past the Zipf keys at a seeded offset
        // and interleave across lanes, so no two requests of a run
        // share a body.
        let start = ZIPF_KEYS as u64 + (Rng::new(seed, u64::MAX).next_u64() >> 24);
        Self {
            rng: Rng::new(seed, lane as u64),
            zipf: (mix == Mix::Zipf).then(|| crate::stats::Zipf::new(ZIPF_KEYS, ZIPF_EXPONENT)),
            next_unique: start + lane as u64,
            stride: lanes as u64,
        }
    }

    pub fn next_index(&mut self) -> u64 {
        match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng) as u64,
            None => {
                let i = self.next_unique;
                self.next_unique += self.stride;
                i
            }
        }
    }
}

/// The annotation testbed: [`ANNOTATE_DOCS`] stories cut at
/// [`DOC_BYTES`], cycling over the world's news.
pub fn annotate_docs(exp: &Experiment) -> Vec<String> {
    (0..ANNOTATE_DOCS)
        .map(|i| cut(&exp.world.news[i % exp.world.news.len()].text, DOC_BYTES).to_string())
        .collect()
}

/// `text` cut at `max` bytes, backed off to a char boundary.
fn cut(text: &str, max: usize) -> &str {
    let mut end = max.min(text.len());
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

fn escape_into(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_respects_char_boundaries() {
        assert_eq!(cut("héllo", 2), "h");
        assert_eq!(cut("héllo", 3), "hé");
        assert_eq!(cut("abc", 10), "abc");
    }

    #[test]
    fn escaping_round_trips_through_the_json_parser() {
        let mut s = String::from("\"");
        escape_into(&mut s, "a\"b\\c\nd\te\u{1}é");
        s.push('"');
        let v: serde_json::Value = serde_json::from_str(&s).expect("valid JSON string");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}é"));
    }

    #[test]
    fn index_streams_repeat_for_a_seed_and_never_collide_across_lanes() {
        let take = |mix, seed, lane| {
            let mut s = IndexStream::new(mix, seed, lane, 2);
            (0..256).map(|_| s.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(take(Mix::Zipf, 5, 0), take(Mix::Zipf, 5, 0));
        assert_ne!(take(Mix::Zipf, 5, 0), take(Mix::Zipf, 6, 0));
        assert!(take(Mix::Zipf, 5, 1).iter().all(|&i| i < ZIPF_KEYS as u64));
        let (a, b) = (take(Mix::Miss, 5, 0), take(Mix::Miss, 5, 1));
        assert_eq!(a, take(Mix::Miss, 5, 0));
        assert_ne!(a, take(Mix::Miss, 6, 0));
        let mut all: Vec<u64> = a.into_iter().chain(b).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 512, "unique bodies across lanes");
        assert!(
            all[0] >= ZIPF_KEYS as u64,
            "unique bodies never alias a Zipf key"
        );
    }
}
