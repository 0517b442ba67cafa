//! Persistence for the production framework.
//!
//! The §VI framework splits work into an *offline* stage (feature
//! extraction, relevance mining, model training, store packing) and an
//! *online* stage (detection + ranking under strict latency budgets).
//! That split implies a hand-off artifact: the frozen [`Snapshot`]
//! written by the offline pipeline and loaded by the serving fleet.
//!
//! [`save_snapshot`]/[`load_snapshot`] implement that artifact as a
//! directory holding a single **arena file**, `snapshot.ctxr` (see the
//! `arena` module): one little-endian, checksummed, section-aligned
//! image of all four stores that loads with *no per-entry decode* — the
//! file is read once into an `Arc`-owned aligned buffer, validated, and
//! the stores become typed views into it.
//!
//! [`save_service`]/[`load_service`] additionally round-trip the online
//! CTR adjuster (`online.json`), so a restarted serving process resumes
//! §VIII adaptation where it left off instead of silently dropping it.
//!
//! Every failure mode — missing files, truncation, corruption, invalid
//! ranges — surfaces as a [`PersistError`] instead of a panic.
//!
//! **Crash/fault safety.** All byte-level I/O goes through the
//! [`PersistFs`] trait (default: [`StdFs`]), so a fault-injection
//! harness (`ctxrank-faultsim`) can wrap every read and write. Saves
//! are *atomic per file*: bytes land in `<name>.tmp` and are renamed
//! into place only after a successful flush. The rename of
//! `snapshot.ctxr` **is** the commit point (and [`save_service`] orders
//! it after `online.json`). A save that dies mid-way (torn write, full
//! disk, injected fault) therefore never clobbers the previous good
//! snapshot, and any corruption that does reach an arena file is caught
//! by its whole-file checksum and surfaces as [`PersistError::Corrupt`].

use crate::arena::{self, AlignedBuf};
use crate::online::OnlineCtrAdjuster;
use crate::snapshot::{Snapshot, SnapshotBuilder};
use crate::swap::ServiceHandle;
use std::io;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const F_ARENA: &str = arena::ARENA_FILE;
const F_ONLINE: &str = "online.json";
const F_PROPENSITY: &str = "propensity.bin";

/// Why a snapshot directory could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem-level failure on one component file (or the
    /// directory itself).
    Io {
        file: &'static str,
        source: io::Error,
    },
    /// A component file exists but its contents are not a valid
    /// encoding: bad magic, truncation, inverted ranges, malformed
    /// JSON, a non-linear model, ...
    Corrupt { file: &'static str, detail: String },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { file, source } => write!(f, "{file}: {source}"),
            PersistError::Corrupt { file, detail } => write!(f, "{file}: corrupt: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Corrupt { .. } => None,
        }
    }
}

fn io_err(file: &'static str) -> impl FnOnce(io::Error) -> PersistError {
    move |source| PersistError::Io { file, source }
}

fn corrupt(file: &'static str, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        file,
        detail: detail.into(),
    }
}

/// The byte-level filesystem operations the persist layer performs.
///
/// Production uses [`StdFs`]. The fault-injection harness
/// (`ctxrank-faultsim`) supplies an implementation whose readers and
/// writers inject short reads, torn writes, bit flips and I/O errors —
/// which is why the save/load paths below never touch `std::fs`
/// directly.
pub trait PersistFs {
    /// Open `path` for reading.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read>>;
    /// Create (truncate) `path` for writing.
    fn create_write(&self, path: &Path) -> io::Result<Box<dyn Write>>;
    /// Atomically move `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Create `path` and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Does `path` exist? (Never injected: the only files probed are
    /// the optional `online.json` and `propensity.bin` sidecars, and a
    /// probe decides presence, not data integrity.)
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl PersistFs for StdFs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read>> {
        Ok(Box::new(std::fs::File::open(path)?))
    }

    fn create_write(&self, path: &Path) -> io::Result<Box<dyn Write>> {
        Ok(Box::new(std::fs::File::create(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// Read a whole component file through `fs`.
fn read_file(fs: &dyn PersistFs, dir: &Path, file: &'static str) -> Result<Vec<u8>, PersistError> {
    let mut reader = fs.open_read(&dir.join(file)).map_err(io_err(file))?;
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes).map_err(io_err(file))?;
    Ok(bytes)
}

/// Stage `bytes` in `<file>.tmp` (flushed, not yet visible).
fn write_file_tmp(
    fs: &dyn PersistFs,
    dir: &Path,
    file: &'static str,
    bytes: &[u8],
) -> Result<(), PersistError> {
    let tmp: PathBuf = dir.join(format!("{file}.tmp"));
    let mut writer = fs.create_write(&tmp).map_err(io_err(file))?;
    writer.write_all(bytes).map_err(io_err(file))?;
    writer.flush().map_err(io_err(file))
}

/// Rename `<file>.tmp` into place — the point where a staged file
/// becomes visible.
fn commit_file_tmp(fs: &dyn PersistFs, dir: &Path, file: &'static str) -> Result<(), PersistError> {
    fs.rename(&dir.join(format!("{file}.tmp")), &dir.join(file))
        .map_err(io_err(file))
}

/// Write a component file atomically: bytes go to `<file>.tmp`, the
/// writer is flushed, and only then is the temp renamed into place. Any
/// failure leaves the previous version of `file` untouched.
fn write_file_atomic(
    fs: &dyn PersistFs,
    dir: &Path,
    file: &'static str,
    bytes: &[u8],
) -> Result<(), PersistError> {
    write_file_tmp(fs, dir, file, bytes)?;
    commit_file_tmp(fs, dir, file)
}

/// Encode `snapshot` as one arena image.
fn encode_arena(snapshot: &Snapshot) -> Result<Vec<u8>, PersistError> {
    let model =
        serde_json::to_vec_pretty(snapshot.model()).map_err(|e| corrupt(F_ARENA, e.to_string()))?;
    Ok(arena::encode(
        snapshot.interest(),
        snapshot.relevance(),
        snapshot.tids(),
        &model,
        snapshot.epoch(),
    ))
}

/// Save `snapshot` into `dir` (created if missing) as a single arena
/// file, `snapshot.ctxr`. The rename of that file is the commit point.
pub fn save_snapshot(snapshot: &Snapshot, dir: &Path) -> Result<(), PersistError> {
    save_snapshot_with(snapshot, dir, &StdFs)
}

/// [`save_snapshot`] through an explicit [`PersistFs`] (fault injection
/// and tests).
pub fn save_snapshot_with(
    snapshot: &Snapshot,
    dir: &Path,
    fs: &dyn PersistFs,
) -> Result<(), PersistError> {
    fs.create_dir_all(dir)
        .map_err(io_err("snapshot directory"))?;
    write_file_atomic(fs, dir, F_ARENA, &encode_arena(snapshot)?)
}

/// Load a snapshot previously written by [`save_snapshot`]. A directory
/// without `snapshot.ctxr` is a typed [`PersistError::Io`] naming that
/// file.
pub fn load_snapshot(dir: &Path) -> Result<Arc<Snapshot>, PersistError> {
    load_snapshot_with(dir, &StdFs)
}

/// [`load_snapshot`] through an explicit [`PersistFs`]: read
/// `snapshot.ctxr` once into an aligned buffer, validate it (header,
/// whole-file checksum, section bounds, string-table invariants), and
/// build the snapshot from views into that buffer — no per-entry
/// decode. Every injected corruption surfaces as a typed
/// [`PersistError`]; nothing panics.
pub fn load_snapshot_with(dir: &Path, fs: &dyn PersistFs) -> Result<Arc<Snapshot>, PersistError> {
    let bytes = read_file(fs, dir, F_ARENA)?;
    let buf = Arc::new(AlignedBuf::from_bytes(&bytes));
    drop(bytes);
    let decoded = arena::decode(buf).map_err(|detail| corrupt(F_ARENA, detail))?;
    let model: ctxrank_ltr::RankModel = serde_json::from_slice(&decoded.model_json)
        .map_err(|e| corrupt(F_ARENA, format!("model: {e}")))?;
    SnapshotBuilder::new()
        .interest(decoded.interest)
        .relevance(decoded.relevance)
        .tids(decoded.tids)
        .model(model)
        .epoch(decoded.epoch)
        .build()
        .map_err(|e| corrupt(F_ARENA, e.to_string()))
}

/// Save a serving handle: its current snapshot plus the accumulated
/// online CTR state (`online.json`).
pub fn save_service(handle: &ServiceHandle, dir: &Path) -> Result<(), PersistError> {
    save_service_with(handle, dir, &StdFs)
}

/// [`save_service`] through an explicit [`PersistFs`]. Write order is
/// stage `snapshot.ctxr.tmp` → `online.json` → `propensity.bin` (when
/// a table is installed) → rename the arena into place, so a save that
/// fails at any point never clobbers the previous good snapshot.
pub fn save_service_with(
    handle: &ServiceHandle,
    dir: &Path,
    fs: &dyn PersistFs,
) -> Result<(), PersistError> {
    let snapshot = handle.current();
    fs.create_dir_all(dir)
        .map_err(io_err("snapshot directory"))?;
    write_file_tmp(fs, dir, F_ARENA, &encode_arena(&snapshot)?)?;
    let adjuster = handle.adjuster_state();
    let bytes =
        serde_json::to_vec_pretty(&adjuster).map_err(|e| corrupt(F_ONLINE, e.to_string()))?;
    write_file_atomic(fs, dir, F_ONLINE, &bytes)?;
    // The propensity table rides in its own checksummed binary, not in
    // online.json: JSON has no integrity check, and a flipped digit in
    // a weight would load as a silently skewed adjuster.
    if let Some(table) = adjuster.propensities() {
        write_file_atomic(fs, dir, F_PROPENSITY, &table.encode())?;
    }
    commit_file_tmp(fs, dir, F_ARENA)
}

/// Load a serving handle written by [`save_service`]. A plain snapshot
/// directory (no `online.json`) loads with an empty adjuster.
pub fn load_service(dir: &Path) -> Result<ServiceHandle, PersistError> {
    load_service_with(dir, &StdFs)
}

/// [`load_service`] through an explicit [`PersistFs`].
pub fn load_service_with(dir: &Path, fs: &dyn PersistFs) -> Result<ServiceHandle, PersistError> {
    let snapshot = load_snapshot_with(dir, fs)?;
    let mut adjuster = if fs.exists(&dir.join(F_ONLINE)) {
        let bytes = read_file(fs, dir, F_ONLINE)?;
        serde_json::from_slice::<OnlineCtrAdjuster>(&bytes)
            .map_err(|e| corrupt(F_ONLINE, e.to_string()))?
    } else {
        OnlineCtrAdjuster::default()
    };
    if fs.exists(&dir.join(F_PROPENSITY)) {
        let bytes = read_file(fs, dir, F_PROPENSITY)?;
        let table = crate::propensity::PropensityTable::decode(&bytes)
            .map_err(|e| corrupt(F_PROPENSITY, e.to_string()))?;
        adjuster.set_propensities(table);
    }
    Ok(ServiceHandle::with_adjuster(snapshot, adjuster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedInterestStore;
    use crate::ranker::RuntimeRanker;
    use crate::relstore::PackedRelevanceStore;
    use crate::tid::GlobalTidTable;
    use ctxrank_features::{InterestFeatures, RelevantTerms};
    use ctxrank_ltr::{train, RankGroup, SvmConfig};

    fn sample_ranker() -> RuntimeRanker {
        let concepts: Vec<(String, InterestFeatures)> = (0..12)
            .map(|i| {
                (
                    format!("concept {i}"),
                    InterestFeatures {
                        freq_exact: i * 31,
                        wiki_word_count: (i * 97) as u32,
                        ..InterestFeatures::default()
                    },
                )
            })
            .collect();
        let interest = PackedInterestStore::build(&concepts);
        let mut tids = GlobalTidTable::new();
        let sets: Vec<(String, RelevantTerms)> = (0..12)
            .map(|i| {
                (
                    format!("concept {i}"),
                    RelevantTerms {
                        terms: (0..8)
                            .map(|j| (format!("kw{}", i + j), 1.0 + j as f64))
                            .collect(),
                    },
                )
            })
            .collect();
        let relevance =
            PackedRelevanceStore::build(sets.iter().map(|(s, r)| (s.as_str(), r)), &mut tids);
        let groups: Vec<RankGroup> = (0..10)
            .map(|g| {
                RankGroup::from_pairs((0..3).map(|i| {
                    let mut f = vec![0.0; 10];
                    f[0] = (g + i) as f64;
                    (f, i as f64 * 0.01)
                }))
            })
            .collect();
        let model = train(&groups, &SvmConfig::default());
        RuntimeRanker::new(interest, relevance, tids, model)
    }

    #[test]
    fn save_load_roundtrip_preserves_scores() {
        let ranker = sample_ranker();
        let dir = std::env::temp_dir().join(format!("ctxrank_persist_{}", std::process::id()));
        save_snapshot(ranker.snapshot(), &dir).expect("save");
        let loaded = RuntimeRanker::from_snapshot(load_snapshot(&dir).expect("load"));

        let candidates: Vec<String> = (0..12).map(|i| format!("concept {i}")).collect();
        let text = "kw1 kw5 kw9 filler words here";
        let a = ranker.rank(text, &candidates);
        let b = loaded.rank(text, &candidates);
        assert_eq!(a.len(), b.len());
        // The reference is the in-memory snapshot the file was saved
        // from: the arena stores its bytes, so the match is bit-exact.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.surface, y.surface);
            assert_eq!(x.score, y.score);
            assert_eq!(x.relevance, y.relevance);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_preserves_epoch() {
        let ranker = sample_ranker();
        let dir =
            std::env::temp_dir().join(format!("ctxrank_persist_epoch_{}", std::process::id()));
        save_snapshot(ranker.snapshot(), &dir).expect("save");
        let loaded = load_snapshot(&dir).expect("load");
        assert_eq!(loaded.epoch(), ranker.epoch());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_writes_a_single_file() {
        let ranker = sample_ranker();
        let dir =
            std::env::temp_dir().join(format!("ctxrank_persist_arena_{}", std::process::id()));
        save_snapshot(ranker.snapshot(), &dir).expect("save");
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(files, [F_ARENA]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arena_bit_flip_rejected_everywhere() {
        let ranker = sample_ranker();
        let dir = std::env::temp_dir().join(format!("ctxrank_persist_flip_{}", std::process::id()));
        save_snapshot(ranker.snapshot(), &dir).expect("save");
        let path = dir.join(F_ARENA);
        let good = std::fs::read(&path).expect("read");
        // Flip one bit at positions spread across the whole file: the
        // checksum (or a structural check) must reject every one.
        let step = (good.len() / 23).max(1);
        for byte in (0..good.len()).step_by(step) {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            std::fs::write(&path, &bad).expect("write");
            match load_snapshot(&dir) {
                Err(PersistError::Corrupt { file, .. }) => assert_eq!(file, F_ARENA),
                other => panic!("bit flip at byte {byte} not rejected: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arena_truncation_rejected() {
        let ranker = sample_ranker();
        let dir =
            std::env::temp_dir().join(format!("ctxrank_persist_atrunc_{}", std::process::id()));
        save_snapshot(ranker.snapshot(), &dir).expect("save");
        let path = dir.join(F_ARENA);
        let good = std::fs::read(&path).expect("read");
        for keep in [0, 7, 47, 48, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..keep]).expect("write");
            match load_snapshot(&dir) {
                Err(PersistError::Corrupt { file, .. }) => assert_eq!(file, F_ARENA),
                other => panic!("truncation to {keep} B not rejected: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_errors() {
        match load_snapshot(Path::new("/nonexistent/ctxrank")) {
            Err(PersistError::Io { file, .. }) => assert_eq!(file, F_ARENA),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn directory_without_arena_file_is_a_typed_io_error() {
        let dir =
            std::env::temp_dir().join(format!("ctxrank_persist_noarena_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        // What a pre-arena writer left behind: never decoded, never a panic.
        for file in ["interest.bin", "relevance.bin", "tids.bin", "model.json"] {
            std::fs::write(dir.join(file), [0x09, 0x20, 0xDE, 0x12, 0, 0, 0, 0]).expect("write");
        }
        match load_snapshot(&dir) {
            Err(PersistError::Io { file, source }) => {
                assert_eq!(file, F_ARENA);
                assert_eq!(source.kind(), io::ErrorKind::NotFound);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(matches!(
            load_service(&dir),
            Err(PersistError::Io { file: F_ARENA, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn service_roundtrip_preserves_adjuster() {
        let ranker = sample_ranker();
        let handle = ServiceHandle::new(ranker.snapshot().clone());
        for _ in 0..40 {
            handle.record_feedback("concept 3", 1000, 20);
        }
        for _ in 0..3 {
            handle.record_feedback("concept 3", 1000, 160);
        }
        let boost = handle.adjustment("concept 3");
        assert!(boost > 0.5, "expected a boost, got {boost}");

        let dir =
            std::env::temp_dir().join(format!("ctxrank_persist_service_{}", std::process::id()));
        save_service(&handle, &dir).expect("save service");
        let restored = load_service(&dir).expect("load service");
        assert_eq!(restored.epoch(), handle.epoch());
        assert!(
            (restored.adjustment("concept 3") - boost).abs() < 1e-12,
            "restart must not drop online CTR state"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn service_roundtrip_preserves_propensity_table() {
        use crate::propensity::PropensityTable;

        let ranker = sample_ranker();
        let handle = ServiceHandle::new(ranker.snapshot().clone());
        let table =
            PropensityTable::from_examination(&[0.9, 0.45, 0.15, 0.05], 7.5).expect("valid table");
        handle.install_propensities(table.clone());
        for _ in 0..5 {
            handle.record_feedback_ranked("concept 3", 2, 1000, 20);
        }
        let est = handle
            .adjuster_state()
            .ctr_estimate("concept 3")
            .expect("recorded");

        let dir =
            std::env::temp_dir().join(format!("ctxrank_persist_propensity_{}", std::process::id()));
        save_service(&handle, &dir).expect("save service");
        assert!(dir.join(F_PROPENSITY).exists(), "propensity.bin written");
        // online.json stays propensity-free (backward-compatible shape).
        let online = std::fs::read_to_string(dir.join(F_ONLINE)).expect("online.json");
        assert!(!online.contains("propensity"), "{online}");

        let restored = load_service(&dir).expect("load service");
        assert_eq!(restored.propensity_ranks(), 4);
        let restored_adj = restored.adjuster_state();
        assert_eq!(restored_adj.propensities(), Some(&table));
        assert_eq!(restored_adj.ctr_estimate("concept 3"), Some(est));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_propensity_file_is_a_typed_corrupt_never_skewed() {
        use crate::propensity::PropensityTable;

        let ranker = sample_ranker();
        let handle = ServiceHandle::new(ranker.snapshot().clone());
        handle.install_propensities(
            PropensityTable::from_examination(&[1.0, 0.5, 0.25], 10.0).expect("valid table"),
        );
        let dir = std::env::temp_dir().join(format!(
            "ctxrank_persist_propensity_damage_{}",
            std::process::id()
        ));
        save_service(&handle, &dir).expect("save service");
        let path = dir.join(F_PROPENSITY);
        let clean = std::fs::read(&path).expect("read propensity.bin");

        // Bit flip in the middle of a weight.
        let mut flipped = clean.clone();
        flipped[20] ^= 0x08;
        std::fs::write(&path, &flipped).expect("write");
        match load_service(&dir) {
            Err(PersistError::Corrupt { file, .. }) => assert_eq!(file, F_PROPENSITY),
            other => panic!("expected Corrupt(propensity.bin), got {other:?}"),
        }

        // Torn tail.
        std::fs::write(&path, &clean[..clean.len() - 3]).expect("write");
        match load_service(&dir) {
            Err(PersistError::Corrupt { file, .. }) => assert_eq!(file, F_PROPENSITY),
            other => panic!("expected Corrupt(propensity.bin), got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
