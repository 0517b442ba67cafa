//! Concurrent hot-swap: readers rank continuously while a publisher
//! installs rebuilt snapshots mid-traffic. Every ranking must be
//! internally consistent with exactly one published snapshot version
//! (no torn reads mixing two artifact generations), and each reader
//! must observe a monotone epoch sequence.

use ctxrank_features::{InterestFeatures, RelevantTerms};
use ctxrank_framework::{GlobalTidTable, PackedInterestStore, PackedRelevanceStore};
use ctxrank_framework::{RankedConcept, ServiceHandle, Snapshot, SnapshotBuilder};
use ctxrank_ltr::{train, RankGroup, SvmConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const TEXT: &str = "sunspot activity disrupts radio communication worldwide";
const SURFACE: &str = "solar flares";

/// A snapshot whose single concept carries one relevance keyword of the
/// given weight — rank results are distinguishable per snapshot.
fn snapshot(weight: f64) -> Arc<Snapshot> {
    let interest = PackedInterestStore::build(&[(
        SURFACE.to_string(),
        InterestFeatures {
            freq_exact: 100,
            ..InterestFeatures::default()
        },
    )]);
    let mut tids = GlobalTidTable::new();
    let kw = RelevantTerms {
        terms: vec![(ctxrank_text::stem("sunspot"), weight)],
    };
    let relevance = PackedRelevanceStore::build(vec![(SURFACE, &kw)], &mut tids);
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
        .expect("snapshot")
}

#[test]
fn readers_stay_consistent_while_publisher_swaps() {
    const PUBLISHES: usize = 40;
    const READERS: usize = 4;
    let weights = [1.0, 3.0, 7.0, 15.0];
    let candidates = vec![SURFACE.to_string()];

    // Pre-build every snapshot the publisher will install, and the
    // exact ranking each one must produce. Distinct weights quantize to
    // distinct packed relevance scores, so the expectations differ
    // across the weight cycle.
    let snapshots: Vec<Arc<Snapshot>> = (0..PUBLISHES)
        .map(|i| snapshot(weights[i % weights.len()]))
        .collect();
    let expected: HashMap<u64, Vec<RankedConcept>> = snapshots
        .iter()
        .map(|s| {
            let r = ctxrank_framework::RuntimeRanker::from_snapshot(s.clone());
            (s.epoch(), r.rank(TEXT, &candidates))
        })
        .collect();
    {
        let distinct: std::collections::HashSet<String> = expected
            .values()
            .map(|r| format!("{:?}", r[0].relevance))
            .collect();
        assert!(distinct.len() > 1, "snapshots must be distinguishable");
    }

    let handle = ServiceHandle::new(snapshots[0].clone());
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let handle = &handle;
        let done = &done;
        let expected = &expected;
        let candidates = &candidates;

        let mut readers = Vec::new();
        for _ in 0..READERS {
            readers.push(scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut iterations = 0usize;
                while !done.load(Ordering::Acquire) || iterations == 0 {
                    // A pinned view: the whole ranking runs on the one
                    // snapshot loaded here, however many publishes land
                    // meanwhile.
                    let ranker = handle.ranker();
                    let epoch = ranker.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    let got = ranker.rank(TEXT, candidates);
                    assert_eq!(
                        &got,
                        expected.get(&epoch).expect("known epoch"),
                        "ranking must match the snapshot it started on (epoch {epoch})"
                    );

                    // A batch loads its snapshot once at entry: every
                    // document must be ranked by the same version.
                    let docs: Vec<(&str, &[String])> =
                        (0..6).map(|_| (TEXT, candidates.as_slice())).collect();
                    let batch = handle.rank_batch(&docs);
                    let version = expected
                        .values()
                        .find(|e| *e == &batch[0])
                        .expect("batch output must match some published snapshot");
                    for b in &batch {
                        assert_eq!(b, version, "one batch must not mix snapshot versions");
                    }
                    iterations += 1;
                }
                iterations
            }));
        }

        for snap in &snapshots[1..] {
            handle.publish(snap.clone());
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);

        for r in readers {
            let iterations = r.join().expect("reader panicked");
            assert!(iterations > 0);
        }
    });

    assert_eq!(handle.epoch(), snapshots.last().unwrap().epoch());
}
