//! Epoch-reclamation stress tests for the segment store.
//!
//! The snapshot contract under concurrent mutation:
//!
//! 1. **Bit-identical answers** — a query batch runs against exactly one
//!    published snapshot; while compaction, inserts, and deletes churn
//!    rows the batch never looked at, its answers are bit-for-bit
//!    identical to a single-threaded run. No torn views, ever.
//! 2. **No use-after-unmap** — a pinned snapshot stays fully queryable
//!    after compaction unlinks its segment files: the mmap holds the
//!    data until the last `Arc` drops.
//! 3. **Monotonic epochs** — successively published snapshots never go
//!    backwards.
//!
//! The trick that makes "bit-identical under churn" decidable: two
//! descriptor clusters. Cluster A (near the origin) is inserted first,
//! compacted once, and never touched again — so its global ids are
//! stable across every renumbering compaction. Cluster B lives far away
//! and absorbs all the churn. Any near-origin query's top-k is provably
//! inside A under L1, so every legal snapshot — any epoch, mid-churn or
//! not — must return the *same* ranked list.

use cbir_core::persist::{parse_manifest, MANIFEST_FILE};
use cbir_core::{
    CorpusSnapshot, CorpusStore, ImageMeta, IndexKind, QueryEngine, Ranked, StoreOptions,
};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::BatchStats;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const A_ROWS: usize = 16;
const K: usize = 5;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn next_f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

fn pipeline() -> Pipeline {
    Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::UniformRgb {
            per_channel: 2,
        })],
    )
    .unwrap()
}

fn options() -> StoreOptions {
    let mut o = StoreOptions::new(IndexKind::Linear, Measure::L1);
    o.max_seg_rows = 8;
    o.memtable_limit = 1 << 16;
    o
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cbir_epoch_stress_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cluster A: descriptors in [0, 0.1)^dim, near the origin.
fn cluster_a(n: usize, dim: usize, seed: u64) -> Vec<(ImageMeta, Vec<f32>)> {
    let mut rng = XorShift(seed | 1);
    (0..n)
        .map(|i| {
            (
                ImageMeta {
                    name: format!("a-{i:03}"),
                    label: Some(0),
                },
                (0..dim).map(|_| rng.next_f32() * 0.1).collect(),
            )
        })
        .collect()
}

/// Cluster B: descriptors offset by +10 per axis — L1 distance to any
/// near-origin query is at least 10·dim − ε, far beyond all of A.
fn cluster_b_row(dim: usize, rng: &mut XorShift, tag: u64) -> (ImageMeta, Vec<f32>) {
    (
        ImageMeta {
            name: format!("b-{tag:06}"),
            label: Some(1),
        },
        (0..dim).map(|_| 10.0 + rng.next_f32()).collect(),
    )
}

fn near_origin_queries(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = XorShift(seed | 1);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f32() * 0.1).collect())
        .collect()
}

/// Flatten ranked results into bit-comparable keys.
fn keys(results: &[Vec<Ranked>]) -> Vec<Vec<(usize, String, u32)>> {
    results
        .iter()
        .map(|hits| {
            hits.iter()
                .map(|r| (r.id, r.name.clone(), r.distance.to_bits()))
                .collect()
        })
        .collect()
}

fn knn_keys(snap: &CorpusSnapshot, queries: &[Vec<f32>]) -> Vec<Vec<(usize, String, u32)>> {
    let mut stats = BatchStats::new();
    keys(&snap.knn_batch(queries, K, 1, &mut stats).unwrap())
}

/// Seed a store: cluster A committed first (stable ids 0..A_ROWS), plus
/// an initial batch of cluster B rows.
fn seed_store(dir: &PathBuf) -> Arc<CorpusStore> {
    let store = CorpusStore::create(dir, pipeline(), false, options()).unwrap();
    let dim = store.snapshot().dim();
    for (meta, desc) in cluster_a(A_ROWS, dim, 0xA11CE) {
        store.insert(meta, desc).unwrap();
    }
    let mut rng = XorShift(0xB0B);
    for tag in 0..8u64 {
        let (meta, desc) = cluster_b_row(dim, &mut rng, tag);
        store.insert(meta, desc).unwrap();
    }
    store.compact().unwrap();
    store
}

#[test]
fn concurrent_queries_are_bit_identical_while_compaction_churns() {
    let dir = temp_dir("races");
    let store = seed_store(&dir);
    let dim = store.snapshot().dim();
    let queries = near_origin_queries(6, dim, 0x9E1D);
    let expected = knn_keys(&store.snapshot(), &queries);
    // Sanity: the top-k of a near-origin query is entirely inside the
    // untouched cluster, so churn in B cannot legally change it.
    for hits in &expected {
        assert_eq!(hits.len(), K);
        for (id, name, _) in hits {
            assert!(*id < A_ROWS, "hit {name} outside the stable cluster");
        }
    }

    const ROUNDS: usize = 40;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Mutator: each round inserts B rows, deletes B rows, and
        // compacts — every compaction renumbers ids above A and unlinks
        // the previous epoch's segment files.
        let mutator_store = Arc::clone(&store);
        let mutator = scope.spawn({
            let done = &done;
            move || {
                let mut rng = XorShift(0xDEAD);
                let mut tag = 1000u64;
                for round in 0..ROUNDS {
                    for _ in 0..4 {
                        let (meta, desc) = cluster_b_row(dim, &mut rng, tag);
                        tag += 1;
                        mutator_store.insert(meta, desc).unwrap();
                    }
                    // Delete two live B rows (sole writer, so the
                    // snapshot it picks from cannot go stale).
                    let snap = mutator_store.snapshot();
                    let victims: Vec<u64> = (A_ROWS as u64..snap.total_rows() as u64)
                        .filter(|&id| snap.contains(id))
                        .take(2)
                        .collect();
                    for id in victims {
                        mutator_store.delete(id).unwrap();
                    }
                    if round % 2 == 0 {
                        mutator_store.compact().unwrap();
                    }
                }
                done.store(true, Ordering::Release);
            }
        });

        // Query threads: race the mutator, assert every reply is
        // bit-identical to the single-threaded baseline and that
        // published epochs never move backwards.
        let mut readers = Vec::new();
        for _ in 0..3 {
            let reader_store = Arc::clone(&store);
            let queries = &queries;
            let expected = &expected;
            let done = &done;
            readers.push(scope.spawn(move || {
                let mut iterations = 0usize;
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = reader_store.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} -> {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    assert_eq!(
                        &knn_keys(&snap, queries),
                        expected,
                        "reply diverged at epoch {}",
                        snap.epoch()
                    );
                    iterations += 1;
                }
                iterations
            }));
        }
        mutator.join().unwrap();
        for reader in readers {
            let iterations = reader.join().unwrap();
            assert!(iterations > 0, "reader never completed a query");
        }
    });

    // After the dust settles the stable cluster still answers the same.
    assert_eq!(knn_keys(&store.snapshot(), &queries), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pinned_snapshot_survives_compaction_unlinking_its_segments() {
    let dir = temp_dir("unmap");
    let store = seed_store(&dir);
    let dim = store.snapshot().dim();
    let queries = near_origin_queries(4, dim, 0x0DD);

    let seg_files = |()| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("seg-"))
            .collect();
        names.sort();
        names
    };

    let pinned = store.snapshot();
    let pinned_epoch = pinned.epoch();
    let before_files = seg_files(());
    let baseline = knn_keys(&pinned, &queries);
    let pinned_len = pinned.len();

    // Churn and compact twice so the pinned snapshot's files are gone: a
    // compaction rewrites only segments holding a tombstone, so each
    // round tombstones the first row of every committed segment.
    let mut rng = XorShift(0xFADE);
    let mut victims = Vec::new();
    for round in 0..2u64 {
        for tag in 0..6 {
            let (meta, desc) = cluster_b_row(dim, &mut rng, 9000 + round * 10 + tag);
            store.insert(meta, desc).unwrap();
        }
        let snap = store.snapshot();
        let manifest = parse_manifest(&std::fs::read(dir.join(MANIFEST_FILE)).unwrap()).unwrap();
        let mut first = 0;
        for entry in &manifest.segments {
            victims.push(snap.meta(first).unwrap().name);
            store.delete(first).unwrap();
            first += entry.rows;
        }
        let stats = store.compact().unwrap();
        assert!(
            stats.epoch > pinned_epoch,
            "compaction must advance the epoch"
        );
        assert_eq!(stats.segments_kept, 0, "round {round} kept a segment");
    }

    let after_files = seg_files(());
    assert!(
        before_files.iter().all(|f| !after_files.contains(f)),
        "old segment files should be unlinked: before {before_files:?}, after {after_files:?}"
    );

    // The pinned snapshot still serves from its (now unlinked) mmaps:
    // same rows, same bits, no use-after-unmap.
    assert_eq!(pinned.epoch(), pinned_epoch);
    assert_eq!(pinned.len(), pinned_len);
    assert_eq!(knn_keys(&pinned, &queries), baseline);
    // And the live store has moved on, without the rows it tombstoned
    // (some from the stable cluster): it answers like an engine over its
    // own rows.
    let live = store.snapshot();
    assert!(live.epoch() > pinned_epoch);
    assert_eq!(live.len(), pinned_len + 12 - victims.len());
    let engine = QueryEngine::build(live.materialize().unwrap(), IndexKind::Linear, Measure::L1);
    let mut stats = BatchStats::new();
    let want = engine
        .unwrap()
        .knn_batch(&queries, K, 1, &mut stats)
        .unwrap();
    let got = knn_keys(&live, &queries);
    assert_eq!(got, keys(&want));
    assert!(got
        .iter()
        .flatten()
        .all(|(_, name, _)| !victims.contains(name)));

    drop(pinned);
    std::fs::remove_dir_all(&dir).ok();
}
