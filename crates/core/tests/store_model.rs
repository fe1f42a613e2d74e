//! Model-based test of the segment store.
//!
//! Seeded random sequences of insert, delete, compact, fault-injected
//! compact, exact and approximate k-NN, by-id k-NN, snapshot pins and
//! reopen run against a [`CorpusStore`] and against a trivial in-memory
//! model of what it must answer: every global id's row in id order,
//! tombstones marked in place, and the rows the last committed manifest
//! holds. After every step every reply (ids and distance bits), `len`,
//! `contains`, `meta` and `descriptor` of the live snapshot — and of a
//! snapshot pinned earlier, against the model as it was then — must be
//! the model's.
//!
//! Segments hold 64 rows, so a compaction meets segments on both sides
//! of the rewrite fraction: kept with a deleted-row list, and rewritten
//! once their dead rows pass it. Some steps delete every row of a
//! segment. Some insert a burst of more than a memtable chunk's rows
//! (the store freezes the memtable in chunks of 1,024), so deletes, pins
//! and compactions also meet a memtable of frozen chunks and a tail
//! after the segments. Some insert a single row through
//! `CorpusStore::insert`, which compacts once the memtable reaches
//! `MEMTABLE_LIMIT` rows, and the id it returns must name the row after
//! that compaction. A faulty compaction fails at each of its fault points in
//! turn (`core::faults`) until it gets through: every failure must leave
//! the live store and the directory exactly as they were, and the one
//! that gets through must commit the new state.

use cbir_core::faults::FailAtOp;
use cbir_core::persist::{parse_manifest, MANIFEST_FILE};
use cbir_core::{CoreError, CorpusSnapshot, CorpusStore, ImageMeta, IndexKind, StoreOptions};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::BatchStats;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEG_ROWS: usize = 64;
const STEPS: usize = 160;
/// Rows per frozen memtable chunk in the store.
const MEM_CHUNK_ROWS: usize = 1024;
/// The memtable rows at which a single-row insert compacts.
const MEMTABLE_LIMIT: usize = 32;

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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn next_f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

fn pipeline() -> Pipeline {
    let spec = FeatureSpec::ColorHistogram(Quantizer::UniformRgb { per_channel: 2 });
    Pipeline::new(16, vec![spec]).unwrap()
}

fn options() -> StoreOptions {
    let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
    options.max_seg_rows = SEG_ROWS;
    options.memtable_limit = MEMTABLE_LIMIT;
    options
}

#[derive(Clone)]
struct Row {
    name: String,
    desc: Vec<f32>,
    dead: bool,
}

/// What the store must answer.
#[derive(Clone, Default)]
struct Model {
    /// Every global id's row, in id order: live and tombstoned.
    rows: Vec<Row>,
    /// The live rows the last committed manifest holds.
    committed: Vec<Row>,
}

/// `(global id, distance bits)` per hit.
type Reply = Vec<(u64, u32)>;

impl Model {
    fn live_len(&self) -> usize {
        self.rows.iter().filter(|r| !r.dead).count()
    }

    fn live_ids(&self) -> Vec<u64> {
        (0..self.rows.len() as u64)
            .filter(|&id| !self.rows[id as usize].dead)
            .collect()
    }

    /// A compaction: tombstoned rows go, the rest renumber densely, and
    /// that is what the disk now holds.
    fn compact(&mut self) {
        self.rows.retain(|r| !r.dead);
        self.committed = self.rows.clone();
    }

    /// A reopen: the memtable and the tombstones were never durable.
    fn reopen(&mut self) {
        self.rows = self.committed.clone();
    }

    /// The `k` nearest live rows to `query` by `(distance, id)`, without
    /// `except`.
    fn knn(&self, query: &[f32], k: usize, except: Option<u64>) -> Reply {
        let mut all: Vec<(u64, f32)> = (0..self.rows.len() as u64)
            .filter(|&id| !self.rows[id as usize].dead && Some(id) != except)
            .map(|id| {
                (
                    id,
                    Measure::L1.distance(query, &self.rows[id as usize].desc),
                )
            })
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.iter()
            .take(k)
            .map(|&(id, d)| (id, d.to_bits()))
            .collect()
    }

    /// An approximate reply to `query`: `k` live rows (fewer only when
    /// there are fewer), none of them `except`, each at its true
    /// distance, in `(distance, id)` order — and, where the candidate
    /// budget's floor of `4k` covers every row, the exact reply.
    fn check_approx(&self, got: &Reply, query: &[f32], k: usize, except: Option<u64>, ctx: &str) {
        let exact = self.knn(query, k, except);
        if 4 * k >= self.rows.len() {
            assert_eq!(got, &exact, "{ctx}: approximate, budget covers every row");
            return;
        }
        assert_eq!(got.len(), exact.len(), "{ctx}: approximate reply length");
        for &(id, bits) in got {
            let row = &self.rows[id as usize];
            assert!(
                !row.dead && Some(id) != except,
                "{ctx}: approximate reply holds {id}"
            );
            assert_eq!(
                Measure::L1.distance(query, &row.desc).to_bits(),
                bits,
                "{ctx}"
            );
        }
        let order = |a: &(u64, u32), b: &(u64, u32)| {
            let d = |x: &(u64, u32)| f32::from_bits(x.1);
            d(a).total_cmp(&d(b)).then(a.0.cmp(&b.0)).is_lt()
        };
        assert!(
            got.windows(2).all(|w| order(&w[0], &w[1])),
            "{ctx}: approximate order"
        );
    }
}

fn replies(results: &[Vec<cbir_core::Ranked>]) -> Vec<Reply> {
    let one = |r: &Vec<cbir_core::Ranked>| {
        r.iter()
            .map(|h| (h.id as u64, h.distance.to_bits()))
            .collect()
    };
    results.iter().map(one).collect()
}

/// Every observable of `snap` against `model`: counts, every id's
/// membership, metadata and descriptor bits (and `NotFound` past the
/// last), exact and approximate k-NN over `queries`, by-id k-NN over a
/// few live ids.
fn check(snap: &CorpusSnapshot, model: &Model, queries: &[Vec<f32>], k: usize, ctx: &str) {
    assert_eq!(snap.len(), model.live_len(), "{ctx}: len");
    assert_eq!(snap.total_rows(), model.rows.len(), "{ctx}: total rows");
    for (id, row) in model.rows.iter().enumerate() {
        let id = id as u64;
        assert_eq!(snap.contains(id), !row.dead, "{ctx}: contains {id}");
        assert_eq!(snap.meta(id).unwrap().name, row.name, "{ctx}: meta {id}");
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let desc = snap.descriptor(id).unwrap();
        assert_eq!(bits(&desc), bits(&row.desc), "{ctx}: descriptor {id}");
    }
    let past = model.rows.len() as u64;
    assert!(!snap.contains(past), "{ctx}");
    assert!(
        matches!(snap.meta(past), Err(CoreError::NotFound(_))),
        "{ctx}"
    );
    assert!(snap.descriptor(past + 1).is_err(), "{ctx}");

    let want: Vec<Reply> = queries.iter().map(|q| model.knn(q, k, None)).collect();
    for threads in [1, 2] {
        let mut stats = BatchStats::new();
        let exact = snap.knn_batch(queries, k, threads, &mut stats).unwrap();
        assert_eq!(replies(&exact), want, "{ctx}: exact, {threads} threads");
        let approx = snap.knn_batch_approx(queries, k, 0.9, threads, &mut stats);
        for (got, query) in replies(&approx.unwrap()).iter().zip(queries) {
            model.check_approx(got, query, k, None, ctx);
        }
    }
    let live = model.live_ids();
    let ids: Vec<u64> = live.iter().step_by(live.len() / 3 + 1).copied().collect();
    let own = |id: u64| &model.rows[id as usize].desc;
    let want: Vec<Reply> = ids
        .iter()
        .map(|&id| model.knn(own(id), k, Some(id)))
        .collect();
    let by_id = snap.knn_batch_by_ids(&ids, k, 2, &mut BatchStats::new());
    assert_eq!(replies(&by_id.unwrap()), want, "{ctx}: by id");
    let by_id = snap.knn_batch_by_ids_approx(&ids, k, 0.9, 1, &mut BatchStats::new());
    for (got, &id) in replies(&by_id.unwrap()).iter().zip(&ids) {
        model.check_approx(got, own(id), k, Some(id), ctx);
    }
}

/// Each committed segment's `(rows, deleted rows)`, from the manifest.
fn committed_segments(dir: &Path) -> Vec<(String, u64, Vec<u64>)> {
    let manifest = parse_manifest(&std::fs::read(dir.join(MANIFEST_FILE)).unwrap()).unwrap();
    let entries = manifest.segments.into_iter();
    entries.map(|s| (s.name, s.rows, s.deleted)).collect()
}

/// What the sequences must have met, summed over seeds.
#[derive(Default, Debug)]
struct Seen {
    compactions: usize,
    kept_with_list: usize,
    list_rewritten: usize,
    segment_emptied: usize,
    pinned_across_compaction: usize,
    faults_injected: usize,
    /// Steps whose store had a memtable of more than one chunk.
    multi_chunk_memtable: usize,
    /// Single-row inserts that compacted, per seed.
    auto_compactions: Vec<usize>,
}

/// A compaction, checked: the model follows, and the manifest tells
/// which listed segments were kept and which rewritten.
fn compacted(dir: &Path, model: &mut Model, before: &[(String, u64, Vec<u64>)], seen: &mut Seen) {
    model.compact();
    seen.compactions += 1;
    let after = committed_segments(dir);
    let live: u64 = after.iter().map(|(_, rows, d)| rows - d.len() as u64).sum();
    assert_eq!(live as usize, model.rows.len());
    seen.kept_with_list += after.iter().filter(|(.., d)| !d.is_empty()).count();
    for (name, _, deleted) in before {
        if !deleted.is_empty() && !after.iter().any(|(n, ..)| n == name) {
            seen.list_rewritten += 1;
        }
    }
}

fn run(seed: u64, seen: &mut Seen) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("cbir_store_model_{seed}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let dim = pipeline().dim();
    let mut store = CorpusStore::create(&dir, pipeline(), false, options()).unwrap();
    let mut model = Model::default();
    // A pinned snapshot, the model as it was, and the compactions then.
    let mut pinned: Option<(Arc<CorpusSnapshot>, Model, usize)> = None;
    let mut inserted = 0usize;
    let random_row =
        |rng: &mut XorShift| -> Vec<f32> { (0..dim).map(|_| rng.next_f32()).collect() };
    for step in 0..STEPS {
        let ctx = format!("seed {seed}, step {step}");
        // Inserts lead until there is something to delete.
        let op = if model.rows.len() < 2 * SEG_ROWS {
            0
        } else {
            rng.below(100)
        };
        match op {
            0..=24 | 85..=86 => {
                let n = if op < 25 {
                    1 + rng.below(40)
                } else {
                    MEM_CHUNK_ROWS + 1 + rng.below(MEM_CHUNK_ROWS / 2)
                };
                let rows: Vec<Row> = (0..n)
                    .map(|i| Row {
                        name: format!("s{seed}-r{:05}", inserted + i),
                        desc: random_row(&mut rng),
                        dead: false,
                    })
                    .collect();
                inserted += n;
                let items = rows.iter().map(|r| {
                    let meta = ImageMeta {
                        name: r.name.clone(),
                        label: None,
                    };
                    (meta, r.desc.clone())
                });
                let ids = store.insert_batch(items.collect()).unwrap();
                let first = model.rows.len() as u64;
                assert_eq!(ids, (first..first + n as u64).collect::<Vec<_>>(), "{ctx}");
                model.rows.extend(rows);
            }
            25..=49 => {
                // Now and then an id that is dead or past the last.
                for _ in 0..1 + rng.below(6) {
                    let id = rng.below(model.rows.len() + 1) as u64;
                    let live = model.rows.get(id as usize).is_some_and(|r| !r.dead);
                    match store.delete(id) {
                        Ok(()) => {
                            assert!(live, "{ctx}: deleted dead or missing id {id}");
                            model.rows[id as usize].dead = true;
                        }
                        Err(CoreError::NotFound(_)) => assert!(!live, "{ctx}: refused id {id}"),
                        Err(e) => panic!("{ctx}: {e}"),
                    }
                }
            }
            50..=54 => {
                // Every live row of one committed segment.
                let segments = committed_segments(&dir);
                if !segments.is_empty() {
                    let i = rng.below(segments.len());
                    let base: u64 = segments[..i]
                        .iter()
                        .map(|(_, rows, d)| rows - d.len() as u64)
                        .sum();
                    let live = segments[i].1 - segments[i].2.len() as u64;
                    for id in base..base + live {
                        if !model.rows[id as usize].dead {
                            store.delete(id).unwrap();
                            model.rows[id as usize].dead = true;
                        }
                    }
                    seen.segment_emptied += 1;
                }
            }
            55..=69 => {
                let before = committed_segments(&dir);
                let stats = store.compact().unwrap();
                assert_eq!(stats.rows as usize, model.live_len(), "{ctx}");
                if !stats.skipped {
                    compacted(&dir, &mut model, &before, seen);
                }
            }
            70..=74 => {
                // Fail at every fault point in turn, then get through.
                let before = committed_segments(&dir);
                let committed = model.committed.clone();
                for at in 0.. {
                    let mut policy = FailAtOp::new(at, ErrorKind::StorageFull);
                    match store.compact_with(&mut policy) {
                        Ok(stats) => {
                            if !stats.skipped {
                                compacted(&dir, &mut model, &before, seen);
                            }
                            break;
                        }
                        Err(e) => {
                            let ctx = format!("{ctx}, fault at op {at}");
                            assert!(matches!(e, CoreError::Persist(_)), "{ctx}: {e:?}");
                            seen.faults_injected += 1;
                            assert_eq!(committed_segments(&dir), before, "{ctx}");
                            let queries = [random_row(&mut rng)];
                            check(&store.snapshot(), &model, &queries, 5, &ctx);
                            let disk = Model {
                                rows: committed.clone(),
                                committed: committed.clone(),
                            };
                            let reopened = CorpusStore::open(&dir, options()).unwrap();
                            check(&reopened.snapshot(), &disk, &queries, 5, &ctx);
                        }
                    }
                }
            }
            87..=94 => {
                // One row through `insert`, compacting at the limit.
                let row = Row {
                    name: format!("s{seed}-r{inserted:05}"),
                    desc: random_row(&mut rng),
                    dead: false,
                };
                inserted += 1;
                let before = committed_segments(&dir);
                let meta = ImageMeta {
                    name: row.name.clone(),
                    label: None,
                };
                let id = store.insert(meta, row.desc.clone()).unwrap();
                model.rows.push(row);
                if model.rows.len() - model.committed.len() >= MEMTABLE_LIMIT {
                    compacted(&dir, &mut model, &before, seen);
                    *seen.auto_compactions.last_mut().unwrap() += 1;
                }
                assert_eq!(id as usize, model.rows.len() - 1, "{ctx}: insert id");
                let name = store.snapshot().meta(id).unwrap().name;
                assert_eq!(name, model.rows[id as usize].name, "{ctx}: insert id");
            }
            75..=79 => {
                drop(store);
                store = CorpusStore::open(&dir, options()).unwrap();
                model.reopen();
            }
            80..=84 => {
                pinned = match pinned {
                    Some(_) if rng.below(2) == 0 => None,
                    _ => Some((store.snapshot(), model.clone(), seen.compactions)),
                };
            }
            _ => {}
        }
        let k = 1 + rng.below(12);
        let mut queries: Vec<Vec<f32>> = (0..3).map(|_| random_row(&mut rng)).collect();
        if let Some(row) = model.rows.get(rng.below(model.rows.len().max(1))) {
            queries.push(row.desc.clone());
        }
        if model.live_len() > 0 {
            check(&store.snapshot(), &model, &queries, k, &ctx);
        }
        seen.multi_chunk_memtable += usize::from(store.snapshot().memtable_rows() > MEM_CHUNK_ROWS);
        if let Some((snap, pinned_model, at)) = &pinned {
            if pinned_model.live_len() > 0 {
                check(snap, pinned_model, &queries, k, &format!("{ctx}, pinned"));
            }
            seen.pinned_across_compaction += usize::from(seen.compactions > *at);
        }
    }
    drop(pinned);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_store_answers_like_its_model_through_random_sequences() {
    let mut seen = Seen::default();
    for seed in 1..=3 {
        seen.auto_compactions.push(0);
        run(seed, &mut seen);
    }
    assert!(seen.auto_compactions.iter().all(|&n| n > 0), "{seen:?}");
    assert!(seen.kept_with_list > 0, "{seen:?}");
    assert!(seen.list_rewritten > 0, "{seen:?}");
    assert!(seen.segment_emptied > 0, "{seen:?}");
    assert!(seen.pinned_across_compaction > 0, "{seen:?}");
    assert!(seen.faults_injected > 0, "{seen:?}");
    assert!(seen.multi_chunk_memtable > 0, "{seen:?}");
}
