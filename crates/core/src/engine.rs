//! The query engine: an [`ImageDatabase`] plus one index structure
//! answering ranked query-by-example, k-NN, and range queries.
//!
//! [`QueryEngine`] owns no search code: it is a façade over the one-source
//! snapshot [`CorpusSnapshot::from_database`] builds, the read path a live
//! [`crate::CorpusStore`] serves from too. What lives here is what both
//! share: index kinds, the recall-target planner, the obs capture.

use crate::database::ImageDatabase;
use crate::error::{CoreError, Result};
use crate::store::{batch_of_one, CorpusSnapshot, Exact};
use cbir_distance::Measure;
use cbir_image::RgbImage;
use cbir_index::{
    AntipoleTree, BatchStats, Dataset, KdTree, LinearScan, MTree, RStarTree, SearchIndex,
    SearchStats, VpTree,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which index structure backs the engine.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexKind {
    /// Sequential scan (baseline; supports every measure).
    Linear,
    /// k-d tree (Minkowski measures).
    KdTree,
    /// VP-tree (true metrics).
    VpTree,
    /// Antipole tree (true metrics); `None` auto-tunes the cluster
    /// diameter from a data sample.
    Antipole {
        /// Cluster diameter threshold, or `None` to auto-tune.
        diameter: Option<f32>,
    },
    /// R\*-tree, STR bulk-loaded (L2 only).
    RStar,
    /// M-tree (true metrics).
    MTree,
}

impl IndexKind {
    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Linear => "linear",
            IndexKind::KdTree => "kd-tree",
            IndexKind::VpTree => "vp-tree",
            IndexKind::Antipole { .. } => "antipole",
            IndexKind::RStar => "r*-tree",
            IndexKind::MTree => "m-tree",
        }
    }
}

/// Build the chosen index over a dataset — shared by every snapshot
/// source and the benchmark harness.
pub fn build_index(
    kind: &IndexKind,
    dataset: Dataset,
    measure: Measure,
) -> Result<Box<dyn SearchIndex>> {
    Ok(match kind {
        IndexKind::Linear => Box::new(LinearScan::build(dataset, measure)?),
        IndexKind::KdTree => Box::new(KdTree::build(dataset, measure)?),
        IndexKind::VpTree => Box::new(VpTree::build(dataset, measure)?),
        IndexKind::Antipole { diameter } => {
            let d = diameter.unwrap_or_else(|| AntipoleTree::suggest_diameter(&dataset, &measure));
            Box::new(AntipoleTree::build(dataset, measure, d)?)
        }
        IndexKind::RStar => {
            if !matches!(measure, Measure::L2) {
                return Err(CoreError::InvalidParameter(format!(
                    "r*-tree engine requires L2, got {}",
                    measure.name()
                )));
            }
            Box::new(RStarTree::bulk_load(dataset)?)
        }
        IndexKind::MTree => Box::new(MTree::build(dataset, measure)?),
    })
}

/// Reject recall targets outside `(0, 1]` (NaN included). Shared by the
/// engine, the serving layer, and the CLI so every entry point agrees on
/// what a valid target is.
pub fn validate_recall_target(recall_target: f32) -> Result<()> {
    if !recall_target.is_finite() || recall_target <= 0.0 || recall_target > 1.0 {
        return Err(CoreError::InvalidParameter(format!(
            "recall target must be in (0, 1], got {recall_target}"
        )));
    }
    Ok(())
}

/// Map a recall target to a coarse-stage candidate budget for a corpus of
/// `n` rows, or `None` when the target demands the exact path
/// (`recall_target >= 1.0`), which makes a 1.0 target degenerate to the
/// bit-identical exact search by construction.
///
/// The budget is spent only where the two-stage search runs: on an L1
/// linear scan a query the exact filter serves is answered exactly and
/// costs no candidates (see [`CorpusSnapshot::knn_batch_approx`]), so
/// there this schedule prices only the sources the filter leaves — small
/// memtable chunks, and corpora whose codes cannot separate the rows.
///
/// The map is a piecewise-linear, monotone recall → corpus-fraction
/// schedule calibrated against the F14 sweep (`exp_approx_search`) on its
/// image-like near-duplicate workload at serving dimensionalities
/// (dim ≥ 64, where approximate search is worth running at all): each
/// knot's fraction was chosen so the measured coarse-Haar recall at that
/// budget clears the target with margin. Higher targets buy more
/// candidates, with a floor of `4·k` so small `k` at low targets still
/// sees enough candidates to fill its result list.
pub fn plan_candidate_budget(n: usize, k: usize, recall_target: f32) -> Option<usize> {
    if recall_target >= 1.0 {
        return None;
    }
    const KNOTS: [(f32, f32); 6] = [
        (0.0, 0.0005),
        (0.5, 0.001),
        (0.8, 0.002),
        (0.9, 0.004),
        (0.95, 0.008),
        (1.0, 0.05),
    ];
    let r = recall_target.clamp(0.0, 1.0);
    let mut frac = KNOTS[KNOTS.len() - 1].1;
    for w in KNOTS.windows(2) {
        let (r0, f0) = w[0];
        let (r1, f1) = w[1];
        if r <= r1 {
            frac = f0 + (f1 - f0) * ((r - r0) / (r1 - r0));
            break;
        }
    }
    Some((((n as f32 * frac).ceil() as usize).max(4 * k.max(1))).min(n))
}

/// Per-call observability capture for one read-path entry point. Created
/// before the work starts and consumed after it completes, flushing the
/// search-counter delta and call latency to the process-wide registry —
/// one flush per call, so the index hot loops stay untouched. When the
/// call is trace-sampled it additionally records a stage timeline.
///
/// Everything here only *observes*: the query executes identically whether
/// capture (or tracing) is on or off, and when the registry is disabled the
/// whole capture collapses to a single relaxed load.
pub(crate) struct ObsCapture {
    start: Option<Instant>,
    trace_seq: Option<u64>,
    /// Behind a lock because the workers of a batched call announce the
    /// stages they reach.
    timeline: Mutex<Timeline>,
}

/// The closed stage spans of a sampled call, and the stage that is open.
#[derive(Default)]
struct Timeline {
    spans: Vec<cbir_obs::TraceSpan>,
    open: Option<(&'static str, Instant)>,
}

impl Timeline {
    /// Close the open stage, if any, at `now`; `start` is the call's.
    fn close(&mut self, start: Instant, now: Instant) {
        if let Some((name, at)) = self.open.take() {
            self.spans.push(cbir_obs::TraceSpan {
                name,
                start_ns: at.duration_since(start).as_nanos() as u64,
                dur_ns: now.duration_since(at).as_nanos() as u64,
            });
        }
    }
}

impl ObsCapture {
    pub(crate) fn begin() -> Self {
        let enabled = cbir_obs::enabled();
        ObsCapture {
            start: enabled.then(Instant::now),
            trace_seq: enabled.then(cbir_obs::trace_should_sample).flatten(),
            timeline: Mutex::default(),
        }
    }

    /// Enter a named stage, closing the one before it (no-op unless this
    /// call is trace-sampled). Every worker of a batched call announces
    /// the stage it reaches; the stage opens when the first one does.
    pub(crate) fn stage(&self, name: &'static str) {
        let (Some(start), Some(_)) = (self.start, self.trace_seq) else {
            return;
        };
        let mut timeline = self.timeline.lock().expect("obs timeline lock");
        if timeline.open.is_some_and(|(open, _)| open == name) {
            return;
        }
        let now = Instant::now();
        timeline.close(start, now);
        timeline.open = Some((name, now));
    }

    /// Flush counters (and the trace, if sampled) to the registry.
    pub(crate) fn finish(
        self,
        kind: &IndexKind,
        op: cbir_obs::QueryOp,
        queries: u64,
        before: &SearchStats,
        after: &SearchStats,
        results: u64,
    ) {
        let Some(start) = self.start else {
            return;
        };
        let mut timeline = self.timeline.into_inner().expect("obs timeline lock");
        timeline.close(start, Instant::now());
        let total_ns = start.elapsed().as_nanos() as u64;
        let counters = cbir_obs::QueryCounters {
            distance_evaluations: after.distance_computations - before.distance_computations,
            nodes_visited: after.nodes_visited - before.nodes_visited,
            subtrees_pruned: after.subtrees_pruned - before.subtrees_pruned,
            postfilter_candidates: after.postfilter_candidates - before.postfilter_candidates,
            coarse_candidates: after.coarse_candidates - before.coarse_candidates,
            rerank_evaluations: after.rerank_evaluations - before.rerank_evaluations,
        };
        cbir_obs::record_query(
            kind.name(),
            op,
            queries,
            total_ns / 1_000,
            &counters,
            results,
        );
        if let Some(seq) = self.trace_seq {
            cbir_obs::push_trace(cbir_obs::QueryTrace {
                seq,
                op: op.name(),
                index: kind.name(),
                queries,
                total_ns,
                spans: timeline.spans,
                distance_evaluations: counters.distance_evaluations,
                nodes_visited: counters.nodes_visited,
                subtrees_pruned: counters.subtrees_pruned,
                postfilter_candidates: counters.postfilter_candidates,
                coarse_candidates: counters.coarse_candidates,
                rerank_evaluations: counters.rerank_evaluations,
                results,
            });
        }
    }
}

/// One ranked retrieval hit.
#[derive(Clone, Debug, PartialEq)]
pub struct Ranked {
    /// Image id in the database.
    pub id: usize,
    /// External name of the image.
    pub name: String,
    /// Class label if the image has one.
    pub label: Option<u32>,
    /// Distance from the query under the engine's measure.
    pub distance: f32,
}

/// A built query engine: an immutable [`ImageDatabase`] and the
/// one-source [`CorpusSnapshot`] over it that answers every query. The
/// snapshot shares the database's rows and metadata, so the engine holds
/// one copy of each; the single-query methods are batches of one.
pub struct QueryEngine {
    db: ImageDatabase,
    snapshot: Arc<CorpusSnapshot>,
}

/// Engine image ids as the snapshot's global ids.
fn global_ids(ids: &[usize]) -> Vec<u64> {
    ids.iter().map(|&id| id as u64).collect()
}

impl QueryEngine {
    /// Build the chosen index over `db`'s descriptors.
    pub fn build(db: ImageDatabase, kind: IndexKind, measure: Measure) -> Result<Self> {
        let snapshot = Arc::new(CorpusSnapshot::from_database(&db, kind, measure)?);
        Ok(QueryEngine { db, snapshot })
    }

    /// The database the engine was built over.
    pub fn database(&self) -> &ImageDatabase {
        &self.db
    }

    /// The read view every query runs against — what a server pins when
    /// it serves this engine.
    pub fn snapshot(&self) -> &Arc<CorpusSnapshot> {
        &self.snapshot
    }

    /// The similarity measure in use.
    pub fn measure(&self) -> &Measure {
        self.snapshot.measure()
    }

    /// Which index kind backs the engine.
    pub fn index_kind(&self) -> &IndexKind {
        self.snapshot.index_kind()
    }

    /// Structure memory of the underlying index.
    pub fn index_bytes(&self) -> usize {
        self.snapshot.index_bytes()
    }

    /// The `k` most similar database images to an external example image.
    pub fn query_by_example(
        &self,
        img: &RgbImage,
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        self.snapshot.by_example(img, Exact::Knn(k), stats)
    }

    /// The `k` most similar images to database image `id`, excluding `id`
    /// itself (the usual retrieval convention).
    pub fn query_by_id(&self, id: usize, k: usize, stats: &mut SearchStats) -> Result<Vec<Ranked>> {
        batch_of_one(stats, |batch| self.knn_batch_by_ids(&[id], k, 1, batch))
    }

    /// All database images within `radius` of the example image.
    pub fn range_by_example(
        &self,
        img: &RgbImage,
        radius: f32,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        self.snapshot.by_example(img, Exact::Range(radius), stats)
    }

    /// Batched k-NN over raw descriptor vectors: one ranked result list per
    /// query, executed on the index's batched path with `threads` worker
    /// threads (`1` runs on the calling thread). Results are bit-identical
    /// to a [`QueryEngine::query_by_descriptor`] loop; per-query search
    /// costs are aggregated into `stats`.
    pub fn knn_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        self.snapshot.knn_batch(queries, k, threads, stats)
    }

    /// Batched range search over raw descriptor vectors; the batched
    /// counterpart of [`QueryEngine::range_by_example`]. See
    /// [`QueryEngine::knn_batch`] for the execution contract.
    pub fn range_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f32,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        self.snapshot.range_batch(queries, radius, threads, stats)
    }

    /// Batched k-NN by database image id, excluding each query image from
    /// its own result list (the usual retrieval convention). The batched
    /// counterpart of a [`QueryEngine::query_by_id`] loop.
    pub fn knn_batch_by_ids(
        &self,
        ids: &[usize],
        k: usize,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        self.snapshot
            .knn_batch_by_ids(&global_ids(ids), k, threads, stats)
    }

    /// k-NN over a raw descriptor vector (for callers managing their own
    /// extraction).
    pub fn query_by_descriptor(
        &self,
        descriptor: &[f32],
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        batch_of_one(stats, |batch| {
            self.knn_batch(&[descriptor.to_vec()], k, 1, batch)
        })
    }

    /// Approximate k-NN over a raw descriptor: where an L1 linear scan's
    /// exact filter serves the query it answers exactly; elsewhere a
    /// coarse Haar signature scan proposes a candidate set sized by
    /// [`plan_candidate_budget`], then exact distances rerank it (same
    /// `(distance, id)` ordering as the exact path). `recall_target = 1.0`
    /// routes to [`QueryEngine::query_by_descriptor`] — bit-identical to
    /// the exact path, not merely equivalent.
    pub fn query_by_descriptor_approx(
        &self,
        descriptor: &[f32],
        k: usize,
        recall_target: f32,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        batch_of_one(stats, |batch| {
            self.knn_batch_approx(&[descriptor.to_vec()], k, recall_target, 1, batch)
        })
    }

    /// Approximate counterpart of [`QueryEngine::query_by_id`], excluding
    /// the query image itself.
    pub fn query_by_id_approx(
        &self,
        id: usize,
        k: usize,
        recall_target: f32,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        batch_of_one(stats, |batch| {
            self.knn_batch_by_ids_approx(&[id], k, recall_target, 1, batch)
        })
    }

    /// Batched approximate k-NN; the approximate counterpart of
    /// [`QueryEngine::knn_batch`] (see
    /// [`CorpusSnapshot::knn_batch_approx`]). `recall_target = 1.0` routes
    /// to the exact batched path, bit-identically.
    pub fn knn_batch_approx(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        recall_target: f32,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        self.snapshot
            .knn_batch_approx(queries, k, recall_target, threads, stats)
    }

    /// Batched approximate k-NN by database id, excluding each query row
    /// from its own results; the approximate counterpart of
    /// [`QueryEngine::knn_batch_by_ids`]. `recall_target = 1.0` routes to
    /// the exact batched path, bit-identically.
    pub fn knn_batch_by_ids_approx(
        &self,
        ids: &[usize],
        k: usize,
        recall_target: f32,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        self.snapshot
            .knn_batch_by_ids_approx(&global_ids(ids), k, recall_target, threads, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_features::{FeatureSpec, Pipeline, Quantizer};
    use cbir_image::Rgb;

    fn pipeline() -> Pipeline {
        Pipeline::new(
            16,
            vec![FeatureSpec::ColorHistogram(Quantizer::UniformRgb {
                per_channel: 2,
            })],
        )
        .unwrap()
    }

    fn flat(r: u8, g: u8, b: u8) -> RgbImage {
        RgbImage::filled(16, 16, Rgb::new(r, g, b))
    }

    fn seeded_db() -> ImageDatabase {
        let mut db = ImageDatabase::new(pipeline());
        db.insert_labeled("red1", 0, &flat(220, 20, 20)).unwrap();
        db.insert_labeled("red2", 0, &flat(200, 30, 30)).unwrap();
        db.insert_labeled("blue1", 1, &flat(20, 20, 220)).unwrap();
        db.insert_labeled("blue2", 1, &flat(40, 25, 200)).unwrap();
        db.insert_labeled("green", 2, &flat(20, 220, 20)).unwrap();
        db
    }

    #[test]
    fn query_by_example_ranks_similar_first() {
        for kind in [
            IndexKind::Linear,
            IndexKind::KdTree,
            IndexKind::VpTree,
            IndexKind::Antipole { diameter: None },
            IndexKind::RStar,
            IndexKind::MTree,
        ] {
            let engine = QueryEngine::build(seeded_db(), kind.clone(), Measure::L2).unwrap();
            let mut stats = SearchStats::new();
            let hits = engine
                .query_by_example(&flat(210, 25, 25), 2, &mut stats)
                .unwrap();
            assert_eq!(hits.len(), 2, "{}", kind.name());
            assert!(
                hits.iter().all(|h| h.label == Some(0)),
                "{}: {:?}",
                kind.name(),
                hits
            );
            assert!(stats.distance_computations > 0);
        }
    }

    #[test]
    fn query_by_id_excludes_self() {
        let engine = QueryEngine::build(seeded_db(), IndexKind::Linear, Measure::L1).unwrap();
        let mut stats = SearchStats::new();
        let hits = engine.query_by_id(0, 3, &mut stats).unwrap();
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.id != 0));
        assert_eq!(hits[0].name, "red2");
    }

    #[test]
    fn range_query_returns_close_matches() {
        let engine = QueryEngine::build(seeded_db(), IndexKind::VpTree, Measure::L1).unwrap();
        let mut stats = SearchStats::new();
        // Radius 0.5 in L1 over normalized histograms: reds only.
        let hits = engine
            .range_by_example(&flat(215, 22, 22), 0.5, &mut stats)
            .unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.label == Some(0)), "{hits:?}");
    }

    #[test]
    fn engine_rejects_bad_configs() {
        assert!(matches!(
            QueryEngine::build(
                ImageDatabase::new(pipeline()),
                IndexKind::Linear,
                Measure::L2
            ),
            Err(CoreError::InvalidParameter(_))
        ));
        assert!(QueryEngine::build(seeded_db(), IndexKind::RStar, Measure::L1).is_err());
        assert!(QueryEngine::build(seeded_db(), IndexKind::VpTree, Measure::Cosine).is_err());
        // Linear accepts non-metrics.
        assert!(QueryEngine::build(seeded_db(), IndexKind::Linear, Measure::ChiSquare).is_ok());
    }

    #[test]
    fn query_by_descriptor_validates_dim() {
        let engine = QueryEngine::build(seeded_db(), IndexKind::Linear, Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        assert!(engine
            .query_by_descriptor(&[0.0; 3], 1, &mut stats)
            .is_err());
        let d: Vec<f32> = engine.database().descriptor(2).unwrap().to_vec();
        let hits = engine.query_by_descriptor(&d, 1, &mut stats).unwrap();
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[0].distance, 0.0);
    }

    #[test]
    fn all_index_kinds_agree() {
        let query = flat(35, 28, 205);
        let reference = {
            let engine = QueryEngine::build(seeded_db(), IndexKind::Linear, Measure::L2).unwrap();
            let mut stats = SearchStats::new();
            engine.query_by_example(&query, 4, &mut stats).unwrap()
        };
        for kind in [
            IndexKind::KdTree,
            IndexKind::VpTree,
            IndexKind::Antipole {
                diameter: Some(0.2),
            },
            IndexKind::RStar,
            IndexKind::MTree,
        ] {
            let engine = QueryEngine::build(seeded_db(), kind.clone(), Measure::L2).unwrap();
            let mut stats = SearchStats::new();
            let hits = engine.query_by_example(&query, 4, &mut stats).unwrap();
            assert_eq!(hits, reference, "{}", kind.name());
        }
    }

    #[test]
    fn batch_matches_single_query_loop() {
        for kind in [
            IndexKind::Linear,
            IndexKind::KdTree,
            IndexKind::VpTree,
            IndexKind::Antipole { diameter: None },
            IndexKind::RStar,
            IndexKind::MTree,
        ] {
            let engine = QueryEngine::build(seeded_db(), kind.clone(), Measure::L2).unwrap();
            let queries: Vec<Vec<f32>> = (0..engine.database().len())
                .map(|id| engine.database().descriptor(id).unwrap().to_vec())
                .collect();
            let single: Vec<Vec<Ranked>> = queries
                .iter()
                .map(|q| {
                    let mut stats = SearchStats::new();
                    engine.query_by_descriptor(q, 3, &mut stats).unwrap()
                })
                .collect();
            for threads in [1, 3] {
                let mut stats = BatchStats::new();
                let batched = engine.knn_batch(&queries, 3, threads, &mut stats).unwrap();
                assert_eq!(batched, single, "{} threads={threads}", kind.name());
                assert_eq!(stats.queries(), queries.len());
                assert!(stats.total().distance_computations > 0);
            }
        }
    }

    #[test]
    fn batch_by_ids_excludes_self() {
        let engine = QueryEngine::build(seeded_db(), IndexKind::VpTree, Measure::L1).unwrap();
        let ids: Vec<usize> = (0..engine.database().len()).collect();
        let mut stats = BatchStats::new();
        let results = engine.knn_batch_by_ids(&ids, 3, 2, &mut stats).unwrap();
        assert_eq!(results.len(), ids.len());
        for (hits, &id) in results.iter().zip(&ids) {
            assert_eq!(hits.len(), 3);
            assert!(hits.iter().all(|h| h.id != id));
            let mut single = SearchStats::new();
            let expect = engine.query_by_id(id, 3, &mut single).unwrap();
            assert_eq!(*hits, expect);
        }
    }

    #[test]
    fn range_batch_matches_single_and_validates_dim() {
        let engine = QueryEngine::build(seeded_db(), IndexKind::MTree, Measure::L1).unwrap();
        let queries: Vec<Vec<f32>> = (0..engine.database().len())
            .map(|id| engine.database().descriptor(id).unwrap().to_vec())
            .collect();
        let mut stats = BatchStats::new();
        let batched = engine.range_batch(&queries, 0.5, 2, &mut stats).unwrap();
        assert!(batched.iter().any(|hits| hits.len() > 1));
        for (hits, q) in batched.iter().zip(&queries) {
            let mut single = BatchStats::new();
            let expect = engine.range_batch(std::slice::from_ref(q), 0.5, 1, &mut single);
            assert_eq!(*hits, expect.unwrap()[0]);
        }
        let mut stats = BatchStats::new();
        assert!(engine.knn_batch(&[vec![0.0; 3]], 1, 1, &mut stats).is_err());
    }

    #[test]
    fn budget_planner_is_monotone_and_gates_exact() {
        assert_eq!(plan_candidate_budget(10_000, 10, 1.0), None);
        assert_eq!(plan_candidate_budget(10_000, 10, 1.5), None);
        let mut last = 0;
        for r in [0.1, 0.5, 0.8, 0.9, 0.95, 0.99] {
            let b = plan_candidate_budget(100_000, 10, r).unwrap();
            assert!(b >= last, "budget not monotone at recall {r}");
            assert!(b <= 100_000);
            last = b;
        }
        // Floor: enough candidates to fill k even at tiny targets.
        assert!(plan_candidate_budget(100_000, 50, 0.1).unwrap() >= 200);
        // Never exceeds the corpus.
        assert_eq!(plan_candidate_budget(10, 100, 0.9), Some(10));
        assert!(validate_recall_target(0.9).is_ok());
        assert!(validate_recall_target(1.0).is_ok());
        for bad in [0.0, -0.5, 1.5, f32::NAN, f32::INFINITY] {
            assert!(validate_recall_target(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn approx_at_recall_one_is_bit_identical_to_exact() {
        let engine = QueryEngine::build(seeded_db(), IndexKind::VpTree, Measure::L2).unwrap();
        let d: Vec<f32> = engine.database().descriptor(1).unwrap().to_vec();
        let mut s1 = SearchStats::new();
        let exact = engine.query_by_descriptor(&d, 3, &mut s1).unwrap();
        let mut s2 = SearchStats::new();
        let approx = engine
            .query_by_descriptor_approx(&d, 3, 1.0, &mut s2)
            .unwrap();
        assert_eq!(exact, approx);
        // The exact route never touches the coarse stage.
        assert_eq!(s2.coarse_candidates, 0);
        assert_eq!(s2.rerank_evaluations, 0);

        let queries: Vec<Vec<f32>> = (0..engine.database().len())
            .map(|id| engine.database().descriptor(id).unwrap().to_vec())
            .collect();
        let mut b1 = BatchStats::new();
        let exact_b = engine.knn_batch(&queries, 3, 2, &mut b1).unwrap();
        let mut b2 = BatchStats::new();
        let approx_b = engine
            .knn_batch_approx(&queries, 3, 1.0, 2, &mut b2)
            .unwrap();
        assert_eq!(exact_b, approx_b);
    }

    #[test]
    fn approx_path_runs_two_stages_and_stays_exact_on_tiny_corpora() {
        // On a 5-row corpus (under L2 and far under the row count from
        // which a scan filters, so no exact filter serves it) the budget
        // floor (4k) covers everything, so the approximate result matches
        // the exact one while exercising the coarse + rerank machinery
        // and its counters.
        let engine = QueryEngine::build(seeded_db(), IndexKind::Linear, Measure::L2).unwrap();
        let d: Vec<f32> = engine.database().descriptor(2).unwrap().to_vec();
        let mut s = SearchStats::new();
        let exact = engine.query_by_descriptor(&d, 2, &mut s).unwrap();
        let mut sa = SearchStats::new();
        let approx = engine
            .query_by_descriptor_approx(&d, 2, 0.9, &mut sa)
            .unwrap();
        assert_eq!(exact, approx);
        assert!(sa.coarse_candidates > 0);
        assert!(sa.rerank_evaluations > 0);
        assert_eq!(sa.coarse_candidates, sa.rerank_evaluations);

        // Bad targets are rejected before any work.
        assert!(engine
            .query_by_descriptor_approx(&d, 2, 0.0, &mut sa)
            .is_err());
        assert!(engine
            .query_by_descriptor_approx(&d, 2, f32::NAN, &mut sa)
            .is_err());

        // By-id excludes self, like the exact path.
        let by_id = engine.query_by_id_approx(0, 3, 0.9, &mut sa).unwrap();
        assert!(by_id.iter().all(|h| h.id != 0));
        let mut se = SearchStats::new();
        assert_eq!(by_id, engine.query_by_id(0, 3, &mut se).unwrap());
    }

    #[test]
    fn index_kind_names() {
        assert_eq!(IndexKind::Linear.name(), "linear");
        assert_eq!(IndexKind::Antipole { diameter: None }.name(), "antipole");
        assert_eq!(IndexKind::RStar.name(), "r*-tree");
        assert_eq!(IndexKind::MTree.name(), "m-tree");
    }
}
