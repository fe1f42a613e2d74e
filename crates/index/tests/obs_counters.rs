//! Invariants of the per-query pruning counters that feed the
//! observability layer. The counters are documentation of the search's
//! actual work, so each claim the docs make is checked here against
//! every index on generated workloads:
//!
//! - exact indexes never evaluate more full distances than there are
//!   database vectors (the m-tree may re-evaluate routing objects that
//!   also appear in leaves, so its documented bound is `2n`);
//! - `postfilter_candidates` counts a subset of `distance_computations`
//!   (routing evaluations are excluded);
//! - linear scan prunes nothing and post-filters everything;
//! - counters are additive: a `knn_batch` total equals the sum of the
//!   same queries run one at a time;
//! - pruned searches return the same answers as the unpruned scan;
//! - on its one-byte rows the antipole tree still counts every row it
//!   scores in `distance_computations`, bound or exact, and the rows the
//!   `f32` kernel scored in `refined` (pinned on a seeded corpus);
//! - what the other four trees' traversals visit, for k-NN and range
//!   alike (pinned on a seeded corpus).

use cbir_distance::Measure;
use cbir_index::{
    knn_search_simple, range_search_simple, AntipoleTree, BatchStats, Dataset, KdTree, LinearScan,
    MTree, RStarTree, SearchIndex, SearchStats, VpTree,
};
use cbir_workload::Pcg32;

const CASES: usize = 24;

fn gen_dataset(rng: &mut Pcg32) -> Vec<Vec<f32>> {
    let dim = 2 + rng.below(4);
    let n = 8 + rng.below(150);
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| (rng.below(21) as f32 - 10.0) * 0.5)
                .collect()
        })
        .collect()
}

fn all_indexes(ds: &Dataset) -> Vec<Box<dyn SearchIndex>> {
    vec![
        Box::new(LinearScan::build(ds.clone(), Measure::L2).unwrap()),
        Box::new(KdTree::with_leaf_size(ds.clone(), Measure::L2, 4).unwrap()),
        Box::new(VpTree::with_leaf_size(ds.clone(), Measure::L2, 4).unwrap()),
        Box::new(AntipoleTree::build(ds.clone(), Measure::L2, 2.0).unwrap()),
        Box::new(RStarTree::bulk_load_with_capacity(ds.clone(), 4).unwrap()),
        Box::new(MTree::with_capacity(ds.clone(), Measure::L2, 4).unwrap()),
    ]
}

/// The documented ceiling on full distance evaluations for one query.
fn distance_budget(name: &str, n: u64) -> u64 {
    match name {
        // Routing objects are database members; the m-tree may pay for
        // one routing evaluation and one leaf evaluation of the same id.
        "m-tree" => 2 * n,
        _ => n,
    }
}

#[test]
fn distance_evaluations_bounded_by_database_size() {
    let mut rng = Pcg32::new(0xC0FE);
    for _ in 0..CASES {
        let vectors = gen_dataset(&mut rng);
        let ds = Dataset::from_vectors(&vectors).unwrap();
        let n = ds.len() as u64;
        let q: Vec<f32> = (0..ds.dim()).map(|_| rng.range_f32(-6.0, 6.0)).collect();
        let k = 1 + rng.below(12);
        let radius = rng.range_f32(0.5, 6.0);

        for idx in all_indexes(&ds) {
            let mut stats = SearchStats::new();
            idx.knn_search(&q, k, &mut stats);
            idx.range_search(&q, radius, &mut stats);
            // Two queries ran into one stats block, hence 2×.
            let budget = 2 * distance_budget(idx.name(), n);
            assert!(
                stats.distance_computations <= budget,
                "{}: {} distance evaluations over budget {budget} (n = {n})",
                idx.name(),
                stats.distance_computations,
            );
            assert!(
                stats.postfilter_candidates <= stats.distance_computations,
                "{}: postfilter {} > distance evaluations {}",
                idx.name(),
                stats.postfilter_candidates,
                stats.distance_computations,
            );
        }
    }
}

#[test]
fn linear_scan_prunes_nothing_and_postfilters_everything() {
    let mut rng = Pcg32::new(0xC1);
    for _ in 0..CASES {
        let vectors = gen_dataset(&mut rng);
        let ds = Dataset::from_vectors(&vectors).unwrap();
        let n = ds.len() as u64;
        let q: Vec<f32> = (0..ds.dim()).map(|_| rng.range_f32(-6.0, 6.0)).collect();
        let lin = LinearScan::build(ds, Measure::L2).unwrap();

        let mut stats = SearchStats::new();
        lin.knn_search(&q, 5, &mut stats);
        assert_eq!(stats.subtrees_pruned, 0, "linear scan cannot prune");
        assert_eq!(stats.postfilter_candidates, n);
        assert_eq!(stats.distance_computations, n);

        stats.reset();
        lin.range_search(&q, 2.0, &mut stats);
        assert_eq!(stats.subtrees_pruned, 0);
        assert_eq!(stats.postfilter_candidates, n);
    }
}

#[test]
fn pruned_results_match_linear_scan() {
    let mut rng = Pcg32::new(0xC2);
    for _ in 0..CASES {
        let vectors = gen_dataset(&mut rng);
        let ds = Dataset::from_vectors(&vectors).unwrap();
        let q: Vec<f32> = (0..ds.dim()).map(|_| rng.range_f32(-6.0, 6.0)).collect();
        let k = 1 + rng.below(12);
        let radius = rng.range_f32(0.5, 6.0);

        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        let lin_range: Vec<usize> = range_search_simple(&lin, &q, radius)
            .iter()
            .map(|h| h.id)
            .collect();
        let lin_knn: Vec<u32> = knn_search_simple(&lin, &q, k)
            .iter()
            .map(|h| h.distance.to_bits())
            .collect();

        for idx in all_indexes(&ds) {
            // Range: pruning may only skip non-answers, so the id set is
            // contained in (and in fact equals) the scan's id set.
            let got: Vec<usize> = range_search_simple(idx.as_ref(), &q, radius)
                .iter()
                .map(|h| h.id)
                .collect();
            for id in &got {
                assert!(
                    lin_range.contains(id),
                    "{}: range returned id {id} the linear scan did not",
                    idx.name()
                );
            }
            assert_eq!(got.len(), lin_range.len(), "{}", idx.name());

            // k-NN: ties may reorder ids, but the distance multiset is
            // fixed by the dataset.
            let got: Vec<u32> = knn_search_simple(idx.as_ref(), &q, k)
                .iter()
                .map(|h| h.distance.to_bits())
                .collect();
            assert_eq!(
                got,
                lin_knn,
                "{}: knn distance profile diverged",
                idx.name()
            );
        }
    }
}

#[test]
fn batch_counters_equal_sum_of_single_queries() {
    let mut rng = Pcg32::new(0xC3);
    for _ in 0..8 {
        let vectors = gen_dataset(&mut rng);
        let ds = Dataset::from_vectors(&vectors).unwrap();
        let queries: Vec<Vec<f32>> = (0..5)
            .map(|_| (0..ds.dim()).map(|_| rng.range_f32(-6.0, 6.0)).collect())
            .collect();

        for idx in all_indexes(&ds) {
            let mut batch = BatchStats::new();
            idx.knn_batch(&queries, 4, &mut batch);

            let mut summed = SearchStats::new();
            for q in &queries {
                let mut one = SearchStats::new();
                idx.knn_search(q, 4, &mut one);
                summed.merge(&one);
            }

            let total = batch.total();
            assert_eq!(batch.queries(), queries.len(), "{}", idx.name());
            assert_eq!(
                total.distance_computations,
                summed.distance_computations,
                "{}: batch distance evaluations not additive",
                idx.name()
            );
            assert_eq!(
                total.nodes_visited,
                summed.nodes_visited,
                "{}: nodes_visited not additive",
                idx.name()
            );
            assert_eq!(
                total.subtrees_pruned,
                summed.subtrees_pruned,
                "{}: subtrees_pruned not additive",
                idx.name()
            );
            assert_eq!(
                total.postfilter_candidates,
                summed.postfilter_candidates,
                "{}: postfilter_candidates not additive",
                idx.name()
            );
        }
    }
}

/// The antipole tree's counters on its one-byte rows, pinned on a seeded
/// corpus at the image descriptor's dimension, large enough (over 8 MiB
/// of `f32`s) that the tree keeps the copy. `distance_computations`
/// counts every row the traversal scored, by bound or exactly, as on
/// `f32` rows, and `refined` the ones the bound could not settle. On this
/// corpus the intervals prune exactly as the `f32` distances did: the
/// rows scored, nodes visited and subtrees pruned are the ones the tree
/// counted when it scored `f32` rows only. The bound's bits do not depend
/// on the host's SIMD path, so neither do the pins.
#[test]
fn antipole_counts_rows_scored_and_rows_refined() {
    let rows = cbir_workload::clustered(3_700, 577, 20, 1.0, 10.0, 11);
    let queries = cbir_workload::queries(&rows, 12, 0.1, 12);
    let ds = Dataset::from_vectors(&rows).unwrap();
    let mut pins = Vec::new();
    for measure in [Measure::L1, Measure::L2] {
        let diameter = AntipoleTree::suggest_diameter(&ds, &measure);
        let ap = AntipoleTree::build(ds.clone(), measure, diameter).unwrap();
        let mut knn = SearchStats::new();
        for q in &queries {
            ap.knn_search(q, 10, &mut knn);
        }
        pins.push((
            knn.distance_computations,
            knn.nodes_visited,
            knn.subtrees_pruned,
            knn.refined,
        ));
    }
    assert_eq!(pins, [(15112, 1777, 1095, 909), (15219, 2164, 1330, 915)]);
}

/// What the kd-, VP-, M- and R*-trees' traversals visit, pinned on one
/// seeded corpus under L2: k-NN at k = 10 and range at two radii, the
/// queries midpoints of row pairs, so inside the data's box (the
/// R*-tree's root rectangle holds every query). Each tuple is
/// `(distance_computations, nodes_visited, subtrees_pruned,
/// postfilter_candidates)` summed over the queries.
#[test]
fn tree_traversals_count_what_they_visit() {
    let rows = cbir_workload::clustered(2_000, 8, 12, 1.0, 10.0, 21);
    let queries: Vec<Vec<f32>> = (0..16)
        .map(|i| {
            let (a, b) = (&rows[i * 97], &rows[i * 113 + 5]);
            a.iter().zip(b).map(|(x, y)| (x + y) / 2.0).collect()
        })
        .collect();
    let ds = Dataset::from_vectors(&rows).unwrap();
    let indexes: Vec<Box<dyn SearchIndex>> = vec![
        Box::new(KdTree::build(ds.clone(), Measure::L2).unwrap()),
        Box::new(VpTree::build(ds.clone(), Measure::L2).unwrap()),
        Box::new(MTree::build(ds.clone(), Measure::L2).unwrap()),
        Box::new(RStarTree::bulk_load(ds).unwrap()),
    ];
    let counts = |search: &dyn Fn(&[f32], &mut SearchStats)| {
        let mut stats = SearchStats::new();
        for q in &queries {
            search(q, &mut stats);
        }
        (
            stats.distance_computations,
            stats.nodes_visited,
            stats.subtrees_pruned,
            stats.postfilter_candidates,
        )
    };
    let pins: Vec<_> = indexes
        .iter()
        .map(|idx| {
            (
                idx.name(),
                counts(&|q, stats| drop(idx.knn_search(q, 10, stats))),
                counts(&|q, stats| drop(idx.range_search(q, 2.0, stats))),
                counts(&|q, stats| drop(idx.range_search(q, 4.0, stats))),
            )
        })
        .collect();
    assert_eq!(
        pins,
        [
            (
                "kd-tree",
                (21541, 2956, 216, 21541),
                (4819, 908, 306, 4819),
                (17886, 2561, 289, 17886)
            ),
            (
                "vp-tree",
                (15949, 2359, 395, 14580),
                (4422, 861, 361, 3819),
                (12059, 1886, 424, 10912)
            ),
            (
                "m-tree",
                (13529, 1918, 1751, 10348),
                (3806, 782, 2660, 1629),
                (8190, 1325, 2352, 5322)
            ),
            (
                "r*-tree",
                (11683, 875, 1061, 11683),
                (1692, 188, 980, 1692),
                (8501, 672, 1280, 8501)
            ),
        ]
    );
}
