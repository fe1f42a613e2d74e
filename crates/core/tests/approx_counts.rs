//! The two-stage approximate search's work, counted (F14,
//! `exp_approx_search`, reports the times these counts explain):
//!
//! - where the exact L1 filter cannot serve, the served path hands
//!   (nearly) every query to the coarse-Haar + rerank search after a
//!   bounded attempt, and answers exactly what that search answers;
//! - on the sweep's clustered L2 corpus, the configuration that reaches
//!   recall 0.9 does a fifth of the best exact index's work or less.

use cbir_core::{plan_candidate_budget, ImageDatabase, ImageMeta, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::{
    approx_knn_batch, ApproxSearch, BatchStats, BestBinFirst, CoarseHaarIndex, Dataset, KdTree,
    LinearScan, Neighbor, SearchIndex, VpTree,
};

const K: usize = 10;

/// An L1 engine over `rows` as a server holds one: a linear scan under a
/// pipeline of the rows' width.
fn l1_engine(rows: &[Vec<f32>]) -> QueryEngine {
    let bins = rows[0].len() as u32;
    let pipeline = Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins })],
    )
    .unwrap();
    let metas = (0..rows.len()).map(|i| ImageMeta {
        name: format!("row-{i}"),
        label: None,
    });
    let db = ImageDatabase::from_parts(pipeline, false, rows.concat(), metas.collect()).unwrap();
    QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap()
}

/// Two L1 corpora whose codes cannot separate the rows (F9's Dirichlet
/// histograms; F8's one column a million times wider than the rest), 8,000
/// × 64. Served at target 0.9 on two workers, a query that left the
/// filter gets the two-stage oracle's reply and counts, one the filter
/// kept gets the exact reply; at least ¾ of the queries leave, and the
/// filter scores at most 4 · 64 · k rows per query before they do (a
/// query leaves once 64 survivors per neighbour are spent, and a group of
/// survivors is scored whole at no more than four rows per survivor).
#[test]
fn where_the_filter_cannot_serve_queries_leave_it_early_for_the_two_stage_reply() {
    const N: usize = 8_000;
    const DIM: usize = 64;
    const TARGET: f32 = 0.9;
    const QUERIES: usize = 48;
    let histograms = cbir_workload::histograms(N, DIM, 1.0, 42);
    let mut wide = cbir_workload::uniform(N, DIM, 1.0, 8);
    let mut rng = cbir_workload::Pcg32::new(1);
    for row in &mut wide {
        row[0] = rng.range_f32(0.0, 1e6);
    }
    for (name, rows) in [
        ("dirichlet histograms", &histograms),
        ("one wide column", &wide),
    ] {
        let engine = l1_engine(rows);
        let dataset = Dataset::from_vectors(rows).unwrap();
        let haar =
            CoarseHaarIndex::build(&dataset, CoarseHaarIndex::default_coefficients(DIM)).unwrap();
        let budget = plan_candidate_budget(N, K, TARGET).unwrap();
        let queries = cbir_workload::queries(rows, QUERIES, 0.01, 23);
        let mut served_stats = BatchStats::new();
        let served = engine
            .knn_batch_approx(&queries, K, TARGET, 2, &mut served_stats)
            .unwrap();
        let mut oracle_stats = BatchStats::new();
        let oracle = approx_knn_batch(
            &haar,
            &dataset,
            &Measure::L1,
            &queries,
            K,
            budget,
            &mut oracle_stats,
        );
        let exact = engine
            .knn_batch(&queries, K, 2, &mut BatchStats::new())
            .unwrap();
        let mut left = 0;
        for (i, got) in served.iter().enumerate() {
            let (s, o) = (&served_stats.per_query()[i], &oracle_stats.per_query()[i]);
            if s.coarse_candidates == 0 {
                assert_eq!(
                    *got, exact[i],
                    "{name}: query {i} differs from the exact reply"
                );
                continue;
            }
            left += 1;
            let got: Vec<(usize, u32)> = got.iter().map(|h| (h.id, h.distance.to_bits())).collect();
            let want: Vec<(usize, u32)> = oracle[i]
                .iter()
                .map(|h| (h.id, h.distance.to_bits()))
                .collect();
            assert_eq!(
                got, want,
                "{name}: query {i} differs from the two-stage oracle"
            );
            assert_eq!(
                (s.coarse_candidates, s.rerank_evaluations),
                (o.coarse_candidates, o.rerank_evaluations),
                "{name}: query {i} counts"
            );
        }
        let total = served_stats.total();
        let filter_evals = (total.distance_computations - total.rerank_evaluations) as usize;
        let per_query = filter_evals / QUERIES;
        println!("{name}: {left}/{QUERIES} left the filter, which scored {per_query} rows/query");
        assert!(
            left * 4 >= QUERIES * 3,
            "{name}: only {left} of {QUERIES} queries left the filter"
        );
        assert!(
            filter_evals <= 4 * 64 * K * QUERIES,
            "{name}: the filter scored {filter_evals} rows over {QUERIES} queries before leaving"
        );
    }
}

fn ids(replies: &[Vec<Neighbor>]) -> Vec<Vec<usize>> {
    let ids = |hits: &Vec<Neighbor>| hits.iter().map(|h| h.id).collect();
    replies.iter().map(ids).collect()
}

/// Fraction of the true top-k ids recovered, averaged over queries.
fn mean_recall(got: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    got.iter()
        .zip(truth)
        .map(|(g, t)| t.iter().filter(|id| g.contains(id)).count() as f64 / t.len() as f64)
        .sum::<f64>()
        / truth.len() as f64
}

/// F14's sweep corpus at 4,000 rows (its `--quick` size): clustered,
/// spatially smooth rows at dimensions 64 and 256, queried by 12 perturbed
/// members under L2. Work is counted in full `f32` row reads: an exact
/// index's and the rerank's distance evaluations count one each, and a
/// coarse stage counts the bytes it reads per row or node it visits over
/// the `4 · dim` bytes of a row (coarse-Haar reads `2 · c` bytes of `i16`
/// codes per row; best-bin-first one `f32` coordinate per node). The
/// two-stage configuration with recall ≥ 0.9 that does the least work
/// must do at most a fifth of the best exact index's.
#[test]
fn at_recall_0_9_the_two_stage_search_does_a_fifth_of_the_exact_work() {
    const N: usize = 4_000;
    const QUERIES: usize = 12;
    for dim in [64, 256] {
        let vecs = cbir_workload::clustered_smooth(N, dim, N / 64, 10.0, 100.0, 8, 61 + dim as u64);
        let dataset = Dataset::from_vectors(&vecs).unwrap();
        let queries: Vec<Vec<f32>> = cbir_workload::queries(&vecs, QUERIES * 4 / 3, 5.0, 23)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 3) // drop the uniform 25%
            .map(|(_, q)| q)
            .take(QUERIES)
            .collect();
        let exact: [(&str, Box<dyn SearchIndex>); 3] = [
            (
                "linear",
                Box::new(LinearScan::build(dataset.clone(), Measure::L2).unwrap()),
            ),
            (
                "kd",
                Box::new(KdTree::build(dataset.clone(), Measure::L2).unwrap()),
            ),
            (
                "vp",
                Box::new(VpTree::build(dataset.clone(), Measure::L2).unwrap()),
            ),
        ];
        // Every exact index returns the same neighbours.
        let truth = ids(&exact[0].1.knn_batch(&queries, K, &mut BatchStats::new()));
        let mut best_exact = f64::INFINITY;
        for (name, index) in &exact {
            let mut stats = BatchStats::new();
            index.knn_batch(&queries, K, &mut stats);
            let per_query = stats.total().distance_computations as f64 / QUERIES as f64;
            println!("dim {dim}: {name} {per_query:.0} evaluations per query");
            best_exact = best_exact.min(per_query);
        }
        let haar =
            CoarseHaarIndex::build(&dataset, CoarseHaarIndex::default_coefficients(dim)).unwrap();
        let bbf = BestBinFirst::build(&dataset).unwrap();
        let row_bytes = (4 * dim) as f64;
        let methods: [(&dyn ApproxSearch, f64); 2] = [
            (&haar, 2.0 * haar.coefficients() as f64 / row_bytes),
            (&bbf, 4.0 / row_bytes),
        ];
        let mut cheapest = f64::INFINITY;
        for (coarse, visit_cost) in methods {
            for target in [0.8, 0.9, 0.95] {
                let budget = plan_candidate_budget(N, K, target).unwrap();
                let mut stats = BatchStats::new();
                let replies = approx_knn_batch(
                    coarse,
                    &dataset,
                    &Measure::L2,
                    &queries,
                    K,
                    budget,
                    &mut stats,
                );
                let recall = mean_recall(&ids(&replies), &truth);
                let total = stats.total();
                let work = (total.nodes_visited as f64 * visit_cost
                    + total.rerank_evaluations as f64)
                    / QUERIES as f64;
                println!(
                    "dim {dim}: {} at {target}: recall {recall:.3}, {work:.0} row reads per query",
                    coarse.name()
                );
                if recall >= 0.9 {
                    cheapest = cheapest.min(work);
                }
            }
        }
        assert!(
            cheapest * 5.0 <= best_exact,
            "dim {dim}: at recall >= 0.9 the two-stage search reads {cheapest:.0} rows per \
             query against the best exact index's {best_exact:.0}"
        );
    }
}
