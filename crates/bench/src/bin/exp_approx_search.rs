//! **F14 — two-stage coarse-to-fine approximate search: recall vs. speedup.**
//!
//! Sweeps the two coarse backends behind the `ApproxSearch` trait —
//! the truncated/quantized Haar signature table and the bounded-leaf
//! best-bin-first kd variant — over recall targets at
//! dim ∈ {16, 64, 256}, against the best exact index from the lineup.
//! Every approximate configuration runs the same two-stage pipeline the
//! serving path uses: coarse candidates under the planner's budget for
//! the recall target, then exact rerank with the batched distance
//! kernels.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_approx_search [--quick]`
//!
//! One more line per dimension is not gated: the same corpus under
//! **L1**, where the sequential scan is an exact filter-and-refine
//! (`cbir_index::LinearScan`'s code table) and where the served
//! approximate path (`QueryEngine::knn_batch_approx` over a linear scan)
//! therefore answers from that filter — the exact scan's time per query,
//! the served path's at target 0.9 with the recall it delivers, and the
//! coarse-Haar path's at target 0.9 with its recall.
//!
//! A last leg is the served path's worst case, and a gate: two L1
//! corpora whose codes cannot separate the rows (F9's Dirichlet
//! histograms; F8's one column a million times wider than the rest), at
//! the sweep's N and at a `tier_approx` shard's 100,000 rows, on which
//! (nearly) every query leaves the filter and runs the two-stage search,
//! having paid for the blocks it tried. Replies are asserted equal to a
//! coarse-Haar + rerank oracle, counts included (or, for a query the
//! filter kept, to the exact reply), and the rows the filter scored per
//! query are bounded, before any timing (`--quick` included); then, in
//! full mode, the served path at target 0.9 must cost no more than
//! [`WORST_CASE_CEILING`] times the two-stage search per query at
//! batches 1, 3 and 8 on two workers.
//!
//! Writes `results/BENCH_approx_search.json` (full mode only) and, in
//! full mode, asserts the paper-level claim: at dim 64 and 256 some
//! approximate configuration reaches >= 5x speedup over the best exact
//! index at measured recall >= 0.9.

use cbir_bench::{rounded, write_results, Table};
use cbir_core::{plan_candidate_budget, ImageDatabase, ImageMeta, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::Dataset;
use cbir_index::{
    approx_knn_batch, knn_search_simple, run_parallel, ApproxSearch, BatchStats, BestBinFirst,
    CoarseHaarIndex, KdTree, LinearScan, SearchIndex, VpTree,
};
use cbir_obs::{obj, Json};
use std::time::Instant;

const K: usize = 10;

/// The workers the worst-case leg runs on, as `e2e/`'s servers do.
const WORKERS: usize = 2;

/// The most the served path may cost per query on a corpus the filter
/// cannot serve, as a multiple of the two-stage search's time. Measured
/// at 1.1-1.7x on a loaded 2-vCPU host (the filter's attempt reads rows
/// and codes the two-stage search then has to read back into cache); a
/// query that finished its attempt on the plain scan would cost 3-5x.
const WORST_CASE_CEILING: f64 = 2.0;

/// The most rows the filter may score per query there: a query leaves
/// once 64 survivors per neighbour asked for are spent, and a group of
/// survivors is scored whole at no more than four rows per survivor.
const WORST_CASE_EVALUATIONS: f64 = (4 * 64 * K) as f64;

/// The worst-case leg's descriptor width, recall target and query count.
const WORST_DIM: usize = 64;
const WORST_TARGET: f32 = 0.9;
const WORST_QUERIES: usize = 48;

/// An L1 engine over `rows` as a server holds one: a linear scan under a
/// pipeline of the rows' width.
fn l1_engine(rows: &[Vec<f32>]) -> QueryEngine {
    let bins = rows[0].len() as u32;
    let pipeline = Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins })],
    );
    let metas = (0..rows.len()).map(|i| ImageMeta {
        name: format!("row-{i}"),
        label: None,
    });
    let db = ImageDatabase::from_parts(
        pipeline.expect("gray pipeline"),
        false,
        rows.concat(),
        metas.collect(),
    )
    .expect("database");
    QueryEngine::build(db, IndexKind::Linear, Measure::L1).expect("engine")
}

/// The worst-case leg (see the module docs) at each corpus size in
/// `sizes`. Returns its JSON rows.
fn worst_case_leg(sizes: &[usize], iters: usize, quick: bool) -> Vec<Json> {
    println!(
        "served approximate L1 at target {WORST_TARGET} where the filter cannot serve, \
         d={WORST_DIM}, {WORST_QUERIES} queries, {WORKERS} workers\n"
    );
    let mut table = Table::new(&[
        "corpus",
        "N",
        "batch",
        "two-stage us/q",
        "served us/q",
        "ratio",
        "left filter",
        "filter evals/q",
    ]);
    let (mut json, mut over) = (Vec::new(), Vec::new());
    for &n in sizes {
        let histograms = cbir_workload::histograms(n, WORST_DIM, 1.0, 42);
        let mut wide = cbir_workload::uniform(n, WORST_DIM, 1.0, 8);
        let mut rng = cbir_workload::Pcg32::new(1);
        for row in &mut wide {
            row[0] = rng.range_f32(0.0, 1e6);
        }
        for (name, rows) in [
            ("dirichlet histograms", &histograms),
            ("one wide column", &wide),
        ] {
            worst_case_corpus(name, rows, iters, &mut table, &mut json, &mut over);
        }
    }
    table.print();
    println!();
    assert!(
        quick || over.is_empty(),
        "the served path cost more than {WORST_CASE_CEILING}x the two-stage search: {over:?}"
    );
    json
}

/// One corpus of the worst-case leg: replies checked, then the served
/// path timed against the two-stage search at batches 1, 3 and 8.
fn worst_case_corpus(
    name: &str,
    rows: &[Vec<f32>],
    iters: usize,
    table: &mut Table,
    json: &mut Vec<Json>,
    over: &mut Vec<String>,
) {
    let (n, n_queries) = (rows.len(), WORST_QUERIES);
    let engine = l1_engine(rows);
    let dataset = Dataset::from_vectors(rows).expect("dataset");
    let haar = CoarseHaarIndex::build(&dataset, CoarseHaarIndex::default_coefficients(WORST_DIM))
        .expect("haar");
    let budget = plan_candidate_budget(n, K, WORST_TARGET).expect("a budget below 1.0");
    let queries = cbir_workload::queries(rows, n_queries, 0.01, 23);
    // Replies and counts first. A query that left the filter got the
    // two-stage search's answer, counts included; one the filter
    // kept (a point far from every row can be) got the exact one,
    // with zero counts.
    let mut served_stats = BatchStats::new();
    let served = engine
        .knn_batch_approx(&queries, K, WORST_TARGET, WORKERS, &mut served_stats)
        .expect("served");
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
        .knn_batch(&queries, K, WORKERS, &mut BatchStats::new())
        .expect("exact");
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
    assert!(
        left * 4 >= n_queries * 3,
        "{name}: only {left} queries left the filter"
    );
    let filter_evals = (served_stats.total().distance_computations
        - served_stats.total().rerank_evaluations) as f64
        / n_queries as f64;
    assert!(
        filter_evals <= WORST_CASE_EVALUATIONS,
        "{name}: the filter scored {filter_evals:.0} rows per query before leaving"
    );
    let mut rows_json = Vec::new();
    for batch in [1usize, 3, 8] {
        let per_query = |total_us: f64| total_us / n_queries as f64;
        let two_stage = || {
            for chunk in queries.chunks(batch) {
                let mut stats = BatchStats::new();
                std::hint::black_box(run_parallel(
                    chunk.len(),
                    WORKERS,
                    &mut stats,
                    |part, bs| {
                        approx_knn_batch(&haar, &dataset, &Measure::L1, &chunk[part], K, budget, bs)
                    },
                ));
            }
        };
        let served = || {
            for chunk in queries.chunks(batch) {
                let mut stats = BatchStats::new();
                let replies = engine.knn_batch_approx(chunk, K, WORST_TARGET, WORKERS, &mut stats);
                std::hint::black_box(replies.expect("served"));
            }
        };
        let (two_stage, served) = alternating_medians_us(iters, two_stage, served);
        let (two_stage, served) = (per_query(two_stage), per_query(served));
        let ratio = served / two_stage;
        table.row(vec![
            name.to_string(),
            n.to_string(),
            batch.to_string(),
            format!("{two_stage:.1}"),
            format!("{served:.1}"),
            format!("{ratio:.2}x"),
            format!("{left}/{n_queries}"),
            format!("{filter_evals:.0}"),
        ]);
        if ratio > WORST_CASE_CEILING {
            over.push(format!("{name}, N {n}, batch {batch}: {ratio:.2}x"));
        }
        rows_json.push(obj! {
            "batch": batch, "two_stage_us_per_query": rounded(two_stage, 1),
            "served_us_per_query": rounded(served, 1), "served_over_two_stage": rounded(ratio, 3),
        });
    }
    json.push(obj! {
        "corpus": name, "n": n, "budget": budget, "queries": n_queries,
        "queries_that_left_the_filter": left,
        "coarse_candidates_per_query": rounded(
            served_stats.total().coarse_candidates as f64 / n_queries as f64, 1),
        "filter_evaluations_per_query": rounded(filter_evals, 1),
        "batches": Json::Arr(rows_json),
    });
}

/// Median wall time of `iters` runs of `f`, in microseconds.
fn median_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median wall times of `iters` runs each of `a` and `b`, in
/// microseconds, the two run alternately so that a host whose load
/// drifts weighs on both alike.
fn alternating_medians_us(iters: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut times_a, mut times_b) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        times_a.push(median_us(1, &mut a));
        times_b.push(median_us(1, &mut b));
    }
    let median = |mut times: Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    (median(times_a), median(times_b))
}

/// Fraction of the true top-k ids the approximate result recovered,
/// averaged over queries.
fn mean_recall(got: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    got.iter()
        .zip(truth)
        .map(|(g, t)| t.iter().filter(|id| g.contains(id)).count() as f64 / t.len() as f64)
        .sum::<f64>()
        / truth.len() as f64
}

struct MethodRow {
    method: &'static str,
    recall_target: f32,
    budget: usize,
    recall: f64,
    per_query_us: f64,
    speedup: f64,
    coarse_candidates: f64,
    rerank_evaluations: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 4_000 } else { 40_000 };
    let n_queries = if quick { 12 } else { 40 };
    let timing_iters = if quick { 1 } else { 3 };
    let dims: &[usize] = &[16, 64, 256];
    let recall_targets: &[f32] = &[0.8, 0.9, 0.95];

    println!(
        "F14: two-stage approximate search, N={n}, k={K}, {n_queries} queries{}\n",
        if quick { " (quick)" } else { "" }
    );

    let mut json_dims = Vec::new();
    let mut acceptance_ok = true;
    for &dim in dims {
        // Image-like near-duplicate retrieval: many small groups (~64
        // members — one "scene" and its variants), white high-dimensional
        // centres so exact spatial pruning stays collapsed (the regime
        // approximate search exists for; the easy tight-cluster regime
        // where a kd-tree answers in one leaf is F6's chart), and
        // spatially smooth within-group residuals — the low-frequency-
        // dominant spectrum of real image descriptors, which is the
        // structure the truncated-Haar coarse stage exploits.
        let clusters = (n / 64).max(8);
        let vecs =
            cbir_workload::clustered_smooth(n, dim, clusters, 10.0, 100.0, 8, 61 + dim as u64);
        let dataset = Dataset::from_vectors(&vecs).expect("valid workload");
        // Query-by-example workload: perturbed database members (uniform
        // random points have no meaningful neighbours to recall).
        let members: Vec<Vec<f32>> = (0..dataset.len())
            .map(|i| dataset.vector(i).to_vec())
            .collect();
        let queries: Vec<Vec<f32>> = cbir_workload::queries(&members, n_queries * 4 / 3, 5.0, 23)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 3) // drop the uniform 25%
            .map(|(_, q)| q)
            .take(n_queries)
            .collect();

        // Ground truth and the exact baseline: the fastest exact index
        // on this workload (the lineup's contenders for query-by-example
        // at these dimensionalities).
        let exact_indexes: Vec<(&'static str, Box<dyn SearchIndex>)> = vec![
            (
                "linear",
                Box::new(LinearScan::build(dataset.clone(), Measure::L2).expect("linear")),
            ),
            (
                "kd",
                Box::new(KdTree::build(dataset.clone(), Measure::L2).expect("kd")),
            ),
            (
                "vp",
                Box::new(VpTree::build(dataset.clone(), Measure::L2).expect("vp")),
            ),
        ];
        let truth: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| {
                knn_search_simple(exact_indexes[0].1.as_ref(), q, K)
                    .iter()
                    .map(|h| h.id)
                    .collect()
            })
            .collect();
        let mut best_exact = ("", f64::INFINITY);
        let mut exact_rows = Vec::new();
        for (name, index) in &exact_indexes {
            let total_us = median_us(timing_iters, || {
                for q in &queries {
                    std::hint::black_box(knn_search_simple(index.as_ref(), q, K));
                }
            });
            let per_query = total_us / queries.len() as f64;
            exact_rows.push((name, per_query));
            if per_query < best_exact.1 {
                best_exact = (name, per_query);
            }
        }

        // The coarse backends, built once per dimension.
        let haar = CoarseHaarIndex::build(&dataset, CoarseHaarIndex::default_coefficients(dim))
            .expect("haar");
        let bbf = BestBinFirst::build(&dataset).expect("bbf");
        let methods: Vec<(&'static str, &dyn ApproxSearch)> =
            vec![("coarse-haar", &haar), ("bbf", &bbf)];

        println!(
            "dim {dim}: exact baseline {} at {:.1} us/query ({})",
            best_exact.0,
            best_exact.1,
            exact_rows
                .iter()
                .map(|(n, us)| format!("{n} {us:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let mut table = Table::new(&[
            "method",
            "target",
            "budget",
            "recall@10",
            "us/query",
            "speedup",
            "coarse",
            "rerank",
        ]);
        let mut rows = Vec::new();
        for (method, coarse) in &methods {
            for &rt in recall_targets {
                let budget = plan_candidate_budget(n, K, rt)
                    .expect("targets below 1.0 always plan a budget");
                let mut results = Vec::new();
                let mut stats = BatchStats::new();
                let total_us = median_us(timing_iters, || {
                    stats = BatchStats::new();
                    results = approx_knn_batch(
                        *coarse,
                        &dataset,
                        &Measure::L2,
                        &queries,
                        K,
                        budget,
                        &mut stats,
                    );
                });
                let got: Vec<Vec<usize>> = results
                    .iter()
                    .map(|hits| hits.iter().map(|h| h.id).collect())
                    .collect();
                let recall = mean_recall(&got, &truth);
                let per_query_us = total_us / queries.len() as f64;
                let row = MethodRow {
                    method,
                    recall_target: rt,
                    budget,
                    recall,
                    per_query_us,
                    speedup: best_exact.1 / per_query_us,
                    coarse_candidates: stats.total().coarse_candidates as f64
                        / queries.len() as f64,
                    rerank_evaluations: stats.total().rerank_evaluations as f64
                        / queries.len() as f64,
                };
                table.row(vec![
                    row.method.to_string(),
                    format!("{rt}"),
                    row.budget.to_string(),
                    format!("{:.3}", row.recall),
                    format!("{:.1}", row.per_query_us),
                    format!("{:.1}x", row.speedup),
                    format!("{:.0}", row.coarse_candidates),
                    format!("{:.0}", row.rerank_evaluations),
                ]);
                rows.push(row);
            }
        }
        table.print();
        println!();

        // The same rows under L1: the filtered exact scan against the
        // coarse-Haar path at target 0.9 (informational; see the module
        // docs).
        let l1_scan = LinearScan::build(dataset.clone(), Measure::L1).expect("linear");
        let l1_truth: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| {
                let hits = knn_search_simple(&l1_scan, q, K);
                hits.iter().map(|h| h.id).collect()
            })
            .collect();
        let mut l1_stats = BatchStats::new();
        let l1_exact_us = median_us(timing_iters, || {
            l1_stats = BatchStats::new();
            std::hint::black_box(l1_scan.knn_batch(&queries, K, &mut l1_stats));
        }) / queries.len() as f64;
        let l1_evaluated = l1_stats.total().distance_computations as f64 / queries.len() as f64;
        let budget = plan_candidate_budget(n, K, 0.9).expect("0.9 plans a budget");
        let mut l1_results = Vec::new();
        let l1_haar_us = median_us(timing_iters, || {
            let mut stats = BatchStats::new();
            l1_results = approx_knn_batch(
                &haar,
                &dataset,
                &Measure::L1,
                &queries,
                K,
                budget,
                &mut stats,
            );
        }) / queries.len() as f64;
        let l1_got: Vec<Vec<usize>> = l1_results
            .iter()
            .map(|hits| hits.iter().map(|h| h.id).collect())
            .collect();
        let l1_haar_recall = mean_recall(&l1_got, &l1_truth);
        // The served approximate path at target 0.9, one batch on one
        // thread like the two lines beside it, once untimed to build
        // what it builds on first use.
        let engine = l1_engine(&vecs);
        let mut served = engine
            .knn_batch_approx(&queries, K, 0.9, 1, &mut BatchStats::new())
            .expect("served");
        let mut served_stats = BatchStats::new();
        let l1_served_us = median_us(timing_iters, || {
            served_stats = BatchStats::new();
            served = engine
                .knn_batch_approx(&queries, K, 0.9, 1, &mut served_stats)
                .expect("served");
        }) / queries.len() as f64;
        let served_got: Vec<Vec<usize>> = served
            .iter()
            .map(|hits| hits.iter().map(|h| h.id).collect())
            .collect();
        let l1_served_recall = mean_recall(&served_got, &l1_truth);
        let served_coarse = served_stats.total().coarse_candidates;
        println!(
            "dim {dim} under L1: exact filtered scan {l1_exact_us:.1} us/query \
             ({l1_evaluated:.0} of {n} rows evaluated); served approximate at target 0.9 \
             {l1_served_us:.1} us/query (recall {l1_served_recall:.3}, {served_coarse} coarse \
             candidates); coarse-haar at target 0.9 {l1_haar_us:.1} us/query \
             (recall {l1_haar_recall:.3})"
        );

        // The paper-level acceptance claim, checked at full scale: some
        // configuration reaches >= 5x at measured recall >= 0.9.
        if dim >= 64 {
            let best = rows
                .iter()
                .filter(|r| r.recall >= 0.9)
                .map(|r| r.speedup)
                .fold(0.0f64, f64::max);
            let pass = best >= 5.0;
            println!(
                "dim {dim} acceptance (>=5x at recall >=0.9): best {best:.1}x -> {}{}",
                if pass { "PASS" } else { "FAIL" },
                if quick {
                    " (informational — gated at full scale only)"
                } else {
                    ""
                }
            );
            if !quick {
                acceptance_ok &= pass;
            }
        }
        println!();

        let rows = rows.iter().map(|r| {
            obj! { "method": r.method, "recall_target": rounded(r.recall_target as f64, 2),
            "budget": r.budget, "recall": rounded(r.recall, 4),
            "per_query_us": rounded(r.per_query_us, 1), "speedup": rounded(r.speedup, 2),
            "coarse_candidates": rounded(r.coarse_candidates, 0),
            "rerank_evaluations": rounded(r.rerank_evaluations, 0) }
        });
        let exact = exact_rows
            .iter()
            .map(|(n, us)| (n.to_string(), rounded(*us, 1)));
        json_dims.push(obj! {
            "dim": dim, "best_exact": best_exact.0, "best_exact_us": rounded(best_exact.1, 1),
            "exact": Json::Obj(exact.collect()),
            "l1": obj! { "exact_filtered_scan_us": rounded(l1_exact_us, 1),
                         "rows_evaluated_per_query": rounded(l1_evaluated, 0),
                         "served_approx_0_9_us": rounded(l1_served_us, 1),
                         "served_approx_0_9_recall": rounded(l1_served_recall, 4),
                         "served_approx_0_9_coarse_candidates": served_coarse,
                         "coarse_haar_0_9_us": rounded(l1_haar_us, 1),
                         "coarse_haar_0_9_recall": rounded(l1_haar_recall, 4) },
            "rows": Json::Arr(rows.collect()),
        });
    }

    let sizes: &[usize] = if quick { &[8_000] } else { &[n, 100_000] };
    let worst_case = worst_case_leg(sizes, if quick { 1 } else { 9 }, quick);

    let doc = obj! {
        "experiment": "approx_search", "n": n, "k": K, "queries": n_queries, "measure": "l2",
        "pipeline": "coarse candidates under the recall-target budget, exact rerank",
        "dims": Json::Arr(json_dims),
        "l1_served_where_the_filter_leaves": Json::Arr(worst_case),
    };
    write_results("approx_search", quick, &doc);
    assert!(
        acceptance_ok,
        "acceptance failed: no configuration reached 5x speedup at recall >= 0.9 \
         for some dim in {{64, 256}}"
    );
}
