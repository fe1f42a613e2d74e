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
//! One more line per dimension is an input to the planner work, not a
//! gate: the same corpus under **L1**, where the sequential scan is an
//! exact filter-and-refine (`cbir_index::LinearScan`'s code table) —
//! its time per query beside the coarse-Haar path's at target 0.9 and
//! the recall that path delivers. Where the exact scan is already as
//! fast, a planner should fall back to it.
//!
//! Writes `results/BENCH_approx_search.json` (full mode only) and, in
//! full mode, asserts the paper-level claim: at dim 64 and 256 some
//! approximate configuration reaches >= 5x speedup over the best exact
//! index at measured recall >= 0.9.

use cbir_bench::{rounded, write_results, Table};
use cbir_core::plan_candidate_budget;
use cbir_distance::Measure;
use cbir_index::Dataset;
use cbir_index::{
    approx_knn_batch, knn_search_simple, ApproxSearch, BatchStats, BestBinFirst, CoarseHaarIndex,
    KdTree, LinearScan, SearchIndex, VpTree,
};
use cbir_obs::{obj, Json};
use std::time::Instant;

const K: usize = 10;

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
        println!(
            "dim {dim} under L1: exact filtered scan {l1_exact_us:.1} us/query \
             ({l1_evaluated:.0} of {n} rows evaluated) vs coarse-haar at target 0.9 \
             {l1_haar_us:.1} us/query (recall {l1_haar_recall:.3})"
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
                         "coarse_haar_0_9_us": rounded(l1_haar_us, 1),
                         "coarse_haar_0_9_recall": rounded(l1_haar_recall, 4) },
            "rows": Json::Arr(rows.collect()),
        });
    }

    let doc = obj! {
        "experiment": "approx_search", "n": n, "k": K, "queries": n_queries, "measure": "l2",
        "pipeline": "coarse candidates under the recall-target budget, exact rerank",
        "dims": Json::Arr(json_dims),
    };
    write_results("approx_search", quick, &doc);
    assert!(
        acceptance_ok,
        "acceptance failed: no configuration reached 5x speedup at recall >= 0.9 \
         for some dim in {{64, 256}}"
    );
}
