//! **F8 — batched query throughput.**
//!
//! Single-query-loop vs. batched k-NN execution for every index in the
//! lineup: queries/second at batch sizes 1, 16, and 256, with 1 worker
//! thread and with all available cores. Batched execution reuses one
//! [`cbir_index::QueryScratch`] per worker (zero steady-state allocation)
//! and, on the sequential scan, runs the monomorphized
//! `Measure::dist_to_many` kernel over the contiguous dataset — so on
//! one worker the batch path matches the single-query loop (batching
//! adds no overhead), and thread fan-out multiplies throughput by the
//! worker count on multi-core hosts.
//!
//! Every batched result list is checked bit-identical against the
//! single-query loop before any timing is reported.
//!
//! A second leg prices the sequential scan's **exact L1 filter** (a
//! one-byte code table whose lower bound skips rows; see
//! `cbir_index::LinearScan`) against the plain blocked scan, written out
//! here from `Measure::dist_to_many` and a `KnnHeap`, at batches 1, 3 and
//! 8 on two workers: where it pays (the benchmark's clustered corpus), and
//! where it cannot (one column a million times wider than the rest, so
//! the codes separate nothing and every query leaves the filter; `k` =
//! half the rows, so the heap alone needs that many evaluations and the
//! filter is never entered). The worst cases must stay within a quarter
//! of the plain scan on any host; replies are asserted bit-identical
//! first. The table's build time and size are reported beside them.
//!
//! Writes `results/BENCH_query_throughput.json`.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_batch_throughput [--quick]`

use cbir_bench::{
    build_lineup_index, clustered_dataset, index_lineup, rounded, standard_queries, write_results,
    Table,
};
use cbir_distance::Measure;
use cbir_index::{
    knn_batch_parallel, run_parallel, BatchStats, Dataset, KnnHeap, LinearScan, Neighbor,
    SearchIndex, SearchStats,
};
use cbir_obs::{obj, Json};
use std::time::Instant;

const K: usize = 10;

/// Queries/second for one timed closure over `n_queries`, median of `iters`.
fn qps<F: FnMut()>(iters: usize, n_queries: usize, mut f: F) -> f64 {
    assert!(iters > 0);
    let mut rates: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            n_queries as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// The plain blocked scan the filter sits in front of: every query of
/// the batch scored against each L1-sized block of rows, candidates
/// offered in id order.
fn plain_l1_knn_batch(dataset: &Dataset, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
    let dim = dataset.dim();
    let block_rows = (32 * 1024 / (dim * 4)).max(1);
    let mut heaps: Vec<KnnHeap> = queries.iter().map(|_| KnnHeap::new(k)).collect();
    let mut dists = vec![0.0f32; block_rows];
    for (b, block) in dataset.flat().chunks(block_rows * dim).enumerate() {
        let dists = &mut dists[..block.len() / dim];
        for (q, heap) in queries.iter().zip(&mut heaps) {
            Measure::L1.dist_to_many(q, block, dists);
            for (i, &d) in dists.iter().enumerate() {
                if heap.len() < k || d < heap.bound() {
                    heap.offer(b * block_rows + i, d);
                }
            }
        }
    }
    heaps.into_iter().map(KnnHeap::into_sorted).collect()
}

/// The exact-L1-filter leg (see the module docs). Returns its JSON rows.
fn l1_filter_leg(quick: bool) -> Vec<Json> {
    const DIM: usize = 64;
    const BATCHES: [usize; 3] = [1, 3, 8];
    const WORKERS: usize = 2;
    let n: usize = if quick { 20_000 } else { 100_000 };
    let iters = if quick { 1 } else { 5 };
    let clustered = cbir_workload::clustered_smooth(n, DIM, n / 64, 10.0, 100.0, 8, 3);
    let mut wide = cbir_workload::uniform(n, DIM, 1.0, 8);
    let mut rng = cbir_workload::Pcg32::new(1);
    for row in &mut wide {
        row[0] = rng.range_f32(0.0, 1e6);
    }
    // (name, rows, k, queries, ceiling on filtered / plain)
    let cases = [
        ("clustered, k 10", &clustered, K, 64, None),
        ("one wide column, k 10", &wide, K, 64, Some(1.25)),
        ("clustered, k n/2", &clustered, n / 2, 8, Some(1.25)),
    ];
    println!(
        "\nexact L1 filter vs the plain scan, N={n}, d={DIM}, batches {BATCHES:?}, \
         {WORKERS} workers\n"
    );
    let mut table = Table::new(&[
        "corpus",
        "batch",
        "plain us/q",
        "filtered us/q",
        "ratio",
        "evaluated/q",
        "pruned share",
    ]);
    let mut json = Vec::new();
    for (name, rows, k, n_queries, ceiling) in cases {
        let dataset = Dataset::from_vectors(rows).expect("dataset");
        let queries = cbir_workload::queries(rows, n_queries, 5.0, 4);
        let index = LinearScan::build(dataset.clone(), Measure::L1).expect("linear");
        let idle_bytes = index.structure_bytes();
        // The first scan that can use a table builds it.
        let start = Instant::now();
        let mut stats = BatchStats::new();
        let first = index.knn_batch(&queries[..1], k, &mut stats);
        let first_ms = start.elapsed().as_secs_f64() * 1e3;
        let table_bytes_per_row = (index.structure_bytes() - idle_bytes) as f64 / n as f64;
        assert_eq!(first, plain_l1_knn_batch(&dataset, &queries[..1], k));
        let mut stats = BatchStats::new();
        for chunk in queries.chunks(8) {
            assert_eq!(
                index.knn_batch(chunk, k, &mut stats),
                plain_l1_knn_batch(&dataset, chunk, k),
                "{name}: filtered replies diverge from the plain scan"
            );
        }
        let total = stats.total().clone();
        let evaluated = total.distance_computations as f64 / n_queries as f64;
        let pruned = total.subtrees_pruned as f64 / (n_queries * n) as f64;
        let mut batches = Vec::new();
        for batch in BATCHES {
            let us_per_query = |rate: f64| 1e6 / rate;
            let plain = us_per_query(qps(iters, n_queries, || {
                for chunk in queries.chunks(batch) {
                    let mut stats = BatchStats::new();
                    std::hint::black_box(run_parallel(
                        chunk.len(),
                        WORKERS,
                        &mut stats,
                        |part, _| plain_l1_knn_batch(&dataset, &chunk[part], k),
                    ));
                }
            }));
            let filtered = us_per_query(qps(iters, n_queries, || {
                for chunk in queries.chunks(batch) {
                    let mut stats = BatchStats::new();
                    std::hint::black_box(knn_batch_parallel(&index, chunk, k, WORKERS, &mut stats));
                }
            }));
            let ratio = filtered / plain;
            table.row(vec![
                name.to_string(),
                batch.to_string(),
                format!("{plain:.0}"),
                format!("{filtered:.0}"),
                format!("{ratio:.2}x"),
                format!("{evaluated:.0}"),
                format!("{pruned:.4}"),
            ]);
            if let (Some(ceiling), false) = (ceiling, quick) {
                assert!(
                    ratio <= ceiling,
                    "{name}, batch {batch}: the filter cost {ratio:.2}x the plain scan where it \
                     cannot prune"
                );
            }
            batches.push(obj! {
                "batch": batch, "plain_us_per_query": rounded(plain, 1),
                "filtered_us_per_query": rounded(filtered, 1),
                "filtered_over_plain": rounded(ratio, 3),
            });
        }
        json.push(obj! {
            "corpus": name, "k": k, "workers": WORKERS, "batches": Json::Arr(batches),
            "evaluated_per_query": rounded(evaluated, 1), "pruned_share": rounded(pruned, 5),
            "first_query_ms": rounded(first_ms, 1),
            "table_bytes_per_row": rounded(table_bytes_per_row, 0),
        });
    }
    table.print();
    json
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 2_000 } else { 10_000 };
    const DIM: usize = 16;
    let n_queries = 256usize;
    let iters = if quick { 3 } else { 5 };
    let max_threads = std::thread::available_parallelism().map_or(1, |t| t.get());

    let dataset = clustered_dataset(n, DIM, 91);
    let queries = standard_queries(&dataset, n_queries, 17);
    let batch_sizes = [1usize, 16, 256];
    let thread_counts: Vec<usize> = if max_threads > 1 {
        vec![1, max_threads]
    } else {
        vec![1]
    };

    println!("F8: single vs batched k-NN throughput, N={n}, d={DIM}, k={K}, {n_queries} queries\n");
    let mut table = Table::new(&["index", "batch", "threads", "q/s", "vs-single-loop"]);
    let mut json_rows = Vec::new();

    for kind in index_lineup() {
        let index = build_lineup_index(&kind, dataset.clone());

        // Exactness first: the batched path must reproduce the
        // single-query loop bit-for-bit before its speed means anything.
        let single_results: Vec<_> = queries
            .iter()
            .map(|q| {
                let mut stats = SearchStats::new();
                index.knn_search(q, K, &mut stats)
            })
            .collect();
        for &threads in &thread_counts {
            let mut stats = BatchStats::new();
            let batched = knn_batch_parallel(index.as_ref(), &queries, K, threads, &mut stats);
            assert_eq!(
                batched,
                single_results,
                "{}: batched results diverge from single-query loop",
                kind.name()
            );
        }

        let single_qps = qps(iters, n_queries, || {
            for q in &queries {
                let mut stats = SearchStats::new();
                std::hint::black_box(index.knn_search(q, K, &mut stats));
            }
        });
        table.row(vec![
            kind.name().to_string(),
            "-".into(),
            "1".into(),
            format!("{single_qps:.0}"),
            "1.00x".into(),
        ]);

        let mut batch_json = Vec::new();
        for &batch in &batch_sizes {
            for &threads in &thread_counts {
                let rate = qps(iters, n_queries, || {
                    for chunk in queries.chunks(batch) {
                        let mut stats = BatchStats::new();
                        std::hint::black_box(knn_batch_parallel(
                            index.as_ref(),
                            chunk,
                            K,
                            threads,
                            &mut stats,
                        ));
                    }
                });
                table.row(vec![
                    kind.name().to_string(),
                    batch.to_string(),
                    threads.to_string(),
                    format!("{rate:.0}"),
                    format!("{:.2}x", rate / single_qps),
                ]);
                batch_json.push(obj! { "batch": batch, "threads": threads,
                "qps": rounded(rate, 1) });
            }
        }
        json_rows.push(
            obj! { "index": kind.name(), "single_qps": rounded(single_qps, 1),
            "batched": Json::Arr(batch_json) },
        );
    }
    table.print();
    println!("\nExpected shape: at 1 thread, batched execution matches the");
    println!("single-query loop on every index (same kernels, same scratch");
    println!("path — batching adds no overhead); at N threads the fan-out");
    println!("multiplies q/s by ~N on multi-core hosts.");

    let l1_filter_rows = l1_filter_leg(quick);

    // Quick mode exists for the bit-identity assertions; it never
    // clobbers committed full-mode numbers with reduced-size timings.
    let doc = obj! {
        "experiment": "batch_query_throughput", "n": n, "dim": DIM, "k": K,
        "queries": n_queries, "max_threads": max_threads,
        "exactness": "batched results asserted bit-identical to single-query loop",
        "results": Json::Arr(json_rows),
        "l1_filter_vs_plain_scan": Json::Arr(l1_filter_rows),
    };
    println!();
    write_results("query_throughput", quick, &doc);
}
