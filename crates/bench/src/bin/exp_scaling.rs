//! **F1 — query cost vs. database size.**
//!
//! k-NN (k = 10) over clustered 16-d signatures as N grows: per index,
//! mean distance computations and mean wall-clock per query, plus the
//! speedup factor over sequential scan. The paper-shape claim: indexed
//! search wins by a growing factor as N grows. Every tree's k-NN replies
//! must equal the scan's bit for bit (ids, order and distance bits), or
//! the run fails.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_scaling [--quick]`

use cbir_bench::{clustered_dataset, fmt_us, index_lineup, standard_queries, Table};
use cbir_core::build_index;
use cbir_distance::Measure;
use cbir_index::{BatchStats, Neighbor};
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[1_000, 5_000, 20_000]
    } else {
        &[1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000]
    };
    const DIM: usize = 16;
    const K: usize = 10;
    let n_queries = if quick { 20 } else { 50 };

    println!("F1: k-NN (k={K}) cost vs database size, d={DIM}, clustered workload\n");
    let mut table = Table::new(&[
        "N",
        "index",
        "comps-p50",
        "comps-p95",
        "frac-of-scan",
        "us/query",
        "speedup-vs-linear",
    ]);

    for &n in sizes {
        let dataset = clustered_dataset(n, DIM, 42);
        let queries = standard_queries(&dataset, n_queries, 7);
        let mut linear_us = 0.0f64;
        let mut scan: Vec<Vec<Neighbor>> = Vec::new();
        for kind in index_lineup() {
            let index = build_index(&kind, dataset.clone(), Measure::L2).expect("build");
            let mut stats = BatchStats::new();
            let start = Instant::now();
            let replies = index.knn_batch(&queries, K, &mut stats);
            let elapsed = start.elapsed();
            if kind.name() == "linear" {
                scan = replies;
            } else {
                let bits = |r: &[Neighbor]| -> Vec<(usize, u32)> {
                    r.iter().map(|h| (h.id, h.distance.to_bits())).collect()
                };
                for (got, want) in replies.iter().zip(&scan) {
                    assert_eq!(
                        bits(got),
                        bits(want),
                        "{} k-NN diverges from the scan at N = {n}",
                        kind.name()
                    );
                }
            }
            let per_query_us = elapsed.as_secs_f64() * 1e6 / queries.len() as f64;
            if kind.name() == "linear" {
                linear_us = per_query_us;
            }
            table.row(vec![
                n.to_string(),
                kind.name().to_string(),
                stats.p50_comps().to_string(),
                stats.p95_comps().to_string(),
                format!("{:.3}", stats.mean_comps() / n as f64),
                fmt_us(std::time::Duration::from_secs_f64(per_query_us / 1e6)),
                format!("{:.1}x", linear_us / per_query_us),
            ]);
        }
    }
    table.print();
    println!("\nExpected shape: frac-of-scan shrinks with N for every tree index;");
    println!("speedup over the scan grows with N.");
}
