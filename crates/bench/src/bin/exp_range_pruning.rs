//! **F3 — range-search pruning vs. search radius.**
//!
//! For radius thresholds at increasing quantiles of the pairwise-distance
//! distribution: how much of the database the metric trees avoid
//! comparing, and how many results qualify. The paper-shape claim:
//! triangle-inequality pruning is dramatic at selective radii and
//! evaporates as the radius approaches the data diameter. Every tree's
//! range replies must equal the scan's bit for bit (ids, order and
//! distance bits), or the run fails.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_range_pruning [--quick]`

use cbir_bench::{clustered_dataset, standard_queries, Table};
use cbir_core::{build_index, IndexKind};
use cbir_distance::{l2, Measure};
use cbir_index::{BatchStats, Neighbor, SplitMix64};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 5_000 } else { 20_000 };
    const DIM: usize = 16;
    let n_queries = if quick { 15 } else { 40 };

    let dataset = clustered_dataset(n, DIM, 11);
    let queries = standard_queries(&dataset, n_queries, 5);

    // Radius schedule from sampled pairwise-distance quantiles.
    let mut rng = SplitMix64::new(77);
    let mut sample: Vec<f32> = (0..4000)
        .map(|_| {
            let a = rng.next_below(n);
            let b = rng.next_below(n);
            l2(dataset.vector(a), dataset.vector(b))
        })
        .collect();
    sample.sort_by(f32::total_cmp);
    let quantiles = [0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9];
    let radii: Vec<f32> = quantiles
        .iter()
        .map(|&q| sample[((sample.len() - 1) as f64 * q) as usize])
        .collect();

    println!("F3: range-search pruning vs radius, N={n}, d={DIM}\n");
    let mut table = Table::new(&[
        "quantile",
        "radius",
        "index",
        "mean-hits",
        "comps-p50",
        "comps-p95",
        "pruned-frac",
    ]);
    let kinds = [
        IndexKind::VpTree,
        IndexKind::Antipole { diameter: None },
        IndexKind::KdTree,
        IndexKind::RStar,
        IndexKind::MTree,
    ];
    let build = |kind: &IndexKind| build_index(kind, dataset.clone(), Measure::L2).expect("build");
    let scan = build(&IndexKind::Linear);
    let indexes: Vec<_> = kinds.iter().map(build).collect();
    let bits = |r: &[Neighbor]| -> Vec<(usize, u32)> {
        r.iter().map(|h| (h.id, h.distance.to_bits())).collect()
    };
    for (q, r) in quantiles.iter().zip(&radii) {
        let want = scan.range_batch(&queries, *r, &mut BatchStats::new());
        for (kind, index) in kinds.iter().zip(&indexes) {
            let mut stats = BatchStats::new();
            let replies = index.range_batch(&queries, *r, &mut stats);
            for (got, want) in replies.iter().zip(&want) {
                assert_eq!(
                    bits(got),
                    bits(want),
                    "{} range diverges from the scan at radius {r}",
                    kind.name()
                );
            }
            let hits: usize = replies.iter().map(Vec::len).sum();
            table.row(vec![
                format!("{q}"),
                format!("{r:.2}"),
                kind.name().to_string(),
                format!("{:.1}", hits as f64 / queries.len() as f64),
                stats.p50_comps().to_string(),
                stats.p95_comps().to_string(),
                format!("{:.3}", 1.0 - stats.mean_comps() / n as f64),
            ]);
        }
    }
    table.print();
    println!("\nExpected shape: pruned fraction near 1.0 at selective radii,");
    println!("collapsing toward 0 as the radius reaches the bulk of the");
    println!("distance distribution (quantile 0.5 and beyond).");
}
