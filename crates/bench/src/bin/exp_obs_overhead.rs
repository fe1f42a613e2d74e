//! **F12 — observability overhead.**
//!
//! The observability layer's contract is "bit-invisible and near-free":
//! enabling the process-wide counters must not change any query result
//! and must cost under 5% of query throughput. This experiment measures
//! both halves in-process, with no network in the way:
//!
//! - bit-identity: `knn_batch` results with counters
//!   enabled, disabled, and with every query trace-sampled are asserted
//!   equal (distances compared as bit patterns);
//! - overhead: the two modes are interleaved at engine-call granularity
//!   (the enabled flag flips every `BATCH`-query chunk, with the phase
//!   shifted each round so every chunk is timed in both modes equally
//!   often). On a shared host, frequency drift and scheduling noise
//!   operate on millisecond-and-up timescales; alternating modes every
//!   few hundred microseconds spreads that noise evenly across both
//!   accumulated totals instead of letting it land on one side. Small
//!   batches are used deliberately: the counter flush is paid once per
//!   engine call, so many small calls is the worst case.
//!
//! The enabled/disabled ratio is the acceptance gate: full mode fails
//! the run if enabled throughput drops below 95% of disabled.
//!
//! Writes `results/BENCH_obs_overhead.json`.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_obs_overhead [--quick]`

use cbir_bench::{rounded, write_results};
use cbir_core::{ImageDatabase, ImageMeta, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::BatchStats;
use cbir_obs::{obj, Json};
use cbir_workload::Pcg32;
use std::time::Instant;

const DIM: usize = 64;
const K: usize = 10;
const BATCH: usize = 16;

fn engine(n: usize, kind: IndexKind) -> QueryEngine {
    let pipeline = Pipeline::new(
        DIM as u32,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray {
            bins: DIM as u32,
        })],
    )
    .expect("static pipeline");
    let mut db = ImageDatabase::new(pipeline);
    for (i, v) in cbir_workload::histograms(n, DIM, 1.0, 42)
        .into_iter()
        .enumerate()
    {
        db.insert_descriptor(
            ImageMeta {
                name: format!("img-{i:05}"),
                label: Some((i % 7) as u32),
            },
            v,
        )
        .expect("insert descriptor");
    }
    QueryEngine::build(db, kind, Measure::L1).expect("build engine")
}

fn queries(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Pcg32::new(seed);
    cbir_workload::histograms(n, DIM, 1.0, rng.next_u32() as u64)
}

/// Mode-interleaved throughput measurement: `rounds` passes over the
/// query set in `BATCH`-sized engine calls, flipping the enabled flag
/// every chunk (phase-shifted per round). Returns
/// `(enabled q/s, disabled q/s)` from the accumulated per-mode time.
fn interleaved_qps(engine: &QueryEngine, queries: &[Vec<f32>], rounds: usize) -> (f64, f64) {
    assert!(
        rounds.is_multiple_of(2),
        "odd rounds would bias the chunk phases"
    );
    let (mut on_ns, mut off_ns) = (0u64, 0u64);
    let (mut on_q, mut off_q) = (0u64, 0u64);
    for round in 0..rounds {
        for (i, chunk) in queries.chunks(BATCH).enumerate() {
            let on = (i + round) % 2 == 0;
            cbir_obs::set_enabled(on);
            let start = Instant::now();
            let mut stats = BatchStats::new();
            let out = engine.knn_batch(chunk, K, 1, &mut stats).expect("knn");
            std::hint::black_box(&out);
            let ns = start.elapsed().as_nanos() as u64;
            if on {
                on_ns += ns;
                on_q += chunk.len() as u64;
            } else {
                off_ns += ns;
                off_q += chunk.len() as u64;
            }
        }
    }
    cbir_obs::set_enabled(true);
    (
        on_q as f64 / (on_ns as f64 / 1e9),
        off_q as f64 / (off_ns as f64 / 1e9),
    )
}

fn results_bits(engine: &QueryEngine, queries: &[Vec<f32>]) -> Vec<Vec<(usize, u32)>> {
    let mut stats = BatchStats::new();
    engine
        .knn_batch(queries, K, 1, &mut stats)
        .expect("knn")
        .into_iter()
        .map(|hits| {
            hits.into_iter()
                .map(|h| (h.id, h.distance.to_bits()))
                .collect()
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 2_000 } else { 10_000 };
    let n_queries = if quick { 256 } else { 1_024 };
    let rounds = if quick { 2 } else { 8 };

    let engines = [engine(n, IndexKind::Linear), engine(n, IndexKind::VpTree)];
    let qs = queries(n_queries, 0x0b5);

    println!("F12: observability overhead, N={n}, d={DIM}, k={K}, batch={BATCH}\n");
    println!(
        "{:<10} {:>12} {:>12} {:>8}",
        "index", "on q/s", "off q/s", "ratio"
    );

    let mut json_rows = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for eng in &engines {
        // Bit-identity across every observability mode first; timing a
        // path that changes answers would be meaningless.
        cbir_obs::set_enabled(true);
        cbir_obs::set_trace_sample_n(1);
        let traced = results_bits(eng, &qs);
        cbir_obs::set_trace_sample_n(0);
        let enabled = results_bits(eng, &qs);
        cbir_obs::set_enabled(false);
        let disabled = results_bits(eng, &qs);
        assert_eq!(enabled, disabled, "counters changed query results");
        assert_eq!(enabled, traced, "trace sampling changed query results");

        interleaved_qps(eng, &qs, 2); // warm-up
        let (on, off) = interleaved_qps(eng, &qs, rounds);
        let ratio = on / off;
        worst_ratio = worst_ratio.min(ratio);
        let name = eng.index_kind().name();
        println!("{name:<10} {on:>12.0} {off:>12.0} {ratio:>8.3}");
        json_rows.push(obj! { "index": name, "enabled_qps": rounded(on, 1),
        "disabled_qps": rounded(off, 1), "ratio": rounded(ratio, 4) });
    }

    println!("\nworst enabled/disabled ratio: {worst_ratio:.3} (gate: >= 0.95)");
    // Quick mode keeps the bit-identity assertions but neither enforces
    // the noisy reduced-size ratio nor overwrites the committed
    // full-mode numbers.
    assert!(
        quick || worst_ratio >= 0.95,
        "observability overhead gate failed: ratio {worst_ratio:.3} < 0.95"
    );
    let doc = obj! {
        "experiment": "obs_overhead", "n": n, "dim": DIM, "k": K, "batch": BATCH,
        "queries": n_queries, "rounds": rounds,
        "bit_identity": "knn results asserted identical with counters on, off, and traced",
        "gate": "enabled/disabled throughput ratio >= 0.95",
        "worst_ratio": rounded(worst_ratio, 4), "results": Json::Arr(json_rows),
    };
    write_results("obs_overhead", quick, &doc);
}
