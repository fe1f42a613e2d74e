//! **T1b — shared-intermediate extraction throughput.**
//!
//! The extraction planner ([`cbir_features::ExtractContext`]) computes
//! every shared intermediate (canonical resize, grayscale, Sobel field,
//! quantizer plane, foreground mask, salience DT, integral image) exactly
//! once per image and reuses an [`cbir_features::ExtractScratch`] across
//! images, so steady-state extraction allocates nothing. This experiment
//! measures what that buys: median per-image latency of the naive
//! per-family reference path (`Pipeline::extract_naive`) vs. the planner
//! with a reused scratch (`Pipeline::extract_into`), plus parallel batch
//! throughput (`Pipeline::extract_batch`) at 1 and all-core threads,
//! swept over canonical sizes 64 / 128 / 256.
//!
//! Before any timing, every path — naive, planner (fresh and reused
//! scratch), and batch at both thread counts — is asserted bit-identical
//! on every source image. At canonical 64 (the paper's operating point)
//! the full run asserts the planner is at least **2×** faster than the
//! naive path.
//!
//! Writes `results/BENCH_extraction_throughput.json`.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_extraction_throughput [--quick]`

use cbir_bench::{fmt_ms, rounded, time_median, write_results, Table};
use cbir_features::{ExtractScratch, FeatureSpec, Pipeline, Quantizer};
use cbir_image::RgbImage;
use cbir_obs::{obj, Json};
use cbir_workload::{Corpus, CorpusSpec};
use std::time::Duration;

/// The `Pipeline::full_default` spec lineup at an arbitrary canonical size.
fn full_pipeline(canonical: u32) -> Pipeline {
    Pipeline::new(
        canonical,
        vec![
            FeatureSpec::ColorHistogram(Quantizer::hsv_default()),
            FeatureSpec::Correlogram {
                quantizer: Quantizer::rgb_compact(),
                distances: vec![1, 3, 5, 7],
            },
            FeatureSpec::Glcm { levels: 16 },
            FeatureSpec::Tamura,
            FeatureSpec::Wavelet { levels: 3 },
            FeatureSpec::EdgeOrientation { bins: 16 },
            FeatureSpec::EdgeDensityGrid {
                grid: 4,
                threshold: 10.0,
            },
            FeatureSpec::HuMoments,
            FeatureSpec::ShapeSummary,
            FeatureSpec::RegionShape,
        ],
    )
    .expect("static pipeline")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn per_image(total: Duration, n: usize) -> Duration {
    total / n as u32
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[u32] = if quick { &[64] } else { &[64, 128, 256] };
    let n_images: usize = if quick { 4 } else { 8 };
    let iters = if quick { 1 } else { 5 };
    let max_threads = std::thread::available_parallelism().map_or(1, |t| t.get());

    println!(
        "T1b: naive per-family extraction vs shared-intermediate planner, \
         {n_images} images/size, full_default spec lineup\n"
    );
    let mut table = Table::new(&[
        "canonical",
        "naive ms/img",
        "planner ms/img",
        "speedup",
        "batch@1T ms/img",
        "batch@maxT ms/img",
    ]);
    let mut json_rows = Vec::new();
    let mut speedup_at_64 = 0.0f64;

    for &canonical in sizes {
        let pipeline = full_pipeline(canonical);
        // Source images 1.5x the canonical edge so the resize stage does
        // real work, like ingest of externally sized images would.
        let corpus = Corpus::generate(CorpusSpec {
            classes: 4,
            images_per_class: n_images.div_ceil(4),
            image_size: canonical * 3 / 2,
            ..Default::default()
        });
        let images: Vec<RgbImage> = corpus.images.into_iter().take(n_images).collect();
        let refs: Vec<&RgbImage> = images.iter().collect();

        // Exactness first: every path must reproduce the naive per-family
        // reference bit-for-bit before its speed means anything.
        let naive_out: Vec<Vec<f32>> = refs
            .iter()
            .map(|img| pipeline.extract_naive(img).expect("naive extraction"))
            .collect();
        let mut scratch = ExtractScratch::new();
        let mut buf = Vec::new();
        for (img, want) in refs.iter().zip(&naive_out) {
            let fresh = pipeline.extract(img).expect("planner extraction");
            assert_eq!(
                bits(&fresh),
                bits(want),
                "canonical {canonical}: extract diverges from extract_naive"
            );
            pipeline
                .extract_into(img, &mut scratch, &mut buf)
                .expect("planner extraction (reused scratch)");
            assert_eq!(
                bits(&buf),
                bits(want),
                "canonical {canonical}: reused scratch diverges from extract_naive"
            );
        }
        for threads in [1, max_threads] {
            let batched = pipeline.extract_batch(&refs, threads).expect("batch");
            for (got, want) in batched.iter().zip(&naive_out) {
                assert_eq!(
                    bits(got),
                    bits(want),
                    "canonical {canonical}: extract_batch@{threads} diverges"
                );
            }
        }

        // Warm the scratch to its high-water mark, then time.
        let naive = per_image(
            time_median(iters, || {
                for img in &refs {
                    std::hint::black_box(pipeline.extract_naive(img).unwrap());
                }
            }),
            refs.len(),
        );
        let planner = per_image(
            time_median(iters, || {
                for img in &refs {
                    pipeline.extract_into(img, &mut scratch, &mut buf).unwrap();
                    std::hint::black_box(&buf);
                }
            }),
            refs.len(),
        );
        let batch_1 = per_image(
            time_median(iters, || {
                std::hint::black_box(pipeline.extract_batch(&refs, 1).unwrap());
            }),
            refs.len(),
        );
        let batch_max = per_image(
            time_median(iters, || {
                std::hint::black_box(pipeline.extract_batch(&refs, max_threads).unwrap());
            }),
            refs.len(),
        );

        let speedup = naive.as_secs_f64() / planner.as_secs_f64();
        if canonical == 64 {
            speedup_at_64 = speedup;
        }
        table.row(vec![
            canonical.to_string(),
            fmt_ms(naive),
            fmt_ms(planner),
            format!("{speedup:.2}x"),
            fmt_ms(batch_1),
            fmt_ms(batch_max),
        ]);
        let ms = |d: Duration| rounded(d.as_secs_f64() * 1e3, 3);
        json_rows.push(obj! {
            "canonical": canonical, "naive_ms": ms(naive), "planner_ms": ms(planner),
            "speedup": rounded(speedup, 2), "batch_1t_ms": ms(batch_1),
            "batch_maxt_ms": ms(batch_max),
        });
    }

    table.print();
    println!("\nExpected shape: the planner beats the naive path by sharing the");
    println!("resize, grayscale, Sobel field, quantizer plane, mask, and DT");
    println!("across families instead of recomputing them per family; batch at");
    println!("max threads divides per-image latency by ~core count on top.");

    if !quick {
        assert!(
            speedup_at_64 >= 2.0,
            "planner speedup at canonical 64 is {speedup_at_64:.2}x, expected >= 2x"
        );
        println!("\nspeedup at canonical 64: {speedup_at_64:.2}x (>= 2x requirement holds)");
    }

    // Quick mode exists for the bit-identity assertions; it never
    // clobbers committed full-mode numbers with 1-iteration timings.
    let doc = obj! {
        "experiment": "extraction_throughput", "images_per_size": n_images, "iters": iters,
        "max_threads": max_threads,
        "exactness": "planner, reused-scratch, and batch paths asserted bit-identical to \
                      extract_naive",
        "results": Json::Arr(json_rows),
    };
    println!();
    write_results("extraction_throughput", quick, &doc);
}
