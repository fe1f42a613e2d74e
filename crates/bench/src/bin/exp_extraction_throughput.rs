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
//! on every source image. The planner-over-naive ratio is reported, not
//! gated: what buys it, each shared stage computed once per image and
//! reused by every other family that demands it, is counted in
//! `cargo test` (`cbir-features`' `extraction_equivalence.rs`,
//! `every_shared_stage_computes_once_per_image`).
//!
//! Before that, the lane-shaped kernels whose input domain is finite are
//! held to their scalar references over the whole domain: the HSV bin
//! plane ([`Quantizer::quantize_into`]) against [`Quantizer::bin_of`] for
//! all 2²⁴ colours, and the orientation bins
//! ([`cbir_image::ops::orientation_bins_into`]) against `atan2` for every
//! Sobel gradient pair in `[-1020, 1020]²`, at a spread of bin counts
//! (`--quick`) or all of `2..=256` (full run), and the resize's integer
//! interpolation ([`cbir_image::ops::bilinear_sample_dyadic`]) against its
//! `f64` one ([`cbir_image::ops::bilinear_sample`]) for every byte pair
//! and every weight `m/256`, along either axis.
//!
//! A second table explains where the planner's time goes at the
//! benchmark's shape (`image_pipeline`: 128×128 sources, canonical 64):
//! per-family wall time inside the pipeline (including any shared stage
//! the family demanded first), the same minus those stage computes, and
//! the obs shared-stage times with their computes per image (the shape
//! families share the mask and its `moments`; the labelling has one
//! reader, so it is RegionShape's own time).
//!
//! Writes `results/BENCH_extraction_throughput.json`.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_extraction_throughput [--quick]`

use cbir_bench::{fmt_ms, rounded, time_median, write_results, Table};
use cbir_features::{ExtractContext, ExtractScratch, FeatureSpec, Pipeline, Quantizer};
use cbir_image::ops::{
    bilinear_sample, bilinear_sample_dyadic, orientation_bin, orientation_bins_into,
};
use cbir_image::{FloatImage, Rgb, RgbImage};
use cbir_obs::{obj, Json};
use cbir_workload::{Corpus, CorpusSpec};
use std::time::{Duration, Instant};

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

/// The finite-domain kernels against their scalar references over the
/// whole domain; returns how many inputs were compared, as a document.
fn exhaustive_checks(quick: bool) -> Json {
    let t = Instant::now();
    let q = Quantizer::hsv_default();
    let (mut pixels, mut plane) = (Vec::with_capacity(1 << 16), Vec::new());
    for r in 0..=255u8 {
        pixels.clear();
        pixels.extend((0..=u16::MAX).map(|gb| Rgb::new(r, (gb >> 8) as u8, gb as u8)));
        q.quantize_into(&pixels, &mut plane);
        for (&p, &bin) in pixels.iter().zip(&plane) {
            assert_eq!(bin as usize, q.bin_of(p), "HSV bin of {p:?}");
        }
    }
    let hsv_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let side = 2041u32;
    let component = |i: u32| i as f32 - 1020.0;
    let gx = FloatImage::from_fn(side, side, |x, _| component(x));
    let gy = FloatImage::from_fn(side, side, |_, y| component(y));
    let bin_counts: Vec<usize> = if quick {
        vec![2, 3, 16, 17, 256]
    } else {
        (2..=256).collect()
    };
    let mut bins = Vec::new();
    for &n in &bin_counts {
        orientation_bins_into(&gx, &gy, n, &mut bins);
        for ((&b, x), y) in bins.iter().zip(gx.pixels()).zip(gy.pixels()) {
            assert_eq!(
                b as usize,
                orientation_bin(x, y, n),
                "({x}, {y}) at {n} bins"
            );
        }
    }
    let orientation_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (a, b) in (0..=255u8).flat_map(|a| (0..=255u8).map(move |b| (a, b))) {
        for m in 0..256u16 {
            let f = f64::from(m) / 256.0;
            for (taps, wx, wy, fx, fy) in
                [([a, b, a, b], m, 0, f, 0.0), ([a, a, b, b], 0, m, 0.0, f)]
            {
                assert_eq!(
                    bilinear_sample_dyadic(taps, wx, wy),
                    bilinear_sample(taps, fx, fy),
                    "{a} to {b} at weight {m}/256 (wx {wx}, wy {wy})"
                );
            }
        }
    }
    let resize_s = t.elapsed().as_secs_f64();
    println!(
        "exhaustive: HSV bins of all 2^24 colours ({hsv_s:.2} s); orientation bins of all \
         {} Sobel gradients at {} bin counts ({orientation_s:.2} s); integer resize \
         interpolation of all 2^16 byte pairs at all 256 weights per axis ({resize_s:.2} s) \
         — all equal to the scalar references\n",
        side * side,
        bin_counts.len()
    );
    obj! {
        "hsv_colours": 1u64 << 24, "sobel_gradients": side * side,
        "orientation_bin_counts": bin_counts.len(), "resize_byte_pairs": 1u32 << 16,
        "resize_weights": 256u32,
    }
}

/// Nanoseconds the obs registry has charged to shared-stage computes.
fn stage_nanos() -> u64 {
    cbir_obs::snapshot().stages.iter().map(|s| s.nanos).sum()
}

/// Where `full_default`'s time goes on `images` (the benchmark's shape):
/// the frame (resize + grayscale, [`ExtractContext::new`]), each family's
/// wall time as the planner runs it, and the obs shared-stage times, all
/// in µs per image, summed over `iters` passes after one warm-up pass.
fn family_breakdown(images: &[RgbImage], iters: usize) -> Json {
    let pipeline = Pipeline::full_default();
    let (specs, layout) = (pipeline.specs(), pipeline.layout());
    let mut scratch = ExtractScratch::new();
    let mut out = vec![0.0f32; pipeline.dim()];
    let mut frame = Duration::ZERO;
    let mut wall = vec![Duration::ZERO; specs.len()];
    let mut stages_ns = vec![0u64; specs.len()];
    for pass in 0..=iters {
        if pass == 1 {
            // The warm-up pass sized the scratch; count from here.
            cbir_obs::reset();
            frame = Duration::ZERO;
            wall.fill(Duration::ZERO);
            stages_ns.fill(0);
        }
        for img in images {
            let t = Instant::now();
            let mut ctx =
                ExtractContext::new(img, &mut scratch, pipeline.canonical_size()).expect("frame");
            frame += t.elapsed();
            for (i, (spec, seg)) in specs.iter().zip(&layout).enumerate() {
                let before = stage_nanos();
                let t = Instant::now();
                ctx.feature(spec, &mut out[seg.start..seg.end])
                    .expect("family");
                wall[i] += t.elapsed();
                stages_ns[i] += stage_nanos() - before;
            }
        }
    }
    let n = (iters * images.len()) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
    let mut table = Table::new(&["family", "wall us/img", "own us/img"]);
    table.row(vec![
        "frame".into(),
        format!("{:.1}", us(frame)),
        "-".into(),
    ]);
    let mut families = Vec::new();
    for ((spec, w), ns) in specs.iter().zip(&wall).zip(&stages_ns) {
        let own = (us(*w) - *ns as f64 / 1e3 / n).max(0.0);
        let name = format!("{:?}", spec.kind());
        table.row(vec![
            name.clone(),
            format!("{:.1}", us(*w)),
            format!("{own:.1}"),
        ]);
        families.push(obj! {
            "family": name.as_str(), "wall_us": rounded(us(*w), 1), "own_us": rounded(own, 1),
        });
    }
    let total = frame + wall.iter().sum::<Duration>();
    table.row(vec![
        "total".into(),
        format!("{:.1}", us(total)),
        "-".into(),
    ]);
    let mut stage_table = Table::new(&["stage", "us/img", "computes/img"]);
    let mut stages = Vec::new();
    for s in cbir_obs::snapshot().stages {
        let per = s.nanos as f64 / 1e3 / n;
        stage_table.row(vec![
            s.stage.into(),
            format!("{per:.1}"),
            format!("{:.2}", s.misses as f64 / n),
        ]);
        stages.push(obj! {
            "stage": s.stage, "us": rounded(per, 1),
            "computes_per_image": rounded(s.misses as f64 / n, 2),
        });
    }
    println!(
        "\nWhere the time goes: full_default, {} images of 128x128 -> canonical 64, \
         one thread, {iters} passes.\n'wall' includes any shared stage the family demanded \
         first; 'own' subtracts those stage computes.\n",
        images.len()
    );
    table.print();
    println!();
    stage_table.print();
    obj! {
        "source_px": 128u32, "canonical": pipeline.canonical_size(), "images": images.len(),
        "passes": iters, "frame_us": rounded(us(frame), 1), "total_us": rounded(us(total), 1),
        "families": Json::Arr(families), "shared_stages": Json::Arr(stages),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[u32] = if quick { &[64] } else { &[64, 128, 256] };
    let n_images: usize = if quick { 4 } else { 8 };
    let iters = if quick { 1 } else { 5 };
    let max_threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let exhaustive = exhaustive_checks(quick);

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
    // One image from each of 24 classes: content (foreground size,
    // texture) moves several families' cost, so a few classes mislead.
    let benchmark_shape = Corpus::generate(CorpusSpec {
        classes: 24,
        images_per_class: 1,
        image_size: 128,
        ..Default::default()
    });
    let breakdown = family_breakdown(&benchmark_shape.images, if quick { 1 } else { 10 });
    println!("\nExpected shape: the planner beats the naive path by sharing the");
    println!("resize, grayscale, Sobel field, quantizer plane, mask, and DT");
    println!("across families instead of recomputing them per family; batch at");
    println!("max threads divides per-image latency by ~core count on top.");

    // Quick mode exists for the bit-identity assertions; it never
    // clobbers committed full-mode numbers with 1-iteration timings.
    let doc = obj! {
        "experiment": "extraction_throughput", "images_per_size": n_images, "iters": iters,
        "max_threads": max_threads,
        "exactness": "planner, reused-scratch, and batch paths asserted bit-identical to \
                      extract_naive",
        "exhaustive": exhaustive, "results": Json::Arr(json_rows),
        "breakdown_at_benchmark_shape": breakdown,
    };
    println!();
    write_results("extraction_throughput", quick, &doc);
}
