//! **T6 — color-space quantization comparison.**
//!
//! The same corpus retrieved with histograms over different quantized
//! color spaces at comparable bin budgets, with per-image illumination
//! variation (random brightness gain) — the dominant nuisance in real
//! collections. The paper-shape claims: spaces that separate chromaticity
//! from intensity (HSV; L\*a\*b\* to a lesser degree) resist illumination
//! change better than uniform RGB, where a brightness shift moves mass
//! across all three axes; grayscale (chroma discarded) trails far behind.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_quantizers [--quick]`

use cbir_bench::Table;
use cbir_core::eval::{average_precision, mean, precision_at_k};
use cbir_core::{ImageDatabase, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_image::{Rgb, RgbImage};
use cbir_index::SearchStats;
use cbir_workload::{Corpus, CorpusSpec, Pcg32};
use std::collections::HashSet;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (classes, per_class) = if quick { (6, 15) } else { (10, 40) };

    let corpus = Corpus::generate(CorpusSpec {
        classes,
        images_per_class: per_class,
        image_size: 64,
        jitter: 0.55,
        noise: 0.05,
        seed: 777,
    });
    // Simulate illumination differences: deterministic per-image gain.
    let mut rng = Pcg32::new(0x11A7);
    let images: Vec<RgbImage> = corpus
        .images
        .iter()
        .map(|img| {
            let gain = rng.range_f32(0.55, 1.0);
            img.map(|p| {
                Rgb::new(
                    (p.r() as f32 * gain) as u8,
                    (p.g() as f32 * gain) as u8,
                    (p.b() as f32 * gain) as u8,
                )
            })
        })
        .collect();
    let queries: Vec<usize> = (0..corpus.len())
        .step_by((corpus.len() / if quick { 15 } else { 40 }).max(1))
        .collect();

    let quantizers: Vec<(&str, Quantizer)> = vec![
        ("gray-16", Quantizer::Gray { bins: 16 }),
        ("gray-64", Quantizer::Gray { bins: 64 }),
        ("rgb-2x2x2 (8)", Quantizer::UniformRgb { per_channel: 2 }),
        ("rgb-4x4x4 (64)", Quantizer::UniformRgb { per_channel: 4 }),
        ("rgb-6x6x6 (216)", Quantizer::UniformRgb { per_channel: 6 }),
        (
            "hsv-8x2x2 (32)",
            Quantizer::Hsv {
                hue: 8,
                sat: 2,
                val: 2,
            },
        ),
        (
            "hsv-16x4x4 (256)",
            Quantizer::Hsv {
                hue: 16,
                sat: 4,
                val: 4,
            },
        ),
        ("lab-4x4x4 (64)", Quantizer::Lab { l: 4, a: 4, b: 4 }),
        ("lab-5x7x7 (245)", Quantizer::lab_default()),
    ];

    println!(
        "T6: quantizer comparison (L1 over normalized histograms), {classes} classes x {per_class}, {} queries\n",
        queries.len()
    );
    let mut table = Table::new(&["quantizer", "bins", "P@10", "mAP"]);
    for (label, q) in quantizers {
        let bins = q.n_bins();
        let pipeline = Pipeline::new(64, vec![FeatureSpec::ColorHistogram(q)]).expect("pipeline");
        let mut db = ImageDatabase::new(pipeline);
        for (i, img) in images.iter().enumerate() {
            db.insert_labeled(format!("img-{i}"), corpus.labels[i] as u32, img)
                .expect("insert");
        }
        let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).expect("engine");
        let mut p10s = Vec::new();
        let mut aps = Vec::new();
        for &query in &queries {
            let mut stats = SearchStats::new();
            let hits = engine
                .query_by_id(query as u64, corpus.len() - 1, &mut stats)
                .expect("query");
            let ranked: Vec<usize> = hits.iter().map(|h| h.id).collect();
            let relevant: HashSet<usize> = corpus.relevant_to(query).into_iter().collect();
            p10s.push(precision_at_k(&ranked, &relevant, 10));
            aps.push(average_precision(&ranked, &relevant));
        }
        table.row(vec![
            label.to_string(),
            bins.to_string(),
            format!("{:.3}", mean(&p10s)),
            format!("{:.3}", mean(&aps)),
        ]);
    }
    table.print();
    println!("\nExpected shape: under illumination variation, HSV (which");
    println!("marginalizes brightness into few value bins) beats uniform RGB");
    println!("at matched bin budgets; grayscale trails badly.");
}
