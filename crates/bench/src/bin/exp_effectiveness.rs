//! **T2 — retrieval effectiveness per feature family** (and **F6** — the
//! precision-recall curves, with `--pr`).
//!
//! Each feature family retrieves over the same class-structured corpus;
//! effectiveness is scored against class ground truth (P@10, P@25,
//! recall@50, mAP). The paper-shape claims: color histograms dominate on a
//! color-structured corpus; the correlogram adds spatial discrimination;
//! combining families beats any single one.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_effectiveness [--quick] [--pr]`

use cbir_bench::Table;
use cbir_core::eval::{
    average_precision, eleven_point_precision, mean, precision_at_k, recall_at_k,
};
use cbir_core::{ImageDatabase, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::SearchStats;
use cbir_workload::{Corpus, CorpusSpec};
use std::collections::HashSet;

fn family_lineup() -> Vec<(&'static str, Vec<FeatureSpec>)> {
    vec![
        (
            "color-hist",
            vec![FeatureSpec::ColorHistogram(Quantizer::hsv_default())],
        ),
        ("color-moments", vec![FeatureSpec::ColorMoments]),
        (
            "correlogram",
            vec![FeatureSpec::Correlogram {
                quantizer: Quantizer::rgb_compact(),
                distances: vec![1, 3, 5, 7],
            }],
        ),
        (
            "texture (glcm+tamura)",
            vec![FeatureSpec::Glcm { levels: 16 }, FeatureSpec::Tamura],
        ),
        ("wavelet", vec![FeatureSpec::Wavelet { levels: 3 }]),
        (
            "edges (orient+grid)",
            vec![
                FeatureSpec::EdgeOrientation { bins: 16 },
                FeatureSpec::EdgeDensityGrid {
                    grid: 4,
                    threshold: 10.0,
                },
            ],
        ),
        (
            "shape (hu+summary)",
            vec![FeatureSpec::HuMoments, FeatureSpec::ShapeSummary],
        ),
        ("combined (all)", Pipeline::full_default().specs().to_vec()),
    ]
}

struct Scores {
    p10: f64,
    p25: f64,
    r50: f64,
    map: f64,
    eleven: [f64; 11],
}

fn evaluate(corpus: &Corpus, specs: Vec<FeatureSpec>, queries: &[usize]) -> Scores {
    let pipeline = Pipeline::new(64, specs).expect("valid spec set");
    let mut db = ImageDatabase::new(pipeline);
    for (i, img) in corpus.images.iter().enumerate() {
        db.insert_labeled(format!("img-{i}"), corpus.labels[i] as u32, img)
            .expect("insert");
    }
    let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).expect("engine");

    let mut p10s = Vec::new();
    let mut p25s = Vec::new();
    let mut r50s = Vec::new();
    let mut aps = Vec::new();
    let mut eleven_acc = [0.0f64; 11];
    for &query in queries {
        let mut stats = SearchStats::new();
        let hits = engine
            .query_by_id(query as u64, corpus.len() - 1, &mut stats)
            .expect("query");
        let ranked: Vec<usize> = hits.iter().map(|h| h.id).collect();
        let relevant: HashSet<usize> = corpus.relevant_to(query).into_iter().collect();
        p10s.push(precision_at_k(&ranked, &relevant, 10));
        p25s.push(precision_at_k(&ranked, &relevant, 25));
        r50s.push(recall_at_k(&ranked, &relevant, 50));
        aps.push(average_precision(&ranked, &relevant));
        for (acc, p) in eleven_acc
            .iter_mut()
            .zip(eleven_point_precision(&ranked, &relevant))
        {
            *acc += p;
        }
    }
    for acc in &mut eleven_acc {
        *acc /= queries.len() as f64;
    }
    Scores {
        p10: mean(&p10s),
        p25: mean(&p25s),
        r50: mean(&r50s),
        map: mean(&aps),
        eleven: eleven_acc,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let show_pr = std::env::args().any(|a| a == "--pr");
    let (classes, per_class) = if quick { (6, 20) } else { (10, 60) };

    let corpus = Corpus::generate(CorpusSpec {
        classes,
        images_per_class: per_class,
        image_size: 64,
        jitter: 0.55,
        noise: 0.05,
        seed: 20260705,
    });
    let queries: Vec<usize> = (0..corpus.len())
        .step_by((corpus.len() / if quick { 18 } else { 50 }).max(1))
        .collect();
    let chance_p10 = (per_class - 1) as f64 / (corpus.len() - 1) as f64;

    println!(
        "T2: retrieval effectiveness per feature family, {classes} classes x {per_class} images, {} queries",
        queries.len()
    );
    println!("chance P@10 = {chance_p10:.3}\n");

    let mut table = Table::new(&["feature family", "P@10", "P@25", "R@50", "mAP"]);
    let mut curves = Vec::new();
    for (label, specs) in family_lineup() {
        let s = evaluate(&corpus, specs, &queries);
        table.row(vec![
            label.to_string(),
            format!("{:.3}", s.p10),
            format!("{:.3}", s.p25),
            format!("{:.3}", s.r50),
            format!("{:.3}", s.map),
        ]);
        curves.push((label, s.eleven));
    }
    table.print();
    println!("\nExpected shape: every family beats chance decisively; the");
    println!("families aligned with how the corpus defines classes (color,");
    println!("texture) rank at the top; the combined signature is at or near");
    println!("the top; shape alone is weakest (classes share shape families).");

    if show_pr {
        println!("\nF6: 11-point interpolated precision-recall curves\n");
        let mut pr = Table::new(&[
            "recall", "0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1.0",
        ]);
        for (label, eleven) in &curves {
            let mut cells = vec![label.to_string()];
            cells.extend(eleven.iter().map(|p| format!("{p:.2}")));
            pr.row(cells);
        }
        pr.print();
    }
}
