//! Trademark-style shape retrieval: find marks with similar silhouettes
//! regardless of color — the classic early application of shape-based image
//! indexing.
//!
//! Uses a shape-heavy pipeline (Hu invariants, shape summary, edge
//! orientation, distance-transform histogram) and compares it against a
//! color-only pipeline on a corpus whose classes differ mainly by shape.
//!
//! Run with: `cargo run --release --example trademark_search`

use cbir::core::eval::{average_precision, mean};
use cbir::image::color::{hsv_to_rgb, Hsv};
use cbir::image::RgbImage;
use cbir::workload::{Pcg32, Shape};
use cbir::{FeatureSpec, ImageDatabase, IndexKind, Measure, Pipeline, QueryEngine, SearchStats};
use std::collections::HashSet;

const CLASSES: usize = 6;
const PER_CLASS: usize = 15;
const SIZE: u32 = 64;

/// Render a "trademark": one shape family per class, random ink/paper hues
/// per image (so color is a nuisance variable, not a signal).
fn render_mark(class: usize, instance: usize) -> RgbImage {
    let mut rng = Pcg32::with_stream(0x7247_de3a, (class * 1000 + instance) as u64);
    // Class-defining silhouette (deterministic per class, jittered per
    // instance).
    let mut class_rng = Pcg32::with_stream(0x7247_de3a, class as u64);
    let template = match class % 4 {
        0 => Shape::Disc {
            cx: 0.5,
            cy: 0.5,
            r: 0.28,
        },
        1 => Shape::Rectangle {
            cx: 0.5,
            cy: 0.5,
            hw: 0.3,
            hh: 0.12,
            angle: class_rng.range_f32(0.0, 1.5),
        },
        2 => Shape::Polygon {
            cx: 0.5,
            cy: 0.5,
            r: 0.3,
            sides: 3 + (class % 3) as u32,
            angle: class_rng.range_f32(0.0, 1.0),
        },
        _ => Shape::Ring {
            cx: 0.5,
            cy: 0.5,
            outer: 0.3,
            inner: 0.17,
        },
    };
    let shape = template.jitter(&mut rng, 0.6);
    // Random, class-uninformative colors.
    let ink = hsv_to_rgb(Hsv {
        h: rng.range_f32(0.0, 360.0),
        s: rng.range_f32(0.6, 1.0),
        v: rng.range_f32(0.25, 0.5),
    });
    let paper = hsv_to_rgb(Hsv {
        h: rng.range_f32(0.0, 360.0),
        s: rng.range_f32(0.0, 0.3),
        v: rng.range_f32(0.85, 1.0),
    });
    RgbImage::from_fn(SIZE, SIZE, |x, y| {
        let ux = (x as f32 + 0.5) / SIZE as f32;
        let uy = (y as f32 + 0.5) / SIZE as f32;
        if shape.contains(ux, uy) {
            ink
        } else {
            paper
        }
    })
}

fn shape_pipeline() -> Pipeline {
    Pipeline::new(
        64,
        vec![
            FeatureSpec::HuMoments,
            FeatureSpec::ShapeSummary,
            FeatureSpec::EdgeOrientation { bins: 16 },
            FeatureSpec::DtHistogram { bins: 16 },
        ],
    )
    .expect("static pipeline")
}

fn evaluate(pipeline: Pipeline, label: &str) -> Result<f64, Box<dyn std::error::Error>> {
    let mut db = ImageDatabase::new(pipeline);
    for class in 0..CLASSES {
        for instance in 0..PER_CLASS {
            db.insert_labeled(
                format!("mark-{class}-{instance}"),
                class as u32,
                &render_mark(class, instance),
            )?;
        }
    }
    let engine = QueryEngine::build(db, IndexKind::VpTree, Measure::L1)?;
    let mut aps = Vec::new();
    for query in 0..CLASSES * PER_CLASS {
        let mut stats = SearchStats::new();
        let hits = engine.query_by_id(query as u64, CLASSES * PER_CLASS - 1, &mut stats)?;
        let ranked: Vec<usize> = hits.iter().map(|h| h.id).collect();
        let relevant: HashSet<usize> = (0..CLASSES * PER_CLASS)
            .filter(|&i| i != query && i / PER_CLASS == query / PER_CLASS)
            .collect();
        aps.push(average_precision(&ranked, &relevant));
    }
    let map = mean(&aps);
    println!("{label:<24} mAP = {map:.3}");
    Ok(map)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "trademark retrieval: {CLASSES} shape classes x {PER_CLASS} marks, colors randomized\n"
    );
    let shape_map = evaluate(shape_pipeline(), "shape features")?;
    let color_map = evaluate(Pipeline::color_histogram_default(), "color histogram")?;
    let chance = (PER_CLASS - 1) as f64 / (CLASSES * PER_CLASS - 1) as f64;
    println!("{:<24} mAP = {chance:.3}", "(chance)");
    println!(
        "\nshape features {} color histograms on shape-defined classes.",
        if shape_map > color_map {
            "beat"
        } else {
            "did NOT beat"
        }
    );
    Ok(())
}
