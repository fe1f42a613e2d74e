//! Bit-identity contract of the extraction planner: the shared-intermediate
//! path ([`Pipeline::extract_into`]), the allocating wrappers, and the
//! parallel batch path must all reproduce the naive per-family reference
//! ([`Pipeline::extract_naive`]) to the exact `f32` bit pattern, for every
//! pipeline and every image shape — including degenerate ones — and at
//! every thread count.

use cbir_features::{ExtractScratch, FeatureSpec, Pipeline, Quantizer};
use cbir_image::{Rgb, RgbImage};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A pipeline exercising every one of the twelve feature families.
fn all_families_pipeline() -> Pipeline {
    Pipeline::new(
        64,
        vec![
            FeatureSpec::ColorHistogram(Quantizer::hsv_default()),
            FeatureSpec::ColorMoments,
            FeatureSpec::Correlogram {
                quantizer: Quantizer::rgb_compact(),
                distances: vec![1, 3],
            },
            FeatureSpec::Glcm { levels: 8 },
            FeatureSpec::Tamura,
            FeatureSpec::Wavelet { levels: 2 },
            FeatureSpec::EdgeOrientation { bins: 8 },
            FeatureSpec::EdgeDensityGrid {
                grid: 4,
                threshold: 10.0,
            },
            FeatureSpec::HuMoments,
            FeatureSpec::ShapeSummary,
            FeatureSpec::DtHistogram { bins: 16 },
            FeatureSpec::RegionShape,
        ],
    )
    .unwrap()
}

fn pipelines() -> Vec<(&'static str, Pipeline)> {
    vec![
        ("full_default", Pipeline::full_default()),
        (
            "color_histogram_default",
            Pipeline::color_histogram_default(),
        ),
        ("all_families", all_families_pipeline()),
    ]
}

/// Shapes chosen to hit the resize path, the resize-skip path (64×64 is
/// canonical for every pipeline above), non-square inputs, and degenerate
/// content (flat color → no gradients, Otsu fallback; 1×1 → minimal frame).
fn test_images() -> Vec<(&'static str, RgbImage)> {
    let checker = RgbImage::from_fn(48, 48, |x, y| {
        if (x / 8 + y / 8) % 2 == 0 {
            Rgb::new(200, 40, 40)
        } else {
            Rgb::new(40, 40, 200)
        }
    });
    let gradient = RgbImage::from_fn(100, 60, |x, y| {
        Rgb::new((x * 255 / 100) as u8, (y * 255 / 60) as u8, 128)
    });
    let canonical = RgbImage::from_fn(64, 64, |x, y| {
        Rgb::new(
            ((x * 37 + y * 11) % 256) as u8,
            ((x * 5 + y * 53) % 256) as u8,
            ((x + y * 7) % 256) as u8,
        )
    });
    let flat = RgbImage::filled(32, 32, Rgb::new(128, 128, 128));
    let tiny = RgbImage::filled(1, 1, Rgb::new(255, 0, 0));
    let edgy = RgbImage::from_fn(33, 47, |x, y| {
        if (x + y) % 2 == 0 {
            Rgb::new(255, 255, 255)
        } else {
            Rgb::new(0, 0, 0)
        }
    });
    vec![
        ("checker", checker),
        ("gradient", gradient),
        ("canonical64", canonical),
        ("flat", flat),
        ("tiny1x1", tiny),
        ("edgy", edgy),
    ]
}

#[test]
fn planner_matches_naive_reference_bitwise() {
    for (pname, p) in pipelines() {
        for (iname, img) in test_images() {
            let naive = p.extract_naive(&img).unwrap();
            let planned = p.extract(&img).unwrap();
            assert_eq!(
                bits(&naive),
                bits(&planned),
                "{pname} on {iname}: extract != extract_naive"
            );
        }
    }
}

#[test]
fn reused_scratch_matches_fresh_extraction_bitwise() {
    // One scratch across all pipelines and images, in sequence; every
    // result must match a fresh-scratch extraction of the same image.
    let mut scratch = ExtractScratch::new();
    let mut buf = Vec::new();
    for _round in 0..2 {
        for (pname, p) in pipelines() {
            for (iname, img) in test_images() {
                p.extract_into(&img, &mut scratch, &mut buf).unwrap();
                let fresh = p.extract(&img).unwrap();
                assert_eq!(
                    bits(&buf),
                    bits(&fresh),
                    "{pname} on {iname}: reused scratch diverged"
                );
            }
        }
    }
}

#[test]
fn batch_extraction_is_thread_count_invariant() {
    for (pname, p) in pipelines() {
        let images = test_images();
        let refs: Vec<&RgbImage> = images.iter().map(|(_, img)| img).collect();
        let sequential: Vec<Vec<f32>> = refs.iter().map(|img| p.extract(img).unwrap()).collect();
        for threads in [1usize, 3, 8] {
            let batched = p.extract_batch(&refs, threads).unwrap();
            assert_eq!(batched.len(), sequential.len());
            for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    bits(b),
                    bits(s),
                    "{pname}, {threads} threads, image {} ({})",
                    i,
                    images[i].0
                );
            }
        }
    }
}

#[test]
fn balanced_paths_agree_bitwise() {
    let p = Pipeline::full_default();
    let images = test_images();
    let refs: Vec<&RgbImage> = images.iter().map(|(_, img)| img).collect();
    let mut scratch = ExtractScratch::new();
    let mut buf = Vec::new();
    let sequential: Vec<Vec<f32>> = refs
        .iter()
        .map(|img| p.extract_balanced(img).unwrap())
        .collect();
    for (img, want) in refs.iter().zip(&sequential) {
        p.extract_balanced_into(img, &mut scratch, &mut buf)
            .unwrap();
        assert_eq!(bits(&buf), bits(want));
    }
    for threads in [1usize, 3, 8] {
        let batched = p.extract_balanced_batch(&refs, threads).unwrap();
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(bits(b), bits(s), "{threads} threads");
        }
    }
}

#[test]
fn batch_error_handling() {
    let p = Pipeline::full_default();
    let good = RgbImage::filled(16, 16, Rgb::new(1, 2, 3));
    let empty = RgbImage::filled(0, 0, Rgb::default());
    assert!(p.extract_batch(&[&good, &empty], 2).is_err());
    assert!(p.extract_batch(&[], 4).unwrap().is_empty());
    assert!(p.extract_batch(&[&good], 0).is_err());
    // More threads than images is fine.
    let out = p.extract_batch(&[&good], 16).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(bits(&out[0]), bits(&p.extract(&good).unwrap()));
}

/// What the planner shares, counted: over `full_default` on seeded
/// 128-px images (so the resize runs), every shared stage computes once
/// per image (per quantizer for the bin planes) and answers each further
/// family that demands it from the cache. This is the mechanism behind
/// T1b's planner-over-naive ratio (`exp_extraction_throughput`), which
/// is reported, not gated.
#[test]
fn every_shared_stage_computes_once_per_image() {
    use cbir_obs::Stage;
    let corpus = cbir_workload::Corpus::generate(cbir_workload::CorpusSpec {
        classes: 6,
        images_per_class: 1,
        image_size: 128,
        ..Default::default()
    });
    let pipeline = Pipeline::full_default();
    let registry = cbir_obs::Registry::new();
    registry.enter(|| {
        for img in &corpus.images {
            pipeline.extract(img).unwrap();
        }
    });
    let n = corpus.images.len() as u64;
    // (stage, computes per image, demands per image): the frame (resize,
    // grayscale); two quantizers (colour histogram, correlogram); the
    // Sobel field for Tamura; its magnitude/orientation plane for Tamura,
    // the orientation histogram and, through the normalized magnitude,
    // the edge-density grid; the mask for the Hu moments (through their
    // moments) and the region labelling; the moments for Hu and the
    // shape summary; the integral image for Tamura.
    let demands = [
        (Stage::Resize, 1, 1),
        (Stage::Grayscale, 1, 1),
        (Stage::Quantize, 2, 2),
        (Stage::Sobel, 1, 1),
        (Stage::MagOri, 1, 3),
        (Stage::MagNorm, 1, 1),
        (Stage::Mask, 1, 2),
        (Stage::Moments, 1, 2),
        (Stage::Integral, 1, 1),
        (Stage::Sdt, 0, 0),
    ];
    let stages = registry.snapshot().stages;
    for (stage, computes, demanded) in demands {
        let s = &stages[stage as usize];
        assert_eq!(
            (s.misses, s.hits),
            (n * computes, n * (demanded - computes)),
            "{}: (computes, cache hits) over {n} images",
            stage.name()
        );
    }
}
