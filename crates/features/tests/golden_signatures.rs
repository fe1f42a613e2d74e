//! Golden-signature regression tests.
//!
//! Every feature family is extracted over a small seeded [`Corpus`] and
//! the resulting vectors are hashed (FNV-1a over the exact `f32` bit
//! patterns, dimensions included). The hashes below are committed; any
//! change to extraction arithmetic — intended or not — flips a hash and
//! fails the matching family by name. On an intended change, rerun with
//! `--nocapture`: the test prints the replacement table ready to paste.

use cbir_features::{ExtractScratch, FeatureSpec, Pipeline, Quantizer};
use cbir_workload::{Corpus, CorpusSpec};

/// FNV-1a, 64-bit. Stable, dependency-free, and sensitive to every bit
/// of every component — exactly what a golden signature needs.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
}

/// The corpus every family is hashed against. Small enough to extract
/// twelve families in well under a second, varied enough (two classes,
/// jitter, noise) that a regression anywhere in the pipeline shows up.
fn corpus() -> Corpus {
    Corpus::generate(CorpusSpec {
        classes: 2,
        images_per_class: 3,
        image_size: 48,
        jitter: 0.5,
        noise: 0.05,
        seed: 0x5eed,
    })
}

/// One single-family pipeline per feature family, named for the failure
/// message.
fn families() -> Vec<(&'static str, FeatureSpec)> {
    vec![
        (
            "color_histogram",
            FeatureSpec::ColorHistogram(Quantizer::hsv_default()),
        ),
        ("color_moments", FeatureSpec::ColorMoments),
        (
            "correlogram",
            FeatureSpec::Correlogram {
                quantizer: Quantizer::rgb_compact(),
                distances: vec![1, 3],
            },
        ),
        ("glcm", FeatureSpec::Glcm { levels: 8 }),
        ("tamura", FeatureSpec::Tamura),
        ("wavelet", FeatureSpec::Wavelet { levels: 2 }),
        ("edge_orientation", FeatureSpec::EdgeOrientation { bins: 8 }),
        (
            "edge_density_grid",
            FeatureSpec::EdgeDensityGrid {
                grid: 4,
                threshold: 10.0,
            },
        ),
        ("hu_moments", FeatureSpec::HuMoments),
        ("shape_summary", FeatureSpec::ShapeSummary),
        ("dt_histogram", FeatureSpec::DtHistogram { bins: 16 }),
        ("region_shape", FeatureSpec::RegionShape),
    ]
}

/// Committed golden hashes, one per family, over the corpus above.
const GOLDEN: &[(&str, u64)] = &[
    ("color_histogram", 0x360abf02dbb3bebe),
    ("color_moments", 0x2996d5a57ebab391),
    ("correlogram", 0x1cd3cb7737488bb4),
    ("glcm", 0xa589f5153d5aa566),
    ("tamura", 0x8ee6d6220c5b6263),
    ("wavelet", 0x112929553a6789c5),
    ("edge_orientation", 0xd09373c22822aaf3),
    ("edge_density_grid", 0x554df0cb0616fa7c),
    ("hu_moments", 0x9bba6c7ed203a4d8),
    ("shape_summary", 0x0d4bfee7b29363f7),
    ("dt_histogram", 0xec58a44e184cec60),
    ("region_shape", 0xced2af48b5656772),
];

fn family_hash(spec: FeatureSpec, corpus: &Corpus) -> u64 {
    let pipeline = Pipeline::new(64, vec![spec]).expect("single-family pipeline");
    let mut h = Fnv1a::new();
    for img in &corpus.images {
        let v = pipeline.extract(img).expect("extraction");
        h.write_u32(v.len() as u32);
        for x in &v {
            h.write_u32(x.to_bits());
        }
    }
    h.0
}

#[test]
fn per_family_signatures_match_committed_hashes() {
    let corpus = corpus();
    let mut mismatches = Vec::new();
    for (name, spec) in families() {
        let got = family_hash(spec, &corpus);
        let want = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden hash committed for {name}"))
            .1;
        if got != want {
            mismatches.push((name, got, want));
        }
    }
    if !mismatches.is_empty() {
        eprintln!("golden signature mismatches — replacement table:");
        for (name, got, _) in &mismatches {
            eprintln!("    ({name:?}, {got:#018x}),");
        }
        let list: Vec<String> = mismatches
            .iter()
            .map(|(n, got, want)| format!("{n}: got {got:#018x}, committed {want:#018x}"))
            .collect();
        panic!("feature extraction changed for: {}", list.join("; "));
    }
}

/// The benchmark's shape: `full_default` (64-pixel canonical frame,
/// correlogram distances [1, 3, 5, 7], 16 GLCM levels, 16 orientation
/// bins) over seeded 128×128 images, so every image takes the 2:1
/// downscale the `image_pipeline` workload ingests through.
fn benchmark_corpus() -> Corpus {
    Corpus::generate(CorpusSpec {
        classes: 6,
        images_per_class: 2,
        image_size: 128,
        seed: 0x1ce5,
        ..CorpusSpec::default()
    })
}

/// Per-family hashes of `full_default` over [`benchmark_corpus`], taken at
/// the parent commit of the lane-shaped extraction kernels (PR 22) and
/// never re-pasted since: `(family, extract_balanced_into through one
/// reused scratch, extract_naive)`.
const GOLDEN_BENCHMARK_SHAPE: &[(&str, u64, u64)] = &[
    ("ColorHistogram", 0x08240efb6c84ad1c, 0x08240efb6c84ad1c),
    ("Correlogram", 0x3e392a30363a409e, 0xa8d01b816ac872d0),
    ("Glcm", 0xd15d1c3e250b956e, 0xe46a8a61c44a9323),
    ("Tamura", 0xb7565502d51a8ff5, 0x5fb0ad42a797e688),
    ("Wavelet", 0x3a7edf799111fae7, 0x765621ec9731dd56),
    ("EdgeOrientation", 0xee43822af75c87dd, 0x43a2574f5dd9ce7b),
    ("EdgeDensityGrid", 0xbf7b2892528c1943, 0xc56b2313a4398df3),
    ("HuMoments", 0x95a8c14eed4b62bc, 0x0fd697ac6a333c91),
    ("ShapeSummary", 0xc5f075210c0642d4, 0x27d86b362c339512),
    ("RegionShape", 0x2b97e18ca87e42d2, 0x7f2cfbbf759d5909),
];

#[test]
fn benchmark_shape_signatures_match_the_parent_commit() {
    let pipeline = Pipeline::full_default();
    let layout = pipeline.layout();
    let corpus = benchmark_corpus();
    let mut balanced: Vec<Fnv1a> = layout.iter().map(|_| Fnv1a::new()).collect();
    let mut naive: Vec<Fnv1a> = layout.iter().map(|_| Fnv1a::new()).collect();
    let (mut scratch, mut out) = (ExtractScratch::new(), Vec::new());
    for img in &corpus.images {
        pipeline
            .extract_balanced_into(img, &mut scratch, &mut out)
            .expect("balanced extraction");
        let reference = pipeline.extract_naive(img).expect("naive extraction");
        for (seg, (b, n)) in layout.iter().zip(balanced.iter_mut().zip(&mut naive)) {
            for (h, v) in [(b, &out), (n, &reference)] {
                for x in &v[seg.start..seg.end] {
                    h.write_u32(x.to_bits());
                }
            }
        }
    }
    let got: Vec<(String, u64, u64)> = layout
        .iter()
        .zip(balanced.iter().zip(&naive))
        .map(|(seg, (b, n))| (format!("{:?}", seg.kind), b.0, n.0))
        .collect();
    let want: Vec<(String, u64, u64)> = GOLDEN_BENCHMARK_SHAPE
        .iter()
        .map(|&(name, b, n)| (name.to_string(), b, n))
        .collect();
    if got != want {
        eprintln!("benchmark-shape hashes:");
        for (name, b, n) in &got {
            eprintln!("    ({name:?}, {b:#018x}, {n:#018x}),");
        }
    }
    assert_eq!(got, want, "full_default descriptors changed at 128 px");
}

#[test]
fn golden_table_covers_every_family() {
    let names: Vec<&str> = families().iter().map(|(n, _)| *n).collect();
    for (n, _) in GOLDEN {
        assert!(names.contains(n), "golden table has unknown family {n}");
    }
    for n in &names {
        assert!(
            GOLDEN.iter().any(|(g, _)| g == n),
            "family {n} missing from golden table"
        );
    }
    assert_eq!(names.len(), GOLDEN.len());
}

#[test]
fn corpus_generation_is_deterministic() {
    // The golden hashes are only meaningful if the corpus itself is
    // reproducible: same spec, same pixels.
    let a = corpus();
    let b = corpus();
    assert_eq!(a.labels, b.labels);
    for (x, y) in a.images.iter().zip(&b.images) {
        assert_eq!(x.width(), y.width());
        assert_eq!(x.height(), y.height());
        assert!(x.pixels().eq(y.pixels()));
    }
}
