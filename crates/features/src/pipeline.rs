//! The extraction pipeline: a declarative list of feature specs turned into
//! one composite feature vector per image, with a stable segment layout so
//! query-time measures can address individual families.

use crate::context::{ExtractContext, ExtractScratch};
use crate::correlogram::AutoCorrelogram;
use crate::descriptor::{normalize_l1, FeatureKind, Segment};
use crate::distance_transform::{dt_histogram, salience_distance_transform};
use crate::edges::{edge_density_grid, edge_orientation_histogram};
use crate::error::{FeatureError, Result};
use crate::glcm::glcm_features;
use crate::histogram::{color_moments, ColorHistogram};
use crate::mask::foreground_mask;
use crate::moments::{hu_feature_vector, region_shape_features, shape_summary};
use crate::quantize::Quantizer;
use crate::tamura::tamura_features;
use crate::wavelet::wavelet_signature;
use cbir_image::ops::resize_bilinear_rgb;
use cbir_image::RgbImage;

/// One feature family plus its parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum FeatureSpec {
    /// Normalized color histogram under the given quantizer.
    ColorHistogram(Quantizer),
    /// Nine HSV channel moments.
    ColorMoments,
    /// Auto-correlogram under the given quantizer at the given L∞ distances.
    Correlogram {
        /// Color quantizer (keep it compact: dim = bins × distances).
        quantizer: Quantizer,
        /// Probe distances (positive, non-empty).
        distances: Vec<u32>,
    },
    /// Five GLCM statistics averaged over the standard four orientations.
    Glcm {
        /// Gray levels for co-occurrence quantization.
        levels: usize,
    },
    /// Tamura coarseness/contrast/directionality.
    Tamura,
    /// Haar subband-energy signature with this many levels.
    Wavelet {
        /// Decomposition depth (canonical size must be divisible by 2^levels).
        levels: u32,
    },
    /// Magnitude-weighted edge-orientation histogram.
    EdgeOrientation {
        /// Orientation bins over [0, π).
        bins: usize,
    },
    /// Edge-density grid.
    EdgeDensityGrid {
        /// Grid side (grid² cells).
        grid: u32,
        /// Normalized Sobel magnitude threshold.
        threshold: f32,
    },
    /// Hu invariants of the Otsu foreground mask.
    HuMoments,
    /// Eccentricity/compactness/extent of the Otsu foreground mask.
    ShapeSummary,
    /// Histogram of the salience distance transform.
    DtHistogram {
        /// Histogram bins.
        bins: usize,
    },
    /// Connected-component shape signature of the dominant Otsu region.
    RegionShape,
}

impl FeatureSpec {
    /// The family this spec belongs to.
    pub fn kind(&self) -> FeatureKind {
        match self {
            FeatureSpec::ColorHistogram(_) => FeatureKind::ColorHistogram,
            FeatureSpec::ColorMoments => FeatureKind::ColorMoments,
            FeatureSpec::Correlogram { .. } => FeatureKind::Correlogram,
            FeatureSpec::Glcm { .. } => FeatureKind::Glcm,
            FeatureSpec::Tamura => FeatureKind::Tamura,
            FeatureSpec::Wavelet { .. } => FeatureKind::Wavelet,
            FeatureSpec::EdgeOrientation { .. } => FeatureKind::EdgeOrientation,
            FeatureSpec::EdgeDensityGrid { .. } => FeatureKind::EdgeDensityGrid,
            FeatureSpec::HuMoments => FeatureKind::HuMoments,
            FeatureSpec::ShapeSummary => FeatureKind::ShapeSummary,
            FeatureSpec::DtHistogram { .. } => FeatureKind::DtHistogram,
            FeatureSpec::RegionShape => FeatureKind::RegionShape,
        }
    }

    /// Output dimensionality of this spec.
    pub fn dim(&self) -> usize {
        match self {
            FeatureSpec::ColorHistogram(q) => q.n_bins(),
            FeatureSpec::ColorMoments => 9,
            FeatureSpec::Correlogram {
                quantizer,
                distances,
            } => quantizer.n_bins() * distances.len(),
            FeatureSpec::Glcm { .. } => 5,
            FeatureSpec::Tamura => 3,
            FeatureSpec::Wavelet { levels } => 3 * *levels as usize + 1,
            FeatureSpec::EdgeOrientation { bins } => *bins,
            FeatureSpec::EdgeDensityGrid { grid, .. } => (*grid as usize).pow(2),
            FeatureSpec::HuMoments => 7,
            FeatureSpec::ShapeSummary => 3,
            FeatureSpec::DtHistogram { bins } => *bins,
            FeatureSpec::RegionShape => 5,
        }
    }

    /// Validate the spec against the pipeline's canonical image size.
    fn validate(&self, canonical: u32) -> Result<()> {
        match self {
            FeatureSpec::ColorHistogram(q) => q.validate(),
            FeatureSpec::Correlogram {
                quantizer,
                distances,
            } => {
                quantizer.validate()?;
                if distances.is_empty() || distances.contains(&0) {
                    return Err(FeatureError::InvalidParameter(
                        "correlogram distances must be non-empty and positive".into(),
                    ));
                }
                if quantizer.n_bins() > 256 {
                    return Err(FeatureError::InvalidParameter(
                        "correlogram quantizer must have <= 256 bins".into(),
                    ));
                }
                Ok(())
            }
            FeatureSpec::Wavelet { levels } => {
                if *levels == 0 {
                    return Err(FeatureError::InvalidParameter(
                        "wavelet levels must be >= 1".into(),
                    ));
                }
                if !canonical.is_multiple_of(1 << *levels) {
                    return Err(FeatureError::InvalidParameter(format!(
                        "canonical size {canonical} not divisible by 2^{levels}"
                    )));
                }
                Ok(())
            }
            FeatureSpec::Glcm { levels } => {
                if !(2..=256).contains(levels) {
                    return Err(FeatureError::InvalidParameter(
                        "glcm levels must be in 2..=256".into(),
                    ));
                }
                Ok(())
            }
            FeatureSpec::EdgeOrientation { bins } => {
                if !(2..=256).contains(bins) {
                    return Err(FeatureError::InvalidParameter(
                        "edge orientation bins must be in 2..=256".into(),
                    ));
                }
                Ok(())
            }
            FeatureSpec::EdgeDensityGrid { grid, .. } => {
                if *grid == 0 || *grid > canonical {
                    return Err(FeatureError::InvalidParameter(
                        "edge grid must be in 1..=canonical size".into(),
                    ));
                }
                Ok(())
            }
            FeatureSpec::DtHistogram { bins } => {
                if !(2..=1024).contains(bins) {
                    return Err(FeatureError::InvalidParameter(
                        "dt histogram bins must be in 2..=1024".into(),
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// A validated, ordered list of feature specs with a fixed canonical size.
#[derive(Clone, Debug)]
pub struct Pipeline {
    canonical: u32,
    specs: Vec<FeatureSpec>,
}

impl Pipeline {
    /// Build a pipeline. Every image is first resampled to
    /// `canonical × canonical` so signatures are size-invariant.
    pub fn new(canonical: u32, specs: Vec<FeatureSpec>) -> Result<Self> {
        if !(8..=1024).contains(&canonical) {
            return Err(FeatureError::InvalidParameter(format!(
                "canonical size must be in 8..=1024, got {canonical}"
            )));
        }
        if specs.is_empty() {
            return Err(FeatureError::InvalidParameter(
                "pipeline needs at least one feature spec".into(),
            ));
        }
        for s in &specs {
            s.validate(canonical)?;
        }
        Ok(Pipeline { canonical, specs })
    }

    /// Canonical (post-resize) image side length.
    pub fn canonical_size(&self) -> u32 {
        self.canonical
    }

    /// The configured specs, in extraction order.
    pub fn specs(&self) -> &[FeatureSpec] {
        &self.specs
    }

    /// Total composite dimensionality.
    pub fn dim(&self) -> usize {
        self.specs.iter().map(|s| s.dim()).sum()
    }

    /// Offsets of each feature family inside the composite vector.
    pub fn layout(&self) -> Vec<Segment> {
        let mut out = Vec::with_capacity(self.specs.len());
        let mut at = 0usize;
        for s in &self.specs {
            let d = s.dim();
            out.push(Segment {
                kind: s.kind(),
                start: at,
                end: at + d,
            });
            at += d;
        }
        out
    }

    /// Extract the composite feature vector for one image.
    pub fn extract(&self, img: &RgbImage) -> Result<Vec<f32>> {
        let mut scratch = ExtractScratch::new();
        let mut out = Vec::new();
        self.extract_into(img, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Extract into a caller-provided vector, reusing `scratch`'s buffers.
    ///
    /// This is the steady-state ingest path: after one warm-up image has
    /// sized the scratch, repeated calls over same-shaped work allocate
    /// nothing. `out` is cleared first; its contents are unspecified if an
    /// error is returned. Results are bit-identical to [`Self::extract`]
    /// and to the per-family reference path [`Self::extract_naive`].
    pub fn extract_into(
        &self,
        img: &RgbImage,
        scratch: &mut ExtractScratch,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        let mut ctx = ExtractContext::new(img, scratch, self.canonical)?;
        out.clear();
        out.reserve(self.dim());
        for spec in &self.specs {
            let start = out.len();
            out.resize(start + spec.dim(), 0.0);
            ctx.feature(spec, &mut out[start..])?;
        }
        Ok(())
    }

    /// Reference extraction path: every family recomputes its own
    /// intermediates from scratch (fresh resize, grayscale, gradients, and
    /// mask per family) with no sharing whatsoever.
    ///
    /// Exists to pin down the planner's contract: the equivalence tests and
    /// the throughput experiment assert [`Self::extract`] is bit-identical
    /// to this path before trusting any speedup numbers.
    pub fn extract_naive(&self, img: &RgbImage) -> Result<Vec<f32>> {
        if img.is_empty() {
            return Err(FeatureError::EmptyImage("pipeline"));
        }
        let mut out = Vec::with_capacity(self.dim());
        for spec in &self.specs {
            let canon = resize_bilinear_rgb(img, self.canonical, self.canonical)?;
            let gray = canon.to_gray();
            let part: Vec<f32> = match spec {
                FeatureSpec::ColorHistogram(q) => ColorHistogram::compute(&canon, q)?.normalized(),
                FeatureSpec::ColorMoments => color_moments(&canon)?,
                FeatureSpec::Correlogram {
                    quantizer,
                    distances,
                } => AutoCorrelogram::compute(&canon, quantizer, distances)?.to_vec(),
                FeatureSpec::Glcm { levels } => glcm_features(&gray, *levels)?,
                FeatureSpec::Tamura => tamura_features(&gray)?,
                FeatureSpec::Wavelet { levels } => wavelet_signature(&gray, *levels)?,
                FeatureSpec::EdgeOrientation { bins } => edge_orientation_histogram(&gray, *bins)?,
                FeatureSpec::EdgeDensityGrid { grid, threshold } => {
                    edge_density_grid(&gray, *grid, *threshold)?
                }
                FeatureSpec::HuMoments => hu_feature_vector(&foreground_mask(&gray))?,
                FeatureSpec::ShapeSummary => shape_summary(&foreground_mask(&gray))?,
                FeatureSpec::RegionShape => region_shape_features(&foreground_mask(&gray))?,
                FeatureSpec::DtHistogram { bins } => {
                    match salience_distance_transform(&gray, 3.0) {
                        Ok(dt) => {
                            let max_value = 3.0 * self.canonical as f32 / 2.0;
                            dt_histogram(&dt, *bins, max_value)?
                        }
                        // Flat image: all mass "infinitely far" from edges.
                        Err(_) => {
                            let mut h = vec![0.0; *bins];
                            h[*bins - 1] = 1.0;
                            h
                        }
                    }
                }
            };
            debug_assert_eq!(part.len(), spec.dim(), "{spec:?} dim mismatch");
            out.extend_from_slice(&part);
        }
        Ok(out)
    }

    /// Extract many images with `threads` worker threads, each owning one
    /// [`ExtractScratch`].
    ///
    /// Work is split into contiguous chunks in input order, so results are
    /// deterministic and bit-identical at every thread count (each image's
    /// extraction is independent; only the partitioning varies). On error
    /// the first failing image in input order wins.
    pub fn extract_batch(&self, images: &[&RgbImage], threads: usize) -> Result<Vec<Vec<f32>>> {
        self.extract_batch_with(images, threads, false)
    }

    /// [`Self::extract_batch`] with per-segment L1 normalization, matching
    /// [`Self::extract_balanced`].
    pub fn extract_balanced_batch(
        &self,
        images: &[&RgbImage],
        threads: usize,
    ) -> Result<Vec<Vec<f32>>> {
        self.extract_batch_with(images, threads, true)
    }

    fn extract_batch_with(
        &self,
        images: &[&RgbImage],
        threads: usize,
        balanced: bool,
    ) -> Result<Vec<Vec<f32>>> {
        if threads == 0 {
            return Err(FeatureError::InvalidParameter(
                "extract_batch needs >= 1 thread".into(),
            ));
        }
        if images.is_empty() {
            return Ok(Vec::new());
        }
        let chunk_size = images.len().div_ceil(threads);
        let chunks: Vec<&[&RgbImage]> = images.chunks(chunk_size).collect();
        let results: Vec<Vec<Result<Vec<f32>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut scratch = ExtractScratch::new();
                        let mut buf = Vec::new();
                        chunk
                            .iter()
                            .map(|img| {
                                let r = if balanced {
                                    self.extract_balanced_into(img, &mut scratch, &mut buf)
                                } else {
                                    self.extract_into(img, &mut scratch, &mut buf)
                                };
                                r.map(|()| buf.clone())
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("extraction worker panicked"))
                .collect()
        });
        results.into_iter().flatten().collect()
    }

    /// The classical color-indexing pipeline: one 256-bin HSV histogram.
    pub fn color_histogram_default() -> Self {
        Pipeline::new(
            64,
            vec![FeatureSpec::ColorHistogram(Quantizer::hsv_default())],
        )
        .expect("static pipeline")
    }

    /// A full multi-feature pipeline: color histogram + correlogram +
    /// texture (GLCM, Tamura, wavelet) + shape (edge histogram, grid, Hu).
    pub fn full_default() -> Self {
        Pipeline::new(
            64,
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

    /// Extract and L1-normalize each segment independently, so families
    /// with large natural scales (e.g. GLCM contrast) cannot drown the
    /// others when a single global measure is applied.
    pub fn extract_balanced(&self, img: &RgbImage) -> Result<Vec<f32>> {
        let mut scratch = ExtractScratch::new();
        let mut out = Vec::new();
        self.extract_balanced_into(img, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Self::extract_balanced`] into a caller-provided vector, reusing
    /// `scratch`'s buffers; allocation-free at steady state like
    /// [`Self::extract_into`].
    pub fn extract_balanced_into(
        &self,
        img: &RgbImage,
        scratch: &mut ExtractScratch,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        self.extract_into(img, scratch, out)?;
        let mut at = 0usize;
        for spec in &self.specs {
            let d = spec.dim();
            normalize_l1(&mut out[at..at + d]);
            at += d;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_image::Rgb;

    fn test_image() -> RgbImage {
        RgbImage::from_fn(48, 48, |x, y| {
            if (x / 8 + y / 8) % 2 == 0 {
                Rgb::new(200, 40, 40)
            } else {
                Rgb::new(40, 40, 200)
            }
        })
    }

    #[test]
    fn dim_matches_extracted_length() {
        for p in [
            Pipeline::color_histogram_default(),
            Pipeline::full_default(),
        ] {
            let v = p.extract(&test_image()).unwrap();
            assert_eq!(v.len(), p.dim());
        }
    }

    #[test]
    fn layout_partitions_the_vector() {
        let p = Pipeline::full_default();
        let segs = p.layout();
        assert_eq!(segs.len(), p.specs().len());
        assert_eq!(segs[0].start, 0);
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(segs.last().unwrap().end, p.dim());
        for s in &segs {
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let p = Pipeline::full_default();
        let img = test_image();
        assert_eq!(p.extract(&img).unwrap(), p.extract(&img).unwrap());
    }

    #[test]
    fn extraction_is_size_invariant_under_upscaling() {
        // The same content at 2x resolution maps to a nearby signature
        // (canonicalization handles scale).
        let p = Pipeline::color_histogram_default();
        let small = test_image();
        let big = cbir_image::ops::resize_nearest(&small, 96, 96).unwrap();
        let vs = p.extract(&small).unwrap();
        let vb = p.extract(&big).unwrap();
        // Resampling introduces some boundary blending; the normalized
        // histograms must stay close (max L1 distance is 2.0).
        let l1: f32 = vs.iter().zip(&vb).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.4, "signatures diverged: L1 = {l1}");
    }

    #[test]
    fn different_content_different_vectors() {
        let p = Pipeline::full_default();
        let a = p.extract(&test_image()).unwrap();
        let uniform = RgbImage::filled(48, 48, Rgb::new(10, 200, 10));
        let b = p.extract(&uniform).unwrap();
        let l1: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 > 0.5);
    }

    #[test]
    fn degenerate_images_still_extract() {
        // Constant image exercises every fallback path (flat gradients,
        // empty masks, Otsu degeneracy).
        let p = Pipeline::full_default();
        let img = RgbImage::filled(32, 32, Rgb::new(128, 128, 128));
        let v = p.extract(&img).unwrap();
        assert_eq!(v.len(), p.dim());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn dt_histogram_fallback_for_flat_images() {
        let p = Pipeline::new(32, vec![FeatureSpec::DtHistogram { bins: 8 }]).unwrap();
        let img = RgbImage::filled(16, 16, Rgb::new(77, 77, 77));
        let v = p.extract(&img).unwrap();
        assert_eq!(v.len(), 8);
        assert_eq!(v[7], 1.0);
        assert_eq!(v[..7].iter().sum::<f32>(), 0.0);
    }

    #[test]
    fn balanced_extraction_normalizes_each_segment() {
        let p = Pipeline::full_default();
        let v = p.extract_balanced(&test_image()).unwrap();
        for seg in p.layout() {
            let s: f32 = v[seg.start..seg.end].iter().map(|x| x.abs()).sum();
            // Either normalized to 1 or an all-zero segment.
            assert!(
                (s - 1.0).abs() < 1e-4 || s == 0.0,
                "{:?} sums to {s}",
                seg.kind
            );
        }
    }

    #[test]
    fn validation_errors() {
        assert!(Pipeline::new(4, vec![FeatureSpec::ColorMoments]).is_err());
        assert!(Pipeline::new(2000, vec![FeatureSpec::ColorMoments]).is_err());
        assert!(Pipeline::new(64, vec![]).is_err());
        // 48 is not divisible by 2^5.
        assert!(Pipeline::new(48, vec![FeatureSpec::Wavelet { levels: 5 }]).is_err());
        assert!(Pipeline::new(64, vec![FeatureSpec::Wavelet { levels: 0 }]).is_err());
        assert!(Pipeline::new(
            64,
            vec![FeatureSpec::Correlogram {
                quantizer: Quantizer::rgb_compact(),
                distances: vec![]
            }]
        )
        .is_err());
        assert!(Pipeline::new(
            64,
            vec![FeatureSpec::Correlogram {
                quantizer: Quantizer::hsv_default(),
                distances: vec![0, 1]
            }]
        )
        .is_err());
        assert!(Pipeline::new(64, vec![FeatureSpec::Glcm { levels: 1 }]).is_err());
        // A bin product that wraps u32 to zero bins.
        let wrapped = Quantizer::Hsv {
            hue: 65536,
            sat: 65536,
            val: 1,
        };
        assert!(Pipeline::new(64, vec![FeatureSpec::ColorHistogram(wrapped)]).is_err());
        assert!(Pipeline::new(64, vec![FeatureSpec::EdgeOrientation { bins: 1 }]).is_err());
        assert!(Pipeline::new(
            64,
            vec![FeatureSpec::EdgeDensityGrid {
                grid: 0,
                threshold: 1.0
            }]
        )
        .is_err());
        assert!(Pipeline::new(64, vec![FeatureSpec::DtHistogram { bins: 1 }]).is_err());
        let p = Pipeline::color_histogram_default();
        assert!(p.extract(&RgbImage::filled(0, 0, Rgb::default())).is_err());
    }

    #[test]
    fn spec_dims() {
        assert_eq!(
            FeatureSpec::ColorHistogram(Quantizer::hsv_default()).dim(),
            256
        );
        assert_eq!(FeatureSpec::ColorMoments.dim(), 9);
        assert_eq!(
            FeatureSpec::Correlogram {
                quantizer: Quantizer::rgb_compact(),
                distances: vec![1, 3]
            }
            .dim(),
            128
        );
        assert_eq!(FeatureSpec::Glcm { levels: 16 }.dim(), 5);
        assert_eq!(FeatureSpec::Tamura.dim(), 3);
        assert_eq!(FeatureSpec::Wavelet { levels: 3 }.dim(), 10);
        assert_eq!(FeatureSpec::EdgeOrientation { bins: 12 }.dim(), 12);
        assert_eq!(
            FeatureSpec::EdgeDensityGrid {
                grid: 4,
                threshold: 1.0
            }
            .dim(),
            16
        );
        assert_eq!(FeatureSpec::HuMoments.dim(), 7);
        assert_eq!(FeatureSpec::ShapeSummary.dim(), 3);
        assert_eq!(FeatureSpec::DtHistogram { bins: 12 }.dim(), 12);
        assert_eq!(FeatureSpec::RegionShape.dim(), 5);
    }
}
