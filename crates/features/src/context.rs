//! The extraction planner: shared intermediates computed lazily but at most
//! once per image, backed by reusable scratch buffers.
//!
//! [`ExtractContext`] wraps one input image together with an
//! [`ExtractScratch`] and exposes every feature family as a method writing
//! into a caller-provided slice. Each shared intermediate — the canonical
//! RGB frame, its grayscale conversion, the Sobel gradient field, the
//! magnitude and normalized-magnitude planes, per-quantizer bin
//! planes, the Otsu foreground mask and its moments, the grayscale
//! integral image, and the salience distance transform — is computed the
//! first time a family needs it and then reused, so a multi-family
//! pipeline performs each image-wide pass exactly once instead of once per
//! family.
//!
//! Every method is bit-identical (to the `f32` bit pattern) to the
//! corresponding standalone family function in this crate: both routes call
//! the same `pub(crate)` core with operands in the same order.
//!
//! After one warm-up image has sized the scratch buffers, steady-state
//! extraction of same-shaped work performs no heap allocation (asserted by
//! the `alloc_discipline` integration test).

use crate::correlogram::{correlogram_into, CorrelogramScratch};
use crate::distance_transform::{dt_histogram_into, sdt_from_magnitude};
use crate::edges::{density_grid_core, orientation_histogram_core};
use crate::error::{FeatureError, Result};
use crate::glcm::{glcm_features_into, GlcmScratch};
use crate::histogram::{color_moments_into, histogram_normalized_from_indexed};
use crate::mask::foreground_mask_into;
use crate::moments::{hu_into, region_shape_into, shape_summary_into, Moments};
use crate::pipeline::FeatureSpec;
use crate::quantize::Quantizer;
use crate::tamura::{coarseness_core_into, contrast, directionality_core, CoarsenessScratch};
use crate::wavelet::{wavelet_signature_into, WaveletScratch};
use cbir_image::ops::{
    magnitude_into, orientation_bins_into, resize_bilinear_rgb_into, sobel_into, Connectivity,
    IntegralImage, Labeling, ResizeScratch, SOBEL_MAGNITUDE_MAX,
};
use cbir_image::{FloatImage, GrayImage, RgbImage};
use cbir_obs::{stage_hit, Stage, StageTimer};

/// Salience scale of the pipeline's distance transform (chamfer units).
const SDT_SCALE: f32 = 3.0;

/// A quantized bin plane cached per quantizer configuration.
struct QuantPlane {
    key: Quantizer,
    plane: Vec<u16>,
    ready: bool,
}

/// Reusable buffers for [`ExtractContext`].
///
/// One scratch serves any number of images sequentially; buffers grow to
/// the high-water mark of the shapes seen and are then reused without
/// further allocation. Create one per worker thread for parallel ingest.
pub struct ExtractScratch {
    canon: RgbImage,
    resize: ResizeScratch,
    gray: GrayImage,
    gx: FloatImage,
    gy: FloatImage,
    mag: FloatImage,
    /// Per-pixel orientation bins, for `ExtractContext::ori_bin_count` bins.
    ori_bins: Vec<u8>,
    mag_norm: FloatImage,
    mask: GrayImage,
    dt: FloatImage,
    integral: IntegralImage,
    quant: Vec<QuantPlane>,
    counts_u64: Vec<u64>,
    hist_f64: Vec<f64>,
    counts_u32: Vec<u32>,
    totals_u32: Vec<u32>,
    coarse: CoarsenessScratch,
    corr: CorrelogramScratch,
    glcm: GlcmScratch,
    cm_values: Vec<[f32; 3]>,
    wavelet: WaveletScratch,
    moments: Moments,
    labeling: Labeling,
}

impl ExtractScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        ExtractScratch {
            canon: RgbImage::filled(0, 0, cbir_image::Rgb::default()),
            resize: ResizeScratch::default(),
            gray: GrayImage::filled(0, 0, 0),
            gx: FloatImage::filled(0, 0, 0.0),
            gy: FloatImage::filled(0, 0, 0.0),
            mag: FloatImage::filled(0, 0, 0.0),
            ori_bins: Vec::new(),
            mag_norm: FloatImage::filled(0, 0, 0.0),
            mask: GrayImage::filled(0, 0, 0),
            dt: FloatImage::filled(0, 0, 0.0),
            integral: IntegralImage::empty(),
            quant: Vec::new(),
            counts_u64: Vec::new(),
            hist_f64: Vec::new(),
            counts_u32: Vec::new(),
            totals_u32: Vec::new(),
            coarse: CoarsenessScratch::default(),
            corr: CorrelogramScratch::default(),
            glcm: GlcmScratch::default(),
            cm_values: Vec::new(),
            wavelet: WaveletScratch::default(),
            moments: Moments::default(),
            labeling: Labeling::empty(),
        }
    }
}

impl Default for ExtractScratch {
    fn default() -> Self {
        ExtractScratch::new()
    }
}

/// Lazy one-pass extraction plan over a single image.
///
/// Construct one per image with [`ExtractContext::new`], then call family
/// methods in any order; shared intermediates are computed on first demand
/// and cached for the lifetime of the context. Results are bit-identical
/// to the standalone family functions ([`crate::Pipeline::extract_naive`]
/// is the reference implementation used by the equivalence tests).
pub struct ExtractContext<'a> {
    img: &'a RgbImage,
    s: &'a mut ExtractScratch,
    canonical: u32,
    canon_is_input: bool,
    have_gradient: bool,
    have_mag: bool,
    /// The bin count `ExtractScratch::ori_bins` holds, once computed.
    ori_bin_count: Option<usize>,
    have_mag_norm: bool,
    have_mask: bool,
    have_moments: bool,
    have_integral: bool,
    /// `None` until the SDT is attempted; then whether it is defined.
    dt_state: Option<bool>,
}

impl<'a> ExtractContext<'a> {
    /// Canonicalize `img` to `canonical × canonical` (skipping the resize
    /// entirely when the input already has that exact shape) and derive the
    /// grayscale plane. Errors on an empty image, mirroring
    /// [`crate::Pipeline::extract`].
    pub fn new(img: &'a RgbImage, scratch: &'a mut ExtractScratch, canonical: u32) -> Result<Self> {
        if img.is_empty() {
            return Err(FeatureError::EmptyImage("pipeline"));
        }
        let canon_is_input = img.dimensions() == (canonical, canonical);
        {
            let s = &mut *scratch;
            if !canon_is_input {
                let t = StageTimer::start(Stage::Resize);
                resize_bilinear_rgb_into(img, canonical, canonical, &mut s.resize, &mut s.canon)?;
                t.finish();
            } else {
                // Input already canonical: the resize pass is skipped.
                stage_hit(Stage::Resize);
            }
            let canon: &RgbImage = if canon_is_input { img } else { &s.canon };
            let t = StageTimer::start(Stage::Grayscale);
            s.gray.reset(canonical, canonical, 0);
            for (g, p) in s.gray.as_mut_slice().iter_mut().zip(canon.pixels()) {
                *g = p.luma();
            }
            t.finish();
            for qp in &mut s.quant {
                qp.ready = false;
            }
        }
        Ok(ExtractContext {
            img,
            s: scratch,
            canonical,
            canon_is_input,
            have_gradient: false,
            have_mag: false,
            ori_bin_count: None,
            have_mag_norm: false,
            have_mask: false,
            have_moments: false,
            have_integral: false,
            dt_state: None,
        })
    }

    fn ensure_gradient(&mut self) {
        if self.have_gradient {
            stage_hit(Stage::Sobel);
            return;
        }
        let t = StageTimer::start(Stage::Sobel);
        let s = &mut *self.s;
        sobel_into(&s.gray, &mut s.gx, &mut s.gy);
        t.finish();
        self.have_gradient = true;
    }

    /// The magnitude plane and, when `bins` is given, every pixel's
    /// orientation bin among that many: one stage, computed on first
    /// demand and reused while the bin count stays the same.
    fn ensure_mag_ori(&mut self, bins: Option<usize>) {
        let need_bins = bins.filter(|&b| self.ori_bin_count != Some(b));
        if self.have_mag && need_bins.is_none() {
            stage_hit(Stage::MagOri);
            return;
        }
        self.ensure_gradient();
        // The timer covers only this stage's own pass; the gradient
        // dependency accounts for itself above.
        let t = StageTimer::start(Stage::MagOri);
        let s = &mut *self.s;
        if !self.have_mag {
            magnitude_into(&s.gx, &s.gy, &mut s.mag);
            self.have_mag = true;
        }
        if let Some(b) = need_bins {
            orientation_bins_into(&s.gx, &s.gy, b, &mut s.ori_bins);
            self.ori_bin_count = Some(b);
        }
        t.finish();
    }

    fn ensure_mag_norm(&mut self) {
        if self.have_mag_norm {
            stage_hit(Stage::MagNorm);
            return;
        }
        self.ensure_mag_ori(None);
        let t = StageTimer::start(Stage::MagNorm);
        let s = &mut *self.s;
        let (w, h) = s.mag.dimensions();
        s.mag_norm.reset(w, h, 0.0);
        for (n, &m) in s.mag_norm.as_mut_slice().iter_mut().zip(s.mag.as_slice()) {
            *n = m / SOBEL_MAGNITUDE_MAX * 255.0;
        }
        t.finish();
        self.have_mag_norm = true;
    }

    fn ensure_mask(&mut self) {
        if self.have_mask {
            stage_hit(Stage::Mask);
            return;
        }
        let t = StageTimer::start(Stage::Mask);
        let s = &mut *self.s;
        foreground_mask_into(&s.gray, &mut s.mask);
        t.finish();
        self.have_mask = true;
    }

    /// The mask's moments, computed at most once.
    fn ensure_moments(&mut self) {
        if self.have_moments {
            stage_hit(Stage::Moments);
            return;
        }
        self.ensure_mask();
        let t = StageTimer::start(Stage::Moments);
        let s = &mut *self.s;
        s.moments = Moments::compute(&s.mask).expect("the foreground mask has an object pixel");
        t.finish();
        self.have_moments = true;
    }

    fn ensure_integral(&mut self) {
        if self.have_integral {
            stage_hit(Stage::Integral);
            return;
        }
        let t = StageTimer::start(Stage::Integral);
        let s = &mut *self.s;
        s.integral.recompute(&s.gray);
        t.finish();
        self.have_integral = true;
    }

    /// `true` when the salience distance transform is defined (the image
    /// has gradients); computed at most once.
    fn ensure_dt(&mut self) -> bool {
        if let Some(ok) = self.dt_state {
            stage_hit(Stage::Sdt);
            return ok;
        }
        self.ensure_mag_norm();
        let t = StageTimer::start(Stage::Sdt);
        let s = &mut *self.s;
        let ok = sdt_from_magnitude(&s.mag_norm, SDT_SCALE, &mut s.dt);
        t.finish();
        self.dt_state = Some(ok);
        ok
    }

    /// Bin plane index for `quantizer`, quantizing the canonical frame on
    /// first demand. Planes are keyed by quantizer equality, so distinct
    /// specs sharing one quantizer quantize once.
    fn ensure_quant(&mut self, quantizer: &Quantizer) -> usize {
        let s = &mut *self.s;
        let canon: &RgbImage = if self.canon_is_input {
            self.img
        } else {
            &s.canon
        };
        let idx = match s.quant.iter().position(|qp| qp.key == *quantizer) {
            Some(i) => i,
            None => {
                // Warm-up-only allocation: one slot per distinct quantizer.
                s.quant.push(QuantPlane {
                    key: quantizer.clone(),
                    plane: Vec::new(),
                    ready: false,
                });
                s.quant.len() - 1
            }
        };
        let QuantPlane { key, plane, ready } = &mut s.quant[idx];
        if !*ready {
            let t = StageTimer::start(Stage::Quantize);
            key.quantize_into(canon.as_slice(), plane);
            t.finish();
            *ready = true;
        } else {
            stage_hit(Stage::Quantize);
        }
        idx
    }

    /// Extract one spec into `out` (which must hold `spec.dim()` values),
    /// dispatching to the family method below; this is the step
    /// [`crate::Pipeline::extract_into`] runs once per spec.
    pub fn feature(&mut self, spec: &FeatureSpec, out: &mut [f32]) -> Result<()> {
        match spec {
            FeatureSpec::ColorHistogram(q) => self.color_histogram(q, out),
            FeatureSpec::ColorMoments => self.color_moments(out),
            FeatureSpec::Correlogram {
                quantizer,
                distances,
            } => self.correlogram(quantizer, distances, out),
            FeatureSpec::Glcm { levels } => self.glcm(*levels, out),
            FeatureSpec::Tamura => self.tamura(out),
            FeatureSpec::Wavelet { levels } => self.wavelet(*levels, out),
            FeatureSpec::EdgeOrientation { bins } => self.edge_orientation(*bins, out),
            FeatureSpec::EdgeDensityGrid { grid, threshold } => {
                self.edge_density_grid(*grid, *threshold, out)
            }
            FeatureSpec::HuMoments => self.hu_moments(out),
            FeatureSpec::ShapeSummary => self.shape_summary(out),
            FeatureSpec::RegionShape => self.region_shape(out),
            FeatureSpec::DtHistogram { bins } => {
                // Range: half the canonical diagonal in chamfer units
                // keeps the histogram well-populated.
                let max_value = 3.0 * self.canonical as f32 / 2.0;
                self.dt_histogram(*bins, max_value, out)
            }
        }
    }

    /// Normalized color histogram; matches
    /// [`crate::ColorHistogram::compute`] + `normalized`. `out` must hold
    /// `quantizer.n_bins()` values.
    pub fn color_histogram(&mut self, quantizer: &Quantizer, out: &mut [f32]) -> Result<()> {
        quantizer.validate()?;
        let idx = self.ensure_quant(quantizer);
        let s = &mut *self.s;
        histogram_normalized_from_indexed(
            &s.quant[idx].plane,
            s.quant[idx].key.n_bins(),
            &mut s.counts_u64,
            out,
        );
        Ok(())
    }

    /// Nine HSV channel moments; matches [`crate::color_moments`]. `out`
    /// must hold 9 values.
    pub fn color_moments(&mut self, out: &mut [f32]) -> Result<()> {
        let s = &mut *self.s;
        let canon: &RgbImage = if self.canon_is_input {
            self.img
        } else {
            &s.canon
        };
        color_moments_into(canon, &mut s.cm_values, out);
        Ok(())
    }

    /// Auto-correlogram probabilities; matches
    /// [`crate::AutoCorrelogram::compute`] + `to_vec`. `out` must hold
    /// `quantizer.n_bins() * distances.len()` values.
    pub fn correlogram(
        &mut self,
        quantizer: &Quantizer,
        distances: &[u32],
        out: &mut [f32],
    ) -> Result<()> {
        quantizer.validate()?;
        if distances.is_empty() || distances.contains(&0) {
            return Err(FeatureError::InvalidParameter(
                "correlogram distances must be non-empty and positive".into(),
            ));
        }
        let idx = self.ensure_quant(quantizer);
        let s = &mut *self.s;
        correlogram_into(
            &s.quant[idx].plane,
            self.canonical,
            self.canonical,
            s.quant[idx].key.n_bins(),
            distances,
            &mut s.corr,
            out,
        );
        Ok(())
    }

    /// Five averaged GLCM statistics; matches [`crate::glcm_features`].
    /// `out` must hold 5 values.
    pub fn glcm(&mut self, levels: usize, out: &mut [f32]) -> Result<()> {
        let s = &mut *self.s;
        glcm_features_into(&s.gray, levels, &mut s.glcm, out)
    }

    /// Tamura `[coarseness (log₂), contrast / 128, directionality]`;
    /// matches [`crate::tamura_features`]. `out` must hold 3 values.
    pub fn tamura(&mut self, out: &mut [f32]) -> Result<()> {
        debug_assert_eq!(out.len(), 3);
        self.ensure_mag_ori(Some(16));
        self.ensure_integral();
        let s = &mut *self.s;
        let c = coarseness_core_into(&s.integral, 5, &mut s.coarse);
        let con = contrast(&s.gray)?;
        let d = directionality_core(&s.mag, &s.ori_bins, 16, &mut s.hist_f64);
        out[0] = c.log2() as f32;
        out[1] = (con / 128.0) as f32;
        out[2] = d as f32;
        Ok(())
    }

    /// Haar subband-energy signature; matches [`crate::wavelet_signature`].
    /// `out` must hold `3 * levels + 1` values.
    pub fn wavelet(&mut self, levels: u32, out: &mut [f32]) -> Result<()> {
        let s = &mut *self.s;
        wavelet_signature_into(&s.gray, levels, &mut s.wavelet, out)
    }

    /// Magnitude-weighted edge-orientation histogram; matches
    /// [`crate::edge_orientation_histogram`]. `out` must hold `bins` values.
    pub fn edge_orientation(&mut self, bins: usize, out: &mut [f32]) -> Result<()> {
        if !(2..=256).contains(&bins) {
            return Err(FeatureError::InvalidParameter(format!(
                "orientation bins must be in 2..=256, got {bins}"
            )));
        }
        self.ensure_mag_ori(Some(bins));
        let s = &mut *self.s;
        orientation_histogram_core(&s.mag, &s.ori_bins, bins, &mut s.hist_f64, out);
        Ok(())
    }

    /// Edge-density grid; matches [`crate::edge_density_grid`]. `out` must
    /// hold `grid * grid` values.
    pub fn edge_density_grid(&mut self, grid: u32, threshold: f32, out: &mut [f32]) -> Result<()> {
        if grid == 0 || grid > 64 {
            return Err(FeatureError::InvalidParameter(format!(
                "grid must be in 1..=64, got {grid}"
            )));
        }
        let (w, h) = (self.canonical, self.canonical);
        if w < grid || h < grid {
            return Err(FeatureError::InvalidParameter(format!(
                "image {w}x{h} smaller than {grid}x{grid} grid"
            )));
        }
        self.ensure_mag_norm();
        let s = &mut *self.s;
        density_grid_core(
            &s.mag_norm,
            grid,
            threshold,
            &mut s.counts_u32,
            &mut s.totals_u32,
            out,
        );
        Ok(())
    }

    /// Log-compressed Hu invariants of the Otsu foreground; matches
    /// [`crate::hu_feature_vector`] over [`crate::foreground_mask`]. `out`
    /// must hold 7 values.
    pub fn hu_moments(&mut self, out: &mut [f32]) -> Result<()> {
        self.ensure_moments();
        hu_into(&self.s.moments, out);
        Ok(())
    }

    /// `[eccentricity, compactness, extent]` of the Otsu foreground;
    /// matches [`crate::shape_summary`] over [`crate::foreground_mask`].
    /// `out` must hold 3 values.
    pub fn shape_summary(&mut self, out: &mut [f32]) -> Result<()> {
        self.ensure_moments();
        shape_summary_into(&self.s.mask, &self.s.moments, out);
        Ok(())
    }

    /// Dominant-region shape signature of the Otsu foreground; matches
    /// [`crate::region_shape_features`] over [`crate::foreground_mask`].
    /// `out` must hold 5 values.
    pub fn region_shape(&mut self, out: &mut [f32]) -> Result<()> {
        self.ensure_mask();
        let s = &mut *self.s;
        s.labeling
            .recompute(&s.mask, Connectivity::Eight)
            .expect("the foreground mask is not empty");
        region_shape_into(&s.mask, &s.labeling, out);
        Ok(())
    }

    /// Histogram of the salience distance transform (scale 3.0, the
    /// pipeline's constant); matches [`crate::dt_histogram`] over
    /// [`crate::salience_distance_transform`], including the
    /// last-bin-spike fallback for gradient-free images. `out` must hold
    /// `bins` values.
    pub fn dt_histogram(&mut self, bins: usize, max_value: f32, out: &mut [f32]) -> Result<()> {
        if !(2..=1024).contains(&bins) {
            return Err(FeatureError::InvalidParameter(format!(
                "dt histogram bins must be in 2..=1024, got {bins}"
            )));
        }
        if max_value.is_nan() || max_value <= 0.0 {
            return Err(FeatureError::InvalidParameter(
                "dt histogram max_value must be positive".into(),
            ));
        }
        if self.ensure_dt() {
            dt_histogram_into(&self.s.dt, bins, max_value, out);
        } else {
            // Flat image: all mass "infinitely far" from edges.
            out.fill(0.0);
            out[bins - 1] = 1.0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            cbir_image::Rgb::new(
                ((x * 37 + y * 11) % 256) as u8,
                ((x * 5 + y * 53) % 256) as u8,
                ((x + y * 7) % 256) as u8,
            )
        })
    }

    #[test]
    fn context_matches_standalone_functions_bitwise() {
        let img = test_image(48, 32);
        let mut scratch = ExtractScratch::new();
        let canonical = 64u32;
        let canon = cbir_image::ops::resize_bilinear_rgb(&img, canonical, canonical).unwrap();
        let gray = canon.to_gray();
        let q = Quantizer::hsv_default();

        let mut ctx = ExtractContext::new(&img, &mut scratch, canonical).unwrap();

        let mut got = vec![0.0f32; q.n_bins()];
        ctx.color_histogram(&q, &mut got).unwrap();
        let want = crate::ColorHistogram::compute(&canon, &q)
            .unwrap()
            .normalized();
        assert_eq!(bits(&got), bits(&want));

        let mut got = vec![0.0f32; 16];
        ctx.edge_orientation(16, &mut got).unwrap();
        let want = crate::edge_orientation_histogram(&gray, 16).unwrap();
        assert_eq!(bits(&got), bits(&want));

        let mut got = vec![0.0f32; 3];
        ctx.tamura(&mut got).unwrap();
        let want = crate::tamura_features(&gray).unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn canonical_input_skips_resize_without_changing_results() {
        let img = test_image(64, 64);
        let mut scratch = ExtractScratch::new();
        let mut ctx = ExtractContext::new(&img, &mut scratch, 64).unwrap();
        assert!(ctx.canon_is_input);
        let q = Quantizer::rgb_compact();
        let mut got = vec![0.0f32; q.n_bins()];
        ctx.color_histogram(&q, &mut got).unwrap();
        // The identity resize is bit-exact, so going through the resize
        // path anyway must give the same histogram.
        let canon = cbir_image::ops::resize_bilinear_rgb(&img, 64, 64).unwrap();
        let want = crate::ColorHistogram::compute(&canon, &q)
            .unwrap()
            .normalized();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn scratch_reuse_across_images_is_clean() {
        // A second image through the same scratch must not see stale state
        // from the first (quant planes, flags, masks).
        let a = test_image(40, 40);
        let b = RgbImage::filled(32, 32, cbir_image::Rgb::new(9, 200, 40));
        let q = Quantizer::hsv_default();
        let mut scratch = ExtractScratch::new();

        let mut va = vec![0.0f32; q.n_bins()];
        ExtractContext::new(&a, &mut scratch, 64)
            .unwrap()
            .color_histogram(&q, &mut va)
            .unwrap();

        let mut vb = vec![0.0f32; q.n_bins()];
        ExtractContext::new(&b, &mut scratch, 64)
            .unwrap()
            .color_histogram(&q, &mut vb)
            .unwrap();

        let mut fresh = ExtractScratch::new();
        let mut vb_fresh = vec![0.0f32; q.n_bins()];
        ExtractContext::new(&b, &mut fresh, 64)
            .unwrap()
            .color_histogram(&q, &mut vb_fresh)
            .unwrap();
        assert_eq!(bits(&vb), bits(&vb_fresh));
        assert_ne!(bits(&va), bits(&vb));
    }

    #[test]
    fn empty_image_is_rejected() {
        let img = RgbImage::filled(0, 0, cbir_image::Rgb::default());
        let mut scratch = ExtractScratch::new();
        assert!(ExtractContext::new(&img, &mut scratch, 64).is_err());
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
