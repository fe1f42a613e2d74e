//! Color histograms — the workhorse signature of color indexing — plus
//! color moments.

use crate::error::{FeatureError, Result};
use crate::quantize::Quantizer;
use cbir_image::color::rgb_to_hsv;
use cbir_image::RgbImage;

/// Histogram of quantized colors.
#[derive(Clone, Debug, PartialEq)]
pub struct ColorHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl ColorHistogram {
    /// Count quantized colors over the whole image.
    pub fn compute(img: &RgbImage, quantizer: &Quantizer) -> Result<Self> {
        quantizer.validate()?;
        if img.is_empty() {
            return Err(FeatureError::EmptyImage("color histogram"));
        }
        let mut plane = Vec::new();
        quantizer.quantize_into(img.as_slice(), &mut plane);
        let mut counts = vec![0u64; quantizer.n_bins()];
        for &b in &plane {
            counts[b as usize] += 1;
        }
        Ok(ColorHistogram {
            total: img.len() as u64,
            counts,
        })
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of pixels counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Probability-normalized histogram (sums to 1).
    pub fn normalized(&self) -> Vec<f32> {
        let t = self.total as f32;
        self.counts.iter().map(|&c| c as f32 / t).collect()
    }

    /// Cumulative normalized histogram; L1 distances on this are the match
    /// distance.
    pub fn cumulative(&self) -> Vec<f32> {
        let mut acc = 0.0f32;
        let t = self.total as f32;
        self.counts
            .iter()
            .map(|&c| {
                acc += c as f32 / t;
                acc
            })
            .collect()
    }
}

/// Normalized histogram over a pre-quantized bin plane, written into `out`
/// with `counts` reused as the counting buffer. The probabilities are the
/// same `count / total` divisions [`ColorHistogram::normalized`] performs,
/// so results are bit-identical to the two-step path.
pub(crate) fn histogram_normalized_from_indexed(
    plane: &[u16],
    n_bins: usize,
    counts: &mut Vec<u64>,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), n_bins);
    counts.clear();
    counts.resize(n_bins, 0);
    for &b in plane {
        counts[b as usize] += 1;
    }
    let t = plane.len() as u64 as f32;
    for (o, &c) in out.iter_mut().zip(counts.iter()) {
        *o = c as f32 / t;
    }
}

/// The first three statistical moments (mean, standard deviation, skewness
/// cube root) of each HSV channel: a 9-component signature that is far more
/// compact than a histogram yet competitive for coarse color matching.
pub fn color_moments(img: &RgbImage) -> Result<Vec<f32>> {
    if img.is_empty() {
        return Err(FeatureError::EmptyImage("color moments"));
    }
    let mut values = Vec::new();
    let mut out = vec![0.0f32; 9];
    color_moments_into(img, &mut values, &mut out);
    Ok(out)
}

/// [`color_moments`] over a non-empty image, writing the nine moments into
/// `out` and reusing `values` as the per-pixel HSV buffer.
pub(crate) fn color_moments_into(img: &RgbImage, values: &mut Vec<[f32; 3]>, out: &mut [f32]) {
    debug_assert_eq!(out.len(), 9);
    let n = img.len() as f64;
    // Channel extractors into comparable [0,1]-ish ranges.
    let mut sums = [0.0f64; 3];
    values.clear();
    for p in img.pixels() {
        let hsv = rgb_to_hsv(p);
        let v = [hsv.h / 360.0, hsv.s, hsv.v];
        for (s, x) in sums.iter_mut().zip(v) {
            *s += x as f64;
        }
        values.push(v);
    }
    let means = sums.map(|s| s / n);

    let mut m2 = [0.0f64; 3];
    let mut m3 = [0.0f64; 3];
    for v in values.iter() {
        for c in 0..3 {
            let d = v[c] as f64 - means[c];
            m2[c] += d * d;
            m3[c] += d * d * d;
        }
    }
    for c in 0..3 {
        out[3 * c] = means[c] as f32;
        out[3 * c + 1] = (m2[c] / n).sqrt() as f32;
        // Signed cube root of the third moment keeps units linear.
        let third = m3[c] / n;
        out[3 * c + 2] = third.signum() as f32 * (third.abs().powf(1.0 / 3.0)) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_image::Rgb;

    fn checkerboard(a: Rgb, b: Rgb, n: u32) -> RgbImage {
        RgbImage::from_fn(n, n, |x, y| if (x + y) % 2 == 0 { a } else { b })
    }

    #[test]
    fn counts_sum_to_pixel_count() {
        let img = checkerboard(Rgb::new(255, 0, 0), Rgb::new(0, 0, 255), 8);
        let h = ColorHistogram::compute(&img, &Quantizer::rgb_compact()).unwrap();
        assert_eq!(h.counts().iter().sum::<u64>(), 64);
        assert_eq!(h.total(), 64);
    }

    #[test]
    fn normalized_sums_to_one() {
        let img = checkerboard(Rgb::new(10, 200, 30), Rgb::new(0, 0, 0), 9);
        let h = ColorHistogram::compute(&img, &Quantizer::hsv_default()).unwrap();
        let s: f32 = h.normalized().iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cumulative_is_monotone_ending_at_one() {
        let img = checkerboard(Rgb::new(255, 255, 0), Rgb::new(0, 255, 255), 6);
        let h = ColorHistogram::compute(&img, &Quantizer::rgb_compact()).unwrap();
        let c = h.cumulative();
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 1e-7);
        }
        assert!((c.last().unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn layout_invariance_the_known_weakness() {
        // Same colors, different spatial arrangement: histograms identical.
        // This is exactly the limitation correlograms address.
        let a = RgbImage::from_fn(8, 8, |x, _| {
            if x < 4 {
                Rgb::new(255, 0, 0)
            } else {
                Rgb::new(0, 0, 255)
            }
        });
        let b = checkerboard(Rgb::new(255, 0, 0), Rgb::new(0, 0, 255), 8);
        let q = Quantizer::rgb_compact();
        let ha = ColorHistogram::compute(&a, &q).unwrap();
        let hb = ColorHistogram::compute(&b, &q).unwrap();
        assert_eq!(ha, hb);
    }

    #[test]
    fn empty_image_rejected() {
        let img = RgbImage::filled(0, 0, Rgb::default());
        assert!(ColorHistogram::compute(&img, &Quantizer::rgb_compact()).is_err());
        assert!(color_moments(&img).is_err());
    }

    #[test]
    fn invalid_quantizer_rejected() {
        let img = RgbImage::filled(2, 2, Rgb::default());
        assert!(ColorHistogram::compute(&img, &Quantizer::Gray { bins: 1 }).is_err());
    }

    #[test]
    fn moments_of_uniform_image() {
        let img = RgbImage::filled(8, 8, Rgb::new(255, 0, 0));
        let m = color_moments(&img).unwrap();
        assert_eq!(m.len(), 9);
        // Constant image: all std-devs and skews are 0.
        assert!(m[1].abs() < 1e-5 && m[2].abs() < 1e-5); // hue
        assert!(m[4].abs() < 1e-5 && m[5].abs() < 1e-5); // sat
        assert!(m[7].abs() < 1e-5 && m[8].abs() < 1e-5); // val
                                                         // Saturation and value of pure red are 1.
        assert!((m[3] - 1.0).abs() < 1e-5);
        assert!((m[6] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn moments_detect_brightness_difference() {
        let dark = RgbImage::filled(8, 8, Rgb::new(30, 30, 30));
        let bright = RgbImage::filled(8, 8, Rgb::new(220, 220, 220));
        let md = color_moments(&dark).unwrap();
        let mb = color_moments(&bright).unwrap();
        assert!(mb[6] > md[6] + 0.5); // value mean separates them
    }

    #[test]
    fn moments_skewness_sign() {
        // Mostly dark pixels with a few bright ones: value distribution is
        // right-skewed (positive skew).
        let img = RgbImage::from_fn(10, 10, |x, y| {
            if x == 0 && y < 3 {
                Rgb::new(250, 250, 250)
            } else {
                Rgb::new(20, 20, 20)
            }
        });
        let m = color_moments(&img).unwrap();
        assert!(m[8] > 0.0, "value skew should be positive, got {}", m[8]);
    }
}
