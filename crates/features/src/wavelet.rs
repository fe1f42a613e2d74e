//! 2-D Haar wavelet transform and the multi-level subband-energy signature.
//!
//! The orthonormal Haar pair `(a, b) -> ((a+b)/√2, (a-b)/√2)` is used so the
//! transform preserves energy (Parseval), which makes subband energies
//! directly comparable across levels. The classical 3-level decomposition
//! yields 10 subbands (3 detail bands per level plus the final
//! approximation), whose root-mean-square energies form a compact signature
//! capturing texture and coarse shape.

use crate::error::{FeatureError, Result};
use cbir_image::{FloatImage, GrayImage};

const SQRT2_INV: f32 = std::f32::consts::FRAC_1_SQRT_2;

/// One level of the 1-D orthonormal Haar transform over `data[..n]`,
/// writing approximations to the first half and details to the second.
fn haar_1d(data: &mut [f32], n: usize, scratch: &mut Vec<f32>) {
    let half = n / 2;
    scratch.clear();
    scratch.extend_from_slice(&data[..n]);
    for i in 0..half {
        let a = scratch[2 * i];
        let b = scratch[2 * i + 1];
        data[i] = (a + b) * SQRT2_INV;
        data[half + i] = (a - b) * SQRT2_INV;
    }
}

/// Inverse of [`haar_1d`].
fn haar_1d_inv(data: &mut [f32], n: usize, scratch: &mut Vec<f32>) {
    let half = n / 2;
    scratch.clear();
    scratch.extend_from_slice(&data[..n]);
    for i in 0..half {
        let s = scratch[i];
        let d = scratch[half + i];
        data[2 * i] = (s + d) * SQRT2_INV;
        data[2 * i + 1] = (s - d) * SQRT2_INV;
    }
}

/// `levels` levels of the forward transform of `coeffs` in place: each
/// level transforms the rows, then the columns, of the previous level's
/// approximation block.
///
/// Each output is `(a + b)·(1/√2)` or `(a - b)·(1/√2)` of one pair, the
/// same operations on the same operands as [`haar_1d`] over each column;
/// the column pass just takes a whole row of columns at a time (pairs of
/// rows, lane by lane) instead of gathering each column with stride.
fn forward_levels(coeffs: &mut FloatImage, levels: u32, scratch: &mut Vec<f32>) {
    let w = coeffs.width() as usize;
    let data = coeffs.as_mut_slice();
    let (mut cw, mut ch) = (w, data.len() / w);
    for _ in 0..levels {
        for row in data.chunks_exact_mut(w).take(ch) {
            haar_1d(&mut row[..cw], cw, scratch);
        }
        scratch.clear();
        for row in data.chunks_exact(w).take(ch) {
            scratch.extend_from_slice(&row[..cw]);
        }
        let half = ch / 2;
        for (i, pair) in scratch.chunks_exact(2 * cw).enumerate() {
            let (a, b) = pair.split_at(cw);
            let sum = &mut data[i * w..][..cw];
            for ((s, &a), &b) in sum.iter_mut().zip(a).zip(b) {
                *s = (a + b) * SQRT2_INV;
            }
            let difference = &mut data[(half + i) * w..][..cw];
            for ((d, &a), &b) in difference.iter_mut().zip(a).zip(b) {
                *d = (a - b) * SQRT2_INV;
            }
        }
        cw /= 2;
        ch /= 2;
    }
}

/// A multi-level 2-D Haar decomposition (Mallat layout: each level
/// transforms the top-left approximation quadrant of the previous one).
#[derive(Clone, Debug)]
pub struct HaarDecomposition {
    coeffs: FloatImage,
    levels: u32,
}

/// The three detail orientations at each pyramid level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Subband {
    /// Horizontal detail (vertical edges): high-pass in x, low-pass in y.
    Lh,
    /// Vertical detail (horizontal edges): low-pass in x, high-pass in y.
    Hl,
    /// Diagonal detail: high-pass in both.
    Hh,
}

impl HaarDecomposition {
    /// Forward transform. Image dimensions must be divisible by `2^levels`
    /// and `levels >= 1`.
    pub fn forward(img: &FloatImage, levels: u32) -> Result<Self> {
        let (w, h) = img.dimensions();
        if levels == 0 {
            return Err(FeatureError::InvalidParameter(
                "wavelet levels must be >= 1".into(),
            ));
        }
        let div = 1u32 << levels;
        if w == 0 || h == 0 || w % div != 0 || h % div != 0 {
            return Err(FeatureError::InvalidParameter(format!(
                "image {w}x{h} not divisible by 2^{levels}"
            )));
        }
        let mut coeffs = img.clone();
        forward_levels(&mut coeffs, levels, &mut Vec::new());
        Ok(HaarDecomposition { coeffs, levels })
    }

    /// Invert back to the spatial domain.
    pub fn inverse(&self) -> FloatImage {
        let mut img = self.coeffs.clone();
        let (w, h) = img.dimensions();
        let mut scratch = Vec::new();
        for level in (0..self.levels).rev() {
            let cw = (w >> (level + 1)) as usize * 2;
            let ch = (h >> (level + 1)) as usize * 2;
            // Columns first (reverse of forward order).
            let mut col = vec![0.0f32; ch];
            for x in 0..cw {
                for (y, c) in col.iter_mut().enumerate() {
                    *c = img.pixel(x as u32, y as u32);
                }
                haar_1d_inv(&mut col, ch, &mut scratch);
                for (y, &c) in col.iter().enumerate() {
                    img.set(x as u32, y as u32, c);
                }
            }
            let mut row = vec![0.0f32; cw];
            for y in 0..ch {
                for (x, r) in row.iter_mut().enumerate() {
                    *r = img.pixel(x as u32, y as u32);
                }
                haar_1d_inv(&mut row, cw, &mut scratch);
                for (x, &r) in row.iter().enumerate() {
                    img.set(x as u32, y as u32, r);
                }
            }
        }
        img
    }

    /// Number of decomposition levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Raw coefficient plane (Mallat layout).
    pub fn coefficients(&self) -> &FloatImage {
        &self.coeffs
    }

    /// Extract a detail subband at `level` (1-based, 1 = finest).
    pub fn subband(&self, level: u32, band: Subband) -> Result<FloatImage> {
        if level == 0 || level > self.levels {
            return Err(FeatureError::InvalidParameter(format!(
                "level {level} out of 1..={}",
                self.levels
            )));
        }
        let (w, h) = self.coeffs.dimensions();
        let bw = w >> level;
        let bh = h >> level;
        let (x0, y0) = match band {
            Subband::Lh => (bw, 0),
            Subband::Hl => (0, bh),
            Subband::Hh => (bw, bh),
        };
        Ok(self.coeffs.crop(x0, y0, bw, bh)?)
    }

    /// Extract the final approximation (LL) band.
    pub fn approximation(&self) -> FloatImage {
        let (w, h) = self.coeffs.dimensions();
        let bw = w >> self.levels;
        let bh = h >> self.levels;
        self.coeffs
            .crop(0, 0, bw, bh)
            .expect("approximation band is always in bounds")
    }
}

/// Root-mean-square of a coefficient plane.
#[cfg_attr(not(test), allow(dead_code))]
fn rms(img: &FloatImage) -> f32 {
    if img.is_empty() {
        return 0.0;
    }
    (img.pixels().map(|p| p * p).sum::<f32>() / img.len() as f32).sqrt()
}

/// The wavelet signature: RMS energy of every detail subband at every level
/// plus the final approximation, `3 * levels + 1` values ordered
/// `[L1-LH, L1-HL, L1-HH, L2-LH, ..., LL]`. Three levels give the classical
/// 10-component signature.
pub fn wavelet_signature(img: &GrayImage, levels: u32) -> Result<Vec<f32>> {
    let mut ws = WaveletScratch::default();
    let mut out = vec![0.0f32; 3 * levels as usize + 1];
    wavelet_signature_into(img, levels, &mut ws, &mut out)?;
    Ok(out)
}

/// Reusable buffers for [`wavelet_signature_into`]: the coefficient plane
/// plus the scratch vector of the in-place transform.
pub(crate) struct WaveletScratch {
    coeffs: FloatImage,
    scratch: Vec<f32>,
}

impl Default for WaveletScratch {
    fn default() -> Self {
        WaveletScratch {
            coeffs: FloatImage::filled(0, 0, 0.0),
            scratch: Vec::new(),
        }
    }
}

/// [`wavelet_signature`] into a caller-provided output slice, reusing
/// `ws`'s buffers. The transform mirrors [`HaarDecomposition::forward`]
/// over `to_float_normalized` pixel values, and each subband RMS sums the
/// same row-major coefficient order [`rms`] sees after `crop` — results
/// are bit-identical to the decomposition-object path.
pub(crate) fn wavelet_signature_into(
    img: &GrayImage,
    levels: u32,
    ws: &mut WaveletScratch,
    out: &mut [f32],
) -> Result<()> {
    debug_assert_eq!(out.len(), 3 * levels as usize + 1);
    let (w, h) = img.dimensions();
    if levels == 0 {
        return Err(FeatureError::InvalidParameter(
            "wavelet levels must be >= 1".into(),
        ));
    }
    let div = 1u32 << levels;
    if w == 0 || h == 0 || w % div != 0 || h % div != 0 {
        return Err(FeatureError::InvalidParameter(format!(
            "image {w}x{h} not divisible by 2^{levels}"
        )));
    }
    ws.coeffs.reset(w, h, 0.0);
    for (c, &p) in ws.coeffs.as_mut_slice().iter_mut().zip(img.as_slice()) {
        *c = p as f32 / 255.0;
    }
    forward_levels(&mut ws.coeffs, levels, &mut ws.scratch);
    let coeffs = &ws.coeffs;
    let mut oi = 0;
    for level in 1..=levels {
        let bw = (w >> level) as usize;
        let bh = (h >> level) as usize;
        // Subband origins in Mallat layout: LH, HL, HH.
        for (x0, y0) in [(bw, 0), (0, bh), (bw, bh)] {
            out[oi] = rms_region(coeffs, x0, y0, bw, bh);
            oi += 1;
        }
    }
    let bw = (w >> levels) as usize;
    let bh = (h >> levels) as usize;
    out[oi] = rms_region(coeffs, 0, 0, bw, bh);
    Ok(())
}

/// RMS over a rectangular region, summing in the same row-major order as
/// [`rms`] over the cropped plane.
fn rms_region(img: &FloatImage, x0: usize, y0: usize, bw: usize, bh: usize) -> f32 {
    if bw == 0 || bh == 0 {
        return 0.0;
    }
    let w = img.width() as usize;
    let mut s = 0.0f32;
    for y in y0..y0 + bh {
        for &p in &img.as_slice()[y * w + x0..y * w + x0 + bw] {
            s += p * p;
        }
    }
    (s / (bw * bh) as f32).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image(n: u32) -> FloatImage {
        FloatImage::from_fn(n, n, |x, y| ((x * 31 + y * 17) % 97) as f32 / 97.0)
    }

    #[test]
    fn signature_matches_decomposition_assembly_bitwise() {
        // wavelet_signature now runs the in-place scratch transform; it must
        // reproduce the decomposition-object + crop + rms path to the bit.
        let gray = GrayImage::from_fn(48, 48, |x, y| ((x * 13 + y * 29) % 256) as u8);
        for levels in 1..=3u32 {
            let got = wavelet_signature(&gray, levels).unwrap();
            let dec = HaarDecomposition::forward(&gray.to_float_normalized(), levels).unwrap();
            let mut want = Vec::new();
            for level in 1..=levels {
                for band in [Subband::Lh, Subband::Hl, Subband::Hh] {
                    want.push(rms(&dec.subband(level, band).unwrap()));
                }
            }
            want.push(rms(&dec.approximation()));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "levels {levels}");
        }
    }

    #[test]
    fn perfect_reconstruction() {
        for levels in 1..=3 {
            let img = test_image(16);
            let dec = HaarDecomposition::forward(&img, levels).unwrap();
            let rec = dec.inverse();
            for (a, b) in img.pixels().zip(rec.pixels()) {
                assert!((a - b).abs() < 1e-5, "level {levels}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parseval_energy_preservation() {
        let img = test_image(32);
        let energy = |im: &FloatImage| im.pixels().map(|p| p * p).sum::<f32>();
        for levels in 1..=4 {
            let dec = HaarDecomposition::forward(&img, levels).unwrap();
            let e0 = energy(&img);
            let e1 = energy(dec.coefficients());
            assert!((e0 - e1).abs() < 1e-2 * e0.max(1.0), "{e0} vs {e1}");
        }
    }

    #[test]
    fn constant_image_concentrates_in_ll() {
        let img = FloatImage::filled(8, 8, 5.0);
        let dec = HaarDecomposition::forward(&img, 3).unwrap();
        for level in 1..=3 {
            for band in [Subband::Lh, Subband::Hl, Subband::Hh] {
                let sb = dec.subband(level, band).unwrap();
                assert!(sb.pixels().all(|p| p.abs() < 1e-5));
            }
        }
        // 1x1 approximation carries all energy: value = 5 * 8 = 40
        // (each of 3 levels of 2-D transform scales LL by 2).
        let ll = dec.approximation();
        assert_eq!(ll.dimensions(), (1, 1));
        assert!((ll.pixel(0, 0) - 40.0).abs() < 1e-3);
    }

    #[test]
    fn vertical_edges_land_in_lh() {
        // Vertical stripes (variation along x) -> LH (high-pass x) band.
        let img = FloatImage::from_fn(16, 16, |x, _| if x % 2 == 0 { 0.0 } else { 1.0 });
        let dec = HaarDecomposition::forward(&img, 1).unwrap();
        let lh = rms(&dec.subband(1, Subband::Lh).unwrap());
        let hl = rms(&dec.subband(1, Subband::Hl).unwrap());
        let hh = rms(&dec.subband(1, Subband::Hh).unwrap());
        assert!(lh > 0.3);
        assert!(hl < 1e-6);
        assert!(hh < 1e-6);
    }

    #[test]
    fn horizontal_edges_land_in_hl() {
        let img = FloatImage::from_fn(16, 16, |_, y| if y % 2 == 0 { 0.0 } else { 1.0 });
        let dec = HaarDecomposition::forward(&img, 1).unwrap();
        assert!(rms(&dec.subband(1, Subband::Hl).unwrap()) > 0.3);
        assert!(rms(&dec.subband(1, Subband::Lh).unwrap()) < 1e-6);
    }

    #[test]
    fn coarse_stripes_appear_at_coarser_levels() {
        // Stripes in blocks of 4 (period 8): pairs are equal at levels 1
        // and 2, so all detail lands exactly at level 3.
        let img = FloatImage::from_fn(32, 32, |x, _| if (x / 4) % 2 == 0 { 0.0 } else { 1.0 });
        let dec = HaarDecomposition::forward(&img, 3).unwrap();
        let l1 = rms(&dec.subband(1, Subband::Lh).unwrap());
        let l2 = rms(&dec.subband(2, Subband::Lh).unwrap());
        let l3 = rms(&dec.subband(3, Subband::Lh).unwrap());
        assert!(l1 < 1e-6, "fine band saw coarse stripes: {l1}");
        assert!(l2 < 1e-6, "mid band saw coarse stripes: {l2}");
        assert!(l3 > 0.5, "coarse band missed stripes: {l3}");
    }

    #[test]
    fn signature_shape_and_determinism() {
        let img = GrayImage::from_fn(64, 64, |x, y| ((x * 3 + y * 5) % 256) as u8);
        let sig = wavelet_signature(&img, 3).unwrap();
        assert_eq!(sig.len(), 10);
        assert!(sig.iter().all(|&v| v >= 0.0 && v.is_finite()));
        assert_eq!(sig, wavelet_signature(&img, 3).unwrap());
    }

    #[test]
    fn signature_separates_smooth_from_textured() {
        let smooth = GrayImage::from_fn(64, 64, |x, y| ((x + y) / 2) as u8);
        let textured = GrayImage::from_fn(64, 64, |x, y| if (x + y) % 2 == 0 { 0 } else { 255 });
        let ss = wavelet_signature(&smooth, 3).unwrap();
        let st = wavelet_signature(&textured, 3).unwrap();
        // Fine-detail energy dominates for the checkerboard.
        assert!(st[0] + st[1] + st[2] > 10.0 * (ss[0] + ss[1] + ss[2]));
    }

    #[test]
    fn validation() {
        let img = FloatImage::filled(12, 12, 0.0);
        assert!(HaarDecomposition::forward(&img, 0).is_err());
        assert!(HaarDecomposition::forward(&img, 3).is_err()); // 12 % 8 != 0
        assert!(HaarDecomposition::forward(&img, 2).is_ok()); // 12 % 4 == 0
        let empty = FloatImage::filled(0, 0, 0.0);
        assert!(HaarDecomposition::forward(&empty, 1).is_err());
        let dec = HaarDecomposition::forward(&FloatImage::filled(8, 8, 0.0), 2).unwrap();
        assert!(dec.subband(0, Subband::Lh).is_err());
        assert!(dec.subband(3, Subband::Lh).is_err());
    }

    #[test]
    fn subband_dimensions() {
        let dec = HaarDecomposition::forward(&FloatImage::filled(32, 16, 1.0), 2).unwrap();
        assert_eq!(dec.subband(1, Subband::Hh).unwrap().dimensions(), (16, 8));
        assert_eq!(dec.subband(2, Subband::Hh).unwrap().dimensions(), (8, 4));
        assert_eq!(dec.approximation().dimensions(), (8, 4));
        assert_eq!(dec.levels(), 2);
    }
}
