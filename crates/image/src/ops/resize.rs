//! Image resampling: nearest-neighbour (any pixel type) and bilinear
//! (grayscale and RGB). CBIR pipelines normalize every image to a canonical
//! size before feature extraction.

use crate::error::{ImageError, Result};
use crate::image::{GrayImage, ImageBuffer, RgbImage};
use crate::pixel::Rgb;

fn check_target(w: u32, h: u32) -> Result<()> {
    if w == 0 || h == 0 {
        return Err(ImageError::InvalidParameter(format!(
            "target dimensions must be positive, got {w}x{h}"
        )));
    }
    Ok(())
}

/// Nearest-neighbour resampling for any pixel type.
pub fn resize_nearest<P: Copy>(img: &ImageBuffer<P>, w: u32, h: u32) -> Result<ImageBuffer<P>> {
    check_target(w, h)?;
    if img.is_empty() {
        return Err(ImageError::InvalidParameter(
            "cannot resize an empty image".into(),
        ));
    }
    let sx = img.width() as f64 / w as f64;
    let sy = img.height() as f64 / h as f64;
    Ok(ImageBuffer::from_fn(w, h, |x, y| {
        // Sample at the centre of each target pixel.
        let src_x = (((x as f64 + 0.5) * sx) as u32).min(img.width() - 1);
        let src_y = (((y as f64 + 0.5) * sy) as u32).min(img.height() - 1);
        img.pixel(src_x, src_y)
    }))
}

/// Compute source coordinates and weights for bilinear sampling at target
/// pixel centre `t` with scale `s`, for a source axis of length `n`.
#[inline]
fn bilinear_axis(t: u32, s: f64, n: u32) -> (u32, u32, f64) {
    let pos = (t as f64 + 0.5) * s - 0.5;
    let pos = pos.clamp(0.0, (n - 1) as f64);
    let i0 = pos.floor() as u32;
    let i1 = (i0 + 1).min(n - 1);
    (i0, i1, pos - i0 as f64)
}

/// One bilinear sample from its four taps `[p00, p10, p01, p11]` (left
/// and right column of the top row, then of the bottom row) and the weights
/// `fx`, `fy` of the right column and bottom row, in `f64`: `top = p00 +
/// (p10 − p00)·fx`, `bot` likewise, `top + (bot − top)·fy`, rounded half
/// away from zero and clamped.
#[inline]
pub fn bilinear_sample(p: [u8; 4], fx: f64, fy: f64) -> u8 {
    let [p00, p10, p01, p11] = p.map(f64::from);
    let top = p00 + (p10 - p00) * fx;
    let bot = p01 + (p11 - p01) * fx;
    (top + (bot - top) * fy).round().clamp(0.0, 255.0) as u8
}

/// Weights of the integer path are counted in `1/ONE` steps.
const ONE: u16 = 256;

/// `fl(f · 256)` when `f` is a multiple of 1/256 (always exact: a power of
/// two scales only the exponent), else `None`.
fn dyadic_weight(f: f64) -> Option<u16> {
    let w = f * f64::from(ONE);
    (w == w.floor()).then_some(w as u16)
}

/// `a·(256 − w) + b·w`: at most 255·256, so it fits `u16`.
#[inline]
fn blend(a: u8, b: u8, w: u16) -> u16 {
    u16::from(a) * (ONE - w) + u16::from(b) * w
}

/// `(a·(256 − w) + b·w) / 2¹⁶`, rounded half up, for two [`blend`]s `a`,
/// `b`: at most 255·2¹⁶ + 2¹⁵ before the shift, so it fits `u32`.
#[inline]
fn blend_round(a: u16, b: u16, w: u16) -> u8 {
    let (a, b, w) = (u32::from(a), u32::from(b), u32::from(w));
    ((a * (u32::from(ONE) - w) + b * w + (1 << 15)) >> 16) as u8
}

/// [`bilinear_sample`] on the integer path, for weights `wx = fx·256` and
/// `wy = fy·256` below 256: the two `blend`s of a column pair, then
/// `blend_round` across them, as [`resize_bilinear_rgb_into`] runs them.
/// It equals [`bilinear_sample`] for every input (see there for why).
pub fn bilinear_sample_dyadic(p: [u8; 4], wx: u16, wy: u16) -> u8 {
    let [p00, p10, p01, p11] = p;
    blend_round(blend(p00, p01, wy), blend(p10, p11, wy), wx)
}

/// Bilinear resampling of a grayscale image.
pub fn resize_bilinear_gray(img: &GrayImage, w: u32, h: u32) -> Result<GrayImage> {
    check_target(w, h)?;
    if img.is_empty() {
        return Err(ImageError::InvalidParameter(
            "cannot resize an empty image".into(),
        ));
    }
    let sx = img.width() as f64 / w as f64;
    let sy = img.height() as f64 / h as f64;
    Ok(GrayImage::from_fn(w, h, |x, y| {
        let (x0, x1, fx) = bilinear_axis(x, sx, img.width());
        let (y0, y1, fy) = bilinear_axis(y, sy, img.height());
        let p = [
            img.pixel(x0, y0),
            img.pixel(x1, y0),
            img.pixel(x0, y1),
            img.pixel(x1, y1),
        ];
        bilinear_sample(p, fx, fy)
    }))
}

/// Bilinear resampling of an RGB image (per channel).
pub fn resize_bilinear_rgb(img: &RgbImage, w: u32, h: u32) -> Result<RgbImage> {
    let mut out = RgbImage::filled(0, 0, Rgb::default());
    resize_bilinear_rgb_into(img, w, h, &mut ResizeScratch::default(), &mut out)?;
    Ok(out)
}

/// Reusable buffers for [`resize_bilinear_rgb_into`]: the per-column
/// source taps, and one row's intermediates of whichever path runs.
#[derive(Clone, Debug, Default)]
pub struct ResizeScratch {
    /// Left and right source column of each output column.
    x0: Vec<usize>,
    x1: Vec<usize>,
    /// Weight of the right column.
    fx: Vec<f64>,
    /// `fx` in 1/256ths, while every weight of both axes is one.
    wx: Vec<u16>,
    /// Integer path: the source row pair blended by the row weight, one
    /// value per channel byte of a source row.
    blended: Vec<u16>,
    /// `f64` path: the four source samples of each output sample of one
    /// row, `[p00, p10, p01, p11][channel][x]`.
    taps: Vec<u8>,
    /// `f64` path: one output row, `[channel][x]`.
    row: Vec<u8>,
}

/// Bilinear RGB resampling into a caller-provided output buffer, every
/// channel bit-identical to [`resize_bilinear_gray`] of that channel alone
/// (a test holds them equal). The per-column source taps are computed
/// once per call, not per pixel; both buffers reuse their allocations, so
/// repeated steady-state calls allocate nothing.
///
/// **Integer path.** When every weight `bilinear_axis` yields on both
/// axes is a multiple of 1/256 — for every power-of-two target up to 128
/// from any source side, since `pos = (2t + 1)·n/2w − 1/2`, and up to 256
/// from an even one — each output row blends its two source rows once, by
/// the row weight `wy = 256·fy`, over the whole source width (contiguous
/// bytes, see `blend`), then each output sample takes its two columns of
/// that row and blends them by `wx = 256·fx` with rounding
/// (`blend_round`).
///
/// # Proof
///
/// The integer path computes `V = (p00·(256 − wy) + p01·wy)·(256 − wx) +
/// (p10·(256 − wy) + p11·wy)·wx` and returns `⌊(V + 2¹⁵) / 2¹⁶⌋`, with no
/// overflow (see `blend`, `blend_round`). In `f64`, [`bilinear_sample`]
/// rounds nowhere on such weights. Every value it forms is a multiple of
/// 2⁻¹⁶ below 2⁹ in magnitude, so it has at most 25 significant bits and
/// is an `f64` exactly: `(p10 − p00)·fx = (p10 − p00)·wx/2⁸`, then `top =
/// p00 + (p10 − p00)·fx = T/2⁸` with `T = p00·(256 − wx) + p10·wx`, and
/// `bot = B/2⁸` likewise; `bot − top = (B − T)/2⁸`, `(bot − top)·fy =
/// (B − T)·wy/2¹⁶`, and `top + (bot − top)·fy = (T·(256 − wy) +
/// B·wy)/2¹⁶`. Expanding, `T·(256 − wy) + B·wy = V`: both are the same
/// sum of `pᵢⱼ` times weight products. The value `V/2¹⁶` lies in
/// `[0, 255]`, where rounding half away from zero is `⌊V/2¹⁶ + 1/2⌋ =
/// ⌊(V + 2¹⁵)/2¹⁶⌋` and the clamp does nothing. So both paths return the
/// same byte; `exp_extraction_throughput` checks the 1-D case of every
/// byte pair and weight, and the unit tests every source side 1..=300.
///
/// **`f64` path.** Other weights: each output row gathers its four source
/// samples per channel into planar lanes and interpolates them lane by
/// lane: per sample, the same `f64` operations in the same order as
/// [`bilinear_sample`].
pub fn resize_bilinear_rgb_into(
    img: &RgbImage,
    w: u32,
    h: u32,
    scratch: &mut ResizeScratch,
    out: &mut RgbImage,
) -> Result<()> {
    check_target(w, h)?;
    if img.is_empty() {
        return Err(ImageError::InvalidParameter(
            "cannot resize an empty image".into(),
        ));
    }
    let sx = img.width() as f64 / w as f64;
    let sy = img.height() as f64 / h as f64;
    let ResizeScratch {
        x0,
        x1,
        fx,
        wx,
        blended,
        taps,
        row,
    } = scratch;
    x0.clear();
    x1.clear();
    fx.clear();
    for x in 0..w {
        let (a, b, f) = bilinear_axis(x, sx, img.width());
        x0.push(a as usize);
        x1.push(b as usize);
        fx.push(f);
    }
    wx.clear();
    wx.extend(fx.iter().map_while(|&f| dyadic_weight(f)));
    let row_weight = |y| dyadic_weight(bilinear_axis(y, sy, img.height()).2);
    out.reset(w, h, Rgb::default());
    if wx.len() == fx.len() && (0..h).all(|y| row_weight(y).is_some()) {
        let (src_row, dst_row) = (3 * img.width() as usize, 3 * w as usize);
        blended.clear();
        blended.resize(src_row, 0);
        let src = img.as_bytes();
        for (y, dst) in (0..h).zip(out.as_bytes_mut().chunks_exact_mut(dst_row)) {
            let (y0, y1, fy) = bilinear_axis(y, sy, img.height());
            let wy = (fy * f64::from(ONE)) as u16;
            let row = |y: u32| &src[y as usize * src_row..][..src_row];
            for ((b, &p0), &p1) in blended.iter_mut().zip(row(y0)).zip(row(y1)) {
                *b = blend(p0, p1, wy);
            }
            let taps = x0.iter().zip(&x1[..]).zip(&wx[..]);
            for (d, ((&a, &b), &w)) in dst.chunks_exact_mut(3).zip(taps) {
                let (l, r) = (&blended[3 * a..][..3], &blended[3 * b..][..3]);
                for c in 0..3 {
                    d[c] = blend_round(l[c], r[c], w);
                }
            }
        }
        return Ok(());
    }
    let wi = w as usize;
    taps.clear();
    taps.resize(12 * wi, 0);
    row.clear();
    row.resize(3 * wi, 0);
    let (x0, x1, fx) = (&x0[..], &x1[..], &fx[..]);
    for y in 0..h {
        let (y0, y1, fy) = bilinear_axis(y, sy, img.height());
        let (src0, src1) = (img.row(y0), img.row(y1));
        let (t00, rest) = taps.split_at_mut(3 * wi);
        let (t10, rest) = rest.split_at_mut(3 * wi);
        let (t01, t11) = rest.split_at_mut(3 * wi);
        for (x, (&a, &b)) in x0.iter().zip(x1).enumerate() {
            let (p00, p10, p01, p11) = (src0[a].0, src0[b].0, src1[a].0, src1[b].0);
            for c in 0..3 {
                t00[c * wi + x] = p00[c];
                t10[c * wi + x] = p10[c];
                t01[c * wi + x] = p01[c];
                t11[c * wi + x] = p11[c];
            }
        }
        for c in 0..3 {
            let lanes = c * wi..(c + 1) * wi;
            let (p00, p10) = (&t00[lanes.clone()], &t10[lanes.clone()]);
            let (p01, p11) = (&t01[lanes.clone()], &t11[lanes]);
            let samples = &mut row[c * wi..][..wi];
            for x in 0..wi {
                let (p00, p10) = (f64::from(p00[x]), f64::from(p10[x]));
                let (p01, p11) = (f64::from(p01[x]), f64::from(p11[x]));
                let top = p00 + (p10 - p00) * fx[x];
                let bot = p01 + (p11 - p01) * fx[x];
                let v = (top + (bot - top) * fy).round().clamp(0.0, 255.0);
                // An integer in [0, 255]: adding 2^52 leaves it in the low
                // mantissa bits, exactly (a saturating `as u8` does not
                // vectorize).
                samples[x] = (v + 4_503_599_627_370_496.0).to_bits() as u8;
            }
        }
        let (r, rest) = row.split_at(wi);
        let (g, b) = rest.split_at(wi);
        let dst = &mut out.as_mut_slice()[y as usize * wi..][..wi];
        for (((d, &r), &g), &b) in dst.iter_mut().zip(r).zip(g).zip(b) {
            *d = Rgb([r, g, b]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_resize_is_identity() {
        let img = GrayImage::from_fn(7, 5, |x, y| (x * 31 + y * 7) as u8);
        assert_eq!(resize_nearest(&img, 7, 5).unwrap(), img);
        assert_eq!(resize_bilinear_gray(&img, 7, 5).unwrap(), img);
        let rgb = img.to_rgb();
        assert_eq!(resize_bilinear_rgb(&rgb, 7, 5).unwrap(), rgb);
    }

    #[test]
    fn upscale_2x_nearest_replicates() {
        let img = GrayImage::from_vec(2, 1, vec![10, 200]).unwrap();
        let up = resize_nearest(&img, 4, 2).unwrap();
        assert_eq!(up.as_slice(), &[10, 10, 200, 200, 10, 10, 200, 200]);
    }

    #[test]
    fn downscale_nearest_picks_centres() {
        let img = GrayImage::from_fn(4, 4, |x, y| (x + 4 * y) as u8);
        let down = resize_nearest(&img, 2, 2).unwrap();
        // Target pixel (0,0) samples source (1,1)=5; (1,1) samples (3,3)=15.
        assert_eq!(down.as_slice(), &[5, 7, 13, 15]);
    }

    #[test]
    fn bilinear_constant_stays_constant() {
        let img = GrayImage::filled(5, 5, 123);
        for (w, h) in [(3, 3), (10, 7), (1, 1), (13, 2)] {
            let out = resize_bilinear_gray(&img, w, h).unwrap();
            assert!(out.pixels().all(|p| p == 123), "{w}x{h}");
        }
    }

    #[test]
    fn bilinear_ramp_stays_monotone() {
        let img = GrayImage::from_fn(8, 1, |x, _| (x * 30) as u8);
        let out = resize_bilinear_gray(&img, 16, 1).unwrap();
        for w in out.as_slice().windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(out.pixel(0, 0) <= 15);
        assert!(out.pixel(15, 0) >= 195);
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let img = GrayImage::from_vec(2, 1, vec![0, 100]).unwrap();
        let out = resize_bilinear_gray(&img, 4, 1).unwrap();
        // Centres at source positions -0.25(→0), 0.25, 0.75, 1.25(→1).
        assert_eq!(out.as_slice(), &[0, 25, 75, 100]);
    }

    #[test]
    fn rgb_bilinear_channels_independent() {
        let img =
            RgbImage::from_vec(2, 1, vec![Rgb::new(0, 100, 200), Rgb::new(100, 0, 200)]).unwrap();
        let out = resize_bilinear_rgb(&img, 4, 1).unwrap();
        assert_eq!(out.pixel(1, 0), Rgb::new(25, 75, 200));
        assert_eq!(out.pixel(2, 0), Rgb::new(75, 25, 200));
    }

    #[test]
    fn degenerate_arguments_rejected() {
        let img = GrayImage::filled(4, 4, 0);
        assert!(resize_nearest(&img, 0, 4).is_err());
        assert!(resize_bilinear_gray(&img, 4, 0).is_err());
        let empty = GrayImage::filled(0, 0, 0);
        assert!(resize_nearest(&empty, 2, 2).is_err());
        assert!(resize_bilinear_gray(&empty, 2, 2).is_err());
        assert!(resize_bilinear_rgb(&RgbImage::filled(0, 0, Rgb::default()), 2, 2).is_err());
    }

    #[test]
    fn rgb_resize_into_reuses_buffers_and_matches() {
        let img = RgbImage::from_fn(13, 9, |x, y| {
            Rgb::new((x * 19) as u8, (y * 27) as u8, ((x + y) * 11) as u8)
        });
        let mut scratch = ResizeScratch::default();
        let mut out = RgbImage::filled(0, 0, Rgb::default());
        for (w, h) in [(8, 8), (13, 9), (20, 3), (1, 1), (8, 8)] {
            resize_bilinear_rgb_into(&img, w, h, &mut scratch, &mut out).unwrap();
            assert_eq!(out, resize_bilinear_rgb(&img, w, h).unwrap(), "{w}x{h}");
        }
    }

    #[test]
    fn rgb_resize_equals_the_gray_resize_of_each_channel() {
        // The per-pixel scalar formulation, one channel at a time, over
        // downscales (2:1 included), upscales and non-integer ratios.
        let img = RgbImage::from_fn(128, 96, |x, y| {
            Rgb::new(
                ((x * 37 + y * 11) % 256) as u8,
                ((x * y + 3 * y) % 256) as u8,
                ((x ^ y) * 5 % 256) as u8,
            )
        });
        let plane = |c: usize| GrayImage::from_fn(128, 96, |x, y| img.pixel(x, y).0[c]);
        for (w, h) in [(64, 64), (64, 48), (37, 91), (200, 130), (1, 1), (128, 96)] {
            let rgb = resize_bilinear_rgb(&img, w, h).unwrap();
            for c in 0..3 {
                let gray = resize_bilinear_gray(&plane(c), w, h).unwrap();
                let channel: Vec<u8> = rgb.pixels().map(|p| p.0[c]).collect();
                assert_eq!(channel, gray.as_slice(), "{w}x{h} channel {c}");
            }
        }
    }

    #[test]
    fn extreme_downscale_to_one_pixel() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x + y) * 8) as u8);
        let one = resize_bilinear_gray(&img, 1, 1).unwrap();
        // Should be near the image centre value, not an extreme.
        let p = one.pixel(0, 0);
        assert!((100..=140).contains(&p), "{p}");
    }

    #[test]
    fn integer_path_equals_the_f64_samples_for_every_source_side() {
        // Every source side 1..=300 along each axis (the other side 5,
        // which a target side 4 takes on dyadic weights), to the
        // power-of-two targets 32, 64, 128 and to 100, whose weights are
        // multiples of 1/256 only for a source side divisible by 25 (or of
        // 1, where every position clamps to the one column).
        let pattern = |x: u32, y: u32| {
            Rgb::new(
                ((x * 37 + y * 11) % 256) as u8,
                ((x * y + 3 * y) % 256) as u8,
                ((x ^ y) * 5 % 256) as u8,
            )
        };
        for side in 1..=300u32 {
            for target in [32, 64, 128, 100] {
                let dyadic = target != 100 || side % 25 == 0 || side == 1;
                for (sw, sh, tw, th) in [(side, 5, target, 4), (5, side, 4, target)] {
                    let img = RgbImage::from_fn(sw, sh, pattern);
                    let mut scratch = ResizeScratch::default();
                    let mut out = RgbImage::filled(0, 0, Rgb::default());
                    resize_bilinear_rgb_into(&img, tw, th, &mut scratch, &mut out).unwrap();
                    let (sx, sy) = (f64::from(sw) / f64::from(tw), f64::from(sh) / f64::from(th));
                    for (x, y, got) in out.enumerate_pixels() {
                        let (x0, x1, fx) = bilinear_axis(x, sx, sw);
                        let (y0, y1, fy) = bilinear_axis(y, sy, sh);
                        let taps = [(x0, y0), (x1, y0), (x0, y1), (x1, y1)];
                        let want = [0, 1, 2].map(|c| {
                            bilinear_sample(taps.map(|(x, y)| img.pixel(x, y).0[c]), fx, fy)
                        });
                        assert_eq!(got.0, want, "{sw}x{sh} -> {tw}x{th} at ({x}, {y})");
                    }
                    assert_eq!(
                        scratch.blended.is_empty(),
                        !dyadic,
                        "{sw}x{sh} -> {tw}x{th}"
                    );
                }
            }
        }
    }
}
