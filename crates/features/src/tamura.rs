//! Tamura texture features: coarseness, contrast, and directionality — the
//! triple designed to match human texture perception.

use crate::error::{FeatureError, Result};
use cbir_image::ops::{orientation_bins_into, sobel, IntegralImage};
use cbir_image::{FloatImage, GrayImage};

/// Mean over the `2^k × 2^k` window centred at `(x, y)`, or `None` if the
/// window does not fit entirely inside the image. Partial (clamped) windows
/// are rejected rather than approximated: a truncated window has a slightly
/// different mean, which would hand the arg-max spurious nonzero responses
/// at large scales on textures whose true response there is zero.
///
/// This is the reference formulation; [`coarseness_core`] compares the
/// same responses as scaled integers with the bounds tests hoisted (a test
/// asserts the same winning scale at every pixel).
#[cfg_attr(not(test), allow(dead_code))]
fn window_mean(ii: &IntegralImage, x: i64, y: i64, k: u32) -> Option<f64> {
    let half = (1i64 << k) / 2;
    let w = ii.width() as i64;
    let h = ii.height() as i64;
    let x0 = x - half;
    let y0 = y - half;
    let x1 = x + half - 1;
    let y1 = y + half - 1;
    if x0 < 0 || y0 < 0 || x1 >= w || y1 >= h {
        return None;
    }
    Some(ii.mean(x0 as u32, y0 as u32, x1 as u32, y1 as u32))
}

/// Tamura coarseness: for each pixel, find the window size `2^k` that
/// maximizes the intensity difference between opposite neighbourhoods, and
/// average the winning sizes. Large values mean coarse (large-grain)
/// texture.
pub fn coarseness(img: &GrayImage, max_k: u32) -> Result<f64> {
    if img.is_empty() {
        return Err(FeatureError::EmptyImage("tamura coarseness"));
    }
    if max_k == 0 || max_k > 8 {
        return Err(FeatureError::InvalidParameter(format!(
            "coarseness max_k must be in 1..=8, got {max_k}"
        )));
    }
    let ii = IntegralImage::new(img);
    Ok(coarseness_core(&ii, max_k))
}

/// Reusable buffers for [`coarseness_core_into`]: the running arg-max
/// planes, one row of responses, and one row of column-prefix sums. All
/// are sized to the image on first use and reused across images.
#[derive(Default)]
pub(crate) struct CoarsenessScratch {
    /// Best scaled response so far per pixel (see [`coarseness_core_into`]).
    best_v: Vec<i32>,
    /// Scale `k` of that response (1 where nothing beat zero).
    best_k: Vec<i32>,
    /// `max(E_h, E_v)` of one row at the current scale, scaled; zero where
    /// the opposed windows do not fit.
    row: Vec<i32>,
    /// Per-row combination of summed-area-table rows (`w + 1` entries),
    /// modulo 2³².
    cs: Vec<i32>,
}

/// [`coarseness`] over a prebuilt integral image (whose dimensions are the
/// image's). Allocates its scratch; hot paths keep a
/// [`CoarsenessScratch`] alive and call [`coarseness_core_into`].
pub(crate) fn coarseness_core(ii: &IntegralImage, max_k: u32) -> f64 {
    coarseness_core_into(ii, max_k, &mut CoarsenessScratch::default())
}

/// Scale-major coarseness in `i32` lanes, with the per-scale in-bounds
/// tests of [`window_mean`] hoisted into rectangle bounds and each row's
/// window sums derived from one precomputed prefix combination.
///
/// For the horizontal pair at row `y`, both opposed windows span rows
/// `[y-half, y+half-1]`, so with `cs[c] = colprefix(c)` (the sum of those
/// rows left of column `c`) the response numerator is
/// `num = |cs[x+2^k] - 2·cs[x] + cs[x-2^k]|`, an exact integer. The
/// vertical pair is the transpose with `cs[c] = prefix(y+2^k) -
/// 2·prefix(y) + prefix(y-2^k)` per column.
///
/// [`window_mean`]'s response is `num / 4^k` in `f64`, and exact: window
/// sums are < 2^24 and `4^k` is a power of two. So comparing responses
/// across scales is comparing `num_k / 4^k`, which is comparing the
/// integers `v_k = num_k · 4^(kmax-k)`; `num_k ≤ 255·4^k`, so `v_k ≤
/// 255·4^kmax < 2^31` for every `kmax ≤ 8` (the API's limit) and fits an
/// `i32` lane. The prefix combinations are taken modulo 2³² (wrapping),
/// which is exact for `num` because its true value fits. Scanning scales
/// in ascending order with the same tie rule then picks the same winning
/// scale per pixel as the `f64` formulation, and the mean of `2^k` is the
/// same exact sum (a test holds the two equal per pixel).
pub(crate) fn coarseness_core_into(
    ii: &IntegralImage,
    max_k: u32,
    s: &mut CoarsenessScratch,
) -> f64 {
    let (w, h) = (ii.width() as usize, ii.height() as usize);
    let kmax = max_k.min({
        // Largest window that fits.
        let mut k = 1;
        while (2usize << k) <= w.min(h) {
            k += 1;
        }
        k
    });
    assert!(kmax <= 8, "255 * 4^kmax must fit an i32");
    let CoarsenessScratch {
        best_v,
        best_k,
        row,
        cs,
    } = s;
    best_v.clear();
    best_v.resize(w * h, 0);
    best_k.clear();
    best_k.resize(w * h, 1);
    row.clear();
    row.resize(w, 0);
    cs.clear();
    cs.resize(w + 1, 0);
    let (best_v, best_k, row, cs) = (&mut best_v[..], &mut best_k[..], &mut row[..], &mut cs[..]);
    let prefix = |y: usize| ii.row_prefix(y as u32);

    for k in 1..=kmax {
        let half = 1usize << (k - 1);
        let win = 2 * half;
        let shift = 2 * (kmax - k);
        let k = k as i32;
        // Pixels whose windows fit at this scale sit in rows and columns
        // [half, dim - half]; everything else keeps a zero response,
        // which never updates the arg-max.
        for y in half..=h.saturating_sub(half) {
            row.fill(0);
            // Horizontal pair: windows [x-2^k, x-1] and [x, x+2^k-1] by
            // column, both spanning rows [y-half, y+half-1].
            let (top, bot) = (prefix(y - half), prefix(y + half));
            for ((c, &b), &t) in cs.iter_mut().zip(bot).zip(top) {
                *c = (b - t) as i32;
            }
            if w >= 2 * win {
                let n = w - 2 * win + 1;
                let lanes = row[win..][..n]
                    .iter_mut()
                    .zip(&cs[2 * win..])
                    .zip(&cs[win..]);
                for (((r, &right), &mid), &left) in lanes.zip(&cs[..n]) {
                    let num = right.wrapping_sub(mid.wrapping_mul(2)).wrapping_add(left);
                    *r = num.abs() << shift;
                }
            }
            // Vertical pair is the transpose: windows [y-2^k, y-1] and
            // [y, y+2^k-1] by row, both spanning columns [x-half, x+half-1].
            let n = (w + 1).saturating_sub(win);
            if y >= win && y + win <= h {
                let (up, mid, down) = (prefix(y - win), prefix(y), prefix(y + win));
                for (((c, &d), &m), &u) in cs.iter_mut().zip(down).zip(mid).zip(up) {
                    *c = (d as i32)
                        .wrapping_sub((m as i32).wrapping_mul(2))
                        .wrapping_add(u as i32);
                }
                let lanes = row[half..][..n].iter_mut().zip(&cs[win..]).zip(&cs[..n]);
                for ((r, &after), &before) in lanes {
                    *r = (*r).max(after.wrapping_sub(before).abs() << shift);
                }
            }
            // Fold into the running arg-max. `v > best || (v > 0 && v ==
            // best)` with `best ≥ 0` is `v ≥ best && v > 0`: ties between
            // positive responses go to the coarser scale (a block of width
            // 2^k responds identically at all window sizes up to 2^k, and
            // the grain size is the largest).
            let at = y * w + half;
            let lanes = row[half..][..n].iter().zip(&mut best_v[at..][..n]);
            for ((&v, bv), bk) in lanes.zip(&mut best_k[at..][..n]) {
                if v >= *bv && v > 0 {
                    *bv = v;
                    *bk = k;
                }
            }
        }
    }

    // A sum of powers of two below 2^53: exact, whatever the order.
    let total: u64 = best_k.iter().map(|&k| 1u64 << k).sum();
    total as f64 / (w as f64 * h as f64)
}

/// Tamura contrast: `σ / κ^{1/4}` where `σ` is the intensity standard
/// deviation and `κ` the kurtosis (`μ₄/σ⁴`). Zero for a constant image.
pub fn contrast(img: &GrayImage) -> Result<f64> {
    if img.is_empty() {
        return Err(FeatureError::EmptyImage("tamura contrast"));
    }
    let n = img.len() as f64;
    let mean = img.pixels().map(|p| p as f64).sum::<f64>() / n;
    let mut m2 = 0.0;
    let mut m4 = 0.0;
    for p in img.pixels() {
        let d = p as f64 - mean;
        let d2 = d * d;
        m2 += d2;
        m4 += d2 * d2;
    }
    m2 /= n;
    m4 /= n;
    if m2 <= 1e-12 {
        return Ok(0.0);
    }
    let kurtosis = m4 / (m2 * m2);
    Ok(m2.sqrt() / kurtosis.powf(0.25))
}

/// Tamura directionality in `[0, 1]`: 1 when all significant gradients
/// share one orientation, near 0 for isotropic texture.
///
/// Computed as `1 - H/H_max` where `H` is the entropy of the
/// magnitude-weighted orientation histogram (`bins` bins over `[0, π)`).
pub fn directionality(img: &GrayImage, bins: usize) -> Result<f64> {
    if !(2..=256).contains(&bins) {
        return Err(FeatureError::InvalidParameter(format!(
            "directionality bins must be in 2..=256, got {bins}"
        )));
    }
    if img.is_empty() {
        return Err(FeatureError::EmptyImage("tamura directionality"));
    }
    let g = sobel::sobel(img);
    let mut bin_of = Vec::new();
    orientation_bins_into(&g.gx, &g.gy, bins, &mut bin_of);
    let mut hist = Vec::new();
    Ok(directionality_core(
        &g.magnitude(),
        &bin_of,
        bins,
        &mut hist,
    ))
}

/// [`directionality`] over a precomputed magnitude plane and the
/// per-pixel orientation bins ([`orientation_bins_into`]), with `hist`
/// reused as the accumulation buffer. Note the running `total`: it is
/// accumulated per pixel (not summed over bins afterwards), mirroring the
/// original formulation exactly.
pub(crate) fn directionality_core(
    mag: &FloatImage,
    bin_of: &[u8],
    bins: usize,
    hist: &mut Vec<f64>,
) -> f64 {
    hist.clear();
    hist.resize(bins, 0.0);
    let mut total = 0.0f64;
    for (&m, &b) in mag.as_slice().iter().zip(bin_of) {
        if m <= 0.0 {
            continue;
        }
        hist[b as usize] += m as f64;
        total += m as f64;
    }
    if total <= 0.0 {
        // No gradients: perfectly isotropic by convention.
        return 0.0;
    }
    let entropy: f64 = hist
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|&v| {
            let p = v / total;
            -p * p.ln()
        })
        .sum();
    let h_max = (bins as f64).ln();
    (1.0 - entropy / h_max).clamp(0.0, 1.0)
}

/// The three Tamura features as `[coarseness, contrast, directionality]`,
/// with coarseness log₂-scaled onto a small range for use in composite
/// vectors.
pub fn tamura_features(img: &GrayImage) -> Result<Vec<f32>> {
    let c = coarseness(img, 5)?;
    let con = contrast(img)?;
    let d = directionality(img, 16)?;
    Ok(vec![c.log2() as f32, (con / 128.0) as f32, d as f32])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes(n: u32, period: u32, horizontal: bool) -> GrayImage {
        GrayImage::from_fn(n, n, |x, y| {
            let t = if horizontal { y } else { x };
            if (t / period).is_multiple_of(2) {
                30
            } else {
                220
            }
        })
    }

    fn noise(n: u32) -> GrayImage {
        GrayImage::from_fn(n, n, |x, y| {
            ((x * 7919 + y * 104729 + x * y * 37) % 256) as u8
        })
    }

    #[test]
    fn coarseness_orders_texture_scales() {
        // Note: period-1 stripes are degenerate for the Tamura operator
        // (every even window has the same mean), so the finest meaningful
        // grain is block width 2.
        let fine = stripes(64, 2, false);
        let coarse = stripes(64, 8, false);
        let cf = coarseness(&fine, 5).unwrap();
        let cc = coarseness(&coarse, 5).unwrap();
        assert!(cc > cf, "coarse {cc} should exceed fine {cf}");
    }

    #[test]
    fn coarseness_bounds() {
        let img = noise(32);
        let c = coarseness(&img, 5).unwrap();
        assert!(c >= 2.0); // smallest window is 2^1
        assert!(c <= 32.0); // largest allowed is 2^5
    }

    #[test]
    fn contrast_orders_dynamic_ranges() {
        let low = GrayImage::from_fn(32, 32, |x, y| 120 + ((x + y) % 16) as u8);
        let high = stripes(32, 4, false);
        let cl = contrast(&low).unwrap();
        let ch = contrast(&high).unwrap();
        assert!(ch > cl * 2.0, "high {ch} vs low {cl}");
    }

    #[test]
    fn contrast_of_constant_is_zero() {
        assert_eq!(contrast(&GrayImage::filled(16, 16, 80)).unwrap(), 0.0);
    }

    #[test]
    fn directionality_separates_stripes_from_noise() {
        let d_stripes = directionality(&stripes(64, 4, false), 16).unwrap();
        let d_noise = directionality(&noise(64), 16).unwrap();
        assert!(
            d_stripes > 0.8,
            "stripes should be highly directional: {d_stripes}"
        );
        assert!(
            d_noise < 0.5,
            "noise should be weakly directional: {d_noise}"
        );
    }

    #[test]
    fn directionality_is_orientation_magnitude_not_direction() {
        // Horizontal and vertical stripes are both perfectly directional.
        let dh = directionality(&stripes(64, 4, true), 16).unwrap();
        let dv = directionality(&stripes(64, 4, false), 16).unwrap();
        assert!((dh - dv).abs() < 0.1, "{dh} vs {dv}");
    }

    #[test]
    fn flat_image_conventions() {
        let flat = GrayImage::filled(32, 32, 99);
        assert_eq!(directionality(&flat, 16).unwrap(), 0.0);
        assert_eq!(contrast(&flat).unwrap(), 0.0);
        // Coarseness on a flat image is defined (ties resolve to smallest
        // window), just not meaningful.
        assert!(coarseness(&flat, 5).is_ok());
    }

    #[test]
    fn combined_vector_shape() {
        let f = tamura_features(&noise(64)).unwrap();
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|v| v.is_finite()));
        assert!((0.0..=1.0).contains(&f[2]));
    }

    #[test]
    fn validation() {
        let img = GrayImage::filled(8, 8, 0);
        assert!(coarseness(&img, 0).is_err());
        assert!(coarseness(&img, 9).is_err());
        assert!(directionality(&img, 1).is_err());
        assert!(directionality(&img, 300).is_err());
        let empty = GrayImage::filled(0, 0, 0);
        assert!(coarseness(&empty, 3).is_err());
        assert!(contrast(&empty).is_err());
        assert!(directionality(&empty, 8).is_err());
    }

    /// The straightforward per-pixel [`window_mean`] arg-max: the winning
    /// scale of every pixel, row-major.
    fn reference_best_k(img: &GrayImage, max_k: u32) -> Vec<i32> {
        let ii = IntegralImage::new(img);
        let (w, h) = (ii.width(), ii.height());
        let kmax = max_k.min({
            let mut k = 1;
            while (1u32 << (k + 1)) <= w.min(h) {
                k += 1;
            }
            k
        });
        let mut best = Vec::with_capacity(w as usize * h as usize);
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let mut best_e = 0.0f64;
                let mut best_k = 1u32;
                for k in 1..=kmax {
                    let step = 1i64 << (k - 1);
                    let eh = match (
                        window_mean(&ii, x + step, y, k),
                        window_mean(&ii, x - step, y, k),
                    ) {
                        (Some(a), Some(b)) => (a - b).abs(),
                        _ => 0.0,
                    };
                    let ev = match (
                        window_mean(&ii, x, y + step, k),
                        window_mean(&ii, x, y - step, k),
                    ) {
                        (Some(a), Some(b)) => (a - b).abs(),
                        _ => 0.0,
                    };
                    let e = eh.max(ev);
                    if e > best_e || (e > 0.0 && e == best_e) {
                        best_e = e;
                        best_k = k;
                    }
                }
                best.push(best_k as i32);
            }
        }
        best
    }

    #[test]
    fn coarseness_matches_window_mean_formulation_bitwise() {
        let reference = |img: &GrayImage, max_k: u32| {
            let total: f64 = reference_best_k(img, max_k)
                .iter()
                .map(|&k| (1u64 << k) as f64)
                .sum();
            total / (img.width() as f64 * img.height() as f64)
        };
        // Non-square shapes so one axis runs out of room before the other,
        // plus max_k values above and below what fits.
        for (img, max_k) in [
            (noise(48), 5),
            (noise(17), 8),
            (stripes(64, 4, false), 5),
            (
                GrayImage::from_fn(40, 9, |x, y| ((x * 31 + y * 7) % 256) as u8),
                4,
            ),
            (
                GrayImage::from_fn(9, 40, |x, y| ((x * 13 + y * 47) % 256) as u8),
                4,
            ),
            (GrayImage::filled(16, 16, 80), 3),
            (GrayImage::filled(1, 1, 80), 5),
            (GrayImage::filled(3, 2, 80), 5),
            (GrayImage::from_fn(256, 256, |x, y| ((x ^ y) * 3) as u8), 8),
        ] {
            let got = coarseness(&img, max_k).unwrap();
            let want = reference(&img, max_k);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}x{} max_k={max_k}: {got} vs {want}",
                img.width(),
                img.height()
            );
        }
    }

    #[test]
    fn integer_arg_max_picks_the_window_mean_scale_at_every_pixel() {
        // The pipeline's shape: 64 pixels, kmax 5. Every pixel's winning
        // scale — not just their mean — must match the f64 reference,
        // over textures that put winners and exact ties at every scale.
        let mut images = vec![noise(64), GrayImage::filled(64, 64, 7)];
        for period in [1, 2, 3, 4, 8, 16, 32] {
            images.push(stripes(64, period, false));
            images.push(stripes(64, period, true));
        }
        images.push(GrayImage::from_fn(64, 64, |x, y| {
            (((x / 5) * 41 + (y / 3) * 23) % 256) as u8
        }));
        images.push(GrayImage::from_fn(64, 64, |x, y| {
            if (x / 16 + y / 8) % 2 == 0 {
                255
            } else {
                0
            }
        }));
        let mut s = CoarsenessScratch::default();
        for (i, img) in images.iter().enumerate() {
            coarseness_core_into(&IntegralImage::new(img), 5, &mut s);
            assert_eq!(s.best_k, reference_best_k(img, 5), "image {i}");
        }
    }

    #[test]
    fn determinism() {
        let img = noise(48);
        assert_eq!(
            tamura_features(&img).unwrap(),
            tamura_features(&img).unwrap()
        );
    }
}
