//! Sobel gradient estimation: per-pixel gradient vectors, magnitude,
//! orientation, and thresholded edge maps.
//!
//! The gradient kernel is a fused single pass directly over the `u8` input:
//! every Sobel tap is a small integer, so each output is an exact integer in
//! `[-1020, 1020]` — far below the 2^24 limit where `f32` addition stops
//! being exact — and the fused form is bit-identical to the separable
//! two-pass formulation regardless of summation order.

use crate::image::{FloatImage, GrayImage};
use crate::pixel::small_f32_to_u32;
use std::f32::consts::PI;

/// Theoretical maximum of the Sobel gradient magnitude on 8-bit input
/// (`|gx| ≤ 1020`, `|gy| ≤ 1020`, so `|g| ≤ 1020·√2`). Used to normalize
/// magnitudes into `[0, 255]` so thresholds are comparable across images.
pub const SOBEL_MAGNITUDE_MAX: f32 = 1020.0 * std::f32::consts::SQRT_2;

/// Per-pixel image gradient produced by the Sobel operator.
#[derive(Clone, Debug)]
pub struct GradientField {
    /// Horizontal derivative (positive = intensity increasing rightward).
    pub gx: FloatImage,
    /// Vertical derivative (positive = intensity increasing downward).
    pub gy: FloatImage,
}

impl GradientField {
    /// Gradient magnitude `sqrt(gx² + gy²)` per pixel.
    pub fn magnitude(&self) -> FloatImage {
        let (w, h) = self.gx.dimensions();
        FloatImage::from_fn(w, h, |x, y| {
            let gx = self.gx.pixel(x, y);
            let gy = self.gy.pixel(x, y);
            (gx * gx + gy * gy).sqrt()
        })
    }

    /// Edge orientation per pixel in radians, folded into `[0, π)`.
    ///
    /// The orientation of the *edge* (the isophote direction) is
    /// perpendicular to the gradient; we report the gradient angle folded to
    /// half-turn equivalence, which is the convention edge-orientation
    /// histograms use — a dark-to-light and a light-to-dark transition of the
    /// same boundary bin together.
    pub fn orientation(&self) -> FloatImage {
        let (w, h) = self.gx.dimensions();
        FloatImage::from_fn(w, h, |x, y| {
            let a = self.gy.pixel(x, y).atan2(self.gx.pixel(x, y));
            a.rem_euclid(std::f32::consts::PI)
        })
    }
}

/// Fused 3x3 Sobel over one pixel's replicate-border neighbourhood
/// `a b c / d e f / g h i`. All terms are integers ≤ 1020 in magnitude, so
/// the `f32` arithmetic is exact and equals the separable formulation.
#[inline]
#[allow(clippy::too_many_arguments)] // the eight neighbourhood taps
fn sobel_taps(a: f32, b: f32, c: f32, d: f32, f: f32, g: f32, h: f32, i: f32) -> (f32, f32) {
    let gx = (c + 2.0 * f + i) - (a + 2.0 * d + g);
    let gy = (g + 2.0 * h + i) - (a + 2.0 * b + c);
    (gx, gy)
}

/// Compute the Sobel gradient field into caller-provided buffers, reusing
/// their allocations. Single fused pass over the `u8` input with
/// replicate-border handling; results are bit-identical to the separable
/// `[1 2 1] × [-1 0 1]` two-pass formulation.
pub fn sobel_into(img: &GrayImage, gx: &mut FloatImage, gy: &mut FloatImage) {
    let (w, h) = img.dimensions();
    gx.reset(w, h, 0.0);
    gy.reset(w, h, 0.0);
    if w == 0 || h == 0 {
        return;
    }
    let wi = w as usize;
    let tap = |r: &[u8], x: usize| r[x] as f32;
    for y in 0..h {
        let rm = img.row(y.saturating_sub(1));
        let r0 = img.row(y);
        let rp = img.row((y + 1).min(h - 1));
        let ox = &mut gx.as_mut_slice()[y as usize * wi..][..wi];
        let oy = &mut gy.as_mut_slice()[y as usize * wi..][..wi];
        // The first and last columns replicate their border neighbour.
        for x in [0, wi - 1] {
            let (xm, xp) = (x.saturating_sub(1), (x + 1).min(wi - 1));
            (ox[x], oy[x]) = sobel_taps(
                tap(rm, xm),
                tap(rm, x),
                tap(rm, xp),
                tap(r0, xm),
                tap(r0, xp),
                tap(rp, xm),
                tap(rp, x),
                tap(rp, xp),
            );
        }
        // Inside, every neighbour is in the row: three shifted windows
        // per row, lane by lane.
        for x in 1..wi.saturating_sub(1) {
            (ox[x], oy[x]) = sobel_taps(
                tap(rm, x - 1),
                tap(rm, x),
                tap(rm, x + 1),
                tap(r0, x - 1),
                tap(r0, x + 1),
                tap(rp, x - 1),
                tap(rp, x),
                tap(rp, x + 1),
            );
        }
    }
}

/// Apply the 3x3 Sobel operator. The kernels are separable:
/// `Gx = [1 2 1]ᵀ × [-1 0 1]` and `Gy = [-1 0 1]ᵀ × [1 2 1]`; the
/// implementation fuses both into one pass (see [`sobel_into`]).
pub fn sobel(img: &GrayImage) -> GradientField {
    let mut gx = FloatImage::filled(0, 0, 0.0);
    let mut gy = FloatImage::filled(0, 0, 0.0);
    sobel_into(img, &mut gx, &mut gy);
    GradientField { gx, gy }
}

/// Compute the gradient magnitude plane into a caller-provided buffer; the
/// per-pixel expression matches [`GradientField::magnitude`] exactly.
pub fn magnitude_into(gx: &FloatImage, gy: &FloatImage, mag: &mut FloatImage) {
    let (w, h) = gx.dimensions();
    debug_assert_eq!((w, h), gy.dimensions());
    mag.reset(w, h, 0.0);
    let lanes = mag
        .as_mut_slice()
        .iter_mut()
        .zip(gx.as_slice())
        .zip(gy.as_slice());
    for ((m, &vx), &vy) in lanes {
        *m = (vx * vx + vy * vy).sqrt();
    }
}

/// The bin of one gradient's orientation among `bins` equal bins over
/// `[0, π)`: the orientation of [`GradientField::orientation`] (`atan2`
/// folded to a half turn) scaled as `(o / π) · bins` and truncated, the
/// last bin closed. This is the exact reference
/// [`orientation_bins_into`]'s fast path is held equal to.
#[inline]
pub fn orientation_bin(gx: f32, gy: f32, bins: usize) -> usize {
    let o = gy.atan2(gx).rem_euclid(PI);
    (((o / PI) * bins as f32) as usize).min(bins - 1)
}

/// Pixels per step of [`orientation_bins_into`]: eight 256-bit vectors of
/// `f32`, a trip count the loop vectorizer takes whole.
const ORIENTATION_LANES: usize = 64;

/// Largest Sobel gradient component on 8-bit input: the fast path's
/// verified domain is the integers in `[-1020, 1020]`.
const SOBEL_COMPONENT_MAX: f32 = 1020.0;

/// How close, in bins, the fast angle may come to a bin edge before the
/// exact formula decides. The fast angle is within 1e-6 rad of the
/// folded `atan2` (1e-4 bins at 256 bins, rounding of the exact chain
/// included), so a 1e-3 margin is ten times what it needs.
const EDGE_MARGIN: f32 = 1e-3;

/// [`orientation_bin`] of every pixel into `out` (cleared first), for
/// `bins` in `2..=256`.
///
/// `atan2` costs more than everything else the edge and Tamura families
/// do per pixel, and only the bin is ever used. So the angle is taken
/// 64 pixels at a time from a polynomial (the gradient
/// folded into the upper half-plane and onto `[0, π/4]`, Cephes' `atanf`
/// on `|u| ≤ tan(π/8)`), and a lane keeps its fast bin only when the
/// gradient is an integer pair in the Sobel domain `[-1020, 1020]²` and
/// the angle is at least 10⁻³ bins from a bin edge. Three kinds of
/// gradient sit on bin edges and are exact by construction instead:
/// horizontal and vertical ones (`gy = 0`, `gx = 0`: `atan2` gives 0, π or
/// ±π/2, which fold to 0 and `π_f32 / 2`) and diagonal ones (`|gx| =
/// |gy|`, whose bin per quadrant is computed once). Every other lane takes
/// [`orientation_bin`]. An exhaustive test over the whole Sobel domain
/// holds the result equal to [`orientation_bin`].
pub fn orientation_bins_into(gx: &FloatImage, gy: &FloatImage, bins: usize, out: &mut Vec<u8>) {
    debug_assert!((2..=256).contains(&bins));
    debug_assert_eq!(gx.dimensions(), gy.dimensions());
    let (gx, gy) = (gx.as_slice(), gy.as_slice());
    out.clear();
    out.resize(gx.len(), 0);
    let scale = bins as f32 / PI;
    let half = (bins / 2) as f32;
    // Diagonal gradients sit exactly on a bin edge whenever 4 divides
    // `bins`, so their bins come from the exact formula, once per
    // quadrant: `atan2` of `(±k, ±k)` is that of `(±1, ±1)`.
    let diagonal = [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)]
        .map(|(x, y)| orientation_bin(x, y, bins) as f32);
    let mut exact = [false; ORIENTATION_LANES];
    let steps = out
        .chunks_mut(ORIENTATION_LANES)
        .zip(gx.chunks(ORIENTATION_LANES));
    for ((bin, x), y) in steps.zip(gy.chunks(ORIENTATION_LANES)) {
        for (l, b) in bin.iter_mut().enumerate() {
            let (fast, e) = fast_orientation_bin(x[l], y[l], scale, half, &diagonal);
            *b = small_f32_to_u32(fast) as u8;
            exact[l] = e;
        }
        if exact.contains(&true) {
            for (l, b) in bin.iter_mut().enumerate() {
                if exact[l] {
                    *b = orientation_bin(x[l], y[l], bins) as u8;
                }
            }
        }
    }
}

/// One lane of [`orientation_bins_into`]: the fast bin (as an integral
/// `f32`) and whether the exact formula must decide instead. `diagonal`
/// holds the exact bins of `(1, 1)`, `(-1, 1)`, `(1, -1)`, `(-1, -1)`.
#[inline(always)]
fn fast_orientation_bin(x: f32, y: f32, scale: f32, half: f32, diagonal: &[f32; 4]) -> (f32, bool) {
    use std::f32::consts::{FRAC_PI_2, FRAC_PI_4};
    let [d_pp, d_np, d_pn, d_nn] = *diagonal;
    let diagonal_bin = match (x < 0.0, y < 0.0) {
        (false, false) => d_pp,
        (true, false) => d_np,
        (false, true) => d_pn,
        (true, true) => d_nn,
    };
    let on_diagonal = x.abs() == y.abs();
    // Orientation is the angle mod π: fold into y ≥ 0, then reduce
    // (|x|, y) onto [0, π/4] by the smaller-over-larger ratio.
    let x = if y < 0.0 { -x } else { x };
    let (ax, y) = (x.abs(), y.abs());
    let t = ax.min(y) / ax.max(y);
    let reduced = t > 0.414_213_56;
    let u = if reduced { (t - 1.0) / (t + 1.0) } else { t };
    let z = u * u;
    let p =
        (((8.053_744_5e-2 * z - 1.387_768_6e-1) * z + 1.997_771_1e-1) * z - 3.333_295e-1) * z * u
            + u;
    let a = if reduced { FRAC_PI_4 + p } else { p };
    let a = if y > ax { FRAC_PI_2 - a } else { a };
    let phi = if x < 0.0 { PI - a } else { a };
    let t = phi * scale;
    let floor = t.clamp(0.0, 255.0).trunc();
    let frac = t - floor;
    let domain =
        ax <= SOBEL_COMPONENT_MAX && y <= SOBEL_COMPONENT_MAX && x == x.trunc() && y == y.trunc();
    let exact_by_construction = y == 0.0 || x == 0.0 || on_diagonal;
    let settled =
        domain && (exact_by_construction || (EDGE_MARGIN..=1.0 - EDGE_MARGIN).contains(&frac));
    let bin = if y == 0.0 {
        0.0
    } else if x == 0.0 {
        half
    } else if on_diagonal {
        diagonal_bin
    } else {
        floor
    };
    (bin, !settled)
}

/// Gradient magnitude normalized into `[0, 255]` by the theoretical Sobel
/// maximum ([`SOBEL_MAGNITUDE_MAX`]), so thresholds are comparable across
/// images.
pub fn sobel_magnitude(img: &GrayImage) -> FloatImage {
    sobel(img)
        .magnitude()
        .map(|m| m / SOBEL_MAGNITUDE_MAX * 255.0)
}

/// Binary edge map: 255 where normalized Sobel magnitude exceeds
/// `threshold`, else 0.
pub fn edge_map(img: &GrayImage, threshold: f32) -> GrayImage {
    sobel_magnitude(img).map(|m| if m > threshold { 255 } else { 0 })
}

/// Fraction of pixels marked as edges at the given threshold — the "edge
/// density" scalar feature.
pub fn edge_density(img: &GrayImage, threshold: f32) -> f32 {
    if img.is_empty() {
        return 0.0;
    }
    let edges = edge_map(img, threshold);
    edges.pixels().filter(|&p| p == 255).count() as f32 / edges.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::convolve::convolve_separable;

    /// Vertical step edge: left half dark, right half bright.
    fn vertical_edge(w: u32, h: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, _| if x < w / 2 { 0 } else { 200 })
    }

    fn horizontal_edge(w: u32, h: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |_, y| if y < h / 2 { 0 } else { 200 })
    }

    #[test]
    fn constant_image_has_zero_gradient() {
        let g = sobel(&GrayImage::filled(8, 8, 77));
        for p in g.gx.pixels().chain(g.gy.pixels()) {
            assert_eq!(p, 0.0);
        }
        assert_eq!(edge_density(&GrayImage::filled(8, 8, 77), 1.0), 0.0);
    }

    #[test]
    fn vertical_edge_activates_gx_only() {
        let img = vertical_edge(10, 10);
        let g = sobel(&img);
        // At the boundary column, gx is large positive, gy ~ 0.
        let x = 5;
        assert!(g.gx.pixel(x, 5) > 0.0);
        assert_eq!(g.gy.pixel(x, 5), 0.0);
        // Far from the edge, both are zero.
        assert_eq!(g.gx.pixel(1, 5), 0.0);
        assert_eq!(g.gx.pixel(8, 5), 0.0);
    }

    #[test]
    fn horizontal_edge_activates_gy_only() {
        let img = horizontal_edge(10, 10);
        let g = sobel(&img);
        assert!(g.gy.pixel(5, 5) > 0.0);
        assert_eq!(g.gx.pixel(5, 5), 0.0);
    }

    #[test]
    fn known_sobel_values_on_step() {
        // A unit step from 0 to 1 across x gives gx = 4 at the two columns
        // adjacent to the boundary (sum of the smoothing column [1,2,1]).
        let img = GrayImage::from_fn(6, 6, |x, _| if x < 3 { 0 } else { 1 });
        let g = sobel(&img);
        assert_eq!(g.gx.pixel(2, 3), 4.0);
        assert_eq!(g.gx.pixel(3, 3), 4.0);
        assert_eq!(g.gx.pixel(1, 3), 0.0);
    }

    #[test]
    fn fused_sobel_matches_separable_bitwise() {
        // The fused single-pass kernel must reproduce the textbook separable
        // two-pass formulation bit-for-bit, including on degenerate shapes
        // where border clamping dominates.
        let images = [
            GrayImage::from_fn(17, 13, |x, y| ((x * 31 + y * 57 + x * y) % 256) as u8),
            GrayImage::from_fn(1, 1, |_, _| 93),
            GrayImage::from_fn(1, 9, |_, y| (y * 29) as u8),
            GrayImage::from_fn(9, 1, |x, _| (x * 29) as u8),
            GrayImage::from_fn(8, 8, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 }),
        ];
        let smooth = [1.0f32, 2.0, 1.0];
        let diff = [-1.0f32, 0.0, 1.0];
        for img in &images {
            let f = img.to_float();
            let gx_ref = convolve_separable(&f, &diff, &smooth).unwrap();
            let gy_ref = convolve_separable(&f, &smooth, &diff).unwrap();
            let g = sobel(img);
            let bits = |im: &FloatImage| im.pixels().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(&g.gx), bits(&gx_ref), "{:?}", img.dimensions());
            assert_eq!(bits(&g.gy), bits(&gy_ref), "{:?}", img.dimensions());
        }
    }

    #[test]
    fn magnitude_into_matches_the_field_method() {
        let img = GrayImage::from_fn(16, 12, |x, y| ((x * 17 + y * 29) % 256) as u8);
        let g = sobel(&img);
        let mut mag = FloatImage::filled(0, 0, 0.0);
        magnitude_into(&g.gx, &g.gy, &mut mag);
        let bits = |im: &FloatImage| im.pixels().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(&mag), bits(&g.magnitude()));
    }

    #[test]
    fn orientation_bins_match_atan2_over_the_whole_sobel_domain() {
        // Every integer gradient pair a Sobel pass over 8-bit input can
        // produce, at the pipelines' 16 bins; T1b's release leg repeats
        // this at bin counts from 2 to 256.
        let side = 2 * SOBEL_COMPONENT_MAX as u32 + 1;
        let component = |i: u32| i as f32 - SOBEL_COMPONENT_MAX;
        let gx = FloatImage::from_fn(side, side, |x, _| component(x));
        let gy = FloatImage::from_fn(side, side, |_, y| component(y));
        let mut got = Vec::new();
        orientation_bins_into(&gx, &gy, 16, &mut got);
        let want = gx
            .pixels()
            .zip(gy.pixels())
            .map(|(x, y)| orientation_bin(x, y, 16) as u8);
        assert!(
            got.iter().copied().eq(want),
            "fast orientation bins diverge"
        );
    }

    #[test]
    fn orientation_bins_of_off_domain_gradients_take_the_exact_formula() {
        let odd = [0.5, -0.25, 1e6, -3000.0, f32::MAX, 1021.0, -0.0, 7.0, -7.0];
        let (n, vals) = (odd.len() as u32, odd);
        let gx = FloatImage::from_fn(n, n, |x, _| vals[x as usize]);
        let gy = FloatImage::from_fn(n, n, |_, y| vals[y as usize]);
        for bins in [2, 3, 16, 256] {
            let mut got = Vec::new();
            orientation_bins_into(&gx, &gy, bins, &mut got);
            let want: Vec<u8> = gx
                .pixels()
                .zip(gy.pixels())
                .map(|(x, y)| orientation_bin(x, y, bins) as u8)
                .collect();
            assert_eq!(got, want, "{bins} bins");
        }
    }

    #[test]
    fn orientation_distinguishes_edge_directions() {
        let v = sobel(&vertical_edge(12, 12));
        let h = sobel(&horizontal_edge(12, 12));
        // Vertical edge: gradient points along +x -> angle ~ 0 (mod pi).
        let av = v.orientation().pixel(6, 6);
        assert!(av < 0.1 || (std::f32::consts::PI - av) < 0.1, "{av}");
        // Horizontal edge: gradient along +y -> angle ~ pi/2.
        let ah = h.orientation().pixel(6, 6);
        assert!((ah - std::f32::consts::FRAC_PI_2).abs() < 0.1, "{ah}");
    }

    #[test]
    fn orientation_is_in_half_turn_range() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * 17 + y * 29) % 256) as u8);
        let o = sobel(&img).orientation();
        for p in o.pixels() {
            assert!((0.0..std::f32::consts::PI + 1e-6).contains(&p));
        }
    }

    #[test]
    fn magnitude_is_nonnegative_and_consistent() {
        let img = vertical_edge(8, 8);
        let g = sobel(&img);
        let m = g.magnitude();
        for (x, y, p) in m.enumerate_pixels() {
            assert!(p >= 0.0);
            let gx = g.gx.pixel(x, y);
            let gy = g.gy.pixel(x, y);
            assert!((p - (gx * gx + gy * gy).sqrt()).abs() < 1e-4);
        }
    }

    #[test]
    fn edge_map_marks_the_boundary() {
        let img = vertical_edge(10, 10);
        let edges = edge_map(&img, 10.0);
        assert_eq!(edges.pixel(5, 5), 255);
        assert_eq!(edges.pixel(1, 5), 0);
        let d = edge_density(&img, 10.0);
        assert!(d > 0.0 && d < 0.5, "{d}");
    }

    #[test]
    fn edge_density_of_empty_image_is_zero() {
        assert_eq!(edge_density(&GrayImage::filled(0, 0, 0), 1.0), 0.0);
    }
}
