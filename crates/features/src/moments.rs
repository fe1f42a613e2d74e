//! Region shape descriptors from image moments: centroid, orientation,
//! eccentricity, Hu's seven invariants, and simple region statistics.
//!
//! All functions operate on a binary mask (nonzero = object) so they compose
//! with the thresholding and morphology operators.

use crate::error::{FeatureError, Result};
use cbir_image::ops::{connected_components, nonzero_bits, row_runs, Connectivity, Labeling};
use cbir_image::GrayImage;

/// `2⁵³`: every integer up to it is an `f64`, exactly.
const EXACT_BELOW: f64 = 9_007_199_254_740_992.0;

/// A run of object pixels: row, first column, one past the last column.
type Span = (u32, u32, u32);

/// Raw, central, and normalized moments of a binary region.
#[derive(Clone, Debug, Default)]
pub struct Moments {
    /// Raw moments `m[p][q] = Σ xᵖ yᑫ` over object pixels, for p,q ≤ 3.
    pub m: [[f64; 4]; 4],
    /// Central moments `mu[p][q]` about the centroid.
    pub mu: [[f64; 4]; 4],
    /// Scale-normalized central moments `eta[p][q]`.
    pub eta: [[f64; 4]; 4],
}

impl Moments {
    /// Compute all moments up to order 3.
    ///
    /// Returns an error for an empty image or an empty region.
    pub fn compute(mask: &GrayImage) -> Result<Self> {
        if mask.is_empty() {
            return Err(FeatureError::EmptyImage("moments"));
        }
        Self::of_spans(mask_spans(mask))
    }

    /// Moments of the pixels of `spans`, given in raster order.
    ///
    /// The raw sums are exact integers wherever the per-pixel `f64` loop
    /// ([`raw_per_pixel`]) was exact, and then equal to its result bit for
    /// bit: [`raw_from_power_sums`] adds each row's power sums `Σxᵖ` over
    /// its spans (closed forms, in integers) times `yᑫ`. When some sum
    /// reaches 2⁵³ it gives up and the per-pixel loop runs, rounding as it
    /// always did.
    fn of_spans(spans: impl Iterator<Item = Span> + Clone) -> Result<Self> {
        let m = raw_from_power_sums(spans.clone()).unwrap_or_else(|| raw_per_pixel(spans));
        Self::from_raw(m)
    }

    /// Central and normalized moments from the raw sums `m`.
    fn from_raw(m: [[f64; 4]; 4]) -> Result<Self> {
        if m[0][0] == 0.0 {
            return Err(FeatureError::InvalidParameter(
                "moments of an empty region".into(),
            ));
        }
        let xc = m[1][0] / m[0][0];
        let yc = m[0][1] / m[0][0];

        // Central moments via the standard expansion.
        let mut mu = [[0.0f64; 4]; 4];
        mu[0][0] = m[0][0];
        mu[1][1] = m[1][1] - xc * m[0][1];
        mu[2][0] = m[2][0] - xc * m[1][0];
        mu[0][2] = m[0][2] - yc * m[0][1];
        mu[2][1] = m[2][1] - 2.0 * xc * m[1][1] - yc * m[2][0] + 2.0 * xc * xc * m[0][1];
        mu[1][2] = m[1][2] - 2.0 * yc * m[1][1] - xc * m[0][2] + 2.0 * yc * yc * m[1][0];
        mu[3][0] = m[3][0] - 3.0 * xc * m[2][0] + 2.0 * xc * xc * m[1][0];
        mu[0][3] = m[0][3] - 3.0 * yc * m[0][2] + 2.0 * yc * yc * m[0][1];

        // Scale normalization: eta_pq = mu_pq / mu00^(1 + (p+q)/2).
        let mut eta = [[0.0f64; 4]; 4];
        for p in 0..4 {
            for q in 0..4 {
                if p + q >= 2 {
                    let gamma = 1.0 + (p + q) as f64 / 2.0;
                    eta[p][q] = mu[p][q] / mu[0][0].powf(gamma);
                }
            }
        }
        Ok(Moments { m, mu, eta })
    }

    /// Object area in pixels.
    pub fn area(&self) -> f64 {
        self.m[0][0]
    }

    /// Centroid `(x̄, ȳ)`.
    pub fn centroid(&self) -> (f64, f64) {
        (self.m[1][0] / self.m[0][0], self.m[0][1] / self.m[0][0])
    }

    /// Orientation of the major axis in radians, `(-π/2, π/2]`.
    pub fn orientation(&self) -> f64 {
        0.5 * (2.0 * self.mu[1][1]).atan2(self.mu[2][0] - self.mu[0][2])
    }

    /// Eccentricity in `[0, 1)`: 0 for a circle, approaching 1 for a line.
    /// Derived from the eigenvalues of the second-moment (covariance)
    /// matrix: `e = sqrt(1 - λ_min / λ_max)`.
    pub fn eccentricity(&self) -> f64 {
        let a = self.mu[2][0] / self.mu[0][0];
        let b = self.mu[1][1] / self.mu[0][0];
        let c = self.mu[0][2] / self.mu[0][0];
        let common = ((a - c) * (a - c) + 4.0 * b * b).sqrt();
        let l_max = (a + c + common) / 2.0;
        let l_min = (a + c - common) / 2.0;
        if l_max <= 0.0 {
            return 0.0;
        }
        (1.0 - (l_min / l_max).max(0.0)).max(0.0).sqrt()
    }

    /// Hu's seven moment invariants — invariant to translation, scale, and
    /// rotation (the 7th flips sign under reflection).
    pub fn hu_invariants(&self) -> [f64; 7] {
        let n20 = self.eta[2][0];
        let n02 = self.eta[0][2];
        let n11 = self.eta[1][1];
        let n30 = self.eta[3][0];
        let n03 = self.eta[0][3];
        let n21 = self.eta[2][1];
        let n12 = self.eta[1][2];

        let h1 = n20 + n02;
        let h2 = (n20 - n02).powi(2) + 4.0 * n11 * n11;
        let h3 = (n30 - 3.0 * n12).powi(2) + (3.0 * n21 - n03).powi(2);
        let h4 = (n30 + n12).powi(2) + (n21 + n03).powi(2);
        let h5 = (n30 - 3.0 * n12)
            * (n30 + n12)
            * ((n30 + n12).powi(2) - 3.0 * (n21 + n03).powi(2))
            + (3.0 * n21 - n03) * (n21 + n03) * (3.0 * (n30 + n12).powi(2) - (n21 + n03).powi(2));
        let h6 = (n20 - n02) * ((n30 + n12).powi(2) - (n21 + n03).powi(2))
            + 4.0 * n11 * (n30 + n12) * (n21 + n03);
        let h7 = (3.0 * n21 - n03)
            * (n30 + n12)
            * ((n30 + n12).powi(2) - 3.0 * (n21 + n03).powi(2))
            - (n30 - 3.0 * n12) * (n21 + n03) * (3.0 * (n30 + n12).powi(2) - (n21 + n03).powi(2));
        [h1, h2, h3, h4, h5, h6, h7]
    }
}

/// `[1, v, v², v³]` as the per-pixel loop forms them.
fn powers(v: u32) -> [f64; 4] {
    let f = f64::from(v);
    [1.0, f, f * f, f * f * f]
}

/// The raw moments as the per-pixel loop sums them: every object pixel in
/// raster order, `m[p][q] += xᵖ·yᑫ` in `f64`.
fn raw_per_pixel(spans: impl Iterator<Item = Span>) -> [[f64; 4]; 4] {
    let mut m = [[0.0f64; 4]; 4];
    for (y, x0, x1) in spans {
        let yp = powers(y);
        for x in x0..x1 {
            let xp = powers(x);
            for (p, &xv) in xp.iter().enumerate() {
                for (q, &yv) in yp.iter().enumerate() {
                    m[p][q] += xv * yv;
                }
            }
        }
    }
    m
}

/// The raw moments from each row's power sums, or `None` when some sum
/// reaches 2⁵³ (or a column passes 2¹⁶, where the closed forms would
/// overflow `u64`).
///
/// Exactness: with `Pᵖ(n) = Σ_{x<n} xᵖ` (`n`, `n(n−1)/2`,
/// `(n−1)n(2n−1)/6`, `(n(n−1)/2)²`, each below 2⁶³ for `n ≤ 2¹⁶`), a
/// row's power sums `Sᵖ = Σ Pᵖ(x1) − Pᵖ(x0)` over its spans are exact
/// integers (at most `Pᵖ(2¹⁶)`), and `m[p][q] += Sᵖ·yᑫ` adds
/// non-negative terms. Rounding is monotone and 2⁵³ is an `f64`, so a
/// computed term or partial sum below 2⁵³ has an exact value below 2⁵³,
/// which is an integer `f64` holds: when every final sum is below 2⁵³
/// nothing rounded, and each `m[p][q]` is the exact `Σ xᵖyᑫ`. The per-pixel loop's terms and partial sums are at
/// most those totals, so it was exact too and gave the same bits.
fn raw_from_power_sums(spans: impl Iterator<Item = Span>) -> Option<[[f64; 4]; 4]> {
    let prefix = |n: u32| {
        let n = u64::from(n);
        let p1 = n * n.saturating_sub(1) / 2;
        [
            n,
            p1,
            n.saturating_sub(1) * n * (2 * n).saturating_sub(1) / 6,
            p1 * p1,
        ]
    };
    let mut m = [[0.0f64; 4]; 4];
    let mut add_row = |y: u32, sums: [u64; 4]| {
        let yp = powers(y);
        for (row, s) in m.iter_mut().zip(sums) {
            for (mq, &yv) in row.iter_mut().zip(&yp) {
                *mq += s as f64 * yv;
            }
        }
    };
    // One row's power sums at a time: spans of a row are adjacent.
    let (mut y, mut sums) = (0, [0u64; 4]);
    for (sy, x0, x1) in spans {
        if x1 > 1 << 16 {
            return None;
        }
        if sy != y {
            add_row(y, std::mem::take(&mut sums));
            y = sy;
        }
        let (lo, hi) = (prefix(x0), prefix(x1));
        for ((s, h), l) in sums.iter_mut().zip(hi).zip(lo) {
            *s += h - l;
        }
    }
    add_row(y, sums);
    m.iter().flatten().all(|&v| v < EXACT_BELOW).then_some(m)
}

/// Log-compressed Hu invariants as an `f32` feature vector:
/// `sign(h) * ln(1 + |h| * 1e6)` keeps the wildly different magnitudes of
/// the seven invariants on a comparable scale.
pub fn hu_feature_vector(mask: &GrayImage) -> Result<Vec<f32>> {
    let mut out = vec![0.0f32; 7];
    hu_into(&Moments::compute(mask)?, &mut out);
    Ok(out)
}

/// [`hu_feature_vector`] of the moments `m` into a 7-element slice.
pub(crate) fn hu_into(m: &Moments, out: &mut [f32]) {
    debug_assert_eq!(out.len(), 7);
    for (o, &h) in out.iter_mut().zip(m.hu_invariants().iter()) {
        *o = (h.signum() * (1.0 + h.abs() * 1e6).ln()) as f32;
    }
}

/// Shape summary `[eccentricity, compactness, extent]`:
/// compactness = `4π·area / perimeter²` (1 for a disc), extent = fraction of
/// the bounding box covered.
pub fn shape_summary(mask: &GrayImage) -> Result<Vec<f32>> {
    let mut out = vec![0.0f32; 3];
    shape_summary_into(mask, &Moments::compute(mask)?, &mut out);
    Ok(out)
}

/// [`shape_summary`] of `mask`, whose moments are `m`, into a 3-element
/// slice.
///
/// The perimeter counts object pixels with a 4-neighbour that is
/// background or off the frame. The mask is read 64 columns at a time as
/// bits ([`nonzero_bits`]): a pixel is interior when it, its left and
/// right bits (carried in across the block's edges) and the bits above
/// and below are all set, so each block row adds its set bits less its
/// interior ones.
pub(crate) fn shape_summary_into(mask: &GrayImage, m: &Moments, out: &mut [f32]) {
    let (w, h) = (mask.width() as usize, mask.height() as usize);
    let pixels = mask.as_slice();
    let mut perimeter = 0u64;
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (usize::MAX, 0, usize::MAX, 0);
    for base in (0..w).step_by(64) {
        let block = |y: usize| nonzero_bits(&pixels[y * w + base..(y + 1) * w]);
        // Whether pixel `x` of row `y` is set; off the frame it is not.
        let set = |y: usize, x: usize| u64::from(x < w && pixels[y * w + x] != 0);
        let (mut up, mut row) = (0, block(0));
        for y in 0..h {
            let down = if y + 1 < h { block(y + 1) } else { 0 };
            if row != 0 {
                let left = row << 1 | base.checked_sub(1).map_or(0, |x| set(y, x));
                let right = row >> 1 | set(y, base + 64) << 63;
                let interior = row & left & right & up & down;
                perimeter += u64::from(row.count_ones() - interior.count_ones());
                min_x = min_x.min(base + row.trailing_zeros() as usize);
                max_x = max_x.max(base + 63 - row.leading_zeros() as usize);
                (min_y, max_y) = (min_y.min(y), max_y.max(y));
            }
            (up, row) = (row, down);
        }
    }
    let bbox = (max_x - min_x + 1) as f64 * (max_y - min_y + 1) as f64;
    summarize(m, perimeter, bbox, out);
}

/// Every run of object pixels of `mask`, in raster order.
fn mask_spans(mask: &GrayImage) -> impl Iterator<Item = Span> + Clone + '_ {
    let rows = mask.as_slice().chunks_exact(mask.width() as usize);
    (0..)
        .zip(rows)
        .flat_map(|(y, row)| row_runs(row).map(move |(x0, x1)| (y, x0, x1)))
}

/// `[eccentricity, compactness, extent]` from a region's moments, its
/// perimeter pixel count and its bounding-box area.
fn summarize(m: &Moments, perimeter: u64, bbox: f64, out: &mut [f32]) {
    debug_assert_eq!(out.len(), 3);
    let area = m.area();
    let compactness = if perimeter > 0 {
        (4.0 * std::f64::consts::PI * area / (perimeter as f64 * perimeter as f64)).min(1.0)
    } else {
        1.0
    };
    out[0] = m.eccentricity() as f32;
    out[1] = compactness as f32;
    out[2] = (area / bbox) as f32;
}

/// Region-based shape signature built on connected-component analysis of
/// the Otsu foreground: `[log2(1 + n_regions) / 8, largest-region area
/// fraction, largest-region eccentricity, compactness, extent]`. Unlike the
/// whole-mask statistics this describes *the dominant object*, ignoring
/// disconnected clutter.
pub fn region_shape_features(mask: &GrayImage) -> Result<Vec<f32>> {
    if mask.is_empty() {
        return Err(FeatureError::EmptyImage("region shape"));
    }
    let labeling = connected_components(mask, Connectivity::Eight).map_err(FeatureError::Image)?;
    let mut out = vec![0.0f32; 5];
    region_shape_into(mask, &labeling, &mut out);
    Ok(out)
}

/// [`region_shape_features`] of `mask`, whose 8-connected labelling is
/// `labeling`, into a 5-element slice.
///
/// The largest region's moments come from its runs, its box from its
/// [`cbir_image::ops::Region`], and its perimeter from its runs and the
/// label plane: the values [`shape_summary`] computes on a mask of that
/// region alone.
pub(crate) fn region_shape_into(mask: &GrayImage, labeling: &Labeling, out: &mut [f32]) {
    debug_assert_eq!(out.len(), 5);
    let Some(largest) = labeling.regions.first() else {
        // No foreground at all: a distinctive all-zero signature.
        out.fill(0.0);
        return;
    };
    let label = largest.label;
    let runs = labeling.runs.iter().filter(|r| r.label == label);
    let spans = runs.map(|r| (r.y, r.x0, r.x1));
    let m = Moments::of_spans(spans.clone()).expect("a region has a pixel");
    // A run's end pixels border background; a pixel between them is on
    // the perimeter when the pixel above or below has another label, or
    // the run is on the first or last row.
    let (w, h) = (mask.width() as usize, mask.height());
    let mut perimeter = 0u64;
    for (y, x0, x1) in spans {
        let (x0, x1) = (x0 as usize, x1 as usize);
        if y == 0 || y + 1 == h || x1 - x0 <= 2 {
            perimeter += (x1 - x0) as u64;
            continue;
        }
        let between = |y: u32| &labeling.labels[y as usize * w..][x0 + 1..x1 - 1];
        let open = between(y - 1).iter().zip(between(y + 1));
        perimeter += 2 + open.filter(|&(&u, &d)| u != label || d != label).count() as u64;
    }
    let (min_x, min_y, max_x, max_y) = largest.bbox;
    let bbox = f64::from(max_x - min_x + 1) * f64::from(max_y - min_y + 1);
    let mut summary = [0.0f32; 3];
    summarize(&m, perimeter, bbox, &mut summary);
    let n_regions = labeling.len() as f32;
    out[0] = ((1.0 + n_regions).log2() / 8.0).min(1.0);
    out[1] = largest.area as f32 / mask.len() as f32;
    out[2..].copy_from_slice(&summary);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disc(n: u32, cx: f64, cy: f64, r: f64) -> GrayImage {
        GrayImage::from_fn(n, n, |x, y| {
            let dx = x as f64 - cx;
            let dy = y as f64 - cy;
            if dx * dx + dy * dy <= r * r {
                255
            } else {
                0
            }
        })
    }

    fn bar(n: u32, horizontal: bool) -> GrayImage {
        GrayImage::from_fn(n, n, |x, y| {
            let (major, minor) = if horizontal { (x, y) } else { (y, x) };
            if (4..n - 4).contains(&major) && ((n / 2 - 1)..=(n / 2 + 1)).contains(&minor) {
                255
            } else {
                0
            }
        })
    }

    #[test]
    fn area_and_centroid() {
        let mask = GrayImage::from_fn(10, 10, |x, y| {
            if (2..6).contains(&x) && (3..8).contains(&y) {
                255
            } else {
                0
            }
        });
        let m = Moments::compute(&mask).unwrap();
        assert_eq!(m.area(), 20.0);
        let (cx, cy) = m.centroid();
        assert!((cx - 3.5).abs() < 1e-9);
        assert!((cy - 5.0).abs() < 1e-9);
    }

    #[test]
    fn disc_has_low_eccentricity_bar_has_high() {
        let d = Moments::compute(&disc(33, 16.0, 16.0, 10.0)).unwrap();
        assert!(d.eccentricity() < 0.2, "disc e = {}", d.eccentricity());
        let b = Moments::compute(&bar(33, true)).unwrap();
        assert!(b.eccentricity() > 0.95, "bar e = {}", b.eccentricity());
    }

    #[test]
    fn orientation_tracks_major_axis() {
        let hbar = Moments::compute(&bar(33, true)).unwrap();
        assert!(hbar.orientation().abs() < 0.05);
        let vbar = Moments::compute(&bar(33, false)).unwrap();
        assert!(
            (vbar.orientation().abs() - std::f64::consts::FRAC_PI_2).abs() < 0.05,
            "vertical bar angle {}",
            vbar.orientation()
        );
    }

    #[test]
    fn hu_invariant_under_translation() {
        let a = disc(64, 20.0, 20.0, 9.0);
        let b = disc(64, 40.0, 35.0, 9.0);
        let ha = Moments::compute(&a).unwrap().hu_invariants();
        let hb = Moments::compute(&b).unwrap().hu_invariants();
        for i in 0..7 {
            assert!(
                (ha[i] - hb[i]).abs() <= 1e-6 * (1.0 + ha[i].abs()),
                "h{}: {} vs {}",
                i + 1,
                ha[i],
                hb[i]
            );
        }
    }

    #[test]
    fn hu_invariant_under_scale() {
        let a = disc(64, 32.0, 32.0, 8.0);
        let b = disc(64, 32.0, 32.0, 20.0);
        let ha = Moments::compute(&a).unwrap().hu_invariants();
        let hb = Moments::compute(&b).unwrap().hu_invariants();
        // Discretization error shrinks with radius; tolerate a few percent.
        for i in 0..2 {
            assert!(
                (ha[i] - hb[i]).abs() <= 0.05 * (ha[i].abs() + hb[i].abs()).max(1e-9),
                "h{}: {} vs {}",
                i + 1,
                ha[i],
                hb[i]
            );
        }
    }

    #[test]
    fn hu_invariant_under_rotation_90deg() {
        // 90° rotation is exact on the pixel grid.
        let a = bar(33, true);
        let b = bar(33, false);
        let ha = Moments::compute(&a).unwrap().hu_invariants();
        let hb = Moments::compute(&b).unwrap().hu_invariants();
        for i in 0..7 {
            assert!(
                (ha[i] - hb[i]).abs() <= 1e-9 + 1e-6 * ha[i].abs(),
                "h{}: {} vs {}",
                i + 1,
                ha[i],
                hb[i]
            );
        }
    }

    #[test]
    fn hu_distinguishes_different_shapes() {
        let d = hu_feature_vector(&disc(33, 16.0, 16.0, 10.0)).unwrap();
        let b = hu_feature_vector(&bar(33, true)).unwrap();
        let l1: f32 = d.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 > 0.5, "disc vs bar Hu distance {l1}");
    }

    #[test]
    fn shape_summary_of_disc_vs_bar() {
        let sd = shape_summary(&disc(33, 16.0, 16.0, 10.0)).unwrap();
        let sb = shape_summary(&bar(33, true)).unwrap();
        // Disc: round (low ecc, high compactness, extent ~ pi/4).
        assert!(sd[0] < 0.2);
        assert!(sd[1] > sb[1]);
        assert!((sd[2] - std::f64::consts::FRAC_PI_4 as f32).abs() < 0.1);
        // Bar: elongated, extent ~ 1 inside its bbox.
        assert!(sb[0] > 0.9);
        assert!(sb[2] > 0.9);
    }

    #[test]
    fn empty_region_and_image_errors() {
        assert!(Moments::compute(&GrayImage::filled(5, 5, 0)).is_err());
        assert!(Moments::compute(&GrayImage::filled(0, 0, 0)).is_err());
        assert!(hu_feature_vector(&GrayImage::filled(5, 5, 0)).is_err());
        assert!(shape_summary(&GrayImage::filled(5, 5, 0)).is_err());
    }

    #[test]
    fn region_shape_ignores_clutter() {
        // A large disc plus scattered specks: the signature describes the
        // disc, so adding specks barely moves the shape components.
        let clean = disc(33, 16.0, 16.0, 10.0);
        let mut cluttered = clean.clone();
        for i in 0..6 {
            cluttered.set(i * 5 + 1, 1, 255);
        }
        let a = region_shape_features(&clean).unwrap();
        let b = region_shape_features(&cluttered).unwrap();
        assert_eq!(a.len(), 5);
        // Region count differs...
        assert!(b[0] > a[0]);
        // ...but dominant-object shape stays put.
        for i in 2..5 {
            assert!(
                (a[i] - b[i]).abs() < 0.05,
                "component {i}: {} vs {}",
                a[i],
                b[i]
            );
        }
        // Whole-mask statistics are NOT robust to the same clutter.
        let wa = shape_summary(&clean).unwrap();
        let wb = shape_summary(&cluttered).unwrap();
        assert!(
            (wa[2] - wb[2]).abs() > 0.05,
            "extent should degrade: {} vs {}",
            wa[2],
            wb[2]
        );
    }

    #[test]
    fn region_shape_empty_mask_is_zero_vector() {
        let v = region_shape_features(&GrayImage::filled(8, 8, 0)).unwrap();
        assert_eq!(v, vec![0.0; 5]);
        assert!(region_shape_features(&GrayImage::filled(0, 0, 0)).is_err());
    }

    #[test]
    fn region_shape_separates_disc_from_bar() {
        let d = region_shape_features(&disc(33, 16.0, 16.0, 10.0)).unwrap();
        let b = region_shape_features(&bar(33, true)).unwrap();
        // Eccentricity component differs strongly.
        assert!((d[2] - b[2]).abs() > 0.5);
    }

    #[test]
    fn single_pixel_region() {
        let mut mask = GrayImage::filled(5, 5, 0);
        mask.set(2, 3, 255);
        let m = Moments::compute(&mask).unwrap();
        assert_eq!(m.area(), 1.0);
        assert_eq!(m.centroid(), (2.0, 3.0));
        assert_eq!(m.eccentricity(), 0.0);
        let s = shape_summary(&mask).unwrap();
        assert_eq!(s[2], 1.0); // extent: fills its 1x1 bbox
    }

    #[test]
    fn row_perimeter_matches_the_per_pixel_neighbour_test() {
        // The per-pixel formulation: an object pixel is on the perimeter
        // when any 4-neighbour is background or off the image.
        fn reference(mask: &GrayImage) -> Vec<f32> {
            let m = Moments::compute(mask).unwrap();
            let (w, h) = mask.dimensions();
            let mut perimeter = 0u64;
            let (mut min_x, mut min_y, mut max_x, mut max_y) = (u32::MAX, u32::MAX, 0u32, 0u32);
            for (x, y, v) in mask.enumerate_pixels() {
                if v == 0 {
                    continue;
                }
                (min_x, min_y) = (min_x.min(x), min_y.min(y));
                (max_x, max_y) = (max_x.max(x), max_y.max(y));
                let (x, y) = (x as i64, y as i64);
                let boundary =
                    [(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)]
                        .iter()
                        .any(|&(nx, ny)| {
                            nx < 0
                                || ny < 0
                                || nx >= w as i64
                                || ny >= h as i64
                                || mask.pixel(nx as u32, ny as u32) == 0
                        });
                perimeter += u64::from(boundary);
            }
            let area = m.area();
            let compactness = if perimeter > 0 {
                (4.0 * std::f64::consts::PI * area / (perimeter as f64 * perimeter as f64)).min(1.0)
            } else {
                1.0
            };
            let extent = area / ((max_x - min_x + 1) as f64 * (max_y - min_y + 1) as f64);
            vec![m.eccentricity() as f32, compactness as f32, extent as f32]
        }
        let mut masks = vec![disc(33, 16.0, 16.0, 10.0), bar(33, true), bar(20, false)];
        for (w, h) in [
            (1, 1),
            (1, 7),
            (7, 1),
            (2, 2),
            (3, 3),
            (2, 9),
            (31, 17),
            (64, 64),
            (65, 9),
            (130, 5),
            (200, 3),
        ] {
            for density in [3, 5, 9] {
                masks.push(GrayImage::from_fn(w, h, |x, y| {
                    if (x * 7919 + y * 104_729 + x * y) % density < 2 || (x, y) == (0, 0) {
                        255
                    } else {
                        0
                    }
                }));
            }
        }
        for mask in &masks {
            let got: Vec<u32> = shape_summary(mask)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u32> = reference(mask).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{:?}", mask.dimensions());
        }
    }

    /// Seeded masks: noise at several densities and shapes, plus solid
    /// frames and a lone pixel in a corner.
    fn seeded_masks() -> Vec<GrayImage> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut masks = vec![
            GrayImage::filled(64, 64, 255),
            GrayImage::filled(1, 1, 255),
            GrayImage::from_fn(64, 64, |x, y| u8::from((x, y) == (63, 63)) * 255),
            disc(64, 40.0, 22.0, 17.0),
        ];
        for (w, h) in [(1, 50), (50, 1), (3, 3), (64, 64), (65, 63), (128, 128)] {
            for density in [5, 30, 60, 95] {
                let pixels = (0..w * h)
                    .map(|_| u8::from(next() % 100 < density) * 255)
                    .collect();
                masks.push(GrayImage::from_vec(w, h, pixels).unwrap());
            }
        }
        masks
    }

    fn raw_bits(m: &[[f64; 4]; 4]) -> Vec<u64> {
        m.iter().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn power_sums_equal_the_per_pixel_loop() {
        for mask in seeded_masks() {
            let w = mask.width() as usize;
            let spans = mask
                .as_slice()
                .chunks_exact(w)
                .enumerate()
                .flat_map(|(y, row)| row_runs(row).map(move |(x0, x1)| (y as u32, x0, x1)));
            let fast = raw_from_power_sums(spans.clone()).expect("every sum below 2^53");
            let want = raw_per_pixel(spans);
            assert_eq!(raw_bits(&fast), raw_bits(&want), "{:?}", mask.dimensions());
            if want[0][0] > 0.0 {
                let got = Moments::compute(&mask).unwrap();
                assert_eq!(raw_bits(&got.m), raw_bits(&want));
            }
        }
    }

    #[test]
    fn a_sum_past_2_pow_53_takes_the_per_pixel_loop() {
        // Σ x³y³ over a full n×n frame is (n(n−1)/2)⁴: 9.5·10¹⁵, just past
        // 2⁵³, at n = 141, and 1.1·10¹⁸ at n = 256. The per-pixel loop
        // rounds there, and its rounding is what compute keeps.
        for n in [141, 256] {
            let mask = GrayImage::filled(n, n, 255);
            let spans = (0..n).map(|y| (y, 0, n));
            assert!(raw_from_power_sums(spans.clone()).is_none(), "{n}");
            let want = raw_per_pixel(spans);
            assert!(want[3][3] >= EXACT_BELOW);
            let got = Moments::compute(&mask).unwrap();
            assert_eq!(raw_bits(&got.m), raw_bits(&want), "{n}");
        }
        let exact = (255.0f64 * 256.0 / 2.0).powi(4);
        assert_ne!(raw_per_pixel((0..256).map(|y| (y, 0, 256)))[3][3], exact);
    }

    #[test]
    fn region_shape_equals_the_summary_of_the_largest_region_alone() {
        // The pre-labelling formulation: a mask of the largest region,
        // then the whole-mask summary of that mask.
        for mask in seeded_masks() {
            let labeling = connected_components(&mask, Connectivity::Eight).unwrap();
            let got = region_shape_features(&mask).unwrap();
            let Some(largest) = labeling.regions.first() else {
                assert_eq!(got, vec![0.0; 5]);
                continue;
            };
            let alone = GrayImage::from_vec(
                mask.width(),
                mask.height(),
                labeling
                    .labels
                    .iter()
                    .map(|&l| u8::from(l == largest.label) * 255)
                    .collect(),
            )
            .unwrap();
            let summary = shape_summary(&alone).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got[2..]), bits(&summary), "{:?}", mask.dimensions());
        }
    }
}
