//! Region shape descriptors from image moments: centroid, orientation,
//! eccentricity, Hu's seven invariants, and simple region statistics.
//!
//! All functions operate on a binary mask (nonzero = object) so they compose
//! with the thresholding and morphology operators.

use crate::error::{FeatureError, Result};
use cbir_image::ops::{Connectivity, Labeling};
use cbir_image::GrayImage;

/// Raw, central, and normalized moments of a binary region.
#[derive(Clone, Debug)]
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
        let mut m = [[0.0f64; 4]; 4];
        let powers = |v: usize| {
            let f = v as f64;
            [1.0, f, f * f, f * f * f]
        };
        // Row by row (pixels in raster order, as the sums need): no
        // coordinate is divided out of a flat index.
        for (y, row) in mask
            .as_slice()
            .chunks_exact(mask.width() as usize)
            .enumerate()
        {
            let yp = powers(y);
            for (x, _) in row.iter().enumerate().filter(|&(_, &v)| v != 0) {
                let xp = powers(x);
                for (p, &xv) in xp.iter().enumerate() {
                    for (q, &yv) in yp.iter().enumerate() {
                        m[p][q] += xv * yv;
                    }
                }
            }
        }
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

/// Log-compressed Hu invariants as an `f32` feature vector:
/// `sign(h) * ln(1 + |h| * 1e6)` keeps the wildly different magnitudes of
/// the seven invariants on a comparable scale.
pub fn hu_feature_vector(mask: &GrayImage) -> Result<Vec<f32>> {
    let mut out = vec![0.0f32; 7];
    hu_into(mask, &mut out)?;
    Ok(out)
}

/// [`hu_feature_vector`] into a caller-provided 7-element slice.
pub(crate) fn hu_into(mask: &GrayImage, out: &mut [f32]) -> Result<()> {
    debug_assert_eq!(out.len(), 7);
    let m = Moments::compute(mask)?;
    for (o, &h) in out.iter_mut().zip(m.hu_invariants().iter()) {
        *o = (h.signum() * (1.0 + h.abs() * 1e6).ln()) as f32;
    }
    Ok(())
}

/// Shape summary `[eccentricity, compactness, extent]`:
/// compactness = `4π·area / perimeter²` (1 for a disc), extent = fraction of
/// the bounding box covered.
pub fn shape_summary(mask: &GrayImage) -> Result<Vec<f32>> {
    let mut out = vec![0.0f32; 3];
    shape_summary_into(mask, &mut out)?;
    Ok(out)
}

/// [`shape_summary`] into a caller-provided 3-element slice.
pub(crate) fn shape_summary_into(mask: &GrayImage, out: &mut [f32]) -> Result<()> {
    debug_assert_eq!(out.len(), 3);
    let m = Moments::compute(mask)?;
    let (w, h) = mask.dimensions();

    // Perimeter: object pixels with at least one 4-neighbour background
    // (or border) pixel. Counted row by row: on the first and last row and
    // column every object pixel is on the border; inside, a pixel is on
    // the perimeter unless its four neighbours are all object.
    let (w, h) = (w as usize, h as usize);
    let row_at = |y: usize| &mask.as_slice()[y * w..][..w];
    let mut perimeter = 0u64;
    let (mut min_x, mut min_y, mut max_x, mut max_y) = (usize::MAX, usize::MAX, 0, 0);
    for (y, row) in mask.as_slice().chunks_exact(w).enumerate() {
        let Some(first) = row.iter().position(|&v| v != 0) else {
            continue;
        };
        let last = row.iter().rposition(|&v| v != 0).unwrap_or(first);
        (min_x, max_x) = (min_x.min(first), max_x.max(last));
        (min_y, max_y) = (min_y.min(y), y);
        let objects = |r: &[u8]| r.iter().filter(|&&v| v != 0).count() as u64;
        if y == 0 || y == h - 1 || w <= 2 {
            perimeter += objects(row);
            continue;
        }
        perimeter += objects(&row[..1]) + objects(&row[w - 1..]);
        let (up, down) = (&row_at(y - 1)[1..w - 1], &row_at(y + 1)[1..w - 1]);
        let inner = row[1..w - 1].iter().zip(&row[..w - 2]).zip(&row[2..]);
        perimeter += inner
            .zip(up.iter().zip(down))
            .filter(|&(((&v, &l), &r), (&u, &d))| v != 0 && (l == 0 || r == 0 || u == 0 || d == 0))
            .count() as u64;
    }
    let area = m.area();
    let compactness = if perimeter > 0 {
        (4.0 * std::f64::consts::PI * area / (perimeter as f64 * perimeter as f64)).min(1.0)
    } else {
        1.0
    };
    let bbox = (max_x - min_x + 1) as f64 * (max_y - min_y + 1) as f64;
    let extent = area / bbox;
    out[0] = m.eccentricity() as f32;
    out[1] = compactness as f32;
    out[2] = extent as f32;
    Ok(())
}

/// Region-based shape signature built on connected-component analysis of
/// the Otsu foreground: `[log2(1 + n_regions) / 8, largest-region area
/// fraction, largest-region eccentricity, compactness, extent]`. Unlike the
/// whole-mask statistics this describes *the dominant object*, ignoring
/// disconnected clutter.
pub fn region_shape_features(mask: &GrayImage) -> Result<Vec<f32>> {
    let mut labeling = Labeling::empty();
    let mut largest = GrayImage::filled(0, 0, 0);
    let mut out = vec![0.0f32; 5];
    region_shape_into(mask, &mut labeling, &mut largest, &mut out)?;
    Ok(out)
}

/// [`region_shape_features`] into a caller-provided 5-element slice, with
/// the component labeling and largest-region mask buffers reused across
/// calls. `connected_components` is just `Labeling::recompute` on a fresh
/// labeling, so the results are identical.
pub(crate) fn region_shape_into(
    mask: &GrayImage,
    labeling: &mut Labeling,
    largest: &mut GrayImage,
    out: &mut [f32],
) -> Result<()> {
    debug_assert_eq!(out.len(), 5);
    if mask.is_empty() {
        return Err(FeatureError::EmptyImage("region shape"));
    }
    labeling
        .recompute(mask, Connectivity::Eight)
        .map_err(FeatureError::Image)?;
    if !labeling.largest_mask_into(largest) {
        // No foreground at all: a distinctive all-zero signature.
        out.fill(0.0);
        return Ok(());
    }
    let n_regions = labeling.len() as f32;
    let largest_area = labeling.regions[0].area as f32;
    let area_fraction = largest_area / mask.len() as f32;
    let mut summary = [0.0f32; 3];
    shape_summary_into(largest, &mut summary)?;
    out[0] = ((1.0 + n_regions).log2() / 8.0).min(1.0);
    out[1] = area_fraction;
    out[2] = summary[0];
    out[3] = summary[1];
    out[4] = summary[2];
    Ok(())
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
}
