//! Gray-level co-occurrence matrices (Haralick) and the texture statistics
//! derived from them: energy, entropy, contrast, homogeneity, correlation.

use crate::error::{FeatureError, Result};
use cbir_image::GrayImage;

/// A normalized gray-level co-occurrence matrix at one displacement.
#[derive(Clone, Debug)]
pub struct Glcm {
    levels: usize,
    /// Row-major joint probabilities `P[i][j]`, summing to 1.
    p: Vec<f64>,
}

/// Standard displacement set: 0°, 45°, 90°, 135° at unit distance.
pub const STANDARD_OFFSETS: [(i32, i32); 4] = [(1, 0), (1, -1), (0, -1), (-1, -1)];

impl Glcm {
    /// Build a symmetric, normalized GLCM with `levels` quantized gray
    /// levels at displacement `(dx, dy)`.
    ///
    /// Symmetric means each pair is counted in both directions, the usual
    /// convention (Haralick's `P(i,j) + P(j,i)`).
    pub fn compute(img: &GrayImage, levels: usize, dx: i32, dy: i32) -> Result<Self> {
        if !(2..=256).contains(&levels) {
            return Err(FeatureError::InvalidParameter(format!(
                "GLCM levels must be in 2..=256, got {levels}"
            )));
        }
        if dx == 0 && dy == 0 {
            return Err(FeatureError::InvalidParameter(
                "GLCM displacement must be nonzero".into(),
            ));
        }
        if img.is_empty() {
            return Err(FeatureError::EmptyImage("glcm"));
        }
        let (w, h) = img.dimensions();
        let quant = |v: u8| (v as usize * levels) / 256;
        let mut counts = vec![0u64; levels * levels];
        let mut total = 0u64;
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let nx = x + dx as i64;
                let ny = y + dy as i64;
                if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                    continue;
                }
                let a = quant(img.pixel(x as u32, y as u32));
                let b = quant(img.pixel(nx as u32, ny as u32));
                counts[a * levels + b] += 1;
                counts[b * levels + a] += 1;
                total += 2;
            }
        }
        if total == 0 {
            return Err(FeatureError::InvalidParameter(
                "GLCM displacement exceeds image extent; no pixel pairs".into(),
            ));
        }
        let p = counts.iter().map(|&c| c as f64 / total as f64).collect();
        Ok(Glcm { levels, p })
    }

    /// Number of gray levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Joint probability `P(i, j)`.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p[i * self.levels + j]
    }

    /// Energy (angular second moment): `Σ P(i,j)²`. 1 for a constant image.
    pub fn energy(&self) -> f64 {
        self.p.iter().map(|&v| v * v).sum()
    }

    /// Entropy: `-Σ P ln P`. 0 for a constant image, maximal for uniform P.
    pub fn entropy(&self) -> f64 {
        -self
            .p
            .iter()
            .filter(|&&v| v > 0.0)
            .map(|&v| v * v.ln())
            .sum::<f64>()
    }

    /// Contrast: `Σ (i-j)² P(i,j)`. Zero when co-occurring levels are equal.
    pub fn contrast(&self) -> f64 {
        let mut total = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                let d = i as f64 - j as f64;
                total += d * d * self.prob(i, j);
            }
        }
        total
    }

    /// Homogeneity (inverse difference moment): `Σ P(i,j) / (1 + |i-j|)`.
    pub fn homogeneity(&self) -> f64 {
        let mut total = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                total += self.prob(i, j) / (1.0 + (i as f64 - j as f64).abs());
            }
        }
        total
    }

    /// Correlation: `Σ (i-μ)(j-μ) P(i,j) / σ²` for the symmetric GLCM
    /// (identical marginals). Returns 0 for a degenerate (σ = 0) matrix.
    pub fn correlation(&self) -> f64 {
        let mut mu = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                mu += i as f64 * self.prob(i, j);
            }
        }
        let mut var = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                var += (i as f64 - mu) * (i as f64 - mu) * self.prob(i, j);
            }
        }
        if var <= 1e-12 {
            return 0.0;
        }
        let mut num = 0.0;
        for i in 0..self.levels {
            for j in 0..self.levels {
                num += (i as f64 - mu) * (j as f64 - mu) * self.prob(i, j);
            }
        }
        num / var
    }

    /// The five classic statistics as an `[energy, entropy, contrast,
    /// homogeneity, correlation]` vector.
    pub fn features(&self) -> [f64; 5] {
        [
            self.energy(),
            self.entropy(),
            self.contrast(),
            self.homogeneity(),
            self.correlation(),
        ]
    }
}

/// Rotation-tolerant texture signature: the five GLCM statistics averaged
/// over the four standard orientations, as `f32`s.
pub fn glcm_features(img: &GrayImage, levels: usize) -> Result<Vec<f32>> {
    let mut out = vec![0.0f32; 5];
    glcm_features_into(img, levels, &mut GlcmScratch::default(), &mut out)?;
    Ok(out)
}

/// Independent pair tables [`glcm_stats`] counts into, so consecutive
/// pairs of one level pair do not wait on each other's increment.
const PARTIAL_TABLES: usize = 4;

/// Reusable buffers for [`glcm_features_into`].
#[derive(Default)]
pub(crate) struct GlcmScratch {
    /// The gray plane quantized to `levels` once for all four offsets.
    quant: Vec<u8>,
    /// [`PARTIAL_TABLES`] asymmetric `levels × levels` pair counts.
    pairs: Vec<u32>,
    /// The symmetric counts `P(i,j) + P(j,i)`, then as probabilities.
    counts: Vec<u32>,
    probs: Vec<f64>,
}

/// [`glcm_features`] with `scratch` reused for the quantized plane and
/// the co-occurrence counts, and the statistics written into `out`.
///
/// The statistics are computed straight off the integer counts with the
/// same `count / total` division [`Glcm::compute`] performs when
/// normalizing, in the same summation orders, so the results are
/// bit-identical to building the probability matrix first.
pub(crate) fn glcm_features_into(
    img: &GrayImage,
    levels: usize,
    scratch: &mut GlcmScratch,
    out: &mut [f32],
) -> Result<()> {
    debug_assert_eq!(out.len(), 5);
    if !(2..=256).contains(&levels) {
        return Err(FeatureError::InvalidParameter(format!(
            "GLCM levels must be in 2..=256, got {levels}"
        )));
    }
    if img.is_empty() {
        return Err(FeatureError::EmptyImage("glcm"));
    }
    scratch.quant.clear();
    scratch
        .quant
        .extend(img.pixels().map(|v| (v as usize * levels / 256) as u8));
    let mut acc = [0.0f64; 5];
    for &(dx, dy) in &STANDARD_OFFSETS {
        let stats = glcm_stats(img.width(), levels, dx, dy, scratch)?;
        for (a, f) in acc.iter_mut().zip(stats) {
            *a += f;
        }
    }
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = (a / 4.0) as f32;
    }
    Ok(())
}

/// The five statistics of one symmetric GLCM over the quantized plane in
/// `scratch`, mirroring [`Glcm::compute`] and the individual statistic
/// methods exactly.
///
/// The pairs whose displaced partner is inside the image form one
/// rectangle, so it is walked row by row with no bounds test, counting
/// each ordered pair once into one of [`PARTIAL_TABLES`] `u32` tables;
/// the symmetric count is then `P(i,j) + P(j,i)` summed over the tables,
/// and the total is twice the pair count — the same integers the
/// per-pixel loop's two increments per pair produce.
fn glcm_stats(
    width: u32,
    levels: usize,
    dx: i32,
    dy: i32,
    scratch: &mut GlcmScratch,
) -> Result<[f64; 5]> {
    let GlcmScratch {
        quant,
        pairs,
        counts,
        probs,
    } = scratch;
    let w = width as usize;
    let h = quant.len() / w;
    let ll = levels * levels;
    // Pixels (x, y) whose partner (x + dx, y + dy) is inside the image.
    let (x0, x1) = ((-dx).max(0) as usize, w.saturating_sub(dx.max(0) as usize));
    let (y0, y1) = ((-dy).max(0) as usize, h.saturating_sub(dy.max(0) as usize));
    if x0 >= x1 || y0 >= y1 {
        return Err(FeatureError::InvalidParameter(
            "GLCM displacement exceeds image extent; no pixel pairs".into(),
        ));
    }
    pairs.clear();
    pairs.resize(PARTIAL_TABLES * ll, 0);
    let (quant, tables) = (&quant[..], &mut pairs[..]);
    for y in y0..y1 {
        let here = &quant[y * w + x0..y * w + x1];
        let there_at = ((y as i64 + i64::from(dy)) * w as i64 + x0 as i64 + i64::from(dx)) as usize;
        let there = &quant[there_at..there_at + here.len()];
        for (i, (&a, &b)) in here.iter().zip(there).enumerate() {
            tables[(i % PARTIAL_TABLES) * ll + a as usize * levels + b as usize] += 1;
        }
    }
    counts.clear();
    counts.extend((0..ll).map(|ij| {
        let ji = (ij % levels) * levels + ij / levels;
        (0..PARTIAL_TABLES)
            .map(|t| tables[t * ll + ij] + tables[t * ll + ji])
            .sum::<u32>()
    }));
    let t = (2 * (x1 - x0) as u64 * (y1 - y0) as u64) as f64;
    probs.clear();
    probs.extend(counts.iter().map(|&c| c as f64 / t));

    // Each statistic is its own running sum, taken in the same row-major
    // order as the one-statistic-per-loop formulation; fusing the
    // independent sums into one pass changes no operand and no order,
    // only lets their add chains overlap.
    let (mut energy, mut neg_entropy, mut contrast, mut homogeneity, mut mu) =
        (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (ij, &v) in probs.iter().enumerate() {
        let (i, j) = ((ij / levels) as f64, (ij % levels) as f64);
        let d = i - j;
        energy += v * v;
        if v > 0.0 {
            neg_entropy += v * v.ln();
        }
        contrast += d * d * v;
        homogeneity += v / (1.0 + d.abs());
        mu += i * v;
    }
    let entropy = -neg_entropy;
    let (mut var, mut num) = (0.0f64, 0.0f64);
    for (ij, &v) in probs.iter().enumerate() {
        let (i, j) = ((ij / levels) as f64, (ij % levels) as f64);
        var += (i - mu) * (i - mu) * v;
        num += (i - mu) * (j - mu) * v;
    }
    let correlation = if var <= 1e-12 { 0.0 } else { num / var };
    Ok([energy, entropy, contrast, homogeneity, correlation])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * 37 + y * 111) % 256) as u8);
        let g = Glcm::compute(&img, 8, 1, 0).unwrap();
        let s: f64 = (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| g.prob(i, j))
            .sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_is_symmetric() {
        let img = GrayImage::from_fn(12, 12, |x, y| ((x * 53 + y * 19) % 256) as u8);
        let g = Glcm::compute(&img, 16, 1, -1).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                assert!((g.prob(i, j) - g.prob(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn constant_image_statistics() {
        let img = GrayImage::filled(10, 10, 200);
        let g = Glcm::compute(&img, 8, 1, 0).unwrap();
        assert!((g.energy() - 1.0).abs() < 1e-9);
        assert!(g.entropy().abs() < 1e-9);
        assert!(g.contrast().abs() < 1e-9);
        assert!((g.homogeneity() - 1.0).abs() < 1e-9);
        // Degenerate variance -> correlation defined as 0.
        assert_eq!(g.correlation(), 0.0);
    }

    #[test]
    fn checkerboard_has_maximal_contrast_horizontally() {
        // Alternating 0/255 columns: at (1,0) every pair is (0, L-1).
        let img = GrayImage::from_fn(12, 12, |x, _| if x % 2 == 0 { 0 } else { 255 });
        let g = Glcm::compute(&img, 8, 1, 0).unwrap();
        // All co-occurrences are between levels 0 and 7.
        assert!((g.prob(0, 7) + g.prob(7, 0) - 1.0).abs() < 1e-9);
        assert!((g.contrast() - 49.0).abs() < 1e-9);
        assert!(g.homogeneity() < 0.2);
        // Perfectly anti-correlated.
        assert!(g.correlation() < -0.99);
    }

    #[test]
    fn vertical_stripes_are_smooth_vertically() {
        let img = GrayImage::from_fn(12, 12, |x, _| if x % 2 == 0 { 0 } else { 255 });
        // Along the stripe direction, neighbours are identical.
        let g = Glcm::compute(&img, 8, 0, -1).unwrap();
        assert!(g.contrast().abs() < 1e-9);
        assert!((g.homogeneity() - 1.0).abs() < 1e-9);
        assert!(g.correlation() > 0.99);
    }

    #[test]
    fn smooth_texture_vs_noise() {
        let smooth = GrayImage::from_fn(24, 24, |x, y| ((x + y) * 5) as u8);
        let noisy = GrayImage::from_fn(24, 24, |x, y| ((x * 7919 + y * 104729) % 256) as u8);
        let gs = Glcm::compute(&smooth, 16, 1, 0).unwrap();
        let gn = Glcm::compute(&noisy, 16, 1, 0).unwrap();
        assert!(gs.contrast() < gn.contrast());
        assert!(gs.homogeneity() > gn.homogeneity());
        assert!(gs.entropy() < gn.entropy());
    }

    #[test]
    fn averaged_features_shape_and_validity() {
        let img = GrayImage::from_fn(20, 20, |x, y| ((x * 11 + y * 3) % 256) as u8);
        let f = glcm_features(&img, 16).unwrap();
        assert_eq!(f.len(), 5);
        assert!(f[0] > 0.0 && f[0] <= 1.0); // energy
        assert!(f[1] >= 0.0); // entropy
        assert!(f[2] >= 0.0); // contrast
        assert!(f[3] > 0.0 && f[3] <= 1.0); // homogeneity
        assert!((-1.0..=1.0).contains(&f[4])); // correlation
    }

    #[test]
    fn count_based_stats_match_probability_matrix_bitwise() {
        let img = GrayImage::from_fn(20, 14, |x, y| ((x * 11 + y * 3) % 256) as u8);
        for levels in [2, 8, 16] {
            let mut acc = [0.0f64; 5];
            for &(dx, dy) in &STANDARD_OFFSETS {
                let g = Glcm::compute(&img, levels, dx, dy).unwrap();
                for (a, f) in acc.iter_mut().zip(g.features()) {
                    *a += f;
                }
            }
            let reference: Vec<u32> = acc.iter().map(|&a| ((a / 4.0) as f32).to_bits()).collect();
            let fast: Vec<u32> = glcm_features(&img, levels)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(fast, reference, "levels {levels}");
        }
    }

    #[test]
    fn validation() {
        let img = GrayImage::filled(4, 4, 0);
        assert!(Glcm::compute(&img, 1, 1, 0).is_err());
        assert!(Glcm::compute(&img, 300, 1, 0).is_err());
        assert!(Glcm::compute(&img, 8, 0, 0).is_err());
        assert!(Glcm::compute(&GrayImage::filled(0, 0, 0), 8, 1, 0).is_err());
        // Displacement beyond extent: no pairs.
        assert!(Glcm::compute(&img, 8, 10, 0).is_err());
    }

    #[test]
    fn energy_entropy_are_inversely_related() {
        // Across a family of images, higher energy should come with lower
        // entropy (both measure concentration of P).
        let imgs = [
            GrayImage::filled(16, 16, 100),
            GrayImage::from_fn(16, 16, |x, _| (x * 16) as u8),
            GrayImage::from_fn(16, 16, |x, y| ((x * 7919 + y * 104729) % 256) as u8),
        ];
        let stats: Vec<(f64, f64)> = imgs
            .iter()
            .map(|im| {
                let g = Glcm::compute(im, 8, 1, 0).unwrap();
                (g.energy(), g.entropy())
            })
            .collect();
        // Sorted by energy descending -> entropy ascending.
        assert!(stats[0].0 > stats[1].0 && stats[1].0 > stats[2].0);
        assert!(stats[0].1 < stats[1].1 && stats[1].1 < stats[2].1);
    }
}
