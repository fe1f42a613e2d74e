//! Color auto-correlogram (Huang et al.): the probability that a pixel at
//! L∞ (chessboard) distance `d` from a pixel of color `c` also has color
//! `c`. Encodes color *and* spatial layout, fixing the color histogram's
//! blindness to pixel arrangement.

use crate::error::{FeatureError, Result};
use crate::quantize::Quantizer;
use cbir_image::RgbImage;

/// Auto-correlogram feature: for each color bin `c` and each distance `d`
/// in `distances`, the estimated `Pr[I(p2) = c | I(p1) = c, ||p1-p2||∞ = d]`.
#[derive(Clone, Debug, PartialEq)]
pub struct AutoCorrelogram {
    /// Distances the correlogram was sampled at.
    pub distances: Vec<u32>,
    /// Row-major `[color][distance]` probabilities.
    values: Vec<f32>,
    n_colors: usize,
}

/// The value every pixel outside the image reads as: no bin is
/// `u16::MAX` (quantizers have at most 4,096 bins), so an outside probe
/// never counts as a match.
const OUTSIDE: u16 = u16::MAX;

/// Pixels compared per step: four 256-bit vectors of `u16` bins, so one
/// offset load serves 64 pixels.
const LANES: usize = 64;

/// Reusable work buffers for [`correlogram_into`].
#[derive(Default)]
pub(crate) struct CorrelogramScratch {
    /// The bin plane inside an [`OUTSIDE`] border wide enough for every
    /// ring offset that can land in the image.
    padded: Vec<u16>,
    /// Ring offsets into `padded`, distance-major; `ends[i]` closes
    /// distance `i`'s run.
    offsets: Vec<isize>,
    ends: Vec<usize>,
    /// The current row's in-bounds ring cells, `[distance][x]`.
    cells: Vec<u32>,
    /// One row's match counts, `[distance][x]` over the lane-rounded width.
    hits: Vec<u32>,
    /// `[matches, in-bounds ring cells]` per `(color, distance)`.
    counts: Vec<[u64; 2]>,
}

/// In-bounds length of `[i - r, i + r]` on an axis of `n` cells.
fn span(i: u32, r: u32, n: u32) -> u32 {
    i.saturating_add(r).min(n - 1) - i.saturating_sub(r) + 1
}

/// Per-lane count of the ring probes at `offsets` (at most 65,535 of
/// them) that hold the same bin as the [`LANES`] pixels starting at `at`.
fn ring_hits(padded: &[u16], at: usize, offsets: &[isize]) -> [u16; LANES] {
    let cur: [u16; LANES] = padded[at..at + LANES].try_into().expect("LANES bins");
    let mut acc = [0u16; LANES];
    for &off in offsets {
        let p = (at as isize + off) as usize;
        let probe: [u16; LANES] = padded[p..p + LANES].try_into().expect("LANES bins");
        for l in 0..LANES {
            acc[l] += u16::from(cur[l] == probe[l]);
        }
    }
    acc
}

/// Core auto-correlogram accumulation over a pre-quantized bin plane,
/// writing the `[color-major][distance-minor]` probabilities into `out`.
///
/// The plane is copied inside a border of [`OUTSIDE`], so every pixel of
/// every row — border rows included — probes its whole ring at all
/// distances in one pass, [`LANES`] pixels per step, with no bounds test:
/// an outside probe simply never matches. How many ring cells lie inside
/// the image is separable: the `(2d+1)²` window's in-bounds area minus the
/// `(2d-1)²` window's, each a product of per-axis spans. Ring offsets that
/// could never land inside (beyond the image's own extent) are dropped,
/// which bounds the border by the image size whatever the distance.
///
/// The per-color counters are exact integer sums of the same per-pixel
/// matches and in-bounds cells the straightforward bounds-checked loop
/// counts, so the final `same / total` divisions are bit-identical to it
/// (a test holds the two equal).
pub(crate) fn correlogram_into(
    plane: &[u16],
    width: u32,
    height: u32,
    n_colors: usize,
    distances: &[u32],
    scratch: &mut CorrelogramScratch,
    out: &mut [f32],
) {
    let (w, h) = (width as usize, height as usize);
    let nd = distances.len();
    debug_assert_eq!(plane.len(), w * h);
    debug_assert_eq!(out.len(), n_colors * nd);
    let CorrelogramScratch {
        padded,
        offsets,
        ends,
        cells,
        hits,
        counts,
    } = scratch;
    let max_d = distances.iter().copied().max().unwrap_or(0) as usize;
    let (px, py) = (max_d.min(w - 1), max_d.min(h - 1));
    let wr = w.next_multiple_of(LANES);
    let stride = px + wr + px;
    padded.clear();
    padded.resize((py + h + py) * stride, OUTSIDE);
    for (y, row) in plane.chunks_exact(w).enumerate() {
        padded[(py + y) * stride + px..][..w].copy_from_slice(row);
    }

    // Ring offsets per distance: the top and bottom rows (if any lies
    // within the image's height) clipped to the image's width, then the
    // two side columns (if within its width) clipped to its height.
    offsets.clear();
    ends.clear();
    for &d in distances {
        let d = d as usize;
        let at = |dx: isize, dy: isize| dy * stride as isize + dx;
        if d <= py {
            let r = d.min(px) as isize;
            for dy in [-(d as isize), d as isize] {
                offsets.extend((-r..=r).map(|dx| at(dx, dy)));
            }
        }
        if d <= px {
            let r = (d - 1).min(py) as isize;
            for dx in [-(d as isize), d as isize] {
                offsets.extend((-r..=r).map(|dy| at(dx, dy)));
            }
        }
        ends.push(offsets.len());
    }
    hits.clear();
    hits.resize(nd * wr, 0);
    cells.clear();
    cells.resize(nd * w, 0);
    counts.clear();
    counts.resize(n_colors * nd, [0, 0]);

    for y in 0..h {
        let base = (py + y) * stride + px;
        for x0 in (0..wr).step_by(LANES) {
            let at = base + x0;
            let mut begin = 0;
            for (di, &end) in ends.iter().enumerate() {
                let row_hits = &mut hits[di * wr + x0..][..LANES];
                row_hits.fill(0);
                // A u16 lane counts up to 65,535 probes; only rings wider
                // than that (distances over 8,191) take a second run.
                for run in offsets[begin..end].chunks(usize::from(u16::MAX)) {
                    for (h, a) in row_hits.iter_mut().zip(ring_hits(padded, at, run)) {
                        *h += u32::from(a);
                    }
                }
                begin = end;
            }
        }
        // In-bounds ring cells per pixel of this row, per distance: the
        // true count is at most 8d, so the products may wrap modulo 2^32
        // and the difference is still exact.
        for (di, &d) in distances.iter().enumerate() {
            let y = y as u32;
            let (sy, sy_inner) = (span(y, d, height), span(y, d - 1, height));
            for (x, c) in (0..width).zip(&mut cells[di * w..][..w]) {
                let outer = span(x, d, width).wrapping_mul(sy);
                *c = outer.wrapping_sub(span(x, d - 1, width).wrapping_mul(sy_inner));
            }
        }
        // Pixel-major, so the distances' counters of one color are
        // independent updates rather than one store-forwarding chain.
        // (Plain slices, not the scratch's `Vec`s: a store through a
        // `Vec` could alias its header, which forces reloads.)
        let counts = &mut counts[..];
        let (hits, cells) = (&hits[..], &cells[..]);
        for (x, &c) in plane[y * w..][..w].iter().enumerate() {
            let c = c as usize * nd;
            for di in 0..nd {
                let [same, total] = &mut counts[c + di];
                *same += u64::from(hits[di * wr + x]);
                *total += u64::from(cells[di * w + x]);
            }
        }
    }

    for (o, &[s, t]) in out.iter_mut().zip(counts.iter()) {
        *o = if t > 0 { s as f32 / t as f32 } else { 0.0 };
    }
}

impl AutoCorrelogram {
    /// Compute the auto-correlogram.
    ///
    /// Ring pixels falling outside the image are excluded from the
    /// denominator (no synthetic border colors are introduced).
    pub fn compute(img: &RgbImage, quantizer: &Quantizer, distances: &[u32]) -> Result<Self> {
        quantizer.validate()?;
        if img.is_empty() {
            return Err(FeatureError::EmptyImage("auto-correlogram"));
        }
        if distances.is_empty() || distances.contains(&0) {
            return Err(FeatureError::InvalidParameter(
                "correlogram distances must be non-empty and positive".into(),
            ));
        }
        let n_colors = quantizer.n_bins();
        let (w, h) = img.dimensions();

        // Pre-quantize the image once.
        let mut quantized = Vec::new();
        quantizer.quantize_into(img.as_slice(), &mut quantized);
        let mut values = vec![0.0f32; n_colors * distances.len()];
        correlogram_into(
            &quantized,
            w,
            h,
            n_colors,
            distances,
            &mut CorrelogramScratch::default(),
            &mut values,
        );
        Ok(AutoCorrelogram {
            distances: distances.to_vec(),
            values,
            n_colors,
        })
    }

    /// Number of color bins.
    pub fn n_colors(&self) -> usize {
        self.n_colors
    }

    /// Probability for `(color, distance index)`.
    pub fn value(&self, color: usize, distance_idx: usize) -> f32 {
        self.values[color * self.distances.len() + distance_idx]
    }

    /// Flatten to a feature vector, `[color-major][distance-minor]`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.values.clone()
    }

    /// Feature dimensionality: `n_colors * n_distances`.
    pub fn dim(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_image::Rgb;

    /// All offsets on the L∞ ring of radius `d` (the square ring with
    /// chessboard distance exactly `d`).
    fn ring_offsets(d: i64) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for x in -d..=d {
            out.push((x, -d));
            out.push((x, d));
        }
        for y in (-d + 1)..d {
            out.push((-d, y));
            out.push((d, y));
        }
        out
    }

    const RED: Rgb = Rgb([255, 0, 0]);
    const BLUE: Rgb = Rgb([0, 0, 255]);

    #[test]
    fn uniform_image_has_probability_one() {
        let img = RgbImage::filled(10, 10, RED);
        let ac = AutoCorrelogram::compute(&img, &Quantizer::rgb_compact(), &[1, 3]).unwrap();
        let q = Quantizer::rgb_compact();
        let red_bin = q.bin_of(RED);
        assert!((ac.value(red_bin, 0) - 1.0).abs() < 1e-6);
        assert!((ac.value(red_bin, 1) - 1.0).abs() < 1e-6);
        // Colors absent from the image have probability 0.
        let blue_bin = q.bin_of(BLUE);
        assert_eq!(ac.value(blue_bin, 0), 0.0);
    }

    #[test]
    fn checkerboard_distance_one_is_low() {
        // On a checkerboard, the d=1 ring around any pixel holds 4 same and
        // 4 different colors (diagonals match, axials differ) -> p = 0.5 in
        // the interior; borders push it slightly off.
        let img = RgbImage::from_fn(16, 16, |x, y| if (x + y) % 2 == 0 { RED } else { BLUE });
        let q = Quantizer::rgb_compact();
        let ac = AutoCorrelogram::compute(&img, &q, &[1]).unwrap();
        let p = ac.value(q.bin_of(RED), 0);
        assert!((p - 0.5).abs() < 0.05, "checkerboard p = {p}");
    }

    #[test]
    fn correlogram_separates_layouts_with_identical_histograms() {
        // Half-split vs checkerboard: same global histogram, very different
        // spatial coherence.
        let split = RgbImage::from_fn(16, 16, |x, _| if x < 8 { RED } else { BLUE });
        let check = RgbImage::from_fn(16, 16, |x, y| if (x + y) % 2 == 0 { RED } else { BLUE });
        let q = Quantizer::rgb_compact();
        let a = AutoCorrelogram::compute(&split, &q, &[1]).unwrap();
        let b = AutoCorrelogram::compute(&check, &q, &[1]).unwrap();
        let red = q.bin_of(RED);
        assert!(
            a.value(red, 0) > b.value(red, 0) + 0.3,
            "split {} vs checker {}",
            a.value(red, 0),
            b.value(red, 0)
        );
    }

    #[test]
    fn probability_decays_with_distance_for_blobs() {
        // A coherent blob: staying inside the blob is easier at d=1 than d=5.
        let img = RgbImage::from_fn(20, 20, |x, y| {
            if (4..10).contains(&x) && (4..10).contains(&y) {
                RED
            } else {
                BLUE
            }
        });
        let q = Quantizer::rgb_compact();
        let ac = AutoCorrelogram::compute(&img, &q, &[1, 5]).unwrap();
        let red = q.bin_of(RED);
        assert!(ac.value(red, 0) > ac.value(red, 1));
    }

    #[test]
    fn values_are_probabilities() {
        let img = RgbImage::from_fn(12, 12, |x, y| {
            Rgb::new((x * 20) as u8, (y * 20) as u8, ((x + y) * 10) as u8)
        });
        let ac = AutoCorrelogram::compute(&img, &Quantizer::rgb_compact(), &[1, 2, 4]).unwrap();
        for v in ac.to_vec() {
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(ac.dim(), 64 * 3);
        assert_eq!(ac.n_colors(), 64);
    }

    #[test]
    fn parameter_validation() {
        let img = RgbImage::filled(4, 4, RED);
        let q = Quantizer::rgb_compact();
        assert!(AutoCorrelogram::compute(&img, &q, &[]).is_err());
        assert!(AutoCorrelogram::compute(&img, &q, &[0, 1]).is_err());
        let empty = RgbImage::filled(0, 0, RED);
        assert!(AutoCorrelogram::compute(&empty, &q, &[1]).is_err());
    }

    #[test]
    fn padded_lane_path_matches_bruteforce_bitwise() {
        // Reference: the straightforward all-bounds-checked formulation.
        let q = Quantizer::rgb_compact();
        let n = q.n_bins();
        // Shapes off and over the lane width, degenerate strips, and the
        // pipeline's 64×64; distances straddling every regime: deep
        // interior, thin interior, distance >= one axis, >= both axes.
        for (w, h) in [
            (21, 13),
            (13, 21),
            (64, 64),
            (70, 9),
            (1, 17),
            (17, 1),
            (1, 1),
        ] {
            let img = RgbImage::from_fn(w, h, |x, y| {
                Rgb::new((x * 17) as u8, (y * 29) as u8, ((x * y) % 251) as u8)
            });
            let quantized: Vec<u16> = img.pixels().map(|p| q.bin_of(p) as u16).collect();
            for dists in [
                vec![1u32],
                vec![1, 3, 5, 7],
                vec![6, 12],
                vec![20, 50],
                vec![65],
            ] {
                let mut values = vec![0.0f32; n * dists.len()];
                for (di, &d) in dists.iter().enumerate() {
                    let ring = ring_offsets(d as i64);
                    let mut same = vec![0u64; n];
                    let mut total = vec![0u64; n];
                    for y in 0..h as i64 {
                        for x in 0..w as i64 {
                            let c = quantized[y as usize * w as usize + x as usize] as usize;
                            for &(dx, dy) in &ring {
                                let (nx, ny) = (x + dx, y + dy);
                                if nx >= 0 && ny >= 0 && nx < w as i64 && ny < h as i64 {
                                    total[c] += 1;
                                    let at = ny as usize * w as usize + nx as usize;
                                    same[c] += u64::from(quantized[at] as usize == c);
                                }
                            }
                        }
                    }
                    for c in 0..n {
                        if total[c] > 0 {
                            values[c * dists.len() + di] = same[c] as f32 / total[c] as f32;
                        }
                    }
                }
                let fast = AutoCorrelogram::compute(&img, &q, &dists).unwrap();
                let fast_bits: Vec<u32> = fast.to_vec().iter().map(|v| v.to_bits()).collect();
                let ref_bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(fast_bits, ref_bits, "{w}x{h}, distances {dists:?}");
            }
        }
    }

    #[test]
    fn distance_larger_than_image_yields_zero_probabilities() {
        let img = RgbImage::filled(3, 3, RED);
        let q = Quantizer::rgb_compact();
        let ac = AutoCorrelogram::compute(&img, &q, &[10]).unwrap();
        // The entire ring is out of bounds for all pixels -> total = 0.
        assert!(ac.to_vec().iter().all(|&v| v == 0.0));
    }
}
