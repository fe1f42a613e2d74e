//! Edge-based shape features: magnitude-weighted edge-orientation
//! histograms (with circular-shift matching for rotation tolerance) and
//! edge-density grids (coarse spatial layout of edges).

use crate::error::{FeatureError, Result};
use cbir_image::ops::{orientation_bins_into, sobel};
use cbir_image::{FloatImage, GrayImage};

/// Magnitude-weighted edge-orientation histogram over `[0, π)`.
///
/// Every pixel contributes its gradient magnitude to the bin of its
/// orientation, so strong edges dominate and no brittle threshold is needed
/// (the "weight by magnitude instead of thresholding" approach). The
/// histogram is L1-normalized; an all-flat image yields the uniform
/// histogram.
pub fn edge_orientation_histogram(img: &GrayImage, bins: usize) -> Result<Vec<f32>> {
    if !(2..=256).contains(&bins) {
        return Err(FeatureError::InvalidParameter(format!(
            "orientation bins must be in 2..=256, got {bins}"
        )));
    }
    if img.is_empty() {
        return Err(FeatureError::EmptyImage("edge orientation histogram"));
    }
    let g = sobel(img);
    let mut bin_of = Vec::new();
    orientation_bins_into(&g.gx, &g.gy, bins, &mut bin_of);
    let mut hist = Vec::new();
    let mut out = vec![0.0f32; bins];
    orientation_histogram_core(&g.magnitude(), &bin_of, bins, &mut hist, &mut out);
    Ok(out)
}

/// [`edge_orientation_histogram`] over a precomputed magnitude plane and
/// the per-pixel orientation bins ([`orientation_bins_into`]), with `hist`
/// reused as the accumulation buffer and the normalized histogram written
/// into `out`.
pub(crate) fn orientation_histogram_core(
    mag: &FloatImage,
    bin_of: &[u8],
    bins: usize,
    hist: &mut Vec<f64>,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), bins);
    hist.clear();
    hist.resize(bins, 0.0);
    for (&m, &b) in mag.as_slice().iter().zip(bin_of) {
        if m <= 0.0 {
            continue;
        }
        hist[b as usize] += m as f64;
    }
    let total: f64 = hist.iter().sum();
    if total <= 0.0 {
        out.fill(1.0 / bins as f32);
        return;
    }
    for (o, &v) in out.iter_mut().zip(hist.iter()) {
        *o = (v / total) as f32;
    }
}

/// Minimum L1 distance between two orientation histograms over all circular
/// shifts — orientation histograms are not rotation invariant, so matching
/// scans every rotation and keeps the best alignment.
pub fn circular_min_l1(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "histogram lengths differ");
    if a.is_empty() {
        return 0.0;
    }
    let n = a.len();
    let mut best = f32::INFINITY;
    for shift in 0..n {
        let mut d = 0.0f32;
        for i in 0..n {
            d += (a[i] - b[(i + shift) % n]).abs();
            if d >= best {
                break;
            }
        }
        best = best.min(d);
    }
    best
}

/// Edge-density grid: split the image into `grid × grid` cells and report
/// the fraction of edge pixels (normalized Sobel magnitude above
/// `threshold`) per cell, row-major. A coarse but robust layout descriptor.
pub fn edge_density_grid(img: &GrayImage, grid: u32, threshold: f32) -> Result<Vec<f32>> {
    if grid == 0 || grid > 64 {
        return Err(FeatureError::InvalidParameter(format!(
            "grid must be in 1..=64, got {grid}"
        )));
    }
    let (w, h) = img.dimensions();
    if w < grid || h < grid {
        return Err(FeatureError::InvalidParameter(format!(
            "image {w}x{h} smaller than {grid}x{grid} grid"
        )));
    }
    let mag_norm = sobel::sobel_magnitude(img);
    let mut counts = Vec::new();
    let mut totals = Vec::new();
    let mut out = vec![0.0f32; (grid * grid) as usize];
    density_grid_core(
        &mag_norm,
        grid,
        threshold,
        &mut counts,
        &mut totals,
        &mut out,
    );
    Ok(out)
}

/// [`edge_density_grid`] over a precomputed normalized Sobel magnitude
/// plane. `m > threshold` is exactly the predicate `edge_map` uses to mark
/// an edge pixel, so the densities match the binary-edge-map formulation.
pub(crate) fn density_grid_core(
    mag_norm: &FloatImage,
    grid: u32,
    threshold: f32,
    counts: &mut Vec<u32>,
    totals: &mut Vec<u32>,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), (grid * grid) as usize);
    let (w, h) = mag_norm.dimensions();
    counts.clear();
    counts.resize((grid * grid) as usize, 0);
    totals.clear();
    totals.resize((grid * grid) as usize, 0);
    // Cell `c` of an axis of `n` pixels holds the pixels `i` with
    // `i·grid/n = c`, i.e. `ceil(c·n/grid) ≤ i < ceil((c+1)·n/grid)`: count
    // each row's edges run by run into the row's strip of cells.
    let (w, h, grid) = (w as usize, h as usize, grid as usize);
    let start = |c: usize, n: usize| (c * n).div_ceil(grid);
    for (y, row) in mag_norm.as_slice().chunks_exact(w).enumerate() {
        let strip = (y * grid / h).min(grid - 1) * grid;
        for cx in 0..grid {
            let run = &row[start(cx, w)..start(cx + 1, w)];
            totals[strip + cx] += run.len() as u32;
            counts[strip + cx] += run.iter().filter(|&&m| m > threshold).count() as u32;
        }
    }
    for ((o, &c), &t) in out.iter_mut().zip(counts.iter()).zip(totals.iter()) {
        *o = if t > 0 { c as f32 / t as f32 } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertical_stripes(n: u32, period: u32) -> GrayImage {
        GrayImage::from_fn(n, n, |x, _| {
            if (x / period).is_multiple_of(2) {
                0
            } else {
                220
            }
        })
    }

    fn horizontal_stripes(n: u32, period: u32) -> GrayImage {
        GrayImage::from_fn(n, n, |_, y| {
            if (y / period).is_multiple_of(2) {
                0
            } else {
                220
            }
        })
    }

    #[test]
    fn histogram_is_normalized() {
        let img = GrayImage::from_fn(32, 32, |x, y| ((x * 13 + y * 29) % 256) as u8);
        let h = edge_orientation_histogram(&img, 8).unwrap();
        assert_eq!(h.len(), 8);
        let s: f32 = h.iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
        assert!(h.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn flat_image_gives_uniform_histogram() {
        let h = edge_orientation_histogram(&GrayImage::filled(16, 16, 100), 10).unwrap();
        for v in h {
            assert!((v - 0.1).abs() < 1e-6);
        }
    }

    #[test]
    fn stripes_concentrate_in_one_bin() {
        // Vertical stripes: gradients along x, orientation ~ 0.
        let h = edge_orientation_histogram(&vertical_stripes(32, 4), 8).unwrap();
        // Orientation 0 falls in bin 0 (or wraps into the last bin).
        assert!(h[0] + h[7] > 0.9, "{h:?}");

        // Horizontal stripes: orientation ~ pi/2 -> middle bin.
        let h = edge_orientation_histogram(&horizontal_stripes(32, 4), 8).unwrap();
        assert!(h[4] + h[3] > 0.9, "{h:?}");
    }

    #[test]
    fn circular_matching_aligns_rotated_histograms() {
        let a = edge_orientation_histogram(&vertical_stripes(32, 4), 8).unwrap();
        let b = edge_orientation_histogram(&horizontal_stripes(32, 4), 8).unwrap();
        // Plain L1 sees them as very different...
        let plain: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(plain > 1.0);
        // ...but a circular shift aligns a 90°-rotated pattern.
        let circ = circular_min_l1(&a, &b);
        assert!(circ < 0.35, "circular distance {circ}");
        // And circular distance never exceeds the plain one.
        assert!(circ <= plain + 1e-6);
    }

    #[test]
    fn circular_min_is_symmetric_and_zero_on_self() {
        let a = [0.5f32, 0.3, 0.1, 0.1];
        let b = [0.1f32, 0.5, 0.3, 0.1];
        assert_eq!(circular_min_l1(&a, &a), 0.0);
        // a shifted by 1 equals b -> circular distance 0.
        assert!(circular_min_l1(&a, &b) < 1e-6);
        let c = [0.7f32, 0.1, 0.1, 0.1];
        assert!((circular_min_l1(&a, &c) - circular_min_l1(&c, &a)).abs() < 1e-6);
    }

    #[test]
    fn density_grid_localizes_edges() {
        // All structure in the left half.
        let img = GrayImage::from_fn(32, 32, |x, y| if x < 16 && (y % 4 == 0) { 255 } else { 0 });
        let g = edge_density_grid(&img, 2, 10.0).unwrap();
        assert_eq!(g.len(), 4);
        // Left cells dense, right cells nearly empty (border effects only).
        assert!(g[0] > 0.3, "{g:?}");
        assert!(g[2] > 0.3, "{g:?}");
        assert!(g[1] < g[0] / 2.0, "{g:?}");
        assert!(g[3] < g[2] / 2.0, "{g:?}");
    }

    #[test]
    fn density_grid_values_are_fractions() {
        let img = GrayImage::from_fn(30, 30, |x, y| ((x * 17 + y * 23) % 256) as u8);
        let g = edge_density_grid(&img, 3, 20.0).unwrap();
        assert_eq!(g.len(), 9);
        assert!(g.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn validation() {
        let img = GrayImage::filled(8, 8, 0);
        assert!(edge_orientation_histogram(&img, 1).is_err());
        assert!(edge_orientation_histogram(&img, 500).is_err());
        assert!(edge_orientation_histogram(&GrayImage::filled(0, 0, 0), 8).is_err());
        assert!(edge_density_grid(&img, 0, 1.0).is_err());
        assert!(edge_density_grid(&img, 65, 1.0).is_err());
        assert!(edge_density_grid(&img, 16, 1.0).is_err()); // grid > image
    }

    #[test]
    fn uneven_grid_division_covers_all_pixels() {
        // 10x10 image, 3x3 grid: cells of ragged size must still partition.
        let img = GrayImage::from_fn(10, 10, |x, y| ((x + y) * 12) as u8);
        let g = edge_density_grid(&img, 3, 5.0).unwrap();
        assert_eq!(g.len(), 9);
        // Diagonal ramp has edges everywhere: all cells nonzero.
        assert!(g.iter().all(|&v| v > 0.0), "{g:?}");
    }

    #[test]
    fn run_counting_matches_per_pixel_cell_assignment() {
        // Ragged and degenerate divisions: every pixel must land in the
        // cell `(x·grid/w, y·grid/h)` the per-pixel formulation gives it.
        for (w, h, grid) in [(37, 23, 5), (10, 10, 3), (8, 8, 8), (64, 64, 4), (9, 40, 1)] {
            let mag = FloatImage::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 23) as f32);
            let mut got = vec![0.0f32; (grid * grid) as usize];
            density_grid_core(&mag, grid, 11.0, &mut Vec::new(), &mut Vec::new(), &mut got);
            let (mut counts, mut totals) = (vec![0u32; got.len()], vec![0u32; got.len()]);
            for (x, y, m) in mag.enumerate_pixels() {
                let c =
                    ((y * grid / h).min(grid - 1) * grid + (x * grid / w).min(grid - 1)) as usize;
                totals[c] += 1;
                counts[c] += u32::from(m > 11.0);
            }
            let want: Vec<f32> = counts
                .iter()
                .zip(&totals)
                .map(|(&c, &t)| if t > 0 { c as f32 / t as f32 } else { 0.0 })
                .collect();
            assert_eq!(got, want, "{w}x{h} grid {grid}");
        }
    }
}
