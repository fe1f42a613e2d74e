//! 2-D convolution with replicate-border handling, plus separable kernels.

use crate::error::{ImageError, Result};
use crate::image::FloatImage;

/// A dense 2-D convolution kernel with odd dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    width: u32,
    height: u32,
    weights: Vec<f32>,
}

impl Kernel {
    /// Build a kernel from row-major weights. Both dimensions must be odd so
    /// the kernel has a well-defined centre.
    pub fn new(width: u32, height: u32, weights: Vec<f32>) -> Result<Self> {
        if width.is_multiple_of(2) || height.is_multiple_of(2) || width == 0 || height == 0 {
            return Err(ImageError::InvalidParameter(format!(
                "kernel dimensions must be odd and positive, got {width}x{height}"
            )));
        }
        if weights.len() != (width * height) as usize {
            return Err(ImageError::InvalidParameter(format!(
                "kernel weight count {} does not match {width}x{height}",
                weights.len()
            )));
        }
        Ok(Kernel {
            width,
            height,
            weights,
        })
    }

    /// Kernel width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Kernel height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Row-major weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Sum of all weights (1.0 for normalized smoothing kernels, 0.0 for
    /// derivative kernels).
    pub fn sum(&self) -> f32 {
        self.weights.iter().sum()
    }
}

/// Convolve `img` with `kernel`, replicating edge pixels outside the border.
/// Output has the same dimensions as the input.
///
/// This is correlation-style application (no kernel flip), matching the
/// convention of every classical vision text for symmetric kernels; for the
/// antisymmetric Sobel kernels the sign convention is documented at the call
/// sites.
pub fn convolve(img: &FloatImage, kernel: &Kernel) -> FloatImage {
    let (w, h) = img.dimensions();
    let kx = (kernel.width / 2) as i64;
    let ky = (kernel.height / 2) as i64;
    FloatImage::from_fn(w, h, |x, y| {
        let mut acc = 0.0f32;
        let mut wi = 0usize;
        for dy in -ky..=ky {
            for dx in -kx..=kx {
                let v = img.get_clamped(x as i64 + dx, y as i64 + dy);
                acc += v * kernel.weights[wi];
                wi += 1;
            }
        }
        acc
    })
}

/// Convolve with a separable kernel given as a horizontal then a vertical
/// 1-D pass. Equivalent to `convolve` with the outer product kernel but
/// O(k) instead of O(k²) per pixel.
///
/// Both passes stream whole rows through contiguous slices instead of doing
/// per-pixel clamped lookups; per-pixel tap contributions are still
/// accumulated in ascending tap order, so results are bit-identical to the
/// straightforward per-pixel formulation.
pub fn convolve_separable(img: &FloatImage, kx: &[f32], ky: &[f32]) -> Result<FloatImage> {
    if kx.len().is_multiple_of(2) || ky.len().is_multiple_of(2) || kx.is_empty() || ky.is_empty() {
        return Err(ImageError::InvalidParameter(
            "separable kernel taps must be odd-length and non-empty".into(),
        ));
    }
    let (w, h) = img.dimensions();
    if w == 0 || h == 0 {
        return Ok(FloatImage::filled(w, h, 0.0));
    }
    let wi = w as usize;
    let rx = (kx.len() / 2) as i64;

    // Horizontal pass: for each tap, the replicated-border source index
    // x + off splits each row into a clamped-left prefix, a contiguous
    // middle, and a clamped-right suffix.
    let mut horizontal = FloatImage::filled(w, h, 0.0);
    for y in 0..h {
        let src = img.row(y);
        let row_start = y as usize * wi;
        let dst = &mut horizontal.as_mut_slice()[row_start..row_start + wi];
        for (i, &wgt) in kx.iter().enumerate() {
            let off = i as i64 - rx;
            let lo = (-off).clamp(0, wi as i64) as usize;
            let hi = (wi as i64 - 1 - off).clamp(-1, wi as i64 - 1);
            for d in dst[..lo].iter_mut() {
                *d += wgt * src[0];
            }
            if hi >= lo as i64 {
                let (lo, hi) = (lo, hi as usize);
                let shifted = &src[(lo as i64 + off) as usize..=(hi as i64 + off) as usize];
                for (d, &s) in dst[lo..=hi].iter_mut().zip(shifted) {
                    *d += wgt * s;
                }
            }
            let tail = ((hi + 1).max(0) as usize).min(wi);
            for d in dst[tail..].iter_mut() {
                *d += wgt * src[wi - 1];
            }
        }
    }

    // Vertical pass: each tap adds a whole (border-clamped) source row to
    // each output row.
    let ry = (ky.len() / 2) as i64;
    let mut out = FloatImage::filled(w, h, 0.0);
    for (i, &wgt) in ky.iter().enumerate() {
        let off = i as i64 - ry;
        for y in 0..h {
            let sy = (y as i64 + off).clamp(0, h as i64 - 1) as u32;
            let row_start = y as usize * wi;
            let dst = &mut out.as_mut_slice()[row_start..row_start + wi];
            for (d, &s) in dst.iter_mut().zip(horizontal.row(sy)) {
                *d += wgt * s;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic 3x3 box (mean) kernel.
    fn box3() -> Kernel {
        Kernel::new(3, 3, vec![1.0 / 9.0; 9]).unwrap()
    }

    /// 3x3 Laplacian (4-connected).
    fn laplacian3() -> Kernel {
        Kernel::new(3, 3, vec![0.0, 1.0, 0.0, 1.0, -4.0, 1.0, 0.0, 1.0, 0.0]).unwrap()
    }
    use crate::image::GrayImage;

    #[test]
    fn kernel_validation() {
        assert!(Kernel::new(2, 3, vec![0.0; 6]).is_err());
        assert!(Kernel::new(3, 4, vec![0.0; 12]).is_err());
        assert!(Kernel::new(3, 3, vec![0.0; 8]).is_err());
        assert!(Kernel::new(0, 1, vec![]).is_err());
        let k = Kernel::new(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!((k.width(), k.height()), (1, 3));
        assert_eq!(k.sum(), 6.0);
    }

    #[test]
    fn identity_kernel_is_identity() {
        let img = GrayImage::from_fn(5, 5, |x, y| (x * 13 + y * 31) as u8).to_float();
        let id = Kernel::new(3, 3, vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let out = convolve(&img, &id);
        assert_eq!(out, img);
    }

    #[test]
    fn box_kernel_averages() {
        let img = FloatImage::filled(4, 4, 9.0);
        let out = convolve(&img, &box3());
        // Constant image stays constant under a normalized kernel.
        for p in out.pixels() {
            assert!((p - 9.0).abs() < 1e-5);
        }
    }

    #[test]
    fn box_kernel_interior_value() {
        // 3x3 image with a single bright centre pixel.
        let mut img = FloatImage::filled(3, 3, 0.0);
        img.set(1, 1, 9.0);
        let out = convolve(&img, &box3());
        assert!((out.pixel(1, 1) - 1.0).abs() < 1e-6);
        assert!((out.pixel(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn laplacian_of_constant_is_zero() {
        let img = FloatImage::filled(6, 6, 3.0);
        let out = convolve(&img, &laplacian3());
        for p in out.pixels() {
            assert!(p.abs() < 1e-5);
        }
    }

    #[test]
    fn laplacian_of_linear_ramp_is_zero_in_interior() {
        let img = FloatImage::from_fn(8, 8, |x, y| x as f32 + 2.0 * y as f32);
        let out = convolve(&img, &laplacian3());
        for y in 1..7 {
            for x in 1..7 {
                assert!(out.pixel(x, y).abs() < 1e-4, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn separable_matches_full_convolution() {
        let img = GrayImage::from_fn(9, 7, |x, y| ((x * x + 3 * y) % 251) as u8).to_float();
        let kx = [1.0f32, 2.0, 1.0];
        let ky = [1.0f32, 0.0, -1.0];
        // Outer product: full[r][c] = ky[r] * kx[c].
        let mut full = Vec::new();
        for &a in &ky {
            for &b in &kx {
                full.push(a * b);
            }
        }
        let k = Kernel::new(3, 3, full).unwrap();
        let dense = convolve(&img, &k);
        let sep = convolve_separable(&img, &kx, &ky).unwrap();
        for (a, b) in dense.pixels().zip(sep.pixels()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn separable_validation() {
        let img = FloatImage::filled(3, 3, 0.0);
        assert!(convolve_separable(&img, &[1.0, 1.0], &[1.0]).is_err());
        assert!(convolve_separable(&img, &[], &[1.0]).is_err());
        assert!(convolve_separable(&img, &[1.0], &[1.0]).is_ok());
    }
}
