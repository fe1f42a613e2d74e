//! The core raster container, [`ImageBuffer`], plus grayscale/float
//! conversions.

use crate::error::{ImageError, Result};
use crate::pixel::Rgb;

/// A rectangular raster of pixels stored row-major.
///
/// `P` is any `Copy` pixel type; the crate uses `u8` (grayscale), [`Rgb`]
/// (color), and `f32` (filter intermediates). The container enforces that
/// `data.len() == width * height` at all times.
#[derive(Clone, PartialEq)]
pub struct ImageBuffer<P> {
    width: u32,
    height: u32,
    data: Vec<P>,
}

/// 8-bit grayscale image.
pub type GrayImage = ImageBuffer<u8>;
/// 8-bit-per-channel RGB image.
pub type RgbImage = ImageBuffer<Rgb>;
/// Floating-point single-channel image (filter responses, gradients...).
pub type FloatImage = ImageBuffer<f32>;

impl<P: Copy> ImageBuffer<P> {
    /// Create an image filled with `fill`.
    ///
    /// # Panics
    /// Panics if `width * height` overflows `usize`.
    pub fn filled(width: u32, height: u32, fill: P) -> Self {
        let len = (width as usize)
            .checked_mul(height as usize)
            .expect("image dimensions overflow");
        ImageBuffer {
            width,
            height,
            data: vec![fill; len],
        }
    }

    /// Create an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> P) -> Self {
        let mut data = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        ImageBuffer {
            width,
            height,
            data,
        }
    }

    /// Wrap an existing row-major pixel vector.
    ///
    /// Returns an error if `data.len() != width * height`.
    pub fn from_vec(width: u32, height: u32, data: Vec<P>) -> Result<Self> {
        let expected = width as usize * height as usize;
        if data.len() != expected {
            return Err(ImageError::InvalidParameter(format!(
                "pixel vector has length {}, but {width}x{height} needs {expected}",
                data.len()
            )));
        }
        Ok(ImageBuffer {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the image has zero pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether `(x, y)` lies inside the image.
    #[inline]
    pub fn in_bounds(&self, x: u32, y: u32) -> bool {
        x < self.width && y < self.height
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(self.in_bounds(x, y));
        y as usize * self.width as usize + x as usize
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds; use [`ImageBuffer::get`] for a checked variant.
    #[inline]
    pub fn pixel(&self, x: u32, y: u32) -> P {
        assert!(
            self.in_bounds(x, y),
            "pixel ({x}, {y}) out of bounds for {}x{} image",
            self.width,
            self.height
        );
        self.data[self.index(x, y)]
    }

    /// Checked pixel access.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Option<P> {
        if self.in_bounds(x, y) {
            Some(self.data[self.index(x, y)])
        } else {
            None
        }
    }

    /// Pixel access with replicate-border semantics: out-of-range coordinates
    /// (including negative) are clamped to the nearest edge pixel. Used by
    /// all convolution-style operators.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> P {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.data[self.index(cx, cy)]
    }

    /// Overwrite the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: P) {
        assert!(
            self.in_bounds(x, y),
            "pixel ({x}, {y}) out of bounds for {}x{} image",
            self.width,
            self.height
        );
        let i = self.index(x, y);
        self.data[i] = value;
    }

    /// Re-shape this image in place to `width × height`, setting every pixel
    /// to `fill`. The existing pixel allocation is reused whenever its
    /// capacity suffices, so repeated resets at steady-state sizes perform no
    /// heap allocation — the primitive scratch-backed extraction builds on.
    ///
    /// # Panics
    /// Panics if `width * height` overflows `usize`.
    pub fn reset(&mut self, width: u32, height: u32, fill: P) {
        let len = (width as usize)
            .checked_mul(height as usize)
            .expect("image dimensions overflow");
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize(len, fill);
    }

    /// Row-major slice of all pixels.
    #[inline]
    pub fn as_slice(&self) -> &[P] {
        &self.data
    }

    /// Mutable row-major slice of all pixels.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [P] {
        &mut self.data
    }

    /// Iterator over pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = P> + '_ {
        self.data.iter().copied()
    }

    /// Iterator over `(x, y, pixel)` in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (u32, u32, P)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &p)| ((i as u32) % w, (i as u32) / w, p))
    }

    /// A single row as a slice.
    ///
    /// # Panics
    /// Panics if `y >= height`.
    pub fn row(&self, y: u32) -> &[P] {
        assert!(y < self.height, "row {y} out of bounds");
        let start = y as usize * self.width as usize;
        &self.data[start..start + self.width as usize]
    }

    /// Apply `f` to every pixel, producing an image of a possibly different
    /// pixel type.
    pub fn map<Q: Copy>(&self, mut f: impl FnMut(P) -> Q) -> ImageBuffer<Q> {
        ImageBuffer {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| f(p)).collect(),
        }
    }

    /// Extract the axis-aligned sub-image `[x, x+w) x [y, y+h)`.
    ///
    /// Returns an error if the rectangle extends past the image.
    pub fn crop(&self, x: u32, y: u32, w: u32, h: u32) -> Result<ImageBuffer<P>> {
        if x.checked_add(w).is_none_or(|xe| xe > self.width)
            || y.checked_add(h).is_none_or(|ye| ye > self.height)
        {
            return Err(ImageError::DimensionMismatch {
                context: "crop",
                expected: (self.width, self.height),
                actual: (x.saturating_add(w), y.saturating_add(h)),
            });
        }
        let mut data = Vec::with_capacity(w as usize * h as usize);
        for row in 0..h {
            let start = (y + row) as usize * self.width as usize + x as usize;
            data.extend_from_slice(&self.data[start..start + w as usize]);
        }
        Ok(ImageBuffer {
            width: w,
            height: h,
            data,
        })
    }
}

impl<P: Copy> std::fmt::Debug for ImageBuffer<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ImageBuffer({}x{})", self.width, self.height)
    }
}

impl RgbImage {
    /// Convert to grayscale with BT.601 luma.
    pub fn to_gray(&self) -> GrayImage {
        self.map(|p| p.luma())
    }

    /// The channel bytes, `[r, g, b]` per pixel in row-major order.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        // SAFETY: `Rgb` is `repr(transparent)` over `[u8; 3]`, so the pixel
        // slice has the layout of a slice of byte triples of its length.
        let triples = unsafe {
            std::slice::from_raw_parts(self.data.as_ptr().cast::<[u8; 3]>(), self.data.len())
        };
        triples.as_flattened()
    }

    /// [`RgbImage::as_bytes`], writable.
    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `as_bytes`; every byte pattern is a valid `Rgb`.
        let triples = unsafe {
            std::slice::from_raw_parts_mut(
                self.data.as_mut_ptr().cast::<[u8; 3]>(),
                self.data.len(),
            )
        };
        triples.as_flattened_mut()
    }
}

impl GrayImage {
    /// Convert to a floating-point image with values in `[0, 255]`.
    pub fn to_float(&self) -> FloatImage {
        self.map(|p| p as f32)
    }

    /// Convert to a floating-point image with values normalized to `[0, 1]`.
    pub fn to_float_normalized(&self) -> FloatImage {
        self.map(|p| p as f32 / 255.0)
    }

    /// Promote to RGB by replicating the gray channel.
    pub fn to_rgb(&self) -> RgbImage {
        self.map(|p| Rgb([p, p, p]))
    }
}

impl FloatImage {
    /// Convert to `u8` by rounding and clamping each sample into `[0, 255]`.
    pub fn to_gray_clamped(&self) -> GrayImage {
        self.map(|p| p.round().clamp(0.0, 255.0) as u8)
    }

    /// Min and max sample, or `None` for an empty image.
    pub fn min_max(&self) -> Option<(f32, f32)> {
        let mut it = self.pixels();
        let first = it.next()?;
        let mut lo = first;
        let mut hi = first;
        for v in it {
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let img = GrayImage::from_fn(4, 3, |x, y| (x + 10 * y) as u8);
        assert_eq!(img.dimensions(), (4, 3));
        assert_eq!(img.len(), 12);
        assert_eq!(img.pixel(3, 2), 23);
        assert_eq!(img.get(4, 0), None);
        assert_eq!(img.get(0, 3), None);
        assert_eq!(img.get(3, 2), Some(23));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(GrayImage::from_vec(2, 2, vec![0; 4]).is_ok());
        assert!(GrayImage::from_vec(2, 2, vec![0; 5]).is_err());
        assert!(GrayImage::from_vec(2, 2, vec![0; 3]).is_err());
    }

    #[test]
    fn set_and_row() {
        let mut img = GrayImage::filled(3, 2, 0);
        img.set(2, 1, 9);
        assert_eq!(img.row(1), &[0, 0, 9]);
        assert_eq!(img.row(0), &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut img = GrayImage::filled(3, 2, 0);
        img.set(3, 0, 1);
    }

    #[test]
    fn clamped_access_replicates_border() {
        let img = GrayImage::from_fn(3, 3, |x, y| (x + 3 * y) as u8);
        assert_eq!(img.get_clamped(-5, -5), 0);
        assert_eq!(img.get_clamped(10, 1), 5);
        assert_eq!(img.get_clamped(1, 99), 7);
    }

    #[test]
    fn enumerate_matches_pixel() {
        let img = GrayImage::from_fn(5, 4, |x, y| (x * 7 + y * 13) as u8);
        for (x, y, p) in img.enumerate_pixels() {
            assert_eq!(p, img.pixel(x, y));
        }
        assert_eq!(img.enumerate_pixels().count(), 20);
    }

    #[test]
    fn crop_extracts_subimage() {
        let img = GrayImage::from_fn(6, 5, |x, y| (x + 10 * y) as u8);
        let sub = img.crop(2, 1, 3, 2).unwrap();
        assert_eq!(sub.dimensions(), (3, 2));
        assert_eq!(sub.pixel(0, 0), 12);
        assert_eq!(sub.pixel(2, 1), 24);
        assert!(img.crop(4, 0, 3, 1).is_err());
        assert!(img.crop(0, 4, 1, 2).is_err());
        // Degenerate but legal zero-size crop.
        assert_eq!(img.crop(0, 0, 0, 0).unwrap().len(), 0);
    }

    #[test]
    fn reset_reshapes_and_reuses_capacity() {
        let mut img = GrayImage::from_fn(4, 4, |x, y| (x + y) as u8);
        let cap = {
            img.reset(3, 2, 9);
            assert_eq!(img.dimensions(), (3, 2));
            assert!(img.pixels().all(|p| p == 9));
            img.as_slice().as_ptr()
        };
        // Growing back within the original capacity keeps the allocation.
        img.reset(4, 4, 0);
        assert_eq!(img.as_slice().as_ptr(), cap);
        assert!(img.pixels().all(|p| p == 0));
    }

    #[test]
    fn map_changes_type() {
        let img = GrayImage::filled(2, 2, 10);
        let f = img.map(|p| p as f32 * 0.5);
        assert_eq!(f.pixel(1, 1), 5.0);
    }

    #[test]
    fn gray_float_conversions() {
        let img = GrayImage::from_fn(2, 2, |x, y| (x + y) as u8 * 100);
        let f = img.to_float();
        assert_eq!(f.pixel(1, 1), 200.0);
        let n = img.to_float_normalized();
        assert!((n.pixel(1, 1) - 200.0 / 255.0).abs() < 1e-6);
        assert_eq!(f.to_gray_clamped(), img);
    }

    #[test]
    fn float_min_max() {
        let f = FloatImage::from_vec(2, 1, vec![-1.0, 3.0]).unwrap();
        assert_eq!(f.min_max(), Some((-1.0, 3.0)));
        assert_eq!(FloatImage::filled(0, 0, 0.0).min_max(), None);
    }

    #[test]
    fn rgb_to_gray_uses_luma() {
        let img = RgbImage::filled(1, 1, Rgb::new(0, 255, 0));
        assert_eq!(img.to_gray().pixel(0, 0), 150);
        let rt = img.to_gray().to_rgb();
        assert_eq!(rt.pixel(0, 0), Rgb::new(150, 150, 150));
    }

    #[test]
    fn clamp_of_float_image() {
        let f = FloatImage::from_vec(3, 1, vec![-10.0, 128.4, 400.0]).unwrap();
        assert_eq!(f.to_gray_clamped().as_slice(), &[0, 128, 255]);
    }
}
