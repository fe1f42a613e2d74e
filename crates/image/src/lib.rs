//! # `cbir-image` — raster imaging substrate
//!
//! A from-scratch imaging layer providing everything the content-based
//! image-indexing system needs from an image library:
//!
//! - typed raster containers ([`GrayImage`], [`RgbImage`], [`FloatImage`]),
//! - color-space conversions (HSV, YCbCr, CIE L\*a\*b\*),
//! - codecs for PNM (PGM/PPM, ASCII + binary) and BMP (8/24/32-bit),
//! - the operator toolbox feature extraction builds on: convolution,
//!   Gaussian smoothing, Sobel gradients, resampling, global/Otsu/adaptive
//!   thresholding, integral images, binary morphology, and histogram
//!   equalization.
//!
//! The crate has no dependencies and is deterministic: every operator is a
//! pure function of its inputs.
//!
//! ```
//! use cbir_image::{GrayImage, ops};
//!
//! let img = GrayImage::from_fn(64, 64, |x, _| if x < 32 { 0 } else { 200 });
//! let edges = ops::edge_map(&img, 25.0);
//! assert!(edges.pixels().any(|p| p == 255));
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod color;
mod error;
mod image;
pub mod ops;
mod pixel;

pub use codec::{decode, DynImage, Format};
pub use error::{ImageError, Result};
pub use image::{FloatImage, GrayImage, ImageBuffer, RgbImage};
pub use pixel::{small_f32_to_u32, Pixel, Rgb};
