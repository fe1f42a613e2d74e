//! Pixel types and channel-level conversions.
//!
//! The substrate keeps pixels deliberately simple: an 8-bit grayscale sample
//! is a plain `u8`, an 8-bit color sample is [`Rgb`], and floating-point
//! intermediates (gradients, filtered responses) are plain `f32`. The
//! [`Pixel`] trait is what the codecs use to move between raw channel bytes
//! and typed pixels.

use std::fmt;

/// An 8-bit-per-channel RGB pixel.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct Rgb(pub [u8; 3]);

impl Rgb {
    /// Construct from individual channels.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb([r, g, b])
    }

    /// Red channel.
    #[inline]
    pub const fn r(&self) -> u8 {
        self.0[0]
    }

    /// Green channel.
    #[inline]
    pub const fn g(&self) -> u8 {
        self.0[1]
    }

    /// Blue channel.
    #[inline]
    pub const fn b(&self) -> u8 {
        self.0[2]
    }

    /// ITU-R BT.601 luma, the classic CRT-era weighting used by the early
    /// CBIR literature: `0.299 R + 0.587 G + 0.114 B`, rounded.
    #[inline]
    pub fn luma(&self) -> u8 {
        let y = 0.299 * self.0[0] as f32 + 0.587 * self.0[1] as f32 + 0.114 * self.0[2] as f32;
        small_f32_to_u32(y.round().clamp(0.0, 255.0)) as u8
    }
}

/// `x as u32` for `x` in `[0, 2^23)`, in a form loops over lanes vectorize
/// (the saturating `as` cast does not, on x86): `trunc(x) + 2^23` is exact
/// in that range and leaves the integer in the mantissa bits. Outside it
/// the result is meaningless; callers discard such lanes.
#[inline]
pub fn small_f32_to_u32(x: f32) -> u32 {
    (x.trunc() + 8_388_608.0).to_bits() & 0x7f_ffff
}

impl fmt::Debug for Rgb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rgb({}, {}, {})", self.0[0], self.0[1], self.0[2])
    }
}

impl From<[u8; 3]> for Rgb {
    fn from(v: [u8; 3]) -> Self {
        Rgb(v)
    }
}

impl From<Rgb> for [u8; 3] {
    fn from(p: Rgb) -> Self {
        p.0
    }
}

/// A pixel type that can be (de)serialized as a fixed number of `u8` channels.
///
/// Implemented by `u8` (grayscale) and [`Rgb`]. Codecs are generic over this.
pub trait Pixel: Copy + PartialEq + fmt::Debug + Default + Send + Sync + 'static {
    /// Number of 8-bit channels per pixel.
    const CHANNELS: usize;

    /// Build a pixel from exactly `CHANNELS` bytes.
    fn from_channels(ch: &[u8]) -> Self;

    /// Append this pixel's `CHANNELS` bytes to `out`.
    fn write_channels(&self, out: &mut Vec<u8>);

    /// Grayscale intensity of this pixel in `[0, 255]`.
    fn intensity(&self) -> u8;
}

impl Pixel for u8 {
    const CHANNELS: usize = 1;

    #[inline]
    fn from_channels(ch: &[u8]) -> Self {
        ch[0]
    }

    #[inline]
    fn write_channels(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    #[inline]
    fn intensity(&self) -> u8 {
        *self
    }
}

impl Pixel for Rgb {
    const CHANNELS: usize = 3;

    #[inline]
    fn from_channels(ch: &[u8]) -> Self {
        Rgb([ch[0], ch[1], ch[2]])
    }

    #[inline]
    fn write_channels(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    #[inline]
    fn intensity(&self) -> u8 {
        self.luma()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgb_accessors() {
        let p = Rgb::new(1, 2, 3);
        assert_eq!((p.r(), p.g(), p.b()), (1, 2, 3));
        assert_eq!(<[u8; 3]>::from(p), [1, 2, 3]);
        assert_eq!(Rgb::from([1, 2, 3]), p);
    }

    #[test]
    fn luma_weights() {
        assert_eq!(Rgb::new(255, 255, 255).luma(), 255);
        assert_eq!(Rgb::new(0, 0, 0).luma(), 0);
        // Pure green is the brightest primary under BT.601.
        let r = Rgb::new(255, 0, 0).luma();
        let g = Rgb::new(0, 255, 0).luma();
        let b = Rgb::new(0, 0, 255).luma();
        assert!(g > r && r > b);
        assert_eq!(r, 76);
        assert_eq!(g, 150);
        assert_eq!(b, 29);
    }

    #[test]
    fn channel_roundtrip_gray() {
        let mut buf = Vec::new();
        42u8.write_channels(&mut buf);
        assert_eq!(buf, [42]);
        assert_eq!(u8::from_channels(&buf), 42);
        assert_eq!(42u8.intensity(), 42);
    }

    #[test]
    fn channel_roundtrip_rgb() {
        let p = Rgb::new(9, 8, 7);
        let mut buf = Vec::new();
        p.write_channels(&mut buf);
        assert_eq!(buf, [9, 8, 7]);
        assert_eq!(Rgb::from_channels(&buf), p);
    }
}
