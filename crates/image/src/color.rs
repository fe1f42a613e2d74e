//! Color-space conversions: RGB ↔ HSV, RGB ↔ YCbCr, RGB → CIE XYZ → CIE L\*a\*b\*.
//!
//! CBIR systems quantize color in a space chosen for perceptual behaviour:
//! HSV separates chromaticity from intensity (robust to illumination), and
//! L\*a\*b\* is approximately perceptually uniform (uniform quantization is
//! then defensible). All conversions here operate on a single pixel; image-
//! level conversion is a `map`.

use crate::pixel::Rgb;

/// A color in HSV space: `h` in degrees `[0, 360)`, `s` and `v` in `[0, 1]`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Hsv {
    /// Hue angle in degrees, `[0, 360)`. Undefined (0) for achromatic colors.
    pub h: f32,
    /// Saturation, `[0, 1]`.
    pub s: f32,
    /// Value (brightness), `[0, 1]`.
    pub v: f32,
}

/// A color in CIE L\*a\*b\* space under the D65 illuminant.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Lab {
    /// Lightness, `[0, 100]`.
    pub l: f32,
    /// Green–red opponent axis, roughly `[-110, 110]`.
    pub a: f32,
    /// Blue–yellow opponent axis, roughly `[-110, 110]`.
    pub b: f32,
}

/// A color in YCbCr (BT.601 full-range): all components in `[0, 255]`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct YCbCr {
    /// Luma.
    pub y: f32,
    /// Blue-difference chroma, centred at 128.
    pub cb: f32,
    /// Red-difference chroma, centred at 128.
    pub cr: f32,
}

/// Convert an RGB pixel to HSV.
pub fn rgb_to_hsv(p: Rgb) -> Hsv {
    let r = p.r() as f32 / 255.0;
    let g = p.g() as f32 / 255.0;
    let b = p.b() as f32 / 255.0;
    let max = r.max(g).max(b);
    let min = r.min(g).min(b);
    let delta = max - min;

    let h = if delta == 0.0 {
        0.0
    } else if max == r {
        60.0 * (((g - b) / delta).rem_euclid(6.0))
    } else if max == g {
        60.0 * ((b - r) / delta + 2.0)
    } else {
        60.0 * ((r - g) / delta + 4.0)
    };
    let s = if max == 0.0 { 0.0 } else { delta / max };
    Hsv { h, s, v: max }
}

/// Convert an HSV color back to RGB (inverse of [`rgb_to_hsv`] up to
/// quantization).
pub fn hsv_to_rgb(c: Hsv) -> Rgb {
    let h = c.h.rem_euclid(360.0);
    let s = c.s.clamp(0.0, 1.0);
    let v = c.v.clamp(0.0, 1.0);
    let chroma = v * s;
    let hp = h / 60.0;
    let x = chroma * (1.0 - (hp.rem_euclid(2.0) - 1.0).abs());
    let (r1, g1, b1) = match hp as u32 {
        0 => (chroma, x, 0.0),
        1 => (x, chroma, 0.0),
        2 => (0.0, chroma, x),
        3 => (0.0, x, chroma),
        4 => (x, 0.0, chroma),
        _ => (chroma, 0.0, x),
    };
    let m = v - chroma;
    let to8 = |f: f32| ((f + m) * 255.0).round().clamp(0.0, 255.0) as u8;
    Rgb::new(to8(r1), to8(g1), to8(b1))
}

/// Convert RGB to full-range BT.601 YCbCr.
pub fn rgb_to_ycbcr(p: Rgb) -> YCbCr {
    let r = p.r() as f32;
    let g = p.g() as f32;
    let b = p.b() as f32;
    YCbCr {
        y: 0.299 * r + 0.587 * g + 0.114 * b,
        cb: 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b,
        cr: 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b,
    }
}

/// Convert full-range BT.601 YCbCr back to RGB.
pub fn ycbcr_to_rgb(c: YCbCr) -> Rgb {
    let y = c.y;
    let cb = c.cb - 128.0;
    let cr = c.cr - 128.0;
    let clamp8 = |f: f32| f.round().clamp(0.0, 255.0) as u8;
    Rgb::new(
        clamp8(y + 1.402 * cr),
        clamp8(y - 0.344136 * cb - 0.714136 * cr),
        clamp8(y + 1.772 * cb),
    )
}

/// sRGB gamma expansion of one channel in `[0, 1]`.
fn srgb_to_linear(c: f32) -> f32 {
    if c <= 0.04045 {
        c / 12.92
    } else {
        ((c + 0.055) / 1.055).powf(2.4)
    }
}

/// D65 reference white in XYZ.
const D65: [f32; 3] = [0.95047, 1.0, 1.08883];

/// Convert an sRGB pixel to CIE L\*a\*b\* (D65).
pub fn rgb_to_lab(p: Rgb) -> Lab {
    let r = srgb_to_linear(p.r() as f32 / 255.0);
    let g = srgb_to_linear(p.g() as f32 / 255.0);
    let b = srgb_to_linear(p.b() as f32 / 255.0);

    // sRGB (D65) -> XYZ.
    let x = 0.4124564 * r + 0.3575761 * g + 0.1804375 * b;
    let y = 0.2126729 * r + 0.7151522 * g + 0.0721750 * b;
    let z = 0.0193339 * r + 0.119_192 * g + 0.9503041 * b;

    let f = |t: f32| {
        const DELTA: f32 = 6.0 / 29.0;
        if t > DELTA * DELTA * DELTA {
            t.cbrt()
        } else {
            t / (3.0 * DELTA * DELTA) + 4.0 / 29.0
        }
    };
    let fx = f(x / D65[0]);
    let fy = f(y / D65[1]);
    let fz = f(z / D65[2]);
    Lab {
        l: 116.0 * fy - 16.0,
        a: 500.0 * (fx - fy),
        b: 200.0 * (fy - fz),
    }
}

/// sRGB gamma compression of one linear channel in `[0, 1]`.
fn linear_to_srgb(c: f32) -> f32 {
    if c <= 0.0031308 {
        12.92 * c
    } else {
        1.055 * c.powf(1.0 / 2.4) - 0.055
    }
}

/// Convert CIE L\*a\*b\* (D65) back to sRGB, clamping out-of-gamut values to
/// the nearest representable color. Inverse of [`rgb_to_lab`] for in-gamut
/// colors (up to 8-bit quantization).
pub fn lab_to_rgb(c: Lab) -> Rgb {
    let fy = (c.l + 16.0) / 116.0;
    let fx = fy + c.a / 500.0;
    let fz = fy - c.b / 200.0;
    let finv = |t: f32| {
        const DELTA: f32 = 6.0 / 29.0;
        if t > DELTA {
            t * t * t
        } else {
            3.0 * DELTA * DELTA * (t - 4.0 / 29.0)
        }
    };
    let x = D65[0] * finv(fx);
    let y = D65[1] * finv(fy);
    let z = D65[2] * finv(fz);

    // XYZ -> linear sRGB.
    let r = 3.2404542 * x - 1.5371385 * y - 0.4985314 * z;
    let g = -0.969_266 * x + 1.8760108 * y + 0.0415560 * z;
    let b = 0.0556434 * x - 0.2040259 * y + 1.0572252 * z;
    let to8 = |c: f32| (linear_to_srgb(c.clamp(0.0, 1.0)) * 255.0).round() as u8;
    Rgb::new(to8(r), to8(g), to8(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, eps: f32) {
        assert!((a - b).abs() <= eps, "{a} vs {b}");
    }

    #[test]
    fn hsv_of_primaries() {
        let red = rgb_to_hsv(Rgb::new(255, 0, 0));
        assert_close(red.h, 0.0, 1e-4);
        assert_close(red.s, 1.0, 1e-6);
        assert_close(red.v, 1.0, 1e-6);

        let green = rgb_to_hsv(Rgb::new(0, 255, 0));
        assert_close(green.h, 120.0, 1e-3);

        let blue = rgb_to_hsv(Rgb::new(0, 0, 255));
        assert_close(blue.h, 240.0, 1e-3);

        let gray = rgb_to_hsv(Rgb::new(128, 128, 128));
        assert_close(gray.s, 0.0, 1e-6);
        assert_close(gray.v, 128.0 / 255.0, 1e-6);
    }

    #[test]
    fn hsv_roundtrip_all_corners_and_samples() {
        // Exhaustive-ish: step through the RGB cube; round-trip must be exact
        // or off by at most 1 per channel (float rounding).
        for r in (0u16..=255).step_by(51) {
            for g in (0u16..=255).step_by(51) {
                for b in (0u16..=255).step_by(51) {
                    let p = Rgb::new(r as u8, g as u8, b as u8);
                    let q = hsv_to_rgb(rgb_to_hsv(p));
                    assert!(
                        (p.r() as i32 - q.r() as i32).abs() <= 1
                            && (p.g() as i32 - q.g() as i32).abs() <= 1
                            && (p.b() as i32 - q.b() as i32).abs() <= 1,
                        "{p:?} -> {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hue_wraps() {
        let a = hsv_to_rgb(Hsv {
            h: 370.0,
            s: 1.0,
            v: 1.0,
        });
        let b = hsv_to_rgb(Hsv {
            h: 10.0,
            s: 1.0,
            v: 1.0,
        });
        assert_eq!(a, b);
        let c = hsv_to_rgb(Hsv {
            h: -10.0,
            s: 1.0,
            v: 1.0,
        });
        let d = hsv_to_rgb(Hsv {
            h: 350.0,
            s: 1.0,
            v: 1.0,
        });
        assert_eq!(c, d);
    }

    #[test]
    fn ycbcr_roundtrip() {
        for r in (0u16..=255).step_by(85) {
            for g in (0u16..=255).step_by(85) {
                for b in (0u16..=255).step_by(85) {
                    let p = Rgb::new(r as u8, g as u8, b as u8);
                    let q = ycbcr_to_rgb(rgb_to_ycbcr(p));
                    assert!(
                        (p.r() as i32 - q.r() as i32).abs() <= 1
                            && (p.g() as i32 - q.g() as i32).abs() <= 1
                            && (p.b() as i32 - q.b() as i32).abs() <= 1,
                        "{p:?} -> {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ycbcr_grayscale_has_neutral_chroma() {
        let c = rgb_to_ycbcr(Rgb::new(77, 77, 77));
        assert_close(c.cb, 128.0, 0.01);
        assert_close(c.cr, 128.0, 0.01);
        assert_close(c.y, 77.0, 0.01);
    }

    #[test]
    fn lab_reference_points() {
        let white = rgb_to_lab(Rgb::new(255, 255, 255));
        assert_close(white.l, 100.0, 0.1);
        assert_close(white.a, 0.0, 0.1);
        assert_close(white.b, 0.0, 0.1);

        let black = rgb_to_lab(Rgb::new(0, 0, 0));
        assert_close(black.l, 0.0, 0.1);

        // Known value: sRGB red is approximately L*=53.2, a*=80.1, b*=67.2.
        let red = rgb_to_lab(Rgb::new(255, 0, 0));
        assert_close(red.l, 53.2, 0.5);
        assert_close(red.a, 80.1, 0.5);
        assert_close(red.b, 67.2, 0.5);
    }

    #[test]
    fn lab_lightness_is_monotone_in_gray() {
        let mut prev = -1.0;
        for v in (0u16..=255).step_by(17) {
            let l = rgb_to_lab(Rgb::new(v as u8, v as u8, v as u8)).l;
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn lab_roundtrip() {
        for r in (0u16..=255).step_by(51) {
            for g in (0u16..=255).step_by(51) {
                for b in (0u16..=255).step_by(51) {
                    let p = Rgb::new(r as u8, g as u8, b as u8);
                    let q = lab_to_rgb(rgb_to_lab(p));
                    assert!(
                        (p.r() as i32 - q.r() as i32).abs() <= 1
                            && (p.g() as i32 - q.g() as i32).abs() <= 1
                            && (p.b() as i32 - q.b() as i32).abs() <= 1,
                        "{p:?} -> {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_gamut_lab_clamps() {
        // An impossibly green Lab color clamps into gamut without panicking.
        let p = lab_to_rgb(Lab {
            l: 50.0,
            a: -300.0,
            b: 0.0,
        });
        assert_eq!(p.r(), 0);
        assert!(p.g() > 100);
    }
}
