//! Color-space quantization: mapping 24-bit colors onto a small number of
//! histogram bins.
//!
//! The choice of space and bin counts is the central design decision for
//! color indexing: uniform RGB quantization is cheap but perceptually
//! non-uniform; HSV quantization with more hue than saturation/value bins
//! matches human sensitivity to hue.

use crate::error::{FeatureError, Result};
use cbir_image::color::{hsv_to_rgb, lab_to_rgb, rgb_to_hsv, rgb_to_lab, Hsv, Lab};
use cbir_image::{small_f32_to_u32, Rgb};

/// A mapping from colors to bin indices, plus bin geometry for cross-bin
/// measures.
#[derive(Clone, Debug, PartialEq)]
pub enum Quantizer {
    /// Grayscale intensity quantized into `bins` uniform levels.
    Gray {
        /// Number of intensity bins (2..=256).
        bins: u32,
    },
    /// Uniform per-channel RGB quantization: `per_channel³` bins.
    UniformRgb {
        /// Levels per channel (2..=16).
        per_channel: u32,
    },
    /// HSV quantization with independent bin counts per component.
    Hsv {
        /// Hue bins over `[0, 360)`.
        hue: u32,
        /// Saturation bins over `[0, 1]`.
        sat: u32,
        /// Value bins over `[0, 1]`.
        val: u32,
    },
    /// CIE L*a*b* quantization — the space is approximately perceptually
    /// uniform, so uniform bins give perceptually even quantization.
    Lab {
        /// Lightness bins over `[0, 100]`.
        l: u32,
        /// a* bins over `[-110, 110]`.
        a: u32,
        /// b* bins over `[-110, 110]`.
        b: u32,
    },
}

/// a*/b* axis half-range used for quantization.
const LAB_AB_RANGE: f32 = 110.0;

/// Pixels per step of the lane-wise HSV quantizer: one 256-bit vector of
/// `f32`.
const HSV_LANES: usize = 8;

/// [`Quantizer::UniformRgb`]'s bin: `per_channel` levels per channel.
fn uniform_rgb_bin(p: Rgb, per_channel: u32) -> usize {
    let q = |c: u8| (c as u32 * per_channel / 256) as usize;
    (q(p.r()) * per_channel as usize + q(p.g())) * per_channel as usize + q(p.b())
}

/// HSV bins of [`HSV_LANES`] pixels, lane by lane, equal to
/// [`Quantizer::bin_of`] on each (an exhaustive test over all 2²⁴ colors
/// holds them equal).
///
/// Every lane evaluates the one branch of [`rgb_to_hsv`] its pixel takes —
/// the same IEEE operations on the same operands in the same order —
/// picked by selects instead of jumps, so the lanes share one instruction
/// stream. The hue branch for `max == r` takes `rem_euclid(6.0)` of
/// `(g - b) / delta`, which lies in `[-1, 1]` because `|g - b| ≤ delta`
/// (rounding is monotone), where `rem_euclid` is `x < 0 ? x + 6 : x`.
/// Every bin scale lies in `[0, 4096]`, inside [`small_to_u32`]'s range.
/// Division by a zero `delta` only happens in lanes whose hue the select
/// then discards.
#[inline]
fn hsv_bins(px: &[Rgb; HSV_LANES], hue: u32, sat: u32, val: u32) -> [u16; HSV_LANES] {
    let channel = |c: usize| px.map(|p| p.0[c] as f32 / 255.0);
    let (r, g, b) = (channel(0), channel(1), channel(2));
    let (hue_f, sat_f, val_f) = (hue as f32, sat as f32, val as f32);
    let mut out = [0u16; HSV_LANES];
    for l in 0..HSV_LANES {
        let (r, g, b) = (r[l], g[l], b[l]);
        let max = r.max(g).max(b);
        let min = r.min(g).min(b);
        let delta = max - min;
        let (num, sector) = if max == r {
            (g - b, 0.0)
        } else if max == g {
            (b - r, 2.0)
        } else {
            (r - g, 4.0)
        };
        let x = num / delta;
        let sextant = if max != r {
            x + sector
        } else if x < 0.0 {
            x + 6.0
        } else {
            x
        };
        let h = if delta == 0.0 { 0.0 } else { 60.0 * sextant };
        let s = if max == 0.0 { 0.0 } else { delta / max };
        let hb = small_f32_to_u32(h / 360.0 * hue_f).min(hue - 1);
        let sb = small_f32_to_u32(s * sat_f).min(sat - 1);
        let vb = small_f32_to_u32(max * val_f).min(val - 1);
        out[l] = ((hb * sat + sb) * val + vb) as u16;
    }
    out
}

/// Whether a three-axis bin product exceeds 4,096. Checked: a plain `u32`
/// product wraps (65,536 × 65,536 × 1 is 0), which would let a zero-bin
/// quantizer through validation and panic at the first histogram.
fn bins_exceed_4096(x: u32, y: u32, z: u32) -> bool {
    x.checked_mul(y)
        .and_then(|xy| xy.checked_mul(z))
        .is_none_or(|n| n > 4096)
}

impl Quantizer {
    /// Validate bin counts.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: String| Err(FeatureError::InvalidParameter(msg));
        match *self {
            Quantizer::Gray { bins } => {
                if !(2..=256).contains(&bins) {
                    return bad(format!("gray bins must be in 2..=256, got {bins}"));
                }
            }
            Quantizer::UniformRgb { per_channel } => {
                if !(2..=16).contains(&per_channel) {
                    return bad(format!(
                        "rgb per-channel levels must be in 2..=16, got {per_channel}"
                    ));
                }
            }
            Quantizer::Hsv { hue, sat, val } => {
                if hue < 2 || sat < 1 || val < 1 || bins_exceed_4096(hue, sat, val) {
                    return bad(format!(
                        "hsv bins ({hue}, {sat}, {val}) out of range (hue>=2, sat,val>=1, product<=4096)"
                    ));
                }
            }
            Quantizer::Lab { l, a, b } => {
                if l < 2 || a < 2 || b < 2 || bins_exceed_4096(l, a, b) {
                    return bad(format!(
                        "lab bins ({l}, {a}, {b}) out of range (each >=2, product<=4096)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Total number of bins.
    pub fn n_bins(&self) -> usize {
        match *self {
            Quantizer::Gray { bins } => bins as usize,
            Quantizer::UniformRgb { per_channel } => (per_channel as usize).pow(3),
            Quantizer::Hsv { hue, sat, val } => (hue * sat * val) as usize,
            Quantizer::Lab { l, a, b } => (l * a * b) as usize,
        }
    }

    /// Bin index for a color.
    pub fn bin_of(&self, p: Rgb) -> usize {
        match *self {
            Quantizer::Gray { bins } => {
                let v = p.luma() as u32;
                ((v * bins) / 256) as usize
            }
            Quantizer::UniformRgb { per_channel } => uniform_rgb_bin(p, per_channel),
            Quantizer::Hsv { hue, sat, val } => {
                let c = rgb_to_hsv(p);
                let hb = ((c.h / 360.0 * hue as f32) as u32).min(hue - 1);
                let sb = ((c.s * sat as f32) as u32).min(sat - 1);
                let vb = ((c.v * val as f32) as u32).min(val - 1);
                ((hb * sat + sb) * val + vb) as usize
            }
            Quantizer::Lab { l, a, b } => {
                let c = rgb_to_lab(p);
                let lb = ((c.l / 100.0 * l as f32) as u32).min(l - 1);
                let norm = |v: f32, bins: u32| {
                    (((v + LAB_AB_RANGE) / (2.0 * LAB_AB_RANGE)).clamp(0.0, 1.0) * bins as f32)
                        as u32
                };
                let ab = norm(c.a, a).min(a - 1);
                let bb = norm(c.b, b).min(b - 1);
                ((lb * a + ab) * b + bb) as usize
            }
        }
    }

    /// The bin of every pixel, in order, into `out` (cleared first): the
    /// bins [`Self::bin_of`] gives pixel by pixel, with HSV computed
    /// eight pixels at a time. A validated quantizer has at most
    /// 4,096 bins, so every bin fits a `u16`.
    pub fn quantize_into(&self, pixels: &[Rgb], out: &mut Vec<u16>) {
        out.clear();
        let (hue, sat, val) = match *self {
            Quantizer::Hsv { hue, sat, val } => (hue, sat, val),
            Quantizer::UniformRgb { per_channel } => {
                let bin = |&p: &Rgb| uniform_rgb_bin(p, per_channel) as u16;
                return out.extend(pixels.iter().map(bin));
            }
            _ => return out.extend(pixels.iter().map(|&p| self.bin_of(p) as u16)),
        };
        let mut chunks = pixels.chunks_exact(HSV_LANES);
        for chunk in &mut chunks {
            out.extend(hsv_bins(
                chunk.try_into().expect("chunks_exact"),
                hue,
                sat,
                val,
            ));
        }
        let tail = chunks.remainder();
        if let Some(&last) = tail.last() {
            let mut lanes = [last; HSV_LANES];
            lanes[..tail.len()].copy_from_slice(tail);
            out.extend(&hsv_bins(&lanes, hue, sat, val)[..tail.len()]);
        }
    }

    /// Representative color-space position of a bin centre. Positions live
    /// in the quantizer's own space scaled to roughly `[0, 1]` per axis
    /// (hue is mapped onto a circle so angular wraparound is respected);
    /// used to build cross-bin similarity matrices.
    pub fn bin_position(&self, bin: usize) -> Vec<f32> {
        assert!(bin < self.n_bins(), "bin {bin} out of range");
        match *self {
            Quantizer::Gray { bins } => {
                vec![(bin as f32 + 0.5) / bins as f32]
            }
            Quantizer::UniformRgb { per_channel } => {
                let pc = per_channel as usize;
                let b = bin % pc;
                let g = (bin / pc) % pc;
                let r = bin / (pc * pc);
                let centre = |i: usize| (i as f32 + 0.5) / pc as f32;
                vec![centre(r), centre(g), centre(b)]
            }
            Quantizer::Hsv { hue, sat, val } => {
                let vb = bin as u32 % val;
                let sb = (bin as u32 / val) % sat;
                let hb = bin as u32 / (val * sat);
                let h = (hb as f32 + 0.5) / hue as f32 * std::f32::consts::TAU;
                let s = (sb as f32 + 0.5) / sat as f32;
                let v = (vb as f32 + 0.5) / val as f32;
                // Cone embedding: hue wraps around, saturation is the radius.
                vec![s * h.cos() * 0.5, s * h.sin() * 0.5, v]
            }
            Quantizer::Lab { l, a, b } => {
                let bb = bin as u32 % b;
                let ab = (bin as u32 / b) % a;
                let lb = bin as u32 / (b * a);
                vec![
                    (lb as f32 + 0.5) / l as f32,
                    (ab as f32 + 0.5) / a as f32,
                    (bb as f32 + 0.5) / b as f32,
                ]
            }
        }
    }

    /// A representative RGB color for a bin (for visualization/debugging).
    pub fn bin_color(&self, bin: usize) -> Rgb {
        assert!(bin < self.n_bins(), "bin {bin} out of range");
        match *self {
            Quantizer::Gray { bins } => {
                let v = ((bin as f32 + 0.5) / bins as f32 * 255.0) as u8;
                Rgb::new(v, v, v)
            }
            Quantizer::UniformRgb { per_channel } => {
                let pc = per_channel as usize;
                let b = bin % pc;
                let g = (bin / pc) % pc;
                let r = bin / (pc * pc);
                let centre = |i: usize| ((i as f32 + 0.5) / pc as f32 * 255.0) as u8;
                Rgb::new(centre(r), centre(g), centre(b))
            }
            Quantizer::Hsv { hue, sat, val } => {
                let vb = bin as u32 % val;
                let sb = (bin as u32 / val) % sat;
                let hb = bin as u32 / (val * sat);
                hsv_to_rgb(Hsv {
                    h: (hb as f32 + 0.5) / hue as f32 * 360.0,
                    s: (sb as f32 + 0.5) / sat as f32,
                    v: (vb as f32 + 0.5) / val as f32,
                })
            }
            Quantizer::Lab { l, a, b } => {
                let bb = bin as u32 % b;
                let ab = (bin as u32 / b) % a;
                let lb = bin as u32 / (b * a);
                lab_to_rgb(Lab {
                    l: (lb as f32 + 0.5) / l as f32 * 100.0,
                    a: (ab as f32 + 0.5) / a as f32 * 2.0 * LAB_AB_RANGE - LAB_AB_RANGE,
                    b: (bb as f32 + 0.5) / b as f32 * 2.0 * LAB_AB_RANGE - LAB_AB_RANGE,
                })
            }
        }
    }

    /// The classical default for color indexing: 16 hue × 4 saturation × 4
    /// value = 256 bins.
    pub fn hsv_default() -> Self {
        Quantizer::Hsv {
            hue: 16,
            sat: 4,
            val: 4,
        }
    }

    /// A compact 64-bin RGB quantizer (4 levels per channel), the usual
    /// correlogram configuration.
    pub fn rgb_compact() -> Self {
        Quantizer::UniformRgb { per_channel: 4 }
    }

    /// A perceptually-motivated default: 5 lightness x 7 a* x 7 b* = 245
    /// L*a*b* bins.
    pub fn lab_default() -> Self {
        Quantizer::Lab { l: 5, a: 7, b: 7 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_counts() {
        assert_eq!(Quantizer::Gray { bins: 16 }.n_bins(), 16);
        assert_eq!(Quantizer::UniformRgb { per_channel: 4 }.n_bins(), 64);
        assert_eq!(Quantizer::hsv_default().n_bins(), 256);
    }

    #[test]
    fn validation() {
        assert!(Quantizer::Gray { bins: 1 }.validate().is_err());
        assert!(Quantizer::Gray { bins: 257 }.validate().is_err());
        assert!(Quantizer::Gray { bins: 256 }.validate().is_ok());
        assert!(Quantizer::UniformRgb { per_channel: 1 }.validate().is_err());
        assert!(Quantizer::UniformRgb { per_channel: 17 }
            .validate()
            .is_err());
        assert!(Quantizer::Hsv {
            hue: 1,
            sat: 4,
            val: 4
        }
        .validate()
        .is_err());
        assert!(Quantizer::Hsv {
            hue: 64,
            sat: 16,
            val: 16
        }
        .validate()
        .is_err()); // 16384 > 4096
        assert!(Quantizer::hsv_default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bin_products_that_wrap_u32() {
        // 65,536 × 65,536 × 1 = 2³², which wraps a u32 product to 0 bins.
        for q in [
            Quantizer::Hsv {
                hue: 65536,
                sat: 65536,
                val: 1,
            },
            Quantizer::Hsv {
                hue: 2,
                sat: u32::MAX,
                val: u32::MAX,
            },
            Quantizer::Lab {
                l: 65536,
                a: 65536,
                b: 2,
            },
            Quantizer::Lab {
                l: 2,
                a: 2,
                b: 1 << 31,
            },
        ] {
            assert!(q.validate().is_err(), "{q:?} validated");
        }
        assert!(Quantizer::Hsv {
            hue: 64,
            sat: 8,
            val: 8
        }
        .validate()
        .is_ok());
        assert!(Quantizer::Lab {
            l: 16,
            a: 16,
            b: 16
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn every_color_maps_to_a_valid_bin() {
        for q in [
            Quantizer::Gray { bins: 7 },
            Quantizer::UniformRgb { per_channel: 3 },
            Quantizer::Hsv {
                hue: 6,
                sat: 3,
                val: 3,
            },
        ] {
            let n = q.n_bins();
            for r in (0u16..=255).step_by(17) {
                for g in (0u16..=255).step_by(51) {
                    for b in (0u16..=255).step_by(51) {
                        let bin = q.bin_of(Rgb::new(r as u8, g as u8, b as u8));
                        assert!(bin < n, "{q:?} produced bin {bin} >= {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_wise_hsv_plane_matches_bin_of() {
        // Every eighth level per channel plus each channel's extremes and
        // their neighbours: ties between channels, grays, black, and every
        // hue sextant. The full 2^24 cube runs in T1b's release leg.
        let levels: Vec<u8> = (0..=255u8)
            .step_by(8)
            .chain([1, 2, 127, 128, 129, 253, 254, 255])
            .collect();
        let mut pixels = Vec::new();
        for &r in &levels {
            for &g in &levels {
                for &b in &levels {
                    pixels.push(Rgb::new(r, g, b));
                }
            }
        }
        let mut plane = Vec::new();
        for q in [
            Quantizer::hsv_default(),
            Quantizer::Hsv {
                hue: 7,
                sat: 3,
                val: 5,
            },
            Quantizer::Hsv {
                hue: 4096,
                sat: 1,
                val: 1,
            },
        ] {
            // Lengths off the lane width exercise the padded tail.
            for len in [pixels.len(), pixels.len() - 3, 5, 0] {
                q.quantize_into(&pixels[..len], &mut plane);
                let want: Vec<u16> = pixels[..len].iter().map(|&p| q.bin_of(p) as u16).collect();
                assert_eq!(plane, want, "{q:?}, {len} pixels");
            }
        }
    }

    #[test]
    fn rgb_quantizer_extremes() {
        let q = Quantizer::UniformRgb { per_channel: 4 };
        assert_eq!(q.bin_of(Rgb::new(0, 0, 0)), 0);
        assert_eq!(q.bin_of(Rgb::new(255, 255, 255)), 63);
        // Pure red occupies the highest r-slot with g=b=0.
        assert_eq!(q.bin_of(Rgb::new(255, 0, 0)), 3 * 16);
    }

    #[test]
    fn gray_quantizer_uniform_split() {
        let q = Quantizer::Gray { bins: 4 };
        assert_eq!(q.bin_of(Rgb::new(0, 0, 0)), 0);
        assert_eq!(q.bin_of(Rgb::new(63, 63, 63)), 0);
        assert_eq!(q.bin_of(Rgb::new(64, 64, 64)), 1);
        assert_eq!(q.bin_of(Rgb::new(255, 255, 255)), 3);
    }

    #[test]
    fn similar_colors_share_a_bin_different_colors_do_not() {
        let q = Quantizer::hsv_default();
        // Two nearby reds.
        let a = q.bin_of(Rgb::new(250, 10, 10));
        let b = q.bin_of(Rgb::new(245, 15, 12));
        assert_eq!(a, b);
        // Red vs blue.
        let c = q.bin_of(Rgb::new(10, 10, 250));
        assert_ne!(a, c);
    }

    #[test]
    fn bin_positions_have_consistent_shape() {
        for q in [
            Quantizer::Gray { bins: 5 },
            Quantizer::UniformRgb { per_channel: 3 },
            Quantizer::Hsv {
                hue: 4,
                sat: 2,
                val: 2,
            },
        ] {
            let d = q.bin_position(0).len();
            for bin in 0..q.n_bins() {
                assert_eq!(q.bin_position(bin).len(), d);
            }
        }
    }

    #[test]
    fn hue_positions_wrap_circularly() {
        // With 8 hue bins, bin 0 and bin 7 are angular neighbours; their
        // cone positions must be closer than bin 0 and bin 4 (opposite).
        let q = Quantizer::Hsv {
            hue: 8,
            sat: 1,
            val: 1,
        };
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let p0 = q.bin_position(0);
        let p7 = q.bin_position(7);
        let p4 = q.bin_position(4);
        assert!(dist(&p0, &p7) < dist(&p0, &p4));
    }

    #[test]
    fn bin_color_roundtrips_through_bin_of() {
        // The representative color of a bin must quantize back to that bin
        // (for well-separated quantizers).
        let q = Quantizer::UniformRgb { per_channel: 4 };
        for bin in 0..q.n_bins() {
            assert_eq!(q.bin_of(q.bin_color(bin)), bin);
        }
        let q = Quantizer::Gray { bins: 8 };
        for bin in 0..q.n_bins() {
            assert_eq!(q.bin_of(q.bin_color(bin)), bin);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_position_bounds_checked() {
        Quantizer::Gray { bins: 4 }.bin_position(4);
    }

    #[test]
    fn lab_quantizer_basics() {
        let q = Quantizer::lab_default();
        assert_eq!(q.n_bins(), 245);
        assert!(q.validate().is_ok());
        assert!(Quantizer::Lab { l: 1, a: 4, b: 4 }.validate().is_err());
        assert!(Quantizer::Lab {
            l: 16,
            a: 16,
            b: 17
        }
        .validate()
        .is_err());
        // Every color maps into range.
        for r in (0u16..=255).step_by(51) {
            for g in (0u16..=255).step_by(51) {
                for b in (0u16..=255).step_by(51) {
                    let bin = q.bin_of(Rgb::new(r as u8, g as u8, b as u8));
                    assert!(bin < 245);
                }
            }
        }
    }

    #[test]
    fn lab_quantizer_separates_lightness_and_hue() {
        let q = Quantizer::lab_default();
        // Black vs white differ (lightness axis).
        assert_ne!(
            q.bin_of(Rgb::new(0, 0, 0)),
            q.bin_of(Rgb::new(255, 255, 255))
        );
        // Red vs green differ (a* axis).
        assert_ne!(
            q.bin_of(Rgb::new(200, 30, 30)),
            q.bin_of(Rgb::new(30, 200, 30))
        );
        // Two almost-identical reds share a bin.
        assert_eq!(
            q.bin_of(Rgb::new(200, 30, 30)),
            q.bin_of(Rgb::new(200, 31, 30))
        );
    }

    #[test]
    fn lab_positions_track_perceptual_axes() {
        let q = Quantizer::Lab { l: 4, a: 4, b: 4 };
        let dist = |x: &[f32], y: &[f32]| -> f32 {
            x.iter()
                .zip(y)
                .map(|(p, r)| (p - r) * (p - r))
                .sum::<f32>()
                .sqrt()
        };
        let dark_red = q.bin_of(Rgb::new(120, 10, 10));
        let bright_red = q.bin_of(Rgb::new(250, 60, 60));
        let green = q.bin_of(Rgb::new(10, 160, 10));
        let p_dr = q.bin_position(dark_red);
        let p_br = q.bin_position(bright_red);
        let p_g = q.bin_position(green);
        // Reds of different lightness are closer than red vs green.
        assert!(dist(&p_dr, &p_br) < dist(&p_dr, &p_g));
        // All positions share dimensionality 3.
        for bin in 0..q.n_bins() {
            assert_eq!(q.bin_position(bin).len(), 3);
        }
    }
}
