//! Class-structured synthetic image corpora.
//!
//! This is the repository's substitute for the paper's (unavailable) image
//! collection: `K` classes, each defined by a joint draw of background hue,
//! procedural texture, foreground hue, and foreground shape; each image in
//! a class is an independent jitter of the class template (hue shift,
//! texture/shape perturbation, pixel noise). Retrieval ground truth is the
//! class label.

use crate::rng::Pcg32;
use crate::shapes::Shape;
use crate::texture::Texture;
use cbir_image::color::{hsv_to_rgb, Hsv};
use cbir_image::RgbImage;

/// Parameters of a synthetic corpus.
#[derive(Clone, Debug)]
pub struct CorpusSpec {
    /// Number of classes.
    pub classes: usize,
    /// Images per class.
    pub images_per_class: usize,
    /// Square image side in pixels.
    pub image_size: u32,
    /// Intra-class jitter strength in `[0, 1]` (0 = identical copies).
    pub jitter: f32,
    /// Per-pixel value-noise amplitude in `[0, 1]`.
    pub noise: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            classes: 10,
            images_per_class: 20,
            image_size: 64,
            jitter: 0.5,
            noise: 0.05,
            seed: 0xC0FFEE,
        }
    }
}

/// The template from which a class's images are jittered.
#[derive(Clone, Debug)]
struct ClassTemplate {
    bg_hue: f32,
    bg_sat: f32,
    fg_hue: f32,
    fg_sat: f32,
    texture: Texture,
    shape: Shape,
}

impl ClassTemplate {
    fn draw(rng: &mut Pcg32, image_size: f32) -> Self {
        let bg_hue = rng.range_f32(0.0, 360.0);
        // Foreground hue well-separated from background.
        let fg_hue = (bg_hue + rng.range_f32(90.0, 270.0)).rem_euclid(360.0);
        ClassTemplate {
            bg_hue,
            bg_sat: rng.range_f32(0.35, 0.9),
            fg_hue,
            fg_sat: rng.range_f32(0.5, 1.0),
            texture: Texture::random(rng, image_size),
            shape: Shape::random(rng),
        }
    }
}

/// Deterministic per-pixel hash noise in `[-0.5, 0.5]`.
fn pixel_noise(x: u32, y: u32, seed: u64) -> f32 {
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ ((y as u64) << 32).wrapping_mul(0xC2B2AE3D27D4EB4F);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 33;
    (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5
}

/// A generated corpus: images plus class labels.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// Generated images, grouped class-major: image `i` has label
    /// `labels[i] = i / images_per_class`.
    pub images: Vec<RgbImage>,
    /// Class label per image.
    pub labels: Vec<usize>,
    spec: CorpusSpec,
}

impl Corpus {
    /// Generate the corpus deterministically from its spec.
    pub fn generate(spec: CorpusSpec) -> Self {
        assert!(spec.classes > 0, "corpus needs >= 1 class");
        assert!(
            spec.images_per_class > 0,
            "corpus needs >= 1 image per class"
        );
        assert!(spec.image_size >= 8, "corpus images must be >= 8 px");
        let mut images = Vec::with_capacity(spec.classes * spec.images_per_class);
        let mut labels = Vec::with_capacity(images.capacity());
        for class in 0..spec.classes {
            let mut class_rng = Pcg32::with_stream(spec.seed, class as u64 + 1);
            let template = ClassTemplate::draw(&mut class_rng, spec.image_size as f32);
            for img_idx in 0..spec.images_per_class {
                let mut rng =
                    Pcg32::with_stream(spec.seed ^ 0x51CA7E, (class * 100_003 + img_idx) as u64);
                images.push(render(&template, &spec, &mut rng));
                labels.push(class);
            }
        }
        Corpus {
            images,
            labels,
            spec,
        }
    }

    /// Total image count.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the corpus has no images (never true once generated).
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The generation spec.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// Ids of all images in the same class as `query` (excluding it) — the
    /// retrieval ground truth.
    pub fn relevant_to(&self, query: usize) -> Vec<usize> {
        let label = self.labels[query];
        self.labels
            .iter()
            .enumerate()
            .filter(|&(i, &l)| l == label && i != query)
            .map(|(i, _)| i)
            .collect()
    }
}

fn render(template: &ClassTemplate, spec: &CorpusSpec, rng: &mut Pcg32) -> RgbImage {
    let j = spec.jitter;
    let hue_shift = rng.range_f32(-20.0, 20.0) * j;
    let sat_shift = rng.range_f32(-0.1, 0.1) * j;
    let val_shift = rng.range_f32(-0.08, 0.08) * j;
    let texture = template.texture.jitter(rng, j);
    let shape = template.shape.jitter(rng, j);
    let noise_seed = (rng.next_u32() as u64) << 16 ^ spec.seed;
    let n = spec.image_size;

    RgbImage::from_fn(n, n, |x, y| {
        let ux = (x as f32 + 0.5) / n as f32;
        let uy = (y as f32 + 0.5) / n as f32;
        let t = texture.eval(x as f32, y as f32);
        let noise = spec.noise * pixel_noise(x, y, noise_seed);
        let (hue, sat, val) = if shape.contains(ux, uy) {
            (
                template.fg_hue + hue_shift,
                template.fg_sat + sat_shift,
                0.55 + 0.35 * (1.0 - t) + val_shift + noise,
            )
        } else {
            (
                template.bg_hue + hue_shift,
                template.bg_sat + sat_shift,
                0.30 + 0.45 * t + val_shift + noise,
            )
        };
        hsv_to_rgb(Hsv {
            h: hue.rem_euclid(360.0),
            s: sat.clamp(0.0, 1.0),
            v: val.clamp(0.0, 1.0),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CorpusSpec {
        CorpusSpec {
            classes: 4,
            images_per_class: 5,
            image_size: 32,
            jitter: 0.5,
            noise: 0.05,
            seed: 99,
        }
    }

    #[test]
    fn shape_and_labels() {
        let c = Corpus::generate(small_spec());
        assert_eq!(c.len(), 20);
        assert_eq!(c.labels.len(), 20);
        assert_eq!(c.labels[0], 0);
        assert_eq!(c.labels[5], 1);
        assert_eq!(c.labels[19], 3);
        for img in &c.images {
            assert_eq!(img.dimensions(), (32, 32));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(small_spec());
        let b = Corpus::generate(small_spec());
        for (x, y) in a.images.iter().zip(&b.images) {
            assert_eq!(x, y);
        }
        // Different seed -> different corpus.
        let mut spec = small_spec();
        spec.seed = 100;
        let cdiff = Corpus::generate(spec);
        assert!(a.images.iter().zip(&cdiff.images).any(|(x, y)| x != y));
    }

    #[test]
    fn images_within_a_class_differ_but_share_palette() {
        let c = Corpus::generate(small_spec());
        // Same class, different jitters: not identical.
        assert_ne!(c.images[0], c.images[1]);

        // Mean color within a class is closer than across classes.
        let mean_rgb = |img: &RgbImage| -> [f32; 3] {
            let n = img.len() as f32;
            let mut acc = [0.0f32; 3];
            for p in img.pixels() {
                acc[0] += p.r() as f32;
                acc[1] += p.g() as f32;
                acc[2] += p.b() as f32;
            }
            acc.map(|v| v / n)
        };
        let dist = |a: [f32; 3], b: [f32; 3]| -> f32 {
            a.iter()
                .zip(&b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
                .sqrt()
        };
        let m0a = mean_rgb(&c.images[0]);
        let m0b = mean_rgb(&c.images[1]);
        // Compare intra-class to the average cross-class distance (hue
        // draws can occasionally land close for one pair).
        let cross: f32 = (1..4)
            .map(|k| dist(m0a, mean_rgb(&c.images[k * 5])))
            .sum::<f32>()
            / 3.0;
        let intra = dist(m0a, m0b);
        assert!(
            intra < cross,
            "intra-class color distance {intra} should be below mean cross-class {cross}"
        );
    }

    #[test]
    fn zero_jitter_zero_noise_gives_identical_images() {
        let spec = CorpusSpec {
            jitter: 0.0,
            noise: 0.0,
            ..small_spec()
        };
        let c = Corpus::generate(spec);
        assert_eq!(c.images[0], c.images[1]);
        assert_eq!(c.images[0], c.images[4]);
        // But different classes still differ.
        assert_ne!(c.images[0], c.images[5]);
    }

    #[test]
    fn relevant_to_excludes_self() {
        let c = Corpus::generate(small_spec());
        let rel = c.relevant_to(7);
        assert_eq!(rel.len(), 4);
        assert!(!rel.contains(&7));
        assert!(rel.iter().all(|&i| c.labels[i] == c.labels[7]));
    }

    #[test]
    #[should_panic(expected = ">= 1 class")]
    fn zero_classes_panics() {
        Corpus::generate(CorpusSpec {
            classes: 0,
            ..small_spec()
        });
    }
}
