//! Seeded inputs. The same `--seed` gives the same corpus, queries, op
//! order and arrival schedule; the system under test sees only these.

use crate::config::{CHUNK_BASE, DIM, IMAGE_SIDE};
use cbir_core::{ImageDatabase, ImageMeta};
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_image::ops::transform::{flip_horizontal, rotate180, rotate270, rotate90};
use cbir_image::RgbImage;
use cbir_workload::{Corpus, CorpusSpec};

/// An independent seed for stream `stream` of run seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    (seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `n` descriptor rows shaped like the repo's approximate-search corpus
/// (F14): many small blobs whose residual is smooth along the descriptor
/// axis, which is what image descriptors look like and what the coarse
/// Haar stage relies on.
pub fn vector_rows(n: usize, seed: u64) -> Vec<Vec<f32>> {
    cbir_workload::clustered_smooth(n, DIM, (n / 64).max(8), 10.0, 100.0, 8, seed)
}

/// A database holding `rows` as precomputed descriptors.
pub fn vector_db(rows: &[Vec<f32>]) -> ImageDatabase {
    let pipeline = Pipeline::new(
        DIM as u32,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray {
            bins: DIM as u32,
        })],
    )
    .expect("static pipeline");
    let mut db = ImageDatabase::with_raw_extraction(pipeline);
    for (i, row) in rows.iter().enumerate() {
        let meta = ImageMeta {
            name: format!("img-{i:06}"),
            label: None,
        };
        db.insert_descriptor(meta, row.clone())
            .expect("generated rows are finite and of the pipeline's dim");
    }
    db
}

/// `count` distinct query descriptors: perturbed corpus members
/// (query by example), plus, unless `members_only`, one in four drawn
/// uniformly from the corpus's bounding box (an out-of-set query).
pub fn knn_queries(
    rows: &[Vec<f32>],
    count: usize,
    seed: u64,
    members_only: bool,
) -> Vec<Vec<f32>> {
    if !members_only {
        return cbir_workload::queries(rows, count, 5.0, seed);
    }
    cbir_workload::queries(rows, count * 4 / 3 + 4, 5.0, seed)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 4 != 3)
        .map(|(_, q)| q)
        .take(count)
        .collect()
}

/// Chunk `chunk` of the base images of run `seed`: [`CHUNK_BASE`] images,
/// `per_class` from each of as many classes as that takes.
pub fn image_chunk(seed: u64, chunk: usize, per_class: usize, quick: bool) -> Vec<RgbImage> {
    Corpus::generate(CorpusSpec {
        classes: CHUNK_BASE / per_class,
        images_per_class: per_class,
        image_size: if quick { IMAGE_SIDE / 2 } else { IMAGE_SIDE },
        seed: sub_seed(seed, 1000 + chunk as u64),
        ..CorpusSpec::default()
    })
    .images
}

/// Orientation `v` (of 8: four rotations, each mirrored or not) of a
/// base image. Rendering a base image costs as much as extracting its
/// features; turning it costs a copy, so most of a run's untimed input
/// preparation is spent here and not in the renderer.
pub fn variant(img: &RgbImage, v: usize) -> RgbImage {
    let turned = match v & 3 {
        0 => img.clone(),
        1 => rotate90(img),
        2 => rotate180(img),
        _ => rotate270(img),
    };
    if v & 4 == 0 {
        turned
    } else {
        flip_horizontal(&turned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = vector_rows(256, sub_seed(5, 1));
        assert_eq!(a, vector_rows(256, sub_seed(5, 1)));
        assert_ne!(a, vector_rows(256, sub_seed(6, 1)));
        let q = knn_queries(&a, 40, 9, true);
        assert_eq!(q.len(), 40);
        assert_eq!(q, knn_queries(&a, 40, 9, true));
        assert_eq!(knn_queries(&a, 40, 9, false).len(), 40);
    }

    #[test]
    fn the_eight_orientations_differ() {
        let base = &image_chunk(3, 0, 5, true)[0];
        let all: Vec<RgbImage> = (0..8).map(|v| variant(base, v)).collect();
        for i in 0..8 {
            for j in 0..i {
                assert!(all[i] != all[j], "orientations {i} and {j} coincide");
            }
        }
    }
}
