//! The image database: images go in, composite feature descriptors come
//! out, everything else (indexing, querying, evaluation) works on the
//! descriptors.

use crate::error::{CoreError, Result};
use cbir_features::{Pipeline, Segment};
use cbir_image::RgbImage;
use cbir_index::Dataset;
use std::sync::Arc;

/// Metadata stored per image (the pixels themselves are *not* retained —
/// the signature database is the index, exactly as in the original
/// systems).
#[derive(Clone, Debug, PartialEq)]
pub struct ImageMeta {
    /// External name (file path, URL, accession number...).
    pub name: String,
    /// Optional class label (used by the evaluation harness).
    pub label: Option<u32>,
}

/// One image in a batch insertion.
#[derive(Clone, Debug)]
pub struct BatchItem<'a> {
    /// External name.
    pub name: String,
    /// Optional class label.
    pub label: Option<u32>,
    /// The image to extract from.
    pub image: &'a RgbImage,
}

/// A database of image signatures extracted by one fixed [`Pipeline`].
///
/// Rows and metadata sit behind `Arc`s so a [`crate::QueryEngine`] built
/// over the database searches the very same allocation (and a clone is
/// O(1)); the insert paths copy on write if the storage is shared.
#[derive(Clone, Debug)]
pub struct ImageDatabase {
    pipeline: Pipeline,
    balanced: bool,
    descriptors: Arc<Vec<f32>>,
    metas: Arc<Vec<ImageMeta>>,
}

impl ImageDatabase {
    /// An empty database extracting with `pipeline`. Descriptors are
    /// segment-balanced (each feature family L1-normalized) so no family
    /// dominates a composite measure; use
    /// [`ImageDatabase::with_raw_extraction`] to keep raw feature scales.
    pub fn new(pipeline: Pipeline) -> Self {
        ImageDatabase {
            pipeline,
            balanced: true,
            descriptors: Arc::default(),
            metas: Arc::default(),
        }
    }

    /// An empty database extracting raw (unbalanced) descriptors.
    pub fn with_raw_extraction(pipeline: Pipeline) -> Self {
        ImageDatabase {
            balanced: false,
            ..Self::new(pipeline)
        }
    }

    /// The extraction pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Whether per-segment balancing is applied at extraction.
    pub fn is_balanced(&self) -> bool {
        self.balanced
    }

    /// Composite descriptor dimensionality.
    pub fn dim(&self) -> usize {
        self.pipeline.dim()
    }

    /// Per-family layout of the composite descriptor.
    pub fn layout(&self) -> Vec<Segment> {
        self.pipeline.layout()
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the database holds no images.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Extract a descriptor for an image *without* inserting it (used for
    /// query-by-example on external images).
    pub fn extract(&self, img: &RgbImage) -> Result<Vec<f32>> {
        Ok(if self.balanced {
            self.pipeline.extract_balanced(img)?
        } else {
            self.pipeline.extract(img)?
        })
    }

    /// Insert an unlabeled image; returns its id.
    pub fn insert(&mut self, name: impl Into<String>, img: &RgbImage) -> Result<usize> {
        self.insert_inner(name.into(), None, img)
    }

    /// Insert a labeled image; returns its id.
    pub fn insert_labeled(
        &mut self,
        name: impl Into<String>,
        label: u32,
        img: &RgbImage,
    ) -> Result<usize> {
        self.insert_inner(name.into(), Some(label), img)
    }

    /// Append one validated row (copying shared storage first); returns
    /// its id.
    fn push_row(&mut self, meta: ImageMeta, descriptor: &[f32]) -> usize {
        Arc::make_mut(&mut self.descriptors).extend_from_slice(descriptor);
        let metas = Arc::make_mut(&mut self.metas);
        metas.push(meta);
        metas.len() - 1
    }

    fn insert_inner(&mut self, name: String, label: Option<u32>, img: &RgbImage) -> Result<usize> {
        let desc = self.extract(img)?;
        debug_assert_eq!(desc.len(), self.dim());
        Ok(self.push_row(ImageMeta { name, label }, &desc))
    }

    /// Extract descriptors for many external images on `threads` worker
    /// threads without inserting them (batched query-by-example). Results
    /// are in input order and bit-identical at every thread count.
    pub fn extract_batch(&self, images: &[&RgbImage], threads: usize) -> Result<Vec<Vec<f32>>> {
        if threads == 0 {
            return Err(CoreError::InvalidParameter(
                "extract_batch needs >= 1 thread".into(),
            ));
        }
        Ok(if self.balanced {
            self.pipeline.extract_balanced_batch(images, threads)?
        } else {
            self.pipeline.extract_batch(images, threads)?
        })
    }

    /// Insert a batch of images, extracting descriptors on `threads`
    /// worker threads (scoped; no unsafe, no external dependencies), each
    /// reusing one extraction scratch across its whole chunk. Extraction
    /// dominates ingest cost and is embarrassingly parallel, so this is
    /// the fast path for loading large collections. Ids are assigned in
    /// input order, identical to sequential insertion.
    pub fn insert_batch(&mut self, items: &[BatchItem<'_>], threads: usize) -> Result<Vec<usize>> {
        if threads == 0 {
            return Err(CoreError::InvalidParameter(
                "insert_batch needs >= 1 thread".into(),
            ));
        }
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let images: Vec<&RgbImage> = items.iter().map(|item| item.image).collect();
        // All-or-nothing: extract_batch surfaces the first error (in input
        // order) before any state is mutated.
        let descriptors = if self.balanced {
            self.pipeline.extract_balanced_batch(&images, threads)?
        } else {
            self.pipeline.extract_batch(&images, threads)?
        };
        Ok(items
            .iter()
            .zip(descriptors)
            .map(|(item, desc)| {
                let meta = ImageMeta {
                    name: item.name.clone(),
                    label: item.label,
                };
                self.push_row(meta, &desc)
            })
            .collect())
    }

    /// Rebuild a database from already-validated parts: a flat row-major
    /// descriptor matrix plus id-ordered metadata. Used by the segment
    /// store when materializing a snapshot; unlike repeated
    /// [`ImageDatabase::insert_descriptor`] calls this is O(n) with one
    /// allocation and no per-component finiteness re-scan (the parts come
    /// from storage that only ever held validated descriptors).
    pub fn from_parts(
        pipeline: Pipeline,
        balanced: bool,
        descriptors: Vec<f32>,
        metas: Vec<ImageMeta>,
    ) -> Result<Self> {
        let dim = pipeline.dim();
        if descriptors.len() != metas.len() * dim {
            return Err(CoreError::InvalidParameter(format!(
                "descriptor matrix has {} floats for {} metas of dim {dim}",
                descriptors.len(),
                metas.len()
            )));
        }
        Ok(ImageDatabase {
            pipeline,
            balanced,
            descriptors: Arc::new(descriptors),
            metas: Arc::new(metas),
        })
    }

    /// The whole descriptor matrix as one row-major `len() * dim()` slice.
    pub fn flat_descriptors(&self) -> &[f32] {
        &self.descriptors
    }

    /// Insert a precomputed descriptor (used by persistence and tests).
    pub fn insert_descriptor(&mut self, meta: ImageMeta, descriptor: Vec<f32>) -> Result<usize> {
        if descriptor.len() != self.dim() {
            return Err(CoreError::InvalidParameter(format!(
                "descriptor has dim {}, database expects {}",
                descriptor.len(),
                self.dim()
            )));
        }
        if descriptor.iter().any(|x| !x.is_finite()) {
            return Err(CoreError::InvalidParameter(
                "descriptor contains a non-finite component".into(),
            ));
        }
        Ok(self.push_row(meta, &descriptor))
    }

    /// The descriptor of image `id`.
    pub fn descriptor(&self, id: usize) -> Result<&[f32]> {
        if id >= self.len() {
            return Err(CoreError::NotFound(id));
        }
        let d = self.dim();
        Ok(&self.descriptors[id * d..(id + 1) * d])
    }

    /// Metadata of image `id`.
    pub fn meta(&self, id: usize) -> Result<&ImageMeta> {
        self.metas.get(id).ok_or(CoreError::NotFound(id))
    }

    /// All metadata, id-ordered.
    pub fn metas(&self) -> &[ImageMeta] {
        &self.metas
    }

    /// All metadata, shared rather than copied.
    pub(crate) fn shared_metas(&self) -> Arc<Vec<ImageMeta>> {
        Arc::clone(&self.metas)
    }

    /// The descriptor matrix as an index-ready [`Dataset`] over the
    /// database's own storage (no copy). Fails on an empty database or a
    /// non-finite component (`from_parts` takes its rows on trust).
    pub fn to_dataset(&self) -> Result<Dataset> {
        if self.descriptors.iter().any(|x| !x.is_finite()) {
            return Err(cbir_index::IndexError::BadDataset(
                "data contains a non-finite component".into(),
            )
            .into());
        }
        let rows = Arc::clone(&self.descriptors);
        Ok(Dataset::from_shared(self.dim(), rows as _)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_features::{FeatureSpec, Quantizer};
    use cbir_image::Rgb;

    fn small_pipeline() -> Pipeline {
        Pipeline::new(
            16,
            vec![FeatureSpec::ColorHistogram(Quantizer::UniformRgb {
                per_channel: 2,
            })],
        )
        .unwrap()
    }

    fn img(r: u8, g: u8, b: u8) -> RgbImage {
        RgbImage::filled(20, 20, Rgb::new(r, g, b))
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = ImageDatabase::new(small_pipeline());
        assert!(db.is_empty());
        let a = db.insert("red.ppm", &img(200, 0, 0)).unwrap();
        let b = db.insert_labeled("blue.ppm", 3, &img(0, 0, 200)).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(db.len(), 2);
        assert_eq!(db.meta(0).unwrap().name, "red.ppm");
        assert_eq!(db.meta(1).unwrap().label, Some(3));
        assert_eq!(db.descriptor(0).unwrap().len(), 8);
        assert!(matches!(db.meta(2), Err(CoreError::NotFound(2))));
        assert!(matches!(db.descriptor(5), Err(CoreError::NotFound(5))));
    }

    #[test]
    fn descriptors_distinguish_content() {
        let mut db = ImageDatabase::new(small_pipeline());
        db.insert("r", &img(220, 10, 10)).unwrap();
        db.insert("b", &img(10, 10, 220)).unwrap();
        let d0 = db.descriptor(0).unwrap();
        let d1 = db.descriptor(1).unwrap();
        assert_ne!(d0, d1);
    }

    #[test]
    fn to_dataset_roundtrip() {
        let mut db = ImageDatabase::new(small_pipeline());
        db.insert("a", &img(255, 255, 255)).unwrap();
        db.insert("b", &img(0, 0, 0)).unwrap();
        let ds = db.to_dataset().unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 8);
        assert_eq!(ds.vector(0), db.descriptor(0).unwrap());
    }

    #[test]
    fn insert_descriptor_validates() {
        let mut db = ImageDatabase::new(small_pipeline());
        let meta = ImageMeta {
            name: "x".into(),
            label: None,
        };
        assert!(db.insert_descriptor(meta.clone(), vec![0.0; 7]).is_err());
        assert!(db
            .insert_descriptor(meta.clone(), vec![f32::NAN; 8])
            .is_err());
        assert!(db.insert_descriptor(meta, vec![0.1; 8]).is_ok());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn balanced_vs_raw() {
        let pipeline = Pipeline::new(
            16,
            vec![
                FeatureSpec::ColorHistogram(Quantizer::UniformRgb { per_channel: 2 }),
                FeatureSpec::Glcm { levels: 8 },
            ],
        )
        .unwrap();
        let mut balanced = ImageDatabase::new(pipeline.clone());
        let mut raw = ImageDatabase::with_raw_extraction(pipeline);
        let image = RgbImage::from_fn(24, 24, |x, y| Rgb::new((x * 10) as u8, (y * 10) as u8, 128));
        balanced.insert("i", &image).unwrap();
        raw.insert("i", &image).unwrap();
        assert!(balanced.is_balanced());
        assert!(!raw.is_balanced());
        // Balanced: each segment sums to ~1 (or 0).
        let d = balanced.descriptor(0).unwrap();
        for seg in balanced.layout() {
            let s: f32 = d[seg.start..seg.end].iter().map(|x| x.abs()).sum();
            assert!((s - 1.0).abs() < 1e-4 || s == 0.0);
        }
        assert_ne!(d, raw.descriptor(0).unwrap());
    }

    #[test]
    fn batch_insert_matches_sequential() {
        let images: Vec<RgbImage> = (0..7)
            .map(|i| {
                RgbImage::from_fn(20, 20, move |x, y| {
                    Rgb::new((x * (i + 1)) as u8, (y * 9) as u8, (i * 30) as u8)
                })
            })
            .collect();
        let mut seq = ImageDatabase::new(small_pipeline());
        for (i, img) in images.iter().enumerate() {
            seq.insert_labeled(format!("img-{i}"), i as u32, img)
                .unwrap();
        }
        let mut par = ImageDatabase::new(small_pipeline());
        let items: Vec<BatchItem> = images
            .iter()
            .enumerate()
            .map(|(i, image)| BatchItem {
                name: format!("img-{i}"),
                label: Some(i as u32),
                image,
            })
            .collect();
        let ids = par.insert_batch(&items, 3).unwrap();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        assert_eq!(par.len(), seq.len());
        for i in 0..7 {
            assert_eq!(par.descriptor(i).unwrap(), seq.descriptor(i).unwrap());
            assert_eq!(par.meta(i).unwrap(), seq.meta(i).unwrap());
        }
    }

    #[test]
    fn batch_insert_is_atomic_on_error() {
        let good = img(10, 20, 30);
        let empty = RgbImage::filled(0, 0, Rgb::default());
        let mut db = ImageDatabase::new(small_pipeline());
        let items = vec![
            BatchItem {
                name: "ok".into(),
                label: None,
                image: &good,
            },
            BatchItem {
                name: "bad".into(),
                label: None,
                image: &empty,
            },
        ];
        assert!(db.insert_batch(&items, 2).is_err());
        // Nothing was inserted.
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn batch_insert_edge_cases() {
        let mut db = ImageDatabase::new(small_pipeline());
        assert!(db.insert_batch(&[], 4).unwrap().is_empty());
        let image = img(1, 2, 3);
        let items = vec![BatchItem {
            name: "x".into(),
            label: Some(7),
            image: &image,
        }];
        assert!(db.insert_batch(&items, 0).is_err());
        // More threads than items is fine.
        let ids = db.insert_batch(&items, 16).unwrap();
        assert_eq!(ids, vec![0]);
        assert_eq!(db.meta(0).unwrap().label, Some(7));
    }

    #[test]
    fn extract_matches_insert() {
        let mut db = ImageDatabase::new(small_pipeline());
        let image = img(120, 40, 200);
        let standalone = db.extract(&image).unwrap();
        db.insert("i", &image).unwrap();
        assert_eq!(standalone.as_slice(), db.descriptor(0).unwrap());
    }
}
