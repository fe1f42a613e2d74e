//! The flat vector dataset every index is built over.

use crate::error::{IndexError, Result};
use std::sync::Arc;

/// Row storage: either an owned flat matrix or an externally managed
/// one (e.g. a checksummed memory-mapped segment) shared behind a trait
/// object so indexes stay oblivious to where the floats live.
#[derive(Clone)]
enum Rows {
    Owned(Arc<Vec<f32>>),
    Shared(Arc<dyn AsRef<[f32]> + Send + Sync>),
}

impl Rows {
    #[inline]
    fn flat(&self) -> &[f32] {
        match self {
            Rows::Owned(v) => v,
            Rows::Shared(s) => (**s).as_ref(),
        }
    }
}

/// An immutable, shared collection of equal-dimensional feature vectors
/// stored as one contiguous row-major matrix (cache-friendly and cheap to
/// share between several indexes in a comparison experiment).
#[derive(Clone)]
pub struct Dataset {
    dim: usize,
    data: Rows,
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("dim", &self.dim)
            .field("len", &self.len())
            .field("owned", &matches!(self.data, Rows::Owned(_)))
            .finish()
    }
}

impl Dataset {
    /// Build from a list of vectors. All must share one dimensionality,
    /// which must be positive, and every component must be finite.
    pub fn from_vectors(vectors: &[Vec<f32>]) -> Result<Self> {
        if vectors.is_empty() {
            return Err(IndexError::BadDataset("no vectors".into()));
        }
        let dim = vectors[0].len();
        if dim == 0 {
            return Err(IndexError::BadDataset("zero-dimensional vectors".into()));
        }
        let mut data = Vec::with_capacity(vectors.len() * dim);
        for (i, v) in vectors.iter().enumerate() {
            if v.len() != dim {
                return Err(IndexError::BadDataset(format!(
                    "vector {i} has dim {}, expected {dim}",
                    v.len()
                )));
            }
            if v.iter().any(|x| !x.is_finite()) {
                return Err(IndexError::BadDataset(format!(
                    "vector {i} contains a non-finite component"
                )));
            }
            data.extend_from_slice(v);
        }
        Ok(Dataset {
            dim,
            data: Rows::Owned(Arc::new(data)),
        })
    }

    /// Build from an already-flattened row-major matrix.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<Self> {
        if dim == 0 {
            return Err(IndexError::BadDataset("zero-dimensional vectors".into()));
        }
        if data.is_empty() || !data.len().is_multiple_of(dim) {
            return Err(IndexError::BadDataset(format!(
                "flat data length {} is not a positive multiple of dim {dim}",
                data.len()
            )));
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(IndexError::BadDataset(
                "data contains a non-finite component".into(),
            ));
        }
        Ok(Dataset {
            dim,
            data: Rows::Owned(Arc::new(data)),
        })
    }

    /// Build over externally managed row storage — typically a
    /// memory-mapped, checksummed segment file — without copying it into
    /// the heap.
    ///
    /// Unlike [`Dataset::from_flat`], no per-component finiteness scan is
    /// performed: scanning would fault in every page of an out-of-core
    /// matrix and defeat the O(1) open this constructor exists for. The
    /// caller guarantees finiteness instead (the segment formats only
    /// persist descriptors that were validated on ingest, and integrity
    /// against bit rot is covered by section checksums).
    pub fn from_shared(dim: usize, rows: Arc<dyn AsRef<[f32]> + Send + Sync>) -> Result<Self> {
        if dim == 0 {
            return Err(IndexError::BadDataset("zero-dimensional vectors".into()));
        }
        let len = (*rows).as_ref().len();
        if len == 0 || !len.is_multiple_of(dim) {
            return Err(IndexError::BadDataset(format!(
                "shared data length {len} is not a positive multiple of dim {dim}"
            )));
        }
        Ok(Dataset {
            dim,
            data: Rows::Shared(rows),
        })
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.data.flat().len() / self.dim
    }

    /// Whether the dataset is empty (never true for a constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.data.flat().is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th vector.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn vector(&self, i: usize) -> &[f32] {
        &self.data.flat()[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole dataset as one row-major matrix (`len() * dim()` floats) —
    /// the shape batched distance kernels consume.
    #[inline]
    pub fn flat(&self) -> &[f32] {
        self.data.flat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let ds = Dataset::from_vectors(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.vector(0), &[1.0, 2.0]);
        assert_eq!(ds.vector(2), &[5.0, 6.0]);
        assert!(!ds.is_empty());
    }

    #[test]
    fn from_flat() {
        let ds = Dataset::from_flat(3, vec![0.0; 9]).unwrap();
        assert_eq!(ds.len(), 3);
        assert!(Dataset::from_flat(3, vec![0.0; 8]).is_err());
        assert!(Dataset::from_flat(0, vec![]).is_err());
        assert!(Dataset::from_flat(2, vec![]).is_err());
    }

    #[test]
    fn validation() {
        assert!(Dataset::from_vectors(&[]).is_err());
        assert!(Dataset::from_vectors(&[vec![]]).is_err());
        assert!(Dataset::from_vectors(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Dataset::from_vectors(&[vec![f32::NAN]]).is_err());
        assert!(Dataset::from_flat(1, vec![f32::INFINITY]).is_err());
    }

    #[test]
    fn cloning_shares_storage() {
        let ds = Dataset::from_vectors(&[vec![1.0, 2.0]]).unwrap();
        let ds2 = ds.clone();
        assert_eq!(ds.vector(0).as_ptr(), ds2.vector(0).as_ptr());
    }

    #[test]
    fn shared_storage_is_zero_copy() {
        let backing: Arc<Vec<f32>> = Arc::new(vec![1.0, 2.0, 3.0, 4.0]);
        let ds = Dataset::from_shared(2, backing.clone()).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.vector(1), &[3.0, 4.0]);
        assert_eq!(ds.flat().as_ptr(), backing.as_ptr());
        let ds2 = ds.clone();
        assert_eq!(ds2.flat().as_ptr(), backing.as_ptr());
        assert!(format!("{ds:?}").contains("owned: false"));
    }

    #[test]
    fn shared_storage_validation() {
        let bad: Arc<Vec<f32>> = Arc::new(vec![1.0, 2.0, 3.0]);
        assert!(Dataset::from_shared(2, bad).is_err());
        let empty: Arc<Vec<f32>> = Arc::new(Vec::new());
        assert!(Dataset::from_shared(2, empty).is_err());
        let any: Arc<Vec<f32>> = Arc::new(vec![1.0]);
        assert!(Dataset::from_shared(0, any).is_err());
    }

    #[test]
    #[should_panic]
    fn out_of_range_vector_panics() {
        let ds = Dataset::from_vectors(&[vec![1.0]]).unwrap();
        ds.vector(1);
    }
}
