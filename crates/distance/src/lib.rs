//! # `cbir-distance` — similarity measures for feature signatures
//!
//! Every (dis)similarity measure the indexing system supports:
//!
//! - Minkowski family: L1, L2, L∞, arbitrary order `p`;
//! - histogram measures: intersection, chi-square, match distance (1-D
//!   EMD), Bhattacharyya, Jeffrey divergence;
//! - the QBIC cross-bin quadratic-form distance;
//! - Hausdorff distances over point sets;
//! - weighted combinations over segments of composite vectors;
//! - one-byte cell codes whose difference sum is an exact lower bound on
//!   the L1 kernel's result ([`CellQuantizer`], [`CellTable`], summed
//!   eight rows per `vpsadbw`) — what lets a sequential scan skip rows
//!   without changing a reply;
//! - one-byte rows with a step per dimension whose weighted sum brackets
//!   the L1 or L2 kernel's result ([`ByteRows`]) — what lets a tree
//!   index settle most rows it visits without reading them in `f32`.
//!
//! The [`Metric`] trait is the interface the index structures consume; the
//! [`Measure`] enum is the runtime-selectable catalogue, and
//! [`Measure::is_true_metric`] reports which measures are safe for
//! triangle-inequality-based pruning.
//!
//! ```
//! use cbir_distance::{l2, Measure};
//!
//! assert_eq!(l2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
//! assert!(Measure::L2.is_true_metric());
//! ```

#![warn(missing_docs)]

mod bytes;
mod cells;
mod combine;
mod hausdorff;
mod histogram;
mod kernel;
mod metric;
mod minkowski;
mod quadratic;
mod simd;

pub use bytes::{ByteQuery, ByteRows};
pub use cells::{CellQuantizer, CellTable, TILE_ROWS};
pub use combine::{CombineError, CombinedMeasure, Component};
pub use hausdorff::{
    directed_hausdorff, hausdorff, modified_directed_hausdorff, modified_hausdorff,
};
pub use histogram::{
    bhattacharyya, chi_square, intersection_distance, intersection_similarity, jeffrey_divergence,
    match_distance,
};
pub use kernel::{
    BhattacharyyaKernel, ChiSquareKernel, CosineKernel, DistanceKernel, IntersectionKernel,
    JeffreyKernel, L1Kernel, L2Kernel, LInfKernel, MatchKernel, MinkowskiKernel, QuadraticKernel,
};
pub use metric::{Measure, Metric};
pub use minkowski::{cosine, kernel_roundings, l1, l2, l2_squared, linf, minkowski};
pub use quadratic::{QuadraticForm, QuadraticFormError};
