//! # `cbir-index` — similarity-search index structures
//!
//! The indexing layer: given a [`Dataset`] of feature signatures and a
//! distance [`Measure`](cbir_distance::Measure), answer *range* queries
//! (all signatures within `t` of the query) and *k-nearest-neighbour*
//! queries — exactly, never approximately — while computing far fewer
//! distances than a sequential scan.
//!
//! Implementations, all behind the common [`SearchIndex`] trait:
//!
//! | index | pruning principle | measures |
//! |-------|------------------|----------|
//! | [`LinearScan`] | none (baseline) | any |
//! | [`KdTree`] | splitting-plane lower bound | Minkowski family |
//! | [`VpTree`] | triangle inequality on vantage balls | true metrics |
//! | [`AntipoleTree`] | triangle inequality on antipole clusters | true metrics |
//! | [`RStarTree`] | MINDIST to page rectangles | L2 |
//!
//! Exactness is the default contract; approximation is strictly opt-in.
//! The [`ApproxSearch`] trait is the coarse half of a two-stage
//! coarse-to-fine mode ([`CoarseHaarIndex`] and [`BestBinFirst`] behind
//! one interface) whose candidates are reranked *exactly* via [`rerank_exact`]; with an unbounded candidate budget it
//! degenerates to the exact answer.
//!
//! Cost accounting ([`SearchStats`]) counts distance computations — the
//! hardware-independent cost model used by the evaluation suite.
//!
//! ```
//! use cbir_index::{Dataset, KdTree, SearchIndex, SearchStats};
//! use cbir_distance::Measure;
//!
//! let ds = Dataset::from_vectors(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![9.0, 9.0]]).unwrap();
//! let kd = KdTree::build(ds.clone(), Measure::L2).unwrap();
//! let mut stats = SearchStats::new();
//! let hits = kd.knn_search(&[0.0, 0.0], 2, &mut stats);
//! assert_eq!(hits[0].id, 0);
//! assert_eq!(hits[1].id, 1);
//! assert_eq!(hits[1].distance, 5.0);
//! ```

#![warn(missing_docs)]

mod antipole;
mod approx;
mod dataset;
mod error;
mod kdtree;
mod knn_heap;
mod linear;
mod mtree;
mod rect;
mod rng;
mod rstar;
mod scratch;
mod sink;
mod stats;
mod traits;
mod vptree;

pub use antipole::AntipoleTree;
pub use approx::{
    approx_knn, approx_knn_batch, rerank_exact, ApproxScratch, ApproxSearch, BestBinFirst,
    CoarseHaarIndex,
};
pub use dataset::Dataset;
pub use error::{IndexError, Result};
pub use kdtree::KdTree;
pub use knn_heap::KnnHeap;
pub use linear::LinearScan;
pub use mtree::MTree;
pub use rect::Rect;
pub use rng::SplitMix64;
pub use rstar::RStarTree;
pub use scratch::QueryScratch;
pub use stats::{sort_neighbors, BatchStats, Neighbor, SearchStats};
pub use traits::{
    knn_batch_parallel, knn_search_simple, range_batch_parallel, range_search_simple, run_parallel,
    RowSet, SearchIndex,
};
pub use vptree::VpTree;
