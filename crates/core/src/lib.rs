//! # `cbir-core` — the content-based image indexing engine
//!
//! The paper's system assembled from its substrates: an [`ImageDatabase`]
//! extracts one composite feature signature per inserted image (via a
//! `cbir-features` pipeline); a [`QueryEngine`] builds one of the
//! `cbir-index` structures over the signatures, and the
//! [`CorpusSnapshot`] it dereferences to answers ranked
//! query-by-example, k-NN, and range queries; the [`eval`] module scores
//! rankings against ground truth; and [`persist`] stores a signature
//! database in a compact binary format.
//!
//! There is one read path, [`CorpusSnapshot`]: a live [`CorpusStore`]
//! publishes one per mutation, and a [`QueryEngine`] is the static case,
//! a snapshot with a single heap source sharing the database's rows: the
//! engine adds only `build`, `database` and `snapshot`, and every query
//! method is the snapshot's.
//!
//! ```
//! use cbir_core::{ImageDatabase, QueryEngine, IndexKind};
//! use cbir_features::Pipeline;
//! use cbir_distance::Measure;
//! use cbir_image::{RgbImage, Rgb};
//! use cbir_index::SearchStats;
//!
//! let mut db = ImageDatabase::new(Pipeline::color_histogram_default());
//! db.insert("red", &RgbImage::filled(32, 32, Rgb::new(220, 30, 30))).unwrap();
//! db.insert("blue", &RgbImage::filled(32, 32, Rgb::new(30, 30, 220))).unwrap();
//! let engine = QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap();
//! let mut stats = SearchStats::new();
//! let hits = engine
//!     .query_by_example(&RgbImage::filled(32, 32, Rgb::new(200, 40, 40)), 1, &mut stats)
//!     .unwrap();
//! assert_eq!(hits[0].name, "red");
//! ```

#![warn(missing_docs)]

mod database;
mod engine;
mod error;
pub mod eval;
pub mod faults;
pub mod feedback;
pub mod mmap;
pub mod persist;
pub mod shard;
pub mod store;

pub use database::{BatchItem, ImageDatabase, ImageMeta};
pub use engine::{
    build_index, plan_candidate_budget, validate_recall_target, IndexKind, QueryEngine, Ranked,
};
pub use error::{CoreError, PersistError, Result};
pub use eval::{evaluate_engine, EvalReport};
pub use feedback::{
    feedback_round, refine_query, refine_query_by_ids, FeedbackRound, RocchioParams,
};
pub use shard::{merge_shards, split_database, ShardPlan, ShardScheme};
pub use store::{CompactionStats, CorpusSnapshot, CorpusStore, ServedCorpus, StoreOptions};
