//! # `cbir` — content-based image indexing
//!
//! A complete, from-scratch implementation of a content-based image
//! indexing system: feature signatures (color, texture, shape/edge),
//! similarity measures, and exact metric/spatial index structures for
//! query-by-example retrieval over large image databases.
//!
//! This facade crate re-exports the workspace layers:
//!
//! - [`image`] — raster substrate: typed buffers, color spaces, PNM/BMP
//!   codecs, convolution/Gaussian/Sobel/threshold/morphology operators;
//! - [`features`] — signatures: color histograms and correlograms, GLCM and
//!   Tamura texture, Haar wavelet signatures, edge-orientation histograms,
//!   distance transforms, moment invariants, and the composable
//!   [`features::Pipeline`];
//! - [`distance`] — similarity measures: Minkowski family, histogram
//!   intersection/chi-square/match distance, quadratic-form, Hausdorff;
//! - [`index`] — search structures: sequential scan, k-d tree, VP-tree,
//!   Antipole tree, R\*-tree, all exact, all instrumented with distance-
//!   computation counters;
//! - [`core`] — the engine: [`ImageDatabase`], [`QueryEngine`], retrieval
//!   evaluation, binary persistence;
//! - [`workload`] — deterministic synthetic corpora and vector workloads
//!   used by the test and benchmark suites;
//! - [`server`] — the network serving layer: a TCP query server with
//!   dynamic micro-batching and admission control, plus the matching
//!   blocking [`server::Client`] (`cbir serve` / `cbir rpc-query`);
//! - [`router`] — the sharded, replicated scatter-gather tier: a
//!   `CBIRRPC1` front-end that splits a corpus across replica groups of
//!   backend servers and merges per-shard results bit-identically
//!   (`cbir shard-plan` / `cbir route`);
//! - [`obs`] — observability: per-instance pruning/stage counters,
//!   latency histograms, sampled per-query traces, and JSON/Prometheus
//!   export (`cbir stats` / `cbir trace`).
//!
//! ## Quickstart
//!
//! ```
//! use cbir::{ImageDatabase, QueryEngine, IndexKind, Measure, Pipeline, SearchStats};
//! use cbir::image::{RgbImage, Rgb};
//!
//! // 1. Extract signatures into a database.
//! let mut db = ImageDatabase::new(Pipeline::color_histogram_default());
//! db.insert("sunset", &RgbImage::filled(64, 64, Rgb::new(230, 120, 40))).unwrap();
//! db.insert("ocean", &RgbImage::filled(64, 64, Rgb::new(20, 80, 200))).unwrap();
//!
//! // 2. Build an index and query by example.
//! let engine = QueryEngine::build(db, IndexKind::Antipole { diameter: None }, Measure::L1).unwrap();
//! let mut stats = SearchStats::new();
//! let query = RgbImage::filled(64, 64, Rgb::new(220, 110, 50));
//! let hits = engine.query_by_example(&query, 1, &mut stats).unwrap();
//! assert_eq!(hits[0].name, "sunset");
//! ```

#![warn(missing_docs)]

pub use cbir_core as core;
pub use cbir_distance as distance;
pub use cbir_features as features;
pub use cbir_image as image;
pub use cbir_index as index;
pub use cbir_obs as obs;
pub use cbir_router as router;
pub use cbir_server as server;
pub use cbir_workload as workload;

pub use cbir_core::{
    build_index, evaluate_engine, merge_shards, split_database, BatchItem, CompactionStats,
    CoreError, CorpusSnapshot, CorpusStore, EvalReport, ImageDatabase, ImageMeta, IndexKind,
    QueryEngine, Ranked, RocchioParams, ServedCorpus, ShardPlan, ShardScheme, StoreOptions,
};
pub use cbir_distance::{DistanceKernel, Measure};
pub use cbir_features::{FeatureSpec, Pipeline, Quantizer};
pub use cbir_index::{BatchStats, Neighbor, SearchIndex, SearchStats};
