//! Everything frozen: sizes, rates, the scheduler configuration. A run
//! is `--seconds` long only in the sense that every count below is a
//! per-run-second constant multiplied by `--seconds`; nothing in a run
//! is ended by a clock, and nothing is sized from the host's core count.
//! The constants were calibrated at the commit that added the benchmark
//! so that the measured part of a run lasts about `--seconds` there.

use cbir_server::SchedulerConfig;
use std::time::Duration;

/// Closed-loop connections (and in-process workers): the core count of
/// the host the constants were calibrated on.
pub const LANES: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const WINDOW: usize = 8;
/// Worker threads for batch extraction.
pub const EXTRACT_THREADS: usize = 2;
/// Descriptor dimensionality of the three vector workloads.
pub const DIM: usize = 64;
/// Closed-loop ops issued before the timed phase, in every set-up.
pub const WARMUP_OPS: usize = 500;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// One exact reply in this many is compared bit for bit with the oracle;
/// every reply is checked for shape.
pub const ORACLE_EVERY: u32 = 8;
/// `tier_approx` asks for this recall and fails under [`RECALL_FLOOR`].
pub const RECALL_TARGET: f32 = 0.9;
pub const RECALL_FLOOR: f64 = 0.85;

/// The one scheduler configuration every served workload runs.
pub fn scheduler() -> SchedulerConfig {
    SchedulerConfig {
        max_batch: 64,
        max_delay: Duration::from_micros(300),
        queue_cap: 1024,
        exec_threads: 2,
        ..SchedulerConfig::default()
    }
}

/// The timed phase is cut into this many equal-count slices and the
/// best slice is reported: see `served::best_slice`.
pub const SLICES: usize = 20;
/// Share of `--seconds` each open-loop pass of the traced leg lasts.
pub const PACED_SHARE: f64 = 0.15;

/// Per-workload sizes. `*_per_s` fields are per second of `--seconds`.
pub struct Sizes {
    /// Rows in the corpus at full scale.
    pub rows: usize,
    /// Closed-loop ops per run-second.
    pub closed_per_s: usize,
    /// Open-loop arrival rate `R50`, ops/s: half of the closed-loop
    /// throughput at calibration, rounded to 50.
    pub r50_per_s: usize,
    /// Open-loop arrival rate `R75`.
    pub r75_per_s: usize,
}

pub const IMAGE_PIPELINE: Sizes = Sizes {
    rows: 0, // ingest is sized per run-second: see INGEST_PER_S
    closed_per_s: 550,
    r50_per_s: 500,
    r75_per_s: 750,
};
/// `image_pipeline`: images ingested per run-second.
pub const INGEST_PER_S: usize = 700;
/// `image_pipeline`: side of the generated square images.
pub const IMAGE_SIDE: u32 = 128;
/// `image_pipeline`: base images generated per chunk; every base image
/// is ingested in [`VARIANTS`] orientations.
pub const CHUNK_BASE: usize = 125;
pub const VARIANTS: usize = 8;

pub const SERVE_SCAN: Sizes = Sizes {
    rows: 200_000,
    closed_per_s: 1050,
    r50_per_s: 600,
    r75_per_s: 900,
};

pub const TIER_APPROX: Sizes = Sizes {
    rows: 200_000,
    closed_per_s: 1250,
    r50_per_s: 650,
    r75_per_s: 950,
};
pub const SHARDS: usize = 2;
pub const REPLICAS: usize = 2;

pub const LIVE_RW: Sizes = Sizes {
    rows: 100_000,
    closed_per_s: 750,
    r50_per_s: 400,
    r75_per_s: 600,
};
/// `live_rw`: rows per segment, so the seeded store has two.
pub const SEG_ROWS: usize = 50_000;
/// `live_rw`: op mix in percent; the rest are exact k-NN.
pub const INSERT_PCT: usize = 10;
pub const DELETE_PCT: usize = 1;
/// `live_rw`: compactions per closed-loop phase, one per slice.
pub const COMPACTIONS: usize = SLICES;
/// `live_rw`: queries in the final parity probe.
pub const PROBE_QUERIES: usize = 200;

/// Divisor applied to corpus rows by `--quick`.
pub const QUICK_DIVISOR: usize = 20;
