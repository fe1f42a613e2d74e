//! # `cbir-obs` — the observability substrate
//!
//! A zero-dependency, process-global registry of lock-free counters,
//! log-linear latency histograms, per-extraction-stage hit/miss accounting, and
//! a sampled per-query trace ring — the runtime measurement surface for
//! the quantities the offline evaluation (pruning effectiveness, per-stage
//! extraction cost, query cost distribution) measures in batch.
//!
//! ## Design rules
//!
//! * **Bit-invisible**: instrumentation only observes; query results are
//!   identical with observation on or off (asserted by the engine's
//!   equivalence tests and the `verify.sh` traced-vs-untraced smoke).
//! * **Out of the hot loop**: index traversals accumulate into plain
//!   per-query `SearchStats` fields exactly as before; the engine layer
//!   flushes those totals here once per query (or once per batch call),
//!   so the registry's relaxed atomics are touched O(queries), not
//!   O(distance computations).
//! * **Near-free when off**: every recording entry point first checks a
//!   relaxed [`enabled`] flag; timers are never started when disabled.
//!
//! ```
//! cbir_obs::record_query(
//!     "vp-tree",
//!     cbir_obs::QueryOp::Knn,
//!     1,
//!     250,
//!     &cbir_obs::QueryCounters {
//!         distance_evaluations: 40,
//!         nodes_visited: 12,
//!         subtrees_pruned: 7,
//!         postfilter_candidates: 35,
//!         coarse_candidates: 0,
//!         rerank_evaluations: 0,
//!     },
//!     10,
//! );
//! let snap = cbir_obs::snapshot();
//! let json = cbir_obs::to_json(&snap);
//! assert!(json.get("indexes").is_some());
//! assert!(json.render().starts_with("{\"enabled\": true"));
//! ```

#![warn(missing_docs)]

mod export;
mod hist;
mod json;
mod trace;

pub use export::{render_trace, to_json, to_prometheus, trace_to_json, traces_to_json};
pub use hist::{HistSnapshot, LogHistogram};
pub use json::Json;
pub use trace::{QueryTrace, TraceSpan, TRACE_RING_CAP};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::TraceRing;

/// Index slots tracked by the registry, in export order. Unknown index
/// names fall into the final `"other"` slot.
pub const INDEX_NAMES: [&str; 7] = [
    "linear", "kd-tree", "vp-tree", "antipole", "r*-tree", "m-tree", "other",
];

/// Shared-intermediate extraction stages tracked by the registry.
///
/// A **miss** is the stage actually computing (timed); a **hit** is a
/// family requesting an intermediate that the planner already has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Canonical bilinear resize of the input frame.
    Resize = 0,
    /// Grayscale (luma) conversion of the canonical frame.
    Grayscale = 1,
    /// Fused Sobel gradient pass.
    Sobel = 2,
    /// Gradient magnitude plane and per-pixel orientation bins.
    MagOri = 3,
    /// Normalized-magnitude plane.
    MagNorm = 4,
    /// Otsu foreground mask.
    Mask = 5,
    /// Grayscale integral image.
    Integral = 6,
    /// Salience distance transform.
    Sdt = 7,
    /// Per-quantizer bin plane.
    Quantize = 8,
    /// Raw, central and normalized moments of the foreground mask.
    Moments = 9,
}

impl Stage {
    /// Every stage, in export order.
    pub const ALL: [Stage; 10] = [
        Stage::Resize,
        Stage::Grayscale,
        Stage::Sobel,
        Stage::MagOri,
        Stage::MagNorm,
        Stage::Mask,
        Stage::Integral,
        Stage::Sdt,
        Stage::Quantize,
        Stage::Moments,
    ];

    /// Stable export name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Resize => "resize",
            Stage::Grayscale => "grayscale",
            Stage::Sobel => "sobel",
            Stage::MagOri => "mag_ori",
            Stage::MagNorm => "mag_norm",
            Stage::Mask => "mask",
            Stage::Integral => "integral",
            Stage::Sdt => "sdt",
            Stage::Quantize => "quantize",
            Stage::Moments => "moments",
        }
    }
}

/// Which search operation a flushed query ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOp {
    /// k-nearest-neighbour search (single or batched).
    Knn,
    /// Range search (single or batched).
    Range,
}

impl QueryOp {
    /// Stable export name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            QueryOp::Knn => "knn",
            QueryOp::Range => "range",
        }
    }
}

/// Per-query pruning counters flushed from a `SearchStats` total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Full distance evaluations performed.
    pub distance_evaluations: u64,
    /// Index nodes (internal or leaf) visited.
    pub nodes_visited: u64,
    /// Subtrees/clusters/pages excluded by a pruning bound; under the
    /// `linear` slot, rows the scan's exact L1 filter excluded by their
    /// code bound (with `distance_evaluations`: the rows it scored).
    pub subtrees_pruned: u64,
    /// Dataset members surfaced as candidates for exact-distance
    /// evaluation (leaf scans, bucket hits).
    pub postfilter_candidates: u64,
    /// Candidates surfaced by the coarse stage of a two-stage approximate
    /// query. Zero on the exact path.
    pub coarse_candidates: u64,
    /// Exact distance evaluations spent reranking coarse candidates.
    /// Zero on the exact path.
    pub rerank_evaluations: u64,
}

struct IndexSlot {
    queries: AtomicU64,
    distance_evaluations: AtomicU64,
    nodes_visited: AtomicU64,
    subtrees_pruned: AtomicU64,
    postfilter_candidates: AtomicU64,
    coarse_candidates: AtomicU64,
    rerank_evaluations: AtomicU64,
    results: AtomicU64,
}

impl IndexSlot {
    const fn new() -> Self {
        IndexSlot {
            queries: AtomicU64::new(0),
            distance_evaluations: AtomicU64::new(0),
            nodes_visited: AtomicU64::new(0),
            subtrees_pruned: AtomicU64::new(0),
            postfilter_candidates: AtomicU64::new(0),
            coarse_candidates: AtomicU64::new(0),
            rerank_evaluations: AtomicU64::new(0),
            results: AtomicU64::new(0),
        }
    }
}

struct StageSlot {
    hits: AtomicU64,
    misses: AtomicU64,
    nanos: AtomicU64,
}

impl StageSlot {
    const fn new() -> Self {
        StageSlot {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }
}

struct StoreSlot {
    inserts: AtomicU64,
    deletes: AtomicU64,
    compactions: AtomicU64,
    segments: AtomicU64,
    memtable_rows: AtomicU64,
    tombstones: AtomicU64,
    epoch: AtomicU64,
}

impl StoreSlot {
    const fn new() -> Self {
        StoreSlot {
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            segments: AtomicU64::new(0),
            memtable_rows: AtomicU64::new(0),
            tombstones: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }
}

/// One router backend replica's counters. Unlike the fixed index/stage
/// slots, router slots are registered dynamically (shard count and replica
/// fan-out are deployment choices, not compile-time constants); the
/// registry holds them behind a mutex that is only taken at registration
/// and snapshot time — recording itself is relaxed atomics on an `Arc`'d
/// slot held by the router, so the query hot path never locks.
struct RouterSlot {
    shard: u32,
    role: String,
    requests: AtomicU64,
    failures: AtomicU64,
    failovers: AtomicU64,
    shed: AtomicU64,
    healthy: AtomicU64,
    breaker_open: AtomicU64,
    probe_rejoins: AtomicU64,
    latency: LogHistogram,
}

/// Router-tier counters that are not attributable to a single replica:
/// hedged requests race two replicas, a degraded reply is the property
/// of a whole scatter, and the retry budget is shared across shards.
/// One static slot per process — a process hosts at most one routing
/// tier, and benchmarks that spawn several routers in sequence reset
/// between scenarios.
struct RouterTierSlot {
    hedges_fired: AtomicU64,
    hedges_won: AtomicU64,
    degraded_replies: AtomicU64,
    breaker_opens: AtomicU64,
    retry_budget_exhausted: AtomicU64,
    probe_failures: AtomicU64,
    probe_latency: LogHistogram,
}

static ROUTER_TIER: RouterTierSlot = RouterTierSlot {
    hedges_fired: AtomicU64::new(0),
    hedges_won: AtomicU64::new(0),
    degraded_replies: AtomicU64::new(0),
    breaker_opens: AtomicU64::new(0),
    retry_budget_exhausted: AtomicU64::new(0),
    probe_failures: AtomicU64::new(0),
    probe_latency: LogHistogram::new(),
};

/// Record one hedge fired: the primary attempt outlived the hedge delay
/// and a second replica was raced against it. No-op when disabled.
#[inline]
pub fn router_hedge_fired() {
    if !enabled() {
        return;
    }
    ROUTER_TIER.hedges_fired.fetch_add(1, Ordering::Relaxed);
}

/// Record one hedge won: the *hedged* (second) attempt answered first.
/// No-op when disabled.
#[inline]
pub fn router_hedge_won() {
    if !enabled() {
        return;
    }
    ROUTER_TIER.hedges_won.fetch_add(1, Ordering::Relaxed);
}

/// Record one degraded (partial-coverage) reply sent to a front client.
/// No-op when disabled.
#[inline]
pub fn router_degraded_reply() {
    if !enabled() {
        return;
    }
    ROUTER_TIER.degraded_replies.fetch_add(1, Ordering::Relaxed);
}

/// Record one circuit-breaker open transition (any replica). No-op when
/// disabled.
#[inline]
pub fn router_breaker_opened() {
    if !enabled() {
        return;
    }
    ROUTER_TIER.breaker_opens.fetch_add(1, Ordering::Relaxed);
}

/// Record one failover attempt suppressed because the global retry
/// budget was exhausted. No-op when disabled.
#[inline]
pub fn router_retry_budget_exhausted() {
    if !enabled() {
        return;
    }
    ROUTER_TIER
        .retry_budget_exhausted
        .fetch_add(1, Ordering::Relaxed);
}

/// Record one successful health probe with its round-trip latency.
/// No-op when disabled.
#[inline]
pub fn router_probe_ok(latency_us: u64) {
    if !enabled() {
        return;
    }
    ROUTER_TIER.probe_latency.record(latency_us);
}

/// Record one failed health probe. No-op when disabled.
#[inline]
pub fn router_probe_failed() {
    if !enabled() {
        return;
    }
    ROUTER_TIER.probe_failures.fetch_add(1, Ordering::Relaxed);
}

struct Registry {
    enabled: AtomicBool,
    indexes: [IndexSlot; INDEX_NAMES.len()],
    stages: [StageSlot; Stage::ALL.len()],
    knn_latency: LogHistogram,
    range_latency: LogHistogram,
    store: StoreSlot,
    traces: TraceRing,
}

static ROUTER_SLOTS: Mutex<Vec<Arc<RouterSlot>>> = Mutex::new(Vec::new());

static REGISTRY: Registry = Registry {
    enabled: AtomicBool::new(true),
    indexes: [
        IndexSlot::new(),
        IndexSlot::new(),
        IndexSlot::new(),
        IndexSlot::new(),
        IndexSlot::new(),
        IndexSlot::new(),
        IndexSlot::new(),
    ],
    stages: [
        StageSlot::new(),
        StageSlot::new(),
        StageSlot::new(),
        StageSlot::new(),
        StageSlot::new(),
        StageSlot::new(),
        StageSlot::new(),
        StageSlot::new(),
        StageSlot::new(),
        StageSlot::new(),
    ],
    knn_latency: LogHistogram::new(),
    range_latency: LogHistogram::new(),
    store: StoreSlot::new(),
    traces: TraceRing::new(),
};

/// Whether recording is active: a relaxed load of the runtime switch
/// (default on).
#[inline]
pub fn enabled() -> bool {
    REGISTRY.enabled.load(Ordering::Relaxed)
}

/// Turn runtime recording on or off.
pub fn set_enabled(on: bool) {
    REGISTRY.enabled.store(on, Ordering::Relaxed);
}

/// Slot index for an index-kind name; unknown names map to `"other"`.
fn slot_of(index: &str) -> usize {
    INDEX_NAMES
        .iter()
        .position(|&n| n == index)
        .unwrap_or(INDEX_NAMES.len() - 1)
}

/// Flush one finished query (or one batched engine call covering
/// `queries` queries) into the registry: pruning counters under the index
/// slot, the call latency into the op's histogram. No-op when disabled.
pub fn record_query(
    index: &str,
    op: QueryOp,
    queries: u64,
    latency_us: u64,
    counters: &QueryCounters,
    results: u64,
) {
    if !enabled() {
        return;
    }
    let slot = &REGISTRY.indexes[slot_of(index)];
    slot.queries.fetch_add(queries, Ordering::Relaxed);
    slot.distance_evaluations
        .fetch_add(counters.distance_evaluations, Ordering::Relaxed);
    slot.nodes_visited
        .fetch_add(counters.nodes_visited, Ordering::Relaxed);
    slot.subtrees_pruned
        .fetch_add(counters.subtrees_pruned, Ordering::Relaxed);
    slot.postfilter_candidates
        .fetch_add(counters.postfilter_candidates, Ordering::Relaxed);
    slot.coarse_candidates
        .fetch_add(counters.coarse_candidates, Ordering::Relaxed);
    slot.rerank_evaluations
        .fetch_add(counters.rerank_evaluations, Ordering::Relaxed);
    slot.results.fetch_add(results, Ordering::Relaxed);
    match op {
        QueryOp::Knn => REGISTRY.knn_latency.record(latency_us),
        QueryOp::Range => REGISTRY.range_latency.record(latency_us),
    }
}

/// Record a planner stage hit: the intermediate was requested and already
/// available. No-op when disabled.
#[inline]
pub fn stage_hit(stage: Stage) {
    if !enabled() {
        return;
    }
    REGISTRY.stages[stage as usize]
        .hits
        .fetch_add(1, Ordering::Relaxed);
}

/// Record a planner stage miss: the intermediate was computed, taking
/// `nanos`. No-op when disabled.
#[inline]
pub fn stage_miss(stage: Stage, nanos: u64) {
    if !enabled() {
        return;
    }
    let s = &REGISTRY.stages[stage as usize];
    s.misses.fetch_add(1, Ordering::Relaxed);
    s.nanos.fetch_add(nanos, Ordering::Relaxed);
}

/// A stage-compute timer: started before the work, finished after.
/// Carries no clock when recording is disabled, so the disabled path
/// costs one relaxed load and no `Instant::now` call.
#[must_use]
pub struct StageTimer {
    stage: Stage,
    start: Option<Instant>,
}

impl StageTimer {
    /// Start timing a stage compute (no-op when disabled).
    #[inline]
    pub fn start(stage: Stage) -> Self {
        StageTimer {
            stage,
            start: enabled().then(Instant::now),
        }
    }

    /// Record the stage miss with the elapsed time.
    #[inline]
    pub fn finish(self) {
        if let Some(start) = self.start {
            stage_miss(self.stage, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Record `n` rows inserted into the live segment store. No-op when
/// disabled.
#[inline]
pub fn store_inserted(n: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.store.inserts.fetch_add(n, Ordering::Relaxed);
}

/// Record `n` rows tombstoned in the live segment store. No-op when
/// disabled.
#[inline]
pub fn store_deleted(n: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.store.deletes.fetch_add(n, Ordering::Relaxed);
}

/// Record one committed compaction. No-op when disabled.
#[inline]
pub fn store_compacted() {
    if !enabled() {
        return;
    }
    REGISTRY.store.compactions.fetch_add(1, Ordering::Relaxed);
}

/// Update the segment-store shape gauges (published with every store
/// snapshot). No-op when disabled.
#[inline]
pub fn set_store_state(segments: u64, memtable_rows: u64, tombstones: u64, epoch: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.store.segments.store(segments, Ordering::Relaxed);
    REGISTRY
        .store
        .memtable_rows
        .store(memtable_rows, Ordering::Relaxed);
    REGISTRY
        .store
        .tombstones
        .store(tombstones, Ordering::Relaxed);
    REGISTRY.store.epoch.store(epoch, Ordering::Relaxed);
}

/// Set trace sampling: `0` disables tracing, `1` traces every query,
/// `n > 1` traces every n-th query.
pub fn set_trace_sample_n(n: u64) {
    REGISTRY.traces.set_sample_n(n);
}

/// The current trace sampling rate (`0` = off).
pub fn trace_sample_n() -> u64 {
    REGISTRY.traces.sample_n()
}

/// Advance the query sequence and decide whether the caller should
/// capture a trace for this query; returns the sequence number when it
/// should. Always `None` when recording is disabled or sampling is off.
pub fn trace_should_sample() -> Option<u64> {
    if !enabled() {
        return None;
    }
    REGISTRY.traces.should_sample()
}

/// Store a captured trace in the ring (oldest dropped when full).
pub fn push_trace(trace: QueryTrace) {
    if !enabled() {
        return;
    }
    REGISTRY.traces.push(trace);
}

/// A recording handle for one router backend replica, obtained from
/// [`router_replica`]. Cloning is cheap (`Arc`); recording is relaxed
/// atomics and never locks.
#[derive(Clone)]
pub struct RouterReplicaHandle {
    slot: Arc<RouterSlot>,
}

impl RouterReplicaHandle {
    /// Record one request answered by this replica, with its end-to-end
    /// latency in microseconds. No-op when disabled.
    #[inline]
    pub fn request_ok(&self, latency_us: u64) {
        if !enabled() {
            return;
        }
        self.slot.requests.fetch_add(1, Ordering::Relaxed);
        self.slot.latency.record(latency_us);
    }

    /// Record one failed attempt against this replica (transport error or
    /// terminal rejection). No-op when disabled.
    #[inline]
    pub fn failure(&self) {
        if !enabled() {
            return;
        }
        self.slot.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failover *away* from this replica onto a sibling.
    /// No-op when disabled.
    #[inline]
    pub fn failover(&self) {
        if !enabled() {
            return;
        }
        self.slot.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one `Overloaded` shed observed from this replica. No-op
    /// when disabled.
    #[inline]
    pub fn shed(&self) {
        if !enabled() {
            return;
        }
        self.slot.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Update the health gauge (`true` = considered healthy). Recorded
    /// even when disabled: health is routing state, not a sample.
    #[inline]
    pub fn set_healthy(&self, healthy: bool) {
        self.slot.healthy.store(healthy as u64, Ordering::Relaxed);
    }

    /// Update the circuit-breaker gauge (`true` = breaker open, replica
    /// excluded from routing). Recorded even when disabled: breaker
    /// position is routing state, not a sample.
    #[inline]
    pub fn set_breaker_open(&self, open: bool) {
        self.slot.breaker_open.store(open as u64, Ordering::Relaxed);
    }

    /// Record one probe-driven rejoin: a background health probe found
    /// this previously-down replica answering and returned it to the
    /// rotation. No-op when disabled.
    #[inline]
    pub fn probe_rejoin(&self) {
        if !enabled() {
            return;
        }
        self.slot.probe_rejoins.fetch_add(1, Ordering::Relaxed);
    }
}

/// Register (or look up) the counter slot for router backend replica
/// `role` of shard `shard` and return a recording handle. Re-registering
/// the same `(shard, role)` pair returns the existing slot, so repeated
/// router spawns in one process (tests, benches) do not grow the
/// registry. New replicas start healthy.
pub fn router_replica(shard: u32, role: &str) -> RouterReplicaHandle {
    let mut slots = ROUTER_SLOTS.lock().unwrap();
    if let Some(s) = slots.iter().find(|s| s.shard == shard && s.role == role) {
        return RouterReplicaHandle {
            slot: Arc::clone(s),
        };
    }
    let slot = Arc::new(RouterSlot {
        shard,
        role: role.to_string(),
        requests: AtomicU64::new(0),
        failures: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        healthy: AtomicU64::new(1),
        breaker_open: AtomicU64::new(0),
        probe_rejoins: AtomicU64::new(0),
        latency: LogHistogram::new(),
    });
    slots.push(Arc::clone(&slot));
    RouterReplicaHandle { slot }
}

/// The most recently captured trace, if any.
pub fn latest_trace() -> Option<QueryTrace> {
    REGISTRY.traces.latest()
}

/// Every trace currently in the ring, oldest first.
pub fn traces() -> Vec<QueryTrace> {
    REGISTRY.traces.all()
}

/// Counters of one index slot at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexCounters {
    /// Index kind name (one of [`INDEX_NAMES`]).
    pub index: &'static str,
    /// Queries flushed under this index.
    pub queries: u64,
    /// Total full distance evaluations.
    pub distance_evaluations: u64,
    /// Total index nodes visited.
    pub nodes_visited: u64,
    /// Total subtrees excluded by a pruning bound.
    pub subtrees_pruned: u64,
    /// Total candidates surfaced for exact-distance evaluation.
    pub postfilter_candidates: u64,
    /// Total coarse-stage candidates from two-stage approximate queries.
    pub coarse_candidates: u64,
    /// Total exact rerank evaluations from two-stage approximate queries.
    pub rerank_evaluations: u64,
    /// Total result rows returned.
    pub results: u64,
}

/// Counters of one extraction stage at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageCounters {
    /// Stage name (see [`Stage::name`]).
    pub stage: &'static str,
    /// Requests answered from the planner cache.
    pub hits: u64,
    /// Actual computes.
    pub misses: u64,
    /// Total nanoseconds spent computing.
    pub nanos: u64,
}

/// Latency tail summary of one op's histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Calls recorded.
    pub count: u64,
    /// Sum of recorded latencies, microseconds.
    pub sum_us: u64,
    /// Estimated p50 (its bucket's upper bound, at most 1/16 over),
    /// microseconds.
    pub p50_us: u64,
    /// Estimated p95, microseconds.
    pub p95_us: u64,
    /// Estimated p99, microseconds.
    pub p99_us: u64,
}

impl LatencySummary {
    fn from_hist(h: &HistSnapshot) -> Self {
        LatencySummary {
            count: h.count,
            sum_us: h.sum,
            p50_us: h.quantile(50),
            p95_us: h.quantile(95),
            p99_us: h.quantile(99),
        }
    }
}

/// Event-loop serving counters of one server instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventLoopCounters {
    /// `epoll_wait` returns in the event loop.
    pub epoll_wakeups: u64,
    /// Gauge: connections the loop currently holds.
    pub open_conns: u64,
    /// High-water mark of requests concurrently in flight on one
    /// connection (pipeline depth).
    pub max_pipeline_depth: u64,
}

/// Segment-store counters and shape gauges at snapshot time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Rows inserted through the live store.
    pub inserts: u64,
    /// Rows tombstoned through the live store.
    pub deletes: u64,
    /// Compactions committed.
    pub compactions: u64,
    /// Gauge: live immutable segments.
    pub segments: u64,
    /// Gauge: rows currently in the memtable.
    pub memtable_rows: u64,
    /// Gauge: tombstoned rows awaiting compaction.
    pub tombstones: u64,
    /// Gauge: store epoch at the last published snapshot.
    pub epoch: u64,
}

/// Counters of one router backend replica at snapshot time, in
/// registration order (shard-major for a router spawned normally).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterReplicaCounters {
    /// Shard this replica serves.
    pub shard: u32,
    /// Replica role within the shard (`"primary"`, `"backup-1"`, …).
    pub role: String,
    /// Requests this replica answered successfully.
    pub requests: u64,
    /// Failed attempts against this replica.
    pub failures: u64,
    /// Failovers away from this replica onto a sibling.
    pub failovers: u64,
    /// `Overloaded` sheds observed from this replica.
    pub shed: u64,
    /// Gauge: whether the router currently considers the replica healthy.
    pub healthy: bool,
    /// Gauge: whether this replica's circuit breaker is currently open.
    pub breaker_open: bool,
    /// Probe-driven rejoins: times a background health probe returned
    /// this replica to the rotation.
    pub probe_rejoins: u64,
    /// Per-replica request latency summary.
    pub latency: LatencySummary,
}

/// Router-tier (cross-replica) counters at snapshot time. All-zero in
/// processes that never routed anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterTierCounters {
    /// Hedged requests fired (second replica raced after the hedge delay).
    pub hedges_fired: u64,
    /// Hedged requests won by the hedge (second attempt answered first).
    pub hedges_won: u64,
    /// Degraded (partial shard coverage) replies sent to front clients.
    pub degraded_replies: u64,
    /// Circuit-breaker open transitions across all replicas.
    pub breaker_opens: u64,
    /// Failover attempts suppressed by an exhausted global retry budget.
    pub retry_budget_exhausted: u64,
    /// Health probes that failed (timed out or errored).
    pub probe_failures: u64,
    /// Latency summary of successful health probes.
    pub probe_latency: LatencySummary,
}

/// A point-in-time copy of every registry counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Whether recording was enabled at snapshot time.
    pub enabled: bool,
    /// Trace sampling rate at snapshot time (`0` = off).
    pub trace_sample_n: u64,
    /// Scheduler queue-depth gauge. The registry holds no queue: zero
    /// from [`snapshot`], filled in by the server answering the request.
    pub queue_depth: u64,
    /// Per-index pruning counters, in [`INDEX_NAMES`] order.
    pub indexes: Vec<IndexCounters>,
    /// Per-stage planner counters, in [`Stage::ALL`] order.
    pub stages: Vec<StageCounters>,
    /// k-NN call latency summary.
    pub knn_latency: LatencySummary,
    /// Range call latency summary.
    pub range_latency: LatencySummary,
    /// Segment-store counters and gauges.
    pub store: StoreCounters,
    /// Event-loop serving counters; like `queue_depth`, zero from
    /// [`snapshot`] and filled in by the serving instance.
    pub event_loop: EventLoopCounters,
    /// Per-replica router counters (empty in processes that never
    /// registered any, i.e. everything but a router).
    pub router: Vec<RouterReplicaCounters>,
    /// Router-tier hedging/degradation counters (all-zero outside a
    /// router).
    pub router_tier: RouterTierCounters,
    /// Traces currently held in the ring.
    pub trace_count: u64,
}

/// Snapshot every counter in the registry.
pub fn snapshot() -> ObsSnapshot {
    let indexes = INDEX_NAMES
        .iter()
        .zip(&REGISTRY.indexes)
        .map(|(&name, s)| IndexCounters {
            index: name,
            queries: s.queries.load(Ordering::Relaxed),
            distance_evaluations: s.distance_evaluations.load(Ordering::Relaxed),
            nodes_visited: s.nodes_visited.load(Ordering::Relaxed),
            subtrees_pruned: s.subtrees_pruned.load(Ordering::Relaxed),
            postfilter_candidates: s.postfilter_candidates.load(Ordering::Relaxed),
            coarse_candidates: s.coarse_candidates.load(Ordering::Relaxed),
            rerank_evaluations: s.rerank_evaluations.load(Ordering::Relaxed),
            results: s.results.load(Ordering::Relaxed),
        })
        .collect();
    let stages = Stage::ALL
        .iter()
        .zip(&REGISTRY.stages)
        .map(|(&stage, s)| StageCounters {
            stage: stage.name(),
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            nanos: s.nanos.load(Ordering::Relaxed),
        })
        .collect();
    let router = ROUTER_SLOTS
        .lock()
        .unwrap()
        .iter()
        .map(|s| RouterReplicaCounters {
            shard: s.shard,
            role: s.role.clone(),
            requests: s.requests.load(Ordering::Relaxed),
            failures: s.failures.load(Ordering::Relaxed),
            failovers: s.failovers.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            healthy: s.healthy.load(Ordering::Relaxed) != 0,
            breaker_open: s.breaker_open.load(Ordering::Relaxed) != 0,
            probe_rejoins: s.probe_rejoins.load(Ordering::Relaxed),
            latency: LatencySummary::from_hist(&s.latency.snapshot()),
        })
        .collect();
    let router_tier = RouterTierCounters {
        hedges_fired: ROUTER_TIER.hedges_fired.load(Ordering::Relaxed),
        hedges_won: ROUTER_TIER.hedges_won.load(Ordering::Relaxed),
        degraded_replies: ROUTER_TIER.degraded_replies.load(Ordering::Relaxed),
        breaker_opens: ROUTER_TIER.breaker_opens.load(Ordering::Relaxed),
        retry_budget_exhausted: ROUTER_TIER.retry_budget_exhausted.load(Ordering::Relaxed),
        probe_failures: ROUTER_TIER.probe_failures.load(Ordering::Relaxed),
        probe_latency: LatencySummary::from_hist(&ROUTER_TIER.probe_latency.snapshot()),
    };
    ObsSnapshot {
        enabled: enabled(),
        trace_sample_n: trace_sample_n(),
        queue_depth: 0,
        indexes,
        stages,
        router,
        router_tier,
        knn_latency: LatencySummary::from_hist(&REGISTRY.knn_latency.snapshot()),
        range_latency: LatencySummary::from_hist(&REGISTRY.range_latency.snapshot()),
        store: StoreCounters {
            inserts: REGISTRY.store.inserts.load(Ordering::Relaxed),
            deletes: REGISTRY.store.deletes.load(Ordering::Relaxed),
            compactions: REGISTRY.store.compactions.load(Ordering::Relaxed),
            segments: REGISTRY.store.segments.load(Ordering::Relaxed),
            memtable_rows: REGISTRY.store.memtable_rows.load(Ordering::Relaxed),
            tombstones: REGISTRY.store.tombstones.load(Ordering::Relaxed),
            epoch: REGISTRY.store.epoch.load(Ordering::Relaxed),
        },
        event_loop: EventLoopCounters::default(),
        trace_count: REGISTRY.traces.all().len() as u64,
    }
}

/// Zero every counter, histogram, gauge, and the trace ring. The enabled
/// flag and sampling rate are left as set. Intended for process startup
/// and benchmark harnesses, not for concurrent use with recording.
pub fn reset() {
    for s in &REGISTRY.indexes {
        s.queries.store(0, Ordering::Relaxed);
        s.distance_evaluations.store(0, Ordering::Relaxed);
        s.nodes_visited.store(0, Ordering::Relaxed);
        s.subtrees_pruned.store(0, Ordering::Relaxed);
        s.postfilter_candidates.store(0, Ordering::Relaxed);
        s.coarse_candidates.store(0, Ordering::Relaxed);
        s.rerank_evaluations.store(0, Ordering::Relaxed);
        s.results.store(0, Ordering::Relaxed);
    }
    for s in &REGISTRY.stages {
        s.hits.store(0, Ordering::Relaxed);
        s.misses.store(0, Ordering::Relaxed);
        s.nanos.store(0, Ordering::Relaxed);
    }
    REGISTRY.knn_latency.reset();
    REGISTRY.range_latency.reset();
    REGISTRY.store.inserts.store(0, Ordering::Relaxed);
    REGISTRY.store.deletes.store(0, Ordering::Relaxed);
    REGISTRY.store.compactions.store(0, Ordering::Relaxed);
    REGISTRY.store.segments.store(0, Ordering::Relaxed);
    REGISTRY.store.memtable_rows.store(0, Ordering::Relaxed);
    REGISTRY.store.tombstones.store(0, Ordering::Relaxed);
    REGISTRY.store.epoch.store(0, Ordering::Relaxed);
    // Drop router replica registrations entirely: shard topology is
    // per-router-spawn state, and a fresh harness run should not inherit
    // slots from a previous topology.
    ROUTER_SLOTS.lock().unwrap().clear();
    ROUTER_TIER.hedges_fired.store(0, Ordering::Relaxed);
    ROUTER_TIER.hedges_won.store(0, Ordering::Relaxed);
    ROUTER_TIER.degraded_replies.store(0, Ordering::Relaxed);
    ROUTER_TIER.breaker_opens.store(0, Ordering::Relaxed);
    ROUTER_TIER
        .retry_budget_exhausted
        .store(0, Ordering::Relaxed);
    ROUTER_TIER.probe_failures.store(0, Ordering::Relaxed);
    ROUTER_TIER.probe_latency.reset();
    REGISTRY.traces.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and `cargo test` runs tests on
    // threads; serialize the tests that flip the enabled flag or assert
    // counter deltas.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn record_query_accumulates_under_the_right_slot() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let before = snapshot();
        let b = &before.indexes[slot_of("vp-tree")];
        let (q0, d0) = (b.queries, b.distance_evaluations);
        record_query(
            "vp-tree",
            QueryOp::Knn,
            2,
            100,
            &QueryCounters {
                distance_evaluations: 30,
                nodes_visited: 10,
                subtrees_pruned: 4,
                postfilter_candidates: 25,
                coarse_candidates: 0,
                rerank_evaluations: 0,
            },
            6,
        );
        let after = snapshot();
        let a = &after.indexes[slot_of("vp-tree")];
        assert_eq!(a.index, "vp-tree");
        assert_eq!(a.queries - q0, 2);
        assert_eq!(a.distance_evaluations - d0, 30);
        assert!(after.knn_latency.count > before.knn_latency.count);
    }

    #[test]
    fn unknown_index_names_fall_into_other() {
        assert_eq!(slot_of("linear"), 0);
        assert_eq!(slot_of("no-such-index"), INDEX_NAMES.len() - 1);
        assert_eq!(INDEX_NAMES[slot_of("no-such-index")], "other");
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let s0 = snapshot();
        set_enabled(false);
        record_query(
            "linear",
            QueryOp::Range,
            1,
            50,
            &QueryCounters {
                distance_evaluations: 1_000_000,
                ..QueryCounters::default()
            },
            1,
        );
        stage_hit(Stage::Resize);
        stage_miss(Stage::Resize, 1_000_000);
        assert_eq!(trace_should_sample(), None);
        set_enabled(true);
        let s1 = snapshot();
        // Nothing recorded while disabled (other tests may have recorded
        // concurrently, so only check the unmistakable million-unit spike
        // is absent).
        let spike = s1.indexes[slot_of("linear")].distance_evaluations
            - s0.indexes[slot_of("linear")].distance_evaluations;
        assert!(spike < 1_000_000);
    }

    #[test]
    fn store_counters_accumulate_and_gauges_overwrite() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let before = snapshot().store;
        store_inserted(5);
        store_deleted(2);
        store_compacted();
        set_store_state(3, 17, 2, 9);
        let after = snapshot().store;
        assert_eq!(after.inserts - before.inserts, 5);
        assert_eq!(after.deletes - before.deletes, 2);
        assert_eq!(after.compactions - before.compactions, 1);
        assert_eq!(after.segments, 3);
        assert_eq!(after.memtable_rows, 17);
        assert_eq!(after.tombstones, 2);
        assert_eq!(after.epoch, 9);
        set_store_state(0, 0, 0, 0);
    }

    #[test]
    fn router_replica_slots_register_once_and_accumulate() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let h = router_replica(7, "primary");
        let before = snapshot()
            .router
            .into_iter()
            .find(|r| r.shard == 7 && r.role == "primary")
            .expect("slot registered");
        assert!(before.healthy);
        h.request_ok(120);
        h.failure();
        h.failover();
        h.shed();
        h.set_healthy(false);
        // Same (shard, role) resolves to the same slot.
        let h2 = router_replica(7, "primary");
        h2.request_ok(80);
        let after = snapshot()
            .router
            .into_iter()
            .find(|r| r.shard == 7 && r.role == "primary")
            .unwrap();
        assert_eq!(after.requests - before.requests, 2);
        assert_eq!(after.failures - before.failures, 1);
        assert_eq!(after.failovers - before.failovers, 1);
        assert_eq!(after.shed - before.shed, 1);
        assert!(!after.healthy);
        assert!(after.latency.count >= before.latency.count + 2);
        h.set_healthy(true);
    }

    #[test]
    fn router_tier_counters_accumulate_and_reset() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let before = snapshot().router_tier;
        router_hedge_fired();
        router_hedge_fired();
        router_hedge_won();
        router_degraded_reply();
        router_breaker_opened();
        router_retry_budget_exhausted();
        router_probe_ok(250);
        router_probe_failed();
        let after = snapshot().router_tier;
        assert_eq!(after.hedges_fired - before.hedges_fired, 2);
        assert_eq!(after.hedges_won - before.hedges_won, 1);
        assert_eq!(after.degraded_replies - before.degraded_replies, 1);
        assert_eq!(after.breaker_opens - before.breaker_opens, 1);
        assert_eq!(
            after.retry_budget_exhausted - before.retry_budget_exhausted,
            1
        );
        assert_eq!(after.probe_failures - before.probe_failures, 1);
        assert_eq!(after.probe_latency.count - before.probe_latency.count, 1);
        reset();
        assert_eq!(snapshot().router_tier, RouterTierCounters::default());
    }

    #[test]
    fn breaker_gauge_and_probe_rejoins_record_per_replica() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let h = router_replica(9, "backup-1");
        let find = |snap: ObsSnapshot| {
            snap.router
                .into_iter()
                .find(|r| r.shard == 9 && r.role == "backup-1")
                .unwrap()
        };
        let before = find(snapshot());
        assert!(!before.breaker_open);
        h.set_breaker_open(true);
        h.probe_rejoin();
        let after = find(snapshot());
        assert!(after.breaker_open);
        assert_eq!(after.probe_rejoins - before.probe_rejoins, 1);
        // Breaker position is routing state: recorded even when disabled.
        set_enabled(false);
        h.set_breaker_open(false);
        assert!(!find(snapshot()).breaker_open);
        set_enabled(true);
    }

    #[test]
    fn stage_counters_accumulate() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let h0 = snapshot().stages[Stage::Mask as usize].hits;
        stage_hit(Stage::Mask);
        let t = StageTimer::start(Stage::Mask);
        t.finish();
        let s = snapshot();
        assert_eq!(s.stages[Stage::Mask as usize].stage, "mask");
        assert!(s.stages[Stage::Mask as usize].hits > h0);
        assert!(s.stages[Stage::Mask as usize].misses >= 1);
    }
}
