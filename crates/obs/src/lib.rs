//! # `cbir-obs` — the observability substrate
//!
//! A zero-dependency set of registries of lock-free counters, log-linear
//! latency histograms, per-extraction-stage hit/miss accounting, and a
//! sampled per-query trace ring — the runtime measurement surface for
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
//! ## Registries
//!
//! Each serving instance (a node or a router) owns a [`Registry`] that
//! its threads [`Registry::enter`]: what they record is the instance's
//! alone, and its `ObsStats` answers from it. Other threads record into
//! the process's default registry. [`snapshot`] and [`reset`] cover the
//! default and every registry made since the last reset.
//!
//! ## Counter blocks and tables
//!
//! Each counter family — per index, per extraction stage, the segment
//! store, each router replica, the router tier, an event loop, the
//! snapshot's own scalars, and the server's `Stats` frame in
//! `cbir-server` — is declared once, as the rows of a
//! [`counter_table!`]: snapshot field (= JSON key), Prometheus name and
//! help text, and [`Kind`]. Its live counters are a [`Block`] of relaxed
//! atomics indexed by the family's enum, and snapshot, reset, JSON,
//! Prometheus and merging walk the table: every merge (a process's
//! registries, a router's `Stats` frames and JSON documents) combines a
//! counter by [`Kind::merge`] and a latency by its buckets. An event
//! loop's counters belong to the serving instance, which fills them
//! into the snapshot it answers with.
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

mod counters;
mod export;
mod hist;
mod json;
mod trace;

pub use counters::{Block, CounterValue, Counters, Field, Kind};
pub use export::{merge_json, render_trace, to_json, to_prometheus, trace_to_json, traces_to_json};
pub use hist::LogHistogram;
pub use json::Json;
pub use trace::{QueryTrace, TraceSpan, TRACE_RING_CAP};

use std::cell::RefCell;
use std::collections::BTreeMap;
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

crate::counter_table! {
    /// Counters of one index slot at snapshot time.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct IndexCounters / IndexCounter {
        /// Index kind name (one of [`INDEX_NAMES`]).
        pub index: &'static str,
    }
    Queries => queries: u64 = Counter "cbir_index_queries_total"
        "Queries flushed per index kind.";
    DistanceEvaluations => distance_evaluations: u64 = Counter "cbir_index_distance_evaluations_total"
        "Full distance evaluations per index kind.";
    NodesVisited => nodes_visited: u64 = Counter "cbir_index_nodes_visited_total"
        "Index nodes visited per index kind.";
    SubtreesPruned => subtrees_pruned: u64 = Counter "cbir_index_subtrees_pruned_total"
        "Subtrees excluded by a pruning bound per index kind.";
    PostfilterCandidates => postfilter_candidates: u64 = Counter "cbir_index_postfilter_candidates_total"
        "Candidates surfaced for exact-distance evaluation per index kind.";
    CoarseCandidates => coarse_candidates: u64 = Counter "cbir_index_coarse_candidates_total"
        "Coarse-stage candidates from two-stage approximate queries per index kind.";
    RerankEvaluations => rerank_evaluations: u64 = Counter "cbir_index_rerank_evaluations_total"
        "Exact rerank evaluations from two-stage approximate queries per index kind.";
    Results => results: u64 = Counter "cbir_index_results_total"
        "Result rows returned per index kind.";
}

crate::counter_table! {
    /// Counters of one extraction stage at snapshot time.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StageCounters / StageCounter {
        /// Stage name (see [`Stage::name`]).
        pub stage: &'static str,
    }
    Hits => hits: u64 = Counter "cbir_stage_hits_total"
        "Extraction-planner requests answered from cached intermediates.";
    Misses => misses: u64 = Counter "cbir_stage_misses_total"
        "Extraction-planner stage computes.";
    Nanos => nanos: u64 = Counter "cbir_stage_nanoseconds_total"
        "Nanoseconds spent computing each extraction stage.";
}

crate::counter_table! {
    /// Segment-store counters and shape gauges at snapshot time.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StoreCounters / StoreCounter {}
    Inserts => inserts: u64 = Counter "cbir_store_inserts_total"
        "Rows inserted through the live segment store.";
    Deletes => deletes: u64 = Counter "cbir_store_deletes_total"
        "Rows tombstoned through the live segment store.";
    Compactions => compactions: u64 = Counter "cbir_store_compactions_total"
        "Compactions committed by the live segment store.";
    Segments => segments: u64 = Gauge "cbir_store_segments"
        "Live immutable segments.";
    MemtableRows => memtable_rows: u64 = Gauge "cbir_store_memtable_rows"
        "Rows currently in the store memtable.";
    Tombstones => tombstones: u64 = Gauge "cbir_store_tombstones"
        "Tombstoned rows awaiting compaction.";
    Epoch => epoch: u64 = Gauge "cbir_store_epoch"
        "Store epoch at the last published snapshot.";
}

crate::counter_table! {
    /// Event-loop counters of one serving instance, node or router.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct EventLoopCounters / LoopCounter {}
    EpollWakeups => epoll_wakeups: u64 = Counter "cbir_epoll_wakeups_total"
        "epoll_wait returns in the event loop.";
    OpenConns => open_conns: u64 = Gauge "cbir_event_loop_conns"
        "Connections currently held by the event loop.";
    MaxPipelineDepth => max_pipeline_depth: u64 = Peak "cbir_pipeline_depth_max"
        "High-water mark of requests in flight on one connection.";
}

crate::counter_table! {
    /// Counters of one router backend replica at snapshot time, in
    /// registration order (shard-major for a router spawned normally).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct RouterReplicaCounters / ReplicaCounter {
        /// Shard this replica serves.
        pub shard: u32,
        /// Replica role within the shard (`"primary"`, `"backup-1"`, …).
        pub role: String,
        /// Per-replica request latency summary.
        pub latency: LatencySummary,
    }
    Requests => requests: u64 = Counter "cbir_router_requests_total"
        "Requests answered per router backend replica.";
    Failures => failures: u64 = Counter "cbir_router_failures_total"
        "Failed attempts per router backend replica.";
    Failovers => failovers: u64 = Counter "cbir_router_failovers_total"
        "Failovers away from each router backend replica onto a sibling.";
    Shed => shed: u64 = Counter "cbir_router_shed_total"
        "Overloaded sheds observed per router backend replica.";
    Healthy => healthy: bool = Flag "cbir_router_replica_healthy"
        "Whether the router currently considers the replica healthy.";
    BreakerOpen => breaker_open: bool = Flag "cbir_router_replica_breaker_open"
        "Whether the replica's circuit breaker is currently open.";
    ProbeRejoins => probe_rejoins: u64 = Counter "cbir_router_replica_probe_rejoins_total"
        "Probe-driven rejoins per router backend replica.";
}

crate::counter_table! {
    /// Router-tier counters that no single replica owns: a hedge races
    /// two replicas, a degraded reply belongs to a whole scatter, and
    /// the retry budget is shared across shards. All-zero in processes
    /// that never routed anything.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct RouterTierCounters / TierCounter {
        /// Latency summary of successful health probes.
        pub probe_latency: LatencySummary,
    }
    HedgesFired => hedges_fired: u64 = Counter "cbir_router_hedges_fired_total"
        "Hedged requests fired (second replica raced after the hedge delay).";
    HedgesWon => hedges_won: u64 = Counter "cbir_router_hedges_won_total"
        "Hedged requests won by the hedge (second attempt answered first).";
    DegradedReplies => degraded_replies: u64 = Counter "cbir_router_degraded_replies_total"
        "Degraded (partial shard coverage) replies sent to front clients.";
    BreakerOpens => breaker_opens: u64 = Counter "cbir_router_breaker_opens_total"
        "Circuit-breaker open transitions across all replicas.";
    RetryBudgetExhausted => retry_budget_exhausted: u64 = Counter "cbir_router_retry_budget_exhausted_total"
        "Failover attempts suppressed by an exhausted global retry budget.";
    ProbeFailures => probe_failures: u64 = Counter "cbir_router_probe_failures_total"
        "Health probes that timed out or errored.";
}

/// One router backend replica's live counters. Unlike the fixed index
/// and stage slots, router slots are registered dynamically (shard count
/// and replica fan-out are deployment choices, not compile-time
/// constants); a registry holds them behind a mutex that is only taken
/// at registration and snapshot time — recording itself is relaxed
/// atomics on an `Arc`'d slot held by the router, so the query hot path
/// never locks.
struct RouterSlot {
    shard: u32,
    role: String,
    counters: Block<{ ReplicaCounter::COUNT }>,
    latency: LogHistogram,
}

/// The live counters of one registry: every family's blocks, the
/// latency histograms and the trace ring.
struct Blocks {
    indexes: [Block<{ IndexCounter::COUNT }>; INDEX_NAMES.len()],
    stages: [Block<{ StageCounter::COUNT }>; Stage::ALL.len()],
    knn_latency: LogHistogram,
    range_latency: LogHistogram,
    store: Block<{ StoreCounter::COUNT }>,
    router: Mutex<Vec<Arc<RouterSlot>>>,
    router_tier: Block<{ TierCounter::COUNT }>,
    probe_latency: LogHistogram,
    traces: TraceRing,
}

/// A registry of counters, histograms and traces: one per serving
/// instance (see the crate docs), plus the process's default one.
/// Cloning is cheap (`Arc`) and yields the same registry.
#[derive(Clone)]
pub struct Registry(Arc<Blocks>);

static ENABLED: AtomicBool = AtomicBool::new(true);
static SAMPLE_N: AtomicU64 = AtomicU64::new(0);
/// Where code outside every instance records.
static DEFAULT: Blocks = Blocks::new();
/// Every registry made since the last [`reset`].
static MADE: Mutex<Vec<Registry>> = Mutex::new(Vec::new());

thread_local! {
    /// The registry this thread entered; `None` records into [`DEFAULT`].
    static CURRENT: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// Run `f` on the calling thread's registry.
#[inline]
fn current<R>(f: impl FnOnce(&Blocks) -> R) -> R {
    CURRENT.with_borrow(|r| f(r.as_ref().map_or(&DEFAULT, |r| &r.0)))
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A new, zeroed registry; [`snapshot`] counts it from now on.
    pub fn new() -> Self {
        let registry = Registry(Arc::new(Blocks::new()));
        MADE.lock()
            .expect("registry list lock")
            .push(registry.clone());
        registry
    }

    /// Run `f` with this registry as the one the calling thread records
    /// into; the thread's previous registry is restored afterwards, on
    /// unwinding too.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Registry>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.set(self.0.take());
            }
        }
        let _restore = Restore(CURRENT.replace(Some(self.clone())));
        f()
    }

    /// This registry's counters alone. `queue_depth` and `event_loop` are
    /// zero: the instance that owns the registry fills them in.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.0.snapshot()
    }
}

/// Whether recording is active: a relaxed load of the runtime switch
/// (default on).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn runtime recording on or off, in every registry.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Slot index for an index-kind name; unknown names map to `"other"`.
fn slot_of(index: &str) -> usize {
    INDEX_NAMES
        .iter()
        .position(|&n| n == index)
        .unwrap_or(INDEX_NAMES.len() - 1)
}

/// Flush one finished query (or one batched engine call covering
/// `queries` queries) into the calling thread's registry: pruning
/// counters under the index slot, the call latency into the op's
/// histogram. No-op when disabled.
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
    use IndexCounter as I;
    current(|r| {
        let slot = &r.indexes[slot_of(index)];
        slot.add(I::Queries, queries);
        slot.add(I::DistanceEvaluations, counters.distance_evaluations);
        slot.add(I::NodesVisited, counters.nodes_visited);
        slot.add(I::SubtreesPruned, counters.subtrees_pruned);
        slot.add(I::PostfilterCandidates, counters.postfilter_candidates);
        slot.add(I::CoarseCandidates, counters.coarse_candidates);
        slot.add(I::RerankEvaluations, counters.rerank_evaluations);
        slot.add(I::Results, results);
        match op {
            QueryOp::Knn => r.knn_latency.record(latency_us),
            QueryOp::Range => r.range_latency.record(latency_us),
        }
    })
}

/// Record a planner stage hit: the intermediate was requested and already
/// available. No-op when disabled.
#[inline]
pub fn stage_hit(stage: Stage) {
    if enabled() {
        current(|r| r.stages[stage as usize].add(StageCounter::Hits, 1));
    }
}

/// Record a planner stage miss: the intermediate was computed, taking
/// `nanos`. No-op when disabled.
#[inline]
pub fn stage_miss(stage: Stage, nanos: u64) {
    if enabled() {
        current(|r| {
            let s = &r.stages[stage as usize];
            s.add(StageCounter::Misses, 1);
            s.add(StageCounter::Nanos, nanos);
        });
    }
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

/// Add `n` to a segment-store counter (`Inserts`, `Deletes`,
/// `Compactions`). No-op when disabled.
#[inline]
pub fn store_count(counter: StoreCounter, n: u64) {
    if enabled() {
        current(|r| r.store.add(counter, n));
    }
}

/// Update the segment-store shape gauges (published with every store
/// snapshot). No-op when disabled.
#[inline]
pub fn set_store_state(segments: u64, memtable_rows: u64, tombstones: u64, epoch: u64) {
    if !enabled() {
        return;
    }
    use StoreCounter as S;
    current(|r| {
        for (gauge, v) in [
            (S::Segments, segments),
            (S::MemtableRows, memtable_rows),
            (S::Tombstones, tombstones),
            (S::Epoch, epoch),
        ] {
            r.store.set(gauge, v);
        }
    })
}

/// Count one router-tier event: a hedge fired or won, a degraded reply,
/// a breaker opening, a failover the retry budget suppressed, a failed
/// health probe. No-op when disabled.
#[inline]
pub fn router_tier_count(event: TierCounter) {
    if enabled() {
        current(|r| r.router_tier.add(event, 1));
    }
}

/// Record one successful health probe with its round-trip latency.
/// No-op when disabled.
#[inline]
pub fn router_probe_ok(latency_us: u64) {
    if enabled() {
        current(|r| r.probe_latency.record(latency_us));
    }
}

/// Set the process's trace sampling: `0` disables tracing, `1` traces
/// every query, `n > 1` traces every n-th query of each registry.
pub fn set_trace_sample_n(n: u64) {
    SAMPLE_N.store(n, Ordering::Relaxed);
}

/// The current trace sampling rate (`0` = off).
pub fn trace_sample_n() -> u64 {
    SAMPLE_N.load(Ordering::Relaxed)
}

/// Advance the calling thread's registry's query sequence and decide
/// whether the caller should capture a trace for this query; returns the
/// sequence number when it should. Always `None` when recording is
/// disabled or sampling is off.
pub fn trace_should_sample() -> Option<u64> {
    if !enabled() {
        return None;
    }
    current(|r| r.traces.should_sample(trace_sample_n()))
}

/// Store a captured trace in the calling thread's registry's ring
/// (oldest dropped when full).
pub fn push_trace(trace: QueryTrace) {
    if enabled() {
        current(|r| r.traces.push(trace));
    }
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
        if enabled() {
            self.slot.counters.add(ReplicaCounter::Requests, 1);
            self.slot.latency.record(latency_us);
        }
    }

    /// Count one event against this replica: a failed attempt
    /// (`Failures`), a failover away from it onto a sibling
    /// (`Failovers`), an `Overloaded` shed (`Shed`), a probe-driven
    /// rejoin (`ProbeRejoins`). No-op when disabled.
    #[inline]
    pub fn count(&self, event: ReplicaCounter) {
        if enabled() {
            self.slot.counters.add(event, 1);
        }
    }

    /// Set a flag gauge (`Healthy`, `BreakerOpen`). Recorded even when
    /// disabled: health and breaker position are routing state, not
    /// samples.
    #[inline]
    pub fn set_flag(&self, flag: ReplicaCounter, on: bool) {
        self.slot.counters.set(flag, on as u64);
    }
}

/// Register a counter slot for router backend replica `role` of shard
/// `shard` in the calling thread's registry and return a recording
/// handle. Each call is a new row: a router registers each of its
/// replicas once. New replicas start healthy.
pub fn router_replica(shard: u32, role: &str) -> RouterReplicaHandle {
    let slot = Arc::new(RouterSlot {
        shard,
        role: role.to_string(),
        counters: Block::new(),
        latency: LogHistogram::new(),
    });
    slot.counters.set(ReplicaCounter::Healthy, 1);
    current(|r| {
        r.router
            .lock()
            .expect("router rows lock")
            .push(Arc::clone(&slot))
    });
    RouterReplicaHandle { slot }
}

/// The most recently captured trace of the calling thread's registry,
/// if any.
pub fn latest_trace() -> Option<QueryTrace> {
    current(|r| r.traces.latest())
}

/// Every trace in the calling thread's registry's ring, oldest first.
pub fn traces() -> Vec<QueryTrace> {
    current(|r| r.traces.all())
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
    /// The histogram the quantiles are read from: every
    /// [`LogHistogram`] bucket that holds a call, as `(inclusive upper
    /// bound, count)` pairs in bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl LatencySummary {
    /// The summary of `buckets` (pairs in bound order, as in
    /// [`LatencySummary::buckets`]) whose calls took `sum_us` in all.
    pub(crate) fn of_buckets(buckets: Vec<(u64, u64)>, sum_us: u64) -> Self {
        let q = |q| hist::quantile_of(buckets.iter().copied(), q);
        LatencySummary {
            count: buckets.iter().map(|&(_, c)| c).sum(),
            sum_us,
            p50_us: q(50),
            p95_us: q(95),
            p99_us: q(99),
            buckets,
        }
    }

    fn of(h: &LogHistogram) -> Self {
        Self::of_buckets(h.buckets(), h.sum())
    }

    /// Fold `other` in: buckets add by bound, and the quantiles are read
    /// from the sum (summing or maxing quantiles means nothing).
    pub(crate) fn merge(&mut self, other: &Self) {
        let mut buckets: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(bound, c) in &other.buckets {
            *buckets.entry(bound).or_insert(0) += c;
        }
        *self = Self::of_buckets(buckets.into_iter().collect(), self.sum_us + other.sum_us);
    }
}

crate::counter_table! {
    /// A point-in-time copy of a registry's counters, or a merge of
    /// several ([`ObsSnapshot::merge`]).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ObsSnapshot / SnapshotCounter {
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
        /// Event-loop serving counters; like `queue_depth`, zero from a
        /// registry and filled in by the serving instance (a node or a
        /// router) from its own loop.
        pub event_loop: EventLoopCounters,
        /// Per-replica router counters, one row per registered replica
        /// (empty in registries no router recorded into).
        pub router: Vec<RouterReplicaCounters>,
        /// Router-tier hedging/degradation counters (all-zero outside a
        /// router).
        pub router_tier: RouterTierCounters,
    }
    Enabled => enabled: bool = Flag "" "Whether recording was enabled at snapshot time.";
    TraceSampleN => trace_sample_n: u64 = Peak "" "Trace sampling rate at snapshot time (`0` = off).";
    /// A registry holds no queue: zero from one, filled in by the
    /// instance answering the request.
    QueueDepth => queue_depth: u64 = Gauge "cbir_queue_depth" "Requests admitted but not yet dispatched.";
    TraceCount => trace_count: u64 = Gauge "cbir_traces_held" "Traces currently in the sampling ring.";
}

impl ObsSnapshot {
    /// Fold `other` in, each counter by its table row's [`Kind`] and
    /// each latency summary by its buckets; `other`'s router rows are
    /// appended (a replica row belongs to one router).
    pub fn merge(&mut self, other: &ObsSnapshot) {
        Counters::merge(self, other);
        for (a, b) in self.indexes.iter_mut().zip(&other.indexes) {
            a.merge(b);
        }
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge(b);
        }
        self.knn_latency.merge(&other.knn_latency);
        self.range_latency.merge(&other.range_latency);
        self.store.merge(&other.store);
        self.event_loop.merge(&other.event_loop);
        self.router.extend(other.router.iter().cloned());
        self.router_tier.merge(&other.router_tier);
        let probes = &other.router_tier.probe_latency;
        self.router_tier.probe_latency.merge(probes);
    }
}

impl Blocks {
    const fn new() -> Self {
        Blocks {
            indexes: [const { Block::new() }; INDEX_NAMES.len()],
            stages: [const { Block::new() }; Stage::ALL.len()],
            knn_latency: LogHistogram::new(),
            range_latency: LogHistogram::new(),
            store: Block::new(),
            router: Mutex::new(Vec::new()),
            router_tier: Block::new(),
            probe_latency: LogHistogram::new(),
            traces: TraceRing::new(),
        }
    }

    fn snapshot(&self) -> ObsSnapshot {
        let indexes = INDEX_NAMES
            .iter()
            .zip(&self.indexes)
            .map(|(&index, b)| {
                IndexCounters {
                    index,
                    ..Default::default()
                }
                .with_values(&b.load())
            })
            .collect();
        let stages = Stage::ALL
            .iter()
            .zip(&self.stages)
            .map(|(&stage, b)| {
                StageCounters {
                    stage: stage.name(),
                    ..Default::default()
                }
                .with_values(&b.load())
            })
            .collect();
        let router = self
            .router
            .lock()
            .expect("router rows lock")
            .iter()
            .map(|s| {
                RouterReplicaCounters {
                    shard: s.shard,
                    role: s.role.clone(),
                    latency: LatencySummary::of(&s.latency),
                    ..Default::default()
                }
                .with_values(&s.counters.load())
            })
            .collect();
        ObsSnapshot {
            enabled: enabled(),
            trace_sample_n: trace_sample_n(),
            indexes,
            stages,
            knn_latency: LatencySummary::of(&self.knn_latency),
            range_latency: LatencySummary::of(&self.range_latency),
            store: StoreCounters::default().with_values(&self.store.load()),
            router,
            router_tier: RouterTierCounters {
                probe_latency: LatencySummary::of(&self.probe_latency),
                ..Default::default()
            }
            .with_values(&self.router_tier.load()),
            trace_count: self.traces.len() as u64,
            ..Default::default()
        }
    }

    fn reset(&self) {
        self.indexes.iter().for_each(Block::reset);
        self.stages.iter().for_each(Block::reset);
        self.knn_latency.reset();
        self.range_latency.reset();
        self.store.reset();
        // Drop router replica registrations entirely: a live router's
        // handles record into slots no snapshot reads any more, as a
        // fresh harness run should not inherit a previous topology.
        self.router.lock().expect("router rows lock").clear();
        self.router_tier.reset();
        self.probe_latency.reset();
        self.traces.reset();
    }
}

/// The process's counters: the default registry merged with every
/// registry made since the last [`reset`] ([`ObsSnapshot::merge`]), so a
/// query is counted once, by the instance that ran it.
pub fn snapshot() -> ObsSnapshot {
    let mut snap = DEFAULT.snapshot();
    for r in MADE.lock().expect("registry list lock").iter() {
        snap.merge(&r.snapshot());
    }
    snap
}

/// Zero every counter, histogram, gauge, and trace ring of the process,
/// and forget the registries of instances that are gone. The enabled
/// flag and sampling rate are left as set. Intended for process startup
/// and benchmark harnesses, not for concurrent use with recording.
pub fn reset() {
    let mut made = MADE.lock().expect("registry list lock");
    made.retain(|r| Arc::strong_count(&r.0) > 1);
    DEFAULT.reset();
    made.iter().for_each(|r| r.0.reset());
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled flag and the default registry are the process's, and
    // `cargo test` runs tests on threads; serialize the tests that flip
    // the flag or assert counter deltas.
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
        store_count(StoreCounter::Inserts, 5);
        store_count(StoreCounter::Deletes, 2);
        store_count(StoreCounter::Compactions, 1);
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
    fn router_replica_slots_are_rows_of_the_registering_registry() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let registry = Registry::new();
        let h = registry.enter(|| router_replica(7, "primary"));
        let rows = || registry.snapshot().router;
        assert!(rows()[0].healthy);
        h.request_ok(120);
        h.count(ReplicaCounter::Failures);
        h.count(ReplicaCounter::Failovers);
        h.count(ReplicaCounter::Shed);
        h.set_flag(ReplicaCounter::Healthy, false);
        // Registering the same (shard, role) again is a second row: two
        // routers in one process keep their replicas apart.
        let h2 = registry.enter(|| router_replica(7, "primary"));
        h2.request_ok(80);
        let after = rows();
        assert_eq!(after.len(), 2);
        let (a, b) = (&after[0], &after[1]);
        assert_eq!((a.shard, a.role.as_str()), (7, "primary"));
        assert_eq!((a.requests, a.failures, a.failovers, a.shed), (1, 1, 1, 1));
        assert!(!a.healthy);
        assert_eq!(a.latency.count, 1);
        assert_eq!((b.requests, b.failures), (1, 0));
        assert!(b.healthy);
        // The default registry holds none of them.
        assert!(!DEFAULT.snapshot().router.iter().any(|r| r.shard == 7));
    }

    #[test]
    fn instance_registries_record_apart_and_the_process_view_merges_them() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let (a, b) = (Registry::new(), Registry::new());
        let before = snapshot();
        let knn = |us| record_query("m-tree", QueryOp::Knn, 1, us, &QueryCounters::default(), 1);
        a.enter(|| {
            knn(10);
            knn(10);
            store_count(StoreCounter::Inserts, 3);
            // Entering nests: the outer registry comes back afterwards.
            b.enter(|| knn(1000));
            knn(10);
        });
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let m_tree = slot_of("m-tree");
        assert_eq!(sa.indexes[m_tree].queries, 3);
        assert_eq!(sb.indexes[m_tree].queries, 1);
        assert_eq!((sa.store.inserts, sb.store.inserts), (3, 0));
        assert_eq!(sa.knn_latency.buckets, vec![(10, 3)]);
        // The process view counts each query once, and reads its
        // quantiles off the merged buckets, not the parts' quantiles.
        let after = snapshot();
        assert_eq!(
            after.indexes[m_tree].queries - before.indexes[m_tree].queries,
            4
        );
        let mut merged = sa.knn_latency.clone();
        merged.merge(&sb.knn_latency);
        assert_eq!((merged.count, merged.sum_us), (4, 1030));
        assert_eq!(
            (merged.p50_us, merged.p99_us),
            (10, LogHistogram::upper_bound(1000))
        );
    }

    #[test]
    fn router_tier_counters_accumulate_and_reset() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let before = snapshot().router_tier;
        router_tier_count(TierCounter::HedgesFired);
        router_tier_count(TierCounter::HedgesFired);
        router_tier_count(TierCounter::HedgesWon);
        router_tier_count(TierCounter::DegradedReplies);
        router_tier_count(TierCounter::BreakerOpens);
        router_tier_count(TierCounter::RetryBudgetExhausted);
        router_probe_ok(250);
        router_tier_count(TierCounter::ProbeFailures);
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
        let registry = Registry::new();
        let h = registry.enter(|| router_replica(9, "backup-1"));
        let row = || registry.snapshot().router.remove(0);
        assert!(!row().breaker_open);
        h.set_flag(ReplicaCounter::BreakerOpen, true);
        h.count(ReplicaCounter::ProbeRejoins);
        let after = row();
        assert!(after.breaker_open);
        assert_eq!(after.probe_rejoins, 1);
        // Breaker position is routing state: recorded even when disabled.
        set_enabled(false);
        h.set_flag(ReplicaCounter::BreakerOpen, false);
        assert!(!row().breaker_open);
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
