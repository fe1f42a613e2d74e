//! The dynamic micro-batch scheduler: a bounded admission queue feeding a
//! single dispatcher that coalesces concurrent requests into batches for
//! the engine's amortized execution path.
//!
//! ## State machine
//!
//! The dispatcher cycles through three states:
//!
//! 1. **Idle** — the queue is empty; block on the `not_empty` condvar.
//! 2. **Collect** — at least one request is queued. Drain up to
//!    `max_batch` requests immediately; if the batch is still short and
//!    `max_delay` is nonzero, keep draining arrivals until either the
//!    batch fills or the delay budget elapses (first request's wait is
//!    never extended past `max_delay`).
//! 3. **Execute** — pin one corpus view for the whole batch, group the
//!    collected requests by compatible engine call (same op and
//!    parameters), run each group through the pinned view's
//!    `{knn_batch_approx, range_batch, knn_batch_by_ids_approx}` with one
//!    shared scratch per worker, and answer every member. Pinning per batch
//!    means a batch can never straddle a store epoch boundary: every
//!    reply in it is computed against one consistent snapshot, even
//!    while inserts, deletes, or a compaction land concurrently.
//!
//! During shutdown the queue stops admitting (new requests get an
//! explicit [`Response::ShuttingDown`]) but the dispatcher keeps cycling
//! until everything already admitted has been executed and answered —
//! shedding is explicit and draining is complete; requests are never
//! silently dropped.
//!
//! ## Overload policy
//!
//! Admission is a hard bound: when `queue_cap` requests are pending, new
//! arrivals are answered immediately with [`Response::Overloaded`]
//! (shed), keeping queueing delay — and therefore tail latency — bounded
//! instead of letting the backlog grow without limit.

use crate::conn::ReplyCell;
use crate::metrics::Metrics;
use crate::protocol::{Hit, Request, Response, Stat};
use cbir_core::{Ranked, ServedCorpus};
use cbir_index::BatchStats;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for the micro-batch scheduler.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Largest batch handed to the engine in one dispatch. `1` degenerates
    /// to single-request-per-dispatch scheduling (the benchmark baseline).
    pub max_batch: usize,
    /// How long a dispatch may wait for the batch to fill once the first
    /// request has been claimed. Zero dispatches whatever is queued.
    pub max_delay: Duration,
    /// Bound on queued (admitted, not yet dispatched) requests; arrivals
    /// beyond it are shed with an explicit overload response.
    pub queue_cap: usize,
    /// Upper bound on the worker threads of one batched engine call (1
    /// executes on the dispatcher thread). A batch over L1 linear scans
    /// takes one worker per four queries up to this bound — each worker
    /// streams the whole filter table, so a worker with fewer queries
    /// pays a pass for too little — while the approximate path's
    /// per-query two-stage search and the trees use all of it.
    pub exec_threads: usize,
    /// Per-connection read timeout: a connection with no complete frame
    /// for this long is reaped (closed without a reply, counted in
    /// `io_timeouts`). `None` disables idle reaping.
    pub idle_timeout: Option<Duration>,
    /// Per-connection write timeout: a peer that stops draining its
    /// responses for this long has its connection closed. `None`
    /// disables the bound.
    pub write_timeout: Option<Duration>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch: 64,
            max_delay: Duration::from_micros(200),
            queue_cap: 1024,
            exec_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            idle_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A queued request: the decoded query (`Knn`, `Range` or `KnnById`;
/// control ops never enter the queue), its deadline, and the reply cell
/// its connection holds in its in-order queue. Every `Pending` receives
/// exactly one [`Response`].
pub struct Pending {
    /// What to execute.
    pub request: Request,
    /// Absolute expiry; a request still queued past it is answered with
    /// [`Response::DeadlineExpired`] instead of being executed.
    pub deadline: Option<Instant>,
    /// When the request was handed to the scheduler (latency origin).
    pub enqueued: Instant,
    /// Single-use reply cell: filling it stores the response and wakes
    /// the connection's loop, and never blocks or fails — a cell whose
    /// connection died first is simply never read.
    pub reply: Arc<ReplyCell>,
}

/// The engine call a query joins: queries with equal keys run as one
/// batch. The recall target travels as its bits, so requests at
/// different targets never share a call (their candidate budgets
/// differ) while compatible approximate requests still batch together.
/// The derived order (variant, then fields) fixes group execution order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Knn { k: u32, recall_bits: u32 },
    Range { radius_bits: u32 },
    KnnById { k: u32, recall_bits: u32 },
}

/// The members of one engine call and the queries they ask, in member
/// order: descriptors for a `Knn` or `Range` group, ids for `KnnById`.
#[derive(Default)]
struct Group {
    members: Vec<Pending>,
    descriptors: Vec<Vec<f32>>,
    ids: Vec<u64>,
}

struct QueueState {
    items: VecDeque<Pending>,
    shutting_down: bool,
}

impl QueueState {
    /// Move queued requests, oldest first, onto `batch` until it holds
    /// `max_batch` or the queue is empty.
    fn drain_into(&mut self, batch: &mut Vec<Pending>, max_batch: usize) {
        let take = self.items.len().min(max_batch.saturating_sub(batch.len()));
        batch.extend(self.items.drain(..take));
    }
}

/// The shared scheduler: admission queue + dispatcher logic. The server
/// runs [`Scheduler::run`] on a dedicated thread; connection handlers call
/// [`Scheduler::submit`].
pub struct Scheduler {
    corpus: ServedCorpus,
    config: SchedulerConfig,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    metrics: Arc<Metrics>,
    panic_trap: AtomicBool,
}

impl Scheduler {
    /// New scheduler over a served corpus (static engine or live store).
    pub fn new(corpus: ServedCorpus, config: SchedulerConfig, metrics: Arc<Metrics>) -> Self {
        Scheduler {
            corpus,
            config: SchedulerConfig {
                max_batch: config.max_batch.max(1),
                exec_threads: config.exec_threads.max(1),
                ..config
            },
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                shutting_down: false,
            }),
            not_empty: Condvar::new(),
            metrics,
            panic_trap: AtomicBool::new(false),
        }
    }

    /// Make the next executed group panic mid-execution. Test hook for
    /// verifying panic isolation end-to-end; never set in production.
    #[doc(hidden)]
    pub fn trip_panic_trap(&self) {
        self.panic_trap.store(true, Ordering::SeqCst);
    }

    /// The corpus this scheduler executes against.
    pub fn corpus(&self) -> &ServedCorpus {
        &self.corpus
    }

    /// The effective configuration (after floor clamping).
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The counter block this scheduler reports into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Requests currently admitted but not yet dispatched.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().expect("queue lock").items.len()
    }

    /// Validate, then admit or reject. Every path answers the request:
    /// invalid work gets [`Response::Error`], a full queue gets
    /// [`Response::Overloaded`], a draining server gets
    /// [`Response::ShuttingDown`]; otherwise the request is queued and the
    /// dispatcher will answer it.
    pub fn submit(&self, pending: Pending) {
        self.metrics.count(Stat::Requests);
        if let Some(msg) = self.validate(&pending.request) {
            self.metrics.count(Stat::Errors);
            pending.reply.fill(Response::Error(msg));
            return;
        }
        let mut q = self.queue.lock().expect("queue lock");
        if q.shutting_down {
            drop(q);
            self.metrics.count(Stat::RejectedShutdown);
            pending
                .reply
                .fill(Response::ShuttingDown("server is draining".into()));
            return;
        }
        if q.items.len() >= self.config.queue_cap {
            drop(q);
            self.metrics.count(Stat::Shed);
            pending.reply.fill(Response::Overloaded(format!(
                "request queue full ({} pending)",
                self.config.queue_cap
            )));
            return;
        }
        q.items.push_back(pending);
        drop(q);
        self.metrics.count(Stat::Admitted);
        self.not_empty.notify_one();
    }

    fn validate(&self, request: &Request) -> Option<String> {
        let view = self.corpus.pin();
        let dim = view.dim();
        let check_desc = |d: &[f32]| -> Option<String> {
            if d.len() != dim {
                return Some(format!(
                    "descriptor dim {} does not match database dim {dim}",
                    d.len()
                ));
            }
            if d.iter().any(|x| !x.is_finite()) {
                return Some("descriptor contains a non-finite component".into());
            }
            None
        };
        let check_knn = |k: u32, recall_target: f32| -> Option<String> {
            if k == 0 {
                return Some("k must be >= 1".into());
            }
            cbir_core::validate_recall_target(recall_target)
                .err()
                .map(|e| e.to_string())
        };
        match request {
            Request::Knn {
                descriptor,
                k,
                recall_target,
                ..
            } => check_knn(*k, *recall_target).or_else(|| check_desc(descriptor)),
            Request::Range {
                descriptor, radius, ..
            } => {
                if !radius.is_finite() || *radius < 0.0 {
                    return Some(format!("radius must be finite and >= 0, got {radius}"));
                }
                check_desc(descriptor)
            }
            Request::KnnById {
                id,
                k,
                recall_target,
                ..
            } => check_knn(*k, *recall_target).or_else(|| {
                (!view.contains(*id))
                    .then(|| format!("image id {id} not in database (len {})", view.len()))
            }),
            _ => Some("only queries are scheduled".into()),
        }
    }

    /// Stop admitting; wake the dispatcher so it drains what remains and
    /// exits. Idempotent.
    pub fn begin_shutdown(&self) {
        let mut q = self.queue.lock().expect("queue lock");
        q.shutting_down = true;
        drop(q);
        self.not_empty.notify_all();
    }

    /// Dispatcher loop: collect → execute until shutdown has begun *and*
    /// the queue is fully drained. Run this on a dedicated thread.
    pub fn run(&self) {
        while let Some(batch) = self.collect_batch() {
            self.execute_batch(batch);
        }
    }

    /// Synchronously execute everything currently queued, without
    /// waiting for arrivals. Deterministic-test hook: the connection
    /// harness submits through the real admission path, then drains on
    /// the test thread instead of racing a dispatcher thread.
    #[doc(hidden)]
    pub fn drain_queued(&self) {
        loop {
            let mut batch = Vec::new();
            let mut guard = self.queue.lock().expect("queue lock");
            guard.drain_into(&mut batch, self.config.max_batch);
            drop(guard);
            if batch.is_empty() {
                return;
            }
            self.execute_batch(batch);
        }
    }

    /// Block until work or shutdown; returns `None` only when shutting
    /// down with an empty queue (nothing left to drain).
    fn collect_batch(&self) -> Option<Vec<Pending>> {
        let max_batch = self.config.max_batch;
        let mut guard = self.queue.lock().expect("queue lock");
        while guard.items.is_empty() {
            if guard.shutting_down {
                return None;
            }
            guard = self.not_empty.wait(guard).expect("queue lock");
        }
        let mut batch = Vec::new();
        guard.drain_into(&mut batch, max_batch);
        // Dynamic part: hold the dispatch briefly to let concurrent
        // arrivals coalesce, but never once shutdown has begun.
        if batch.len() < max_batch && !self.config.max_delay.is_zero() && !guard.shutting_down {
            let deadline = Instant::now() + self.config.max_delay;
            loop {
                if batch.len() >= max_batch || guard.shutting_down {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, timeout) = self
                    .not_empty
                    .wait_timeout(guard, deadline - now)
                    .expect("queue lock");
                guard = g;
                guard.drain_into(&mut batch, max_batch);
                if timeout.timed_out() {
                    break;
                }
            }
        }
        Some(batch)
    }

    /// Pin one corpus view, group the batch by compatible engine call,
    /// execute each group on the batched path, and answer every member.
    fn execute_batch(&self, batch: Vec<Pending>) {
        let size = batch.len();
        let dispatch_time = Instant::now();
        // One pinned view for the whole batch: every group executes
        // against the same snapshot, so concurrent mutation or
        // compaction can never produce a torn batch.
        let view = self.corpus.pin();

        // Expired requests are answered without execution; by-id
        // requests whose row vanished between admission and dispatch
        // (deleted, or renumbered by compaction) get an individual
        // error instead of poisoning their group; the rest are grouped
        // by engine call, each query moved into its group's batch.
        // BTreeMap keeps group execution order deterministic.
        let mut expired = 0usize;
        let mut replies: Vec<(Arc<ReplyCell>, Response)> = Vec::with_capacity(size);
        let mut groups: BTreeMap<GroupKey, Group> = BTreeMap::new();
        for mut p in batch {
            if p.deadline.is_some_and(|d| dispatch_time > d) {
                expired += 1;
                let expiry = Response::DeadlineExpired("deadline expired while queued".into());
                replies.push((p.reply, expiry));
                continue;
            }
            let group = match &mut p.request {
                Request::Knn {
                    k,
                    recall_target,
                    descriptor,
                    ..
                } => {
                    let key = GroupKey::Knn {
                        k: *k,
                        recall_bits: recall_target.to_bits(),
                    };
                    let group = groups.entry(key).or_default();
                    group.descriptors.push(std::mem::take(descriptor));
                    group
                }
                Request::Range {
                    radius, descriptor, ..
                } => {
                    let key = GroupKey::Range {
                        radius_bits: radius.to_bits(),
                    };
                    let group = groups.entry(key).or_default();
                    group.descriptors.push(std::mem::take(descriptor));
                    group
                }
                Request::KnnById {
                    k,
                    recall_target,
                    id,
                    ..
                } => {
                    if !view.contains(*id) {
                        self.metrics.count(Stat::Errors);
                        let gone = format!(
                            "image id {id} no longer in database (epoch {})",
                            view.epoch()
                        );
                        replies.push((p.reply, Response::Error(gone)));
                        continue;
                    }
                    let key = GroupKey::KnnById {
                        k: *k,
                        recall_bits: recall_target.to_bits(),
                    };
                    let group = groups.entry(key).or_default();
                    group.ids.push(*id);
                    group
                }
                control => unreachable!("admission refuses control ops, got {control:?}"),
            };
            group.members.push(p);
        }

        let mut latencies = Vec::with_capacity(size - expired);
        let mut distance_computations = 0;
        let threads = self.config.exec_threads;
        for (key, group) in groups {
            let mut stats = BatchStats::new();
            // The engine is stateless across calls (scratch is
            // per-invocation), so unwinding out of one group cannot
            // poison the next: catch the panic, answer this group's
            // members with an error, and keep dispatching.
            let caught: std::thread::Result<cbir_core::Result<Vec<Vec<Ranked>>>> =
                catch_unwind(AssertUnwindSafe(|| {
                    if self.panic_trap.swap(false, Ordering::SeqCst) {
                        panic!("induced test panic");
                    }
                    // recall_target = 1.0 degenerates to the exact
                    // batched path inside, bit-identically.
                    match key {
                        GroupKey::Knn { k, recall_bits } => view.knn_batch_approx(
                            &group.descriptors,
                            k as usize,
                            f32::from_bits(recall_bits),
                            threads,
                            &mut stats,
                        ),
                        GroupKey::Range { radius_bits } => view.range_batch(
                            &group.descriptors,
                            f32::from_bits(radius_bits),
                            threads,
                            &mut stats,
                        ),
                        GroupKey::KnnById { k, recall_bits } => view.knn_batch_by_ids_approx(
                            &group.ids,
                            k as usize,
                            f32::from_bits(recall_bits),
                            threads,
                            &mut stats,
                        ),
                    }
                }));
            distance_computations += stats.total().distance_computations;
            let members = group.members;
            let outcome = match caught {
                Ok(o) => o,
                Err(payload) => {
                    // A poisoned request: convert the panic into error
                    // replies for this group and keep the dispatcher
                    // alive for everyone else.
                    self.metrics.count(Stat::PanicsIsolated);
                    let msg = panic_message(payload.as_ref());
                    for p in members {
                        self.metrics.count(Stat::Errors);
                        let panicked = format!("internal: execution panicked (isolated): {msg}");
                        replies.push((p.reply, Response::Error(panicked)));
                    }
                    continue;
                }
            };
            match outcome {
                Ok(result_lists) => {
                    debug_assert_eq!(result_lists.len(), members.len());
                    debug_assert_eq!(stats.queries(), members.len());
                    // Each reply carries its own query's approximate
                    // counts: within one group a query the exact filter
                    // served reports zero beside one that ran the
                    // two-stage search. Both are zero for exact (and
                    // range) groups.
                    let per_query = stats.per_query();
                    for (j, (ranked, p)) in result_lists.into_iter().zip(members).enumerate() {
                        latencies.push(p.enqueued.elapsed().as_micros() as u64);
                        let own = per_query.get(j).cloned().unwrap_or_default();
                        let hits = Response::Hits {
                            hits: ranked_to_hits(ranked),
                            coarse_candidates: own.coarse_candidates,
                            rerank_evaluations: own.rerank_evaluations,
                        };
                        replies.push((p.reply, hits));
                    }
                }
                Err(e) => {
                    // Admission validation makes this unreachable in
                    // practice; if the engine does fail, isolate the
                    // failure to this group's members.
                    let msg = e.to_string();
                    for p in members {
                        self.metrics.count(Stat::Errors);
                        replies.push((p.reply, Response::Error(msg.clone())));
                    }
                }
            }
        }
        // Counted before any reply fills: a client holding its reply sees
        // its batch in the counters.
        self.metrics
            .on_batch(size, expired, &latencies, distance_computations);
        for (cell, reply) in replies {
            cell.fill(reply);
        }
    }
}

/// Extract a human-readable message from a panic payload (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Convert the engine's ranked hits to their wire form.
pub fn ranked_to_hits(ranked: Vec<Ranked>) -> Vec<Hit> {
    ranked
        .into_iter()
        .map(|r| Hit {
            id: r.id as u64,
            name: r.name,
            label: r.label,
            distance: r.distance,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_response;
    use cbir_core::{CorpusStore, ImageDatabase, IndexKind, QueryEngine, StoreOptions};
    use cbir_distance::Measure;
    use cbir_features::{FeatureSpec, Pipeline, Quantizer};

    fn tiny_db() -> ImageDatabase {
        let pipeline = Pipeline::new(
            16,
            vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins: 8 })],
        )
        .unwrap();
        let mut db = ImageDatabase::new(pipeline);
        for (i, v) in cbir_workload::histograms(12, 8, 1.0, 5)
            .into_iter()
            .enumerate()
        {
            db.insert_descriptor(
                cbir_core::ImageMeta {
                    name: format!("img-{i}"),
                    label: Some((i % 3) as u32),
                },
                v,
            )
            .unwrap();
        }
        db
    }

    fn tiny_engine() -> Arc<QueryEngine> {
        Arc::new(QueryEngine::build(tiny_db(), IndexKind::VpTree, Measure::L1).unwrap())
    }

    /// A request whose reply lands in a waker-less cell (no loop to
    /// wake: the test reads the cell itself).
    fn pending(request: Request) -> (Pending, Arc<ReplyCell>) {
        let now = Instant::now();
        let cell = crate::conn::Connection::new(0, now).push_cell(None);
        (
            Pending {
                request,
                deadline: None,
                enqueued: now,
                reply: Arc::clone(&cell),
            },
            cell,
        )
    }

    fn reply(cell: &ReplyCell) -> Response {
        cell.take().expect("request was answered")
    }

    fn sched(config: SchedulerConfig) -> Scheduler {
        Scheduler::new(
            ServedCorpus::Static(tiny_engine()),
            config,
            Arc::new(Metrics::new()),
        )
    }

    #[test]
    fn admission_sheds_beyond_queue_cap() {
        // No dispatcher running: the queue fills deterministically.
        let s = sched(SchedulerConfig {
            queue_cap: 2,
            ..SchedulerConfig::default()
        });
        let q = || {
            pending(Request::Knn {
                deadline_us: 0,
                descriptor: vec![0.125; 8],
                k: 3,
                recall_target: 1.0,
            })
        };
        let (p1, _rx1) = q();
        let (p2, _rx2) = q();
        let (p3, rx3) = q();
        s.submit(p1);
        s.submit(p2);
        assert_eq!(s.queue_depth(), 2);
        s.submit(p3);
        assert!(matches!(reply(&rx3), Response::Overloaded(_)));
        assert_eq!(s.queue_depth(), 2, "shed request never entered the queue");
        let snap = s.metrics.snapshot(s.queue_depth());
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.admitted, 2);
    }

    #[test]
    fn invalid_work_is_answered_with_error_not_queued() {
        let s = sched(SchedulerConfig::default());
        let (p, rx) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: vec![0.5; 3], // wrong dim
            k: 1,
            recall_target: 1.0,
        });
        s.submit(p);
        assert!(matches!(reply(&rx), Response::Error(_)));
        let (p, rx) = pending(Request::KnnById {
            deadline_us: 0,
            id: 999,
            k: 1,
            recall_target: 1.0,
        });
        s.submit(p);
        assert!(matches!(reply(&rx), Response::Error(_)));
        let (p, rx) = pending(Request::Range {
            deadline_us: 0,
            descriptor: vec![0.5; 8],
            radius: -1.0,
        });
        s.submit(p);
        assert!(matches!(reply(&rx), Response::Error(_)));
        assert_eq!(s.queue_depth(), 0);
        assert_eq!(s.metrics.snapshot(0).errors, 3);
    }

    #[test]
    fn expired_requests_get_explicit_deadline_reply() {
        let s = sched(SchedulerConfig::default());
        let (mut p, rx) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: vec![0.125; 8],
            k: 2,
            recall_target: 1.0,
        });
        p.deadline = Some(Instant::now() - Duration::from_millis(1));
        let (live, live_rx) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: vec![0.125; 8],
            k: 2,
            recall_target: 1.0,
        });
        s.execute_batch(vec![p, live]);
        assert!(matches!(reply(&rx), Response::DeadlineExpired(_)));
        assert!(matches!(reply(&live_rx), Response::Hits { .. }));
        let snap = s.metrics.snapshot(0);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.executed, 1);
        assert_eq!(snap.batches, 1);
    }

    #[test]
    fn panic_during_execution_is_isolated_to_its_group() {
        let s = sched(SchedulerConfig::default());
        s.trip_panic_trap();
        // Two groups in one batch: k=2 executes first (BTreeMap order)
        // and trips the trap; the k=3 group must still be answered.
        let (p1, rx1) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: vec![0.125; 8],
            k: 2,
            recall_target: 1.0,
        });
        let (p2, rx2) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: vec![0.125; 8],
            k: 3,
            recall_target: 1.0,
        });
        s.execute_batch(vec![p1, p2]);
        match reply(&rx1) {
            Response::Error(m) => assert!(m.contains("panic"), "{m}"),
            other => panic!("expected error reply for poisoned group, got {other:?}"),
        }
        assert!(matches!(reply(&rx2), Response::Hits { .. }));
        let snap = s.metrics.snapshot(0);
        assert_eq!(snap.panics_isolated, 1);
        assert_eq!(snap.errors, 1);

        // The dispatcher survives: the next batch executes normally.
        let (p3, rx3) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: vec![0.125; 8],
            k: 2,
            recall_target: 1.0,
        });
        s.execute_batch(vec![p3]);
        assert!(matches!(reply(&rx3), Response::Hits { .. }));
    }

    #[test]
    fn approx_requests_group_by_recall_target_and_report_counters() {
        let s = sched(SchedulerConfig::default());
        let q = s.corpus().pin().descriptor(0).unwrap();

        // Same k, different recall targets: must land in different
        // groups, so each reply reports its own group's counters.
        let (exact, exact_rx) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: q.clone(),
            k: 3,
            recall_target: 1.0,
        });
        let (approx, approx_rx) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: q.clone(),
            k: 3,
            recall_target: 0.9,
        });
        s.execute_batch(vec![exact, approx]);

        let (exact_hits, cc, re) = match reply(&exact_rx) {
            Response::Hits {
                hits,
                coarse_candidates,
                rerank_evaluations,
            } => (hits, coarse_candidates, rerank_evaluations),
            other => panic!("expected hits, got {other:?}"),
        };
        assert_eq!(cc, 0, "exact path reports zero coarse candidates");
        assert_eq!(re, 0, "exact path reports zero rerank evaluations");

        let (approx_hits, cc, re) = match reply(&approx_rx) {
            Response::Hits {
                hits,
                coarse_candidates,
                rerank_evaluations,
            } => (hits, coarse_candidates, rerank_evaluations),
            other => panic!("expected hits, got {other:?}"),
        };
        // A vp-tree has no exact filter: the two-stage path runs.
        assert!(cc > 0, "approx path surfaces coarse candidates");
        assert!(re > 0, "approx path reports rerank evaluations");
        // The corpus is tiny, so the candidate budget covers it in full
        // and the approx reply matches the exact one bit for bit.
        assert_eq!(exact_hits.len(), approx_hits.len());
        for (e, a) in exact_hits.iter().zip(&approx_hits) {
            assert_eq!(e.id, a.id);
            assert_eq!(e.distance.to_bits(), a.distance.to_bits());
        }
        assert_eq!(s.metrics.snapshot(0).batches, 1);
    }

    /// A by-id row admitted while live but deleted before dispatch is
    /// answered with its own error; its group-mate and the rest of the
    /// batch are answered as if it had never been sent.
    #[test]
    fn a_row_deleted_between_admission_and_dispatch_fails_alone() {
        let dir = std::env::temp_dir().join(format!("cbir-sched-gone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = StoreOptions::new(IndexKind::VpTree, Measure::L1);
        let store = CorpusStore::create_from_database(&dir, &tiny_db(), options).unwrap();
        let s = Scheduler::new(
            ServedCorpus::Live(Arc::clone(&store)),
            SchedulerConfig::default(),
            Arc::new(Metrics::new()),
        );
        let descriptor = store.snapshot().descriptor(0).unwrap();
        let by_id = |id| {
            pending(Request::KnnById {
                k: 3,
                deadline_us: 0,
                recall_target: 1.0,
                id,
            })
        };
        let (gone, gone_rx) = by_id(3);
        let (mate, mate_rx) = by_id(5);
        let (knn, knn_rx) = pending(Request::Knn {
            k: 3,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: descriptor.clone(),
        });
        for p in [gone, mate, knn] {
            s.submit(p);
        }
        assert_eq!(s.queue_depth(), 3, "all three were admitted");
        store.delete(3).unwrap();
        let errors = s.metrics.snapshot(0).errors;
        s.drain_queued();

        match reply(&gone_rx) {
            Response::Error(m) => assert!(m.starts_with("image id 3 no longer in database"), "{m}"),
            other => panic!("expected an error for the deleted row, got {other:?}"),
        }
        assert_eq!(s.metrics.snapshot(0).errors, errors + 1);
        let view = store.snapshot();
        let direct = |ranked: cbir_core::Result<Vec<Vec<Ranked>>>| {
            encode_response(&Response::Hits {
                hits: ranked_to_hits(ranked.unwrap().remove(0)),
                coarse_candidates: 0,
                rerank_evaluations: 0,
            })
        };
        let mut stats = BatchStats::new();
        assert_eq!(
            encode_response(&reply(&mate_rx)),
            direct(view.knn_batch_by_ids(&[5], 3, 1, &mut stats))
        );
        assert_eq!(
            encode_response(&reply(&knn_rx)),
            direct(view.knn_batch(&[descriptor], 3, 1, &mut stats))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One group, two paths. Over an L1 linear scan a query the exact
    /// filter serves and one it leaves share a group (same k, same
    /// target): each reply carries its own query's hits and counts —
    /// those of the query executed alone — not a share of the group's.
    #[test]
    fn a_mixed_group_answers_each_member_with_its_own_counts() {
        // Clustered rows, except that rows 3,000..4,000 copy row 7: a
        // query there meets a thousand rows at distance 0 that its bound
        // cannot exclude and leaves the filter after its first code
        // block; a query in another cluster never comes near them.
        let mut rows = cbir_workload::clustered_smooth(6000, 8, 40, 2.0, 100.0, 4, 17);
        let seven = rows[7].clone();
        for row in &mut rows[3000..4000] {
            row.clone_from(&seven);
        }
        let pipeline = Pipeline::new(
            16,
            vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins: 8 })],
        )
        .unwrap();
        let mut db = ImageDatabase::new(pipeline);
        for (i, row) in rows.iter().enumerate() {
            let meta = cbir_core::ImageMeta {
                name: format!("row-{i}"),
                label: None,
            };
            db.insert_descriptor(meta, row.clone()).unwrap();
        }
        let engine = Arc::new(QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap());
        let s = Scheduler::new(
            ServedCorpus::Static(Arc::clone(&engine)),
            SchedulerConfig::default(),
            Arc::new(Metrics::new()),
        );
        let queries = [
            rows[100].clone(),
            seven,
            rows[126].clone(),
            rows[3500].clone(),
        ];
        let (pendings, cells): (Vec<_>, Vec<_>) = queries
            .iter()
            .map(|q| {
                pending(Request::Knn {
                    deadline_us: 0,
                    descriptor: q.clone(),
                    k: 10,
                    recall_target: 0.9,
                })
            })
            .unzip();
        s.execute_batch(pendings);
        assert_eq!(s.metrics.snapshot(0).batches, 1);
        let mut counts = Vec::new();
        for (q, cell) in queries.iter().zip(&cells) {
            let mut alone = BatchStats::new();
            let want = engine.knn_batch_approx(std::slice::from_ref(q), 10, 0.9, 1, &mut alone);
            let want = Response::Hits {
                hits: ranked_to_hits(want.unwrap().remove(0)),
                coarse_candidates: alone.total().coarse_candidates,
                rerank_evaluations: alone.total().rerank_evaluations,
            };
            let got = reply(cell);
            assert_eq!(encode_response(&got), encode_response(&want));
            counts.push((
                alone.total().coarse_candidates,
                alone.total().rerank_evaluations,
            ));
        }
        // Served exactly, two-stage, exactly, two-stage.
        assert_eq!(counts[0], (0, 0));
        assert_eq!(counts[2], (0, 0));
        assert!(counts[1].0 > 0 && counts[1].1 > 0, "{counts:?}");
        assert!(counts[3].0 > 0 && counts[3].1 > 0, "{counts:?}");
    }

    /// The scheduler's grouping against a scan written here: every row
    /// through the measure, sorted by `(distance, id)`.
    #[test]
    fn batched_execution_is_bit_identical_to_a_naive_scan() {
        let s = sched(SchedulerConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(500),
            ..SchedulerConfig::default()
        });
        let view = s.corpus().pin();
        let rows: Vec<Vec<f32>> = (0..view.len() as u64)
            .map(|id| view.descriptor(id).unwrap())
            .collect();
        let scan = |query: &[f32]| -> Vec<Hit> {
            let mut all: Vec<Hit> = (0..rows.len())
                .map(|id| {
                    let meta = view.meta(id as u64).unwrap();
                    Hit {
                        id: id as u64,
                        name: meta.name,
                        label: meta.label,
                        distance: Measure::L1.distance(query, &rows[id]),
                    }
                })
                .collect();
            all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
            all
        };

        // A mixed batch: knn at two different k, a range query, a by-id
        // query — grouped into four engine calls, all answered.
        let mut pendings = Vec::new();
        let mut receivers = Vec::new();
        for (i, d) in rows.iter().enumerate() {
            let work = match i % 4 {
                0 => Request::Knn {
                    deadline_us: 0,
                    descriptor: d.clone(),
                    k: 3,
                    recall_target: 1.0,
                },
                1 => Request::Knn {
                    deadline_us: 0,
                    descriptor: d.clone(),
                    k: 5,
                    recall_target: 1.0,
                },
                2 => Request::Range {
                    deadline_us: 0,
                    descriptor: d.clone(),
                    radius: 0.5,
                },
                _ => Request::KnnById {
                    deadline_us: 0,
                    id: i as u64,
                    k: 3,
                    recall_target: 1.0,
                },
            };
            let (p, rx) = pending(work.clone());
            pendings.push(p);
            receivers.push((work, rx));
        }
        s.execute_batch(pendings);

        for (work, rx) in receivers {
            let got = match reply(&rx) {
                Response::Hits { hits, .. } => hits,
                other => panic!("expected hits, got {other:?}"),
            };
            let want: Vec<Hit> = match work {
                Request::Knn { descriptor, k, .. } => {
                    scan(&descriptor).into_iter().take(k as usize).collect()
                }
                Request::Range {
                    descriptor, radius, ..
                } => {
                    let all = scan(&descriptor).into_iter();
                    all.filter(|h| h.distance <= radius).collect()
                }
                Request::KnnById { id, k, .. } => {
                    let others = scan(&rows[id as usize]).into_iter().filter(|h| h.id != id);
                    others.take(k as usize).collect()
                }
                other => unreachable!("only queries were sent, got {other:?}"),
            };
            assert!(!want.is_empty());
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id);
                assert_eq!(g.name, w.name);
                assert_eq!(g.label, w.label);
                assert_eq!(g.distance.to_bits(), w.distance.to_bits());
            }
        }
    }

    /// What micro-batching shares, counted: a fixed script of requests
    /// admitted through `submit` and drained at `max_batch` 64 runs as
    /// ⌈N/64⌉ engine calls, and every reply is the bytes a one-request-
    /// per-dispatch run sends. This is the mechanism behind F9's batched-
    /// over-single ratio (`exp_serve_throughput`), which is reported, not
    /// gated.
    #[test]
    fn a_drained_queue_runs_in_full_batches_with_unbatched_replies() {
        const N: usize = 200;
        let script: Vec<Request> = (0..N)
            .map(|i| Request::Knn {
                deadline_us: 0,
                descriptor: (0..8)
                    .map(|j| ((i * 7 + j * 3) % 11) as f32 / 40.0)
                    .collect(),
                k: 1 + (i % 4) as u32,
                recall_target: 1.0,
            })
            .collect();
        let run = |max_batch: usize| {
            let s = sched(SchedulerConfig {
                max_batch,
                ..SchedulerConfig::default()
            });
            let cells: Vec<Arc<ReplyCell>> = script
                .iter()
                .map(|request| {
                    let (p, cell) = pending(request.clone());
                    s.submit(p);
                    cell
                })
                .collect();
            s.drain_queued();
            let replies: Vec<Vec<u8>> = cells.iter().map(|c| encode_response(&reply(c))).collect();
            (s.metrics.snapshot(0), replies)
        };
        let (batched, batched_replies) = run(64);
        let (single, single_replies) = run(1);
        assert_eq!(
            (batched.batches, batched.executed),
            (N.div_ceil(64) as u64, N as u64),
            "(engine calls, executed) at max_batch 64"
        );
        assert_eq!((single.batches, single.executed), (N as u64, N as u64));
        assert!(batched_replies == single_replies, "batched replies differ");
    }

    #[test]
    fn run_drains_admitted_work_before_exiting_on_shutdown() {
        let s = Arc::new(sched(SchedulerConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(100),
            ..SchedulerConfig::default()
        }));
        let mut receivers = Vec::new();
        for _ in 0..10 {
            let (p, rx) = pending(Request::Knn {
                deadline_us: 0,
                descriptor: vec![0.125; 8],
                k: 2,
                recall_target: 1.0,
            });
            s.submit(p);
            receivers.push(rx);
        }
        s.begin_shutdown();
        // Admission after shutdown is refused explicitly.
        let (late, late_rx) = pending(Request::Knn {
            deadline_us: 0,
            descriptor: vec![0.125; 8],
            k: 2,
            recall_target: 1.0,
        });
        s.submit(late);
        assert!(matches!(reply(&late_rx), Response::ShuttingDown(_)));

        // The dispatcher still answers everything admitted before exiting.
        let runner = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.run())
        };
        runner.join().unwrap();
        for rx in receivers {
            assert!(matches!(reply(&rx), Response::Hits { .. }));
        }
        assert_eq!(s.queue_depth(), 0);
        let snap = s.metrics.snapshot(0);
        assert_eq!(snap.executed, 10);
        assert_eq!(snap.rejected_shutdown, 1);
    }

    /// The counters a client reads after its reply already hold that
    /// reply's batch. The cells post to a completion mailbox whose waker
    /// socket is full, so the first fill blocks in its wake-up write and
    /// the counters are read while it does.
    #[test]
    fn a_batch_is_counted_before_its_first_reply_fills() {
        use crate::conn::{Completions, Connection};
        use std::io::Write;
        use std::os::unix::net::UnixStream;

        let s = sched(SchedulerConfig::default());
        let (waker, wakee) = UnixStream::pair().unwrap();
        waker.set_nonblocking(true).unwrap();
        while (&waker).write(&[0; 4096]).is_ok() {}
        waker.set_nonblocking(false).unwrap();
        let completions = Arc::new(Completions::new());
        completions.set_waker(waker);
        let mut conn = Connection::new(0, Instant::now());
        let cells: Vec<Arc<ReplyCell>> = (0..2)
            .map(|_| conn.push_cell(Some(Arc::clone(&completions))))
            .collect();
        let batch = cells
            .iter()
            .map(|cell| Pending {
                request: Request::Knn {
                    deadline_us: 0,
                    descriptor: vec![0.125; 8],
                    k: 2,
                    recall_target: 1.0,
                },
                deadline: None,
                enqueued: Instant::now(),
                reply: Arc::clone(cell),
            })
            .collect();
        let executed = std::thread::scope(|scope| {
            scope.spawn(|| s.execute_batch(batch));
            while !cells.iter().any(|c| c.is_done()) {
                std::thread::yield_now();
            }
            let executed = s.metrics.snapshot(0).executed;
            // Closing the far end fails the blocked wake-up write, so the
            // fills finish.
            drop(wakee);
            executed
        });
        assert_eq!(executed, 2, "a reply filled before its batch was counted");
        assert!(cells
            .iter()
            .all(|c| matches!(reply(c), Response::Hits { .. })));
    }
}
