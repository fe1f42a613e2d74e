//! The scatter-gather router: a CBIRRPC1 server whose backends are
//! CBIRRPC1 servers.
//!
//! The router speaks the exact wire protocol a backend speaks, so every
//! existing client — `rpc-query`, `rpc-bench`, `rpc-ctl`, the load
//! generators — works against a router unchanged. Its front side is the
//! servers' own connection loop (`cbir_server::event_loop`, so routing
//! requires Linux): one thread accepts, reassembles frames and writes
//! replies in request order for every front connection, and hands each
//! decoded request to a fixed set of route workers. Behind them, a
//! [`ShardPlan`] names the deterministic global↔local id arithmetic and
//! one [`ShardClient`] per shard handles replica failover. A route
//! worker scatters by itself: it writes every shard its request over a
//! pooled connection, then reads the replies in shard order, so the
//! shards work on a request at once with no thread per shard. Every
//! thread is started at spawn — the loop, the workers and, with probing,
//! the prober — so the router's thread count depends on neither its
//! connections nor its shard count; only a hedge that fires starts two
//! more, for the attempts it races.
//!
//! The contract that makes the tier transparent: on the exact path
//! (`recall_target = 1.0`), a router reply is **frame-level
//! bit-identical** to what a single node serving the union corpus would
//! send. Per-shard hits arrive sorted under the documented
//! `(distance, id)` tie-break; translating ids through the plan's
//! monotone maps preserves that order; merging with the same comparator
//! yields the union prefix; and the exact path's approximate-search
//! counters are zero on every shard, so their sum is zero too. The
//! approximate path (`recall_target < 1.0`) stays *well-defined* but
//! not topology-independent — each shard budgets candidates from its
//! own row count — which is why every bit-identity assertion in the
//! tests and benchmarks pins `recall_target = 1.0`.

use crate::backend::{should_failover, Attempt, RetryBudget, ShardClient};
use crate::jsonmerge;
use crate::merge::kway_merge;
use cbir_core::ShardPlan;
use cbir_obs::Json;
use cbir_server::conn::{is_mutation, Service};
use cbir_server::protocol::{Request, Response, StatsSnapshot};
use cbir_server::{
    ClientError, ClientResult, Completions, Connection, EventControl, HitsReply, Metrics,
    Rejection, ReplyCell,
};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a router.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// How long a replica that failed a request sits out of the
    /// preferred rotation before being tried again.
    pub cooldown: Duration,
    /// Idle timeout on front-side connections: one that delivers no
    /// bytes for this long is reaped (closed without a reply, after any
    /// reply still in flight). `None` never reaps.
    pub read_timeout: Option<Duration>,
    /// Warm connections kept per backend replica, and the number of
    /// route workers (at least one), which with the loop thread are all
    /// the threads a router holds besides the prober. A worker routes
    /// one request at a time and holds at most one backend connection
    /// per replica while it does, so the workers never outgrow the warm
    /// set (a fired hedge's second attempt aside); requests beyond this
    /// many wait in arrival order.
    pub pool_per_replica: usize,
    /// Interval between background health-probe rounds; `None` (the
    /// default) disables active probing and leaves the passive cooldown
    /// in charge. With probing on, a down replica rejoins the rotation
    /// the moment a probe succeeds instead of waiting out its cooldown.
    pub probe_interval: Option<Duration>,
    /// Hedge-delay floor for scatter queries; `None` (the default)
    /// disables hedging. When set, a shard request still unanswered
    /// after `max(floor, shard p99)` fires a second attempt on a
    /// sibling replica and the first reply wins. Requires at least two
    /// replicas per shard to be useful.
    pub hedge: Option<Duration>,
    /// Serve partial results when some shards are down: a query whose
    /// scatter loses shards to *availability* errors (connect failures,
    /// timeouts, drains — never semantic errors) answers from the live
    /// shards with an explicit degraded marker instead of failing.
    /// Off by default: exact-path replies stay byte-identical to a
    /// single union node, and with every shard answering they stay so
    /// even when this is on.
    pub allow_partial: bool,
    /// Consecutive failover-worthy failures that open a replica's
    /// circuit breaker (demoting it to last resort until a success —
    /// normally a probe — closes it). `0` disables breakers.
    pub breaker_threshold: u32,
    /// Size of the router-wide failover token bucket: every
    /// non-first-choice attempt spends a token, every success earns a
    /// tenth back. `u32::MAX` is effectively unlimited.
    pub retry_budget: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            cooldown: Duration::from_secs(1),
            read_timeout: None,
            pool_per_replica: 32,
            probe_interval: None,
            hedge: None,
            allow_partial: false,
            breaker_threshold: 5,
            retry_budget: 100,
        }
    }
}

/// The loop keeps reading a front connection's requests while its
/// replies wait to be written, so one that stops draining them for this
/// long is closed rather than left to grow its output buffer — the bound
/// a node's default `SchedulerConfig` sets.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything a request handler needs, shared by the route workers.
struct RouterCore {
    plan: ShardPlan,
    shards: Vec<ShardClient>,
    /// Set when the loop starts draining; the prober stops on it.
    stopping: AtomicBool,
    /// Hedge-delay floor; `None` disables hedging.
    hedge: Option<Duration>,
    /// Whether scatter queries may answer from a subset of shards.
    allow_partial: bool,
}

/// One decoded front request on its way to a route worker.
struct RouteJob {
    request: Request,
    received: Instant,
    reply: Arc<ReplyCell>,
}

/// The route workers' shared queue of decoded requests, in arrival
/// order. Each request wakes a parked worker directly; a channel
/// receiver shared behind a mutex would hand a burst out one worker
/// wake-up at a time, spreading it before it reaches the backends.
#[derive(Default)]
struct RouteQueue {
    /// Requests not yet taken, and whether the loop has gone.
    state: Mutex<(VecDeque<RouteJob>, bool)>,
    ready: Condvar,
}

impl RouteQueue {
    fn push(&self, job: RouteJob) {
        self.state.lock().expect("route queue").0.push_back(job);
        self.ready.notify_one();
    }

    /// No more requests: the workers drain what is queued, then exit.
    /// Called from `Drop`, so a poisoned lock is taken over, not a panic
    /// (no update leaves the queue half-done).
    fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.ready.notify_all();
    }

    /// The next request; `None` once closed and drained.
    fn pop(&self) -> Option<RouteJob> {
        let state = self.state.lock().expect("route queue");
        let waiting = |(jobs, closed): &mut (VecDeque<RouteJob>, bool)| jobs.is_empty() && !*closed;
        let mut state = self.ready.wait_while(state, waiting).expect("route queue");
        state.0.pop_front()
    }
}

/// The router's side of the connection loop. Every request is routed on
/// a worker, never on the loop thread (a scatter blocks on backend round
/// trips); `Delete` and `Compact` are barriers, as on a node, so a
/// request pipelined behind one observes it.
struct RouteService {
    core: Arc<RouterCore>,
    queue: Arc<RouteQueue>,
    /// The loop's own counters. `Stats` through the router sums its
    /// backends' instead, so these stay internal.
    metrics: Metrics,
    idle_timeout: Option<Duration>,
}

/// The loop drops its service on exit (or `Router::spawn` on a failed
/// start): either way the workers and the prober stop.
impl Drop for RouteService {
    fn drop(&mut self) {
        self.begin_shutdown();
        self.queue.close();
    }
}

impl Service for RouteService {
    fn dispatch(
        &self,
        conn: &mut Connection,
        completions: &Arc<Completions>,
        request: Request,
    ) -> Option<Arc<ReplyCell>> {
        let barrier = is_mutation(&request);
        let reply = conn.push_cell(Some(Arc::clone(completions)));
        self.queue.push(RouteJob {
            request,
            received: Instant::now(),
            reply: Arc::clone(&reply),
        });
        barrier.then_some(reply)
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn timeouts(&self) -> (Option<Duration>, Option<Duration>) {
        (self.idle_timeout, Some(WRITE_TIMEOUT))
    }

    fn begin_shutdown(&self) {
        self.core.stopping.store(true, Ordering::SeqCst);
    }
}

/// Route requests off the shared queue until the loop is gone and the
/// queue is empty, each reply into its request's cell.
fn route_worker(core: &Arc<RouterCore>, queue: &RouteQueue) {
    while let Some(job) = queue.pop() {
        // A panic answers its own request and leaves the worker serving.
        let reply = catch_unwind(AssertUnwindSafe(|| handle(core, job.request, job.received)))
            .unwrap_or_else(|_| Response::Error("internal: routing panicked (isolated)".into()));
        job.reply.fill(reply);
    }
}

/// A running router. As with the backend server handle, dropping it
/// without [`RouterHandle::shutdown`]/[`RouterHandle::join`] detaches
/// the threads.
pub struct RouterHandle {
    local_addr: SocketAddr,
    control: Arc<EventControl>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address the router is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, answer what is in flight, then wait for every
    /// thread. Backends are left running — stopping the routing tier
    /// must not take the data tier down with it.
    pub fn shutdown(self) {
        self.control.trigger();
        self.join();
    }

    /// Wait for the router to finish (a client `shutdown` op or a prior
    /// [`RouterHandle::shutdown`]).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The routing-tier entry point.
pub struct Router;

impl Router {
    /// Bind `addr` and route requests across `shard_addrs` under
    /// `plan`. `shard_addrs[s]` lists the replica addresses of shard
    /// `s`, primary first; the outer length must match the plan's shard
    /// count. The front side is an epoll loop, so this requires Linux;
    /// elsewhere it returns `ErrorKind::Unsupported`.
    #[cfg(target_os = "linux")]
    pub fn spawn(
        plan: ShardPlan,
        shard_addrs: Vec<Vec<String>>,
        addr: impl ToSocketAddrs,
        config: RouterConfig,
    ) -> std::io::Result<RouterHandle> {
        use cbir_server::event_loop::Loop;
        use std::io::ErrorKind;
        use std::thread::Builder;

        if shard_addrs.len() != plan.shards() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "plan declares {} shards but {} backend groups were given",
                    plan.shards(),
                    shard_addrs.len()
                ),
            ));
        }
        if shard_addrs.iter().any(Vec::is_empty) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "every shard needs at least one replica address",
            ));
        }
        let listener = std::net::TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let budget = Arc::new(RetryBudget::new(config.retry_budget));
        let shards = shard_addrs
            .into_iter()
            .enumerate()
            .map(|(s, addrs)| {
                ShardClient::new(
                    s as u32,
                    addrs,
                    config.cooldown,
                    config.pool_per_replica,
                    config.breaker_threshold,
                    Arc::clone(&budget),
                )
            })
            .collect();
        let core = Arc::new(RouterCore {
            plan,
            shards,
            stopping: AtomicBool::new(false),
            hedge: config.hedge,
            allow_partial: config.allow_partial,
        });
        let queue = Arc::new(RouteQueue::default());
        let lp = Loop::new(
            listener,
            RouteService {
                core: Arc::clone(&core),
                queue: Arc::clone(&queue),
                metrics: Metrics::new(),
                idle_timeout: config.read_timeout,
            },
        )?;
        let control = lp.control();

        // Should a spawn below fail, dropping `lp` closes the queue and
        // sets `stopping`: the threads already started exit.
        let mut threads = Vec::new();
        for w in 0..config.pool_per_replica.max(1) {
            let (core, queue) = (Arc::clone(&core), Arc::clone(&queue));
            threads.push(
                Builder::new()
                    .name(format!("cbir-route-worker-{w}"))
                    .spawn(move || route_worker(&core, &queue))?,
            );
        }
        if let Some(interval) = config.probe_interval {
            let core = Arc::clone(&core);
            // A probe that hangs longer than the interval would make
            // rounds pile up; bound it at the interval (capped so a very
            // long interval doesn't grant probes minutes).
            let timeout = interval.min(Duration::from_millis(250));
            threads.push(
                Builder::new()
                    .name("cbir-route-probe".into())
                    .spawn(move || {
                        while !core.stopping.load(Ordering::SeqCst) {
                            for shard in &core.shards {
                                shard.probe_replicas(timeout);
                            }
                            // Sleep in short slices so shutdown is never
                            // stuck behind a long interval.
                            let mut left = interval;
                            while !left.is_zero() && !core.stopping.load(Ordering::SeqCst) {
                                let slice = left.min(Duration::from_millis(25));
                                std::thread::sleep(slice);
                                left -= slice;
                            }
                        }
                    })?,
            );
        }
        threads.push(
            Builder::new()
                .name("cbir-route-loop".into())
                .spawn(move || lp.run())?,
        );
        Ok(RouterHandle {
            local_addr,
            control,
            threads,
        })
    }

    /// Routing is built on the epoll loop: no front side on this target.
    #[cfg(not(target_os = "linux"))]
    pub fn spawn(
        plan: ShardPlan,
        shard_addrs: Vec<Vec<String>>,
        addr: impl ToSocketAddrs,
        config: RouterConfig,
    ) -> std::io::Result<RouterHandle> {
        let _ = (plan, shard_addrs, addr, config);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the router's front side is built on epoll; routing requires linux",
        ))
    }
}

/// Dispatch one request.
fn handle(core: &Arc<RouterCore>, request: Request, received: Instant) -> Response {
    match request {
        Request::Knn { k, .. } => search(core, request, received, Some(k as usize)),
        Request::Range { .. } => search(core, request, received, None),
        Request::KnnById {
            k,
            deadline_us,
            recall_target,
            id,
        } => knn_by_id(core, k, deadline_us, recall_target, id, received),
        Request::GetDescriptor { id } => point(core, id, |id| Request::GetDescriptor { id }),
        Request::Delete { id } => point(core, id, |id| Request::Delete { id }),
        Request::Ping => ping(core),
        Request::Compact => compact(core),
        Request::Stats => stats(core),
        Request::ObsStats { prometheus } => obs_stats(core, prometheus),
        Request::Explain => explain(core),
        Request::Shutdown => Response::ShutdownAck,
        Request::Insert { .. } => Response::Error(
            "router is read-only: an insert through the router would change the shard plan; \
             ingest into the source corpus and re-run shard-plan split"
                .into(),
        ),
    }
}

/// Every shard, each through its replica rules.
fn shards(core: &RouterCore) -> impl Iterator<Item = (usize, Option<usize>)> {
    (0..core.shards.len()).map(|s| (s, None))
}

/// The one fan-out: write `request` to every target — a shard, whose
/// replica rules pick the replica, or one named replica of it — then
/// read the replies in target order. Every request is on the wire
/// before the first reply is read, so the targets work on it at once
/// with no thread per target.
fn gather(
    core: &Arc<RouterCore>,
    request: &Request,
    targets: impl Iterator<Item = (usize, Option<usize>)>,
) -> Vec<ClientResult<Response>> {
    let sent: Vec<(usize, ClientResult<Attempt>)> = targets
        .map(|(s, replica)| (s, core.shards[s].send(request, replica)))
        .collect();
    // Only searches hedge: a second ping, compaction or counter read
    // shortens no tail a client waits on.
    let search = matches!(
        request,
        Request::Knn { .. } | Request::Range { .. } | Request::KnnById { .. }
    );
    let Some(floor) = core.hedge.filter(|_| search) else {
        return sent
            .into_iter()
            .map(|(s, attempt)| core.shards[s].recv(attempt?, request))
            .collect();
    };
    // A fired hedge races on while the next shard is read, so each
    // shard's hedge fires on its own delay.
    let hedged: Vec<_> = sent
        .into_iter()
        .map(|(s, attempt)| (s, attempt.map(|a| hedge(core, s, a, request, floor))))
        .collect();
    hedged
        .into_iter()
        .map(|(s, answers)| settle(&core.shards[s], s, answers?))
        .collect()
}

/// The answers to one hedged shard request: `(rank, own latency in µs,
/// reply)` per attempt, rank 1 being a fired hedge.
type Answers = mpsc::Receiver<ClientResult<(usize, u64, Response)>>;

/// Read shard `s`'s reply under hedging: it gets `max(floor, shard p99)`
/// from the shard's own send to show its first byte; past that a second
/// attempt fires on the shard (round-robin puts it on a sibling replica)
/// and races the pending one, each read on a thread of its own — the
/// only threads a router starts after spawn. The losing attempt is not
/// cancelled — it completes against its backend and its reply is
/// discarded — which is the standard hedging trade-off: bounded
/// duplicate work for a bounded tail.
fn hedge(
    core: &Arc<RouterCore>,
    s: usize,
    mut attempt: Attempt,
    request: &Request,
    floor: Duration,
) -> Answers {
    let shard = &core.shards[s];
    let wait = shard
        .hedge_delay(floor)
        .saturating_sub(attempt.started.elapsed());
    let (tx, answers) = mpsc::channel();
    if attempt.await_reply(wait) {
        let _ = tx.send(own_reply(shard, attempt, request).map(|(us, r)| (0, us, r)));
        return answers;
    }
    cbir_obs::router_hedge_fired();
    for (rank, pending) in [(0, Some(attempt)), (1, None)] {
        let (core, request, tx) = (Arc::clone(core), request.clone(), tx.clone());
        // An attempt whose thread cannot be spawned leaves the other to
        // answer alone.
        let _ = std::thread::Builder::new()
            .name(format!("cbir-route-hedge-{s}-{rank}"))
            .spawn(move || {
                let shard = &core.shards[s];
                let attempt = pending.map_or_else(|| shard.send(&request, None), Ok);
                let reply = attempt.and_then(|a| own_reply(shard, a, &request));
                let _ = tx.send(reply.map(|(us, r)| (rank, us, r)));
            });
    }
    answers
}

/// The reply to an attempt with its own latency in microseconds, clocked
/// from its first send.
fn own_reply(
    shard: &ShardClient,
    attempt: Attempt,
    request: &Request,
) -> ClientResult<(u64, Response)> {
    let started = attempt.started;
    let reply = shard.recv(attempt, request)?;
    Ok((started.elapsed().as_micros() as u64, reply))
}

/// The first reply among a hedged shard's answers; an error waits for
/// the other attempt.
///
/// The hedge-delay histogram is fed the **winning attempt's own**
/// latency, clocked from that attempt's first send — not the requester-
/// observed total, which includes the hedge wait itself. Recording the
/// total is a feedback loop: when every request hedges (a persistently
/// slow first-choice replica), every sample is `delay + epsilon`, the
/// p99 tracks the delay, and the delay ratchets itself up until it
/// exceeds the stall and hedging silently stops. The winner's own
/// latency is exactly the quantity the delay estimates — how long a
/// healthy replica needs — so the delay stays pinned to the healthy
/// floor no matter how slow the rescued replica is. (A reply read after
/// another shard's is booked when it is read, so its sample can run long
/// by that wait; it stays pinned to the other shard's floor.)
fn settle(shard: &ShardClient, s: usize, answers: Answers) -> ClientResult<Response> {
    let mut lost = None;
    for answer in answers {
        match answer {
            Ok((rank, own_us, reply)) => {
                shard.record_latency(own_us);
                if rank == 1 {
                    cbir_obs::router_hedge_won();
                }
                return Ok(reply);
            }
            Err(e) => lost = Some(e),
        }
    }
    Err(lost.unwrap_or_else(|| ClientError::Protocol(format!("hedge attempts for shard {s} lost"))))
}

/// Cut `request`'s deadline by the time already spent in the router, to
/// the budget a backend gets; `false` when nothing is left of it.
fn cut_deadline(request: &mut Request, received: Instant) -> bool {
    if let Request::Knn { deadline_us, .. }
    | Request::Range { deadline_us, .. }
    | Request::KnnById { deadline_us, .. } = request
    {
        if *deadline_us > 0 {
            let spent = received.elapsed().as_micros() as u64;
            if spent >= *deadline_us {
                return false;
            }
            *deadline_us -= spent;
        }
    }
    true
}

/// Map a shard-level client failure to the reply the front client gets.
/// Explicit backend rejections pass through unchanged — the backend's
/// own words are more useful than a router paraphrase — while transport
/// failures (every replica of the shard failed over and lost) become an
/// explicit error naming the shard.
fn shard_error(shard: usize, e: ClientError) -> Response {
    match e {
        ClientError::Rejected(Rejection::Error(m)) => Response::Error(m),
        ClientError::Rejected(Rejection::Overloaded(m)) => Response::Overloaded(m),
        ClientError::Rejected(Rejection::ShuttingDown(m)) => Response::ShuttingDown(m),
        ClientError::Rejected(Rejection::DeadlineExpired(m)) => Response::DeadlineExpired(m),
        other => Response::Error(format!("shard {shard} unavailable: {other}")),
    }
}

/// A point op on one global id: the owning shard alone answers it, with
/// the id made local, and its reply is forwarded as it came.
fn point(core: &RouterCore, id: u64, request: impl FnOnce(u64) -> Request) -> Response {
    match core.plan.to_local(id) {
        Err(e) => Response::Error(e.to_string()),
        Ok((owner, local)) => core.shards[owner]
            .call(&request(local))
            .unwrap_or_else(|e| shard_error(owner, e)),
    }
}

/// Scatter a search to every shard, translate ids to global, merge.
/// `limit` is `Some(k)` for knn and `None` for range (whose union keeps
/// every hit).
///
/// With `allow_partial` set, shards lost to availability errors (the
/// [`should_failover`] class — every replica unreachable, drained, or
/// timing out) are skipped instead of failing the query: the reply
/// becomes [`Response::HitsPartial`], a byte-superset of the `Hits`
/// encoding carrying `shards_answered / shards_total`, and only when
/// coverage actually dropped — full-coverage replies stay the plain
/// `Hits` frame, byte-identical to a single union node on the exact
/// path. Semantic errors (a shard answering with out-of-plan ids, an
/// explicit backend error) always fail the query: absence of data is
/// degradable, wrong data is not.
fn search(
    core: &Arc<RouterCore>,
    mut request: Request,
    received: Instant,
    limit: Option<usize>,
) -> Response {
    if !cut_deadline(&mut request, received) {
        return Response::DeadlineExpired("deadline exhausted before scatter".into());
    }
    let results = gather(core, &request, shards(core));
    let shards_total = results.len() as u32;
    let mut lists = Vec::with_capacity(results.len());
    let (mut coarse, mut rerank) = (0u64, 0u64);
    let mut first_unavailable: Option<(usize, ClientError)> = None;
    for (s, r) in results.into_iter().enumerate() {
        match r.and_then(HitsReply::try_from) {
            Ok(mut reply) => {
                for h in &mut reply.hits {
                    match core.plan.to_global(s, h.id) {
                        Ok(g) => h.id = g,
                        Err(e) => {
                            return Response::Error(format!(
                                "shard {s} answered with id {} outside the shard plan: {e}",
                                h.id
                            ))
                        }
                    }
                }
                coarse += reply.coarse_candidates;
                rerank += reply.rerank_evaluations;
                lists.push(reply.hits);
            }
            Err(e) if core.allow_partial && should_failover(&e) => {
                if first_unavailable.is_none() {
                    first_unavailable = Some((s, e));
                }
            }
            Err(e) => return shard_error(s, e),
        }
    }
    let shards_answered = lists.len() as u32;
    if shards_answered == 0 {
        // Partial mode still needs at least one shard; report the first
        // loss rather than an empty result that looks like real data.
        let (s, e) = first_unavailable.expect("no shards answered, none failed");
        return shard_error(s, e);
    }
    if shards_answered < shards_total {
        cbir_obs::router_degraded_reply();
        return Response::HitsPartial {
            hits: kway_merge(&lists, limit),
            coarse_candidates: coarse,
            rerank_evaluations: rerank,
            shards_answered,
            shards_total,
        };
    }
    Response::Hits {
        hits: kway_merge(&lists, limit),
        coarse_candidates: coarse,
        rerank_evaluations: rerank,
    }
}

/// Self-excluding k-NN by *global* id: fetch the query row's descriptor
/// from its owning shard, fan a `k+1` search out (the query row itself
/// can occupy at most one slot), then drop it and truncate — exactly
/// the single-node exclusion semantics, shard by shard.
fn knn_by_id(
    core: &Arc<RouterCore>,
    k: u32,
    deadline_us: u64,
    recall_target: f32,
    id: u64,
    received: Instant,
) -> Response {
    let (owner, local) = match core.plan.to_local(id) {
        Ok(x) => x,
        Err(e) => return Response::Error(e.to_string()),
    };
    let descriptor = match core.shards[owner].call(&Request::GetDescriptor { id: local }) {
        Ok(Response::Descriptor { descriptor }) => descriptor,
        Ok(other) => return shard_error(owner, ClientError::unexpected("descriptor", other)),
        Err(e) => return shard_error(owner, e),
    };
    // Saturating at the wire's largest k: `u32::MAX` already asks every
    // shard for all of its rows.
    let over = k.saturating_add(1);
    let request = Request::Knn {
        k: over,
        deadline_us,
        recall_target,
        descriptor,
    };
    let mut resp = search(core, request, received, Some(over as usize));
    // A degraded gather keeps its coverage accounting through the same
    // exclusion step. (The descriptor fetch above stays strict: without
    // the query row there is nothing to search for.)
    if let Response::Hits { hits, .. } | Response::HitsPartial { hits, .. } = &mut resp {
        hits.retain(|h| h.id != id);
        hits.truncate(k as usize);
    }
    resp
}

/// Union liveness: every shard must answer, report the summed row count
/// and the plan's dimensionality (cross-checked against every shard).
fn ping(core: &Arc<RouterCore>) -> Response {
    let mut total = 0u64;
    for (s, r) in gather(core, &Request::Ping, shards(core))
        .into_iter()
        .enumerate()
    {
        match r {
            Ok(Response::Pong { db_len, dim }) if dim as usize == core.plan.dim() => {
                total += db_len
            }
            Ok(Response::Pong { dim, .. }) => {
                return Response::Error(format!(
                    "shard {s} serves dim {dim}, shard plan says {}",
                    core.plan.dim()
                ))
            }
            Ok(other) => return shard_error(s, ClientError::unexpected("pong", other)),
            Err(e) => return shard_error(s, e),
        }
    }
    Response::Pong {
        db_len: total,
        dim: core.plan.dim() as u32,
    }
}

/// Compact every shard: the newest epoch, the summed segments and rows.
fn compact(core: &Arc<RouterCore>) -> Response {
    let (mut epoch, mut segments, mut rows) = (0u64, 0u32, 0u64);
    for (s, r) in gather(core, &Request::Compact, shards(core))
        .into_iter()
        .enumerate()
    {
        match r {
            Ok(Response::CompactAck {
                epoch: e,
                segments: seg,
                rows: rw,
            }) => {
                epoch = epoch.max(e);
                segments += seg;
                rows += rw;
            }
            Ok(other) => return shard_error(s, ClientError::unexpected("compact ack", other)),
            Err(e) => return shard_error(s, e),
        }
    }
    Response::CompactAck {
        epoch,
        segments,
        rows,
    }
}

/// Aggregate binary counter snapshots across **every replica of every
/// shard** — counts live on the process that did the work, so unlike a
/// query this fan-out is per replica, not per shard, and reaches
/// replicas on cooldown too. Counters sum; latency quantiles take the
/// worst replica (summing quantiles means nothing); the batch-size
/// histogram merges by bound.
fn stats(core: &Arc<RouterCore>) -> Response {
    let replicas = core
        .shards
        .iter()
        .enumerate()
        .flat_map(|(s, shard)| (0..shard.replicas().len()).map(move |r| (s, Some(r))));
    let mut agg = StatsSnapshot::default();
    let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
    let mut answered = 0usize;
    for r in gather(core, &Request::Stats, replicas) {
        // A dead replica has no counters to contribute; the per-replica
        // health gauges already say it is down.
        let Ok(Response::Stats(s)) = r else {
            continue;
        };
        answered += 1;
        agg.requests += s.requests;
        agg.admitted += s.admitted;
        agg.shed += s.shed;
        agg.rejected_shutdown += s.rejected_shutdown;
        agg.expired += s.expired;
        agg.executed += s.executed;
        agg.errors += s.errors;
        agg.batches += s.batches;
        agg.queue_depth += s.queue_depth;
        agg.latency_p50_us = agg.latency_p50_us.max(s.latency_p50_us);
        agg.latency_p95_us = agg.latency_p95_us.max(s.latency_p95_us);
        agg.distance_computations += s.distance_computations;
        agg.io_timeouts += s.io_timeouts;
        agg.panics_isolated += s.panics_isolated;
        agg.epoll_wakeups += s.epoll_wakeups;
        agg.max_pipeline_depth = agg.max_pipeline_depth.max(s.max_pipeline_depth);
        for (bound, count) in s.batch_hist {
            *hist.entry(bound).or_insert(0) += count;
        }
    }
    if answered == 0 {
        return Response::Error("no backend replica answered the stats fan-out".into());
    }
    agg.batch_hist = hist.into_iter().collect();
    Response::Stats(agg)
}

/// Observability snapshot. Prometheus exposition is the **router's
/// own** registry (that is where the per-shard replica health, failover
/// and latency series live; backends export their own endpoints for
/// scraping individually). The JSON form aggregates: every reachable
/// backend's document plus the router's own, merged field-by-field
/// under the forward-compatible rules of [`jsonmerge`] — a backend
/// field this router has never heard of still shows up in the output.
fn obs_stats(core: &Arc<RouterCore>, prometheus: bool) -> Response {
    let snap = cbir_obs::snapshot();
    if prometheus {
        return Response::ObsText(cbir_obs::to_prometheus(&snap));
    }
    let mut docs = Vec::new();
    for r in gather(core, &Request::ObsStats { prometheus: false }, shards(core)) {
        if let Ok(Response::ObsText(doc)) = r {
            docs.push(doc);
        }
    }
    match jsonmerge::merge_documents(cbir_obs::to_json(&snap), &docs) {
        Ok(v) => Response::ObsText(v.render()),
        Err(e) => Response::Error(format!("obs aggregation: {e}")),
    }
}

/// Concatenate every shard's sampled query traces. Traces are samples,
/// not counters: element-wise merging would splice unrelated queries
/// together, so this is explicitly a concatenation, owner order by
/// shard index.
fn explain(core: &Arc<RouterCore>) -> Response {
    let mut all = Vec::new();
    for (s, r) in gather(core, &Request::Explain, shards(core))
        .into_iter()
        .enumerate()
    {
        let text = match r {
            Ok(Response::ObsText(t)) => t,
            Ok(other) => return shard_error(s, ClientError::unexpected("obs text", other)),
            Err(e) => return shard_error(s, e),
        };
        match Json::parse(&text) {
            Ok(doc) => match doc.get("traces") {
                Some(Json::Arr(items)) => all.extend(items.clone()),
                _ => return Response::Error(format!("shard {s} explain reply has no traces")),
            },
            Err(e) => return Response::Error(format!("shard {s} explain reply: {e}")),
        }
    }
    Response::ObsText(Json::Obj(vec![("traces".into(), Json::Arr(all))]).render())
}
