//! The scatter-gather router: a CBIRRPC1 server whose backends are
//! CBIRRPC1 servers.
//!
//! The router speaks the exact wire protocol a backend speaks, so every
//! existing client — `rpc-query`, `rpc-bench`, `rpc-ctl`, the load
//! generators — works against a router unchanged. Its front side is the
//! servers' own connection loop (`cbir_server::event_loop`, so routing
//! requires Linux): one thread accepts, reassembles frames and writes
//! replies in request order for every front connection, and hands each
//! decoded request to [`ROUTE_WORKERS`] route workers. Behind them, a
//! [`ShardPlan`] names the deterministic global↔local id arithmetic and
//! one [`ShardClient`] per shard handles replica failover. A route
//! worker scatters by itself: it writes every shard its request over a
//! pooled connection, then gathers the replies, racing any hedge it
//! fires inside the same wait (see `gather`). It runs the health-probe
//! rounds too. Every thread is started at spawn — the loop and the
//! workers — so the router's thread count depends on neither its
//! connections, its shards, its hedges nor its configuration.
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
use cbir_obs::{Counters, Json, ObsSnapshot, TierCounter};
use cbir_server::conn::{is_mutation, Service};
use cbir_server::protocol::{Request, Response, StatsSnapshot};
use cbir_server::{
    Client, ClientError, ClientResult, Completions, Connection, EventControl, HitsReply, Metrics,
    Rejection, ReplyCell,
};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// Interval from the end of one health-probe round to the next;
    /// `None` (the default) disables active probing and leaves the
    /// passive cooldown in charge. With probing on, a down replica
    /// rejoins the rotation the moment a probe succeeds instead of
    /// waiting out its cooldown.
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
            probe_interval: None,
            hedge: None,
            allow_partial: false,
            breaker_threshold: 5,
            retry_budget: 100,
        }
    }
}

/// The route workers, and the warm connections kept per replica: a worker
/// holds one per replica while it routes (a fired hedge's second attempt
/// aside), and requests beyond this many wait in arrival order.
pub const ROUTE_WORKERS: usize = 32;

/// The loop keeps reading a front connection's requests while its
/// replies wait to be written, so one that stops draining them for this
/// long is closed rather than left to grow its output buffer — the bound
/// a node's default `SchedulerConfig` sets.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything a request handler needs, shared by the route workers.
struct RouterCore {
    plan: ShardPlan,
    shards: Vec<ShardClient>,
    /// Hedge-delay floor; `None` disables hedging.
    hedge: Option<Duration>,
    /// Whether scatter queries may answer from a subset of shards.
    allow_partial: bool,
    /// The front loop's own counters, which fill the `event_loop`
    /// section of the router's `ObsStats` (`Stats` through the router
    /// sums its backends' instead), and the router's registry.
    metrics: Metrics,
    /// Decoded requests waiting for a route worker.
    queue: RouteQueue,
}

/// One decoded front request on its way to a route worker.
struct RouteJob {
    request: Request,
    received: Instant,
    reply: Arc<ReplyCell>,
}

/// The route workers' shared queue of decoded requests, in arrival
/// order, and the probe schedule. Each request wakes a parked worker
/// directly; a channel receiver shared behind a mutex would hand a burst
/// out one worker wake-up at a time, spreading it before it reaches the
/// backends.
struct RouteQueue {
    /// Requests not yet taken, whether the loop has gone, and when the
    /// next probe round is due (`None` while one runs, and unprobed).
    state: Mutex<(VecDeque<RouteJob>, bool, Option<Instant>)>,
    ready: Condvar,
    probe_interval: Option<Duration>,
}

impl RouteQueue {
    /// Requests waiting for a worker.
    fn len(&self) -> usize {
        self.state.lock().expect("route queue").0.len()
    }

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

    /// The next request; `None` once closed and drained. A due probe round
    /// runs first, on the caller; the next is due one interval after it
    /// ends. The caller comes back, so an idle router keeps one worker
    /// asleep until then.
    fn pop(&self, core: &RouterCore) -> Option<RouteJob> {
        let mut state = self.state.lock().expect("route queue");
        loop {
            let (jobs, closed, probe_due) = &mut *state;
            let now = Instant::now();
            let due = !*closed && probe_due.is_some_and(|due| due <= now);
            if let Some(interval) = self.probe_interval.filter(|_| due) {
                *probe_due = None;
                if !jobs.is_empty() {
                    // Woken for a request, maybe: pass it on.
                    self.ready.notify_one();
                }
                drop(state);
                // A probe waits at most the interval, and at most 250 ms.
                let timeout = interval.min(Duration::from_millis(250));
                let round = || core.shards.iter().for_each(|s| s.probe_replicas(timeout));
                let _ = catch_unwind(AssertUnwindSafe(round));
                state = self.state.lock().expect("route queue");
                state.2 = Some(Instant::now() + interval);
                continue;
            }
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if *closed {
                return None;
            }
            state = match probe_due.map(|due| due - now) {
                Some(wait) => self.ready.wait_timeout(state, wait).expect("route queue").0,
                None => self.ready.wait(state).expect("route queue"),
            };
        }
    }
}

/// The router's side of the connection loop. Every request is routed on
/// a worker, never on the loop thread (a scatter blocks on backend round
/// trips); `Delete` and `Compact` are barriers, as on a node, so a
/// request pipelined behind one observes it.
struct RouteService {
    core: Arc<RouterCore>,
    idle_timeout: Option<Duration>,
}

/// The loop drops its service on exit (or `Router::spawn` on a failed
/// start): either way the workers stop, probing with them.
impl Drop for RouteService {
    fn drop(&mut self) {
        self.core.queue.close();
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
        self.core.queue.push(RouteJob {
            request,
            received: Instant::now(),
            reply: Arc::clone(&reply),
        });
        barrier.then_some(reply)
    }

    fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    fn timeouts(&self) -> (Option<Duration>, Option<Duration>) {
        (self.idle_timeout, Some(WRITE_TIMEOUT))
    }

    /// Requests already read still route: the queue closes on `Drop`.
    fn begin_shutdown(&self) {}
}

/// Route requests off the shared queue (and run its due probe rounds)
/// until the loop is gone and the queue is empty.
fn route_worker(core: &RouterCore) {
    while let Some(job) = core.queue.pop(core) {
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
    core: Arc<RouterCore>,
}

impl RouterHandle {
    /// The address the router is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router's own counters, as its Prometheus export reports them:
    /// its replica rows and tier counters, its loop, its route queue.
    pub fn snapshot(&self) -> ObsSnapshot {
        own_snapshot(&self.core)
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
        let metrics = Metrics::new();
        // The replicas' rows go to the router's registry, as does every
        // count its threads record below.
        let registry = metrics.registry().clone();
        let shards = registry.enter(|| {
            shard_addrs
                .into_iter()
                .enumerate()
                .map(|(s, addrs)| {
                    ShardClient::new(
                        s as u32,
                        addrs,
                        config.cooldown,
                        ROUTE_WORKERS,
                        config.breaker_threshold,
                        Arc::clone(&budget),
                    )
                })
                .collect()
        });
        let core = Arc::new(RouterCore {
            plan,
            shards,
            hedge: config.hedge,
            allow_partial: config.allow_partial,
            metrics,
            queue: RouteQueue {
                state: Mutex::new((
                    VecDeque::new(),
                    false,
                    config.probe_interval.map(|_| Instant::now()),
                )),
                ready: Condvar::new(),
                probe_interval: config.probe_interval,
            },
        });
        let lp = Loop::new(
            listener,
            RouteService {
                core: Arc::clone(&core),
                idle_timeout: config.read_timeout,
            },
        )?;
        let control = lp.control();

        // Should a spawn below fail, dropping `lp` closes the queue: the
        // workers already started exit.
        let mut threads = Vec::new();
        for w in 0..ROUTE_WORKERS {
            let (core, registry) = (Arc::clone(&core), registry.clone());
            threads.push(
                Builder::new()
                    .name(format!("cbir-route-worker-{w}"))
                    .spawn(move || registry.enter(|| route_worker(&core)))?,
            );
        }
        threads.push(
            Builder::new()
                .name("cbir-route-loop".into())
                .spawn(move || registry.enter(|| lp.run()))?,
        );
        Ok(RouterHandle {
            local_addr,
            control,
            threads,
            core,
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
fn handle(core: &RouterCore, request: Request, received: Instant) -> Response {
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

/// `request`'s replies from every replica of every shard that answers
/// it, those on cooldown too: counters and traces live on the process
/// that did the work, and a dead replica has none to contribute (the
/// per-replica health gauges already say it is down).
fn every_replica(core: &RouterCore, request: &Request) -> Vec<Response> {
    let targets = core
        .shards
        .iter()
        .enumerate()
        .flat_map(|(s, shard)| (0..shard.replicas().len()).map(move |r| (s, Some(r))));
    let replies = gather(core, request, targets).into_iter();
    replies.filter_map(Result::ok).collect()
}

/// One target of a fan-out: its attempts on the wire (`true`: a fired
/// hedge), when its hedge fires until a reply shows, its settled reply.
struct Leg {
    shard: usize,
    pending: Vec<(bool, Attempt)>,
    hedge_at: Option<Instant>,
    reply: Option<ClientResult<Response>>,
}

impl Leg {
    /// Read pending attempt `j` (a failover leaves it pending on its new
    /// replica). The first reply settles the leg and drops the other
    /// attempt's connection; an error waits for the other attempt. With
    /// `timed`, the hedge delay learns the winner's own latency: the total
    /// includes the hedge wait, which would ratchet the delay up (F16).
    fn read(&mut self, j: usize, core: &RouterCore, request: &Request, timed: bool) {
        let shard = &core.shards[self.shard];
        self.hedge_at = None;
        let (hedged, attempt) = &mut self.pending[j];
        match shard.recv(attempt, request) {
            Ok(None) => {}
            Ok(Some(reply)) => {
                if timed {
                    shard.record_latency(attempt.started.elapsed().as_micros() as u64);
                }
                if *hedged {
                    cbir_obs::router_tier_count(TierCounter::HedgesWon);
                }
                self.pending.clear();
                self.reply = Some(Ok(reply));
            }
            Err(e) => {
                self.pending.remove(j);
                if self.pending.is_empty() {
                    self.reply = Some(Err(e));
                }
            }
        }
    }
}

/// The one fan-out: write `request` to every target — a shard, whose
/// replica rules pick the replica, or one named replica of it — then
/// gather the replies, in target order. Every request is on the wire
/// before the first reply is read, so the targets work on it at once
/// with no thread per target. A hedged search gives each shard
/// `max(floor, shard p99)` from its own send to show a reply, then races
/// a second attempt (on a sibling replica, by round-robin). While any
/// target races or awaits its deadline, one wait covers every pending
/// connection and the earliest deadline, so no race holds up another
/// shard; otherwise the next target's reply is read straight off its
/// connection.
fn gather(
    core: &RouterCore,
    request: &Request,
    targets: impl Iterator<Item = (usize, Option<usize>)>,
) -> Vec<ClientResult<Response>> {
    // Only searches hedge: a second ping, compaction or counter read
    // shortens no tail a client waits on.
    let search = request.deadline_us().is_some();
    let floor = core.hedge.filter(|_| search);
    let mut legs: Vec<Leg> = targets
        .map(|(shard, replica)| {
            let client = &core.shards[shard];
            let (pending, reply) = match client.send(request, replica) {
                Ok(attempt) => (vec![(false, attempt)], None),
                Err(e) => (Vec::new(), Some(Err(e))),
            };
            let hedge_at = floor
                .zip(pending.first())
                .map(|(floor, (_, attempt))| attempt.started + client.hedge_delay(floor));
            Leg {
                shard,
                pending,
                hedge_at,
                reply,
            }
        })
        .collect();
    let timed = floor.is_some();
    let racing = |l: &Leg| l.hedge_at.is_some() || l.pending.len() > 1;
    while let Some(next) = legs.iter().position(|l| l.reply.is_none()) {
        if !legs.iter().any(racing) {
            legs[next].read(0, core, request, timed);
            continue;
        }
        let waiting: Vec<(usize, usize)> = legs
            .iter()
            .enumerate()
            .flat_map(|(i, l)| (0..l.pending.len()).map(move |j| (i, j)))
            .collect();
        let conns: Vec<&Client> = waiting
            .iter()
            .map(|&(i, j)| legs[i].pending[j].1.connection())
            .collect();
        let wake = legs.iter().filter_map(|l| l.hedge_at).min();
        let wait = wake.map(|at| at.saturating_duration_since(Instant::now()));
        if let Some(ready) = Client::await_reply(&conns, wait) {
            let (i, j) = waiting[ready];
            legs[i].read(j, core, request, timed);
            continue;
        }
        // No reply came before the earliest deadline: fire every due
        // hedge. One that cannot be sent leaves the first attempt alone.
        let now = Instant::now();
        for leg in legs
            .iter_mut()
            .filter(|l| l.hedge_at.is_some_and(|at| at <= now))
        {
            leg.hedge_at = None;
            cbir_obs::router_tier_count(TierCounter::HedgesFired);
            if let Ok(attempt) = core.shards[leg.shard].send(request, None) {
                leg.pending.push((true, attempt));
            }
        }
    }
    legs.into_iter()
        .map(|l| l.reply.expect("every leg settled"))
        .collect()
}

/// Cut `request`'s deadline by the time already spent in the router, to
/// the budget a backend gets; `false` when nothing is left of it.
fn cut_deadline(request: &mut Request, received: Instant) -> bool {
    if let Some(deadline_us) = request.deadline_us_mut() {
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
    core: &RouterCore,
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
        cbir_obs::router_tier_count(TierCounter::DegradedReplies);
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
    core: &RouterCore,
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
fn ping(core: &RouterCore) -> Response {
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
fn compact(core: &RouterCore) -> Response {
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
/// shard** — unlike a query, this fan-out is per replica, not per shard.
/// Each counter merges by its table row's
/// kind (counts sum; latency quantiles and the pipeline high-water mark
/// take the worst replica, as summing them means nothing); the
/// batch-size histogram merges by bound.
fn stats(core: &RouterCore) -> Response {
    let mut agg = StatsSnapshot::default();
    let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
    let mut answered = 0usize;
    for r in every_replica(core, &Request::Stats) {
        let Response::Stats(s) = r else {
            continue;
        };
        answered += 1;
        agg.merge(&s);
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

/// The router's own `ObsStats` snapshot: its registry, its front loop
/// and its route queue.
fn own_snapshot(core: &RouterCore) -> ObsSnapshot {
    core.metrics.obs_snapshot(core.queue.len())
}

/// Observability snapshot. Prometheus exposition is the **router's
/// own** snapshot (that is where the per-shard replica health, failover
/// and latency series live; backends export their own endpoints for
/// scraping individually). The JSON form aggregates it with every
/// answering replica's document by [`cbir_obs::merge_json`]: each
/// counter by its table kind, latencies by their buckets, and a backend
/// field this router has never heard of still shows up in the output.
fn obs_stats(core: &RouterCore, prometheus: bool) -> Response {
    let snap = own_snapshot(core);
    if prometheus {
        return Response::ObsText(cbir_obs::to_prometheus(&snap));
    }
    let mut docs = Vec::new();
    for r in every_replica(core, &Request::ObsStats { prometheus: false }) {
        if let Response::ObsText(doc) = r {
            docs.push(doc);
        }
    }
    match jsonmerge::merge_documents(cbir_obs::to_json(&snap), &docs) {
        Ok(v) => Response::ObsText(v.render()),
        Err(e) => Response::Error(format!("obs aggregation: {e}")),
    }
}

/// Concatenate every answering replica's sampled query traces, in shard
/// then replica order. Traces are samples, not counters: element-wise
/// merging would splice unrelated queries together.
fn explain(core: &RouterCore) -> Response {
    let mut all = Vec::new();
    for r in every_replica(core, &Request::Explain) {
        let doc = match r {
            Response::ObsText(text) => Json::parse(&text),
            other => Err(format!("unexpected {other:?}")),
        };
        match doc.as_ref().map(|d| d.get("traces")) {
            Ok(Some(Json::Arr(items))) => all.extend(items.iter().cloned()),
            Ok(_) => return Response::Error("a replica's explain reply has no traces".into()),
            Err(e) => return Response::Error(format!("a replica's explain reply: {e}")),
        }
    }
    Response::ObsText(Json::Obj(vec![("traces".into(), Json::Arr(all))]).render())
}
