//! The scatter-gather router: a CBIRRPC1 server whose backends are
//! CBIRRPC1 servers.
//!
//! The router binds a listening socket and speaks the exact wire
//! protocol a backend speaks, so every existing client — `rpc-query`,
//! `rpc-bench`, `rpc-ctl`, the load generators — works against a router
//! unchanged. Behind it, a [`ShardPlan`] names the deterministic
//! global↔local id arithmetic, one [`ShardClient`] per shard handles
//! replica failover, and a set of persistent per-connection scatter
//! workers (one per shard, alive for the connection's lifetime) fans
//! each request out — spawning OS threads per request would put the
//! spawn/join cost, and the kernel's process-wide stack-mapping lock,
//! on every query's critical path.
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

use crate::backend::{should_failover, RetryBudget, ShardClient};
use crate::jsonmerge;
use crate::merge::kway_merge;
use cbir_core::ShardPlan;
use cbir_obs::Json;
use cbir_server::protocol::{
    decode_request, encode_response, read_frame, write_frame, Request, Response, StatsSnapshot,
};
use cbir_server::{Client, ClientError, ClientResult, HitsReply, Rejection};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a router.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// How long a replica that failed a request sits out of the
    /// preferred rotation before being tried again.
    pub cooldown: Duration,
    /// Read timeout on front-side connections; `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Warm connections kept per backend replica. Size this to the
    /// expected number of concurrent front-side connections: every
    /// in-flight request holds one backend connection per shard, and a
    /// checkout beyond the warm set pays a fresh TCP dial (plus a
    /// connection-thread spawn on the backend) on *every* request.
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

/// Everything a request handler needs, shared across connections.
struct RouterCore {
    plan: ShardPlan,
    shards: Vec<ShardClient>,
    stopping: AtomicBool,
    local_addr: SocketAddr,
    /// Hedge-delay floor; `None` disables hedging.
    hedge: Option<Duration>,
    /// Whether scatter queries may answer from a subset of shards.
    allow_partial: bool,
    /// Read-half clones of live connections, closed at shutdown so
    /// blocked readers wake up. Token-keyed so a finished connection can
    /// drop its clone — otherwise the registry would hold every socket's
    /// fd open for the router's whole lifetime, and peers waiting for the
    /// router's FIN (or the OS for the fd) would see a leaked slot.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_token: AtomicU64,
}

impl RouterCore {
    /// Record a live connection for shutdown severing; returns the token
    /// to pass to [`RouterCore::deregister`] when the connection ends.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let token = self.next_conn_token.fetch_add(1, Ordering::Relaxed);
        self.conns
            .lock()
            .expect("conn registry")
            .push((token, clone));
        Some(token)
    }

    /// Drop the registry's clone of a finished connection so its socket
    /// actually closes when `serve_connection` returns.
    fn deregister(&self, token: u64) {
        self.conns
            .lock()
            .expect("conn registry")
            .retain(|(t, _)| *t != token);
    }

    /// Idempotently stop the router: close every connection's read
    /// half and unblock the accept loop. Backends are untouched.
    fn trigger(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, s) in self.conns.lock().expect("conn registry").iter() {
            let _ = s.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running router. As with the backend server handle, dropping it
/// without [`RouterHandle::shutdown`]/[`RouterHandle::join`] detaches
/// the threads.
pub struct RouterHandle {
    local_addr: SocketAddr,
    core: Arc<RouterCore>,
    acceptor: JoinHandle<()>,
    prober: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl RouterHandle {
    /// The address the router is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and serving, then wait for every connection
    /// thread. Backends are left running — stopping the routing tier
    /// must not take the data tier down with it.
    pub fn shutdown(self) {
        self.core.trigger();
        self.join();
    }

    /// Wait for the router to finish (a client `shutdown` op or a prior
    /// [`RouterHandle::shutdown`]).
    pub fn join(self) {
        let _ = self.acceptor.join();
        if let Some(p) = self.prober {
            let _ = p.join();
        }
        let handles = std::mem::take(&mut *self.conn_threads.lock().expect("conn threads"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The routing-tier entry point.
pub struct Router;

impl Router {
    /// Bind `addr` and route requests across `shard_addrs` under
    /// `plan`. `shard_addrs[s]` lists the replica addresses of shard
    /// `s`, primary first; the outer length must match the plan's shard
    /// count.
    pub fn spawn(
        plan: ShardPlan,
        shard_addrs: Vec<Vec<String>>,
        addr: impl ToSocketAddrs,
        config: RouterConfig,
    ) -> std::io::Result<RouterHandle> {
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
        let listener = TcpListener::bind(addr)?;
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
            local_addr,
            hedge: config.hedge,
            allow_partial: config.allow_partial,
            conns: Mutex::new(Vec::new()),
            next_conn_token: AtomicU64::new(0),
        });
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let core = Arc::clone(&core);
            let conn_threads = Arc::clone(&conn_threads);
            let read_timeout = config.read_timeout;
            std::thread::Builder::new()
                .name("cbir-route-accept".into())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if core.stopping.load(Ordering::SeqCst) {
                                break;
                            }
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(read_timeout);
                            let Some(token) = core.register(&stream) else {
                                continue;
                            };
                            let core = Arc::clone(&core);
                            let spawned = std::thread::Builder::new()
                                .name("cbir-route-conn".into())
                                .spawn(move || serve_connection(stream, core, token));
                            if let Ok(h) = spawned {
                                conn_threads.lock().expect("conn threads").push(h);
                            }
                        }
                        Err(e) => {
                            if core.stopping.load(Ordering::SeqCst) {
                                break;
                            }
                            eprintln!("cbir-router: accept error (continuing): {e}");
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                })?
        };

        let prober = match config.probe_interval {
            None => None,
            Some(interval) => {
                let core = Arc::clone(&core);
                // A probe that hangs longer than the interval would make
                // rounds pile up; bound it at the interval (capped so a
                // very long interval doesn't grant probes minutes).
                let timeout = interval.min(Duration::from_millis(250));
                Some(
                    std::thread::Builder::new()
                        .name("cbir-route-probe".into())
                        .spawn(move || {
                            while !core.stopping.load(Ordering::SeqCst) {
                                for shard in &core.shards {
                                    shard.probe_replicas(timeout);
                                }
                                // Sleep in short slices so shutdown is
                                // never stuck behind a long interval.
                                let mut left = interval;
                                while !left.is_zero() && !core.stopping.load(Ordering::SeqCst) {
                                    let slice = left.min(Duration::from_millis(25));
                                    std::thread::sleep(slice);
                                    left -= slice;
                                }
                            }
                        })?,
                )
            }
        };

        Ok(RouterHandle {
            local_addr,
            core,
            acceptor,
            prober,
            conn_threads,
        })
    }
}

/// One front-side connection: decode a frame, scatter/gather, reply,
/// repeat. Requests on one connection are handled sequentially (the
/// parallelism is per-request across shards), which keeps replies in
/// request order by construction.
fn serve_connection(stream: TcpStream, core: Arc<RouterCore>, token: u64) {
    serve_connection_inner(stream, &core);
    // Whatever way the connection ended — clean EOF, malformed frame,
    // write failure — drop the registry's clone so the socket closes.
    core.deregister(token);
}

fn serve_connection_inner(stream: TcpStream, core: &Arc<RouterCore>) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    let mut respond = |resp: &Response| -> bool {
        write_frame(&mut writer, &encode_response(resp))
            .and_then(|()| std::io::Write::flush(&mut writer))
            .is_ok()
    };
    let pool = match ScatterPool::new(core.shards.len()) {
        Ok(p) => p,
        Err(e) => {
            let _ = respond(&Response::Error(format!("router out of threads: {e}")));
            return;
        }
    };
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF (or shutdown's read-half close)
            Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => return,
            Err(e) => {
                let _ = respond(&Response::Error(format!("malformed frame: {e}")));
                return;
            }
        };
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                let _ = respond(&Response::Error(format!("malformed request: {e}")));
                return;
            }
        };
        let received = Instant::now();
        let stop = matches!(request, Request::Shutdown);
        let response = handle(core, &pool, request, received);
        let sent = respond(&response);
        if stop {
            // Stop the router only — a drained routing tier must not
            // take the data tier down with it; backends keep serving.
            core.trigger();
            return;
        }
        if !sent {
            return;
        }
    }
}

/// Dispatch one request.
fn handle(
    core: &Arc<RouterCore>,
    pool: &ScatterPool,
    request: Request,
    received: Instant,
) -> Response {
    match request {
        Request::Ping => ping(core, pool),
        Request::Knn {
            k,
            deadline_us,
            recall_target,
            descriptor,
        } => gather_query(
            core,
            pool,
            deadline_us,
            received,
            Some(k as usize),
            move |c, rem| c.knn_detailed(&descriptor, k as usize, rem, recall_target),
        ),
        Request::Range {
            radius,
            deadline_us,
            descriptor,
        } => gather_query(core, pool, deadline_us, received, None, move |c, rem| {
            c.range_detailed(&descriptor, radius, rem)
        }),
        Request::KnnById {
            k,
            deadline_us,
            recall_target,
            id,
        } => knn_by_id(
            core,
            pool,
            k as usize,
            deadline_us,
            recall_target,
            id,
            received,
        ),
        Request::GetDescriptor { id } => match core.plan.to_local(id) {
            Err(e) => Response::Error(e.to_string()),
            Ok((owner, local)) => match core.shards[owner].call(|c| c.get_descriptor(local)) {
                Ok(descriptor) => Response::Descriptor { descriptor },
                Err(e) => shard_error(owner, e),
            },
        },
        Request::Stats => stats(core),
        Request::ObsStats { prometheus } => obs_stats(core, pool, prometheus),
        Request::Explain => explain(core, pool),
        Request::Shutdown => Response::ShutdownAck,
        Request::Insert { .. } => Response::Error(
            "router is read-only: an insert through the router would change the shard plan; \
             ingest into the source corpus and re-run shard-plan split"
                .into(),
        ),
        Request::Delete { id } => match core.plan.to_local(id) {
            Err(e) => Response::Error(e.to_string()),
            Ok((owner, local)) => match core.shards[owner].call(|c| c.delete(local)) {
                Ok(epoch) => Response::DeleteAck { epoch },
                Err(e) => shard_error(owner, e),
            },
        },
        Request::Compact => {
            let results = scatter(core, pool, |_, shard| shard.call(|c| c.compact()));
            let (mut epoch, mut segments, mut rows) = (0u64, 0u32, 0u64);
            for (s, r) in results.into_iter().enumerate() {
                match r {
                    Ok((e, seg, rw)) => {
                        epoch = epoch.max(e);
                        segments += seg;
                        rows += rw;
                    }
                    Err(e) => return shard_error(s, e),
                }
            }
            Response::CompactAck {
                epoch,
                segments,
                rows,
            }
        }
    }
}

/// One queued unit of scatter work.
type Job = Box<dyn FnOnce() + Send>;

/// Persistent scatter workers: one thread per shard, alive for the
/// owning connection's lifetime, fed jobs over a channel. Requests on a
/// connection are sequential, so one worker per shard is exactly the
/// parallelism a request can use; concurrent connections each bring
/// their own pool, so shards still serve many requests at once.
struct ScatterPool {
    senders: Vec<mpsc::Sender<Job>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ScatterPool {
    fn new(shards: usize) -> std::io::Result<ScatterPool> {
        let mut senders = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards);
        for s in 0..shards {
            let (tx, rx) = mpsc::channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("cbir-route-scatter-{s}"))
                .spawn(move || {
                    for job in rx {
                        job();
                    }
                })?;
            senders.push(tx);
            threads.push(handle);
        }
        Ok(ScatterPool { senders, threads })
    }

    /// Queue a job on shard `s`'s worker. `false` if the worker died
    /// (a panic escaped a job), which the caller reports per shard.
    fn submit(&self, s: usize, job: Job) -> bool {
        self.senders[s].send(job).is_ok()
    }
}

impl Drop for ScatterPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; join so a
        // connection teardown never leaks scatter threads.
        self.senders.clear();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Run `op` once per shard concurrently on the connection's persistent
/// workers, preserving shard order.
fn scatter<T: Send + 'static>(
    core: &Arc<RouterCore>,
    pool: &ScatterPool,
    op: impl Fn(usize, &ShardClient) -> ClientResult<T> + Send + Sync + 'static,
) -> Vec<ClientResult<T>> {
    let n = core.shards.len();
    let op = Arc::new(op);
    let (tx, rx) = mpsc::channel::<(usize, ClientResult<T>)>();
    let mut out: Vec<ClientResult<T>> = Vec::with_capacity(n);
    let mut pending = 0usize;
    for s in 0..n {
        out.push(Err(ClientError::Protocol(format!(
            "scatter worker for shard {s} lost"
        ))));
        let (core, op, tx) = (Arc::clone(core), Arc::clone(&op), tx.clone());
        if pool.submit(
            s,
            Box::new(move || {
                let _ = tx.send((s, op(s, &core.shards[s])));
            }),
        ) {
            pending += 1;
        }
    }
    drop(tx);
    // A worker that panics mid-job drops its sender without replying;
    // the channel closing bounds the wait and leaves the placeholder
    // error in that shard's slot.
    for _ in 0..pending {
        match rx.recv() {
            Ok((s, r)) => out[s] = r,
            Err(_) => break,
        }
    }
    out
}

/// Remaining deadline budget to forward to backends: the request's
/// relative budget minus time already spent in the router. `Err` is the
/// ready-to-send expiry reply.
fn remaining_budget(deadline_us: u64, received: Instant) -> Result<u64, Box<Response>> {
    if deadline_us == 0 {
        return Ok(0);
    }
    let spent = received.elapsed().as_micros() as u64;
    if spent >= deadline_us {
        return Err(Box::new(Response::DeadlineExpired(
            "deadline exhausted before scatter".into(),
        )));
    }
    Ok(deadline_us - spent)
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

/// A shard sub-request: borrows a pooled backend connection, returns
/// the typed reply. Shared between the direct and hedged attempt paths.
type ShardOp<T> = Arc<dyn Fn(&mut Client) -> ClientResult<T> + Send + Sync>;

/// One shard request, hedged when the router is configured for it: the
/// first attempt gets `max(floor, shard p99)` to answer; past that a
/// second attempt fires on the shard (round-robin puts it on a sibling
/// replica) and the first reply wins. The losing attempt is not
/// cancelled — it completes against its backend and its send into the
/// closed channel is discarded — which is the standard hedging
/// trade-off: bounded duplicate work for a bounded tail.
///
/// The hedge-delay histogram is fed the **winning attempt's own**
/// latency, clocked from that attempt's start — not the requester-
/// observed total, which includes the hedge wait itself. Recording the
/// total is a feedback loop: when every request hedges (a persistently
/// slow first-choice replica), every sample is `delay + epsilon`, the
/// p99 tracks the delay, and the delay ratchets itself up until it
/// exceeds the stall and hedging silently stops. The winner's own
/// latency is exactly the quantity the delay estimates — how long a
/// healthy replica needs — so the delay stays pinned to the healthy
/// floor no matter how slow the rescued replica is.
fn hedged_shard_call<T: Send + 'static>(
    core: &Arc<RouterCore>,
    s: usize,
    op: ShardOp<T>,
) -> ClientResult<T> {
    let Some(floor) = core.hedge else {
        return core.shards[s].call(|c| op(c));
    };
    let delay = core.shards[s].hedge_delay(floor);
    let (tx, rx) = mpsc::channel::<(usize, u64, ClientResult<T>)>();
    let spawn_attempt = |rank: usize| {
        let (core, op, tx) = (Arc::clone(core), Arc::clone(&op), tx.clone());
        std::thread::Builder::new()
            .name(format!("cbir-route-hedge-{s}-{rank}"))
            .spawn(move || {
                let started = Instant::now();
                let r = core.shards[s].call(|c| op(c));
                let _ = tx.send((rank, started.elapsed().as_micros() as u64, r));
            })
            .is_ok()
    };
    let accept = |rank: usize, own_us: u64, v| {
        core.shards[s].record_latency(own_us);
        if rank == 1 {
            cbir_obs::router_hedge_won();
        }
        Ok(v)
    };
    if !spawn_attempt(0) {
        // Out of threads: degrade to the plain inline call.
        return core.shards[s].call(|c| op(c));
    }
    match rx.recv_timeout(delay) {
        Ok((rank, own_us, Ok(v))) => accept(rank, own_us, v),
        Ok((_, _, Err(e))) => Err(e),
        Err(mpsc::RecvTimeoutError::Disconnected) => ClientResult::Err(ClientError::Protocol(
            format!("hedge attempt for shard {s} lost"),
        )),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            cbir_obs::router_hedge_fired();
            let hedged = spawn_attempt(1);
            drop(tx);
            let attempts = if hedged { 2 } else { 1 };
            let mut last_err = None;
            for _ in 0..attempts {
                match rx.recv() {
                    Ok((rank, own_us, Ok(v))) => return accept(rank, own_us, v),
                    Ok((_, _, Err(e))) => last_err = Some(e),
                    Err(_) => break,
                }
            }
            Err(last_err.unwrap_or_else(|| {
                ClientError::Protocol(format!("hedge attempts for shard {s} lost"))
            }))
        }
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
fn gather_query(
    core: &Arc<RouterCore>,
    pool: &ScatterPool,
    deadline_us: u64,
    received: Instant,
    limit: Option<usize>,
    op: impl Fn(&mut Client, u64) -> ClientResult<HitsReply> + Send + Sync + 'static,
) -> Response {
    let remaining = match remaining_budget(deadline_us, received) {
        Ok(r) => r,
        Err(resp) => return *resp,
    };
    let op: ShardOp<HitsReply> = Arc::new(move |c| op(c, remaining));
    let hedging_core = Arc::clone(core);
    let results = scatter(core, pool, move |s, _shard| {
        hedged_shard_call(&hedging_core, s, Arc::clone(&op))
    });
    let shards_total = results.len() as u32;
    let mut lists = Vec::with_capacity(results.len());
    let (mut coarse, mut rerank) = (0u64, 0u64);
    let mut first_unavailable: Option<(usize, ClientError)> = None;
    for (s, r) in results.into_iter().enumerate() {
        match r {
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
    pool: &ScatterPool,
    k: usize,
    deadline_us: u64,
    recall_target: f32,
    id: u64,
    received: Instant,
) -> Response {
    let (owner, local) = match core.plan.to_local(id) {
        Ok(x) => x,
        Err(e) => return Response::Error(e.to_string()),
    };
    let descriptor = match core.shards[owner].call(|c| c.get_descriptor(local)) {
        Ok(d) => d,
        Err(e) => return shard_error(owner, e),
    };
    let over = k.saturating_add(1);
    let resp = gather_query(
        core,
        pool,
        deadline_us,
        received,
        Some(over),
        move |c, rem| c.knn_detailed(&descriptor, over, rem, recall_target),
    );
    match resp {
        Response::Hits {
            mut hits,
            coarse_candidates,
            rerank_evaluations,
        } => {
            hits.retain(|h| h.id != id);
            hits.truncate(k);
            Response::Hits {
                hits,
                coarse_candidates,
                rerank_evaluations,
            }
        }
        // A degraded gather keeps its coverage accounting through the
        // same exclusion step. (The descriptor fetch above stays strict:
        // without the query row there is nothing to search for.)
        Response::HitsPartial {
            mut hits,
            coarse_candidates,
            rerank_evaluations,
            shards_answered,
            shards_total,
        } => {
            hits.retain(|h| h.id != id);
            hits.truncate(k);
            Response::HitsPartial {
                hits,
                coarse_candidates,
                rerank_evaluations,
                shards_answered,
                shards_total,
            }
        }
        other => other,
    }
}

/// Union liveness: every shard must answer, report the summed row count
/// and the plan's dimensionality (cross-checked against every shard).
fn ping(core: &Arc<RouterCore>, pool: &ScatterPool) -> Response {
    let results = scatter(core, pool, |_, shard| shard.call(|c| c.ping()));
    let mut total = 0u64;
    for (s, r) in results.into_iter().enumerate() {
        match r {
            Ok((db_len, dim)) => {
                if dim as usize != core.plan.dim() {
                    return Response::Error(format!(
                        "shard {s} serves dim {dim}, shard plan says {}",
                        core.plan.dim()
                    ));
                }
                total += db_len;
            }
            Err(e) => return shard_error(s, e),
        }
    }
    Response::Pong {
        db_len: total,
        dim: core.plan.dim() as u32,
    }
}

/// Aggregate binary counter snapshots across **every replica of every
/// shard** — counts live on the process that did the work, so unlike a
/// query this fan-out is per replica, not per shard. Counters sum;
/// latency quantiles take the worst replica (summing quantiles means
/// nothing); the batch-size histogram merges by bound.
fn stats(core: &RouterCore) -> Response {
    let mut agg = StatsSnapshot::default();
    let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
    let mut answered = 0usize;
    for shard in &core.shards {
        for (_role, r) in shard.for_each_replica(|c| c.stats()) {
            let s = match r {
                Ok(s) => s,
                // A dead replica has no counters to contribute; the
                // per-replica health gauges already say it is down.
                Err(_) => continue,
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
fn obs_stats(core: &Arc<RouterCore>, pool: &ScatterPool, prometheus: bool) -> Response {
    let snap = cbir_obs::snapshot();
    if prometheus {
        return Response::ObsText(cbir_obs::to_prometheus(&snap));
    }
    let results = scatter(core, pool, |_, shard| shard.call(|c| c.obs_stats(false)));
    let docs: Vec<String> = results.into_iter().flatten().collect();
    match jsonmerge::merge_documents(cbir_obs::to_json(&snap), &docs) {
        Ok(v) => Response::ObsText(v.render()),
        Err(e) => Response::Error(format!("obs aggregation: {e}")),
    }
}

/// Concatenate every shard's sampled query traces. Traces are samples,
/// not counters: element-wise merging would splice unrelated queries
/// together, so this is explicitly a concatenation, owner order by
/// shard index.
fn explain(core: &Arc<RouterCore>, pool: &ScatterPool) -> Response {
    let results = scatter(core, pool, |_, shard| shard.call(|c| c.explain()));
    let mut all = Vec::new();
    for (s, r) in results.into_iter().enumerate() {
        let text = match r {
            Ok(t) => t,
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
