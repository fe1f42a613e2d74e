//! Replica groups and shard-level failover.
//!
//! Each shard is served by one or more replica backends holding the
//! *same* per-shard store. A [`ShardClient`] owns one [`Replica`] per
//! backend address; every replica keeps a [`ClientPool`] of warm
//! connections plus a health state with cooldown. A request is tried on
//! the preferred (round-robin over healthy) replica first; failures
//! classified retryable by [`should_failover`] — the existing
//! [`ClientError::is_transient`] set plus a draining backend's
//! `ShuttingDown` rejection — move the request to a sibling replica and
//! put the failed one on cooldown. Because every replica of a shard
//! answers queries identically, failover is invisible in the reply
//! bytes: only latency and the per-replica observability counters show
//! it happened. An exchange comes in two halves —
//! [`ShardClient::send`] leaves an [`Attempt`] on the wire,
//! [`ShardClient::recv`] reads its reply — so a router can put a request
//! on every shard before it reads any reply; the failover rules run
//! across both halves.
//!
//! Three mechanisms bound how much a failing replica can hurt:
//! a per-replica **circuit breaker** (consecutive failover-worthy
//! failures past a threshold demote the replica to last resort until a
//! success — normally a health probe — closes it), a router-wide
//! [`RetryBudget`] (failover attempts spend tokens, successes earn
//! tenths back, so a persistent outage cannot amplify into a retry
//! storm), and active **health probing**
//! ([`ShardClient::probe_replicas`]) that replaces the passive cooldown
//! with probe-driven leave/rejoin decisions.

use cbir_obs::{router_replica, LogHistogram, ReplicaCounter, RouterReplicaHandle, TierCounter};
use cbir_server::{Client, ClientError, ClientPool, ClientResult, Rejection, Request, Response};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether an error on one replica justifies retrying the request on a
/// sibling replica. This is [`ClientError::is_transient`] — lost
/// connections, timeouts, refused connects, overload shedding — plus
/// `ShuttingDown`: a *draining* backend rejects new work permanently
/// (so the per-connection retry loop rightly gives up), but a sibling
/// replica that is not draining can still answer.
pub fn should_failover(err: &ClientError) -> bool {
    err.is_transient() || matches!(err, ClientError::Rejected(Rejection::ShuttingDown(_)))
}

/// A global token bucket bounding *extra* work the router spends on
/// failover: every non-first-choice attempt costs one token,
/// every success earns a tenth back. Under a persistent outage the
/// bucket drains and failover attempts stop — the router answers from
/// what it has (or errors) instead of amplifying load against backends
/// that are already in trouble. Shared across every shard of a router,
/// because the failure mode it guards against (retry storms) is a
/// whole-tier phenomenon.
pub struct RetryBudget {
    /// Tenths of a token, so successes can earn fractional credit with
    /// integer atomics.
    tenths: AtomicU64,
    max_tenths: u64,
}

impl RetryBudget {
    /// A bucket holding at most `max_tokens` failover attempts, starting
    /// full. `u32::MAX` is effectively unlimited.
    pub fn new(max_tokens: u32) -> RetryBudget {
        let max_tenths = u64::from(max_tokens).saturating_mul(10);
        RetryBudget {
            tenths: AtomicU64::new(max_tenths),
            max_tenths,
        }
    }

    /// Try to pay for one failover attempt.
    pub fn try_spend(&self) -> bool {
        self.tenths
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(10))
            .is_ok()
    }

    /// Credit a tenth of a token for a success, up to the cap.
    pub fn earn(&self) {
        let _ = self
            .tenths
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                (t < self.max_tenths).then(|| (t + 1).min(self.max_tenths))
            });
    }

    /// Tokens currently available (rounded down).
    pub fn available(&self) -> u64 {
        self.tenths.load(Ordering::Relaxed) / 10
    }
}

/// One backend process serving a shard: its address, pooled
/// connections, health state, and observability handle.
pub struct Replica {
    addr: String,
    role: String,
    pool: ClientPool,
    /// Monotonic-clock deadline (microseconds since router start) until
    /// which this replica is considered unhealthy; 0 = healthy.
    unhealthy_until_us: AtomicU64,
    /// Failover-worthy failures since the last success; crossing the
    /// shard's threshold opens the circuit breaker.
    consecutive_failures: AtomicU32,
    /// Open = this replica is tried only when every alternative is
    /// worse; closed again by the first success (typically a health
    /// probe, which acts as the breaker's half-open trial).
    breaker_open: AtomicBool,
    obs: RouterReplicaHandle,
}

impl Replica {
    fn new(shard: u32, index: usize, addr: String, pool_size: usize) -> Replica {
        let role = if index == 0 {
            "primary".to_string()
        } else {
            format!("backup-{index}")
        };
        let obs = router_replica(shard, &role);
        Replica {
            pool: ClientPool::new(addr.clone(), pool_size),
            addr,
            role,
            unhealthy_until_us: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            breaker_open: AtomicBool::new(false),
            obs,
        }
    }

    /// The backend address this replica dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `"primary"` for the first address of a shard, `"backup-N"` after.
    pub fn role(&self) -> &str {
        &self.role
    }
}

/// The scatter side of one shard: replicas plus failover policy.
pub struct ShardClient {
    replicas: Vec<Replica>,
    next: AtomicUsize,
    cooldown: Duration,
    /// Consecutive failover-worthy failures that open a replica's
    /// circuit breaker; `0` disables breakers.
    breaker_threshold: u32,
    /// Router-wide failover token bucket (shared across shards).
    budget: Arc<RetryBudget>,
    /// Observed request latency for this shard as the *requester* saw it
    /// (first reply wins under hedging), feeding the p99-derived hedge
    /// delay. Deliberately not the per-attempt replica latency: a
    /// persistently slow replica whose requests are rescued by hedging
    /// must not inflate the delay that rescues them.
    latency: LogHistogram,
    /// Shared monotonic epoch for the cooldown timestamps.
    epoch: Instant,
}

impl ShardClient {
    /// Build the client for `shard` over its replica addresses (the
    /// first is the primary). `cooldown` is how long a failed replica
    /// sits out before being preferred again; `pool_size` caps the warm
    /// connections kept per replica (size it to the expected front-side
    /// concurrency, since every in-flight request checks one out).
    /// `breaker_threshold` consecutive failover-worthy failures open a
    /// replica's circuit breaker (`0` disables); `budget` is the
    /// router-wide failover token bucket.
    pub fn new(
        shard: u32,
        addrs: Vec<String>,
        cooldown: Duration,
        pool_size: usize,
        breaker_threshold: u32,
        budget: Arc<RetryBudget>,
    ) -> ShardClient {
        assert!(!addrs.is_empty(), "shard {shard} has no replicas");
        let replicas = addrs
            .into_iter()
            .enumerate()
            .map(|(i, addr)| Replica::new(shard, i, addr, pool_size))
            .collect();
        ShardClient {
            replicas,
            next: AtomicUsize::new(0),
            cooldown,
            breaker_threshold,
            budget,
            latency: LogHistogram::new(),
            epoch: Instant::now(),
        }
    }

    /// The configured replicas, primary first.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn is_healthy(&self, r: &Replica) -> bool {
        let until = r.unhealthy_until_us.load(Ordering::Relaxed);
        until == 0 || self.now_us() >= until
    }

    fn mark_unhealthy(&self, r: &Replica) {
        let until = self.now_us() + self.cooldown.as_micros() as u64;
        r.unhealthy_until_us.store(until.max(1), Ordering::Relaxed);
        // A replica that just failed may hold more broken connections.
        r.pool.clear();
        r.obs.set_flag(ReplicaCounter::Healthy, false);
    }

    fn mark_healthy(&self, r: &Replica) {
        r.consecutive_failures.store(0, Ordering::Relaxed);
        if r.breaker_open.swap(false, Ordering::Relaxed) {
            r.obs.set_flag(ReplicaCounter::BreakerOpen, false);
        }
        if r.unhealthy_until_us.swap(0, Ordering::Relaxed) != 0 {
            r.obs.set_flag(ReplicaCounter::Healthy, true);
        }
    }

    /// Count one failover-worthy failure toward the replica's circuit
    /// breaker, opening it at the threshold.
    fn record_breaker_failure(&self, r: &Replica) {
        if self.breaker_threshold == 0 {
            return;
        }
        let failures = r.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= self.breaker_threshold && !r.breaker_open.swap(true, Ordering::Relaxed) {
            r.obs.set_flag(ReplicaCounter::BreakerOpen, true);
            cbir_obs::router_tier_count(TierCounter::BreakerOpens);
        }
    }

    /// Record the latency of one shard request's winning attempt,
    /// clocked from that attempt's own start (see the router's `Leg::read`
    /// for why the requester-observed total must not be fed here).
    pub fn record_latency(&self, us: u64) {
        self.latency.record(us);
    }

    /// The hedge delay for this shard: the observed p99 request latency,
    /// floored at `floor`. Until enough samples exist (16) the floor
    /// alone is used — hedging too eagerly on a cold histogram would
    /// double every request's backend load.
    pub fn hedge_delay(&self, floor: Duration) -> Duration {
        if self.latency.count() < 16 {
            return floor;
        }
        floor.max(Duration::from_micros(self.latency.quantile(99)))
    }

    /// Probe every replica of this shard once: dial with `timeout`,
    /// ping, and fold the outcome into the health state. A probe
    /// success on a down or breaker-open replica is a **rejoin** — the
    /// replica returns to the preferred rotation immediately instead of
    /// waiting out a cooldown; a probe failure (re)marks the replica
    /// unhealthy so queries keep avoiding it. This is what turns the
    /// passive cooldown into an active state machine: while probing is
    /// on, membership follows probe results, and the cooldown is only
    /// the fallback granularity between probe rounds.
    pub fn probe_replicas(&self, timeout: Duration) {
        for r in &self.replicas {
            let started = Instant::now();
            let ok = Client::connect_timeout(r.addr.as_str(), timeout)
                .ok()
                .and_then(|mut c| c.ping().ok())
                .is_some();
            if ok {
                cbir_obs::router_probe_ok(started.elapsed().as_micros() as u64);
                let was_down = !self.is_healthy(r) || r.breaker_open.load(Ordering::Relaxed);
                self.mark_healthy(r);
                if was_down {
                    r.obs.count(ReplicaCounter::ProbeRejoins);
                }
            } else {
                cbir_obs::router_tier_count(TierCounter::ProbeFailures);
                self.mark_unhealthy(r);
            }
        }
    }

    /// Candidate replicas for one request, best first: round-robin over
    /// the healthy ones, replicas on cooldown after them as a last resort
    /// (so a shard whose every replica recently failed still gets one try
    /// per replica rather than an unconditional error), breaker-open ones
    /// at the very end. The sort is stable, so the rotation holds within
    /// each class.
    fn rotation(&self) -> Vec<usize> {
        let n = self.replicas.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed) % n;
        let mut order: Vec<usize> = (0..n).map(|i| (start + i) % n).collect();
        order.sort_by_key(|&i| {
            let r = &self.replicas[i];
            (r.breaker_open.load(Ordering::Relaxed), !self.is_healthy(r))
        });
        order
    }

    /// The send half of a request to this shard: put it on the wire to
    /// the first candidate that takes it, under the rules
    /// [`ShardClient::recv`] documents; `Err` means none did. The
    /// candidates are the replicas in rotation (round-robin, healthy
    /// first), or `replica` alone —
    /// healthy or not, with no failover — when one is named: the fan-out
    /// shape of stats aggregation, where each backend's counters matter
    /// individually.
    pub fn send(&self, request: &Request, replica: Option<usize>) -> ClientResult<Attempt> {
        let now = Instant::now();
        let mut attempt = Attempt {
            order: replica.map_or_else(|| self.rotation(), |r| vec![r]),
            rank: 0,
            client: None,
            redialed: false,
            sent: now,
            started: now,
        };
        self.write(&mut attempt, request)?;
        Ok(attempt)
    }

    /// The receive half: one read of the reply to `request`, sent as
    /// `attempt`. `Ok(None)` means the rules below sent the request on
    /// instead, and `attempt` waits on its new connection: read it again.
    ///
    /// A `ConnectionLost` on a replica's pooled connection is retried
    /// once on a freshly dialed one — a pooled idle connection may have
    /// been reaped by the backend between requests (it takes the write
    /// and fails the read), which is not evidence the replica is down.
    /// Any further failover-worthy error puts the replica on cooldown,
    /// counts toward its breaker and sends the request on to the next
    /// candidate the retry budget pays for; a non-failover error
    /// (explicit server error, deadline expiry, protocol violation) is
    /// returned as-is, since every sibling would answer it identically.
    pub fn recv(&self, attempt: &mut Attempt, request: &Request) -> ClientResult<Option<Response>> {
        let client = attempt
            .client
            .as_mut()
            .expect("a sent attempt holds its connection");
        match client.recv() {
            Ok(reply) => {
                let replica = &self.replicas[attempt.order[attempt.rank]];
                let us = attempt.sent.elapsed().as_micros() as u64;
                replica.obs.request_ok(us);
                replica.pool.put(attempt.client.take().expect("read above"));
                self.mark_healthy(replica);
                self.budget.earn();
                Ok(Some(reply))
            }
            Err(e) => self.recover(attempt, e, request).map(|()| None),
        }
    }

    /// Send, then receive: one request with every failover rule.
    pub fn call(&self, request: &Request) -> ClientResult<Response> {
        let mut attempt = self.send(request, None)?;
        loop {
            if let Some(reply) = self.recv(&mut attempt, request)? {
                return Ok(reply);
            }
        }
    }

    /// Put `request` on the wire to the current candidate — over a pooled
    /// connection, or a fresh dial for the retry — moving on down the
    /// candidates while it cannot be written.
    fn write(&self, attempt: &mut Attempt, request: &Request) -> ClientResult<()> {
        let replica = &self.replicas[attempt.order[attempt.rank]];
        let dialed = if attempt.redialed {
            Client::connect(replica.addr.as_str())
        } else {
            replica.pool.get()
        };
        attempt.sent = Instant::now();
        let written = dialed
            .map_err(ClientError::from)
            .and_then(|mut c| c.send(request).map(|()| c));
        match written {
            Ok(client) => {
                attempt.client = Some(client);
                Ok(())
            }
            Err(e) => self.recover(attempt, e, request),
        }
    }

    /// Apply the rules [`ShardClient::recv`] documents to `err` from the
    /// current candidate. `Ok` means the request is on the wire again.
    fn recover(
        &self,
        attempt: &mut Attempt,
        err: ClientError,
        request: &Request,
    ) -> ClientResult<()> {
        let replica = &self.replicas[attempt.order[attempt.rank]];
        let client = attempt.client.take();
        if matches!(err, ClientError::ConnectionLost(_)) && !attempt.redialed {
            attempt.redialed = true;
            return self.write(attempt, request);
        }
        if let (ClientError::Rejected(_), Some(client)) = (&err, client) {
            // An explicit reply leaves the stream in sync: reuse it.
            replica.pool.put(client);
        }
        replica.obs.count(ReplicaCounter::Failures);
        if !should_failover(&err) {
            return Err(err);
        }
        if matches!(err, ClientError::Rejected(Rejection::Overloaded(_))) {
            replica.obs.count(ReplicaCounter::Shed);
        }
        self.mark_unhealthy(replica);
        self.record_breaker_failure(replica);
        attempt.rank += 1;
        if attempt.rank == attempt.order.len() {
            return Err(err);
        }
        // Failover attempts are extra backend load; they come out of the
        // router-wide budget so a persistent outage cannot turn into a
        // retry storm.
        if !self.budget.try_spend() {
            cbir_obs::router_tier_count(TierCounter::RetryBudgetExhausted);
            return Err(err);
        }
        self.replicas[attempt.order[attempt.rank]]
            .obs
            .count(ReplicaCounter::Failovers);
        attempt.redialed = false;
        self.write(attempt, request)
    }
}

/// A request on the wire to one replica of a shard, its reply not yet
/// read: what [`ShardClient::recv`] needs to read it, or to send the
/// request on to the next candidate.
pub struct Attempt {
    /// Candidate replicas, best first; `rank` indexes the one `client`
    /// talks to.
    order: Vec<usize>,
    rank: usize,
    /// `None` while the request is being sent on, and once it is answered.
    client: Option<Client>,
    /// Whether this replica's one fresh-dial retry is spent.
    redialed: bool,
    /// When the request went to the current replica.
    sent: Instant,
    /// When the request first went out: the attempt's own latency,
    /// failovers included, counts from here.
    pub started: Instant,
}

impl Attempt {
    /// The connection the reply will come back on.
    pub(crate) fn connection(&self) -> &Client {
        self.client.as_ref().expect("the attempt is on the wire")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_classification_extends_is_transient_with_shutting_down() {
        let lost = ClientError::ConnectionLost("gone".into());
        assert!(should_failover(&lost));
        let shed = ClientError::Rejected(Rejection::Overloaded("queue full".into()));
        assert!(should_failover(&shed));
        // ShuttingDown is NOT transient for a single connection (the
        // backend will not come back) but IS failover-worthy (a sibling
        // replica is not draining).
        let drain = ClientError::Rejected(Rejection::ShuttingDown("draining".into()));
        assert!(!drain.is_transient());
        assert!(should_failover(&drain));
        // Explicit errors and deadline expiry would repeat identically
        // on any replica: no failover.
        assert!(!should_failover(&ClientError::Rejected(Rejection::Error(
            "bad dim".into()
        ))));
        assert!(!should_failover(&ClientError::Rejected(
            Rejection::DeadlineExpired("late".into())
        )));
        assert!(!should_failover(&ClientError::Protocol("junk".into())));
    }

    fn shard_client(shard: u32, addrs: Vec<String>, cooldown: Duration) -> ShardClient {
        ShardClient::new(
            shard,
            addrs,
            cooldown,
            4,
            5,
            Arc::new(RetryBudget::new(100)),
        )
    }

    #[test]
    fn roles_are_primary_then_numbered_backups() {
        let sc = shard_client(
            7,
            vec![
                "127.0.0.1:1".into(),
                "127.0.0.1:2".into(),
                "127.0.0.1:3".into(),
            ],
            Duration::from_millis(100),
        );
        let roles: Vec<&str> = sc.replicas().iter().map(Replica::role).collect();
        assert_eq!(roles, ["primary", "backup-1", "backup-2"]);
        assert_eq!(sc.replicas()[1].addr(), "127.0.0.1:2");
    }

    #[test]
    fn cooldown_marks_and_recovers() {
        let sc = shard_client(
            0,
            vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            Duration::from_millis(20),
        );
        let r = &sc.replicas()[0];
        assert!(sc.is_healthy(r));
        sc.mark_unhealthy(r);
        assert!(!sc.is_healthy(r));
        std::thread::sleep(Duration::from_millis(30));
        assert!(sc.is_healthy(r), "cooldown must expire");
        sc.mark_healthy(r);
        assert!(sc.is_healthy(r));
    }

    #[test]
    fn breaker_opens_at_threshold_and_success_closes_it() {
        let sc = shard_client(1, vec!["127.0.0.1:1".into()], Duration::from_millis(100));
        let r = &sc.replicas()[0];
        for _ in 0..4 {
            sc.record_breaker_failure(r);
        }
        assert!(!r.breaker_open.load(Ordering::Relaxed));
        sc.record_breaker_failure(r);
        assert!(r.breaker_open.load(Ordering::Relaxed), "opens at threshold");
        // A success (a probe's half-open trial in production) closes it
        // and zeroes the streak.
        sc.mark_healthy(r);
        assert!(!r.breaker_open.load(Ordering::Relaxed));
        assert_eq!(r.consecutive_failures.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn breaker_open_replicas_sort_last() {
        let sc = shard_client(
            2,
            vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            Duration::from_millis(100),
        );
        for _ in 0..5 {
            sc.record_breaker_failure(&sc.replicas()[0]);
        }
        // With replica 0's breaker open, every round-robin rotation must
        // still put replica 1 first.
        for _ in 0..4 {
            let order = sc.rotation();
            assert_eq!(order[0], 1, "breaker-open replica must sort last");
        }
    }

    #[test]
    fn retry_budget_spends_whole_tokens_and_earns_tenths() {
        let b = RetryBudget::new(2);
        assert_eq!(b.available(), 2);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "empty bucket refuses");
        // Ten successes earn one whole token back.
        for _ in 0..10 {
            b.earn();
        }
        assert_eq!(b.available(), 1);
        assert!(b.try_spend());
        assert!(!b.try_spend());
        // Credit never exceeds the cap.
        for _ in 0..1000 {
            b.earn();
        }
        assert_eq!(b.available(), 2);
    }

    #[test]
    fn exhausted_budget_stops_failover_but_first_choice_still_runs() {
        let budget = Arc::new(RetryBudget::new(0));
        // Nothing listens on these addresses: every attempt fails with a
        // failover-worthy connect error.
        let sc = ShardClient::new(
            3,
            vec!["127.0.0.1:9".into(), "127.0.0.1:10".into()],
            Duration::from_millis(100),
            1,
            0,
            budget,
        );
        let err = sc.call(&Request::Ping).unwrap_err();
        // The first-choice attempt ran (we got its connect error), but
        // the zero budget forbade trying the sibling.
        assert!(should_failover(&err));
    }

    #[test]
    fn probe_rejoin_beats_cooldown() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Answer pings forever until the socket closes.
            use cbir_server::protocol::{
                decode_request, encode_response, read_frame, write_frame, Request, Response,
            };
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = std::io::BufWriter::new(stream);
            while let Ok(Some(payload)) = read_frame(&mut reader) {
                if !matches!(decode_request(&payload), Ok(Request::Ping)) {
                    break;
                }
                let resp = Response::Pong { db_len: 1, dim: 4 };
                if write_frame(&mut writer, &encode_response(&resp)).is_err() {
                    break;
                }
                if std::io::Write::flush(&mut writer).is_err() {
                    break;
                }
            }
        });
        let sc = shard_client(4, vec![addr.to_string()], Duration::from_secs(3600));
        let r = &sc.replicas()[0];
        // An hour-long cooldown would park the replica; one probe
        // success rejoins it immediately.
        sc.mark_unhealthy(r);
        assert!(!sc.is_healthy(r));
        sc.probe_replicas(Duration::from_millis(500));
        assert!(sc.is_healthy(r), "probe success must rejoin immediately");
        drop(sc);
        server.join().unwrap();
    }

    #[test]
    fn probe_failure_marks_a_healthy_replica_down() {
        // Grab a port and release it so nothing answers there.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let sc = shard_client(5, vec![addr], Duration::from_millis(50));
        let r = &sc.replicas()[0];
        assert!(sc.is_healthy(r));
        sc.probe_replicas(Duration::from_millis(200));
        assert!(
            !sc.is_healthy(r),
            "probe failure must mark the replica down"
        );
    }
}
