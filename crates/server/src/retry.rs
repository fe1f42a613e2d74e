//! Client-side fault handling: transparent reconnect and bounded
//! exponential backoff with jitter for transient failures.
//!
//! [`RetryingClient`] wraps the blocking [`Client`] with a retry loop.
//! Only errors classified transient by [`ClientError::is_transient`]
//! (lost connections, timeouts, refused connects, overload shedding)
//! are retried; protocol violations and explicit server errors pass
//! straight through. Between attempts the client sleeps an
//! exponentially growing, jittered backoff bounded by
//! [`RetryPolicy::max_backoff`], and the whole loop honors the caller's
//! request deadline: a retry is never attempted if its backoff would
//! overrun the remaining budget, and each resent request carries only
//! the budget that remains.
//!
//! Retries are counted client-side (in [`RetryStats`]) rather than on
//! the server's wire counters — a resent request is indistinguishable
//! from a fresh one at the server, so only the client can know.

use crate::client::{Client, ClientError, ClientResult};
use crate::protocol::{Hit, StatsSnapshot};
use std::time::{Duration, Instant};

/// Bounds for the retry loop.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (so `max_retries = 3` means up
    /// to 4 attempts).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter (tests fix it; production can
    /// use any value, e.g. a connection counter).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The default bounds with a caller-chosen jitter seed. Fault sweeps
    /// construct every client through this so two runs of the same sweep
    /// replay the exact same backoff schedule — the retry-timing analog
    /// of `core::faults`' seeded fault scripts.
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy {
            jitter_seed: seed,
            ..RetryPolicy::default()
        }
    }
}

/// What the retry loop did, observable for tests and operators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests resent after a transient failure.
    pub retries: u64,
    /// Fresh connections established after the first.
    pub reconnects: u64,
}

/// A [`Client`] with transparent reconnect + backoff on transient
/// failures.
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    client: Option<Client>,
    stats: RetryStats,
    rng: u64,
}

impl std::fmt::Debug for RetryingClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryingClient")
            .field("addr", &self.addr)
            .field("policy", &self.policy)
            .field("connected", &self.client.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RetryingClient {
    /// Connect to `addr` (e.g. `"127.0.0.1:7878"`). The initial connect
    /// itself is retried under the policy.
    pub fn connect(addr: impl Into<String>, policy: RetryPolicy) -> ClientResult<RetryingClient> {
        let rng = policy.jitter_seed | 1;
        let mut c = RetryingClient {
            addr: addr.into(),
            policy,
            client: None,
            stats: RetryStats::default(),
            rng,
        };
        c.call(0, |client, _| client.ping().map(|_| ()))?;
        Ok(c)
    }

    /// Like [`RetryingClient::connect`] but without touching the network:
    /// the first operation establishes the connection (under its own
    /// deadline and retry budget). Useful when the server may not be up
    /// yet, or when the caller wants connection errors attributed to the
    /// operation that needed the connection.
    pub fn new_disconnected(addr: impl Into<String>, policy: RetryPolicy) -> RetryingClient {
        let rng = policy.jitter_seed | 1;
        RetryingClient {
            addr: addr.into(),
            policy,
            client: None,
            stats: RetryStats::default(),
            rng,
        }
    }

    /// What the retry loop has done so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// The configured policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// k-NN with reconnect/backoff. `deadline_us` (0 = none) bounds the
    /// *whole* call including retries and backoff sleeps; the server
    /// sees only the remaining budget on each attempt.
    pub fn knn(
        &mut self,
        descriptor: &[f32],
        k: usize,
        deadline_us: u64,
        recall_target: f32,
    ) -> ClientResult<Vec<Hit>> {
        self.call(deadline_us, |client, remaining_us| {
            client.knn(descriptor, k, remaining_us, recall_target)
        })
    }

    /// Range search with reconnect/backoff (deadline semantics as
    /// [`RetryingClient::knn`]).
    pub fn range(
        &mut self,
        descriptor: &[f32],
        radius: f32,
        deadline_us: u64,
    ) -> ClientResult<Vec<Hit>> {
        self.call(deadline_us, |client, remaining_us| {
            client.range(descriptor, radius, remaining_us)
        })
    }

    /// k-NN by database id with reconnect/backoff (deadline semantics
    /// as [`RetryingClient::knn`]).
    pub fn knn_by_id(
        &mut self,
        id: usize,
        k: usize,
        deadline_us: u64,
        recall_target: f32,
    ) -> ClientResult<Vec<Hit>> {
        self.call(deadline_us, |client, remaining_us| {
            client.knn_by_id(id, k, remaining_us, recall_target)
        })
    }

    /// Liveness probe with reconnect/backoff.
    pub fn ping(&mut self) -> ClientResult<(u64, u32)> {
        self.call(0, |client, _| client.ping())
    }

    /// Server counters with reconnect/backoff.
    pub fn stats(&mut self) -> ClientResult<StatsSnapshot> {
        self.call(0, |client, _| client.stats())
    }

    /// Graceful server shutdown; not retried past a lost connection
    /// (a vanished server has already stopped).
    pub fn shutdown(&mut self) -> ClientResult<()> {
        let client = self.ensure_connected()?;
        client.shutdown()
    }

    fn ensure_connected(&mut self) -> ClientResult<&mut Client> {
        if self.client.is_none() {
            let fresh = Client::connect(self.addr.as_str()).map_err(ClientError::from)?;
            if self.stats.reconnects > 0 || self.stats.retries > 0 {
                self.stats.reconnects += 1;
            }
            self.client = Some(fresh);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// The retry loop shared by every operation, for callers that need
    /// more of a reply than the wrappers above return (e.g.
    /// [`Client::knn_detailed`]). `deadline_us == 0` means no deadline;
    /// otherwise it is the total budget from now, and each attempt is
    /// handed what remains of it as `op`'s second argument.
    pub fn call<T>(
        &mut self,
        deadline_us: u64,
        mut op: impl FnMut(&mut Client, u64) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let start = Instant::now();
        let budget = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
        let mut attempt: u32 = 0;
        // The most recent transient failure. When the budget runs out the
        // caller gets *this* back, not a generic timeout: "every retry hit
        // an overloaded server" and "the replica is gone" demand different
        // operator responses, and only the underlying error tells them
        // apart.
        let mut last_err: Option<ClientError> = None;
        loop {
            let result = match self.ensure_connected() {
                Ok(client) => {
                    let remaining_us = match budget {
                        None => 0,
                        Some(b) => match b.checked_sub(start.elapsed()) {
                            Some(rem) if !rem.is_zero() => rem.as_micros() as u64,
                            // Budget already gone before the attempt.
                            _ => {
                                return Err(last_err.take().unwrap_or_else(|| {
                                    ClientError::Rejected(
                                        crate::client::Rejection::DeadlineExpired(
                                            "deadline exhausted before attempt".into(),
                                        ),
                                    )
                                }));
                            }
                        },
                    };
                    op(client, remaining_us)
                }
                Err(e) => Err(e),
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            // A failed conversation leaves the stream in an unknown
            // framing state; reconnect rather than resynchronize.
            if matches!(err, ClientError::ConnectionLost(_) | ClientError::Io(_)) {
                self.client = None;
            }
            if !err.is_transient() || attempt >= self.policy.max_retries {
                return Err(err);
            }
            let backoff = self.backoff_for(attempt);
            if let Some(b) = budget {
                if start.elapsed() + backoff >= b {
                    // Sleeping would overrun the caller's deadline:
                    // surface the transient error instead of lying.
                    return Err(err);
                }
            }
            std::thread::sleep(backoff);
            attempt += 1;
            self.stats.retries += 1;
            last_err = Some(err);
        }
    }

    /// Exponential backoff with deterministic jitter: `base * 2^attempt`
    /// capped at `max_backoff`, scaled by a factor in `[0.5, 1.0)`.
    fn backoff_for(&mut self, attempt: u32) -> Duration {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.policy.max_backoff);
        // xorshift64* step for the jitter scale.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let scale = 0.5
            + 0.5 * ((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64);
        Duration::from_nanos((exp.as_nanos() as f64 * scale) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_within_bounds() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 42,
        };
        let mut c = RetryingClient {
            addr: "unused".into(),
            policy: policy.clone(),
            client: None,
            stats: RetryStats::default(),
            rng: policy.jitter_seed | 1,
        };
        let mut prev_cap = Duration::ZERO;
        for attempt in 0..10 {
            let cap = policy
                .base_backoff
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(policy.max_backoff);
            for _ in 0..32 {
                let b = c.backoff_for(attempt);
                assert!(b <= cap, "attempt {attempt}: {b:?} above cap {cap:?}");
                assert!(
                    b >= cap / 2,
                    "attempt {attempt}: {b:?} below jitter floor {:?}",
                    cap / 2
                );
            }
            assert!(cap >= prev_cap, "cap must be monotone");
            prev_cap = cap;
        }
        // The cap saturates at max_backoff.
        assert_eq!(prev_cap, policy.max_backoff);
    }

    #[test]
    fn jitter_is_deterministic_for_a_seed() {
        let mk = || RetryingClient {
            addr: "unused".into(),
            policy: RetryPolicy {
                jitter_seed: 7,
                ..RetryPolicy::default()
            },
            client: None,
            stats: RetryStats::default(),
            rng: 7 | 1,
        };
        let (mut a, mut b) = (mk(), mk());
        for attempt in 0..8 {
            assert_eq!(a.backoff_for(attempt), b.backoff_for(attempt));
        }
    }

    #[test]
    fn seeded_policies_replay_identical_backoff_schedules() {
        let mk = |seed| RetryingClient::new_disconnected("unused", RetryPolicy::seeded(seed));
        let (mut a, mut b) = (mk(17), mk(17));
        let schedule_a: Vec<_> = (0..8).map(|i| a.backoff_for(i)).collect();
        let schedule_b: Vec<_> = (0..8).map(|i| b.backoff_for(i)).collect();
        assert_eq!(schedule_a, schedule_b, "same seed, same schedule");
        let mut c = mk(18);
        let schedule_c: Vec<_> = (0..8).map(|i| c.backoff_for(i)).collect();
        assert_ne!(schedule_a, schedule_c, "different seed, different jitter");
    }

    #[test]
    fn deadline_exhaustion_surfaces_last_underlying_error() {
        use crate::client::Rejection;
        // A listener that accepts (so ensure_connected succeeds) without
        // ever speaking — the op below never touches the socket.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accept = std::thread::spawn(move || while listener.accept().is_ok() {});

        let mut c = RetryingClient::new_disconnected(
            addr,
            RetryPolicy {
                max_retries: 100,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
        );
        // Every attempt burns past the remaining budget and fails with a
        // *specific* transient rejection. When the 20ms budget is gone,
        // that rejection — not a synthesized DeadlineExpired — must come
        // back: "all retries were shed by an overloaded server" and
        // "deadline too tight" call for different fixes.
        let err = c
            .call(20_000, |_, remaining_us| -> ClientResult<()> {
                std::thread::sleep(Duration::from_micros(remaining_us) + Duration::from_millis(1));
                Err(ClientError::Rejected(Rejection::Overloaded(
                    "queue full".into(),
                )))
            })
            .expect_err("budget must run out");
        match err {
            ClientError::Rejected(Rejection::Overloaded(m)) => assert_eq!(m, "queue full"),
            other => panic!("expected the last Overloaded rejection, got: {other}"),
        }
        drop(c);
        drop(accept);
    }

    #[test]
    fn refused_connection_exhausts_retries_with_transient_error() {
        // Nothing listens on this port (bound-then-dropped): connect is
        // refused, retried max_retries times, then surfaced.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let started = Instant::now();
        let err = RetryingClient::connect(
            addr,
            RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                ..RetryPolicy::default()
            },
        )
        .expect_err("connect to a dead port must fail");
        assert!(err.is_transient(), "refused connect is transient: {err}");
        // 2 retries with ~1ms and ~2ms backoff: well under a second.
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
