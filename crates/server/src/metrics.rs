//! Server-side counters: admission outcomes, micro-batch shape, and
//! enqueue-to-reply latency tails.
//!
//! Every field is a relaxed atomic in fixed memory, the latency tail
//! included (one log-linear [`LogHistogram`] over the server's lifetime),
//! so recording a batch takes no lock and allocates nothing however long
//! the server runs, and a snapshot only reads counters.

use crate::protocol::StatsSnapshot;
use cbir_obs::LogHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Inclusive upper bounds of the batch-size histogram buckets.
pub const BATCH_HIST_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, u64::MAX];

/// Shared counter block; one per server.
#[derive(Default)]
pub struct Metrics {
    requests: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    rejected_shutdown: AtomicU64,
    expired: AtomicU64,
    executed: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    io_timeouts: AtomicU64,
    panics_isolated: AtomicU64,
    epoll_wakeups: AtomicU64,
    max_pipeline_depth: AtomicU64,
    open_conns: AtomicU64,
    distance_computations: AtomicU64,
    batch_hist: [AtomicU64; BATCH_HIST_BOUNDS.len()],
    latency_us: LogHistogram,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// A query request was decoded (before admission).
    pub fn on_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A request entered the bounded queue.
    pub fn on_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was shed because the queue was full.
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused because the server is shutting down.
    pub fn on_rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was answered with a per-request error.
    pub fn on_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was reaped after a read/write timeout (idle peer or
    /// stuck transfer).
    pub fn on_io_timeout(&self) {
        self.io_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A panic during batch execution was caught and converted into
    /// error replies for the affected group.
    pub fn on_panic_isolated(&self) {
        self.panics_isolated.fetch_add(1, Ordering::Relaxed);
    }

    /// The event loop returned from one `epoll_wait`.
    pub fn on_epoll_wakeup(&self) {
        self.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was observed with `depth` requests concurrently in
    /// flight; the snapshot keeps the high-water mark.
    pub fn on_pipeline_depth(&self, depth: u64) {
        self.max_pipeline_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Gauge: connections the event loop currently holds.
    pub fn set_open_conns(&self, n: usize) {
        self.open_conns.store(n as u64, Ordering::Relaxed);
    }

    /// This server's event-loop counters, for its `ObsStats` document.
    pub fn event_loop(&self) -> cbir_obs::EventLoopCounters {
        cbir_obs::EventLoopCounters {
            epoll_wakeups: self.epoll_wakeups.load(Ordering::Relaxed),
            open_conns: self.open_conns.load(Ordering::Relaxed),
            max_pipeline_depth: self.max_pipeline_depth.load(Ordering::Relaxed),
        }
    }

    /// Record one dispatched micro-batch: its size, how many of its
    /// members had already expired, each executed member's
    /// enqueue-to-reply latency, and the distance computations the engine
    /// spent on it.
    pub fn on_batch(
        &self,
        size: usize,
        expired: usize,
        latencies_us: &[u64],
        distance_computations: u64,
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.expired.fetch_add(expired as u64, Ordering::Relaxed);
        self.executed
            .fetch_add(latencies_us.len() as u64, Ordering::Relaxed);
        self.distance_computations
            .fetch_add(distance_computations, Ordering::Relaxed);
        let bucket = BATCH_HIST_BOUNDS
            .iter()
            .position(|&b| size as u64 <= b)
            .expect("last bound is u64::MAX");
        self.batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
        for &us in latencies_us {
            self.latency_us.record(us);
        }
    }

    /// Snapshot every counter; `queue_depth` is supplied by the caller
    /// (the queue lives in the scheduler, not here).
    pub fn snapshot(&self, queue_depth: usize) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            queue_depth: queue_depth as u64,
            latency_p50_us: self.latency_us.quantile(50),
            latency_p95_us: self.latency_us.quantile(95),
            distance_computations: self.distance_computations.load(Ordering::Relaxed),
            io_timeouts: self.io_timeouts.load(Ordering::Relaxed),
            panics_isolated: self.panics_isolated.load(Ordering::Relaxed),
            epoll_wakeups: self.epoll_wakeups.load(Ordering::Relaxed),
            max_pipeline_depth: self.max_pipeline_depth.load(Ordering::Relaxed),
            batch_hist: BATCH_HIST_BOUNDS
                .iter()
                .zip(&self.batch_hist)
                .map(|(&b, c)| (b, c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_recording_and_snapshot() {
        let m = Metrics::new();
        for _ in 0..10 {
            m.on_request();
        }
        for _ in 0..8 {
            m.on_admitted();
        }
        m.on_shed();
        m.on_rejected_shutdown();
        m.on_io_timeout();
        m.on_panic_isolated();
        m.on_epoll_wakeup();
        m.on_epoll_wakeup();
        m.on_pipeline_depth(4);
        m.on_pipeline_depth(2);

        m.on_batch(5, 1, &[100, 200, 300, 400], 40);
        m.on_batch(1, 0, &[50], 0);

        let snap = m.snapshot(3);
        assert_eq!(snap.requests, 10);
        assert_eq!(snap.admitted, 8);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.rejected_shutdown, 1);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.executed, 5);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.distance_computations, 40);
        assert_eq!(snap.io_timeouts, 1);
        assert_eq!(snap.panics_isolated, 1);
        assert_eq!(snap.epoll_wakeups, 2);
        assert_eq!(snap.max_pipeline_depth, 4, "high-water mark, not last");
        assert_eq!(snap.latency_p50_us, LogHistogram::upper_bound(200));
        assert_eq!(snap.latency_p95_us, LogHistogram::upper_bound(400));
        // Size 5 lands in the `<= 8` bucket, size 1 in `<= 1`.
        let hist: std::collections::BTreeMap<u64, u64> = snap.batch_hist.into_iter().collect();
        assert_eq!(hist[&1], 1);
        assert_eq!(hist[&8], 1);
        assert_eq!(hist.values().sum::<u64>(), 2);
    }

    #[test]
    fn latency_tail_keeps_moving_past_the_sample_cap() {
        const CAP: usize = 1 << 20;
        let m = Metrics::new();
        let feed = |us: u64, samples: usize| {
            let batch = vec![us; 4096];
            for _ in 0..samples / batch.len() {
                m.on_batch(batch.len(), 0, &batch, 0);
            }
        };
        let bound = LogHistogram::upper_bound;
        feed(100, CAP);
        let full = m.snapshot(0);
        assert_eq!(
            (full.latency_p50_us, full.latency_p95_us),
            (bound(100), bound(100))
        );
        // The server turns slow for good: once the slow samples are the
        // majority of its lifetime, both percentiles follow them.
        feed(900, 4096);
        feed(900, CAP);
        let moved = m.snapshot(0);
        assert_eq!(
            (moved.latency_p50_us, moved.latency_p95_us),
            (bound(900), bound(900))
        );
        assert_eq!(moved.executed as usize, 2 * CAP + 4096);
    }
}
