//! Server-side counters: admission outcomes, micro-batch shape, and
//! enqueue-to-reply latency tails.
//!
//! Every field is a relaxed atomic in fixed memory, the latency tail
//! included (one log-linear [`LogHistogram`] over the server's lifetime),
//! so recording a batch takes no lock and allocates nothing however long
//! the server runs, and a snapshot only reads counters. Beside them sits
//! the instance's `cbir-obs` [`Registry`], which its threads enter.

use crate::protocol::{Stat, StatsSnapshot};
use cbir_obs::{Block, Counters, EventLoopCounters, LogHistogram, ObsSnapshot, Registry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Inclusive upper bounds of the batch-size histogram buckets.
pub const BATCH_HIST_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, u64::MAX];

/// Shared counter block; one per server (and one per router, for its
/// own connection loop).
#[derive(Default)]
pub struct Metrics {
    /// One slot per [`StatsSnapshot`] row. `QueueDepth` and the latency
    /// quantiles are never recorded here: [`Metrics::snapshot`] fills
    /// them in.
    counters: Block<{ Stat::COUNT }>,
    open_conns: AtomicU64,
    batch_hist: Block<{ BATCH_HIST_BOUNDS.len() }>,
    latency_us: LogHistogram,
    registry: Registry,
}

impl Metrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Count one `stat` event: a request decoded, admitted, shed,
    /// refused at shutdown or answered with an error; a connection
    /// reaped after an I/O timeout; a batch panic isolated; an
    /// `epoll_wait` return.
    #[inline]
    pub fn count(&self, stat: Stat) {
        self.counters.add(stat, 1);
    }

    /// A connection was observed with `depth` requests concurrently in
    /// flight; the snapshot keeps the high-water mark.
    #[inline]
    pub fn on_pipeline_depth(&self, depth: u64) {
        self.counters.max(Stat::MaxPipelineDepth, depth);
    }

    /// Gauge: connections the event loop currently holds.
    pub fn set_open_conns(&self, n: usize) {
        self.open_conns.store(n as u64, Ordering::Relaxed);
    }

    /// The instance's registry: what its threads record into once they
    /// [`Registry::enter`] it.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The instance's `ObsStats` snapshot: its registry's counters, its
    /// event loop's, and the `queue_depth` requests waiting.
    pub fn obs_snapshot(&self, queue_depth: usize) -> ObsSnapshot {
        ObsSnapshot {
            queue_depth: queue_depth as u64,
            event_loop: EventLoopCounters {
                epoll_wakeups: self.counters.get(Stat::EpollWakeups),
                open_conns: self.open_conns.load(Ordering::Relaxed),
                max_pipeline_depth: self.counters.get(Stat::MaxPipelineDepth),
            },
            ..self.registry.snapshot()
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
        let c = &self.counters;
        c.add(Stat::Batches, 1);
        c.add(Stat::Expired, expired as u64);
        c.add(Stat::Executed, latencies_us.len() as u64);
        c.add(Stat::DistanceComputations, distance_computations);
        let bucket = BATCH_HIST_BOUNDS
            .iter()
            .position(|&b| size as u64 <= b)
            .expect("last bound is u64::MAX");
        self.batch_hist.add(bucket, 1);
        for &us in latencies_us {
            self.latency_us.record(us);
        }
    }

    /// Snapshot every counter; `queue_depth` is supplied by the caller
    /// (the queue lives in the scheduler, not here).
    pub fn snapshot(&self, queue_depth: usize) -> StatsSnapshot {
        let mut values = self.counters.load();
        values[Stat::QueueDepth as usize] = queue_depth as u64;
        values[Stat::LatencyP50Us as usize] = self.latency_us.quantile(50);
        values[Stat::LatencyP95Us as usize] = self.latency_us.quantile(95);
        StatsSnapshot {
            batch_hist: BATCH_HIST_BOUNDS
                .into_iter()
                .zip(self.batch_hist.load())
                .collect(),
            ..Default::default()
        }
        .with_values(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_recording_and_snapshot() {
        let m = Metrics::new();
        for _ in 0..10 {
            m.count(Stat::Requests);
        }
        for _ in 0..8 {
            m.count(Stat::Admitted);
        }
        m.count(Stat::Shed);
        m.count(Stat::RejectedShutdown);
        m.count(Stat::IoTimeouts);
        m.count(Stat::PanicsIsolated);
        m.count(Stat::EpollWakeups);
        m.count(Stat::EpollWakeups);
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
