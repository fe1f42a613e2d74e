//! Per-query trace capture: a sampled ring buffer of stage timelines.
//!
//! Tracing is **bit-invisible**: a trace only observes the timings and
//! counters of a query that executes exactly as it would untraced. It is
//! also off by default — [`set_trace_sample_n`](crate::set_trace_sample_n)
//! with `n = 0` (the initial state) disables sampling entirely, `n = 1`
//! traces every query, and `n > 1` traces every n-th query (by its
//! registry's sequence number). The rate is the process's; each
//! registry keeps its own sequence and ring.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the trace ring; older traces are dropped once full.
pub const TRACE_RING_CAP: usize = 64;

/// One timed stage inside a traced query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage name (`"extract"`, `"search"`, `"rank"`, ...).
    pub name: &'static str,
    /// Offset from the start of the query, nanoseconds.
    pub start_ns: u64,
    /// Stage duration, nanoseconds.
    pub dur_ns: u64,
}

/// The recorded timeline and counters of one sampled query (or one
/// batched engine call, for the batch entry points).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// Its registry's query sequence number at capture time.
    pub seq: u64,
    /// Operation (`"knn"`, `"range"`, `"knn_batch"`, ...).
    pub op: &'static str,
    /// Index kind that served the query (`"vp-tree"`, `"linear"`, ...).
    pub index: &'static str,
    /// Queries covered by this trace (1 for single-query ops).
    pub queries: u64,
    /// End-to-end duration, nanoseconds.
    pub total_ns: u64,
    /// Stage timeline, in execution order.
    pub spans: Vec<TraceSpan>,
    /// Full distance evaluations during the traced call.
    pub distance_evaluations: u64,
    /// Index nodes visited during the traced call.
    pub nodes_visited: u64,
    /// Subtrees excluded by a pruning bound during the traced call.
    pub subtrees_pruned: u64,
    /// Candidates surfaced for exact-distance evaluation.
    pub postfilter_candidates: u64,
    /// Coarse-stage candidates from a two-stage approximate query (zero
    /// on the exact path).
    pub coarse_candidates: u64,
    /// Exact rerank evaluations from a two-stage approximate query (zero
    /// on the exact path).
    pub rerank_evaluations: u64,
    /// Result rows returned (summed over the batch for batch ops).
    pub results: u64,
}

pub(crate) struct TraceRing {
    seq: AtomicU64,
    ring: Mutex<VecDeque<QueryTrace>>,
}

impl TraceRing {
    pub(crate) const fn new() -> Self {
        TraceRing {
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Advance the query sequence number and decide whether this query is
    /// sampled at one in `n`. Returns the sequence number when it is.
    pub(crate) fn should_sample(&self, n: u64) -> Option<u64> {
        if n == 0 {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        seq.is_multiple_of(n).then_some(seq)
    }

    pub(crate) fn push(&self, trace: QueryTrace) {
        let mut ring = self.ring.lock().expect("trace ring lock");
        if ring.len() == TRACE_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    pub(crate) fn latest(&self) -> Option<QueryTrace> {
        self.ring.lock().expect("trace ring lock").back().cloned()
    }

    pub(crate) fn all(&self) -> Vec<QueryTrace> {
        self.ring
            .lock()
            .expect("trace ring lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Traces held, counted under the lock (no clone).
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().expect("trace ring lock").len()
    }

    pub(crate) fn reset(&self) {
        self.seq.store(0, Ordering::Relaxed);
        self.ring.lock().expect("trace ring lock").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seq: u64) -> QueryTrace {
        QueryTrace {
            seq,
            op: "knn",
            index: "linear",
            queries: 1,
            total_ns: 10,
            spans: vec![TraceSpan {
                name: "search",
                start_ns: 0,
                dur_ns: 10,
            }],
            distance_evaluations: 5,
            nodes_visited: 1,
            subtrees_pruned: 0,
            postfilter_candidates: 5,
            coarse_candidates: 0,
            rerank_evaluations: 0,
            results: 3,
        }
    }

    #[test]
    fn sampling_off_by_default() {
        let ring = TraceRing::new();
        assert_eq!(ring.should_sample(0), None);
        assert_eq!(ring.should_sample(1), Some(0));
        assert_eq!(ring.should_sample(1), Some(1));
        // seq is at 2 now: 2 % 3 != 0, 3 % 3 == 0.
        assert_eq!(ring.should_sample(3), None);
        assert_eq!(ring.should_sample(3), Some(3));
    }

    #[test]
    fn ring_keeps_the_latest_traces() {
        let ring = TraceRing::new();
        for i in 0..(TRACE_RING_CAP as u64 + 5) {
            ring.push(trace(i));
        }
        let all = ring.all();
        assert_eq!(all.len(), TRACE_RING_CAP);
        assert_eq!(ring.len(), TRACE_RING_CAP);
        assert_eq!(all.first().unwrap().seq, 5);
        assert_eq!(ring.latest().unwrap().seq, TRACE_RING_CAP as u64 + 4);
        ring.reset();
        assert!(ring.latest().is_none());
    }
}
