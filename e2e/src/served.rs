//! What the workloads share: the run context, timed set-ups, the k-NN
//! phases against a served address, their summaries, and the oracle.

use crate::config::{Sizes, LANES, QUICK_DIVISOR, SETUPS, SLICES, WINDOW};
use crate::inputs::sub_seed;
use crate::load::{closed_loop, knn_halves, open_loop, KnnLane, ReplyLog, K};
use crate::report::{nums, Report};
use crate::stats::{
    backlog_at, exponential_schedule, highest, lowest, median, percentile, slices, sorted, Sample,
    Slice,
};
use cbir_core::QueryEngine;
use cbir_index::BatchStats;
use cbir_router::jsonmerge::Json;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One invocation's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: usize,
    pub quick: bool,
    /// Scratch directory of this process, inside `e2e/out/`.
    pub run_dir: PathBuf,
}

impl Ctx {
    pub fn rows(&self, sizes: &Sizes) -> usize {
        if self.quick {
            sizes.rows / QUICK_DIVISOR
        } else {
            sizes.rows
        }
    }

    /// Closed-loop ops of the run: the timed phase, or, in the traced
    /// leg, half as many for its two passes to share, which leaves time
    /// for the open loop and the replay.
    pub fn closed_ops(&self, sizes: &Sizes, trace: bool) -> usize {
        (sizes.closed_per_s * self.seconds).max(8 * SLICES) / if trace { 2 } else { 1 }
    }
}

/// The process's resident-set high-water mark.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Forget the high-water mark so far, so that `peak_rss_mb` is the
/// system's memory and not what preparing its inputs took. Best effort:
/// where `/proc/self/clear_refs` cannot be written the mark stays, and
/// the metric is still steady, only larger.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read store directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// Set the system up [`SETUPS`] times (once in the traced leg), tearing
/// down all but the last; returns the last and records `setup_s`, the
/// median set-up time.
pub fn timed_setups<S>(
    report: &mut Report,
    traced: bool,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> S {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&times));
    report.note("setups_s", nums(&times));
    last.expect("at least one set-up")
}

/// Alternate `ops` over the lanes.
pub fn deal(ops: Range<usize>) -> Vec<Vec<u32>> {
    (0..LANES)
        .map(|lane| {
            ops.clone()
                .skip(lane)
                .step_by(LANES)
                .map(|op| op as u32)
                .collect()
        })
        .collect()
}

/// Closed-loop k-NN: op `i` asks for `queries[i]`.
pub fn knn_closed(
    addr: SocketAddr,
    queries: &[Vec<f32>],
    recall_target: f32,
    keep_every: u32,
) -> (Vec<ReplyLog>, Vec<Sample>, Instant) {
    let lanes = (0..LANES)
        .map(|_| KnnLane::connect(addr, queries, recall_target, keep_every))
        .collect();
    let t0 = Instant::now();
    let (lanes, samples) = closed_loop(lanes, &deal(0..queries.len()), WINDOW, t0);
    (lanes.into_iter().map(|l| l.log).collect(), samples, t0)
}

/// The seeded arrival schedule of an open-loop pass.
pub fn paced_schedule(seed: u64, rate_per_s: usize, count: usize) -> Vec<u64> {
    exponential_schedule(sub_seed(seed, 77), rate_per_s as f64, count)
}

/// Open-loop k-NN at `rate_per_s`: op `i` asks for `queries[i]` at the
/// `i`-th arrival of the seeded schedule. Replies are checked for shape.
pub fn knn_paced(
    addr: SocketAddr,
    queries: &[Vec<f32>],
    recall_target: f32,
    rate_per_s: usize,
    seed: u64,
) -> Vec<Sample> {
    let mut logs: Vec<ReplyLog> = (0..LANES).map(|_| ReplyLog::new(u32::MAX)).collect();
    let lanes = logs
        .iter_mut()
        .map(|log| knn_halves(addr, queries, recall_target, log))
        .collect();
    open_loop(&paced_schedule(seed, rate_per_s, queries.len()), lanes)
}

/// Count a phase's ops and failures into the report.
pub fn count_ops(report: &mut Report, samples: &[Sample]) {
    report.attempted += samples.len() as u64;
    report.failed += samples.iter().filter(|s| !s.ok).count() as u64;
}

/// Ascending latencies of the samples `keep` selects.
pub fn latencies_ms(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    sorted(
        samples
            .iter()
            .filter(|s| keep(s))
            .map(Sample::latency_ms)
            .collect(),
    )
}

/// The best slice of a phase: its highest rate and its lowest latency
/// percentiles. The host is shared: other tenants slow a slice down
/// (memory bandwidth, wake-up latency) and never speed one up, so the
/// fastest of [`SLICES`] is the closest a run gets to the system's own
/// speed, and it repeats where the mean and the median do not. A slower
/// system has a slower best slice. Every slice is noted under `label`.
pub fn best_slice(report: &mut Report, label: &str, slices: &[Slice]) -> Slice {
    let column = |f: fn(&Slice) -> f64| slices.iter().map(f).collect::<Vec<f64>>();
    let (per_s, p50, p95) = (
        column(|s| s.per_s),
        column(|s| s.p50_ms),
        column(|s| s.p95_ms),
    );
    report.note(&format!("{label}_slices_per_s"), nums(&per_s));
    report.note(&format!("{label}_slices_p50_ms"), nums(&p50));
    report.note(&format!("{label}_slices_p95_ms"), nums(&p95));
    Slice {
        per_s: highest(per_s),
        p50_ms: lowest(p50),
        p95_ms: lowest(p95),
    }
}

/// Record a closed-loop phase: `throughput_per_s` and `p50_ms` of the
/// best slice, latencies over the samples `timed` picks. The slices'
/// p95 is noted, not reported: see "Differences" in the README.
pub fn closed_summary(report: &mut Report, samples: &[Sample], timed: impl Fn(&Sample) -> bool) {
    count_ops(report, samples);
    let best = best_slice(report, "closed", &slices(samples, SLICES, &timed));
    report.set("throughput_per_s", best.per_s);
    report.set("p50_ms", best.p50_ms);
    let lat = latencies_ms(samples, timed);
    report.note("latency_samples", Json::Num(lat.len() as f64));
    report.note("whole_phase_p50_ms", Json::Num(percentile(&lat, 50.0)));
    report.note("whole_phase_p95_ms", Json::Num(percentile(&lat, 95.0)));
    let ended_ns = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
    report.note("closed_phase_s", Json::Num(ended_ns as f64 / 1e9));
}

/// One open-loop pass; latency counts from the intended send.
pub struct Paced {
    pub best: Slice,
    /// How late the generator sent, p95.
    pub lag_p95_ms: f64,
    /// Ops sent but unanswered when the last op was due.
    pub backlog_end: usize,
}

pub fn paced_summary(report: &mut Report, label: &str, samples: &[Sample]) -> Paced {
    count_ops(report, samples);
    let lag = sorted(samples.iter().map(Sample::lag_ms).collect());
    let end_of_schedule = samples.iter().map(|s| s.intended_ns).max().unwrap_or(0);
    Paced {
        best: best_slice(report, label, &slices(samples, SLICES, |_| true)),
        lag_p95_ms: percentile(&lag, 95.0),
        backlog_end: backlog_at(samples, end_of_schedule),
    }
}

/// Kept replies against the exact in-process answer.
#[derive(Default)]
pub struct OracleVerdict {
    pub checked: usize,
    /// Replies equal to the oracle's, ids and distance bits alike.
    pub identical: usize,
    /// Summed `|reply ∩ oracle|`.
    pub common_hits: usize,
    /// Hits the oracle also returned, but at another distance.
    pub distance_mismatches: usize,
}

impl OracleVerdict {
    /// Mean share of the oracle's `K` neighbours a reply held.
    pub fn recall(&self) -> f64 {
        self.common_hits as f64 / (self.checked.max(1) * K) as f64
    }

    pub fn all_identical(&self) -> bool {
        self.checked > 0 && self.identical == self.checked
    }
}

/// Compare every kept reply with `oracle.knn_batch` over the same
/// query; `asked(op)` is the descriptor op `op` asked for.
pub fn oracle_verdict<'a>(
    oracle: &QueryEngine,
    logs: &[ReplyLog],
    asked: impl Fn(u32) -> &'a [f32],
) -> OracleVerdict {
    let kept: Vec<&(u32, Vec<(u64, u32)>)> = logs.iter().flat_map(|l| &l.kept).collect();
    let asked: Vec<Vec<f32>> = kept.iter().map(|(op, _)| asked(*op).to_vec()).collect();
    let exact = oracle
        .knn_batch(&asked, K, LANES, &mut BatchStats::new())
        .expect("oracle queries have the corpus's dim");
    let mut v = OracleVerdict {
        checked: kept.len(),
        ..OracleVerdict::default()
    };
    for ((_, got), want) in kept.iter().zip(&exact) {
        let want: Vec<(u64, u32)> = want
            .iter()
            .map(|r| (r.id as u64, r.distance.to_bits()))
            .collect();
        v.identical += usize::from(*got == want);
        for (id, bits) in got {
            if let Some((_, want_bits)) = want.iter().find(|(w, _)| w == id) {
                v.common_hits += 1;
                v.distance_mismatches += usize::from(bits != want_bits);
            }
        }
    }
    v
}
