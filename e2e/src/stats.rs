//! Order statistics, equal-count slices of a phase, and the open-loop
//! schedule with its lag and backlog accounting.

use cbir_workload::Pcg32;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `values`.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them, so `--repeat` judges spread the way the pipeline does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let s = sorted(values.to_vec());
    let n = s.len();
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// One equal-count slice of a phase, in completion order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    /// Correct ops completed per second of the slice.
    pub per_s: f64,
    /// Latency percentiles of the slice's timed ops (`0` if it has none).
    pub p50_ms: f64,
    pub p95_ms: f64,
}

/// Cut a phase into `k` equal-count slices by completion time. A slice
/// lasts from the previous slice's last completion (the phase began at
/// `0`) to its own; `timed` picks the ops whose latency counts.
pub fn slices(samples: &[Sample], k: usize, timed: impl Fn(&Sample) -> bool) -> Vec<Slice> {
    assert!(k > 0 && samples.len() >= k, "a slice needs at least one op");
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.done_ns);
    let mut start = 0usize;
    let mut began_ns = 0u64;
    (1..=k)
        .map(|i| {
            let end = order.len() * i / k;
            let slice = &order[start..end];
            let ended_ns = slice[slice.len() - 1].done_ns;
            let ok = slice.iter().filter(|s| s.ok).count();
            let lat = sorted(
                slice
                    .iter()
                    .filter(|s| timed(s))
                    .map(|s| s.latency_ms())
                    .collect(),
            );
            let pct = |p| {
                if lat.is_empty() {
                    0.0
                } else {
                    percentile(&lat, p)
                }
            };
            let out = Slice {
                per_s: ok as f64 / ((ended_ns - began_ns).max(1) as f64 / 1e9),
                p50_ms: pct(50.0),
                p95_ms: pct(95.0),
            };
            start = end;
            began_ns = ended_ns;
            out
        })
        .collect()
}

/// The largest of `values`.
pub fn highest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// The smallest of `values`.
pub fn lowest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Intended send times, in nanoseconds from the start of the schedule,
/// of `count` arrivals with seeded exponential gaps at `rate_per_s`.
pub fn exponential_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = Pcg32::new(seed);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            // next_f32 is in [0, 1), so the logarithm is finite.
            at += -(1.0 - rng.next_f32() as f64).ln() / rate_per_s;
            (at * 1e9) as u64
        })
        .collect()
}

/// One op as the load generator saw it; times are nanoseconds since the
/// phase began. In a closed loop `intended_ns == sent_ns`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub op: u32,
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub ok: bool,
}

impl Sample {
    /// Latency from the *intended* send time, so a generator or server
    /// stall is charged to every op it delayed.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.intended_ns) as f64 / 1e6
    }

    /// How late the generator sent the op.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_ns - self.intended_ns) as f64 / 1e6
    }
}

/// Ops sent but unanswered at `at_ns`.
pub fn backlog_at(samples: &[Sample], at_ns: u64) -> usize {
    samples
        .iter()
        .filter(|s| s.sent_ns <= at_ns && s.done_ns > at_ns)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 1.0);
        // Nearest rank never interpolates: 5 samples, p50 is the third.
        assert_eq!(percentile(&[1.0, 2.0, 10.0, 20.0, 30.0], 50.0), 10.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn slices_are_cut_by_completion_and_one_stall_stays_in_its_slice() {
        // 10 ops 100 ms apart, each taking 50 ms, except that op 4 stalls
        // a second. Given out of order: two connections interleave.
        let mut t = 0u64;
        let mut samples: Vec<Sample> = (0..10)
            .map(|op| {
                t += if op == 4 { 1_100_000_000 } else { 100_000_000 };
                let sent_ns = t - if op == 4 { 1_050_000_000 } else { 50_000_000 };
                Sample {
                    op,
                    intended_ns: sent_ns,
                    sent_ns,
                    done_ns: t,
                    ok: true,
                }
            })
            .collect();
        samples.reverse();
        let f = slices(&samples, 5, |_| true);
        assert!((f[0].per_s - 10.0).abs() < 1e-9);
        assert!((f[2].per_s - 2.0 / 1.2).abs() < 1e-9);
        assert_eq!(f[0].p50_ms, 50.0);
        assert_eq!(f[2].p95_ms, 1050.0);
        assert_eq!(highest(f.iter().map(|f| f.per_s)), f[0].per_s);
        assert_eq!(lowest(f.iter().map(|f| f.p95_ms)), 50.0);
        // Failed ops complete but do not count; untimed ops have no latency.
        samples[0].ok = false;
        let f = slices(&samples, 5, |s| s.op != 8);
        assert!((f[4].per_s - 5.0).abs() < 1e-9);
        assert_eq!(f[4].p50_ms, 50.0);
    }

    #[test]
    fn schedule_is_seeded_increasing_and_at_rate() {
        let a = exponential_schedule(9, 500.0, 20_000);
        assert_eq!(a, exponential_schedule(9, 500.0, 20_000));
        assert_ne!(a, exponential_schedule(10, 500.0, 20_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 20,000 arrivals at 500/s take 40 s give or take a few percent.
        let secs = *a.last().unwrap() as f64 / 1e9;
        assert!((secs - 40.0).abs() < 2.0, "schedule lasted {secs} s");
        // Exponential gaps: the mean gap equals their standard deviation.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05);
    }

    #[test]
    fn latency_counts_from_intended_send() {
        // The generator was 3 ms late; the server took 2 ms.
        let s = Sample {
            op: 0,
            intended_ns: 10_000_000,
            sent_ns: 13_000_000,
            done_ns: 15_000_000,
            ok: true,
        };
        assert_eq!(s.latency_ms(), 5.0);
        assert_eq!(s.lag_ms(), 3.0);
    }

    #[test]
    fn backlog_counts_sent_and_unanswered() {
        let s = |sent_ns, done_ns| Sample {
            op: 0,
            intended_ns: sent_ns,
            sent_ns,
            done_ns,
            ok: true,
        };
        let samples = [s(0, 5), s(1, 20), s(2, 30), s(25, 40)];
        assert_eq!(backlog_at(&samples, 10), 2); // second and third
        assert_eq!(backlog_at(&samples, 26), 2); // third and fourth
        assert_eq!(backlog_at(&samples, 40), 0);
    }
}
