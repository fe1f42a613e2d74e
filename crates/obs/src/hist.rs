//! Fixed-bucket log-linear histograms with lock-free recording.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave, as a power of two: values below
/// `1 << SUB_BITS` get a bucket each, and every octave above is split
/// into `1 << SUB_BITS` equal sub-buckets.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;

/// Number of buckets: the exact ones below [`SUB`], then [`SUB`] per
/// octave for bit lengths `SUB_BITS + 1 ..= 64`.
const BUCKETS: usize = SUB + SUB * (u64::BITS - SUB_BITS) as usize;

/// A log-linear histogram of `u64` samples (latencies in microseconds,
/// typically). Values below 16 have a bucket each; the octave
/// `[2^m, 2^(m+1) - 1]` for `m ≥ 4` is split into 16 buckets of width
/// `2^(m-4)`. Recording is three relaxed fetch-adds, so the histogram is
/// safe to update from any number of threads on the hot path, and its
/// memory is fixed however long it records.
///
/// Quantiles are estimated by walking the cumulative counts and reporting
/// the **inclusive upper bound** of the bucket containing the requested
/// rank: exact below 16, and above it at most 1/16 over the sample.
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Bucket index for a sample.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    // The bit length past SUB_BITS picks the octave, the SUB_BITS bits
    // under the leading one pick the sub-bucket.
    let shift = u64::BITS - SUB_BITS - 1 - value.leading_zeros();
    let sub = (value >> shift) as usize - SUB;
    SUB * (shift as usize + 1) + sub
}

/// Inclusive upper bound of bucket `b`.
#[inline]
fn bucket_bound(bucket: usize) -> u64 {
    if bucket < SUB {
        return bucket as u64;
    }
    let shift = (bucket / SUB - 1) as u32;
    let low = ((SUB + bucket % SUB) as u64) << shift;
    low + ((1u64 << shift) - 1)
}

/// Nearest-rank quantile over `(inclusive upper bound, count)` buckets
/// in bound order, read twice: once for the total, once to find the
/// rank. A count that grows in between only lets the walk stop sooner.
pub(crate) fn quantile_of(buckets: impl Iterator<Item = (u64, u64)> + Clone, q: u64) -> u64 {
    let total: u64 = buckets.clone().map(|(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    // Nearest rank, the convention `cbir_index::BatchStats`' p50/p95 use.
    let rank = (q * total).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (bound, c) in buckets {
        seen += c;
        if seen >= rank {
            return bound;
        }
    }
    u64::MAX
}

/// Every bucket as `(inclusive upper bound, count)`, in bound order.
fn bounded(counts: impl Iterator<Item = u64> + Clone) -> impl Iterator<Item = (u64, u64)> + Clone {
    counts.enumerate().map(|(i, c)| (bucket_bound(i), c))
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A fresh, zeroed histogram.
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`; the inline-const repeat builds the
        // array element by element.
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The inclusive upper bound of `value`'s bucket: what a quantile
    /// whose rank lands on `value` reports.
    pub fn upper_bound(value: u64) -> u64 {
        bucket_bound(bucket_of(value))
    }

    /// Record one sample (relaxed atomics; never blocks).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile estimate: the inclusive upper bound of the
    /// bucket containing the `q`-quantile sample (`q` in 0..=100). Returns
    /// 0 when the histogram is empty.
    pub fn quantile(&self, q: u64) -> u64 {
        quantile_of(bounded(self.loads()), q)
    }

    /// Sum of all samples (wraps on overflow; practically unreachable for
    /// microsecond latencies).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Every bucket that holds a sample, as `(inclusive upper bound,
    /// count)` pairs in bound order: the histogram as plain data.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        bounded(self.loads()).filter(|&(_, c)| c > 0).collect()
    }

    fn loads(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed))
    }

    /// Zero every bucket and the count/sum.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value up to 2¹⁶, and 2ᵏ − 1, 2ᵏ, 2ᵏ + 1 for every k, then
    /// `u64::MAX`; ascending.
    fn probe_values() -> Vec<u64> {
        let mut v: Vec<u64> = (0..=1u64 << 16).collect();
        for k in 0..64 {
            let p = 1u64 << k;
            v.extend([p - 1, p, p + 1]);
        }
        v.push(u64::MAX);
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn bucketing_rule() {
        let mut prev_bucket = 0;
        for v in probe_values() {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "{v} -> bucket {b}");
            let bound = bucket_bound(b);
            assert!(v <= bound, "{v} above its bucket's bound {bound}");
            if v < 16 {
                assert_eq!(bound, v, "{v} is not exact");
            } else {
                assert!(bound - v <= v / 16, "{v} -> {bound}: more than 1/16 over");
            }
            assert!(b >= prev_bucket, "bucket_of not monotone at {v}");
            prev_bucket = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for b in 1..BUCKETS {
            // Bounds strictly increase, and each bucket starts right
            // after the previous one ends.
            assert!(bucket_bound(b) > bucket_bound(b - 1), "bound {b}");
            assert_eq!(bucket_of(bucket_bound(b - 1) + 1), b);
        }
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_and_quantiles() {
        let h = LogHistogram::new();
        for v in [0u64, 1, 5, 5, 7, 100, 1000] {
            h.record(v);
        }
        assert_eq!((h.count(), h.sum()), (7, 1118));
        let pairs = h.buckets();
        let bound = LogHistogram::upper_bound;
        assert_eq!(
            pairs,
            [(0, 1), (1, 1), (5, 2), (7, 1), (bound(100), 1), (1023, 1)]
        );
        // The plain-data buckets give the live histogram's quantiles.
        for q in [0, 50, 95, 99, 100] {
            assert_eq!(h.quantile(q), quantile_of(pairs.iter().copied(), q), "q{q}");
        }
        // Rank 4 of 7 at p50 is the second 5, exact below 16.
        assert_eq!(h.quantile(50), 5);
        // The p99 rank is the largest sample's bucket, [992, 1023].
        assert_eq!(h.quantile(99), bound(1000));
        assert_eq!(h.quantile(99), 1023);
        h.reset();
        assert_eq!((h.count(), h.sum(), h.buckets()), (0, 0, vec![]));
        assert_eq!(h.quantile(50), 0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!((h.count(), h.sum()), (0, 0));
        assert!(h.buckets().is_empty());
        assert_eq!(h.quantile(95), 0);
    }
}
