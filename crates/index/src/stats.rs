//! Query cost accounting. Distance computations are the hardware-
//! independent cost model used throughout the evaluation; node visits track
//! traversal overhead.
//!
//! The counters mean the same thing on every index, the sequential scan
//! included: `distance_computations` counts *full* evaluations of the
//! measure, and `subtrees_pruned` counts what a bound excluded without
//! one. A [`LinearScan`](crate::LinearScan) whose exact L1 filter is in
//! force therefore reports its survivors as computations and the rows
//! its code bound skipped as pruned — each row is one or the other, so
//! the two add up to `len()`, the rows the scan scored.

/// Counters accumulated during a single query (or a batch, if reused).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Full distance evaluations performed.
    pub distance_computations: u64,
    /// Index nodes (internal or leaf) visited.
    pub nodes_visited: u64,
    /// Subtrees excluded by a pruning bound without being visited. For
    /// linear scan, the rows its exact L1 filter excluded by their code
    /// bound — zero whenever the filter is not in force (another measure,
    /// a small source, a query that left it from the first row).
    pub subtrees_pruned: u64,
    /// Candidates that survived pruning and were scored with a full
    /// distance evaluation. For linear scan this equals
    /// `distance_computations` (the database size without the filter); for
    /// tree indexes it counts leaf-level candidate scorings (routing-level
    /// evaluations are excluded, so it is ≤ `distance_computations`).
    pub postfilter_candidates: u64,
    /// Candidates surfaced by the coarse stage of a two-stage approximate
    /// search (see [`crate::ApproxSearch`]). Zero on the exact path.
    pub coarse_candidates: u64,
    /// Exact distance evaluations spent reranking coarse candidates. Zero
    /// on the exact path; on the approximate path these are also counted
    /// in `distance_computations` (they are full evaluations).
    pub rerank_evaluations: u64,
}

impl SearchStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        SearchStats::default()
    }

    /// Reset to zero in place (for reuse across queries).
    pub fn reset(&mut self) {
        *self = SearchStats::default();
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.distance_computations += other.distance_computations;
        self.nodes_visited += other.nodes_visited;
        self.subtrees_pruned += other.subtrees_pruned;
        self.postfilter_candidates += other.postfilter_candidates;
        self.coarse_candidates += other.coarse_candidates;
        self.rerank_evaluations += other.rerank_evaluations;
    }
}

/// Aggregated counters for a batch of queries: the grand totals plus
/// every query's own counters, for tail summaries (p50/p95) and for a
/// caller that answers each query with what it alone cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    total: SearchStats,
    per_query: Vec<SearchStats>,
}

impl BatchStats {
    /// Fresh, empty aggregation.
    pub fn new() -> Self {
        BatchStats::default()
    }

    /// Record one query's counters.
    pub fn record(&mut self, stats: &SearchStats) {
        self.total.merge(stats);
        self.per_query.push(stats.clone());
    }

    /// Append another batch's per-query samples and totals. Query order is
    /// preserved: `other`'s queries follow this batch's.
    pub fn merge(&mut self, other: &BatchStats) {
        self.total.merge(&other.total);
        self.per_query.extend_from_slice(&other.per_query);
    }

    /// Add another batch's counters query by query. `other` must record
    /// the same queries in the same order, searched over a further part
    /// of the data (the next segment of a store, say): each query's
    /// sample becomes its sum over both parts.
    ///
    /// # Panics
    ///
    /// If the two batches record different numbers of queries.
    pub fn add_per_query(&mut self, other: &BatchStats) {
        assert_eq!(
            self.queries(),
            other.queries(),
            "per-query addition needs the same queries on both sides"
        );
        self.total.merge(&other.total);
        for (mine, theirs) in self.per_query.iter_mut().zip(&other.per_query) {
            mine.merge(theirs);
        }
    }

    /// Every recorded query's counters, in query order.
    pub fn per_query(&self) -> &[SearchStats] {
        &self.per_query
    }

    /// Number of queries recorded.
    pub fn queries(&self) -> usize {
        self.per_query.len()
    }

    /// Grand totals over every recorded query.
    pub fn total(&self) -> &SearchStats {
        &self.total
    }

    /// Mean distance computations per query (0 if no queries recorded).
    pub fn mean_comps(&self) -> f64 {
        if self.per_query.is_empty() {
            0.0
        } else {
            self.total.distance_computations as f64 / self.per_query.len() as f64
        }
    }

    /// One counter of every query, in query order.
    fn samples(&self, counter: fn(&SearchStats) -> u64) -> Vec<u64> {
        self.per_query.iter().map(counter).collect()
    }

    /// Median (p50) distance computations per query.
    pub fn p50_comps(&self) -> u64 {
        percentile(&self.samples(|s| s.distance_computations), 50)
    }

    /// 95th-percentile distance computations per query.
    pub fn p95_comps(&self) -> u64 {
        percentile(&self.samples(|s| s.distance_computations), 95)
    }

    /// Median (p50) node visits per query.
    pub fn p50_visits(&self) -> u64 {
        percentile(&self.samples(|s| s.nodes_visited), 50)
    }

    /// 95th-percentile node visits per query.
    pub fn p95_visits(&self) -> u64 {
        percentile(&self.samples(|s| s.nodes_visited), 95)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample set; 0 when empty.
///
/// Public because every layer that aggregates per-query samples — the
/// [`BatchStats`] summaries here, the serving layer's latency counters —
/// needs the same tail summary; keeping one definition keeps p50/p95
/// comparable across reports.
pub fn percentile(samples: &[u64], p: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// A search hit: dataset offset plus its distance from the query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Offset of the vector in the dataset the index was built over.
    pub id: usize,
    /// Distance from the query under the index's measure.
    pub distance: f32,
}

/// Slack added to triangle-inequality pruning bounds to absorb f32
/// rounding: a lower bound computed as the difference of two rounded
/// distances can exceed the true (rounded) distance by a few ulps, which
/// would wrongfully prune exact-tie candidates. A few-ulp relative margin
/// restores safety at negligible extra search cost.
#[inline]
pub(crate) fn tri_slack(a: f32, b: f32) -> f32 {
    a.abs().max(b.abs()) * 4e-6
}

/// Sort hits by ascending distance, breaking ties by id so results are
/// fully deterministic and comparable across index implementations.
pub fn sort_neighbors(hits: &mut [Neighbor]) {
    hits.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.id.cmp(&b.id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_stats_percentiles() {
        let mut b = BatchStats::new();
        for comps in 1..=100u64 {
            b.record(&SearchStats {
                distance_computations: comps,
                nodes_visited: comps * 2,
                ..SearchStats::default()
            });
        }
        assert_eq!(b.queries(), 100);
        assert_eq!(b.total().distance_computations, 5050);
        assert_eq!(b.p50_comps(), 50);
        assert_eq!(b.p95_comps(), 95);
        assert_eq!(b.p95_visits(), 190);
        assert!((b.mean_comps() - 50.5).abs() < 1e-9);

        let mut other = BatchStats::new();
        other.record(&SearchStats {
            distance_computations: 1000,
            nodes_visited: 1,
            ..SearchStats::default()
        });
        b.merge(&other);
        assert_eq!(b.queries(), 101);
        assert_eq!(b.total().distance_computations, 6050);

        // Per-query addition keeps the query count and sums each sample.
        let mut twice = b.clone();
        twice.add_per_query(&b);
        assert_eq!(twice.queries(), 101);
        assert_eq!(twice.total().distance_computations, 12100);
        assert_eq!(twice.p50_comps(), 2 * b.p50_comps());
        assert_eq!(twice.p95_visits(), 2 * b.p95_visits());
    }

    #[test]
    fn every_counter_is_kept_per_query() {
        let one = |coarse| SearchStats {
            distance_computations: coarse + 1,
            coarse_candidates: coarse,
            rerank_evaluations: coarse / 2,
            ..SearchStats::default()
        };
        let mut a = BatchStats::new();
        a.record(&one(0));
        a.record(&one(8));
        let mut b = BatchStats::new();
        b.record(&one(4));
        b.record(&one(2));
        let mut sum = a.clone();
        sum.add_per_query(&b);
        let coarse: Vec<u64> = sum
            .per_query()
            .iter()
            .map(|s| s.coarse_candidates)
            .collect();
        let rerank: Vec<u64> = sum
            .per_query()
            .iter()
            .map(|s| s.rerank_evaluations)
            .collect();
        assert_eq!((coarse, rerank), (vec![4, 10], vec![2, 5]));
        a.merge(&b);
        assert_eq!(a.per_query()[2], one(4));
        assert_eq!(a.total().coarse_candidates, 14);
    }

    #[test]
    fn empty_batch_stats() {
        let b = BatchStats::new();
        assert_eq!(b.queries(), 0);
        assert_eq!(b.p50_comps(), 0);
        assert_eq!(b.mean_comps(), 0.0);
    }

    #[test]
    fn reset_and_merge() {
        let mut a = SearchStats {
            distance_computations: 5,
            nodes_visited: 2,
            subtrees_pruned: 1,
            postfilter_candidates: 4,
            coarse_candidates: 6,
            rerank_evaluations: 5,
        };
        let b = SearchStats {
            distance_computations: 3,
            nodes_visited: 10,
            subtrees_pruned: 2,
            postfilter_candidates: 3,
            coarse_candidates: 1,
            rerank_evaluations: 2,
        };
        a.merge(&b);
        assert_eq!(a.distance_computations, 8);
        assert_eq!(a.nodes_visited, 12);
        assert_eq!(a.subtrees_pruned, 3);
        assert_eq!(a.postfilter_candidates, 7);
        assert_eq!(a.coarse_candidates, 7);
        assert_eq!(a.rerank_evaluations, 7);
        a.reset();
        assert_eq!(a, SearchStats::new());
    }

    /// Count-based oracle for the nearest-rank percentile: the smallest
    /// sample value `v` such that at least `ceil(p·n/100)` samples are
    /// `≤ v` (and at least one, so p=0 yields the minimum). Derived
    /// directly from the nearest-rank definition rather than by indexing,
    /// so it cannot share an off-by-one with the implementation.
    fn percentile_oracle(samples: &[u64], p: u64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let n = samples.len() as u64;
        let rank = (p * n).div_ceil(100).max(1);
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        *sorted
            .iter()
            .find(|&&v| sorted.iter().filter(|&&s| s <= v).count() as u64 >= rank)
            .expect("rank ≤ n, so some value satisfies it")
    }

    #[test]
    fn percentile_matches_oracle_on_edge_cases() {
        // Empty, single-element, and all-equal inputs, across the full
        // percentile range including the 0 and 100 endpoints.
        for p in [0, 1, 50, 95, 99, 100] {
            assert_eq!(percentile(&[], p), 0, "empty, p={p}");
            assert_eq!(percentile(&[42], p), 42, "singleton, p={p}");
            assert_eq!(percentile(&[7; 9], p), 7, "all-equal, p={p}");
            assert_eq!(percentile(&[], p), percentile_oracle(&[], p));
            assert_eq!(percentile(&[42], p), percentile_oracle(&[42], p));
            assert_eq!(percentile(&[7; 9], p), percentile_oracle(&[7; 9], p));
        }
        // p=0 is the minimum, p=100 the maximum.
        assert_eq!(percentile(&[3, 1, 2], 0), 1);
        assert_eq!(percentile(&[3, 1, 2], 100), 3);
    }

    #[test]
    fn percentile_matches_oracle_on_random_samples() {
        let mut rng = cbir_workload::Pcg32::new(0xbeef);
        for case in 0..200 {
            let len = (rng.next_u32() % 50) as usize + 1;
            let samples: Vec<u64> = (0..len)
                .map(|_| {
                    // Mix small ranges (many duplicates) with wide ones.
                    let width = if case % 2 == 0 { 8 } else { 10_000 };
                    (rng.next_u32() % width) as u64
                })
                .collect();
            let p = (rng.next_u32() % 101) as u64;
            assert_eq!(
                percentile(&samples, p),
                percentile_oracle(&samples, p),
                "case {case}: p={p}, samples={samples:?}"
            );
        }
    }

    #[test]
    fn neighbor_sorting_is_deterministic() {
        let mut hits = vec![
            Neighbor {
                id: 7,
                distance: 1.0,
            },
            Neighbor {
                id: 3,
                distance: 1.0,
            },
            Neighbor {
                id: 1,
                distance: 0.5,
            },
        ];
        sort_neighbors(&mut hits);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 3); // tie broken by id
        assert_eq!(hits[2].id, 7);
    }
}
