//! The common interface all index structures implement.

use crate::scratch::QueryScratch;
use crate::stats::{BatchStats, Neighbor, SearchStats};
use std::ops::Range;

/// A set of row ids of one index, as a bitmap: the rows a k-NN search
/// must pass over ([`SearchIndex::knn_batch_skipping`]), for instance a
/// store segment's deleted rows. A membership test is one bit, so a scan
/// can ask it of every row it is about to offer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowSet {
    words: Vec<u64>,
    len: usize,
}

impl RowSet {
    /// Add `row`; returns whether it was new.
    pub fn insert(&mut self, row: usize) -> bool {
        let (word, bit) = (row / 64, 1u64 << (row % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let new = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += usize::from(new);
        new
    }

    /// Whether `row` is in the set.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        self.words
            .get(row / 64)
            .is_some_and(|w| w & (1u64 << (row % 64)) != 0)
    }

    /// Rows in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl FromIterator<usize> for RowSet {
    fn from_iter<I: IntoIterator<Item = usize>>(rows: I) -> Self {
        let mut set = RowSet::default();
        for row in rows {
            set.insert(row);
        }
        set
    }
}

/// A similarity-search index over a fixed dataset of feature vectors.
///
/// The contract, verified by the cross-implementation test suite: for any
/// query, both search modes return *exactly* the same result set as a
/// sequential scan under the same measure — indexes accelerate, never
/// approximate. The batched entry points extend the same contract: every
/// query in a batch returns results bit-identical (ids, distances,
/// ordering) to its single-query counterpart, regardless of batch size or
/// thread count.
///
/// Implementors provide the scratch-based [`range_into`](Self::range_into)
/// and [`knn_into`](Self::knn_into); the allocating single-query methods
/// and the batch loops are derived from them. Reusing one
/// [`QueryScratch`] across queries is what makes steady-state search
/// allocation-free. Each tree answers both through its one traversal: a
/// k-NN search runs it against a heap whose bound tightens as it fills,
/// a range search runs it with the radius as a fixed bound.
///
/// # Tie-breaking
///
/// Equal distances are broken by **ascending id**, everywhere:
///
/// * result lists are sorted by `(distance, id)` — two hits at the same
///   distance always appear smaller id first;
/// * when the k-th place is contested (more than `k` candidates would
///   remain after including every vector tied with the k-th distance),
///   the candidates with the smallest ids win the remaining slots.
///
/// Because the rule depends only on the candidate set — not on traversal
/// order — every implementation resolves ties identically, which is what
/// makes the cross-index and cross-thread-count bit-identity contract
/// testable on data with duplicated vectors.
pub trait SearchIndex: Send + Sync {
    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// Whether the index is empty (never true; datasets are non-empty).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// All vectors within `radius` of `query` (inclusive) written into
    /// `out` (cleared first), sorted by ascending distance with ties broken
    /// by id. A vector is within iff its distance `d` has `d <= radius`,
    /// so a negative or NaN radius finds nothing. `scratch` provides the
    /// traversal state; reuse it across queries to avoid per-query
    /// allocation.
    fn range_into(
        &self,
        query: &[f32],
        radius: f32,
        scratch: &mut QueryScratch,
        stats: &mut SearchStats,
        out: &mut Vec<Neighbor>,
    );

    /// The `k` nearest vectors to `query` written into `out` (cleared
    /// first), sorted by ascending distance with ties broken by id. Fills
    /// fewer than `k` only when the dataset is smaller than `k`. `scratch`
    /// provides the traversal state; reuse it across queries to avoid
    /// per-query allocation.
    fn knn_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut QueryScratch,
        stats: &mut SearchStats,
        out: &mut Vec<Neighbor>,
    );

    /// All vectors within `radius` of `query` (inclusive), sorted by
    /// ascending distance with ties broken by id. Allocates fresh scratch;
    /// prefer [`range_into`](Self::range_into) or the batch entry points
    /// on hot paths.
    fn range_search(&self, query: &[f32], radius: f32, stats: &mut SearchStats) -> Vec<Neighbor> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.range_into(query, radius, &mut scratch, stats, &mut out);
        out
    }

    /// The `k` nearest vectors to `query`, sorted by ascending distance
    /// with ties broken by id. Returns fewer than `k` only when the dataset
    /// is smaller than `k`. Allocates fresh scratch; prefer
    /// [`knn_into`](Self::knn_into) or the batch entry points on hot paths.
    fn knn_search(&self, query: &[f32], k: usize, stats: &mut SearchStats) -> Vec<Neighbor> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.knn_into(query, k, &mut scratch, stats, &mut out);
        out
    }

    /// Range search over a batch of queries on the calling thread, reusing
    /// one scratch. Returns one result list per query, in query order;
    /// each is bit-identical to the single-query path. Per-query counters
    /// are recorded into `stats`.
    fn range_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f32,
        stats: &mut BatchStats,
    ) -> Vec<Vec<Neighbor>> {
        let mut scratch = QueryScratch::new();
        let mut per_query = SearchStats::new();
        queries
            .iter()
            .map(|q| {
                per_query.reset();
                let mut out = Vec::new();
                self.range_into(q, radius, &mut scratch, &mut per_query, &mut out);
                stats.record(&per_query);
                out
            })
            .collect()
    }

    /// k-NN search over a batch of queries on the calling thread, reusing
    /// one scratch. Returns one result list per query, in query order;
    /// each is bit-identical to the single-query path. Per-query counters
    /// are recorded into `stats`.
    fn knn_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        stats: &mut BatchStats,
    ) -> Vec<Vec<Neighbor>> {
        let mut scratch = QueryScratch::new();
        let mut per_query = SearchStats::new();
        queries
            .iter()
            .map(|q| {
                per_query.reset();
                let mut out = Vec::new();
                self.knn_into(q, k, &mut scratch, &mut per_query, &mut out);
                stats.record(&per_query);
                out
            })
            .collect()
    }

    /// [`knn_batch`](Self::knn_batch) over the rows `skip` leaves: each
    /// query's `k` nearest rows not in `skip`, with the ids, distances and
    /// order `knn_batch` gives them. This default asks `knn_batch` for
    /// `k + skip.len()` neighbours — enough that dropping the skipped
    /// ones can never cost a hit — and drops them;
    /// [`LinearScan`](crate::LinearScan) passes over skipped rows inside
    /// its scan instead, so its heap holds only rows it may return and is
    /// asked for `k`.
    fn knn_batch_skipping(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        skip: &RowSet,
        stats: &mut BatchStats,
    ) -> Vec<Vec<Neighbor>> {
        let want = k.saturating_add(skip.len()).min(self.len());
        let mut hits = self.knn_batch(queries, want, stats);
        if !skip.is_empty() {
            for hits in &mut hits {
                hits.retain(|n| !skip.contains(n.id));
                hits.truncate(k);
            }
        }
        hits
    }

    /// The [`knn_batch_skipping`](Self::knn_batch_skipping) hits of every
    /// query the index's exact filter serves to the end, and `None` for
    /// each query it does not — one it never admits, or one that leaves
    /// it part-way and is then searched no further. Per-query counters
    /// record what each query cost, served or not. Only
    /// [`LinearScan`](crate::LinearScan) has such a filter (its L1 code
    /// table); every other index serves nothing, at no cost.
    fn knn_batch_filtered(
        &self,
        queries: &[Vec<f32>],
        _k: usize,
        _skip: &RowSet,
        stats: &mut BatchStats,
    ) -> Vec<Option<Vec<Neighbor>>> {
        queries
            .iter()
            .map(|_| {
                stats.record(&SearchStats::new());
                None
            })
            .collect()
    }

    /// Short name for tables ("linear", "kd-tree", "vp-tree", ...).
    fn name(&self) -> &'static str;

    /// Approximate heap footprint of the index structure itself, excluding
    /// the shared dataset.
    fn structure_bytes(&self) -> usize;

    /// Build now what the first search would otherwise build on its way
    /// (the linear scan's L1 code table), so a caller with time to spare
    /// can take it off the request path. Searches answer the same either
    /// way; a no-op for an index with nothing lazy.
    fn prepare(&self) {}
}

/// Convenience: run a range search discarding stats.
pub fn range_search_simple(index: &dyn SearchIndex, query: &[f32], radius: f32) -> Vec<Neighbor> {
    let mut stats = SearchStats::new();
    index.range_search(query, radius, &mut stats)
}

/// Convenience: run a k-NN search discarding stats.
pub fn knn_search_simple(index: &dyn SearchIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    let mut stats = SearchStats::new();
    index.knn_search(query, k, &mut stats)
}

/// Fan a k-NN batch out across `threads` OS threads with
/// [`std::thread::scope`]. Queries are split into contiguous chunks, one
/// per thread; each worker runs [`SearchIndex::knn_batch`] with its own
/// scratch and [`BatchStats`], and the chunks are reassembled in query
/// order, so results and recorded per-query counters are identical to the
/// sequential batch regardless of thread count.
pub fn knn_batch_parallel(
    index: &dyn SearchIndex,
    queries: &[Vec<f32>],
    k: usize,
    threads: usize,
    stats: &mut BatchStats,
) -> Vec<Vec<Neighbor>> {
    run_parallel(queries.len(), threads, stats, |chunk, chunk_stats| {
        index.knn_batch(&queries[chunk], k, chunk_stats)
    })
}

/// Fan a range batch out across `threads` OS threads; see
/// [`knn_batch_parallel`] for the execution model and determinism
/// guarantees.
pub fn range_batch_parallel(
    index: &dyn SearchIndex,
    queries: &[Vec<f32>],
    radius: f32,
    threads: usize,
    stats: &mut BatchStats,
) -> Vec<Vec<Neighbor>> {
    run_parallel(queries.len(), threads, stats, |chunk, chunk_stats| {
        index.range_batch(&queries[chunk], radius, chunk_stats)
    })
}

/// The chunk-spawn-join scaffolding behind every parallel batch entry
/// point, here and in the layers above: split queries `0..n` into
/// contiguous chunks, one per scoped worker thread (up to `threads`), run
/// `search_chunk` on each with its own [`BatchStats`], and reassemble the
/// per-query outputs and counters in query order.
pub fn run_parallel<T, F>(
    n: usize,
    threads: usize,
    stats: &mut BatchStats,
    search_chunk: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>, &mut BatchStats) -> Vec<T> + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return search_chunk(0..n, stats);
    }
    let chunk_len = n.div_ceil(threads);
    let parts: Vec<(Vec<T>, BatchStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk_len)
            .map(|lo| {
                let search_chunk = &search_chunk;
                scope.spawn(move || {
                    let mut chunk_stats = BatchStats::new();
                    let results = search_chunk(lo..(lo + chunk_len).min(n), &mut chunk_stats);
                    (results, chunk_stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch search worker panicked"))
            .collect()
    });
    let mut all = Vec::with_capacity(n);
    for (results, chunk_stats) in parts {
        all.extend(results);
        stats.merge(&chunk_stats);
    }
    all
}
