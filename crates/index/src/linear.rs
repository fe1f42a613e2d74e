//! Sequential scan — the baseline every index is measured against, and the
//! reference implementation for correctness testing.
//!
//! Every entry point runs one **cache-blocked** scan: the dataset is
//! walked in L1-sized row blocks, and every query of the call is scored
//! against a block before the scan advances. A batch of B queries then
//! streams the dataset through the cache hierarchy once instead of B
//! times, which is where batched sequential scan gets its throughput —
//! per-row arithmetic is that of a single-query call (which is a batch of
//! one over reused scratch), so results stay bit-identical (same
//! distances, same candidate order).
//!
//! ## The exact L1 filter
//!
//! Under [`Measure::L1`] a scan over a large enough source reads a table
//! of one-byte cell codes (`cbir_distance::CellQuantizer`: per-dimension
//! origin, one step, a quarter of the rows' bytes) in front of the rows.
//! Per block and per query, `Σ|Δcode|` over a row's codes
//! (`cbir_distance::cell_sad_to_many`) bounds the row's distance from
//! below, and the row is skipped when that bound already reaches what a
//! candidate has to beat: the heap's bound for k-NN, which is exactly
//! when [`offer_ascending`] would reject it, or anything above the
//! radius for range search. Survivors are scored by the unchanged `f32`
//! kernel and offered in ascending id order, so ids, tie-breaks and
//! distance bits are those of the plain scan. `CellQuantizer::min_sad`
//! holds the proof that the bound is safe against the kernel's *rounded*
//! result.
//!
//! The table is derived state: built in memory by the first L1 scan that
//! can use it, dropped with the index, never written anywhere. Three
//! decisions are taken from what the scan can see, and none is an option:
//!
//! * a source under [`MIN_FILTER_ROWS`] rows never builds one (a memtable
//!   chunk lives for a few inserts; encoding it would cost more scans
//!   than it serves);
//! * a query with a non-finite component, and a k-NN whose `k` alone is
//!   more than one in [`BAIL_ONE_IN`] of the rows (its heap needs that
//!   many evaluations whatever the bounds say), take the plain scan from
//!   the first row;
//! * a query more than one in [`BAIL_ONE_IN`] of whose bounded rows
//!   survived — [`GRACE_PER_NEIGHBOUR`]` · k` survivors are free, a heap
//!   warming up lets that many through on any data — finishes on the
//!   plain scan: scattered survivors are scored one by one at memory
//!   latency, several times a streamed row's cost, so a corpus the codes
//!   cannot separate pays for the blocks it tried and nothing more.
//!
//! Every other measure, and every row of a query outside the filter,
//! goes through `dist_to_many` block by block as before.
//!
//! [`SearchIndex::knn_batch_filtered`] runs the same scan with the plain
//! half switched off: a query the filter keeps to the last row gets
//! exactly its [`SearchIndex::knn_batch`] hits, and one it never admits
//! or that leaves is dropped where it stands — the caller (the
//! approximate read path) searches it another way, having paid only for
//! the rows it tried: it stops at the group of [`SURVIVOR_GROUP`] rows
//! where its survivors pass the limit, not at the end of its block. (A
//! query that leaves at the last group has bounded every row, so it is
//! served.)

use crate::dataset::Dataset;
use crate::error::Result;
use crate::knn_heap::KnnHeap;
use crate::scratch::{FilterBufs, QueryScratch, ScanBufs};
use crate::stats::{sort_neighbors, BatchStats, Neighbor, SearchStats};
use crate::traits::SearchIndex;
use cbir_distance::{cell_sad_to_many, CellQuantizer, Measure};
use std::sync::OnceLock;

/// Target bytes of dataset rows per scan block: small enough to stay
/// L1-resident while every query in the batch is scored against it.
const BLOCK_BYTES: usize = 32 * 1024;

/// `f32` blocks per block of the code table: a code is a quarter of a
/// coordinate, so the codes of four row blocks fill [`BLOCK_BYTES`].
const CODE_BLOCK_SPAN: usize = 4;

/// Rows of a code block bounded, scored and offered together. Their
/// survivors are picked against one bound and scored in one tight loop
/// before any is offered: the rows are scattered, and a loop with no heap
/// in it keeps the loads of several rows in flight. The bound is
/// refreshed between groups, so it is never more than this many rows
/// stale. A group more than a quarter of which survived is scored whole
/// by the blocked kernel instead, which is cheaper from there on (and
/// offers nothing the bound would have kept out: a skipped row's
/// distance cannot beat it).
const SURVIVOR_GROUP: usize = 64;

/// Sources with fewer rows keep the plain scan: see the module docs.
const MIN_FILTER_ROWS: usize = 4096;

/// A query leaves the filter when more than one in this many of the rows
/// it has bounded survived. A scattered survivor costs a cache miss per
/// line where the blocked scan streams (some 100 ns against 5 to 15 for
/// a 64-dimensional row, by batch size), so past a few percent of
/// survivors the plain scan is the cheaper one.
const BAIL_ONE_IN: u64 = 16;

/// Survivors per neighbour asked for that never count against a query.
/// While a heap fills and for a while after, its bound is loose: on data
/// the codes separate about `c · k · ln(rows / k)` rows survive in all
/// (`c` near 2 on clustered and on white corpora, up to 8 for queries far
/// from every cluster) — tens of `k`, front-loaded, and no sign of a
/// corpus the filter cannot help.
const GRACE_PER_NEIGHBOUR: u64 = 64;

/// Bytes a code table asks the allocator for, at least; it touches only
/// its own length of them, so the rest costs address space and nothing
/// else. A table is megabytes that live as long as their source, built on
/// whichever worker thread scans first. glibc serves such a request from
/// that thread's arena once its sliding `mmap` threshold has risen past
/// the size, and an arena keeps what is freed into it: a process that
/// opened and dropped three engines over the benchmark's 200,000 x 64
/// corpus peaked 24-44 MB higher (`serve_scan` `peak_rss_mb` 127 -> 151
/// with one 12.8 MB allocation, 144-157 with 32 KB blocks, 171 when built
/// on the thread that builds the index). A request above the threshold's
/// ceiling (32 MiB on 64-bit) is always a mapping of its own, returned to
/// the system the moment it is freed (127 -> 139, the live table).
/// Tables under [`TABLE_RESERVE_FROM`] bytes are not worth the address
/// space and take what they need.
const TABLE_RESERVE: usize = (32 << 20) + 1;
const TABLE_RESERVE_FROM: usize = 1 << 20;

/// The lazily built code table of an L1 scan.
#[derive(Clone)]
struct CellTable {
    quant: CellQuantizer,
    /// Row-major, `dim` bytes per row, row `i` at `i * dim`.
    codes: Vec<u8>,
}

impl std::fmt::Debug for CellTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellTable")
            .field("step", &self.quant.step())
            .field("bytes", &self.codes.len())
            .finish()
    }
}

/// Brute-force scan over the whole dataset. Works with any measure,
/// metric or not.
#[derive(Clone, Debug)]
pub struct LinearScan {
    dataset: Dataset,
    measure: Measure,
    /// `Some(None)` once a build found nothing to build (a non-finite
    /// row, a constant corpus): such a source stays on the plain scan.
    cells: OnceLock<Option<CellTable>>,
    /// Routes the code sums to the portable kernel, so that the tests
    /// below run both on a host that dispatches to AVX2.
    #[cfg(test)]
    portable_sums: bool,
}

/// What a scan collects for one query.
enum Sink<'a> {
    Knn {
        heap: &'a mut KnnHeap,
        k: usize,
    },
    Range {
        radius: f32,
        out: &'a mut Vec<Neighbor>,
    },
}

impl Sink<'_> {
    /// Offer a run of distances whose ids ascend from `base`, as the
    /// plain scan produces them.
    fn offer_run(&mut self, base: usize, dists: &[f32]) {
        match self {
            Sink::Knn { heap, k } => offer_ascending(heap, *k, base, dists),
            Sink::Range { radius, out } => {
                for (i, &d) in dists.iter().enumerate() {
                    if d <= *radius {
                        out.push(Neighbor {
                            id: base + i,
                            distance: d,
                        });
                    }
                }
            }
        }
    }

    /// The code-difference sum from which a row is provably rejected:
    /// `distance >= bound` for a full heap (never, while it fills),
    /// `distance > radius` for a range search.
    fn min_sad(&self, quant: &CellQuantizer) -> u32 {
        match self {
            Sink::Knn { heap, .. } => quant.min_sad(heap.bound()),
            Sink::Range { radius, .. } => quant.min_sad(*radius).saturating_add(1),
        }
    }

    /// Survivors that never count against the search (see
    /// [`GRACE_PER_NEIGHBOUR`]), or `None` for a search the filter cannot
    /// pay for whatever the data: a heap that needs `k` evaluations to
    /// fill, `k` being more than the filter may let through.
    fn grace(&self, rows: usize) -> Option<u64> {
        match self {
            Sink::Knn { k, .. } => (*k as u64)
                .checked_mul(BAIL_ONE_IN)
                .filter(|&floor| floor <= rows as u64)
                .map(|_| *k as u64 * GRACE_PER_NEIGHBOUR),
            Sink::Range { .. } => Some(GRACE_PER_NEIGHBOUR),
        }
    }
}

/// One query of a scan: what it asks, what it collects, and where it
/// stands with the filter.
struct Lane<'a> {
    query: &'a [f32],
    sink: Sink<'a>,
    /// Blocks that start below this row are filtered, the rest scanned
    /// in full: the row count while the filter pays, 0 without one.
    filter_until: usize,
    /// [`Sink::grace`] of the search.
    grace: u64,
    /// Rows its bound could not exclude so far (it has bounded every row
    /// up to the block it is in: a lane filters from row 0 until it
    /// leaves).
    survivors: u64,
    /// Full distance evaluations so far.
    evaluated: u64,
}

impl<'a> Lane<'a> {
    fn new(query: &'a [f32], sink: Sink<'a>) -> Self {
        Lane {
            query,
            sink,
            filter_until: 0,
            grace: 0,
            survivors: 0,
            evaluated: 0,
        }
    }

    /// Whether more of the `bounded` rows it has bounded survived than
    /// the filter pays for: more than one in [`BAIL_ONE_IN`], past its
    /// grace.
    fn over_limit(&self, bounded: usize) -> bool {
        self.survivors > self.grace.max(bounded as u64 / BAIL_ONE_IN)
    }
}

impl LinearScan {
    /// Build (trivially) over a dataset.
    pub fn build(dataset: Dataset, measure: Measure) -> Result<Self> {
        Ok(LinearScan {
            dataset,
            measure,
            cells: OnceLock::new(),
            #[cfg(test)]
            portable_sums: false,
        })
    }

    /// The measure used for comparisons.
    pub fn measure(&self) -> &Measure {
        &self.measure
    }

    /// Rows per cache block of `f32` rows.
    fn block_rows(&self) -> usize {
        (BLOCK_BYTES / (self.dataset.dim() * std::mem::size_of::<f32>())).max(1)
    }

    /// Whether the scan reads a code table at all: L1 over a source of at
    /// least [`MIN_FILTER_ROWS`] rows.
    fn filters(&self) -> bool {
        matches!(self.measure, Measure::L1) && self.dataset.len() >= MIN_FILTER_ROWS
    }

    /// The code table, built by the first caller (concurrent first
    /// callers wait for that one build).
    fn cells(&self) -> Option<&CellTable> {
        self.cells
            .get_or_init(|| {
                let flat = self.dataset.flat();
                let quant = CellQuantizer::fit(self.dataset.dim(), flat)?;
                let reserve = if flat.len() < TABLE_RESERVE_FROM {
                    flat.len()
                } else {
                    flat.len().max(TABLE_RESERVE)
                };
                let mut codes = vec![0u8; reserve];
                codes.truncate(flat.len());
                quant
                    .encode(flat, &mut codes)
                    .then_some(CellTable { quant, codes })
            })
            .as_ref()
    }

    /// Admit to the filter every lane it can serve and encode its query;
    /// returns the table if any lane was admitted. No table is built for
    /// a call that could admit none.
    fn admit<'t>(&'t self, lanes: &mut [Lane<'_>], codes: &mut Vec<u8>) -> Option<&'t CellTable> {
        let (n, dim) = (self.dataset.len(), self.dataset.dim());
        if !self.filters() || lanes.iter().all(|lane| lane.sink.grace(n).is_none()) {
            return None;
        }
        let table = self.cells()?;
        codes.clear();
        codes.resize(lanes.len() * dim, 0);
        let mut admitted = false;
        for (lane, qcodes) in lanes.iter_mut().zip(codes.chunks_exact_mut(dim)) {
            let Some(grace) = lane.sink.grace(n) else {
                continue;
            };
            // A non-finite component fails the encoding: the plain scan.
            if table.quant.encode(lane.query, qcodes) {
                lane.filter_until = n;
                lane.grace = grace;
                admitted = true;
            }
        }
        admitted.then_some(table)
    }

    /// One lane's pass over one block of the code table, `rows` rows from
    /// `base`: bound every row, then group by group score the survivors
    /// and offer them in id order (see [`SURVIVOR_GROUP`]); leave the
    /// filter if too many survived — at the end of the block, where the
    /// plain scan takes over, or with `drop_on_leave` (no plain scan
    /// follows) at the first group past the limit. A survivor
    /// the bound has overtaken by the time it is offered is rejected
    /// there, exactly as the plain scan rejects it.
    #[allow(clippy::too_many_arguments)] // one lane, one block, threaded explicitly
    fn filter_block(
        &self,
        table: &CellTable,
        lane: &mut Lane<'_>,
        qcodes: &[u8],
        base: usize,
        rows: usize,
        drop_on_leave: bool,
        bufs: &mut FilterBufs,
    ) {
        let dim = self.dataset.dim();
        let sums = &mut bufs.sads[..rows];
        self.code_sums(qcodes, &table.codes[base * dim..(base + rows) * dim], sums);
        let mut min_sad = lane.sink.min_sad(&table.quant);
        for (group, sums) in sums.chunks(SURVIVOR_GROUP).enumerate() {
            let first = base + group * SURVIVOR_GROUP;
            // One vector minimum rules out most groups; the survivors of
            // the rest are counted in a second pass, and their ids are
            // only needed when few enough to be scored one by one.
            if sums.iter().fold(u32::MAX, |m, &s| m.min(s)) >= min_sad {
                continue;
            }
            let survivors = sums.iter().filter(|&&s| s < min_sad).count();
            lane.survivors += survivors as u64;
            let dists = &mut bufs.dists;
            dists.clear();
            if survivors * 4 > sums.len() {
                dists.resize(sums.len(), 0.0);
                let group_rows = &self.dataset.flat()[first * dim..(first + sums.len()) * dim];
                self.measure.dist_to_many(lane.query, group_rows, dists);
                lane.sink.offer_run(first, dists);
            } else {
                bufs.survivors.clear();
                let under = sums.iter().enumerate().filter(|(_, &s)| s < min_sad);
                bufs.survivors.extend(under.map(|(i, _)| first + i));
                let row = |&id| self.measure.distance(lane.query, self.dataset.vector(id));
                dists.extend(bufs.survivors.iter().map(row));
                for (&id, d) in bufs.survivors.iter().zip(dists.iter()) {
                    lane.sink.offer_run(id, std::slice::from_ref(d));
                }
            }
            lane.evaluated += dists.len() as u64;
            let bounded = first + sums.len();
            if drop_on_leave && lane.over_limit(bounded) {
                lane.filter_until = bounded;
                return;
            }
            min_sad = lane.sink.min_sad(&table.quant);
        }
        if lane.over_limit(base + rows) {
            lane.filter_until = base + rows;
        }
    }

    /// The one scan behind every entry point. Per block of
    /// [`CODE_BLOCK_SPAN`] row blocks: each lane still on the filter
    /// bounds the block's rows from their codes and scores the
    /// survivors; then, with `finish_plain`, each lane off it scores the
    /// block in full, row block by row block — without, a lane off the
    /// filter is done, and so is the scan once no lane is left on it. A
    /// lane only ever sees ids ascending.
    fn scan(&self, lanes: &mut [Lane<'_>], bufs: &mut ScanBufs, finish_plain: bool) {
        let (n, dim) = (self.dataset.len(), self.dataset.dim());
        let flat = self.dataset.flat();
        let table = self.admit(lanes, &mut bufs.codes);
        let row_block = self.block_rows().min(n);
        let code_block = (row_block * CODE_BLOCK_SPAN).min(n);
        bufs.dists.clear();
        bufs.dists.resize(row_block, 0.0);
        bufs.filter.sads.clear();
        bufs.filter.sads.resize(code_block, 0);
        for base in (0..n).step_by(code_block) {
            let end = (base + code_block).min(n);
            let mut filtering = 0;
            if let Some(table) = table {
                for (lane, qcodes) in lanes.iter_mut().zip(bufs.codes.chunks_exact(dim)) {
                    if base < lane.filter_until {
                        filtering += 1;
                        let (rows, filter) = (end - base, &mut bufs.filter);
                        self.filter_block(table, lane, qcodes, base, rows, !finish_plain, filter);
                    }
                }
            }
            if !finish_plain {
                if filtering == 0 {
                    break;
                }
                continue;
            }
            if filtering == lanes.len() {
                continue;
            }
            for first in (base..end).step_by(row_block) {
                let sub_rows = row_block.min(end - first);
                let block = &flat[first * dim..(first + sub_rows) * dim];
                let dists = &mut bufs.dists[..sub_rows];
                // A lane that left the filter in this very block has
                // `filter_until` at its end and starts with the next.
                for lane in lanes.iter_mut().filter(|l| base >= l.filter_until) {
                    self.measure.dist_to_many(lane.query, block, dists);
                    lane.sink.offer_run(first, dists);
                    lane.evaluated += sub_rows as u64;
                }
            }
        }
    }

    /// `Σ|Δcode|` of every row of a code block against one query's codes.
    #[inline]
    fn code_sums(&self, query: &[u8], rows: &[u8], out: &mut [u32]) {
        #[cfg(test)]
        if self.portable_sums {
            return cbir_distance::cell_sad_to_many_portable(query, rows, out);
        }
        cell_sad_to_many(query, rows, out);
    }

    /// One query's counters after a scan that reached `rows` rows (all
    /// of them, unless it was dropped off the filter): the rows scored
    /// in full, the rows the filter's bound excluded (their sum is
    /// `rows`), and one "node" if it scanned at all.
    fn lane_stats(rows: usize, evaluated: u64) -> SearchStats {
        SearchStats {
            distance_computations: evaluated,
            nodes_visited: u64::from(rows > 0),
            subtrees_pruned: rows as u64 - evaluated,
            postfilter_candidates: evaluated,
            ..SearchStats::default()
        }
    }

    /// k-NN of a batch in one scan (see [`LinearScan::scan`]): each
    /// query's hits, or — without `finish_plain` — `None` for a query the
    /// filter did not serve to the last row.
    fn knn_scan(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        finish_plain: bool,
        stats: &mut BatchStats,
    ) -> Vec<Option<Vec<Neighbor>>> {
        if k == 0 {
            // Match the single-query path: no scan, empty results.
            return queries
                .iter()
                .map(|_| {
                    stats.record(&SearchStats::new());
                    Some(Vec::new())
                })
                .collect();
        }
        let n = self.dataset.len();
        let mut heaps: Vec<KnnHeap> = queries.iter().map(|_| KnnHeap::new(k)).collect();
        let mut lanes: Vec<Lane<'_>> = queries
            .iter()
            .zip(&mut heaps)
            .map(|(q, heap)| Lane::new(q, Sink::Knn { heap, k }))
            .collect();
        self.scan(&mut lanes, &mut ScanBufs::default(), finish_plain);
        // A lane dropped off the filter reached the end of the group of
        // rows it left at; one that left at the last group reached every
        // row.
        let reached: Vec<usize> = lanes
            .iter()
            .map(|lane| if finish_plain { n } else { lane.filter_until })
            .collect();
        for (lane, &rows) in lanes.iter().zip(&reached) {
            stats.record(&Self::lane_stats(rows, lane.evaluated));
        }
        drop(lanes);
        heaps
            .into_iter()
            .zip(reached)
            .map(|(mut heap, rows)| {
                (rows == n).then(|| {
                    let mut out = Vec::new();
                    heap.drain_sorted_into(&mut out);
                    out
                })
            })
            .collect()
    }
}

/// Offer a run of distances whose ids ascend from `base` — the access
/// pattern of every linear-scan loop. Admission decisions are exactly
/// those of calling [`KnnHeap::offer`] per row: once the heap is full, a
/// candidate is admitted iff it beats the current bound (a tie can never
/// be admitted, because the tie-break prefers smaller ids and every id in
/// the heap is smaller than the one being offered). That makes one
/// predictable `d < bound` compare a sound prefilter, replacing a heap
/// probe per row with a branch that almost always falls through.
#[inline]
fn offer_ascending(heap: &mut KnnHeap, k: usize, base: usize, dists: &[f32]) {
    let mut i = 0;
    while heap.len() < k && i < dists.len() {
        heap.offer(base + i, dists[i]);
        i += 1;
    }
    let mut bound = heap.bound();
    for (j, &d) in dists.iter().enumerate().skip(i) {
        // NaN distances fall through the compare; `offer` would reject
        // them identically once the heap is full.
        if d < bound {
            heap.offer(base + j, d);
            bound = heap.bound();
        }
    }
}

impl SearchIndex for LinearScan {
    fn len(&self) -> usize {
        self.dataset.len()
    }

    fn dim(&self) -> usize {
        self.dataset.dim()
    }

    fn range_into(
        &self,
        query: &[f32],
        radius: f32,
        scratch: &mut QueryScratch,
        stats: &mut SearchStats,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        let mut lane = [Lane::new(query, Sink::Range { radius, out })];
        self.scan(&mut lane, &mut scratch.scan, true);
        stats.merge(&Self::lane_stats(self.len(), lane[0].evaluated));
        sort_neighbors(out);
    }

    fn knn_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut QueryScratch,
        stats: &mut SearchStats,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        scratch.heap.reset(k);
        let heap = &mut scratch.heap;
        let mut lane = [Lane::new(query, Sink::Knn { heap, k })];
        self.scan(&mut lane, &mut scratch.scan, true);
        stats.merge(&Self::lane_stats(self.len(), lane[0].evaluated));
        scratch.heap.drain_sorted_into(out);
    }

    /// One blocked scan for the whole batch (see the module docs):
    /// candidates are offered in id order with per-row arithmetic
    /// identical to [`LinearScan::knn_into`], so results and per-query
    /// counters are those of the single-query path.
    fn knn_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        stats: &mut BatchStats,
    ) -> Vec<Vec<Neighbor>> {
        let hits = self.knn_scan(queries, k, true, stats);
        hits.into_iter()
            .map(|hits| hits.expect("the plain scan finishes every query"))
            .collect()
    }

    /// The same scan without its plain half (see the module docs): a
    /// query's hits and counters are those of [`LinearScan::knn_batch`]
    /// exactly when the filter keeps it to the last row.
    fn knn_batch_filtered(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        stats: &mut BatchStats,
    ) -> Vec<Option<Vec<Neighbor>>> {
        self.knn_scan(queries, k, false, stats)
    }

    /// Batched range search on the same scan; hits accumulate in id
    /// order, exactly as the single-query scan produces them.
    fn range_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f32,
        stats: &mut BatchStats,
    ) -> Vec<Vec<Neighbor>> {
        let mut outs: Vec<Vec<Neighbor>> = queries.iter().map(|_| Vec::new()).collect();
        let mut lanes: Vec<Lane<'_>> = queries
            .iter()
            .zip(&mut outs)
            .map(|(q, out)| Lane::new(q, Sink::Range { radius, out }))
            .collect();
        self.scan(&mut lanes, &mut ScanBufs::default(), true);
        for lane in &lanes {
            stats.record(&Self::lane_stats(self.len(), lane.evaluated));
        }
        drop(lanes);
        for out in &mut outs {
            sort_neighbors(out);
        }
        outs
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn structure_bytes(&self) -> usize {
        let table = self.cells.get().and_then(Option::as_ref);
        std::mem::size_of::<Self>() + table.map_or(0, |t| t.codes.len())
    }

    /// Build the code table a filtered scan would build first.
    fn prepare(&self) {
        if self.filters() {
            self.cells();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{knn_batch_parallel, range_batch_parallel};

    /// An L1 scan over `rows` on the named code-sum kernel.
    fn l1_scan(rows: &[Vec<f32>], path: &str) -> LinearScan {
        let mut idx = LinearScan::build(Dataset::from_vectors(rows).unwrap(), Measure::L1).unwrap();
        idx.portable_sums = path == "portable";
        idx
    }

    const KERNEL_PATHS: [&str; 2] = ["dispatch", "portable"];

    fn grid_dataset() -> Dataset {
        // 5x5 integer grid in 2-D.
        let mut v = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                v.push(vec![x as f32, y as f32]);
            }
        }
        Dataset::from_vectors(&v).unwrap()
    }

    #[test]
    fn range_search_inclusive_radius() {
        let idx = LinearScan::build(grid_dataset(), Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        // Around (0,0) with radius 1: (0,0), (1,0), (0,1).
        let hits = idx.range_search(&[0.0, 0.0], 1.0, &mut stats);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(stats.distance_computations, 25);
    }

    #[test]
    fn knn_returns_sorted_k() {
        let idx = LinearScan::build(grid_dataset(), Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        let hits = idx.knn_search(&[2.0, 2.0], 5, &mut stats);
        assert_eq!(hits.len(), 5);
        assert_eq!(hits[0].id, 12); // (2,2) itself
        assert_eq!(hits[0].distance, 0.0);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // The four axial neighbours at distance 1 fill out the top 5.
        let ids: Vec<usize> = hits[1..].iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![7, 11, 13, 17]);
    }

    #[test]
    fn knn_k_larger_than_dataset() {
        let idx = LinearScan::build(grid_dataset(), Measure::L1).unwrap();
        let hits = crate::traits::knn_search_simple(&idx, &[0.0, 0.0], 100);
        assert_eq!(hits.len(), 25);
    }

    #[test]
    fn knn_zero_k() {
        let idx = LinearScan::build(grid_dataset(), Measure::L1).unwrap();
        assert!(crate::traits::knn_search_simple(&idx, &[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn radius_zero_finds_exact_duplicates() {
        let ds = Dataset::from_vectors(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let idx = LinearScan::build(ds, Measure::L2).unwrap();
        let hits = crate::traits::range_search_simple(&idx, &[1.0, 1.0], 0.0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 1);
    }

    #[test]
    fn works_with_non_metric_measures() {
        let ds = Dataset::from_vectors(&[vec![0.5, 0.5], vec![1.0, 0.0]]).unwrap();
        let idx = LinearScan::build(ds, Measure::ChiSquare).unwrap();
        let hits = crate::traits::knn_search_simple(&idx, &[0.5, 0.5], 1);
        assert_eq!(hits[0].id, 0);
        assert_eq!(idx.name(), "linear");
        assert!(idx.structure_bytes() > 0);
        assert_eq!(idx.dim(), 2);
        assert!(!idx.is_empty());
    }

    // -----------------------------------------------------------------
    // The filtered scan against a naive scan written here.
    // -----------------------------------------------------------------

    /// Rows just over the filter's threshold: every corpus below gets a
    /// table unless its data rules one out.
    const N: usize = MIN_FILTER_ROWS + 404;

    type Key = (usize, u32);

    fn keys(hits: &[Neighbor]) -> Vec<Key> {
        hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
    }

    /// Every row's distance by the pairwise kernel, ordered by
    /// `(distance, id)`.
    fn naive_order(rows: &[Vec<f32>], q: &[f32]) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = rows
            .iter()
            .enumerate()
            .map(|(id, row)| Neighbor {
                id,
                distance: cbir_distance::l1(q, row),
            })
            .collect();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        all
    }

    fn naive_knn(rows: &[Vec<f32>], q: &[f32], k: usize) -> Vec<Key> {
        let mut all = naive_order(rows, q);
        all.truncate(k);
        keys(&all)
    }

    fn naive_range(rows: &[Vec<f32>], q: &[f32], radius: f32) -> Vec<Key> {
        let mut all = naive_order(rows, q);
        all.retain(|h| h.distance <= radius);
        keys(&all)
    }

    /// The corpora of the grid, by name. `dim` 1 turns some of them into
    /// a constant corpus, which must simply stay on the plain scan.
    fn corpora(dim: usize, full: bool) -> Vec<(&'static str, Vec<Vec<f32>>)> {
        let n = N;
        let mut all = vec![
            (
                "clustered_smooth",
                cbir_workload::clustered_smooth(n, dim, n / 64, 10.0, 100.0, 8.min(dim), 3),
            ),
            ("uniform white", cbir_workload::uniform(n, dim, 100.0, 4)),
        ];
        // Integer coordinates 0..=254: the fitted step is exactly 1 and
        // the origins 0, so every coordinate sits on a cell edge, and
        // distances are small integers that tie across the heap's bound.
        let edges: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..dim).map(|d| ((i * 7 + d * 13) % 255) as f32).collect())
            .collect();
        all.push(("cell edges", edges));
        if !full {
            return all;
        }
        all.push((
            "duplicated_histograms",
            cbir_workload::duplicated_histograms(n, dim, 1.0, 3, 5),
        ));
        let mut constant = cbir_workload::clustered(n, dim, 40, 2.0, 50.0, 6);
        let mut tiny = cbir_workload::uniform(n, dim, 1.0, 7);
        let mut wide = cbir_workload::uniform(n, dim, 1.0, 8);
        for (i, ((c, t), w)) in constant
            .iter_mut()
            .zip(&mut tiny)
            .zip(&mut wide)
            .enumerate()
        {
            c[0] = 3.25;
            // Signed zeros in one column, denormals in the next.
            t[0] = if i % 2 == 0 { 0.0 } else { -0.0 };
            if dim > 1 {
                t[1] = (i % 97) as f32 * 1e-42;
            }
            // One column a million times the scale of the others.
            w[0] *= 1e6;
        }
        all.push(("constant column", constant));
        all.push(("zeros and denormals", tiny));
        all.push(("one wide column", wide));
        all
    }

    /// 64 queries: perturbed members and box-uniform points, members
    /// themselves (a by-id search, asked for `k + 1`), points far outside
    /// the corpus box, signed zeros.
    fn grid_queries(rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let dim = rows[0].len();
        let scale = rows.iter().flatten().fold(0.0f32, |m, x| m.max(x.abs()));
        let mut queries = cbir_workload::queries(rows, 48, scale * 0.05, 9);
        queries.extend(rows.iter().step_by(rows.len() / 11).take(11).cloned());
        queries.push(vec![-1e4 * scale.max(1.0); dim]);
        queries.push(vec![1e6 * scale.max(1.0); dim]);
        queries.push(vec![0.0; dim]);
        queries.push(vec![-0.0; dim]);
        queries.push(rows[rows.len() - 1].clone());
        assert_eq!(queries.len(), 64);
        queries
    }

    /// Per-query counters of `knn_into` / `range_into` over `queries`,
    /// and the single-query results.
    fn singles(
        idx: &LinearScan,
        queries: &[Vec<f32>],
        search: impl Fn(&[f32], &mut QueryScratch, &mut SearchStats, &mut Vec<Neighbor>),
    ) -> (Vec<Vec<Key>>, BatchStats) {
        let mut scratch = QueryScratch::new();
        let mut stats = BatchStats::new();
        let mut out = Vec::new();
        let results = queries
            .iter()
            .map(|q| {
                let mut one = SearchStats::new();
                search(q, &mut scratch, &mut one, &mut out);
                assert_eq!(
                    one.distance_computations + one.subtrees_pruned,
                    idx.len() as u64,
                    "every row is either scored or pruned"
                );
                assert_eq!(one.postfilter_candidates, one.distance_computations);
                assert_eq!(one.nodes_visited, 1);
                stats.record(&one);
                keys(&out)
            })
            .collect();
        (results, stats)
    }

    /// The per-query `distance_computations` samples, in query order.
    fn comps(stats: &BatchStats) -> Vec<u64> {
        let per_query = stats.per_query().iter();
        per_query.map(|s| s.distance_computations).collect()
    }

    /// One corpus through the grid: k-NN (which covers by-id: members
    /// ask for one more) and range, single-query and at batch {1, 5, 64}
    /// x threads {1, 2, 3}, on both kernel paths. Results must equal the
    /// naive scan's, per-query counters the single-query path's.
    fn check_corpus(label: &str, rows: &[Vec<f32>], queries: &[Vec<f32>], k: usize, radius: f32) {
        let want_knn: Vec<Vec<Key>> = queries.iter().map(|q| naive_knn(rows, q, k)).collect();
        let want_range: Vec<Vec<Key>> = queries
            .iter()
            .map(|q| naive_range(rows, q, radius))
            .collect();
        for path in KERNEL_PATHS {
            let idx = l1_scan(rows, path);
            let (knn_single, knn_stats) = singles(&idx, queries, |q, scratch, stats, out| {
                idx.knn_into(q, k, scratch, stats, out)
            });
            let (range_single, range_stats) = singles(&idx, queries, |q, scratch, stats, out| {
                idx.range_into(q, radius, scratch, stats, out)
            });
            assert_eq!(knn_single, want_knn, "{label}, {path}: knn_into");
            assert_eq!(range_single, want_range, "{label}, {path}: range_into");
            // The two kernels are pinned to each other shape by shape in
            // `cbir-distance`; the portable one is slow unoptimized and
            // runs one thread count here.
            let threads: &[usize] = if path == "portable" { &[2] } else { &[1, 2, 3] };
            for (batch, &threads) in [1usize, 5, 64]
                .into_iter()
                .flat_map(|b| threads.iter().map(move |t| (b, t)))
            {
                let at = format!("{label}, {path}: batch {batch}, {threads} threads");
                let batch = &queries[..batch];
                let mut stats = BatchStats::new();
                let got = knn_batch_parallel(&idx, batch, k, threads, &mut stats);
                let got: Vec<Vec<Key>> = got.iter().map(|h| keys(h)).collect();
                assert_eq!(got, want_knn[..batch.len()], "{at}: knn");
                assert_eq!(
                    comps(&stats),
                    &comps(&knn_stats)[..batch.len()],
                    "{at}: knn"
                );
                assert_eq!(
                    stats.total().distance_computations + stats.total().subtrees_pruned,
                    (batch.len() * rows.len()) as u64
                );
                let mut stats = BatchStats::new();
                let got = range_batch_parallel(&idx, batch, radius, threads, &mut stats);
                let got: Vec<Vec<Key>> = got.iter().map(|h| keys(h)).collect();
                assert_eq!(got, want_range[..batch.len()], "{at}: range");
                assert_eq!(
                    comps(&stats),
                    &comps(&range_stats)[..batch.len()],
                    "{at}: range"
                );
            }
        }
    }

    /// Every corpus of `dim` through [`check_corpus`].
    fn grid(dim: usize, full: bool) {
        for (name, rows) in corpora(dim, full) {
            let queries = grid_queries(&rows);
            // A radius that returns a few dozen rows for the first
            // query, whatever the corpus's scale.
            let radius = naive_order(&rows, &queries[0])[40].distance;
            // k = 11: a member asks for itself plus ten.
            check_corpus(&format!("dim {dim}, {name}"), &rows, &queries, 11, radius);
        }
    }

    // One test per dimensionality, so that they run side by side.
    #[test]
    fn filtered_scan_matches_a_naive_scan_dim_1() {
        grid(1, true);
    }

    #[test]
    fn filtered_scan_matches_a_naive_scan_dim_7() {
        grid(7, true);
    }

    #[test]
    fn filtered_scan_matches_a_naive_scan_dim_64() {
        grid(64, true);
    }

    #[test]
    fn filtered_scan_matches_a_naive_scan_dim_577() {
        grid(577, false);
    }

    #[test]
    fn filtered_scan_matches_a_naive_scan_at_the_edges_of_k_and_radius() {
        for (name, rows) in corpora(7, true) {
            let queries = &grid_queries(&rows)[40..56];
            let diameter = 2.0 * naive_order(&rows, &queries[15]).last().unwrap().distance;
            for path in KERNEL_PATHS {
                let idx = l1_scan(&rows, path);
                // k: one, the first that skips the filter, half the
                // rows, all of them, more than there are.
                for k in [1, N / BAIL_ONE_IN as usize + 1, N / 2, N, N + 5] {
                    let mut stats = BatchStats::new();
                    let got = knn_batch_parallel(&idx, queries, k, 2, &mut stats);
                    for (q, got) in queries.iter().zip(&got) {
                        assert_eq!(keys(got), naive_knn(&rows, q, k), "{path}, {name}: k {k}");
                    }
                    if k > 1 {
                        // The heap alone needs this many evaluations:
                        // the plain scan from the first row.
                        assert_eq!(stats.total().subtrees_pruned, 0, "{path}, {name}: k {k}");
                    }
                }
                for radius in [0.0, -1.0, diameter, f32::INFINITY, f32::NAN] {
                    let mut stats = BatchStats::new();
                    let got = range_batch_parallel(&idx, queries, radius, 2, &mut stats);
                    for (q, got) in queries.iter().zip(&got) {
                        let want = naive_range(&rows, q, radius);
                        assert_eq!(keys(got), want, "{path}, {name}: radius {radius}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_queries_take_the_plain_scan() {
        let rows = cbir_workload::clustered_smooth(N, 7, N / 64, 10.0, 100.0, 4, 3);
        let idx = LinearScan::build(Dataset::from_vectors(&rows).unwrap(), Measure::L1).unwrap();
        let mut queries = vec![rows[5].clone(); 4];
        queries[0][3] = f32::INFINITY;
        queries[1][0] = f32::NEG_INFINITY;
        queries[2][6] = f32::NAN;
        let mut stats = BatchStats::new();
        let got = idx.knn_batch(&queries, 10, &mut stats);
        let ranged = idx.range_batch(&queries, 500.0, &mut BatchStats::new());
        // Infinite components: every distance is +inf, ties by id.
        for (q, got) in queries[..2].iter().zip(&got) {
            assert_eq!(keys(got), naive_knn(&rows, q, 10));
            assert!(got.iter().all(|h| h.distance == f32::INFINITY));
        }
        // NaN: the first ten rows, NaN distances, as the plain scan has
        // always answered; a range search finds nothing.
        assert_eq!(
            got[2].iter().map(|h| h.id).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert!(got[2].iter().all(|h| h.distance.is_nan()));
        assert!(ranged[..3].iter().all(Vec::is_empty));
        // The three scored every row; their finite neighbour in the same
        // batch was filtered.
        assert_eq!(comps(&stats)[..3], [N as u64; 3][..]);
        assert!(comps(&stats)[3] < N as u64 / 4);
        assert_eq!(keys(&got[3]), naive_knn(&rows, &queries[3], 10));
    }

    #[test]
    fn small_sources_and_other_measures_never_build_a_table() {
        let rows = cbir_workload::clustered_smooth(N, 16, N / 64, 10.0, 100.0, 4, 3);
        let queries = cbir_workload::queries(&rows, 8, 5.0, 2);
        let full = |idx: &LinearScan, rows: usize| {
            idx.prepare();
            let mut stats = BatchStats::new();
            idx.knn_batch(&queries, 10, &mut stats);
            idx.range_batch(&queries, 300.0, &mut stats);
            assert_eq!(stats.total().distance_computations, 16 * rows as u64);
            assert_eq!(stats.total().subtrees_pruned, 0);
            assert!(idx.cells.get().is_none(), "a table was built");
        };
        let small = Dataset::from_vectors(&rows[..MIN_FILTER_ROWS - 1]).unwrap();
        full(
            &LinearScan::build(small, Measure::L1).unwrap(),
            MIN_FILTER_ROWS - 1,
        );
        let ds = Dataset::from_vectors(&rows).unwrap();
        for measure in [Measure::L2, Measure::LInf, Measure::ChiSquare] {
            full(&LinearScan::build(ds.clone(), measure).unwrap(), N);
        }
        // Over the threshold under L1 the first scan builds it, and
        // `structure_bytes` owns up to it: one byte per coordinate.
        let idx = LinearScan::build(ds.clone(), Measure::L1).unwrap();
        let before = idx.structure_bytes();
        let mut stats = BatchStats::new();
        let scanned = idx.knn_batch(&queries, 10, &mut stats);
        assert!(stats.total().subtrees_pruned > 0);
        assert_eq!(idx.structure_bytes() - before, N * 16);
        // `prepare` builds that same table before any scan, and the first
        // scan then filters with it.
        let prepared = LinearScan::build(ds, Measure::L1).unwrap();
        prepared.prepare();
        assert_eq!(prepared.structure_bytes(), idx.structure_bytes());
        let mut again = BatchStats::new();
        assert_eq!(prepared.knn_batch(&queries, 10, &mut again), scanned);
        assert_eq!(again, stats);
    }

    #[test]
    fn non_finite_rows_keep_the_plain_scan() {
        // `Dataset::from_shared` takes its rows on trust; the build must
        // notice what the fit's sample missed.
        let mut flat: Vec<f32> = cbir_workload::uniform(N, 3, 10.0, 1).concat();
        flat[3 * 1001 + 1] = f32::NAN;
        let shared: std::sync::Arc<dyn AsRef<[f32]> + Send + Sync> = std::sync::Arc::new(flat);
        let idx = LinearScan::build(Dataset::from_shared(3, shared).unwrap(), Measure::L1).unwrap();
        let mut stats = SearchStats::new();
        idx.knn_search(&[5.0, 5.0, 5.0], 10, &mut stats);
        assert_eq!(stats.distance_computations, N as u64);
        assert!(matches!(idx.cells.get(), Some(None)));
    }

    #[test]
    fn the_filter_prunes_what_it_should_and_bails_out_where_it_cannot() {
        // The benchmark's corpus shape: nearly every row is excluded by
        // its bound.
        let rows = cbir_workload::clustered_smooth(20_000, 64, 312, 10.0, 100.0, 8, 3);
        let queries = cbir_workload::queries(&rows, 32, 5.0, 4);
        let idx = LinearScan::build(Dataset::from_vectors(&rows).unwrap(), Measure::L1).unwrap();
        let mut stats = BatchStats::new();
        idx.knn_batch(&queries, 10, &mut stats);
        let pruned = stats.total().subtrees_pruned as f64 / (32.0 * 20_000.0);
        assert!(pruned > 0.98, "pruned share {pruned}");

        // One column a million times wider than the rest: the step is
        // that column's, the others collapse into one cell, far more than
        // one row in sixteen survives, and every query leaves the filter
        // once its 640 free survivors are spent: in the second block.
        let mut wide = cbir_workload::uniform(20_000, 64, 1.0, 8);
        let mut rng = cbir_workload::Pcg32::new(1);
        for row in &mut wide {
            row[0] = rng.range_f32(0.0, 1e6);
        }
        let queries = cbir_workload::queries(&wide, 8, 0.05, 4);
        let idx = LinearScan::build(Dataset::from_vectors(&wide).unwrap(), Measure::L1).unwrap();
        let mut stats = BatchStats::new();
        let got = idx.knn_batch(&queries, 10, &mut stats);
        for (q, got) in queries.iter().zip(&got) {
            assert_eq!(keys(got), naive_knn(&wide, q, 10));
        }
        let code_block = idx.block_rows() * CODE_BLOCK_SPAN;
        for scored in comps(&stats) {
            assert!(
                scored >= (20_000 - 2 * code_block) as u64,
                "{scored} of 20000 rows scored: the query stayed on the filter"
            );
        }
    }

    /// The filter alone: a query it serves gets the full scan's hits and
    /// counters; one it never admits costs nothing; one that leaves is
    /// dropped after the blocks it tried.
    #[test]
    fn the_filter_alone_serves_what_it_keeps_and_drops_the_rest() {
        let rows = cbir_workload::clustered_smooth(N, 16, N / 64, 10.0, 100.0, 8, 3);
        let mut queries = cbir_workload::queries(&rows, 6, 5.0, 4);
        queries[2][5] = f32::NAN;
        for path in KERNEL_PATHS {
            let idx = l1_scan(&rows, path);
            let mut full = BatchStats::new();
            let want = idx.knn_batch(&queries, 10, &mut full);
            let mut alone = BatchStats::new();
            let got = idx.knn_batch_filtered(&queries, 10, &mut alone);
            for (i, got) in got.iter().enumerate() {
                let ctx = format!("{path}, query {i}");
                if i == 2 {
                    // Never admitted: nothing scanned, nothing counted.
                    assert_eq!(*got, None, "{ctx}");
                    assert_eq!(alone.per_query()[i], SearchStats::new(), "{ctx}");
                } else {
                    assert_eq!(got.as_ref(), Some(&want[i]), "{ctx}");
                    assert_eq!(alone.per_query()[i], full.per_query()[i], "{ctx}");
                }
            }
            // k past one in BAIL_ONE_IN of the rows: never admitted.
            let big = N / BAIL_ONE_IN as usize + 1;
            let mut stats = BatchStats::new();
            let got = idx.knn_batch_filtered(&queries[..2], big, &mut stats);
            assert_eq!(got, [None, None], "{path}");
            assert_eq!(*stats.total(), SearchStats::new(), "{path}");
            // Under the row threshold or another measure there is no
            // filter, and no table is built.
            let small = l1_scan(&rows[..MIN_FILTER_ROWS - 1], path);
            let l2 = LinearScan::build(Dataset::from_vectors(&rows).unwrap(), Measure::L2).unwrap();
            for idx in [&small, &l2] {
                let got = idx.knn_batch_filtered(&queries, 10, &mut BatchStats::new());
                assert!(got.iter().all(Option::is_none), "{path}");
                assert!(idx.cells.get().is_none(), "{path}");
            }
        }

        // The wide column of the test above: every query leaves once its
        // free survivors are spent, a few blocks in, and is dropped at
        // that group of rows, having scored no more than it reached.
        let mut wide = cbir_workload::uniform(20_000, 64, 1.0, 8);
        let mut rng = cbir_workload::Pcg32::new(1);
        for row in &mut wide {
            row[0] = rng.range_f32(0.0, 1e6);
        }
        let queries = cbir_workload::queries(&wide, 8, 0.05, 4);
        let idx = LinearScan::build(Dataset::from_vectors(&wide).unwrap(), Measure::L1).unwrap();
        let mut stats = BatchStats::new();
        let got = idx.knn_batch_filtered(&queries, 10, &mut stats);
        assert!(got.iter().all(Option::is_none));
        for s in stats.per_query() {
            assert!(s.distance_computations > 10 * GRACE_PER_NEIGHBOUR, "{s:?}");
            let reached = s.distance_computations + s.subtrees_pruned;
            let group = SURVIVOR_GROUP as u64;
            assert!(
                reached.is_multiple_of(group) && reached < 20_000 / 8,
                "{s:?}"
            );
            assert_eq!(s.nodes_visited, 1);
        }
    }
}
