//! Two-stage coarse-to-fine approximate search.
//!
//! The dimensionality experiments record the paper's core negative result:
//! exact metric/spatial pruning collapses as dimensionality rises and every
//! [`SearchIndex`](crate::SearchIndex) crosses over to linear scan. This
//! module is the escape hatch: an explicitly *approximate* first stage that
//! gathers a small candidate set cheaply, followed by an **exact** rerank of
//! those candidates under the real measure.
//!
//! The [`ApproxSearch`] trait captures only the coarse stage — "give me up
//! to `budget` plausible row ids" — so every backend (truncated-Haar
//! signature scan, best-bin-first kd traversal) composes
//! with one shared rerank path, [`rerank_exact`], which scores candidates
//! through the monomorphized [`DistanceKernel`](cbir_distance::DistanceKernel) batch entry point and orders
//! the final top-k by the same `(distance, id)` rule every exact index uses.
//! Because the rerank is exact, recall failures can only come from the
//! coarse stage missing a true neighbour — never from mis-ranking a
//! candidate it did surface — and a budget of `len()` degenerates to the
//! exact answer.
//!
//! Cost accounting: the coarse stage increments
//! [`SearchStats::coarse_candidates`]; the rerank increments
//! [`SearchStats::rerank_evaluations`] alongside the usual
//! `distance_computations` (rerank distances are full evaluations).

use crate::dataset::Dataset;
use crate::error::{IndexError, Result};
use crate::knn_heap::KnnHeap;
use crate::scratch::OrderedF32;
use crate::stats::{BatchStats, Neighbor, SearchStats};
use cbir_distance::Measure;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A coarse candidate generator: stage one of two-stage approximate search.
///
/// Implementations trade recall for speed and make no ordering promises —
/// the ids written by [`ApproxSearch::coarse_candidates`] are an unordered,
/// deduplicated candidate set that the caller reranks exactly (see
/// [`rerank_exact`]). The only contract is containment-by-effort: a larger
/// `budget` never yields a *worse* candidate set (implementations return
/// their `budget` best candidates under their own coarse criterion).
pub trait ApproxSearch: Send + Sync {
    /// Number of rows the structure covers.
    fn len(&self) -> usize;

    /// Whether the structure covers no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the descriptors the structure was built over.
    fn dim(&self) -> usize;

    /// Append up to `budget` candidate row ids for `query` into `out`
    /// (deduplicated, unordered). Increments
    /// [`SearchStats::coarse_candidates`] by the number appended.
    fn coarse_candidates(
        &self,
        query: &[f32],
        budget: usize,
        stats: &mut SearchStats,
        out: &mut Vec<u32>,
    );

    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// Approximate heap footprint of the coarse structure in bytes.
    fn structure_bytes(&self) -> usize;
}

/// Reusable buffers for one in-flight approximate search, mirroring
/// [`QueryScratch`](crate::QueryScratch) for the exact path: the first
/// query grows each buffer to steady-state size, later queries reuse it.
#[derive(Debug, Default)]
pub struct ApproxScratch {
    /// Candidate ids surviving the coarse stage.
    pub(crate) candidates: Vec<u32>,
    /// Gathered candidate rows (row-major) for the batched rerank.
    pub(crate) gather: Vec<f32>,
    /// Batched rerank distance output.
    pub(crate) dists: Vec<f32>,
    /// Transformed/quantized query signature (Haar backend).
    pub(crate) sig: Vec<i16>,
    /// f32 workspace for the query-side Haar transform.
    pub(crate) work: Vec<f32>,
}

impl ApproxScratch {
    /// Fresh scratch with minimal capacity.
    pub fn new() -> Self {
        ApproxScratch::default()
    }
}

/// Rerank `candidates` exactly under `measure` and append the `k` best to
/// `out`, ordered by the documented `(distance, id)` ascending rule.
///
/// Candidate rows are gathered in bounded chunks into a contiguous scratch
/// matrix and scored through [`DistanceKernel::dist_to_many`](cbir_distance::DistanceKernel::dist_to_many), so the rerank
/// rides the same monomorphized (and, for L1/L2, SIMD-dispatched) batch
/// kernels as [`LinearScan`](crate::LinearScan) — distances are
/// bit-identical to the exact path's.
#[allow(clippy::too_many_arguments)] // the full two-stage context, threaded explicitly
pub fn rerank_exact(
    dataset: &Dataset,
    measure: &Measure,
    query: &[f32],
    k: usize,
    candidates: &[u32],
    scratch: &mut ApproxScratch,
    stats: &mut SearchStats,
    out: &mut Vec<Neighbor>,
) {
    out.clear();
    if k == 0 || candidates.is_empty() {
        return;
    }
    // Bounded gather chunk: large enough to amortize kernel dispatch,
    // small enough to stay cache-resident at high dimensionality.
    const CHUNK: usize = 512;
    let mut heap = KnnHeap::new(k);
    for chunk in candidates.chunks(CHUNK) {
        scratch.gather.clear();
        for &id in chunk {
            scratch
                .gather
                .extend_from_slice(dataset.vector(id as usize));
        }
        scratch.dists.clear();
        scratch.dists.resize(chunk.len(), 0.0);
        measure.dist_to_many(query, &scratch.gather, &mut scratch.dists);
        for (&id, &d) in chunk.iter().zip(scratch.dists.iter()) {
            heap.offer(id as usize, d);
        }
    }
    stats.distance_computations += candidates.len() as u64;
    stats.rerank_evaluations += candidates.len() as u64;
    stats.postfilter_candidates += candidates.len() as u64;
    heap.drain_sorted_into(out);
}

/// One-call two-stage search: coarse candidates from `coarse`, exact rerank
/// against `dataset` under `measure`. A `budget >= coarse.len()` makes the
/// result identical to an exact k-NN (every row becomes a candidate).
#[allow(clippy::too_many_arguments)] // the full two-stage context, threaded explicitly
pub fn approx_knn(
    coarse: &dyn ApproxSearch,
    dataset: &Dataset,
    measure: &Measure,
    query: &[f32],
    k: usize,
    budget: usize,
    scratch: &mut ApproxScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    let mut out = Vec::new();
    let mut candidates = std::mem::take(&mut scratch.candidates);
    candidates.clear();
    coarse.coarse_candidates(query, budget, stats, &mut candidates);
    rerank_exact(
        dataset,
        measure,
        query,
        k,
        &candidates,
        scratch,
        stats,
        &mut out,
    );
    scratch.candidates = candidates;
    out
}

/// Two-stage search over a batch of queries on the calling thread, reusing
/// one scratch. One result list per query, in query order, each identical
/// to the single-query [`approx_knn`]; per-query counters are recorded
/// into `stats`.
#[allow(clippy::too_many_arguments)] // the full two-stage context, threaded explicitly
pub fn approx_knn_batch(
    coarse: &dyn ApproxSearch,
    dataset: &Dataset,
    measure: &Measure,
    queries: &[Vec<f32>],
    k: usize,
    budget: usize,
    stats: &mut BatchStats,
) -> Vec<Vec<Neighbor>> {
    let mut scratch = ApproxScratch::new();
    let mut per_query = SearchStats::new();
    queries
        .iter()
        .map(|q| {
            per_query.reset();
            let out = approx_knn(
                coarse,
                dataset,
                measure,
                q,
                k,
                budget,
                &mut scratch,
                &mut per_query,
            );
            stats.record(&per_query);
            out
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Truncated/quantized Haar signature table
// ---------------------------------------------------------------------------

/// Orthonormal 1-D Haar transform of `v` zero-padded to the next power of
/// two, written into `out` with coefficients ordered coarse-to-fine: the
/// scaling coefficient first, then detail levels from coarsest to finest.
/// Orthonormality (each butterfly scaled by 1/√2) preserves L2 energy, so
/// truncating the suffix drops exactly the energy of the dropped
/// coefficients — the property the monotone-truncation-error test checks.
fn haar_coarse_to_fine(v: &[f32], out: &mut Vec<f32>, work: &mut Vec<f32>) {
    let n = v.len().next_power_of_two().max(1);
    out.clear();
    out.resize(n, 0.0);
    out[..v.len()].copy_from_slice(v);
    work.clear();
    work.resize(n, 0.0);
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let a = out[2 * i];
            let b = out[2 * i + 1];
            work[i] = (a + b) * std::f32::consts::FRAC_1_SQRT_2;
            work[half + i] = (a - b) * std::f32::consts::FRAC_1_SQRT_2;
        }
        out[..len].copy_from_slice(&work[..len]);
        len = half;
    }
}

/// Stage-one backend: a compact table of truncated, quantized Haar
/// signatures scanned with a cheap integer kernel (WBIIS-style).
///
/// Each row's descriptor is Haar-transformed (orthonormal, zero-padded to a
/// power of two), truncated to its `c` coarsest coefficients, and quantized
/// to `i16` with one global scale, giving a SIMD-friendly `n × c` code
/// matrix 8–16× smaller than the f32 dataset. The quantization range is
/// deliberately *narrower* than the full `i16` span: the largest
/// coefficient magnitude maps to `16000 / c`, so any single `|a - q|` term
/// is at most `32000 / c` and a whole row's L1 sum over `c` terms is at
/// most 32000 — the scan can therefore accumulate in `i16` without any
/// overflow possibility, which doubles the SIMD lane count over an
/// i32-accumulated kernel. (An `i8` grid is still too coarse at serving
/// dynamic ranges: cluster offsets span hundreds of units while
/// within-cluster structure lives at unit scale, and a 7-bit step
/// collapses the within-cluster ranking the rerank budget depends on.)
/// A query scans the whole table with that i16 L1 kernel (the compiler
/// autovectorizes the inner loop) and keeps the `budget` best rows;
/// because the transform concentrates signature energy in the coarse
/// prefix, the true neighbours survive at small budgets even where exact
/// pruning has collapsed.
pub struct CoarseHaarIndex {
    dim: usize,
    c: usize,
    scale: f32,
    /// Quantized signatures in block-transposed layout: rows are grouped
    /// into blocks of [`SIG_BLOCK`], and within a block the `SIG_BLOCK`
    /// values of one coefficient are contiguous (coefficient-major).
    /// Rows past `rows` in the final block are zero padding — the scan
    /// computes their distances (keeping the inner loop branch-free) and
    /// the selection pass never reads them.
    codes: Vec<i16>,
    rows: usize,
}

impl CoarseHaarIndex {
    /// Default kept-coefficient count for descriptor dimensionality `dim`:
    /// a quarter of the padded spectrum, clamped to `[4, 32]` — small
    /// enough that the table scan is memory-bound on the compact codes,
    /// large enough to rank clustered data reliably.
    pub fn default_coefficients(dim: usize) -> usize {
        (dim / 4).clamp(4, 32).min(dim.next_power_of_two())
    }

    /// Build over `dataset`, keeping `c` coarse coefficients per row.
    pub fn build(dataset: &Dataset, c: usize) -> Result<Self> {
        Self::build_with_threads(dataset, c, 1)
    }

    /// [`CoarseHaarIndex::build`] with row-parallel construction.
    ///
    /// The table is byte-identical for every `threads` value: rows are
    /// transformed independently, and the global quantization scale is a
    /// max-reduction over per-row maxima (order-independent), so thread
    /// count cannot leak into the output — the determinism property test
    /// asserts this.
    pub fn build_with_threads(dataset: &Dataset, c: usize, threads: usize) -> Result<Self> {
        let dim = dataset.dim();
        let padded = dim.next_power_of_two();
        if c == 0 || c > padded {
            return Err(IndexError::InvalidParameter(format!(
                "coarse coefficient count must be in 1..={padded} for dim {dim}, got {c}"
            )));
        }
        let rows = dataset.len();
        // Pass 1: transform every row, keep the coarse prefix as f32.
        let mut coarse = vec![0.0f32; rows * c];
        let threads = threads.max(1).min(rows.max(1));
        let chunk_rows = rows.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, slot) in coarse.chunks_mut(chunk_rows * c).enumerate() {
                let start = t * chunk_rows;
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    let mut work = Vec::new();
                    for (r, row_out) in slot.chunks_mut(c).enumerate() {
                        haar_coarse_to_fine(dataset.vector(start + r), &mut buf, &mut work);
                        row_out.copy_from_slice(&buf[..c]);
                    }
                });
            }
        });
        // Global scale: max |coefficient| maps to the overflow-free code
        // bound (see the type docs — `c` terms of at most `2 * qmax` each
        // must sum inside i16). The max reduction is order-independent, so
        // the scale (and thus the codes) do not depend on how rows were
        // partitioned across threads.
        let max_abs = coarse.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let qmax = Self::code_bound(c);
        let scale = if max_abs > 0.0 { qmax / max_abs } else { 0.0 };
        // Pass 2: quantize row-major, then transpose into the blocked
        // coefficient-major layout the scan wants. Both passes are
        // order-independent, preserving the thread-count determinism.
        let flat: Vec<i16> = coarse
            .iter()
            .map(|&x| (x * scale).round().clamp(-qmax, qmax) as i16)
            .collect();
        let blocks = rows.div_ceil(SIG_BLOCK).max(1);
        let mut codes = vec![0i16; blocks * c * SIG_BLOCK];
        for row in 0..rows {
            let (block, r) = (row / SIG_BLOCK, row % SIG_BLOCK);
            let block_base = block * c * SIG_BLOCK;
            for j in 0..c {
                codes[block_base + j * SIG_BLOCK + r] = flat[row * c + j];
            }
        }
        Ok(CoarseHaarIndex {
            dim,
            c,
            scale,
            codes,
            rows,
        })
    }

    /// Number of coarse coefficients kept per row.
    pub fn coefficients(&self) -> usize {
        self.c
    }

    /// Largest code magnitude for a `c`-coefficient signature: chosen so a
    /// row's L1 signature distance — `c` terms, each at most twice this
    /// bound — never exceeds 32000, making i16 accumulation in the scan
    /// overflow-free by construction.
    fn code_bound(c: usize) -> f32 {
        (16_000 / c).max(1) as f32
    }

    /// Quantize `query` into the table's signature space using the stored
    /// global scale, appending `c` codes to `scratch.sig`.
    fn quantize_query(&self, query: &[f32], scratch: &mut ApproxScratch) {
        let mut buf = std::mem::take(&mut scratch.dists); // reuse as f32 workspace
        haar_coarse_to_fine(query, &mut buf, &mut scratch.work);
        scratch.sig.clear();
        let qmax = Self::code_bound(self.c);
        scratch.sig.extend(
            buf[..self.c]
                .iter()
                .map(|&x| (x * self.scale).round().clamp(-qmax, qmax) as i16),
        );
        buf.clear();
        scratch.dists = buf;
    }
}

/// Rows per blocked scan pass. Signatures are stored block-transposed
/// (coefficient-major within each block of `SIG_BLOCK` rows), so the
/// distance pass is a broadcast-accumulate over contiguous `i16` columns —
/// a loop the compiler turns into packed SIMD with no per-row overhead.
/// Selection then consumes the per-block distance buffer in a second,
/// branchy pass — mostly-not-taken compares once the heap holds `budget`
/// good rows.
const SIG_BLOCK: usize = 256;

impl ApproxSearch for CoarseHaarIndex {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn coarse_candidates(
        &self,
        query: &[f32],
        budget: usize,
        stats: &mut SearchStats,
        out: &mut Vec<u32>,
    ) {
        if budget == 0 || self.rows == 0 {
            return;
        }
        let mut scratch = ApproxScratch::new();
        self.quantize_query(query, &mut scratch);
        let q = &scratch.sig[..];
        if budget >= self.rows {
            out.extend(0..self.rows as u32);
            stats.nodes_visited += self.rows as u64;
            stats.coarse_candidates += self.rows as u64;
            return;
        }
        // Selection state: survivors of the scalar admission threshold,
        // compacted by quickselect whenever they outgrow `2 * budget`.
        // A streaming bounded heap is the obvious alternative, but on
        // clustered corpora whole clusters keep beating the heap's worst
        // entry and the churn dwarfs the scan; here admission is one
        // predictable compare per row, survivors are O(budget · log n)
        // in expectation, and each compaction is O(budget). `thresh` is
        // the distance of the budget-th smallest (distance, id) pair at
        // the last compaction; strict `d < thresh` admission is exact,
        // not approximate, because the scan emits ids in ascending order —
        // a later pair tying the threshold distance has a larger id, so
        // it loses the lexicographic tie-break to all `budget` pairs
        // already kept and can never enter the final set. Quantized
        // signatures tie constantly on clustered data, so rejecting ties
        // is also what keeps the survivor stream small. The final
        // quickselect under (distance, id) order makes the selected set
        // unique and deterministic.
        let cap = 2 * budget + SIG_BLOCK;
        let mut sel: Vec<(i32, u32)> = Vec::with_capacity(cap + SIG_BLOCK);
        let mut thresh = i32::MAX;
        let compact = |sel: &mut Vec<(i32, u32)>, thresh: &mut i32| {
            if sel.len() > budget {
                sel.select_nth_unstable(budget - 1);
                sel.truncate(budget);
                *thresh = sel[budget - 1].0;
            }
        };
        let mut dists = [0i32; SIG_BLOCK];
        for (block_idx, block) in self.codes.chunks_exact(self.c * SIG_BLOCK).enumerate() {
            let base = block_idx * SIG_BLOCK;
            let rows_here = (self.rows - base).min(SIG_BLOCK);
            // Distance pass: broadcast one query coefficient against a
            // contiguous i16 strip of the block's column, accumulating
            // |a - q| into a register-resident strip accumulator. The
            // accumulator stays in i16 — the quantization bound (see
            // [`CoarseHaarIndex::code_bound`]) caps a row's L1 sum at
            // 32000, so overflow is impossible and the kernel runs at
            // the full 16-lane i16 SIMD width. Looping coefficients
            // innermost keeps the accumulator out of memory (the naive
            // column-major order re-reads and re-writes the whole block
            // buffer once per coefficient), and the strip is sized so it
            // fits in a handful of vector registers.
            const STRIP: usize = 32;
            for s in (0..SIG_BLOCK).step_by(STRIP) {
                let mut acc = [0i16; STRIP];
                for (j, &qj) in q.iter().enumerate() {
                    let col: &[i16; STRIP] = block[j * SIG_BLOCK + s..j * SIG_BLOCK + s + STRIP]
                        .try_into()
                        .expect("exact strip");
                    for (slot, &cv) in acc.iter_mut().zip(col) {
                        *slot += (cv - qj).abs();
                    }
                }
                for (slot, &a) in dists[s..s + STRIP].iter_mut().zip(&acc) {
                    *slot = a as i32;
                }
            }
            // Whole-block skip: one vectorizable min-reduction decides
            // whether any row here can beat the threshold, so the scalar
            // admission loop only runs for blocks that contain a
            // survivor — a shrinking fraction as the threshold tightens.
            // (The final block's zero padding can only understate the
            // min, costing a scalar pass, never a missed row.)
            let block_min = dists.iter().copied().min().expect("non-empty block");
            if block_min >= thresh {
                continue;
            }
            for (r, &d) in dists[..rows_here].iter().enumerate() {
                if d < thresh {
                    sel.push((d, (base + r) as u32));
                }
            }
            if sel.len() >= cap {
                compact(&mut sel, &mut thresh);
            }
        }
        compact(&mut sel, &mut thresh);
        stats.nodes_visited += self.rows as u64;
        stats.coarse_candidates += sel.len() as u64;
        out.extend(sel.iter().map(|&(_, id)| id));
    }

    fn name(&self) -> &'static str {
        "coarse-haar"
    }

    fn structure_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.codes.len() * 2
    }
}

// ---------------------------------------------------------------------------
// Best-bin-first bounded-leaf kd traversal
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum BbfNode {
    Leaf {
        ids: Vec<u32>,
    },
    Split {
        dim: u32,
        value: f32,
        left: u32,
        right: u32,
    },
}

/// Stage-one backend: a kd-tree whose query traversal is *best-bin-first* —
/// leaves are visited in order of their splitting-plane lower bound, and
/// the traversal stops as soon as `budget` candidates have been gathered
/// instead of proving optimality.
///
/// The build is the exact [`KdTree`](crate::KdTree) recipe (widest-spread
/// dimension, median split), but the search replaces the backtracking prune
/// with a bounded priority-queue visit: the bins most likely to hold true
/// neighbours are opened first, so a small leaf budget captures most of the
/// true top-k while the long backtracking tail — the part that makes exact
/// kd search degrade to a scan at high dimensionality — is simply skipped.
pub struct BestBinFirst {
    dim: usize,
    rows: usize,
    nodes: Vec<BbfNode>,
    root: u32,
}

impl BestBinFirst {
    /// Default leaf capacity (matches the exact kd-tree).
    pub const DEFAULT_LEAF_SIZE: usize = 16;

    /// Build with the default leaf size.
    pub fn build(dataset: &Dataset) -> Result<Self> {
        Self::with_leaf_size(dataset, Self::DEFAULT_LEAF_SIZE)
    }

    /// Build with an explicit leaf capacity.
    pub fn with_leaf_size(dataset: &Dataset, leaf_size: usize) -> Result<Self> {
        if leaf_size == 0 {
            return Err(IndexError::InvalidParameter(
                "leaf size must be positive".into(),
            ));
        }
        let mut ids: Vec<u32> = (0..dataset.len() as u32).collect();
        let mut tree = BestBinFirst {
            dim: dataset.dim(),
            rows: dataset.len(),
            nodes: Vec::new(),
            root: 0,
        };
        tree.root = tree.build_node(dataset, &mut ids, leaf_size);
        Ok(tree)
    }

    fn build_node(&mut self, dataset: &Dataset, ids: &mut [u32], leaf_size: usize) -> u32 {
        if ids.len() <= leaf_size {
            self.nodes.push(BbfNode::Leaf { ids: ids.to_vec() });
            return (self.nodes.len() - 1) as u32;
        }
        let dim = {
            let mut best_dim = 0usize;
            let mut best_spread = -1.0f32;
            for d in 0..dataset.dim() {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &id in ids.iter() {
                    let v = dataset.vector(id as usize)[d];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo > best_spread {
                    best_spread = hi - lo;
                    best_dim = d;
                }
            }
            if best_spread <= 0.0 {
                self.nodes.push(BbfNode::Leaf { ids: ids.to_vec() });
                return (self.nodes.len() - 1) as u32;
            }
            best_dim
        };
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            dataset.vector(a as usize)[dim].total_cmp(&dataset.vector(b as usize)[dim])
        });
        let value = dataset.vector(ids[mid] as usize)[dim];
        let (lo, hi) = ids.split_at_mut(mid);
        let left = self.build_node(dataset, lo, leaf_size);
        let right = self.build_node(dataset, hi, leaf_size);
        self.nodes.push(BbfNode::Split {
            dim: dim as u32,
            value,
            left,
            right,
        });
        (self.nodes.len() - 1) as u32
    }
}

impl ApproxSearch for BestBinFirst {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn coarse_candidates(
        &self,
        query: &[f32],
        budget: usize,
        stats: &mut SearchStats,
        out: &mut Vec<u32>,
    ) {
        if budget == 0 || self.rows == 0 {
            return;
        }
        let start = out.len();
        // Frontier ordered by splitting-plane lower bound; ties by node id
        // for determinism. Bounds never shrink along a path, so popping in
        // bound order opens the most promising bins first.
        let mut frontier: BinaryHeap<Reverse<(OrderedF32, u32)>> = BinaryHeap::new();
        frontier.push(Reverse((OrderedF32(0.0), self.root)));
        while let Some(Reverse((bound, node))) = frontier.pop() {
            let mut at = node;
            loop {
                stats.nodes_visited += 1;
                match &self.nodes[at as usize] {
                    BbfNode::Leaf { ids } => {
                        out.extend_from_slice(ids);
                        break;
                    }
                    BbfNode::Split {
                        dim,
                        value,
                        left,
                        right,
                    } => {
                        let diff = query[*dim as usize] - value;
                        let (near, far) = if diff < 0.0 {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        // The far child is at least |diff| away on this
                        // axis; combine with the inherited bound.
                        let far_bound = OrderedF32(bound.0.max(diff.abs()));
                        frontier.push(Reverse((far_bound, far)));
                        at = near;
                    }
                }
            }
            if out.len() - start >= budget {
                break;
            }
        }
        stats.subtrees_pruned += frontier.len() as u64;
        stats.coarse_candidates += (out.len() - start) as u64;
    }

    fn name(&self) -> &'static str {
        "best-bin-first"
    }

    fn structure_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for n in &self.nodes {
            total += std::mem::size_of::<BbfNode>();
            if let BbfNode::Leaf { ids } = n {
                total += ids.len() * std::mem::size_of::<u32>();
            }
        }
        total
    }
}

/// The transform on its own, for the tests below.
#[cfg(test)]
fn haar_coarse_to_fine_for_tests(v: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    let mut work = Vec::new();
    haar_coarse_to_fine(v, &mut out, &mut work);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::rng::SplitMix64;
    use crate::traits::knn_search_simple;

    fn clustered(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let centres: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 100.0).collect())
            .collect();
        let v: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                centres[i % 8]
                    .iter()
                    .map(|&c| c + rng.next_normal())
                    .collect()
            })
            .collect();
        Dataset::from_vectors(&v).unwrap()
    }

    fn recall_of(
        coarse: &dyn ApproxSearch,
        ds: &Dataset,
        budget: usize,
        queries: usize,
        k: usize,
    ) -> f64 {
        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        let mut scratch = ApproxScratch::new();
        let mut total = 0.0;
        for qi in 0..queries {
            let q: Vec<f32> = ds.vector((qi * 131) % ds.len()).to_vec();
            let exact: Vec<usize> = knn_search_simple(&lin, &q, k)
                .iter()
                .map(|n| n.id)
                .collect();
            let mut stats = SearchStats::new();
            let approx: Vec<usize> = approx_knn(
                coarse,
                ds,
                &Measure::L2,
                &q,
                k,
                budget,
                &mut scratch,
                &mut stats,
            )
            .iter()
            .map(|n| n.id)
            .collect();
            total += exact.iter().filter(|id| approx.contains(id)).count() as f64 / k as f64;
        }
        total / queries as f64
    }

    #[test]
    fn haar_preserves_energy_and_orders_coarse_first() {
        let v = [4.0f32, 2.0, 5.0, 5.0, 1.0, 0.0, 3.0, 7.0];
        let t = haar_coarse_to_fine_for_tests(&v);
        let e_in: f32 = v.iter().map(|x| x * x).sum();
        let e_out: f32 = t.iter().map(|x| x * x).sum();
        assert!((e_in - e_out).abs() < 1e-3, "{e_in} vs {e_out}");
        // DC coefficient = sum / sqrt(n) for the orthonormal transform.
        let dc = v.iter().sum::<f32>() / (v.len() as f32).sqrt();
        assert!((t[0] - dc).abs() < 1e-4);
    }

    #[test]
    fn haar_pads_non_power_of_two() {
        let t = haar_coarse_to_fine_for_tests(&[1.0, 2.0, 3.0]);
        assert_eq!(t.len(), 4);
        let e_out: f32 = t.iter().map(|x| x * x).sum();
        assert!((e_out - 14.0).abs() < 1e-4);
    }

    #[test]
    fn full_budget_matches_exact_search() {
        let ds = clustered(800, 16, 3);
        let coarse = CoarseHaarIndex::build(&ds, 8).unwrap();
        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        let mut scratch = ApproxScratch::new();
        for qi in [0usize, 117, 445] {
            let q: Vec<f32> = ds.vector(qi).to_vec();
            let mut stats = SearchStats::new();
            let approx = approx_knn(
                &coarse,
                &ds,
                &Measure::L2,
                &q,
                10,
                ds.len(),
                &mut scratch,
                &mut stats,
            );
            let exact = knn_search_simple(&lin, &q, 10);
            assert_eq!(approx, exact);
            assert_eq!(stats.coarse_candidates, ds.len() as u64);
            assert_eq!(stats.rerank_evaluations, ds.len() as u64);
        }
    }

    #[test]
    fn haar_high_recall_at_small_budget() {
        let ds = clustered(4000, 64, 9);
        let coarse = CoarseHaarIndex::build(&ds, 32).unwrap();
        let r = recall_of(&coarse, &ds, 200, 20, 10);
        assert!(r >= 0.9, "recall {r}");
    }

    #[test]
    fn bbf_high_recall_at_small_budget() {
        let ds = clustered(4000, 16, 10);
        let bbf = BestBinFirst::build(&ds).unwrap();
        let r = recall_of(&bbf, &ds, 400, 20, 10);
        assert!(r >= 0.9, "recall {r}");
    }

    #[test]
    fn budget_caps_candidates() {
        let ds = clustered(1000, 8, 7);
        for coarse in [
            Box::new(CoarseHaarIndex::build(&ds, 8).unwrap()) as Box<dyn ApproxSearch>,
            Box::new(BestBinFirst::build(&ds).unwrap()),
        ] {
            let mut stats = SearchStats::new();
            let mut out = Vec::new();
            coarse.coarse_candidates(ds.vector(0), 50, &mut stats, &mut out);
            // BBF rounds up to whole leaves; allow one leaf of slack.
            assert!(
                out.len() <= 50 + BestBinFirst::DEFAULT_LEAF_SIZE,
                "{}",
                out.len()
            );
            assert!(!out.is_empty());
            assert_eq!(stats.coarse_candidates, out.len() as u64);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.len(), "duplicate candidate ids");
        }
    }

    #[test]
    fn coarse_table_deterministic_across_thread_counts() {
        let ds = clustered(500, 24, 11);
        let one = CoarseHaarIndex::build_with_threads(&ds, 12, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let many = CoarseHaarIndex::build_with_threads(&ds, 12, threads).unwrap();
            assert_eq!(one.codes, many.codes, "threads={threads}");
            assert_eq!(one.scale.to_bits(), many.scale.to_bits());
        }
    }

    #[test]
    fn truncation_error_is_monotone() {
        let ds = clustered(200, 48, 13);
        // Orthonormality: the energy outside the kept prefix is the exact
        // reconstruction error, and it can only shrink as c grows.
        for qi in [0usize, 50, 150] {
            let t = haar_coarse_to_fine_for_tests(ds.vector(qi));
            let mut prev = f32::INFINITY;
            for c in 1..=t.len() {
                let err: f32 = t[c..].iter().map(|x| x * x).sum();
                assert!(
                    err <= prev + 1e-3,
                    "row {qi}: error rose from {prev} to {err} at c={c}"
                );
                prev = err;
            }
        }
    }

    #[test]
    fn validation() {
        let ds = clustered(10, 8, 1);
        assert!(CoarseHaarIndex::build(&ds, 0).is_err());
        assert!(CoarseHaarIndex::build(&ds, 9).is_err());
        assert!(BestBinFirst::with_leaf_size(&ds, 0).is_err());
        let ok = CoarseHaarIndex::build(&ds, 4).unwrap();
        assert_eq!(ok.len(), 10);
        assert_eq!(ok.dim(), 8);
        assert_eq!(ok.coefficients(), 4);
        assert_eq!(ok.name(), "coarse-haar");
        assert!(ok.structure_bytes() >= 40);
        let bbf = BestBinFirst::build(&ds).unwrap();
        assert_eq!(bbf.len(), 10);
        assert_eq!(bbf.dim(), 8);
        assert_eq!(bbf.name(), "best-bin-first");
    }

    #[test]
    fn zero_budget_and_zero_k() {
        let ds = clustered(100, 8, 2);
        let coarse = CoarseHaarIndex::build(&ds, 4).unwrap();
        let mut stats = SearchStats::new();
        let mut out = Vec::new();
        coarse.coarse_candidates(ds.vector(0), 0, &mut stats, &mut out);
        assert!(out.is_empty());
        let mut scratch = ApproxScratch::new();
        let hits = approx_knn(
            &coarse,
            &ds,
            &Measure::L2,
            ds.vector(0),
            0,
            50,
            &mut scratch,
            &mut stats,
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn identical_points_build_degenerate_tree() {
        let ds = Dataset::from_vectors(&vec![vec![1.0, 2.0]; 64]).unwrap();
        let bbf = BestBinFirst::build(&ds).unwrap();
        let mut stats = SearchStats::new();
        let mut out = Vec::new();
        bbf.coarse_candidates(&[1.0, 2.0], 10, &mut stats, &mut out);
        assert_eq!(out.len(), 64); // one unsplittable leaf
    }
}
