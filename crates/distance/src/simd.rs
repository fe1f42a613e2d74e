//! Runtime-dispatched wide kernels for the L1/L2 hot loops.
//!
//! The portable `lane_sum` in [`crate::minkowski`] autovectorizes to the
//! 128-bit baseline the crate is compiled for. On x86-64 machines with
//! AVX2 the same computation fits one 256-bit register per 8 lanes, which
//! roughly doubles the in-cache scan rate — the difference between a
//! batched scan that is memory-bound (amortizable) and one that is
//! compute-bound (not). This module provides that path behind
//! `is_x86_feature_detected!`, falling back to the portable code
//! everywhere else.
//!
//! **Bit-identity:** the AVX2 functions implement the exact accumulation
//! recipe documented on [`lane_sum`] — two independent 8-lane accumulator
//! groups fed by a 16-wide main loop, an 8-lane cleanup loop, a scalar
//! tail in element order, and a fixed reduction tree — with one ymm
//! register per group, and `|x|` is the same sign-bit clear. Every
//! intermediate is a plain IEEE f32 operation in the same order, so both
//! paths return identical bits and the dispatch is invisible to the index
//! layer's equivalence contracts (and to the rounding margin
//! `CellQuantizer::min_sad` derives from that tree).

use crate::minkowski::lane_sum;

/// Distance accumulation for one vector pair, dispatching to AVX2 when
/// available. `SQUARE` selects `Σ (aᵢ-bᵢ)²` over `Σ |aᵢ-bᵢ|`.
#[inline]
pub(crate) fn pair_sum<const SQUARE: bool>(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is checked at runtime above.
        return unsafe { x86::lane_sum_avx2::<SQUARE>(a, b) };
    }
    lane_sum::<SQUARE>(a, b)
}

/// Batch form of [`pair_sum`]: one distance per `dim`-sized row of `rows`
/// written into `out`. The feature check is hoisted out of the row loop
/// and the whole loop body is compiled with AVX2 enabled, so per-row work
/// inlines into a single wide loop.
///
/// Caller guarantees `rows.len() == out.len() * query.len()` and a
/// non-empty query (validated by [`crate::Measure::dist_to_many`]).
#[inline]
pub(crate) fn pair_sum_to_many<const SQUARE: bool>(query: &[f32], rows: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is checked at runtime above.
        unsafe { x86::to_many_avx2::<SQUARE>(query, rows, out) };
        return;
    }
    let dim = query.len();
    for (row, slot) in rows.chunks_exact(dim).zip(out.iter_mut()) {
        *slot = lane_sum::<SQUARE>(query, row);
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use std::arch::x86_64::*;

    /// `d = x - y`, then `|d|` or `d²`. Sign-bit clear is exactly
    /// `f32::abs`.
    #[inline(always)]
    fn step<const SQUARE: bool>(x: __m256, y: __m256, sign: __m256) -> __m256 {
        // SAFETY: callers are `#[target_feature(enable = "avx2")]` fns.
        unsafe {
            let d = _mm256_sub_ps(x, y);
            if SQUARE {
                _mm256_mul_ps(d, d)
            } else {
                _mm256_andnot_ps(sign, d)
            }
        }
    }

    /// Fold an 8-lane accumulator to `(s0+s1) + (s2+s3)` where
    /// `s = [t0+t4, ...]` — the exact tail of `lane_sum`'s reduction.
    #[inline(always)]
    pub(crate) fn reduce8(t: __m256) -> f32 {
        // SAFETY: callers are `#[target_feature(enable = "avx2")]` fns.
        unsafe {
            let s = _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps(t, 1));
            let pairs = _mm_hadd_ps(s, s);
            _mm_cvtss_f32(_mm_add_ss(pairs, _mm_movehdup_ps(pairs)))
        }
    }

    /// AVX2 twin of `lane_sum`: same two accumulator groups (one ymm
    /// each), same 8-lane cleanup loop, same reduction tree.
    #[target_feature(enable = "avx2")]
    pub(super) fn lane_sum_avx2<const SQUARE: bool>(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let sign = _mm256_set1_ps(-0.0);
        let wide = n / 16;
        let (mut acc0, mut acc1) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for i in 0..wide {
            let off = i * 16;
            // SAFETY: `off + 16 <= wide * 16 <= n` bounds all four loads.
            unsafe {
                let x0 = _mm256_loadu_ps(a.as_ptr().add(off));
                let y0 = _mm256_loadu_ps(b.as_ptr().add(off));
                let x1 = _mm256_loadu_ps(a.as_ptr().add(off + 8));
                let y1 = _mm256_loadu_ps(b.as_ptr().add(off + 8));
                acc0 = _mm256_add_ps(acc0, step::<SQUARE>(x0, y0, sign));
                acc1 = _mm256_add_ps(acc1, step::<SQUARE>(x1, y1, sign));
            }
        }
        let eights = n / 8;
        let mut acc8 = _mm256_setzero_ps();
        for i in wide * 2..eights {
            // SAFETY: `i * 8 + 8 <= eights * 8 <= n` bounds both loads.
            unsafe {
                let x = _mm256_loadu_ps(a.as_ptr().add(i * 8));
                let y = _mm256_loadu_ps(b.as_ptr().add(i * 8));
                acc8 = _mm256_add_ps(acc8, step::<SQUARE>(x, y, sign));
            }
        }
        // t = (g0 + g1) + cleanup, lanewise, then the shared pair tree.
        let total = reduce8(_mm256_add_ps(_mm256_add_ps(acc0, acc1), acc8));
        let mut tail = 0.0f32;
        for j in eights * 8..n {
            let d = a[j] - b[j];
            tail += if SQUARE { d * d } else { d.abs() };
        }
        total + tail
    }

    /// Four rows scanned concurrently against one query. Per-row
    /// arithmetic is exactly `lane_sum_avx2` (same groups, same cleanup
    /// loop, same reduction order), but query chunks are loaded once for
    /// all four rows and the four horizontal reductions collapse into a
    /// shared `hadd` tree: `hadd(hadd(s0,s1), hadd(s2,s3))` computes each
    /// row's `(s0+s1) + (s2+s3)` in its own lane. Returns the four sums
    /// before scalar tails (the caller adds tails in element order).
    #[target_feature(enable = "avx2")]
    fn quad_sum_avx2<const SQUARE: bool>(query: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
        let dim = query.len();
        let sign = _mm256_set1_ps(-0.0);
        let wide = dim / 16;
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        for i in 0..wide {
            let off = i * 16;
            // SAFETY: `off + 16 <= wide * 16 <= dim` bounds every load
            // (each row slice is `dim` long).
            unsafe {
                let q0 = _mm256_loadu_ps(query.as_ptr().add(off));
                let q1 = _mm256_loadu_ps(query.as_ptr().add(off + 8));
                for r in 0..4 {
                    let y0 = _mm256_loadu_ps(rows[r].as_ptr().add(off));
                    let y1 = _mm256_loadu_ps(rows[r].as_ptr().add(off + 8));
                    acc0[r] = _mm256_add_ps(acc0[r], step::<SQUARE>(q0, y0, sign));
                    acc1[r] = _mm256_add_ps(acc1[r], step::<SQUARE>(q1, y1, sign));
                }
            }
        }
        let eights = dim / 8;
        let mut acc8 = [_mm256_setzero_ps(); 4];
        for i in wide * 2..eights {
            // SAFETY: `i * 8 + 8 <= eights * 8 <= dim` bounds every load.
            unsafe {
                let q = _mm256_loadu_ps(query.as_ptr().add(i * 8));
                for r in 0..4 {
                    let y = _mm256_loadu_ps(rows[r].as_ptr().add(i * 8));
                    acc8[r] = _mm256_add_ps(acc8[r], step::<SQUARE>(q, y, sign));
                }
            }
        }
        // Per row: t = (g0 + g1) + cleanup, s = low128 + high128 — the
        // same order as `lane_sum`. Then one shared hadd tree finishes
        // all four rows: lane r of the result is (s0+s1)+(s2+s3) of row r.
        let mut s = [_mm_setzero_ps(); 4];
        for r in 0..4 {
            let t = _mm256_add_ps(_mm256_add_ps(acc0[r], acc1[r]), acc8[r]);
            s[r] = _mm_add_ps(_mm256_castps256_ps128(t), _mm256_extractf128_ps(t, 1));
        }
        let totals = _mm_hadd_ps(_mm_hadd_ps(s[0], s[1]), _mm_hadd_ps(s[2], s[3]));
        let mut out = [0.0f32; 4];
        // SAFETY: `out` holds exactly four f32s.
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), totals) };
        out
    }

    /// Row loop compiled as one AVX2 unit: four rows at a time through
    /// [`quad_sum_avx2`] (plus per-row scalar tails in element order),
    /// remaining rows through [`lane_sum_avx2`]. Both paths follow the
    /// `lane_sum` recipe exactly, so every row's result is bit-identical
    /// to the pairwise call.
    #[target_feature(enable = "avx2")]
    pub(super) fn to_many_avx2<const SQUARE: bool>(query: &[f32], rows: &[f32], out: &mut [f32]) {
        let dim = query.len();
        let eights = dim / 8;
        let mut quads = rows.chunks_exact(dim * 4);
        let mut done = 0usize;
        for quad in quads.by_ref() {
            let r = [
                &quad[..dim],
                &quad[dim..2 * dim],
                &quad[2 * dim..3 * dim],
                &quad[3 * dim..],
            ];
            let mut totals = quad_sum_avx2::<SQUARE>(query, r);
            if eights * 8 < dim {
                for (t, row) in totals.iter_mut().zip(r) {
                    let mut tail = 0.0f32;
                    for j in eights * 8..dim {
                        let d = query[j] - row[j];
                        tail += if SQUARE { d * d } else { d.abs() };
                    }
                    *t += tail;
                }
            }
            out[done..done + 4].copy_from_slice(&totals);
            done += 4;
        }
        for (row, slot) in quads.remainder().chunks_exact(dim).zip(&mut out[done..]) {
            *slot = lane_sum_avx2::<SQUARE>(query, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos()).collect();
        (a, b)
    }

    #[test]
    fn dispatch_matches_portable_bitwise() {
        // Exercises the main 16-wide loop (16, 19, 40, 64, 100, 129), the
        // 8-lane cleanup loop (40), scalar tails (5, 19, 100, 129) and
        // empty shapes on whatever path this machine dispatches to.
        for n in [0usize, 5, 16, 19, 40, 64, 100, 129] {
            let (a, b) = vecs(n);
            assert_eq!(
                pair_sum::<false>(&a, &b).to_bits(),
                lane_sum::<false>(&a, &b).to_bits(),
                "l1 dispatch diverges at dim {n}"
            );
            assert_eq!(
                pair_sum::<true>(&a, &b).to_bits(),
                lane_sum::<true>(&a, &b).to_bits(),
                "l2 dispatch diverges at dim {n}"
            );
        }
    }

    #[test]
    fn batch_dispatch_matches_pairwise() {
        for dim in [5usize, 16, 64] {
            let rows_n = 37;
            let (flat, _) = vecs(dim * rows_n);
            let (q, _) = vecs(dim);
            let mut out = vec![0.0f32; rows_n];
            pair_sum_to_many::<false>(&q, &flat, &mut out);
            for (i, row) in flat.chunks_exact(dim).enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    pair_sum::<false>(&q, row).to_bits(),
                    "row {i} dim {dim}"
                );
            }
        }
    }
}
