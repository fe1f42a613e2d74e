//! One-byte rows with a step per dimension: a proven interval around the
//! L1 or L2 kernel's result from a quarter of the bytes.
//!
//! [`ByteRows`] fits an origin `lo_d` and a step `s_d` to every dimension
//! of a matrix (the column's minimum and a 255th of its range) and keeps
//! each row `x` as the codes `c_d = round((x_d − lo_d) / s_d)`, one byte
//! per coordinate, beside the row's quantization error `E_x = d(x, x̃)`:
//! the distance from `x` to the point `x̃_d = lo_d + c_d·s_d` its codes
//! stand for. For any query the triangle inequality gives `d(q, x̃) − E_x
//! ≤ d(q, x) ≤ d(q, x̃) + E_x`, and `d(q, x̃)` is a weighted sum over the
//! codes. [`ByteRows::bounds`] evaluates it and widens the interval by a
//! proven rounding margin, so that it holds the very value [`crate::l1`]
//! or [`crate::l2`] returns for the pair: a search can exclude a row on
//! its lower bound and be sure the `f32` kernel would have excluded it
//! too.
//!
//! The steps are per dimension because descriptor columns differ in
//! range by orders of magnitude: one step shared by all of them (the
//! [`crate::CellTable`]'s) spends most of a narrow column's 256 codes on
//! nothing.
//!
//! Rows are stored in the order the caller gives, contiguous, `dim`
//! bytes each: an index lays them out in the order it visits them, so a
//! traversal streams through memory where it would jump between `f32`
//! rows. That is `dim + 4` bytes a row with the error.
//!
//! The weighted sum runs in a fixed order — four groups of eight lanes
//! over 32-dimension blocks, one group over the remaining 8-blocks, a
//! scalar tail, then a fixed reduction — on AVX2 or a portable loop,
//! picked at run time. Every path performs the same IEEE `f32`
//! operations in the same order (no fused multiply-add), so the bounds,
//! and what a search visits with them, do not depend on the host.

use crate::Measure;

const U: f64 = 1.0 / (1u64 << 24) as f64;

/// Largest dimension the overflow argument of [`ByteRows::bounds`]
/// covers.
const MAX_DIM: usize = 1 << 20;

/// Steps outside `[MIN_STEP, MAX_STEP]` are not used: a column whose
/// range is below 255 · `MIN_STEP` (a constant one included) takes step
/// 1 and code 0 everywhere, and a wider one than 255 · `MAX_STEP` means
/// no copy. Inside it the weights `s` and `s²` are normal `f32`s and the
/// terms of the sum cannot overflow.
const MIN_STEP: f64 = 1.0 / (1u64 << 30) as f64;
const MAX_STEP: f64 = (1u64 << 30) as f64;

/// A query coordinate more than this many steps from its origin makes
/// the query leave the codes (the `f32` rows answer it).
const MAX_QUERY_CODE: f64 = (1u64 << 20) as f64;

/// Weighted sum of one row: `Σ w_d · |q_d − c_d|`, or `Σ w_d · (q_d −
/// c_d)²` for L2, in the fixed order of the module docs.
type RowSum = fn(q: &[f32], w: &[f32], codes: &[u8]) -> f32;

/// A matrix at one byte per coordinate, in a caller-chosen row order,
/// with each row's quantization error. See the module docs.
pub struct ByteRows {
    square: bool,
    lo: Vec<f32>,
    step: Vec<f32>,
    /// `s_d` under L1, `fl(s_d²)` under L2: what the row sum multiplies by.
    weight: Vec<f32>,
    /// Slot `i` is `codes[i·dim .. (i + 1)·dim]`.
    codes: Vec<u8>,
    /// Upper bound on `d(x, x̃)` of the row in each slot.
    err: Vec<f32>,
    /// `Σ_d s_d`: the absolute part of a query's rounding.
    step_sum: f64,
    /// Absolute error of the row sum from subnormal terms (its root under
    /// L2).
    tiny: f64,
    /// `1 − (2h + 6)·2⁻²⁴` and `1 + (2h + 7)·2⁻²⁴` (see `bounds`).
    shrink: f64,
    grow: f64,
    sum: RowSum,
}

/// A query prepared for [`ByteRows::bounds`]: its coordinates in code
/// units and its share of the margin. Reusable across queries without
/// allocating once grown.
#[derive(Debug, Default)]
pub struct ByteQuery {
    q: Vec<f32>,
    margin: f64,
}

impl ByteRows {
    /// Fit origins and steps to every row of the row-major matrix `rows`
    /// (`dim` columns) and encode the rows in the order `order` lists
    /// their indices: slot `i` holds row `order[i]`.
    ///
    /// `None` where the measure is neither L1 nor L2, a component is not
    /// finite, a column's range needs a step above 2³⁰, or `dim` exceeds
    /// 2²⁰: such a matrix stays on its `f32` rows.
    ///
    /// # Panics
    /// Panics if `dim` is 0 or does not divide `rows.len()`, or if
    /// `order` does not have one entry per row or names a row out of range.
    pub fn build(measure: &Measure, dim: usize, rows: &[f32], order: &[u32]) -> Option<ByteRows> {
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "rows length {} is not a multiple of dim {dim}",
            rows.len()
        );
        let n = rows.len() / dim;
        assert_eq!(order.len(), n, "one slot per row");
        let square = match measure {
            Measure::L1 => false,
            Measure::L2 => true,
            _ => return None,
        };
        if n == 0 || dim > MAX_DIM {
            return None;
        }
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        // Largest exponent-and-mantissa pattern seen: a non-finite value
        // has all exponent bits set (an integer max, which vectorizes
        // where a float test would not).
        let mut widest_bits = 0u32;
        for row in rows.chunks_exact(dim) {
            for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(row) {
                widest_bits = widest_bits.max(x.to_bits() & 0x7FFF_FFFF);
                *l = l.min(x);
                *h = h.max(x);
            }
        }
        if widest_bits >= 0x7F80_0000 {
            return None;
        }
        let mut step = Vec::with_capacity(dim);
        for (&l, &h) in lo.iter().zip(&hi) {
            let s = (h as f64 - l as f64) / 255.0;
            if s > MAX_STEP {
                return None;
            }
            step.push(if s < MIN_STEP { 1.0 } else { s as f32 });
        }
        let weight: Vec<f32> = step
            .iter()
            .map(|&s| if square { s * s } else { s })
            .collect();
        let step_sum: f64 = step.iter().map(|&s| s as f64).sum();
        let h = crate::kernel_roundings(dim) as f64;
        let tiny = if square {
            let w_max = weight.iter().fold(0.0f32, |a, &w| a.max(w)) as f64;
            2.0 * (dim as f64 * (w_max + 1.0) * 2f64.powi(-148)).sqrt()
        } else {
            dim as f64 * 2f64.powi(-148)
        };

        // Straight into the final layout: one pass over the rows in slot
        // order, no second copy.
        let inv: Vec<f32> = step.iter().map(|&s| 1.0 / s).collect();
        let slop = 256.0 * step_sum;
        let mut codes = vec![0u8; n * dim];
        let mut err = Vec::with_capacity(n);
        let grow = 1.0 + (dim.div_ceil(LANES) + 4) as f64 * U;
        for (&id, out) in order.iter().zip(codes.chunks_exact_mut(dim)) {
            let row = &rows[id as usize * dim..][..dim];
            let (gaps, spread) = if square {
                encode_row::<true>(row, &lo, &step, &inv, out)
            } else {
                encode_row::<false>(row, &lo, &step, &inv, out)
            };
            err.push(round_up(row_error(gaps, spread, square, grow, slop)));
        }
        Some(ByteRows {
            square,
            lo,
            step,
            weight,
            codes,
            err,
            step_sum,
            tiny,
            shrink: 1.0 - (2.0 * h + 6.0) * U,
            grow: 1.0 + (2.0 * h + 7.0) * U,
            sum: dispatch(square),
        })
    }

    fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Bytes the copy holds: the codes, the errors and the per-dimension
    /// parameters.
    pub fn bytes(&self) -> usize {
        self.codes.len() + 4 * self.err.len() + 12 * self.dim()
    }

    /// Put `query` into code units for [`ByteRows::bounds`]. Returns
    /// `false` for a query the bounds do not cover — a component that is
    /// not finite, or more than 2²⁰ steps from its column's origin —
    /// whose `prepared` must not be used.
    ///
    /// # Panics
    /// Panics if `query` is not of the copy's dimension.
    pub fn prepare(&self, query: &[f32], prepared: &mut ByteQuery) -> bool {
        assert_eq!(query.len(), self.dim(), "query of the copy's dimension");
        prepared.q.clear();
        let mut spread = 0.0f64;
        for ((&x, &lo), &s) in query.iter().zip(&self.lo).zip(&self.step) {
            let a = x as f64 - lo as f64;
            let v = a / s as f64;
            // Also false for a NaN or infinite component.
            if v.is_nan() || v.abs() > MAX_QUERY_CODE {
                return false;
            }
            prepared.q.push(v as f32);
            spread += a.abs();
        }
        // `|q'_d − v_d| ≤ (2⁻²⁴ + 2⁻⁵¹)·|v_d| + 2⁻¹⁵⁰` (see `bounds`),
        // times `s_d`, summed; the factor covers the f64 sums.
        let rounding = (U + 2f64.powi(-50)) * spread + 2f64.powi(-150) * self.step_sum;
        prepared.margin = rounding * (1.0 + 2f64.powi(-30)) + self.tiny;
        true
    }

    /// `(lower, upper)` with `lower ≤ D ≤ upper` for `D` the distance
    /// [`crate::l1`] (or [`crate::l2`]) returns between the query
    /// `prepared` was made from and the row in `slot`.
    ///
    /// # Proof
    ///
    /// Write `u = 2⁻²⁴`, `h` for [`crate::kernel_roundings`]`(dim)`, `R`
    /// for the real distance of the query `q` and the row `x`, `v_d = (q_d
    /// − lo_d)/s_d` for the query's real code coordinate and `q'_d` for
    /// the `f32` that `prepare` stores.
    ///
    /// *Quantization error.* `build` stores `E ≥ d(x, x̃)` for every row,
    /// rounded up from an evaluation with its own margin (see
    /// `row_error`), so `d(q, x̃) − E ≤ R ≤ d(q, x̃) + E`.
    ///
    /// *The query's rounding to code units.* `q'_d` is `(q_d − lo_d)/s_d`
    /// in `f64` (two roundings of `2⁻⁵³`) rounded to `f32`, so `|q'_d −
    /// v_d| ≤ (u + 2⁻⁵¹)|v_d| + 2⁻¹⁵⁰`. Let `X*` be the real weighted
    /// distance `‖s ∘ (q' − c)‖` of the stored `q'` and the codes. By the
    /// triangle inequality `|d(q, x̃) − X*| ≤ ‖s ∘ (q' − v)‖ ≤ Σ_d s_d
    /// |q'_d − v_d| ≤ (u + 2⁻⁵⁰) Σ_d |q_d − lo_d| + 2⁻¹⁵⁰ Σ_d s_d` (L2's
    /// norm is at most L1's), which `prepare` evaluates as its margin `A`.
    ///
    /// *Kernel rounding.* A term is `fl(w_d · fl(|fl(q'_d − c_d)|))` —
    /// two roundings under L1, where `w_d = s_d` — or `fl(w_d ·
    /// fl(δ²))` with `w_d = fl(s_d²)` — four under L2. It then passes
    /// through at most `⌊dim/32⌋ + 6` additions (a lane of the 32-wide
    /// main loop: `⌊dim/32⌋ − 1` after the exact first, then the group
    /// pairs, the cleanup group, the lane pairs, the two-level tree and
    /// the tail) or 7 (a cleanup or tail term), both at most `h − 1`. All
    /// terms are non-negative, so the sum `S` lies within `(1 ± u)^(h+3)`
    /// of its real value, up to an absolute `μ_S` from subnormal terms:
    /// `dim · 2⁻¹⁵⁰` under L1, `dim · (max w + 1) · 2⁻¹⁵⁰` under L2. No
    /// term or sum can overflow: `s_d ≤ 2³⁰`, `|q'_d| ≤ 2²⁰` and `dim ≤
    /// 2²⁰`. `X` is `S`, or `√S` in `f64` under L2, so with `ρ = h + 3`
    /// and `μ ≥ μ_S` (`≥ √μ_S` under L2) the `tiny` of `build`: `(X −
    /// μ)(1 + u)^−ρ ≤ X* ≤ (X + μ)(1 − u)^−ρ`.
    ///
    /// *Together,* with `A` now including `μ`: `R ≥ X(1 − ρu) − A − E`,
    /// and the kernel's own roundings give `D ≥ R(1 − u)^h` for `R ≥ 0`
    /// ([`crate::kernel_roundings`]), so `D ≥ X(1 − (2h + 3)u) − A − E`
    /// whenever that is positive (and `D ≥ 0` otherwise). `lower`
    /// multiplies by `1 − (2h + 6)u`: the extra `3u·X` covers the `f64`
    /// products and sums and the rounding to `f32` (a positive result is
    /// below `X`; a negative one stays negative). Likewise `D ≤ R(1 +
    /// u)^h ≤ (X + A + E)(1 + u)^h (1 − u)^−ρ ≤ (X + A + E)(1 + (2h +
    /// 4)u)`, and `upper` multiplies by `1 + (2h + 7)u`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range or `prepared` was not made by
    /// [`ByteRows::prepare`] of this copy.
    #[inline]
    pub fn bounds(&self, prepared: &ByteQuery, slot: usize) -> (f32, f32) {
        self.bounds_with(prepared, slot, self.sum)
    }

    #[inline]
    fn bounds_with(&self, prepared: &ByteQuery, slot: usize, sum: RowSum) -> (f32, f32) {
        let dim = self.dim();
        assert_eq!(prepared.q.len(), dim, "a query prepared for this copy");
        let codes = &self.codes[slot * dim..][..dim];
        let sum = sum(&prepared.q, &self.weight, codes) as f64;
        let x = if self.square { sum.sqrt() } else { sum };
        let off = prepared.margin + self.err[slot] as f64;
        (
            (x * self.shrink - off) as f32,
            ((x + off) * self.grow) as f32,
        )
    }
}

impl std::fmt::Debug for ByteRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteRows")
            .field("square", &self.square)
            .field("dim", &self.dim())
            .field("rows", &self.err.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Codes of one row into `out`, and the sums `row_error` takes: the
/// row's gaps `fl(|fl(x_d − lo_d) − fl(c_d s_d)|)` (squared under L2) and
/// its spread `Σ_d |fl(x_d − lo_d)|`, each in eight `f32` lanes summed
/// pairwise in `f64`. A code is the nearest to its coordinate up to the
/// rounding of `f32` arithmetic; any code would do, the error being
/// measured against the codes the row got. A function of its own, never
/// inlined, so that its slices are known not to overlap and the loop
/// vectorizes.
#[inline(never)]
fn encode_row<const SQUARE: bool>(
    row: &[f32],
    lo: &[f32],
    step: &[f32],
    inv: &[f32],
    out: &mut [u8],
) -> (f64, f64) {
    let mut gaps = [0.0f32; LANES];
    let mut spread = [0.0f32; LANES];
    let mut one = |l: usize, x: f32, lo: f32, s: f32, inv: f32, c: &mut u8| {
        let a = x - lo;
        // The rounded code, clamped to 0..=255 (as a float first, which
        // keeps the conversions packed).
        let code = (a * inv + 0.5).clamp(0.0, 255.0) as i32;
        *c = code as u8;
        let g = (a - code as f32 * s).abs();
        gaps[l] += if SQUARE { g * g } else { g };
        spread[l] += a.abs();
    };
    let whole = row.len() / LANES * LANES;
    let (head, tail) = out.split_at_mut(whole);
    for ((((xs, los), ss), invs), cs) in row
        .chunks_exact(LANES)
        .zip(lo.chunks_exact(LANES))
        .zip(step.chunks_exact(LANES))
        .zip(inv.chunks_exact(LANES))
        .zip(head.chunks_exact_mut(LANES))
    {
        for (l, c) in cs.iter_mut().enumerate() {
            one(l, xs[l], los[l], ss[l], invs[l], c);
        }
    }
    for (j, c) in (whole..row.len()).zip(tail) {
        one(j - whole, row[j], lo[j], step[j], inv[j], c);
    }
    let sum = |v: [f32; LANES]| v.iter().map(|&x| x as f64).sum::<f64>();
    (sum(gaps), sum(spread))
}

/// An upper bound on the distance from a row to the point its codes
/// stand for, from [`encode_row`]'s sums (see [`ByteRows::bounds`]).
///
/// With `a_d` the real `x_d − lo_d`, the three roundings of a gap leave
/// it within `2.01u(|a_d| + 256 s_d)` of the real gap `|a_d − c_d s_d|`
/// (`u|a_d|`, `u·c_d s_d`, and `u` of their difference). So the norm of
/// the real gaps is at most the norm of the computed ones plus `2.01u
/// Σ_d (|a_d| + 256 s_d)`, under L2 because a vector's L2 norm is at
/// most its L1 norm. A lane sums at most `⌈dim/8⌉` non-negative terms,
/// each with at most one more rounding (the square), so `grow = 1 +
/// (⌈dim/8⌉ + 4)u` lifts each computed sum above its real value, also
/// the spread, whose terms `|fl(a_d)|` are within `u|a_d|` of `|a_d|`.
/// The margin takes `3u`, `1 + 2⁻³⁰` covers the `f64` arithmetic here,
/// and `2⁻⁶⁰` the squares that underflowed (at most `2⁻¹⁵⁰` each, and
/// `√(dim · 2⁻¹⁵⁰) < 2⁻⁶⁴`).
fn row_error(gaps: f64, spread: f64, square: bool, grow: f64, slop: f64) -> f64 {
    let norm = if square {
        (gaps * grow).sqrt() + 2f64.powi(-60)
    } else {
        gaps * grow
    };
    (norm + 3.0 * U * (spread * grow + slop)) * (1.0 + 2f64.powi(-30))
}

/// The smallest `f32` at least `e`, for a positive finite `e`.
fn round_up(e: f64) -> f32 {
    let up = e as f32;
    if (up as f64) < e {
        f32::from_bits(up.to_bits() + 1)
    } else {
        up
    }
}

/// Lanes of a group, groups of the main loop, dimensions it takes a
/// step.
const LANES: usize = 8;
const GROUPS: usize = 4;
const WIDE: usize = LANES * GROUPS;

/// One term of the row sum. Every path computes exactly this per
/// coordinate: `w · |q − c|` or `w · (q − c)²`, two or three roundings.
#[inline(always)]
fn term<const SQUARE: bool>(q: f32, w: f32, c: u8) -> f32 {
    let d = q - c as f32;
    if SQUARE {
        w * (d * d)
    } else {
        w * d.abs()
    }
}

/// The fixed order of the module docs, in plain Rust: lane `l` of group
/// `g` takes dimension `32i + 8g + l` of every 32-block, one more group
/// the remaining whole 8-blocks, the tail goes serially; then `t_l =
/// ((g0 + g2) + (g1 + g3)) + cleanup`, `s = [t0 + t4, t1 + t5, t2 + t6,
/// t3 + t7]`, `((s0 + s1) + (s2 + s3)) + tail`.
fn portable_sum<const SQUARE: bool>(q: &[f32], w: &[f32], codes: &[u8]) -> f32 {
    let n = q.len();
    assert!(
        w.len() == n && codes.len() == n,
        "one weight and code per dimension"
    );
    /// One 8-block into one group, through arrays the loop vectorizes
    /// over (some four times faster than indexing the slices).
    #[inline(always)]
    fn block<const SQUARE: bool>(acc: &mut [f32; LANES], q: &[f32], w: &[f32], c: &[u8]) {
        let q: &[f32; LANES] = q.try_into().expect("an 8-block");
        let w: &[f32; LANES] = w.try_into().expect("an 8-block");
        let c: &[u8; LANES] = c.try_into().expect("an 8-block");
        for l in 0..LANES {
            acc[l] += term::<SQUARE>(q[l], w[l], c[l]);
        }
    }
    let mut acc = [[0.0f32; LANES]; GROUPS];
    let blocks = n / WIDE;
    for i in 0..blocks {
        for (g, acc) in acc.iter_mut().enumerate() {
            let j = i * WIDE + g * LANES;
            block::<SQUARE>(
                acc,
                &q[j..j + LANES],
                &w[j..j + LANES],
                &codes[j..j + LANES],
            );
        }
    }
    let mut cleanup = [0.0f32; LANES];
    let eights = n / LANES;
    for i in blocks * GROUPS..eights {
        let j = i * LANES;
        block::<SQUARE>(
            &mut cleanup,
            &q[j..j + LANES],
            &w[j..j + LANES],
            &codes[j..j + LANES],
        );
    }
    let mut tail = 0.0f32;
    for j in eights * LANES..n {
        tail += term::<SQUARE>(q[j], w[j], codes[j]);
    }
    let t: [f32; LANES] =
        std::array::from_fn(|l| ((acc[0][l] + acc[2][l]) + (acc[1][l] + acc[3][l])) + cleanup[l]);
    let s = [t[0] + t[4], t[1] + t[5], t[2] + t[6], t[3] + t[7]];
    ((s[0] + s[1]) + (s[2] + s[3])) + tail
}

/// The widest row sum this host runs.
fn dispatch(square: bool) -> RowSum {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 requirement is checked at runtime above.
            return if square {
                |q, w, c| unsafe { x86::sum_avx2::<true>(q, w, c) }
            } else {
                |q, w, c| unsafe { x86::sum_avx2::<false>(q, w, c) }
            };
        }
    }
    if square {
        portable_sum::<true>
    } else {
        portable_sum::<false>
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{term, GROUPS, LANES, WIDE};
    use crate::simd::x86::reduce8;
    use std::arch::x86_64::*;

    /// Terms of dimensions `off .. off + 8`.
    ///
    /// # Safety
    /// AVX2, and `off + 8 <=` the length of all three slices.
    #[inline(always)]
    unsafe fn terms8<const SQUARE: bool>(q: &[f32], w: &[f32], c: &[u8], off: usize) -> __m256 {
        // SAFETY: the caller keeps the eight elements inside each slice.
        unsafe {
            let codes = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(
                c.as_ptr().add(off).cast(),
            )));
            let d = _mm256_sub_ps(_mm256_loadu_ps(q.as_ptr().add(off)), codes);
            let m = if SQUARE {
                _mm256_mul_ps(d, d)
            } else {
                _mm256_andnot_ps(_mm256_set1_ps(-0.0), d)
            };
            _mm256_mul_ps(_mm256_loadu_ps(w.as_ptr().add(off)), m)
        }
    }

    /// One ymm register per group, then the cleanup group, the reduction
    /// and the tail.
    ///
    /// Caller guarantees AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn sum_avx2<const SQUARE: bool>(q: &[f32], w: &[f32], c: &[u8]) -> f32 {
        let n = q.len();
        assert!(
            w.len() == n && c.len() == n,
            "one weight and code per dimension"
        );
        let mut acc = [_mm256_setzero_ps(); GROUPS];
        for i in 0..n / WIDE {
            for (g, a) in acc.iter_mut().enumerate() {
                // SAFETY: `i * 32 + 32 <= n` bounds the block.
                *a = _mm256_add_ps(*a, unsafe {
                    terms8::<SQUARE>(q, w, c, i * WIDE + g * LANES)
                });
            }
        }
        let groups = _mm256_add_ps(_mm256_add_ps(acc[0], acc[2]), _mm256_add_ps(acc[1], acc[3]));
        let eights = n / LANES;
        let mut cleanup = _mm256_setzero_ps();
        for i in n / WIDE * GROUPS..eights {
            // SAFETY: `i * 8 + 8 <= eights * 8 <= n`.
            cleanup = _mm256_add_ps(cleanup, unsafe { terms8::<SQUARE>(q, w, c, i * LANES) });
        }
        let total = reduce8(_mm256_add_ps(groups, cleanup));
        let mut tail = 0.0f32;
        for j in eights * LANES..n {
            tail += term::<SQUARE>(q[j], w[j], c[j]);
        }
        total + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_workload::Pcg32;

    /// Every row sum the host can run, by name.
    fn kernels<const SQUARE: bool>() -> Vec<(&'static str, RowSum)> {
        let mut kernels: Vec<(&'static str, RowSum)> = vec![
            ("dispatch", dispatch(SQUARE)),
            ("portable", portable_sum::<SQUARE>),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(("avx2", |q, w, c| {
                    // SAFETY: the AVX2 requirement is checked above.
                    unsafe { x86::sum_avx2::<SQUARE>(q, w, c) }
                }));
            }
        }
        kernels
    }

    fn floats(n: usize, scale: f32, rng: &mut Pcg32) -> Vec<f32> {
        (0..n).map(|_| rng.range_f32(-scale, scale)).collect()
    }

    fn same_bits_on_every_kernel<const SQUARE: bool>() {
        let mut rng = Pcg32::new(23);
        let dims = (1..=100).chain([127, 128, 129, 255, 577, 1000]);
        for dim in dims {
            for scale in [1.0f32, 300.0, 1e-20] {
                let q = floats(dim, scale, &mut rng);
                let w: Vec<f32> = floats(dim, 2.0, &mut rng).iter().map(|x| x.abs()).collect();
                let c: Vec<u8> = (0..dim).map(|_| rng.next_u32() as u8).collect();
                let want = portable_sum::<SQUARE>(&q, &w, &c);
                let serial: f64 = (0..dim)
                    .map(|j| term::<SQUARE>(q[j], w[j], c[j]) as f64)
                    .sum();
                assert!((want as f64 - serial).abs() <= serial * 1e-4, "dim {dim}");
                for (name, kernel) in kernels::<SQUARE>() {
                    assert_eq!(
                        kernel(&q, &w, &c).to_bits(),
                        want.to_bits(),
                        "{name}: dim {dim}, square {SQUARE}, scale {scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_kernel_gives_the_portable_bits() {
        same_bits_on_every_kernel::<false>();
        same_bits_on_every_kernel::<true>();
    }

    fn flat(rows: &[Vec<f32>]) -> Vec<f32> {
        rows.iter().flatten().copied().collect()
    }

    fn identity(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// The property a search relies on: the interval holds the kernel's
    /// own result for every pair, on the shapes that stress the margin —
    /// coordinates one ulp either side of a code boundary, on one, at
    /// the box's ends, queries far outside it — on every path.
    #[test]
    fn bounds_hold_the_kernel_result() {
        for (measure, kernel) in [
            (Measure::L1, crate::l1 as fn(&[f32], &[f32]) -> f32),
            (Measure::L2, crate::l2),
        ] {
            for dim in [1usize, 7, 16, 33, 64, 577] {
                let mut rows = cbir_workload::clustered_smooth(200, dim, 12, 10.0, 100.0, 1, 5);
                rows.extend(cbir_workload::uniform(60, dim, 3.0, 6));
                let fit =
                    ByteRows::build(&measure, dim, &flat(&rows), &identity(rows.len())).unwrap();
                // Rows with every coordinate at a code boundary `lo + (c +
                // ½)s`, one ulp below and one above it, and on a code.
                for c in [0u32, 1, 17, 127, 254] {
                    for nudge in [-1i32, 0, 1] {
                        rows.push(
                            (0..dim)
                                .map(|d| {
                                    let x = fit.lo[d] + (c as f32 + 0.5) * fit.step[d];
                                    if x == 0.0 {
                                        return x;
                                    }
                                    f32::from_bits((x.to_bits() as i32 + nudge) as u32)
                                })
                                .collect(),
                        );
                    }
                    rows.push(
                        (0..dim)
                            .map(|d| fit.lo[d] + c as f32 * fit.step[d])
                            .collect(),
                    );
                }
                let mut queries = cbir_workload::queries(&rows, 30, 5.0, 8);
                queries.extend(rows.iter().rev().take(16).cloned());
                queries.push(vec![-1e4; dim]);
                queries.push(vec![0.0; dim]);
                queries.push(vec![f32::MIN_POSITIVE / 8.0; dim]);
                let copy =
                    ByteRows::build(&measure, dim, &flat(&rows), &identity(rows.len())).unwrap();
                let mut prepared = ByteQuery::default();
                for q in &queries {
                    assert!(copy.prepare(q, &mut prepared));
                    for (slot, row) in rows.iter().enumerate() {
                        let d = kernel(q, row);
                        let (lo, hi) = copy.bounds(&prepared, slot);
                        assert!(
                            lo <= d && d <= hi,
                            "{} dim {dim} slot {slot}: {lo} <= {d} <= {hi}",
                            measure.name()
                        );
                        let portable = if matches!(measure, Measure::L2) {
                            portable_sum::<true>
                        } else {
                            portable_sum::<false>
                        };
                        assert_eq!((lo, hi), copy.bounds_with(&prepared, slot, portable));
                    }
                }
            }
        }
    }

    #[test]
    fn the_interval_is_tight_on_smooth_data() {
        let dim = 64;
        let rows = cbir_workload::clustered_smooth(500, dim, 10, 10.0, 100.0, 1, 3);
        let copy = ByteRows::build(&Measure::L1, dim, &flat(&rows), &identity(rows.len())).unwrap();
        let mut prepared = ByteQuery::default();
        assert!(copy.prepare(&rows[3], &mut prepared));
        let mut widest = 0.0f32;
        for (slot, row) in rows.iter().enumerate() {
            let (lo, hi) = copy.bounds(&prepared, slot);
            widest = widest.max(hi - lo);
            assert!(hi - lo <= 2.0 * (copy.err[slot] + 1e-3) + 1e-4 * crate::l1(&rows[3], row));
        }
        assert!(widest > 0.0);
    }

    #[test]
    fn slots_follow_the_order() {
        let rows = [vec![0.0f32, 10.0], vec![4.0, 0.0], vec![10.0, 4.0]];
        let copy = ByteRows::build(&Measure::L1, 2, &flat(&rows), &[2, 0, 1]).unwrap();
        assert_eq!(copy.err.len(), 3);
        assert_eq!(copy.bytes(), 6 + 12 + 24);
        assert_eq!(copy.codes, [255, 102, 0, 255, 102, 0]);
        let mut prepared = ByteQuery::default();
        assert!(copy.prepare(&rows[0], &mut prepared));
        let (lo, hi) = copy.bounds(&prepared, 1);
        assert!(lo <= 0.0 && hi >= 0.0);
        let (lo, _) = copy.bounds(&prepared, 0);
        assert!(lo > 14.0, "{lo}");
    }

    #[test]
    fn what_the_bounds_do_not_cover_is_refused() {
        let rows = [0.0f32, 1.0, 2.0, 7.0];
        assert!(ByteRows::build(&Measure::LInf, 2, &rows, &[0, 1]).is_none());
        assert!(ByteRows::build(&Measure::L1, 2, &[0.0, f32::NAN, 1.0, 1.0], &[0, 1]).is_none());
        assert!(ByteRows::build(&Measure::L2, 1, &[-3e38, 3e38], &[0, 1]).is_none());
        // A constant column is fine: step 1, code 0, no error.
        let copy = ByteRows::build(&Measure::L2, 2, &rows, &[0, 1]).unwrap();
        let copy_const = ByteRows::build(&Measure::L1, 2, &[3.0, 1.0, 3.0, 7.0], &[0, 1]).unwrap();
        assert_eq!(copy_const.step[0], 1.0);
        assert_eq!(&copy_const.codes, &[0, 0, 0, 255]);
        let mut prepared = ByteQuery::default();
        assert!(!copy.prepare(&[0.0, f32::INFINITY], &mut prepared));
        assert!(!copy.prepare(&[f32::NAN, 0.0], &mut prepared));
        assert!(!copy.prepare(&[1e30, 0.0], &mut prepared));
        assert!(copy.prepare(&[1e3, -5.0], &mut prepared));
    }
}
