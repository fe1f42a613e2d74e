//! One-byte cell codes: an exact lower bound on the L1 kernel's result
//! from a quarter of the bytes.
//!
//! A [`CellQuantizer`] cuts every coordinate axis into 256 cells — a
//! per-dimension origin, one step shared by all dimensions — and maps a
//! vector to the cell index of each coordinate, one `u8` per `f32`. The
//! sum of absolute code differences of two vectors ([`cell_sad_to_many`],
//! `vpsadbw` on AVX2) counts the cells between them, and a coordinate
//! pair whose codes differ by `Δ` is at least `Δ − 1` steps apart. A
//! sequential scan can therefore bound every row from the code table and
//! evaluate the `f32` kernel only on rows the bound cannot exclude:
//! filter-and-refine with no loss, because [`CellQuantizer::min_sad`]
//! turns the bound to beat into a code-difference sum whose rows
//! *provably* score at least that bound under the rounded `f32`
//! arithmetic of [`crate::l1`] itself.
//!
//! The two end cells saturate (`0` holds everything below the origin's
//! first step, `255` everything above the last), so they stay valid
//! intervals whatever the data: the origin and the step are fitted to a
//! sample and a stray row cannot stretch them.

/// Rows the fit looks at, at most: a strided sample sets the origins and
/// the step, so one wild row in a large corpus rarely gets a say.
const FIT_SAMPLE_ROWS: usize = 4096;

/// Steps the sample's widest coordinate range is spread over: the sample
/// lands on codes 0 to 254, and the two end cells also take whatever lies
/// outside the sample's box.
const FIT_CELLS: f64 = 254.0;

/// Per-coordinate slack of the cell bound, in steps: the quantizer's own
/// `f32` rounding (see [`CellQuantizer::min_sad`]).
const CELL_SLACK: f64 = 1.0 / 8192.0;

/// Maps `f32` coordinates to one-byte cell indices: `code = clamp(⌊(x −
/// lo_d) / step⌋, 0, 255)` with a per-dimension origin `lo_d` and one
/// step for every dimension. See the module docs.
#[derive(Clone, Debug)]
pub struct CellQuantizer {
    lo: Vec<f32>,
    step: f32,
    /// `fl(1 / step)`: what [`CellQuantizer::encode`] multiplies by.
    inv: f32,
}

impl CellQuantizer {
    /// Fit origins and step to the row-major matrix `rows` (`dim` columns)
    /// from a strided sample of at most 4,096 rows: the origin of a
    /// dimension is the sample's minimum there, and the step is a 254th
    /// of the widest sample range.
    ///
    /// `None` when no useful table exists: the sample holds a non-finite
    /// component, every sampled column is constant (step 0), the step is
    /// outside the range in which its reciprocal is a normal `f32`, or
    /// `dim` is so large that a code-difference sum could overflow `u32`.
    ///
    /// # Panics
    /// Panics if `dim` is 0 or does not divide `rows.len()`.
    pub fn fit(dim: usize, rows: &[f32]) -> Option<CellQuantizer> {
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "rows length {} is not a multiple of dim {dim}",
            rows.len()
        );
        let n = rows.len() / dim;
        if n == 0 || dim > (u32::MAX / 255) as usize {
            return None;
        }
        let stride = n.div_ceil(FIT_SAMPLE_ROWS);
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for row in rows.chunks_exact(dim).step_by(stride) {
            for ((l, h), &x) in lo.iter_mut().zip(&mut hi).zip(row) {
                if !x.is_finite() {
                    return None;
                }
                *l = l.min(x);
                *h = h.max(x);
            }
        }
        let widest = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| h as f64 - l as f64)
            .fold(0.0, f64::max);
        let step = (widest / FIT_CELLS) as f32;
        // Inside these limits `1 / step` is a normal f32 with the usual
        // relative rounding error, which the bound's proof relies on.
        if !(1e-30..=1e30).contains(&step) {
            return None;
        }
        Some(CellQuantizer {
            lo,
            step,
            inv: 1.0 / step,
        })
    }

    /// Dimensionality of the vectors this quantizer encodes.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Width of a cell, the same in every dimension.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Encode the row-major matrix `rows` into `codes`, one byte per
    /// coordinate in the same order. Returns whether every component was
    /// finite; codes of a matrix that fails the check must not be used
    /// (the bound is proven for finite coordinates only).
    ///
    /// # Panics
    /// Panics if `rows` and `codes` differ in length or are not whole
    /// rows of [`CellQuantizer::dim`] columns.
    pub fn encode(&self, rows: &[f32], codes: &mut [u8]) -> bool {
        let dim = self.dim();
        assert_eq!(rows.len(), codes.len(), "one code per coordinate");
        assert!(rows.len().is_multiple_of(dim), "rows are not whole vectors");
        encode_rows(rows, &self.lo, self.inv, codes)
    }

    /// The smallest code-difference sum that proves a pair is at least
    /// `bound` apart *as [`crate::l1`] computes it*: for finite `q` and
    /// `x` of this quantizer's dimension with codes `c(q)`, `c(x)`,
    ///
    /// `Σ_d |c(q)_d − c(x)_d| ≥ min_sad(bound)  ⇒  l1(q, x) ≥ bound`.
    ///
    /// A scan whose candidate must beat `bound` strictly (a k-NN heap that
    /// is full) may skip every such row; `min_sad(radius) + 1` proves
    /// `l1(q, x) > radius`. Saturates at `u32::MAX` ("no sum proves it",
    /// also for a NaN bound) and at 0 (a negative bound is always met).
    ///
    /// # Proof
    ///
    /// *Cells.* `encode` computes `t = fl(fl(x − lo) · inv)` with `inv =
    /// fl(1/step)`. Write `v = (x − lo) / step` for the real value.
    /// Three roundings of relative size `≤ 2⁻²⁴` give `t = v(1 + δ)`,
    /// `|δ| < 3·2⁻²⁴ + 2⁻⁴⁶`, wherever the product is a normal number
    /// (the subtraction of two `f32`s is exact when its result is
    /// subnormal, and `fit` keeps `inv` normal), so there `t(1 − 2⁻²²) ≤
    /// v ≤ t(1 + 2⁻²²)`. A code `≥ c ≥ 1` means `t ≥ c` (saturation at
    /// 255 and overflow to `+∞` included) and gives `v ≥ c(1 − 2⁻²²)`; a
    /// code `≤ c < 255` means `t < c + 1` and gives `v < (c + 1)(1 +
    /// 2⁻²²)` (trivially so when `t` is negative or underflowed, `v`
    /// then being negative or tiny). For codes `c' > c` of coordinates
    /// `a`, `b`: `(a − b)/step = v_a − v_b > (c' − c − 1) − (c' + c +
    /// 1)·2⁻²² > (c' − c − 1) − 2⁻¹³`. Summed over the dimensions, with
    /// `S` the code-difference sum and `R = Σ|q_d − x_d|` the real
    /// distance: `R ≥ (S − dim·(1 + 2⁻¹³)) · step`.
    ///
    /// *Kernel.* `l1` follows `lane_sum`'s recipe (`minkowski.rs`; the
    /// AVX2 twins in `simd.rs` return the same bits): every term is
    /// `fl(|q_d − x_d|)`, one rounding, and then passes through at most
    /// `⌊dim/16⌋ − 1` additions inside its lane of one of the two
    /// 8-lane accumulator groups of the 16-wide main loop (the first
    /// addition, to zero, is exact), two for `(g0 + g1) + cleanup`, one
    /// for `t_i + t_{i+4}`, two for `(s0 + s1) + (s2 + s3)` and one for
    /// `+ tail` — `⌊dim/16⌋ + 6` roundings in all; a term of the 8-wide
    /// cleanup group passes through 6, a term of the `< 8`-element scalar
    /// tail through at most 8. All terms are non-negative and
    /// round-to-nearest is monotone and exact on subnormal sums, so the
    /// returned `D ≥ R · (1 − 2⁻²⁴)^h ≥ R · (1 − h·2⁻²⁴)` with `h =
    /// ⌊dim/16⌋ + 8` for any `dim ≥ 1` (an overflow to `+∞` only helps).
    ///
    /// *Together.* `S ≥ T` with `T ≥ bound / (step·(1 − h·2⁻²⁴)) +
    /// dim·(1 + 2⁻¹³)` yields `D ≥ bound`. `T` is evaluated in `f64`
    /// (relative error `2⁻⁵¹` on a value below `2³²`) and rounded up to
    /// the next integer plus one, which absorbs that error many times
    /// over.
    pub fn min_sad(&self, bound: f32) -> u32 {
        let dim = self.dim() as f64;
        let kept = 1.0 - ((self.dim() / 16 + 8) as f64) / (1u64 << 24) as f64;
        let need = bound as f64 / (self.step as f64 * kept) + dim * (1.0 + CELL_SLACK);
        if need.is_nan() {
            return u32::MAX;
        }
        (need.ceil() + 1.0) as u32
    }
}

/// The loop of [`CellQuantizer::encode`]. A function of its own, never
/// inlined, because only as parameters are the three slices known not to
/// overlap, which is what lets the inner loop vectorize (16 ms against
/// 35 ms for 200,000 × 64 when it sits inside a method of the struct
/// that owns `origins`).
#[inline(never)]
fn encode_rows(rows: &[f32], origins: &[f32], inv: f32, codes: &mut [u8]) -> bool {
    let dim = origins.len();
    // Largest exponent-and-mantissa pattern seen: a non-finite value has
    // all exponent bits set (an integer max, which vectorizes where a
    // float test would not).
    let mut widest_bits = 0u32;
    for (row, out) in rows.chunks_exact(dim).zip(codes.chunks_exact_mut(dim)) {
        for ((&x, &lo), c) in row.iter().zip(origins).zip(out) {
            widest_bits = widest_bits.max(x.to_bits() & 0x7FFF_FFFF);
            // Float-to-int `as` truncates toward zero and saturates:
            // exactly clamp(⌊t⌋, 0, 255) for every non-NaN `t`.
            *c = ((x - lo) * inv) as u8;
        }
    }
    widest_bits < 0x7F80_0000
}

/// `Σ_d |query_d − row_d|` over bytes for every `query.len()`-byte row of
/// `rows`, written into `out`: AVX2 `vpsadbw` behind
/// `is_x86_feature_detected!` for rows of at least 32 bytes, the portable
/// loop otherwise. Integer arithmetic, so both give the same sums.
///
/// # Panics
/// Panics if `query` is empty or `rows.len() != out.len() * query.len()`.
pub fn cell_sad_to_many(query: &[u8], rows: &[u8], out: &mut [u32]) {
    #[cfg(target_arch = "x86_64")]
    if query.len() >= 32 && std::arch::is_x86_feature_detected!("avx2") {
        check_shape(query, rows, out);
        // SAFETY: the AVX2 requirement is checked at runtime above.
        unsafe { x86::sad_to_many_avx2(query, rows, out) };
        return;
    }
    cell_sad_to_many_portable(query, rows, out);
}

/// The portable path of [`cell_sad_to_many`], public so that tests in
/// the layers above can pin both paths against each other.
#[doc(hidden)]
pub fn cell_sad_to_many_portable(query: &[u8], rows: &[u8], out: &mut [u32]) {
    check_shape(query, rows, out);
    for (row, slot) in rows.chunks_exact(query.len()).zip(out.iter_mut()) {
        *slot = row
            .iter()
            .zip(query)
            .map(|(&x, &q)| u32::from(x.abs_diff(q)))
            .sum();
    }
}

fn check_shape(query: &[u8], rows: &[u8], out: &[u32]) {
    assert!(
        !query.is_empty(),
        "cell_sad_to_many needs a non-empty query"
    );
    assert_eq!(
        rows.len(),
        out.len() * query.len(),
        "rows length {} is not out length {} x dim {}",
        rows.len(),
        out.len(),
        query.len()
    );
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Rows of `dim ≥ 32` bytes, four at a time so that each 32-byte
    /// query chunk is loaded once per four rows and the four horizontal
    /// reductions share one shuffle tree. A row's last `dim % 32` bytes
    /// are covered by one more 32-byte load that ends with the row, with
    /// the bytes the full chunks already counted masked to zero on both
    /// sides (`|0 − 0|` adds nothing). The `< 4` rows left over go
    /// through the portable loop.
    ///
    /// Caller guarantees `dim ≥ 32` and `rows.len() == out.len() * dim`.
    #[target_feature(enable = "avx2")]
    pub(super) fn sad_to_many_avx2(query: &[u8], rows: &[u8], out: &mut [u32]) {
        let dim = query.len();
        assert!(dim >= 32 && rows.len() == out.len() * dim);
        let full = dim / 32;
        let rem = dim % 32;
        let mask_bytes: [u8; 32] = std::array::from_fn(|i| if i >= 32 - rem { 0xFF } else { 0 });
        // SAFETY: both loads read 32 bytes that lie inside their arrays
        // (`dim >= 32` bounds the query load).
        let (mask, q_tail) = unsafe {
            let mask = _mm256_loadu_si256(mask_bytes.as_ptr().cast());
            let q = _mm256_loadu_si256(query.as_ptr().add(dim - 32).cast());
            (mask, _mm256_and_si256(q, mask))
        };
        let mut quads = rows.chunks_exact(dim * 4);
        let mut slots = out.chunks_exact_mut(4);
        for (quad, slot) in quads.by_ref().zip(slots.by_ref()) {
            let mut acc = [_mm256_setzero_si256(); 4];
            // SAFETY: `quad` is four rows of `dim` bytes and row `r`
            // starts at `r * dim`; within a row, `c * 32 + 32 <= full *
            // 32 <= dim` bounds the chunk loads and the tail load ends at
            // `dim`.
            unsafe {
                for c in 0..full {
                    let q = _mm256_loadu_si256(query.as_ptr().add(c * 32).cast());
                    for (r, a) in acc.iter_mut().enumerate() {
                        let x = _mm256_loadu_si256(quad.as_ptr().add(r * dim + c * 32).cast());
                        *a = _mm256_add_epi64(*a, _mm256_sad_epu8(q, x));
                    }
                }
                if rem > 0 {
                    for (r, a) in acc.iter_mut().enumerate() {
                        let x = _mm256_loadu_si256(quad.as_ptr().add(r * dim + dim - 32).cast());
                        let x = _mm256_and_si256(x, mask);
                        *a = _mm256_add_epi64(*a, _mm256_sad_epu8(q_tail, x));
                    }
                }
            }
            // Every partial sum is below 2³² (`255 · dim` is), so two
            // accumulators interleave as 32-bit lanes [a0 b0 a1 b1 | a2
            // b2 a3 b3]; the unpacks then line rows up as [a b c d] per
            // 64-bit pair and two adds finish all four.
            let ab = _mm256_or_si256(acc[0], _mm256_slli_epi64(acc[1], 32));
            let cd = _mm256_or_si256(acc[2], _mm256_slli_epi64(acc[3], 32));
            let pairs =
                _mm256_add_epi32(_mm256_unpacklo_epi64(ab, cd), _mm256_unpackhi_epi64(ab, cd));
            let sums = _mm_add_epi32(
                _mm256_castsi256_si128(pairs),
                _mm256_extracti128_si256(pairs, 1),
            );
            // SAFETY: `slot` holds exactly four u32s.
            unsafe { _mm_storeu_si128(slot.as_mut_ptr().cast(), sums) };
        }
        // The last `< 4` rows are not worth a second reduction.
        super::cell_sad_to_many_portable(query, quads.remainder(), slots.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbir_workload::Pcg32;

    type Sad = fn(&[u8], &[u8], &mut [u32]);

    /// Every implementation the host can run, by name; the dispatcher is
    /// listed too, being what the index layer calls.
    fn sad_impls() -> Vec<(&'static str, Sad)> {
        let mut impls: Vec<(&'static str, Sad)> = vec![
            ("dispatch", cell_sad_to_many),
            ("portable", cell_sad_to_many_portable),
        ];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            impls.push(("avx2", |q, rows, out| {
                if q.len() >= 32 {
                    // SAFETY: the AVX2 requirement is checked above.
                    unsafe { x86::sad_to_many_avx2(q, rows, out) }
                } else {
                    cell_sad_to_many_portable(q, rows, out)
                }
            }));
        }
        impls
    }

    fn bytes(n: usize, rng: &mut Pcg32) -> Vec<u8> {
        (0..n).map(|_| rng.next_u32() as u8).collect()
    }

    #[test]
    fn every_path_matches_a_bytewise_sum_on_every_shape() {
        let mut rng = Pcg32::new(19);
        // Below 32 (portable only), whole chunks, every kind of masked
        // tail, and row counts around the four-row groups.
        for dim in [1usize, 7, 31, 32, 33, 48, 63, 64, 65, 95, 96, 577] {
            for rows_n in [0usize, 1, 3, 4, 5, 8, 13] {
                let q = bytes(dim, &mut rng);
                let rows = bytes(dim * rows_n, &mut rng);
                let want: Vec<u32> = rows
                    .chunks_exact(dim)
                    .map(|row| {
                        let mut s = 0u32;
                        for d in 0..dim {
                            s += (row[d] as i32 - q[d] as i32).unsigned_abs();
                        }
                        s
                    })
                    .collect();
                for (name, sad) in sad_impls() {
                    let mut got = vec![u32::MAX; rows_n];
                    sad(&q, &rows, &mut got);
                    assert_eq!(got, want, "{name}: dim {dim}, {rows_n} rows");
                }
            }
        }
        // The extremes: every byte 255 apart.
        for (name, sad) in sad_impls() {
            let mut got = [0u32; 5];
            sad(&[255u8; 577], &[0u8; 577 * 5], &mut got);
            assert_eq!(got, [255 * 577; 5], "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "rows length")]
    fn mismatched_rows_panic() {
        cell_sad_to_many(&[0u8; 40], &[0u8; 90], &mut [0u32; 2]);
    }

    fn flat(rows: &[Vec<f32>]) -> Vec<f32> {
        rows.iter().flatten().copied().collect()
    }

    fn codes_of(q: &CellQuantizer, rows: &[f32]) -> Vec<u8> {
        let mut codes = vec![0u8; rows.len()];
        assert!(q.encode(rows, &mut codes));
        codes
    }

    #[test]
    fn codes_are_monotone_and_saturate() {
        let rows = flat(&cbir_workload::uniform(500, 3, 10.0, 4));
        let quant = CellQuantizer::fit(3, &rows).unwrap();
        assert_eq!(quant.dim(), 3);
        assert!(quant.step() > 0.0);
        let probe: Vec<f32> = [-1e30f32, -5.0, 0.0, 2.5, 9.99, 50.0, 1e30]
            .iter()
            .flat_map(|&x| [x; 3])
            .collect();
        let codes = codes_of(&quant, &probe);
        assert_eq!(&codes[..3], &[0, 0, 0]);
        assert_eq!(&codes[18..], &[255, 255, 255]);
        for d in 0..3 {
            let column: Vec<u8> = codes.iter().skip(d).step_by(3).copied().collect();
            assert!(column.is_sorted(), "dimension {d}: {column:?}");
        }
    }

    #[test]
    fn fit_and_encode_refuse_what_the_proof_does_not_cover() {
        // Every column constant: step 0.
        assert!(CellQuantizer::fit(2, &[1.0, 2.0, 1.0, 2.0]).is_none());
        // A non-finite component in the sample.
        assert!(CellQuantizer::fit(1, &[0.0, f32::NAN, 1.0]).is_none());
        assert!(CellQuantizer::fit(1, &[0.0, f32::INFINITY, 1.0]).is_none());
        // A step whose reciprocal would be subnormal.
        assert!(CellQuantizer::fit(1, &[-3e38, 3e38]).is_none());
        // Outside the sample, `encode` is the one that notices.
        let quant = CellQuantizer::fit(1, &[0.0, 1.0]).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!quant.encode(&[0.5, bad], &mut [0u8; 2]));
        }
        // A constant column beside a live one is fine: all its codes agree.
        let quant = CellQuantizer::fit(2, &[0.0, 7.0, 1.0, 7.0]).unwrap();
        assert_eq!(codes_of(&quant, &[0.5, 7.0])[1], 0);
    }

    #[test]
    fn min_sad_saturates() {
        let quant = CellQuantizer::fit(4, &[0.0, 0.0, 0.0, 0.0, 254.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(quant.step(), 1.0);
        assert_eq!(quant.min_sad(f32::INFINITY), u32::MAX);
        assert_eq!(quant.min_sad(f32::NAN), u32::MAX);
        assert_eq!(quant.min_sad(-100.0), 0);
        // bound 10 at step 1, dim 4: 10 steps + one per dimension + the
        // rounding up.
        assert!((15..=17).contains(&quant.min_sad(10.0)));
        assert!(quant.min_sad(10.0) < quant.min_sad(11.5));
    }

    /// The property the scan relies on, on the shapes that stress it:
    /// whenever the code-difference sum reaches `min_sad(bound)` the
    /// kernel's distance reaches `bound`. Checked at the tightest bound a
    /// pair allows: `min_sad(d + one ulp)` must exceed the pair's sum, or
    /// the scan would skip a row that scores `d < bound`.
    #[test]
    fn no_code_bound_exceeds_the_kernel_distance() {
        for dim in [1usize, 7, 16, 64, 577] {
            let mut rows = cbir_workload::clustered_smooth(300, dim, 12, 10.0, 100.0, 1, 5);
            rows.extend(cbir_workload::uniform(100, dim, 100.0, 6));
            // Rows exactly on cell edges, signed zeros and denormals.
            let flat_rows = flat(&rows);
            let quant = CellQuantizer::fit(dim, &flat_rows).unwrap();
            let step = quant.step();
            for c in [0u32, 1, 2, 127, 254, 255, 256] {
                rows.push((0..dim).map(|d| quant.lo[d] + c as f32 * step).collect());
            }
            rows.push(vec![0.0; dim]);
            rows.push(vec![-0.0; dim]);
            rows.push(vec![f32::MIN_POSITIVE / 4.0; dim]);
            rows.push(vec![-1e-41; dim]);
            let mut queries = cbir_workload::queries(&rows, 40, 5.0, 8);
            // Far outside the box, and huge.
            queries.push(vec![-1e6; dim]);
            queries.push(vec![1e30; dim]);
            queries.extend(rows.iter().rev().take(12).cloned());
            let flat_rows = flat(&rows);
            let codes = codes_of(&quant, &flat_rows);
            let mut sads = vec![0u32; rows.len()];
            for q in &queries {
                let qc = codes_of(&quant, q);
                cell_sad_to_many(&qc, &codes, &mut sads);
                for (row, &s) in rows.iter().zip(&sads) {
                    let d = crate::l1(q, row);
                    // The row scores d, so it must survive any bound
                    // above d: no sum may prove `l1 >= next_up(d)`.
                    let above = f32::from_bits(d.to_bits() + 1);
                    assert!(
                        s < quant.min_sad(above),
                        "dim {dim}: sum {s} claims l1 >= {above} but l1 = {d}"
                    );
                    // And `+ 1` proves strictness for range search.
                    assert!(s < quant.min_sad(d).saturating_add(1));
                }
            }
        }
    }
}
