//! Minkowski-family distances between feature vectors.

/// Panic with a clear message when two vectors disagree in dimensionality.
/// Distance evaluation is the innermost hot loop of every query, so we use a
/// debug-friendly assert rather than a `Result`.
#[inline]
pub(crate) fn check_dims(a: &[f32], b: &[f32]) {
    assert_eq!(
        a.len(),
        b.len(),
        "feature vectors have different dimensionality ({} vs {})",
        a.len(),
        b.len()
    );
}

/// Accumulator lanes for the L1/L2 hot loops. A single serial f32 sum is a
/// loop-carried dependency the compiler must preserve (f32 addition is not
/// associative), which caps the scan at one element per add-latency.
/// Splitting the sum across independent lanes breaks the chain and lets the
/// backend keep the subtract/abs/add pipeline full (and vectorize it).
const LANES: usize = 8;

/// Independent accumulator groups in the main loop. One vector-width
/// accumulator serializes on the add latency (one 8-lane add retires per
/// ~4 cycles); a second group gives the backend an independent chain, and
/// the batch path in `crate::simd` additionally interleaves four *rows*
/// per iteration, so the add ports stay saturated without exceeding the
/// 16-register budget (4 rows × 2 groups = 8 accumulators).
const GROUPS: usize = 2;

/// Elements consumed per main-loop iteration.
const WIDE: usize = GROUPS * LANES;

/// The shared accumulation recipe for `Σ |aᵢ-bᵢ|` / `Σ (aᵢ-bᵢ)²`:
///
/// 1. main loop over 16-element chunks into two 8-lane accumulator groups;
/// 2. cleanup loop over remaining 8-element chunks into one more group;
/// 3. scalar tail in element order for the last `< 8` elements;
/// 4. fixed reduction: `t = (g0 + g1) + cleanup` lanewise, then
///    `s = [t0+t4, t1+t5, t2+t6, t3+t7]`, then
///    `((s0+s1) + (s2+s3)) + tail`.
///
/// Every step is a plain IEEE f32 operation in a fixed order, so results
/// are deterministic and identical between the scalar and batch entry
/// points — and between this portable loop and the AVX2 twins in
/// `crate::simd`, which implement the exact same per-row recipe with one
/// ymm register per group. The reduction tree shape is also what LLVM's
/// SLP vectorizer turns into shuffle-light 4-wide SSE code here.
#[inline]
pub(crate) fn lane_sum<const SQUARE: bool>(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [[0.0f32; LANES]; GROUPS];
    let mut ca = a.chunks_exact(WIDE);
    let mut cb = b.chunks_exact(WIDE);
    for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
        for g in 0..GROUPS {
            for i in 0..LANES {
                let d = xs[g * LANES + i] - ys[g * LANES + i];
                acc[g][i] += if SQUARE { d * d } else { d.abs() };
            }
        }
    }
    let mut acc8 = [0.0f32; LANES];
    let mut c8a = ca.remainder().chunks_exact(LANES);
    let mut c8b = cb.remainder().chunks_exact(LANES);
    for (xs, ys) in c8a.by_ref().zip(c8b.by_ref()) {
        for i in 0..LANES {
            let d = xs[i] - ys[i];
            acc8[i] += if SQUARE { d * d } else { d.abs() };
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in c8a.remainder().iter().zip(c8b.remainder()) {
        let d = x - y;
        tail += if SQUARE { d * d } else { d.abs() };
    }
    let mut t = [0.0f32; LANES];
    for i in 0..LANES {
        t[i] = (acc[0][i] + acc[1][i]) + acc8[i];
    }
    let s = [t[0] + t[4], t[1] + t[5], t[2] + t[6], t[3] + t[7]];
    ((s[0] + s[1]) + (s[2] + s[3])) + tail
}

/// `h`, the roundings one term of an [`l1`] or [`l2`] result passes
/// through at most, as [`crate::CellQuantizer::min_sad`]'s proof counts
/// them for `lane_sum`'s recipe: `⌊dim/16⌋ + 8`. For finite vectors whose
/// real distance is `R`, the kernel returns `D` with `R·(1 − 2⁻²⁴)^h ≤ D ≤
/// R·(1 + 2⁻²⁴)^h` (an overflow to `+∞` aside). The count is loose by
/// two from dim 32 up: a term of the 16-wide main loop passes through
/// `⌊dim/16⌋ + 6`, one of the cleanup group or the tail through at most
/// 8. For [`l2`] the squares carry two roundings and the square root
/// halves the sum's and adds one, `(h + 1)/2 + 1 ≤ h`.
///
/// Every margin that turns a bound on real distances into one on the
/// kernel's results starts from this count: the cell codes'
/// [`min_sad`](crate::CellQuantizer::min_sad), the one-byte rows'
/// [`bounds`](crate::ByteRows::bounds) and the metric trees' triangle
/// tests.
pub fn kernel_roundings(dim: usize) -> usize {
    dim / 16 + 8
}

/// City-block (L1) distance: `Σ |aᵢ - bᵢ|`.
#[inline]
pub fn l1(a: &[f32], b: &[f32]) -> f32 {
    check_dims(a, b);
    crate::simd::pair_sum::<false>(a, b)
}

/// Squared Euclidean distance: `Σ (aᵢ - bᵢ)²`. Not a metric itself but
/// monotone in L2, so k-NN rankings are identical and the square root can be
/// skipped inside search loops.
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    check_dims(a, b);
    crate::simd::pair_sum::<true>(a, b)
}

/// Euclidean (L2) distance.
#[inline]
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    l2_squared(a, b).sqrt()
}

/// Chebyshev (L∞) distance: `max |aᵢ - bᵢ|`.
#[inline]
pub fn linf(a: &[f32], b: &[f32]) -> f32 {
    check_dims(a, b);
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// General Minkowski distance of order `p >= 1`.
///
/// # Panics
/// Panics if `p < 1` (the triangle inequality fails below 1).
pub fn minkowski(a: &[f32], b: &[f32], p: f32) -> f32 {
    assert!(p >= 1.0, "Minkowski order must be >= 1, got {p}");
    check_dims(a, b);
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs().powf(p))
        .sum::<f32>()
        .powf(1.0 / p)
}

/// Cosine *distance*: `1 - cos(a, b)`, in `[0, 2]`. Zero vectors are defined
/// to be at distance 1 from everything (maximally dissimilar but bounded).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    check_dims(a, b);
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    (1.0 - dot / (na.sqrt() * nb.sqrt())).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f32; 4] = [1.0, 2.0, 3.0, 4.0];
    const B: [f32; 4] = [2.0, 0.0, 3.0, 8.0];

    #[test]
    fn known_values() {
        assert_eq!(l1(&A, &B), 1.0 + 2.0 + 0.0 + 4.0);
        assert_eq!(l2_squared(&A, &B), 1.0 + 4.0 + 0.0 + 16.0);
        assert!((l2(&A, &B) - 21.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(linf(&A, &B), 4.0);
    }

    #[test]
    fn minkowski_interpolates_family() {
        assert!((minkowski(&A, &B, 1.0) - l1(&A, &B)).abs() < 1e-4);
        assert!((minkowski(&A, &B, 2.0) - l2(&A, &B)).abs() < 1e-4);
        // As p grows, Minkowski approaches L∞ from above.
        let p8 = minkowski(&A, &B, 8.0);
        assert!(p8 >= linf(&A, &B));
        assert!(p8 < l1(&A, &B));
    }

    #[test]
    #[should_panic(expected = "order must be >= 1")]
    fn minkowski_rejects_p_below_one() {
        minkowski(&A, &B, 0.5);
    }

    #[test]
    #[should_panic(expected = "different dimensionality")]
    fn dimension_mismatch_panics() {
        l2(&A, &[1.0, 2.0]);
    }

    #[test]
    fn identity_and_symmetry() {
        for f in [l1, l2, linf, cosine] {
            assert!(f(&A, &A).abs() < 1e-6);
            assert_eq!(f(&A, &B), f(&B, &A));
            assert!(f(&A, &B) >= 0.0);
        }
    }

    #[test]
    fn cosine_basics() {
        let x = [1.0f32, 0.0];
        let y = [0.0f32, 1.0];
        assert!((cosine(&x, &y) - 1.0).abs() < 1e-6); // orthogonal
        let z = [2.0f32, 0.0];
        assert!(cosine(&x, &z) < 1e-6); // parallel, scale-invariant
        let w = [-1.0f32, 0.0];
        assert!((cosine(&x, &w) - 2.0).abs() < 1e-6); // opposite
    }

    #[test]
    fn cosine_zero_vector_convention() {
        let z = [0.0f32, 0.0];
        assert_eq!(cosine(&z, &[1.0, 1.0]), 1.0);
        assert_eq!(cosine(&z, &z), 1.0);
    }

    #[test]
    fn lane_accumulation_matches_serial_reference() {
        // dim 19 exercises both the 8-lane body and the scalar tail.
        let a: Vec<f32> = (0..19).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..19).map(|i| (i as f32 * 0.61).cos()).collect();
        let serial_l1: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!((l1(&a, &b) - serial_l1).abs() <= serial_l1 * 1e-5);
        let serial_l2: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((l2_squared(&a, &b) - serial_l2).abs() <= serial_l2 * 1e-5);
        // Deterministic: repeated evaluation is bit-identical.
        assert_eq!(l1(&a, &b).to_bits(), l1(&a, &b).to_bits());
    }

    #[test]
    fn empty_vectors_are_at_distance_zero() {
        let e: [f32; 0] = [];
        assert_eq!(l1(&e, &e), 0.0);
        assert_eq!(l2(&e, &e), 0.0);
        assert_eq!(linf(&e, &e), 0.0);
    }
}
