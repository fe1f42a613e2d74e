//! A tiny deterministic PRNG for tie-breaking and sampling during index
//! construction. SplitMix64 is statistically strong for this purpose, has
//! no dependencies, and keeps builds exactly reproducible across platforms.

/// SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded generator; the same seed always yields the same stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below(0)");
        // Multiply-shift bounded sampling; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Approximately standard-normal variate (Irwin-Hall sum of 12
    /// uniforms) — adequate for synthetic cluster noise.
    pub fn next_normal(&mut self) -> f32 {
        let s: f32 = (0..12).map(|_| self.next_f32()).sum();
        s - 6.0
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(124);
        assert_ne!(SplitMix64::new(123).next_u64(), c.next_u64());
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let f = r.next_f32();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn next_below_in_range_and_roughly_uniform() {
        let mut r = SplitMix64::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::new(31);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>()); // astronomically unlikely
    }

    #[test]
    fn normal_moments() {
        let mut r = SplitMix64::new(12);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| r.next_normal()).collect();
        let mean: f32 = xs.iter().sum::<f32>() / n as f32;
        let var: f32 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn next_below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }
}
