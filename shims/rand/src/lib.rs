//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! Provides the exact surface this workspace uses: [`RngCore`],
//! [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] over half-open and
//! inclusive integer/float ranges, [`Rng::gen_bool`], and
//! [`seq::SliceRandom::shuffle`].  The statistical properties (uniformity,
//! independence across derived streams) match the real crate; the exact bit
//! streams do not.  Those bits are frozen all the same: every consumer seeds
//! its own deterministic stream, and the workspace's golden dumps and report
//! digests pin what they draw bit for bit, so a change to the seed
//! expansion or to how a range draw consumes words re-pins all of them.

use std::ops::{Range, RangeInclusive};

/// Core random-number generation interface.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the RNG from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the RNG from a `u64`, expanding it with SplitMix64 exactly like
    /// rand 0.8 does.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            // SplitMix64 (PCG-style stream expansion used by rand 0.8).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = (z as u32).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types that can be drawn uniformly from a range.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform draw from `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform draw from `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                let draw = widening_multiply_draw(rng, span);
                ((low as $wide).wrapping_add(draw as $wide)) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty inclusive range");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let draw = widening_multiply_draw(rng, span + 1);
                ((low as $wide).wrapping_add(draw as $wide)) as $t
            }
        }
    )*};
}

impl_sample_int!(
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64
);

/// Near-unbiased bounded draw via 64×64→128-bit multiply (Lemire's method
/// without the rejection loop; the bias is < 2⁻⁶⁴ · span, irrelevant for the
/// statistical simulators here).
fn widening_multiply_draw<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let x = rng.next_u64();
    ((u128::from(x) * u128::from(span)) >> 64) as u64
}

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        low + (high - low) * unit
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low <= high, "gen_range: empty inclusive range");
        let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        low + (high - low) * unit
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        let unit = (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        low + (high - low) * unit
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low <= high, "gen_range: empty inclusive range");
        let unit = (rng.next_u32() >> 8) as f32 / ((1u32 << 24) - 1) as f32;
        low + (high - low) * unit
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(rng, low, high)
    }
}

/// High-level convenience methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a range (`low..high` or `low..=high`).
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p must be in [0, 1]");
        ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Sequence-related helpers (`rand::seq`).
pub mod seq {
    use super::Rng;

    /// Slice shuffling and selection.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = super::widening_multiply_draw(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                let i = super::widening_multiply_draw(rng, self.len() as u64) as usize;
                Some(&self[i])
            }
        }
    }
}

/// `rand::prelude` equivalent.
pub mod prelude {
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingRng(u64);

    impl RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            // xorshift64* — good enough to test the adapters.
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = CountingRng(7);
        for _ in 0..2000 {
            let a: i32 = rng.gen_range(-12..=12);
            assert!((-12..=12).contains(&a));
            let b: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&b));
            let c: usize = rng.gen_range(0..64);
            assert!(c < 64);
            let d: i8 = rng.gen_range(-100..=100);
            assert!((-100..=100).contains(&d));
        }
    }

    #[test]
    fn float_range_covers_the_interval() {
        let mut rng = CountingRng(3);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..4000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(
            lo < 0.05 && hi > 0.95,
            "uniform draw should span [0,1): {lo} {hi}"
        );
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = CountingRng(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_permutes_without_loss() {
        use seq::SliceRandom;
        let mut rng = CountingRng(5);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }
}
