//! Offline stand-in for the `rand` crate.
//!
//! Provides seeded, deterministic pseudo-random generation with the API
//! surface this workspace uses: `rngs::StdRng`, `SeedableRng::
//! seed_from_u64`, and `Rng::{gen_range, gen_bool, gen}`. The generator
//! is xoshiro256** seeded through SplitMix64 — statistically solid for
//! simulation workloads, not cryptographic, exactly like the real
//! `StdRng` contract ("deterministic but unspecified stream").

/// Core trait: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills a byte slice with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// The seed type.
    type Seed: AsMut<[u8]> + Default;

    /// Constructs from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs from a 64-bit seed (the form used in-tree).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = sm.next().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// Values uniformly sampleable over a range.
pub trait SampleUniform: Sized {
    /// Uniform sample in `[low, high)`; panics when the range is empty.
    fn sample_half_open(rng: &mut dyn RngCore, low: Self, high: Self) -> Self;

    /// Uniform sample in `[low, high]`; panics when `low > high`.
    fn sample_inclusive(rng: &mut dyn RngCore, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(rng: &mut dyn RngCore, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128;
                // Rejection-free multiply-shift mapping; bias is
                // negligible for simulation spans (< 2^64).
                let x = rng.next_u64() as u128;
                let offset = (x * span) >> 64;
                (low as i128 + offset as i128) as $t
            }

            fn sample_inclusive(rng: &mut dyn RngCore, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: empty range");
                // span ≤ 2^64 always fits a u128, so the closed upper
                // bound needs no special casing.
                let span = (high as i128 - low as i128 + 1) as u128;
                let x = rng.next_u64() as u128;
                let offset = (x * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open(rng: &mut dyn RngCore, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range: empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + unit * (high - low)
    }

    fn sample_inclusive(rng: &mut dyn RngCore, low: Self, high: Self) -> Self {
        Self::sample_half_open(rng, low, high)
    }
}

/// Ranges acceptable to [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples one value from the range.
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut dyn RngCore) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample(self, rng: &mut dyn RngCore) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(rng, lo, hi)
    }
}

/// Types producible by [`Rng::gen`].
pub trait Standard: Sized {
    /// A uniform random value.
    fn random(rng: &mut dyn RngCore) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn random(rng: &mut dyn RngCore) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn random(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn random(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The user-facing sampling interface.
pub trait Rng: RngCore + Sized {
    /// Uniform sample from a range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli trial with probability `p` (clamped to [0, 1]).
    fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A uniform random value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::random(self)
    }

    /// Fills `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<T: RngCore + Sized> Rng for T {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (the shim's `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks(8).enumerate() {
                let mut w = [0u8; 8];
                w.copy_from_slice(chunk);
                s[i] = u64::from_le_bytes(w);
            }
            // Avoid the all-zero state, which xoshiro cannot leave.
            if s == [0, 0, 0, 0] {
                s = [
                    0x9E3779B97F4A7C15,
                    0xBF58476D1CE4E5B9,
                    0x94D049BB133111EB,
                    1,
                ];
            }
            Self { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = rng.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((1_500..3_500).contains(&hits), "{hits}");
    }

    #[test]
    fn inclusive_ranges_reach_both_ends() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[rng.gen_range(0u8..=3) as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
        // The full width of a type is one range, not an overflow.
        let _: u64 = rng.gen_range(0..=u64::MAX);
        let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn a_one_value_range_always_yields_it() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!((0..100).all(|_| rng.gen_range(7u32..=7) == 7 && rng.gen_range(-2i8..-1) == -2));
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn an_empty_range_panics() {
        StdRng::seed_from_u64(5).gen_range(3u64..3);
    }

    #[test]
    fn fill_takes_whole_words_and_cuts_the_last() {
        use super::RngCore;
        let mut words = StdRng::seed_from_u64(6);
        let mut expected = words.next_u64().to_le_bytes().to_vec();
        expected.extend_from_slice(&words.next_u64().to_le_bytes()[..5]);
        let mut bytes = [0u8; 13];
        StdRng::seed_from_u64(6).fill(&mut bytes);
        assert_eq!(bytes[..], expected[..]);
    }

    #[test]
    fn the_all_zero_seed_still_generates() {
        use super::RngCore;
        let mut rng = StdRng::from_seed([0; 32]);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert!(words.iter().any(|&w| w != 0), "{words:?}");
        assert_ne!(words[0], words[1]);
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8).map(|_| rng.gen::<u64>()).collect::<Vec<_>>()
        };
        assert_ne!(draw(1), draw(2));
        assert!((0..1_000).all(|_| (0.0..1.0).contains(&StdRng::seed_from_u64(9).gen::<f64>())));
    }
}
