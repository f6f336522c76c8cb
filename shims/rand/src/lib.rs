//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace vendors a minimal, deterministic implementation of exactly
//! the `rand 0.8` API surface it consumes: `rngs::StdRng`,
//! `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range}`, and
//! `seq::SliceRandom::shuffle`. The generator is xoshiro256** seeded via
//! splitmix64 — high-quality and fully reproducible, which is all the
//! simulation needs (no test asserts upstream-rand golden values).

/// Core random source: 64-bit output words.
pub trait RngCore {
    /// Next raw 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit word (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction (only the `seed_from_u64` entry point is used).
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value from the standard distribution for this type.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Numeric types uniformly sampleable over a range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[lo, hi)`; caller guarantees `lo < hi`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`; caller guarantees `lo <= hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + r) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let r = ((rng.next_u64() as u128) % span) as i128;
                (lo as i128 + r) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let u = <$t as Standard>::sample_standard(rng);
                lo + u * (hi - lo)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                Self::sample_half_open(rng, lo, hi)
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty inclusive range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// User-facing convenience methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Sample a value from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from `range`.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Named generator types (`StdRng` only).

    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // All-zero state is the one degenerate case for xoshiro.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Sequence helpers (`SliceRandom::shuffle` only).

    use super::{Rng, SampleUniform};

    /// Slice extension trait mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::sample_inclusive(rng, 0, i);
                self.swap(i, j);
            }
        }
    }
}

/// Prelude re-exporting the common traits, mirroring `rand::prelude`.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u32 = r.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: usize = r.gen_range(0..=5);
            assert!(y <= 5);
            let f: f32 = r.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn unit_floats_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = r.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut StdRng::seed_from_u64(9));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
    }
}
