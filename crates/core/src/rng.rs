//! A minimal, dependency-free pseudo-random number generator.
//!
//! Seeded test-case generators and fuzz drivers only need a reproducible
//! stream of uniform variates.  Instead of pulling in an external crate, this
//! module implements
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit state advanced by a
//! Weyl sequence and scrambled by a variance-of-MurmurHash3 finaliser.  It passes
//! BigCrush when used as a stream, is trivially seedable, and every seed yields a
//! full-period sequence — more than adequate for statistical estimation.

/// A SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform variate in the half-open interval `[0, 1)`, using the top 53 bits
    /// (the full precision of an `f64` mantissa).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform variate in the open interval `(0, 1)`: the midpoint of the
    /// 53-bit lattice cell, so neither endpoint can occur and `ln(u)` is finite.
    pub fn open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_is_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_variates_stay_in_range() {
        let mut rng = SplitMix64::new(0xdead_beef);
        let mut sum = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let u = rng.open01();
            assert!(u > 0.0 && u < 1.0);
            sum += u;
        }
        // Mean of n uniforms concentrates around 1/2.
        assert!((sum / n as f64 - 0.5).abs() < 0.02);
        let v = rng.next_f64();
        assert!((0.0..1.0).contains(&v));
    }
}
