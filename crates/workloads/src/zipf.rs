//! Seeded Zipfian key sampling for the skewed open-loop store traffic.
//!
//! YCSB-style bounded Zipfian generator (Gray et al.'s rejection-free
//! inverse construction): ranks are drawn from `[0, n)` with
//! `P(rank = k) ∝ 1 / (k+1)^θ`, so rank 0 is the hottest key and the
//! skew knob `θ ∈ (0, 1)` sweeps from near-uniform to heavily skewed
//! (YCSB's default is 0.99). Randomness comes exclusively from
//! [`solero_testkit::rng::TestRng`], so every trace is reproducible
//! from a root seed.
//!
//! Rank 0 being hottest would pile the hot set onto the store's first
//! range shard; [`Zipf::scrambled`] spreads ranks over the key space
//! with a SplitMix64 finalizer (YCSB's "scrambled Zipfian"), keeping
//! per-key popularity Zipfian while the hot keys land on uniformly
//! random shards.

use solero_testkit::rng::{SplitMix64, TestRng};

/// Bounded Zipfian rank sampler over `[0, n)`.
///
/// # Examples
///
/// ```
/// use solero_testkit::rng::TestRng;
/// use solero_workloads::zipf::Zipf;
///
/// let z = Zipf::new(1000, 0.99);
/// let mut rng = TestRng::seed_from_u64(42);
/// let rank = z.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

/// `ζ(n, θ) = Σ_{i=1..n} 1 / i^θ` (the generalized harmonic number).
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Zipf {
    /// Builds a sampler for `n` ranks at skew `theta`.
    ///
    /// Construction is `O(n)` (the harmonic sum); sampling is `O(1)`.
    ///
    /// # Panics
    ///
    /// Unless `n ≥ 1` and `0 < theta < 1` (the inverse construction is
    /// singular at `θ = 1`).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 1, "empty rank space");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            zeta2,
        }
    }

    /// The rank-space size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `[0, n)`; rank 0 is the hottest.
    pub fn sample(&self, rng: &mut TestRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < self.zeta2 {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draws a rank and scrambles it over `[0, n)` so the hot set is
    /// spread across the key space (and therefore across the store's
    /// range shards) instead of clustering at key 0. The scramble is a
    /// fixed hash, so a given rank always maps to the same key; two
    /// ranks may collide on one key, which only makes that key hotter —
    /// the YCSB trade-off.
    pub fn scrambled(&self, rng: &mut TestRng) -> u64 {
        self.scramble(self.sample(rng))
    }

    /// The deterministic rank → key scramble used by
    /// [`scrambled`](Self::scrambled), exposed for tests.
    pub fn scramble(&self, rank: u64) -> u64 {
        SplitMix64::new(rank).next_u64() % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_space_always_yields_zero() {
        let z = Zipf::new(1, 0.9);
        let mut rng = TestRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn rank_zero_dominates_at_high_skew() {
        let z = Zipf::new(1 << 16, 0.99);
        let mut rng = TestRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        // With θ=0.99 over 64K ranks, rank 0 carries roughly 1/ζ ≈ 8%.
        assert!(hits > 300, "rank 0 drawn only {hits}/10000 times");
    }

    #[test]
    fn scramble_is_a_stable_in_bounds_map() {
        let z = Zipf::new(1000, 0.9);
        for rank in 0..1000 {
            let k = z.scramble(rank);
            assert!(k < 1000);
            assert_eq!(k, z.scramble(rank), "scramble must be deterministic");
        }
    }
}
