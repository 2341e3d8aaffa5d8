//! The benchmark's own traffic generator: PRNG, Zipf sampling, the
//! open-loop arrival schedule, exact percentiles and the op-stream
//! digest.
//!
//! It deliberately shares no code with the library's workload or test
//! crates, so a later change to those cannot change the traffic the
//! benchmark offers.

/// SplitMix64 step; also the finalizer used to scramble Zipf ranks.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The stream for `(seed, stream)`: each generator thread and each
    /// purpose gets its own stream of the run's seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut sm = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng {
            s: [0; 4].map(|_| splitmix64(&mut sm)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform in `[0, n)` (Lemire's multiply-shift; the bias is below
    /// 2^-40 for every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// YCSB bounded Zipfian over ranks `[0, n)`, scrambled over the key
/// space so the hot keys land on random shards.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// `O(n)` set-up (the generalised harmonic number); `theta` in (0, 1).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let (zetan, zeta2) = (zeta(n), zeta(2));
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            zeta2,
        }
    }

    /// A rank; rank 0 is the hottest.
    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.zeta2 {
            return 1;
        }
        ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64).min(self.n - 1)
    }

    /// A key: the rank through a fixed hash, so popularity stays
    /// Zipfian while the hot set spreads over the key space.
    pub fn key(&self, rng: &mut Rng) -> u64 {
        let mut r = self.rank(rng);
        splitmix64(&mut r) % self.n
    }
}

/// Drift-free open-loop arrivals: op `g` of the run is due
/// `floor(g * 1e9 / rate)` ns after the start, in exact integers, and
/// generator thread `w` of `threads` issues the ops `g ≡ w (mod threads)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    rate: u64,
    threads: u64,
}

impl Schedule {
    pub fn new(rate: u64, threads: usize) -> Self {
        assert!(rate > 0 && threads > 0);
        Schedule {
            rate,
            threads: threads as u64,
        }
    }

    /// When the run's op `g` is due, in ns after the start.
    pub fn due_ns(&self, g: u64) -> u64 {
        (g as u128 * 1_000_000_000 / self.rate as u128) as u64
    }

    /// When thread `w`'s `i`-th op is due.
    pub fn thread_due_ns(&self, w: usize, i: u64) -> u64 {
        self.due_ns(i * self.threads + w as u64)
    }

    /// Ops of thread `w` that fall due before `ns`.
    pub fn thread_ops_before(&self, w: usize, ns: u64) -> u64 {
        // Run ops due before `ns`: the smallest g with due_ns(g) >= ns.
        let total = ((ns as u128 * self.rate as u128).div_ceil(1_000_000_000)) as u64;
        total.saturating_sub(w as u64).div_ceil(self.threads)
    }
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Linear-interpolated quantile of unsorted `v` (Python's
/// `statistics.quantiles(..., method="exclusive")` convention for the
/// quartiles), used for summaries of a handful of run-level values.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (q * (s.len() + 1) as f64 - 1.0).clamp(0.0, (s.len() - 1) as f64);
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    s[lo] + (s[(lo + 1).min(s.len() - 1)] - s[lo]) * frac
}

/// Quantile `q`, over consecutive windows of `window_ns`, of each
/// window's percentile `p` of the `(time_ns, value)` samples that fall
/// in it. A host stall that spoils a few windows moves this less than it
/// moves the percentile of the pooled samples.
pub fn windowed(samples: &[(u64, u64)], window_ns: u64, p: f64, q: f64) -> f64 {
    let mut windows: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for &(t, v) in samples {
        windows.entry(t / window_ns).or_default().push(v);
    }
    let per: Vec<f64> = windows
        .into_values()
        .map(|mut v| {
            v.sort_unstable();
            percentile(&v, p) as f64
        })
        .collect();
    quantile(&per, q)
}

/// FNV-1a over the op stream, so two commits can be shown to have
/// received identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 90.0), 90);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 99.9), 100);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 50.0), 7);
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 25.0), 10);
        assert_eq!(percentile(&s, 50.0), 20);
        assert_eq!(percentile(&s, 75.0), 30);
        assert_eq!(percentile(&s, 76.0), 40);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&v, 0.5) - 5.5).abs() < 1e-12);
        assert!((quantile(&v, 0.75) - 8.25).abs() < 1e-12);
        assert_eq!(quantile(&[3.0], 0.75), 3.0);
    }

    #[test]
    fn windowed_percentile_skips_stalled_windows() {
        // Three windows of 10 ns; the middle one is a stall.
        let mut s: Vec<(u64, u64)> = (0..10).map(|i| (i, 100 + i)).collect();
        s.extend((10..20).map(|i| (i, 10_000 + i)));
        s.extend((20..30).map(|i| (i, 200 + i)));
        // Window p50s: 104, 10014, 224.
        assert_eq!(windowed(&s, 10, 50.0, 0.5), 224.0);
        assert_eq!(windowed(&s, 10, 50.0, 0.0), 104.0);
        // Pooled, the stall would own the top third.
        let mut pooled: Vec<u64> = s.iter().map(|&(_, v)| v).collect();
        pooled.sort_unstable();
        assert!(percentile(&pooled, 90.0) > 10_000);
        assert!(windowed(&s, 10, 90.0, 0.5) < 300.0);
    }

    #[test]
    fn schedule_is_additive_without_drift() {
        // 3 threads at a rate whose interval is not a whole number of ns.
        let s = Schedule::new(1_650_000, 3);
        for g in [0u64, 1, 7, 1_000_003, 49_500_000] {
            // Exact: due(g) is the floor of g * 1e9 / rate, whatever g is,
            // so no error accumulates across windows.
            let exact = g as u128 * 1_000_000_000 / 1_650_000;
            assert_eq!(s.due_ns(g) as u128, exact);
        }
        // Additivity: the ops due in [0, a) and [a, a + b) add up to the
        // ops due in [0, a + b), for every thread.
        let (a, b) = (333_333_333u64, 1_000_000_001u64);
        for w in 0..3 {
            let first = s.thread_ops_before(w, a);
            let both = s.thread_ops_before(w, a + b);
            let second = (first..)
                .take_while(|&i| s.thread_due_ns(w, i) < a + b)
                .count() as u64;
            assert_eq!(first + second, both);
            assert!(s.thread_due_ns(w, both - 1) < a + b && s.thread_due_ns(w, both) >= a + b);
        }
        // Ten seconds at the rate: exactly rate * 10 ops over all threads.
        let total: u64 = (0..3).map(|w| s.thread_ops_before(w, 10_000_000_000)).sum();
        assert_eq!(total, 16_500_000);
        // Threads interleave: consecutive run ops alternate threads.
        assert!(s.thread_due_ns(0, 1) > s.thread_due_ns(2, 0));
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(42, 0);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(42, 0);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut other = Rng::new(42, 1);
        assert_ne!(a[0], other.next_u64());
        let mut r = Rng::new(7, 0);
        assert!((0..10_000).all(|_| r.below(1024) < 1024));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1 << 16, 0.99);
        let mut r = Rng::new(1, 0);
        let ranks: Vec<u64> = (0..20_000).map(|_| z.rank(&mut r)).collect();
        assert!(ranks.iter().all(|&k| k < 1 << 16));
        // Rank 0 carries about 1/zeta(n) ≈ 8% at this skew.
        let hot = ranks.iter().filter(|&&k| k == 0).count();
        assert!((1_000..2_400).contains(&hot), "rank 0 drawn {hot} times");
        assert!((0..1_000).all(|_| z.key(&mut r) < 1 << 16));
    }
}
