//! Deterministic pseudo-random numbers for workloads and fault injection.
//!
//! A xoshiro256++ core seeded through SplitMix64 — small, fast, and
//! entirely reproducible: a simulation's behaviour is a pure function of
//! its seed. The distributions implemented are exactly those the
//! traffic models need (uniform, exponential for Poisson processes,
//! geometric on/off periods).

/// A deterministic PRNG (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        SimRng { s }
    }

    /// Derive an independent stream (for giving each traffic source its
    /// own generator while keeping a single top-level seed).
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3])).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.uniform() < p
    }

    /// Exponential variate with the given mean (inter-arrival times of a
    /// Poisson process).
    pub(crate) fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Fill a byte buffer with pseudo-random data (payload synthesis).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut root1 = SimRng::new(7);
        let mut root2 = SimRng::new(7);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        for _ in 0..100 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
        let mut g1 = root1.fork(2);
        assert_ne!(g1.next_u64(), f1.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive() {
        let mut r = SimRng::new(6);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..10_000 {
            let v = r.range(10, 12);
            assert!((10..=12).contains(&v));
            lo_seen |= v == 10;
            hi_seen |= v == 12;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(8);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.1)));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn exponential_is_positive() {
        let mut r = SimRng::new(14);
        for _ in 0..10_000 {
            assert!(r.exponential(1.0) > 0.0);
        }
    }

    #[test]
    fn fill_bytes_deterministic_all_lengths() {
        for len in [0usize, 1, 7, 8, 9, 64, 65] {
            let mut a = SimRng::new(99);
            let mut b = SimRng::new(99);
            let mut ba = vec![0u8; len];
            let mut bb = vec![0u8; len];
            a.fill_bytes(&mut ba);
            b.fill_bytes(&mut bb);
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn fill_bytes_not_constant() {
        let mut r = SimRng::new(100);
        let mut buf = vec![0u8; 256];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != buf[0]));
    }
}
