//! Measurement primitives for the simulation study (§7).
//!
//! * [`Counter`] — events and octets.
//! * [`TimeWeighted`] — a gauge integrated over simulated time; its mean
//!   is the time-average (used for buffer occupancy, E6).
//! * [`Histogram`] — fixed-width bins plus exact min/max/mean and
//!   approximate quantiles (used for latency distributions, E5/E13).
//!   Its bins are held only up to the highest one recorded into.

use crate::time::SimTime;

/// A monotone event/octet counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    count: u64,
    octets: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Record one event of `octets` size.
    pub fn record(&mut self, octets: usize) {
        self.count += 1;
        self.octets += octets as u64;
    }

    /// Record one unit-size event.
    pub fn tick(&mut self) {
        self.count += 1;
    }

    /// Record `events` events totalling `octets` octets in one call
    /// (bulk accounting, e.g. all cells of a segmented frame).
    pub fn add(&mut self, events: u64, octets: u64) {
        self.count += events;
        self.octets += octets;
    }

    /// Number of events recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total octets recorded.
    pub fn octets(&self) -> u64 {
        self.octets
    }

    /// Throughput in bits per second over the interval `[0, elapsed]`.
    pub fn bps(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.octets as f64 * 8.0 / elapsed.as_secs_f64()
    }

    /// Event rate per second over the interval `[0, elapsed]`.
    pub fn rate(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.count as f64 / elapsed.as_secs_f64()
    }
}

/// A gauge whose value is integrated over simulated time.
///
/// `set(t, v)` records that the gauge held its previous value until `t`
/// and holds `v` from `t` on. `mean(t_end)` is the time-average over
/// `[t0, t_end]`.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// A gauge at value 0 that starts integrating at the first `set`.
    pub fn new() -> TimeWeighted {
        TimeWeighted {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            integral: 0.0,
            max: 0.0,
            started: false,
        }
    }

    /// Record the gauge changing to `value` at time `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes an earlier sample.
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(now >= self.last_time, "time went backwards");
        if self.started {
            self.integral += self.last_value * (now - self.last_time).as_ns() as f64;
        } else {
            self.started = true;
        }
        self.last_time = now;
        self.last_value = value;
        if value > self.max {
            self.max = value;
        }
    }

    /// The most recent value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// The maximum value ever set.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-averaged value over `[first_sample, t_end]`.
    pub fn mean(&self, t_end: SimTime) -> f64 {
        if !self.started || t_end <= self.last_time {
            return self.last_value;
        }
        let total = self.integral + self.last_value * (t_end - self.last_time).as_ns() as f64;
        let span = (t_end - SimTime::ZERO).as_ns() as f64;
        if span == 0.0 {
            self.last_value
        } else {
            total / span
        }
    }
}

/// A histogram with fixed-width bins over `[0, bin_width * bins)`;
/// values beyond the top bin land in an overflow bin but still count in
/// the exact min/max/mean.
///
/// The bins are held only up to the highest one recorded into, as
/// `SlotIndex` holds slots only up to the largest key: a new histogram
/// allocates nothing, a sample past the held bins grows them (amortized
/// doubling, capped at `bins`), and a sample in a held bin allocates
/// nothing. Every reader returns what a fully allocated histogram would:
/// the bins not held are the zero bins above the highest sample.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: u64,
    /// Counts of bins `0..bins.len()`; empty until the first in-range
    /// sample, never longer than `cap`.
    bins: Vec<u64>,
    /// The bin count the histogram was built with.
    cap: usize,
    overflow: u64,
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Create with `bins` bins of `bin_width` each. `bin_width` must be
    /// nonzero. Allocates nothing; bins are held as samples reach them.
    pub fn new(bin_width: u64, bins: usize) -> Histogram {
        assert!(bin_width > 0, "bin width must be positive");
        Histogram {
            bin_width,
            bins: Vec::new(),
            cap: bins,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let idx = value / self.bin_width;
        if let Some(bin) = self.bins.get_mut(idx as usize) {
            *bin += 1;
        } else if idx < self.cap as u64 {
            self.grow_to(idx as usize);
        } else {
            self.overflow += 1;
        }
    }

    /// Hold bins up to `idx` and count one sample there. A reallocation
    /// at least doubles the capacity, so a histogram reallocates at most
    /// log2(`cap`) times, never holds more than twice the bins in use,
    /// and never passes `cap`.
    #[cold]
    fn grow_to(&mut self, idx: usize) {
        let capacity = self.bins.capacity();
        if idx >= capacity {
            let want = (idx + 1).max(2 * capacity).min(self.cap);
            self.bins.reserve_exact(want - self.bins.len());
        }
        self.bins.resize(idx + 1, 0);
        self.bins[idx] = 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum, or 0 with no samples.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile (upper edge of the bin containing it).
    /// `q` in `[0, 1]`. Samples in the overflow bin report the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target && c > 0 {
                return (i as u64 + 1) * self.bin_width;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.record(100);
        c.record(53);
        c.tick();
        assert_eq!(c.count(), 3);
        assert_eq!(c.octets(), 153);
    }

    #[test]
    fn counter_rates() {
        let mut c = Counter::new();
        for _ in 0..100 {
            c.record(125); // 1000 bits each
        }
        let t = SimTime::from_secs(1);
        assert!((c.bps(t) - 100_000.0).abs() < 1e-6);
        assert!((c.rate(t) - 100.0).abs() < 1e-9);
        assert_eq!(c.bps(SimTime::ZERO), 0.0);
    }

    #[test]
    fn time_weighted_mean_simple() {
        let mut g = TimeWeighted::new();
        g.set(SimTime::from_ns(0), 10.0);
        g.set(SimTime::from_ns(50), 20.0);
        // 0..50 at 10, 50..100 at 20 -> mean 15 over [0,100].
        assert!((g.mean(SimTime::from_ns(100)) - 15.0).abs() < 1e-9);
        assert_eq!(g.max(), 20.0);
        assert_eq!(g.current(), 20.0);
    }

    #[test]
    fn time_weighted_step_function() {
        let mut g = TimeWeighted::new();
        g.set(SimTime::from_ns(0), 0.0);
        g.set(SimTime::from_ns(25), 4.0);
        g.set(SimTime::from_ns(75), 0.0);
        // 25..75 at 4 over [0,100] -> 2.0
        assert!((g.mean(SimTime::from_ns(100)) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_rejects_backwards() {
        let mut g = TimeWeighted::new();
        g.set(SimTime::from_ns(100), 1.0);
        g.set(SimTime::from_ns(50), 2.0);
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(10, 10);
        for v in [5u64, 15, 15, 25, 99] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 99);
        assert!((h.mean() - 31.8).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(1, 1000);
        for v in 0..100u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((49..=51).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((98..=100).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn histogram_overflow_counts_in_stats() {
        let mut h = Histogram::new(10, 2); // covers [0,20)
        h.record(1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 1000);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new(10, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.9), 0);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_rejected() {
        let _ = Histogram::new(0, 4);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_at_every_q() {
        let h = Histogram::new(40, 64);
        for q in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn one_sample_histogram_quantiles() {
        // A single in-range sample: every quantile reports the upper
        // edge of its bin; min/max/mean are exact.
        let mut h = Histogram::new(10, 8);
        h.record(42);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 50, "q={q}: the 40..50 bin's upper edge");
        }
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert!((h.mean() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn one_sample_in_overflow_bin_reports_exact_max() {
        let mut h = Histogram::new(10, 2); // covers [0, 20)
        h.record(35);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), 35, "overflow samples report the exact max");
        }
    }

    /// The histogram as it was before it grew on demand: every bin
    /// allocated up front, quantiles scanned over all of them.
    struct FullHistogram {
        bin_width: u64,
        bins: Vec<u64>,
        count: u64,
        sum: f64,
        min: u64,
        max: u64,
    }

    impl FullHistogram {
        fn record(&mut self, value: u64) {
            self.count += 1;
            self.sum += value as f64;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            if let Some(bin) = self.bins.get_mut((value / self.bin_width) as usize) {
                *bin += 1;
            }
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
            let mut seen = 0u64;
            for (i, &c) in self.bins.iter().enumerate() {
                seen += c;
                if seen >= target && c > 0 {
                    return (i as u64 + 1) * self.bin_width;
                }
            }
            self.max
        }
    }

    #[test]
    fn growing_histogram_reads_what_a_full_one_reads() {
        use crate::rng::SimRng;
        const BINS: usize = 64;
        const WIDTH: u64 = 40;
        let top = WIDTH * BINS as u64; // the first value past the cap
        let mut rng = SimRng::new(0x39);
        // (samples, largest in-range value) per case: none at all; in
        // range only, ascending and then at random; landing exactly in
        // the top bin and on the cap's edge; and mostly past the cap.
        let cases: [(usize, u64); 5] =
            [(0, 0), (300, top / 4), (300, top - 1), (200, top), (200, 4 * top)];
        for (case, (samples, hi)) in cases.into_iter().enumerate() {
            let mut grown = Histogram::new(WIDTH, BINS);
            let mut full = FullHistogram {
                bin_width: WIDTH,
                bins: vec![0; BINS],
                count: 0,
                sum: 0.0,
                min: u64::MAX,
                max: 0,
            };
            let ascending = (0..samples as u64).map(|i| i * hi / samples.max(1) as u64);
            let edges = [top - 1, top, top + 1].into_iter().filter(|&v| v <= hi && samples > 0);
            let random: Vec<u64> = (0..samples).map(|_| rng.below(hi + 1)).collect();
            for v in ascending.chain(edges).chain(random) {
                grown.record(v);
                full.record(v);
            }
            assert_eq!(grown.count(), full.count, "case {case}");
            assert_eq!(
                grown.mean(),
                if full.count == 0 { 0.0 } else { full.sum / full.count as f64 }
            );
            assert_eq!(grown.min(), if full.count == 0 { 0 } else { full.min }, "case {case}");
            assert_eq!(grown.max(), full.max, "case {case}");
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(grown.quantile(q), full.quantile(q), "case {case} q={q}");
            }
            assert!(grown.bins.len() <= BINS && grown.bins.capacity() <= BINS, "case {case}");
            let highest = full.bins.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            assert_eq!(grown.bins.len(), highest, "case {case}: held up to the highest bin");
        }
    }

    #[test]
    fn a_new_histogram_holds_no_bins() {
        let mut h = Histogram::new(1, 65_536);
        assert_eq!(h.bins.capacity(), 0);
        h.record(1_000_000);
        assert_eq!(h.bins.capacity(), 0, "an overflow sample holds no bins");
        h.record(99);
        assert_eq!(h.bins.len(), 100);
        // Rising samples reallocate only when they pass the capacity,
        // and the capacity stays within twice the bins in use.
        let mut reallocations = 0;
        for v in 100..5_000 {
            let capacity = h.bins.capacity();
            h.record(v);
            reallocations += usize::from(h.bins.capacity() != capacity);
            assert!(h.bins.capacity() <= 2 * h.bins.len(), "v={v}");
        }
        assert_eq!(h.bins.len(), 5_000);
        assert!(reallocations <= 6, "{reallocations} reallocations from 100 to 5 000 bins");
    }

    #[test]
    fn quantile_q_is_clamped() {
        let mut h = Histogram::new(10, 8);
        h.record(5);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }
}
