//! Application workload generators for the gateway simulation study.
//!
//! §7 commits to quantifying gateway performance "with various
//! application traffic patterns"; §1 and §3 name the applications both
//! networks target: "digitized voice, full motion video, and
//! interactive imaging for scientific and business applications", plus
//! classical datagram traffic. This module provides those patterns as
//! deterministic arrival-process generators:
//!
//! * [`CbrSource`] — constant bit rate (64 kb/s voice, or any CBR).
//! * [`OnOffSource`] — bursty variable bit rate with exponentially
//!   distributed on/off periods (motion video, compressed).
//! * [`PoissonSource`] — classical datagram traffic.
//! * [`BulkSource`] — a finite back-to-back transfer (file/bulk data).
//! * [`ImagingSource`] — periodic multi-frame bursts (interactive
//!   imaging: a full image every interaction).
//!
//! Each source yields [`FrameArrival`]s one at a time from its own view
//! of the clock; [`merge`] interleaves several sources into one
//! time-ordered arrival list. All randomness flows from the caller's
//! [`SimRng`], so workloads are reproducible.

use crate::rng::SimRng;
use crate::time::SimTime;

/// One frame arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameArrival {
    /// Arrival time.
    pub at: SimTime,
    /// Frame payload size in octets.
    pub octets: usize,
}

/// An arrival process.
pub trait Source {
    /// The next arrival, or `None` when the source is exhausted.
    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<FrameArrival>;

    /// Nominal mean rate in bits per second (for admission requests).
    fn mean_bps(&self) -> u64;

    /// Nominal peak rate in bits per second.
    fn peak_bps(&self) -> u64;
}

/// Constant-bit-rate traffic: fixed-size frames at exact intervals.
#[derive(Debug, Clone)]
pub struct CbrSource {
    rate_bps: u64,
    frame_octets: usize,
    interval: SimTime,
    next_at: SimTime,
}

impl CbrSource {
    /// A CBR stream of `rate_bps` using `frame_octets` frames, starting
    /// at `start`.
    ///
    /// # Panics
    /// Panics if `rate_bps` or `frame_octets` is zero.
    pub fn new(start: SimTime, rate_bps: u64, frame_octets: usize) -> CbrSource {
        assert!(rate_bps > 0 && frame_octets > 0);
        let interval = SimTime::from_ns(frame_octets as u64 * 8 * 1_000_000_000 / rate_bps);
        CbrSource { rate_bps, frame_octets, interval, next_at: start }
    }

    /// 64 kb/s digitized voice: 160-octet frames every 20 ms.
    pub fn voice(start: SimTime) -> CbrSource {
        CbrSource::new(start, 64_000, 160)
    }
}

impl Source for CbrSource {
    fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<FrameArrival> {
        let at = self.next_at;
        self.next_at += self.interval;
        Some(FrameArrival { at, octets: self.frame_octets })
    }

    fn mean_bps(&self) -> u64 {
        self.rate_bps
    }

    fn peak_bps(&self) -> u64 {
        self.rate_bps
    }
}

/// On/off (bursty) traffic: during ON periods frames arrive at the peak
/// rate; OFF periods are silent. Period lengths are exponential.
#[derive(Debug, Clone)]
pub struct OnOffSource {
    peak_bps: u64,
    frame_octets: usize,
    mean_on: SimTime,
    mean_off: SimTime,
    now: SimTime,
    on_until: SimTime,
}

impl OnOffSource {
    /// A bursty source transmitting at `peak_bps` during ON periods of
    /// mean `mean_on`, separated by OFF periods of mean `mean_off`.
    pub fn new(
        start: SimTime,
        peak_bps: u64,
        frame_octets: usize,
        mean_on: SimTime,
        mean_off: SimTime,
    ) -> OnOffSource {
        assert!(peak_bps > 0 && frame_octets > 0);
        OnOffSource { peak_bps, frame_octets, mean_on, mean_off, now: start, on_until: start }
    }

    /// Compressed motion video: 6 Mb/s peak in 10 ms bursts with 30 ms
    /// gaps (≈1.5 Mb/s mean), 1 KiB frames.
    pub fn video(start: SimTime) -> OnOffSource {
        OnOffSource::new(start, 6_000_000, 1024, SimTime::from_ms(10), SimTime::from_ms(30))
    }

    fn frame_interval(&self) -> SimTime {
        SimTime::from_ns(self.frame_octets as u64 * 8 * 1_000_000_000 / self.peak_bps)
    }
}

impl Source for OnOffSource {
    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<FrameArrival> {
        if self.now >= self.on_until {
            // Draw an OFF gap then an ON burst.
            let off = rng.exponential(self.mean_off.as_ns() as f64) as u64;
            let on = rng.exponential(self.mean_on.as_ns() as f64) as u64;
            self.now += SimTime::from_ns(off);
            self.on_until = self.now + SimTime::from_ns(on.max(1));
        }
        let at = self.now;
        self.now += self.frame_interval();
        Some(FrameArrival { at, octets: self.frame_octets })
    }

    fn mean_bps(&self) -> u64 {
        let on = self.mean_on.as_ns() as f64;
        let off = self.mean_off.as_ns() as f64;
        (self.peak_bps as f64 * on / (on + off)) as u64
    }

    fn peak_bps(&self) -> u64 {
        self.peak_bps
    }
}

/// Poisson datagram traffic: exponential inter-arrivals, fixed frames.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    mean_bps: u64,
    frame_octets: usize,
    now: SimTime,
}

impl PoissonSource {
    /// Datagram traffic averaging `mean_bps` in `frame_octets` frames.
    pub fn new(start: SimTime, mean_bps: u64, frame_octets: usize) -> PoissonSource {
        assert!(mean_bps > 0 && frame_octets > 0);
        PoissonSource { mean_bps, frame_octets, now: start }
    }
}

impl Source for PoissonSource {
    fn next_arrival(&mut self, rng: &mut SimRng) -> Option<FrameArrival> {
        let mean_gap_ns = self.frame_octets as f64 * 8.0 * 1e9 / self.mean_bps as f64;
        self.now += SimTime::from_ns(rng.exponential(mean_gap_ns) as u64);
        Some(FrameArrival { at: self.now, octets: self.frame_octets })
    }

    fn mean_bps(&self) -> u64 {
        self.mean_bps
    }

    fn peak_bps(&self) -> u64 {
        // Unpoliced datagram traffic can burst to whatever the access
        // link carries; report 4x mean as a conventional envelope.
        self.mean_bps * 4
    }
}

/// A finite bulk transfer: frames back to back at the source rate until
/// `total_octets` have been produced.
#[derive(Debug, Clone)]
pub struct BulkSource {
    rate_bps: u64,
    frame_octets: usize,
    remaining: usize,
    now: SimTime,
}

impl BulkSource {
    /// Transfer `total_octets` at `rate_bps` in `frame_octets` frames.
    pub fn new(
        start: SimTime,
        rate_bps: u64,
        frame_octets: usize,
        total_octets: usize,
    ) -> BulkSource {
        assert!(rate_bps > 0 && frame_octets > 0);
        BulkSource { rate_bps, frame_octets, remaining: total_octets, now: start }
    }
}

impl Source for BulkSource {
    fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<FrameArrival> {
        if self.remaining == 0 {
            return None;
        }
        let octets = self.frame_octets.min(self.remaining);
        self.remaining -= octets;
        let at = self.now;
        self.now += SimTime::from_ns(octets as u64 * 8 * 1_000_000_000 / self.rate_bps);
        Some(FrameArrival { at, octets })
    }

    fn mean_bps(&self) -> u64 {
        self.rate_bps
    }

    fn peak_bps(&self) -> u64 {
        self.rate_bps
    }
}

/// Interactive imaging: every `interval` an image of `image_octets`
/// arrives as a burst of maximum-size frames.
#[derive(Debug, Clone)]
pub struct ImagingSource {
    image_octets: usize,
    frame_octets: usize,
    interval: SimTime,
    burst_spacing: SimTime,
    now: SimTime,
    left_in_image: usize,
}

impl ImagingSource {
    /// An imaging workload: `image_octets` per image, one image per
    /// `interval`, delivered in `frame_octets` frames spaced
    /// `burst_spacing` apart (the sender's access rate).
    pub fn new(
        start: SimTime,
        image_octets: usize,
        frame_octets: usize,
        interval: SimTime,
        burst_spacing: SimTime,
    ) -> ImagingSource {
        assert!(image_octets > 0 && frame_octets > 0);
        ImagingSource {
            image_octets,
            frame_octets,
            interval,
            burst_spacing,
            now: start,
            left_in_image: 0,
        }
    }
}

impl Source for ImagingSource {
    fn next_arrival(&mut self, _rng: &mut SimRng) -> Option<FrameArrival> {
        if self.left_in_image == 0 {
            self.left_in_image = self.image_octets;
            self.now += self.interval;
        }
        let octets = self.frame_octets.min(self.left_in_image);
        self.left_in_image -= octets;
        let at = self.now;
        self.now += self.burst_spacing;
        Some(FrameArrival { at, octets })
    }

    fn mean_bps(&self) -> u64 {
        (self.image_octets as u64 * 8 * 1_000_000_000) / self.interval.as_ns()
    }

    fn peak_bps(&self) -> u64 {
        (self.frame_octets as u64 * 8 * 1_000_000_000) / self.burst_spacing.as_ns().max(1)
    }
}

/// Generate all arrivals from `source` up to `horizon` (exclusive).
pub fn arrivals_until(
    source: &mut dyn Source,
    rng: &mut SimRng,
    horizon: SimTime,
) -> Vec<FrameArrival> {
    let mut out = Vec::new();
    while let Some(a) = source.next_arrival(rng) {
        if a.at >= horizon {
            break;
        }
        out.push(a);
    }
    out
}

/// Merge several sources' arrivals up to `horizon` into one
/// time-ordered list tagged with the source index.
pub fn merge(
    sources: &mut [Box<dyn Source>],
    rng: &mut SimRng,
    horizon: SimTime,
) -> Vec<(usize, FrameArrival)> {
    let mut all = Vec::new();
    for (i, s) in sources.iter_mut().enumerate() {
        let mut stream_rng = rng.fork(i as u64 + 1);
        for a in arrivals_until(s.as_mut(), &mut stream_rng, horizon) {
            all.push((i, a));
        }
    }
    all.sort_by_key(|&(i, a)| (a.at, i));
    all
}

/// Total offered load in bits per second over `[0, horizon]`.
pub fn offered_bps(arrivals: &[(usize, FrameArrival)], horizon: SimTime) -> f64 {
    let octets: u64 = arrivals.iter().map(|&(_, a)| a.octets as u64).sum();
    octets as f64 * 8.0 / horizon.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_of(source: &mut dyn Source, seed: u64, secs: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        let horizon = SimTime::from_secs(secs);
        let arrivals = arrivals_until(source, &mut rng, horizon);
        let octets: u64 = arrivals.iter().map(|a| a.octets as u64).sum();
        octets as f64 * 8.0 / horizon.as_secs_f64()
    }

    #[test]
    fn cbr_hits_exact_rate() {
        let mut s = CbrSource::new(SimTime::ZERO, 1_000_000, 1250);
        let rate = rate_of(&mut s, 1, 10);
        assert!((rate - 1_000_000.0).abs() / 1_000_000.0 < 0.01, "{rate}");
    }

    #[test]
    fn voice_preset_is_64kbps() {
        let mut s = CbrSource::voice(SimTime::ZERO);
        assert_eq!(s.mean_bps(), 64_000);
        let rate = rate_of(&mut s, 1, 20);
        assert!((rate - 64_000.0).abs() / 64_000.0 < 0.01, "{rate}");
    }

    #[test]
    fn cbr_intervals_are_constant() {
        let mut s = CbrSource::new(SimTime::ZERO, 8_000_000, 1000);
        let mut rng = SimRng::new(2);
        let a: Vec<_> = (0..10).map(|_| s.next_arrival(&mut rng).unwrap()).collect();
        let gap = a[1].at - a[0].at;
        for w in a.windows(2) {
            assert_eq!(w[1].at - w[0].at, gap);
        }
        assert_eq!(gap, SimTime::from_ms(1));
    }

    #[test]
    fn onoff_mean_rate_converges() {
        let mut s = OnOffSource::new(
            SimTime::ZERO,
            8_000_000,
            1000,
            SimTime::from_ms(10),
            SimTime::from_ms(30),
        );
        let expect = s.mean_bps() as f64; // 2 Mb/s
        let rate = rate_of(&mut s, 3, 60);
        assert!((rate - expect).abs() / expect < 0.1, "rate {rate} vs {expect}");
    }

    #[test]
    fn onoff_is_bursty() {
        // During ON periods, instantaneous gaps equal the peak-rate
        // spacing; across OFF periods, gaps are much longer.
        let mut s = OnOffSource::video(SimTime::ZERO);
        let mut rng = SimRng::new(4);
        let arrivals: Vec<_> = (0..5000).map(|_| s.next_arrival(&mut rng).unwrap()).collect();
        let peak_gap = SimTime::from_ns(1024 * 8 * 1_000_000_000 / 6_000_000);
        let mut peak_gaps = 0;
        let mut long_gaps = 0;
        for w in arrivals.windows(2) {
            let gap = w[1].at - w[0].at;
            if gap == peak_gap {
                peak_gaps += 1;
            } else if gap > SimTime::from_ms(1) {
                long_gaps += 1;
            }
        }
        assert!(peak_gaps > 1000, "in-burst arrivals at peak spacing: {peak_gaps}");
        assert!(long_gaps > 20, "off periods present: {long_gaps}");
    }

    #[test]
    fn poisson_mean_converges() {
        let mut s = PoissonSource::new(SimTime::ZERO, 5_000_000, 500);
        let rate = rate_of(&mut s, 5, 30);
        assert!((rate - 5e6).abs() / 5e6 < 0.05, "{rate}");
    }

    #[test]
    fn poisson_gaps_vary() {
        let mut s = PoissonSource::new(SimTime::ZERO, 1_000_000, 500);
        let mut rng = SimRng::new(6);
        let a: Vec<_> = (0..100).map(|_| s.next_arrival(&mut rng).unwrap()).collect();
        let gaps: Vec<u64> = a.windows(2).map(|w| (w[1].at - w[0].at).as_ns()).collect();
        let distinct: std::collections::HashSet<_> = gaps.iter().collect();
        assert!(distinct.len() > 90, "exponential gaps should rarely repeat");
    }

    #[test]
    fn bulk_transfers_exact_total_then_ends() {
        let mut s = BulkSource::new(SimTime::ZERO, 10_000_000, 4096, 10_000);
        let mut rng = SimRng::new(7);
        let mut total = 0;
        let mut n = 0;
        while let Some(a) = s.next_arrival(&mut rng) {
            total += a.octets;
            n += 1;
        }
        assert_eq!(total, 10_000);
        assert_eq!(n, 3, "4096 + 4096 + 1808");
        assert!(s.next_arrival(&mut rng).is_none(), "stays exhausted");
    }

    #[test]
    fn imaging_bursts_per_interval() {
        let mut s = ImagingSource::new(
            SimTime::ZERO,
            100_000,
            4096,
            SimTime::from_secs(1),
            SimTime::from_us(100),
        );
        let mut rng = SimRng::new(8);
        let horizon = SimTime::from_secs(3);
        let arrivals = arrivals_until(&mut s, &mut rng, horizon);
        let per_image = 100_000usize.div_ceil(4096);
        // Images at t=1s and t=2s land fully inside [0, 3s).
        assert!(arrivals.len() >= 2 * per_image, "{}", arrivals.len());
        let total: usize = arrivals.iter().map(|a| a.octets).sum();
        assert!(total >= 200_000);
    }

    #[test]
    fn merge_orders_and_tags() {
        let mut sources: Vec<Box<dyn Source>> = vec![
            Box::new(CbrSource::new(SimTime::ZERO, 1_000_000, 100)),
            Box::new(CbrSource::new(SimTime::from_us(133), 1_000_000, 200)),
        ];
        let mut rng = SimRng::new(9);
        let merged = merge(&mut sources, &mut rng, SimTime::from_ms(10));
        assert!(!merged.is_empty());
        for w in merged.windows(2) {
            assert!(w[0].1.at <= w[1].1.at, "time-ordered");
        }
        assert!(merged.iter().any(|&(i, _)| i == 0));
        assert!(merged.iter().any(|&(i, _)| i == 1));
    }

    #[test]
    fn merged_workload_is_deterministic() {
        let run = || {
            let mut sources: Vec<Box<dyn Source>> = vec![
                Box::new(OnOffSource::video(SimTime::ZERO)),
                Box::new(PoissonSource::new(SimTime::ZERO, 2_000_000, 800)),
                Box::new(CbrSource::voice(SimTime::ZERO)),
            ];
            let mut rng = SimRng::new(42);
            merge(&mut sources, &mut rng, SimTime::from_secs(1))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn offered_load_helper() {
        let arrivals = vec![
            (0usize, FrameArrival { at: SimTime::ZERO, octets: 1250 }),
            (0, FrameArrival { at: SimTime::from_ms(500), octets: 1250 }),
        ];
        let bps = offered_bps(&arrivals, SimTime::from_secs(1));
        assert!((bps - 20_000.0).abs() < 1e-6);
    }
}
