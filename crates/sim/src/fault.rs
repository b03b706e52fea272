//! Fault injection for loss and corruption experiments (E10) and the
//! robustness suite (link flaps, loss bursts, duplication).
//!
//! ATM networks are characterized by very low — but nonzero — cell loss
//! (§5.2 assumes "very low cell loss rate"); the SPP must detect lost
//! cells by sequence number and corrupted payloads by CRC. The
//! [`FaultInjector`] perturbs a byte stream the same way the smoltcp
//! examples do: independent per-unit drop and corrupt probabilities,
//! plus optional uniform extra delay. On top of that it models the
//! failure modes plesio-reliable congrams (§2.4) must survive:
//!
//! * **burst loss** — a two-state Gilbert–Elliott channel whose bad
//!   state drops runs of consecutive units, unlike the independent
//!   (Bernoulli) drop;
//! * **link flaps** — a `[down, up)` window during which every unit is
//!   lost, standing in for a failed switch or unplugged fiber;
//! * **duplication** — the same unit arriving twice, as misrouted or
//!   retransmitted cells do — optionally in **bursts** of several
//!   copies, the pathological replay a misbehaving switch produces;
//! * **reordering** — a unit held back and delivered after its
//!   successor, defeating any in-order assumption in reassembly;
//! * **misinsertion** — a unit whose addressing is corrupted so it
//!   lands on a different live connection (the classic AAL hazard:
//!   a header bit-flip pattern that defeats the HEC). The injector is
//!   format-agnostic, so it reports the event and leaves the readdress
//!   to the caller, which knows the live connection set;
//! * **delay skew** — a deterministic sawtooth added to every
//!   delivered unit's delay, modeling clock drift between the network
//!   and the gateway's timer base so arrivals bunch up against
//!   reassembly deadlines.
//!
//! Compose the pieces with [`FaultConfig::builder`].

use crate::rng::SimRng;
use crate::time::SimTime;

/// A two-state Gilbert–Elliott loss channel: a `Good` state with low
/// (usually zero) loss and a `Bad` state with high loss, with geometric
/// sojourn times in each. Produces the bursty loss patterns real ATM
/// links exhibit under congestion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-unit probability of moving Good → Bad.
    pub p_good_to_bad: f64,
    /// Per-unit probability of moving Bad → Good.
    pub p_bad_to_good: f64,
    /// Loss probability while Good (usually 0).
    pub loss_good: f64,
    /// Loss probability while Bad (usually near 1).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A bursty channel that is loss-free when Good and loses
    /// everything when Bad, with the given transition probabilities.
    pub fn bursty(p_good_to_bad: f64, p_bad_to_good: f64) -> GilbertElliott {
        GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good: 0.0, loss_bad: 1.0 }
    }
}

/// A deterministic sawtooth added to every delivered unit's delay:
/// the extra delay ramps from zero to `magnitude` over each `period`,
/// then snaps back. Models clock drift between the network and the
/// gateway's timer base ("timer-deadline skew"): arrivals late in a
/// period land bunched against reassembly deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelaySkew {
    /// Sawtooth period (must be nonzero to have any effect).
    pub period: SimTime,
    /// Peak extra delay, reached at the end of each period.
    pub magnitude: SimTime,
}

impl DelaySkew {
    /// The skew contribution at `now` — a pure function of time, so it
    /// consumes no randomness and replays bit-for-bit.
    pub fn at(&self, now: SimTime) -> SimTime {
        let period = self.period.as_ns();
        if period == 0 {
            return SimTime::ZERO;
        }
        let phase = now.as_ns() % period;
        SimTime::from_ns((self.magnitude.as_ns() as u128 * phase as u128 / period as u128) as u64)
    }
}

/// Fault probabilities applied per transmission unit (cell or frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability the unit is silently dropped (independent loss).
    pub drop_probability: f64,
    /// Probability exactly one bit of the unit is flipped.
    pub corrupt_probability: f64,
    /// Maximum extra delay (uniform in `[0, max_extra_delay]`).
    pub max_extra_delay: SimTime,
    /// Probability the unit is delivered twice (or more; see
    /// [`FaultConfig::duplicate_burst_max`]).
    pub duplicate_probability: f64,
    /// Upper bound on total copies delivered when duplication fires
    /// (uniform in `[2, max]`; values below 2 behave as 2).
    pub duplicate_burst_max: u32,
    /// Probability the unit is held back and delivered after its
    /// successor (the caller performs the swap).
    pub reorder_probability: f64,
    /// Probability the unit's addressing is corrupted so it lands on a
    /// live foreign connection (the caller performs the readdress).
    pub misinsert_probability: f64,
    /// Deterministic sawtooth delay added to every delivered unit.
    pub delay_skew: Option<DelaySkew>,
    /// Burst (Gilbert–Elliott) loss channel, applied on top of the
    /// independent drop probability.
    pub burst: Option<GilbertElliott>,
    /// Link flap: every unit offered in `[down, up)` is lost.
    pub link_down: Option<(SimTime, SimTime)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_probability: 0.0,
            corrupt_probability: 0.0,
            max_extra_delay: SimTime::ZERO,
            duplicate_probability: 0.0,
            duplicate_burst_max: 2,
            reorder_probability: 0.0,
            misinsert_probability: 0.0,
            delay_skew: None,
            burst: None,
            link_down: None,
        }
    }
}

impl FaultConfig {
    /// A fault-free configuration.
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// Drop-only faults.
    pub fn drops(p: f64) -> FaultConfig {
        FaultConfig { drop_probability: p, ..Default::default() }
    }

    /// Corrupt-only faults.
    pub fn corruption(p: f64) -> FaultConfig {
        FaultConfig { corrupt_probability: p, ..Default::default() }
    }

    /// Compose faults fluently: drops, corruption, bursts, flaps, and
    /// duplication in one config.
    pub fn builder() -> FaultConfigBuilder {
        FaultConfigBuilder { config: FaultConfig::default() }
    }
}

/// Builder returned by [`FaultConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct FaultConfigBuilder {
    config: FaultConfig,
}

impl FaultConfigBuilder {
    /// Independent per-unit drop probability.
    pub fn drops(mut self, p: f64) -> Self {
        self.config.drop_probability = p;
        self
    }

    /// Single-bit corruption probability.
    pub fn corruption(mut self, p: f64) -> Self {
        self.config.corrupt_probability = p;
        self
    }

    /// Per-unit duplication probability.
    pub fn duplication(mut self, p: f64) -> Self {
        self.config.duplicate_probability = p;
        self
    }

    /// Cap on total copies delivered when duplication fires (≥ 2).
    pub fn duplication_burst(mut self, max_copies: u32) -> Self {
        self.config.duplicate_burst_max = max_copies;
        self
    }

    /// Per-unit reordering probability (unit delivered after its
    /// successor).
    pub fn reordering(mut self, p: f64) -> Self {
        self.config.reorder_probability = p;
        self
    }

    /// Per-unit misinsertion probability (unit readdressed onto a live
    /// foreign connection by the caller).
    pub fn misinsertion(mut self, p: f64) -> Self {
        self.config.misinsert_probability = p;
        self
    }

    /// Deterministic sawtooth delay skew.
    pub fn delay_skew(mut self, period: SimTime, magnitude: SimTime) -> Self {
        self.config.delay_skew = Some(DelaySkew { period, magnitude });
        self
    }

    /// Gilbert–Elliott burst-loss channel.
    pub fn burst(mut self, ge: GilbertElliott) -> Self {
        self.config.burst = Some(ge);
        self
    }

    /// One link flap: all units in `[down, up)` are lost.
    pub fn link_flap(mut self, down: SimTime, up: SimTime) -> Self {
        self.config.link_down = Some((down, up));
        self
    }

    /// The finished configuration.
    pub fn build(self) -> FaultConfig {
        self.config
    }
}

/// What happened to one unit passed through the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Delivered unmodified after `extra_delay`.
    Delivered {
        /// Additional queueing/jitter delay to apply.
        extra_delay: SimTime,
    },
    /// Dropped; nothing arrives.
    Dropped,
    /// Delivered after `extra_delay` with one bit flipped in place.
    Corrupted {
        /// Additional queueing/jitter delay to apply.
        extra_delay: SimTime,
    },
    /// Delivered unmodified after `extra_delay` — `copies` times.
    Duplicated {
        /// Additional queueing/jitter delay to apply (to every copy).
        extra_delay: SimTime,
        /// Total number of deliveries (≥ 2).
        copies: u32,
    },
    /// Delivered after `extra_delay`, but out of order: the caller must
    /// hold the unit back and deliver it after its successor.
    Reordered {
        /// Additional queueing/jitter delay to apply.
        extra_delay: SimTime,
    },
    /// Delivered after `extra_delay` onto the wrong connection: the
    /// caller must corrupt the unit's addressing so it lands on a live
    /// foreign connection (for ATM cells: rewrite the VCI and restamp
    /// the HEC, modeling a header bit-flip pattern the HEC cannot
    /// catch).
    Misinserted {
        /// Additional queueing/jitter delay to apply.
        extra_delay: SimTime,
    },
}

/// A deterministic fault injector.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SimRng,
    /// Gilbert–Elliott channel currently in its Bad state.
    ge_bad: bool,
    drops: u64,
    burst_drops: u64,
    flap_drops: u64,
    corruptions: u64,
    duplicates: u64,
    reorders: u64,
    misinserts: u64,
    passed: u64,
}

impl FaultInjector {
    /// Create with the given config and seed.
    pub fn new(config: FaultConfig, rng: SimRng) -> FaultInjector {
        FaultInjector {
            config,
            rng,
            ge_bad: false,
            drops: 0,
            burst_drops: 0,
            flap_drops: 0,
            corruptions: 0,
            duplicates: 0,
            reorders: 0,
            misinserts: 0,
            passed: 0,
        }
    }

    /// True while the configured link flap holds the link down at `now`.
    pub fn link_down(&self, now: SimTime) -> bool {
        matches!(self.config.link_down, Some((down, up)) if down <= now && now < up)
    }

    /// Pass one unit through the injector at `now`, possibly mutating
    /// it. Fault order: link flap → burst loss → independent drop →
    /// delay (uniform jitter + deterministic skew) → corruption →
    /// misinsertion → reordering → duplication.
    pub fn apply(&mut self, now: SimTime, unit: &mut [u8]) -> FaultOutcome {
        if self.link_down(now) {
            self.flap_drops += 1;
            return FaultOutcome::Dropped;
        }
        if let Some(ge) = self.config.burst {
            if self.ge_bad {
                if self.rng.chance(ge.p_bad_to_good) {
                    self.ge_bad = false;
                }
            } else if self.rng.chance(ge.p_good_to_bad) {
                self.ge_bad = true;
            }
            let loss = if self.ge_bad { ge.loss_bad } else { ge.loss_good };
            if self.rng.chance(loss) {
                self.burst_drops += 1;
                return FaultOutcome::Dropped;
            }
        }
        if self.rng.chance(self.config.drop_probability) {
            self.drops += 1;
            return FaultOutcome::Dropped;
        }
        let jitter = if self.config.max_extra_delay == SimTime::ZERO {
            SimTime::ZERO
        } else {
            SimTime::from_ns(self.rng.below(self.config.max_extra_delay.as_ns() + 1))
        };
        let skew = self.config.delay_skew.map(|s| s.at(now)).unwrap_or(SimTime::ZERO);
        let extra_delay = jitter + skew;
        if !unit.is_empty() && self.rng.chance(self.config.corrupt_probability) {
            let bit = self.rng.below(unit.len() as u64 * 8);
            unit[(bit / 8) as usize] ^= 1 << (bit % 8);
            self.corruptions += 1;
            return FaultOutcome::Corrupted { extra_delay };
        }
        if self.rng.chance(self.config.misinsert_probability) {
            self.misinserts += 1;
            return FaultOutcome::Misinserted { extra_delay };
        }
        if self.rng.chance(self.config.reorder_probability) {
            self.reorders += 1;
            return FaultOutcome::Reordered { extra_delay };
        }
        if self.rng.chance(self.config.duplicate_probability) {
            let max = self.config.duplicate_burst_max.max(2);
            let copies = if max == 2 { 2 } else { 2 + self.rng.below(u64::from(max) - 1) as u32 };
            self.duplicates += u64::from(copies) - 1;
            return FaultOutcome::Duplicated { extra_delay, copies };
        }
        self.passed += 1;
        FaultOutcome::Delivered { extra_delay }
    }

    /// Units dropped by the independent (Bernoulli) loss so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Extra copies produced by duplication so far (a burst of `c`
    /// copies counts `c − 1`).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Units passed unmodified (and unduplicated) so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(config: FaultConfig) -> FaultInjector {
        FaultInjector::new(config, SimRng::new(1234))
    }

    #[test]
    fn no_faults_passes_everything() {
        let mut inj = injector(FaultConfig::none());
        let original = [1u8, 2, 3, 4];
        for _ in 0..1000 {
            let mut unit = original;
            assert_eq!(
                inj.apply(SimTime::ZERO, &mut unit),
                FaultOutcome::Delivered { extra_delay: SimTime::ZERO }
            );
            assert_eq!(unit, original);
        }
        assert_eq!(inj.passed(), 1000);
        assert_eq!(inj.drops(), 0);
    }

    #[test]
    fn drop_rate_converges() {
        let mut inj = injector(FaultConfig::drops(0.1));
        let n = 100_000;
        for _ in 0..n {
            let mut unit = [0u8; 53];
            inj.apply(SimTime::ZERO, &mut unit);
        }
        let rate = inj.drops() as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut inj = injector(FaultConfig::corruption(1.0));
        let original = [0u8; 53];
        let mut unit = original;
        match inj.apply(SimTime::ZERO, &mut unit) {
            FaultOutcome::Corrupted { .. } => {}
            other => panic!("expected corruption, got {other:?}"),
        }
        let flipped: u32 =
            unit.iter().zip(original.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn delay_bounded() {
        let cfg = FaultConfig { max_extra_delay: SimTime::from_ns(500), ..FaultConfig::none() };
        let mut inj = injector(cfg);
        let mut saw_nonzero = false;
        for _ in 0..1000 {
            let mut unit = [0u8; 10];
            if let FaultOutcome::Delivered { extra_delay } = inj.apply(SimTime::ZERO, &mut unit) {
                assert!(extra_delay <= SimTime::from_ns(500));
                saw_nonzero |= extra_delay > SimTime::ZERO;
            }
        }
        assert!(saw_nonzero);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let config = FaultConfig {
                max_extra_delay: SimTime::from_ns(100),
                ..FaultConfig::builder()
                    .drops(0.2)
                    .corruption(0.2)
                    .duplication(0.1)
                    .burst(GilbertElliott::bursty(0.05, 0.3))
                    .build()
            };
            let mut inj = FaultInjector::new(config, SimRng::new(77));
            let mut outcomes = Vec::new();
            for i in 0..500u32 {
                let mut unit = i.to_le_bytes();
                outcomes.push((inj.apply(SimTime::from_us(i as u64), &mut unit), unit));
            }
            outcomes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_unit_never_corrupted() {
        let mut inj = injector(FaultConfig::corruption(1.0));
        let mut unit: [u8; 0] = [];
        assert!(matches!(inj.apply(SimTime::ZERO, &mut unit), FaultOutcome::Delivered { .. }));
    }

    #[test]
    fn link_flap_loses_everything_in_window() {
        let cfg =
            FaultConfig::builder().link_flap(SimTime::from_ms(10), SimTime::from_ms(20)).build();
        let mut inj = injector(cfg);
        assert!(!inj.link_down(SimTime::from_ms(9)));
        assert!(inj.link_down(SimTime::from_ms(10)));
        assert!(inj.link_down(SimTime::from_ms(19)));
        assert!(!inj.link_down(SimTime::from_ms(20)));
        for ms in 0..30u64 {
            let mut unit = [0u8; 53];
            let outcome = inj.apply(SimTime::from_ms(ms), &mut unit);
            if (10..20).contains(&ms) {
                assert_eq!(outcome, FaultOutcome::Dropped);
            } else {
                assert!(matches!(outcome, FaultOutcome::Delivered { .. }));
            }
        }
        assert_eq!(inj.flap_drops, 10);
        assert_eq!(inj.drops(), 0, "flap drops are counted separately");
    }

    #[test]
    fn burst_loss_is_bursty_not_independent() {
        // Mean bad sojourn 1/0.25 = 4 units; overall loss ≈
        // p_gb/(p_gb+p_bg) ≈ 17%. Bernoulli loss at the same rate would
        // almost never produce runs of ≥ 4 consecutive drops at the
        // observed frequency.
        let cfg = FaultConfig::builder().burst(GilbertElliott::bursty(0.05, 0.25)).build();
        let mut inj = injector(cfg);
        let n = 100_000;
        let mut run = 0u32;
        let mut long_runs = 0u32;
        for _ in 0..n {
            let mut unit = [0u8; 53];
            match inj.apply(SimTime::ZERO, &mut unit) {
                FaultOutcome::Dropped => run += 1,
                _ => {
                    if run >= 4 {
                        long_runs += 1;
                    }
                    run = 0;
                }
            }
        }
        let rate = inj.burst_drops as f64 / n as f64;
        assert!((rate - 0.167).abs() < 0.05, "overall loss near p_gb/(p_gb+p_bg): {rate}");
        // ≈ p_gb · P(sojourn ≥ 4) · n ≈ 0.05·0.42·83k ≈ 1.7k runs.
        assert!(long_runs > 500, "bursts of ≥4 consecutive losses: {long_runs}");
    }

    #[test]
    fn duplication_emits_duplicated_outcome() {
        let cfg = FaultConfig::builder().duplication(1.0).build();
        let mut inj = injector(cfg);
        let mut unit = [7u8; 53];
        assert_eq!(
            inj.apply(SimTime::ZERO, &mut unit),
            FaultOutcome::Duplicated { extra_delay: SimTime::ZERO, copies: 2 }
        );
        assert_eq!(inj.duplicates(), 1);
        assert_eq!(unit, [7u8; 53], "duplicates are not corrupted");
    }

    #[test]
    fn duplication_bursts_stay_within_cap() {
        let cfg = FaultConfig::builder().duplication(1.0).duplication_burst(5).build();
        let mut inj = injector(cfg);
        let mut saw_burst = false;
        for _ in 0..500 {
            let mut unit = [7u8; 53];
            match inj.apply(SimTime::ZERO, &mut unit) {
                FaultOutcome::Duplicated { copies, .. } => {
                    assert!((2..=5).contains(&copies), "copies {copies}");
                    saw_burst |= copies > 2;
                }
                other => panic!("expected duplication, got {other:?}"),
            }
        }
        assert!(saw_burst, "a cap of 5 should produce some bursts above 2");
    }

    #[test]
    fn reordering_emits_reordered_outcome() {
        let cfg = FaultConfig::builder().reordering(0.5).build();
        let mut inj = injector(cfg);
        let mut reordered = 0u32;
        for _ in 0..1000 {
            let mut unit = [3u8; 53];
            match inj.apply(SimTime::ZERO, &mut unit) {
                FaultOutcome::Reordered { .. } => reordered += 1,
                FaultOutcome::Delivered { .. } => {}
                other => panic!("unexpected outcome {other:?}"),
            }
            assert_eq!(unit, [3u8; 53], "reordering never mutates the unit");
        }
        assert_eq!(u64::from(reordered), inj.reorders);
        assert!((400..600).contains(&reordered), "rate near 0.5: {reordered}");
    }

    #[test]
    fn misinsertion_emits_misinserted_outcome() {
        let cfg = FaultConfig::builder().misinsertion(1.0).build();
        let mut inj = injector(cfg);
        let mut unit = [9u8; 53];
        assert_eq!(
            inj.apply(SimTime::ZERO, &mut unit),
            FaultOutcome::Misinserted { extra_delay: SimTime::ZERO }
        );
        assert_eq!(unit, [9u8; 53], "the readdress is the caller's job");
        assert_eq!(inj.misinserts, 1);
    }

    #[test]
    fn delay_skew_is_a_sawtooth_of_time_only() {
        let cfg =
            FaultConfig::builder().delay_skew(SimTime::from_us(100), SimTime::from_us(10)).build();
        let mut inj = injector(cfg);
        let probe = |inj: &mut FaultInjector, now| {
            let mut unit = [0u8; 53];
            match inj.apply(now, &mut unit) {
                FaultOutcome::Delivered { extra_delay } => extra_delay,
                other => panic!("unexpected outcome {other:?}"),
            }
        };
        assert_eq!(probe(&mut inj, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(probe(&mut inj, SimTime::from_us(50)), SimTime::from_us(5));
        assert_eq!(probe(&mut inj, SimTime::from_us(99)), SimTime::from_ns(9900));
        // The sawtooth snaps back at each period boundary.
        assert_eq!(probe(&mut inj, SimTime::from_us(100)), SimTime::ZERO);
        assert_eq!(probe(&mut inj, SimTime::from_us(150)), SimTime::from_us(5));
    }

    #[test]
    fn deterministic_with_extended_faults() {
        let run = || {
            let config = FaultConfig {
                max_extra_delay: SimTime::from_ns(100),
                ..FaultConfig::builder()
                    .drops(0.1)
                    .corruption(0.1)
                    .duplication(0.1)
                    .duplication_burst(4)
                    .reordering(0.1)
                    .misinsertion(0.05)
                    .delay_skew(SimTime::from_us(10), SimTime::from_ns(400))
                    .burst(GilbertElliott::bursty(0.05, 0.3))
                    .build()
            };
            let mut inj = FaultInjector::new(config, SimRng::new(99));
            let mut outcomes = Vec::new();
            for i in 0..500u32 {
                let mut unit = i.to_le_bytes();
                outcomes.push((inj.apply(SimTime::from_us(i as u64), &mut unit), unit));
            }
            (outcomes, inj.reorders, inj.misinserts, inj.duplicates())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn builder_composes_all_faults() {
        let cfg = FaultConfig::builder()
            .drops(0.1)
            .corruption(0.2)
            .duplication(0.3)
            .duplication_burst(4)
            .reordering(0.05)
            .misinsertion(0.02)
            .delay_skew(SimTime::from_ms(1), SimTime::from_us(5))
            .burst(GilbertElliott::bursty(0.01, 0.5))
            .link_flap(SimTime::from_ms(1), SimTime::from_ms(2))
            .build();
        assert_eq!(cfg.drop_probability, 0.1);
        assert_eq!(cfg.corrupt_probability, 0.2);
        assert_eq!(cfg.duplicate_probability, 0.3);
        assert_eq!(cfg.duplicate_burst_max, 4);
        assert_eq!(cfg.reorder_probability, 0.05);
        assert_eq!(cfg.misinsert_probability, 0.02);
        assert_eq!(
            cfg.delay_skew,
            Some(DelaySkew { period: SimTime::from_ms(1), magnitude: SimTime::from_us(5) })
        );
        assert_eq!(cfg.burst, Some(GilbertElliott::bursty(0.01, 0.5)));
        assert_eq!(cfg.link_down, Some((SimTime::from_ms(1), SimTime::from_ms(2))));
    }
}
