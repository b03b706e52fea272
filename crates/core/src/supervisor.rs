//! Connection supervisor: watchdogs and retry/backoff for congram
//! setup through ATM signaling.
//!
//! Congrams are plesio-reliable (§2.4): the network promises a very low
//! — but nonzero — failure rate, and recovery from the failures that do
//! happen is a connection-management job, not a data-path one. The
//! paper leaves that machinery to the NPE's software ("connection,
//! resource, and route management", §4.2); this module is that
//! machinery for the setup path:
//!
//! * every [`NpeAction::RequestAtmConnection`] the NPE emits is put
//!   under a **setup watchdog** — if neither a `ConnectionUp` nor a
//!   `Rejected` indication arrives before the deadline, the attempt is
//!   presumed lost (signaling messages travel the same lossy network as
//!   data);
//! * a failed or timed-out attempt moves the congram to **backoff**:
//!   exponentially growing, deterministically jittered delays keep
//!   retries from synchronizing across congrams;
//! * a bounded **retry budget** caps the attempts; once exhausted the
//!   congram is failed and the requester receives a `SetupReject`;
//! * attempt numbers never restart for a congram: a re-establishment
//!   (§2.4) continues where its last setup stopped, so a late answer to
//!   an earlier setup's attempt matches none of the new one's. The
//!   budget and the backoff count from the re-establishment's first
//!   attempt.
//!
//! The supervisor is a passive table — the NPE drives it from
//! `Npe::scan` and translates its events into actions.
//!
//! [`NpeAction::RequestAtmConnection`]: crate::npe::NpeAction::RequestAtmConnection

use gw_mchip::congram::CongramId;
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;
use std::collections::HashMap;

/// Tunables for the connection supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// How long one signaling attempt may remain unanswered before the
    /// watchdog presumes it lost.
    pub setup_watchdog: SimTime,
    /// Retries allowed after the initial attempt. `0` reproduces the
    /// legacy behaviour: the first failure rejects the setup.
    pub retry_budget: u32,
    /// Backoff before retry `n` is `base << (n-1)`, capped at
    /// [`SupervisorConfig::backoff_max`], plus jitter.
    pub backoff_base: SimTime,
    /// Upper bound on the exponential backoff delay (pre-jitter).
    pub backoff_max: SimTime,
    /// Seed for the deterministic jitter stream (up to 25% of the
    /// delay is added so retries desynchronize across congrams).
    pub jitter_seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            setup_watchdog: SimTime::from_ms(5),
            retry_budget: 3,
            backoff_base: SimTime::from_ms(2),
            backoff_max: SimTime::from_ms(50),
            jitter_seed: 0x1991,
        }
    }
}

impl SupervisorConfig {
    /// The legacy no-retry policy: the first signaling failure rejects
    /// the setup immediately and no watchdog fires.
    pub(crate) fn disabled() -> SupervisorConfig {
        SupervisorConfig { retry_budget: 0, ..Default::default() }
    }
}

/// Where a supervised congram setup currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupPhase {
    /// An attempt is in flight; the watchdog fires at `deadline`.
    Establishing {
        /// When the watchdog presumes the attempt lost.
        deadline: SimTime,
    },
    /// Waiting out the backoff delay before the next attempt.
    Backoff {
        /// When the next attempt is due.
        until: SimTime,
    },
}

/// Supervision record for one congram setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Current phase.
    pub phase: SetupPhase,
    /// Number of the current/most recent attempt: 1 for a congram's
    /// first setup, continuing across re-establishments.
    pub attempt: u32,
    /// Number of this setup's first attempt; `attempt - first + 1` is
    /// the ordinal the budget and the backoff count.
    pub first: u32,
    /// True once at least one attempt failed — the congram is running
    /// degraded (late, but not yet given up on).
    pub degraded: bool,
}

/// What the supervisor wants done, from [`ConnectionSupervisor::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// Backoff elapsed: re-issue the signaling request, as the numbered
    /// attempt.
    Retry(CongramId, u32),
    /// Retry budget exhausted: fail the setup toward the requester.
    GiveUp(CongramId),
}

/// What to do about an explicit signaling failure
/// ([`ConnectionSupervisor::fail`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailVerdict {
    /// A retry is scheduled at the contained time; keep the congram.
    Backoff(SimTime),
    /// Budget exhausted (or the congram was never supervised): fail it.
    GiveUp,
    /// The rejection answers an attempt a later one has replaced:
    /// ignore it.
    Stale,
}

/// Supervisor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Watchdog deadlines that fired (attempt presumed lost).
    pub watchdog_fires: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Setups abandoned after exhausting the budget.
    pub failures: u64,
}

/// The supervisor table: per-congram watchdog + backoff state.
#[derive(Debug)]
pub struct ConnectionSupervisor {
    config: SupervisorConfig,
    entries: HashMap<CongramId, Supervision>,
    /// The confirmed attempt of each congram whose setup has ended, so
    /// a re-establishment continues the numbering. Dropped on `cancel`.
    last_confirmed: HashMap<CongramId, u32>,
    jitter: SimRng,
    stats: SupervisorStats,
}

impl ConnectionSupervisor {
    /// A supervisor with the given policy.
    pub fn new(config: SupervisorConfig) -> ConnectionSupervisor {
        ConnectionSupervisor {
            jitter: SimRng::new(config.jitter_seed),
            config,
            entries: HashMap::new(),
            last_confirmed: HashMap::new(),
            stats: SupervisorStats::default(),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Replace the policy (only sensible before any entry exists).
    pub(crate) fn set_config(&mut self, config: SupervisorConfig) {
        self.jitter = SimRng::new(config.jitter_seed);
        self.config = config;
    }

    /// Start supervising a congram's setup (or re-establishment), and
    /// return the number its first signaling attempt carries: one past
    /// the congram's last attempt, or 1.
    pub fn begin(&mut self, now: SimTime, congram: CongramId) -> u32 {
        let last = self.entries.get(&congram).map(|e| e.attempt);
        let first = last.or(self.last_confirmed.get(&congram).copied()).map_or(1, |n| n + 1);
        self.entries.insert(
            congram,
            Supervision {
                phase: SetupPhase::Establishing { deadline: now + self.config.setup_watchdog },
                attempt: first,
                first,
                degraded: false,
            },
        );
        first
    }

    /// Signaling succeeded for the numbered attempt. Returns false when
    /// the congram was not under supervision or is on another attempt —
    /// a stale or duplicate indication the caller must ignore.
    pub(crate) fn confirmed(&mut self, congram: CongramId, attempt: u32) -> bool {
        if self.entries.get(&congram).is_some_and(|e| e.attempt == attempt) {
            self.entries.remove(&congram);
            self.last_confirmed.insert(congram, attempt);
            true
        } else {
            false
        }
    }

    /// Stop supervising without judgement (congram torn down).
    pub fn cancel(&mut self, congram: CongramId) {
        self.entries.remove(&congram);
        self.last_confirmed.remove(&congram);
    }

    /// An explicit signaling rejection arrived for the numbered attempt.
    /// Only the congram's current attempt counts.
    pub fn fail(&mut self, now: SimTime, congram: CongramId, attempt: u32) -> FailVerdict {
        let Some(&Supervision { attempt: current, first, .. }) = self.entries.get(&congram) else {
            return FailVerdict::GiveUp;
        };
        if attempt != current {
            return FailVerdict::Stale;
        }
        let ordinal = attempt - first + 1;
        if ordinal > self.config.retry_budget {
            self.entries.remove(&congram);
            self.stats.failures += 1;
            return FailVerdict::GiveUp;
        }
        let until = now + self.backoff_delay(ordinal);
        let entry = self.entries.get_mut(&congram).expect("checked above");
        entry.phase = SetupPhase::Backoff { until };
        entry.degraded = true;
        FailVerdict::Backoff(until)
    }

    /// Exponential backoff with deterministic additive jitter for the
    /// retry following the setup's failed attempt `ordinal` (1-based).
    fn backoff_delay(&mut self, ordinal: u32) -> SimTime {
        backoff_delay(&self.config, ordinal, &mut self.jitter)
    }

    /// Advance watchdog and backoff timers to `now`.
    pub fn poll(&mut self, now: SimTime) -> Vec<SupervisorEvent> {
        // Nothing supervised (the steady-state data path) costs nothing.
        if self.entries.is_empty() {
            return Vec::new();
        }
        let mut ids: Vec<CongramId> = self.entries.keys().copied().collect();
        ids.sort();
        let mut events = Vec::new();
        for id in ids {
            // One entry can chain Establishing → Backoff → Retry within
            // a single (coarse) poll; loop until it settles.
            while let Some(entry) = self.entries.get_mut(&id) {
                match entry.phase {
                    SetupPhase::Establishing { deadline } if deadline <= now => {
                        // Watchdog: the attempt is presumed lost in the
                        // network; treat exactly like a rejection.
                        self.stats.watchdog_fires += 1;
                        let ordinal = entry.attempt - entry.first + 1;
                        if ordinal > self.config.retry_budget {
                            self.entries.remove(&id);
                            self.stats.failures += 1;
                            events.push(SupervisorEvent::GiveUp(id));
                            break;
                        }
                        let until = deadline + self.backoff_delay(ordinal);
                        let entry = self.entries.get_mut(&id).expect("still present");
                        entry.phase = SetupPhase::Backoff { until };
                        entry.degraded = true;
                    }
                    SetupPhase::Backoff { until } if until <= now => {
                        entry.attempt += 1;
                        entry.phase = SetupPhase::Establishing {
                            deadline: until + self.config.setup_watchdog,
                        };
                        self.stats.retries += 1;
                        events.push(SupervisorEvent::Retry(id, entry.attempt));
                        break;
                    }
                    _ => break,
                }
            }
        }
        events
    }

    /// Earliest pending watchdog or backoff deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.entries
            .values()
            .map(|e| match e.phase {
                SetupPhase::Establishing { deadline } => deadline,
                SetupPhase::Backoff { until } => until,
            })
            .min()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }
}

/// The backoff schedule itself, as a free function: exponential in the
/// 1-based `attempt` number (`base << (attempt-1)`), capped at
/// [`SupervisorConfig::backoff_max`], plus up to 25% deterministic
/// jitter drawn from `jitter`. Shared by the congram-setup supervisor
/// above and the appliance transport supervisor (`gw-phy`), so a
/// socket reconnect and a signaling retry follow the same policy.
pub fn backoff_delay(config: &SupervisorConfig, attempt: u32, jitter: &mut SimRng) -> SimTime {
    let shift = attempt.saturating_sub(1).min(20);
    let raw = config.backoff_base.as_ns().saturating_shl(shift);
    let capped = raw.min(config.backoff_max.as_ns());
    let jitter = jitter.below(capped / 4 + 1);
    SimTime::from_ns(capped + jitter)
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: CongramId = CongramId(1);

    fn sup(budget: u32) -> ConnectionSupervisor {
        ConnectionSupervisor::new(SupervisorConfig {
            setup_watchdog: SimTime::from_ms(5),
            retry_budget: budget,
            backoff_base: SimTime::from_ms(2),
            backoff_max: SimTime::from_ms(16),
            jitter_seed: 9,
        })
    }

    #[test]
    fn confirm_removes_entry_and_flags_stale_duplicates() {
        let mut s = sup(3);
        s.begin(SimTime::ZERO, C);
        assert!(!s.confirmed(C, 2), "no attempt 2 was issued");
        assert!(s.confirmed(C, 1));
        assert!(!s.confirmed(C, 1), "second indication is stale");
        assert!(s.poll(SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn zero_budget_reproduces_immediate_failure() {
        let mut s = sup(0);
        s.begin(SimTime::ZERO, C);
        assert_eq!(s.fail(SimTime::from_ms(1), C, 1), FailVerdict::GiveUp);
        assert_eq!(s.stats().failures, 1);
        assert!(!s.entries.contains_key(&C));
    }

    #[test]
    fn watchdog_fires_then_retries_then_gives_up() {
        let mut s = sup(2);
        s.begin(SimTime::ZERO, C);
        // Nothing before the watchdog deadline.
        assert!(s.poll(SimTime::from_ms(4)).is_empty());
        let mut retries = 0;
        let mut gave_up = false;
        let mut t = SimTime::from_ms(4);
        // Never answer; drive time forward until the supervisor quits.
        for _ in 0..200 {
            t += SimTime::from_ms(1);
            for ev in s.poll(t) {
                match ev {
                    SupervisorEvent::Retry(id, attempt) => {
                        assert_eq!(id, C);
                        retries += 1;
                        assert_eq!(attempt, retries + 1);
                    }
                    SupervisorEvent::GiveUp(id) => {
                        assert_eq!(id, C);
                        gave_up = true;
                    }
                }
            }
            if gave_up {
                break;
            }
        }
        assert_eq!(retries, 2, "budget of 2 retries");
        assert!(gave_up);
        assert_eq!(s.stats().watchdog_fires, 3, "initial + both retries timed out");
        assert!(!s.entries.contains_key(&C));
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let mut s = sup(10);
        let d1 = s.backoff_delay(1);
        let d2 = s.backoff_delay(2);
        let d9 = s.backoff_delay(9);
        assert!(d1 >= SimTime::from_ms(2));
        assert!(d1 <= SimTime::from_ms(2) + SimTime::from_us(500), "jitter ≤ 25%");
        assert!(d2 >= SimTime::from_ms(4));
        // Capped at 16 ms + 25% jitter.
        assert!(d9 <= SimTime::from_ms(20));
    }

    #[test]
    fn explicit_rejection_schedules_backoff() {
        let mut s = sup(1);
        s.begin(SimTime::ZERO, C);
        let FailVerdict::Backoff(until) = s.fail(SimTime::from_ms(1), C, 1) else {
            panic!("first failure must back off");
        };
        assert!(until >= SimTime::from_ms(3));
        // The retry fires once the backoff elapses.
        let evs = s.poll(until);
        assert_eq!(evs, vec![SupervisorEvent::Retry(C, 2)]);
        assert!(matches!(s.entries[&C].phase, SetupPhase::Establishing { .. }));
        assert!(s.entries[&C].degraded);
        // The first attempt's rejection again, late: stale.
        assert_eq!(s.fail(until, C, 1), FailVerdict::Stale);
        assert!(matches!(s.entries[&C].phase, SetupPhase::Establishing { .. }));
        // Second explicit failure exhausts the budget of 1.
        assert_eq!(s.fail(until + SimTime::from_ms(1), C, 2), FailVerdict::GiveUp);
    }

    #[test]
    fn next_deadline_tracks_earliest_timer() {
        let mut s = sup(3);
        assert_eq!(s.next_deadline(), None);
        s.begin(SimTime::ZERO, C);
        s.begin(SimTime::from_ms(1), CongramId(2));
        assert_eq!(s.next_deadline(), Some(SimTime::from_ms(5)));
    }

    #[test]
    fn deterministic_for_a_seed() {
        let run = || {
            let mut s = sup(3);
            s.begin(SimTime::ZERO, C);
            let mut log = Vec::new();
            for ms in 1..100 {
                log.extend(s.poll(SimTime::from_ms(ms)));
            }
            (log, s.stats())
        };
        assert_eq!(run(), run());
    }
}
