//! Per-port transport supervision: backoff/retry for socket errors.
//!
//! Reuses the congram-setup backoff policy
//! ([`gw_gateway::supervisor::backoff_delay`]) — exponential in the
//! attempt number, capped, deterministically jittered — with one
//! deliberate difference: the setup supervisor's retry budget bounds
//! *attempts* (a congram the network keeps rejecting is eventually
//! failed toward its requester), while an appliance port is never
//! abandoned. Here the budget only caps the *exponent*: once attempts
//! exceed it, retries keep firing at the maximum backoff forever. An
//! operator unplugging a cable for an hour expects the daemon to
//! reconnect when it comes back, not to have given up at attempt four.

use gw_gateway::supervisor::{backoff_delay, SupervisorConfig};
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;

/// Where one port's transport currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    /// Transport healthy.
    Up,
    /// Transport down; next reconnect attempt due at `until`.
    Backoff {
        /// 1-based number of the attempt that will fire at `until`.
        attempt: u32,
        /// When that attempt is due.
        until: SimTime,
    },
}

/// Counters the supervisor maintains (mirrored into the mgmt port
/// health by the appliance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSupervisorStats {
    /// Transport errors observed while the link was up (each starts a
    /// backoff cycle).
    pub errors: u64,
    /// Reconnect attempts issued.
    pub retries: u64,
    /// Successful recoveries (link came back).
    pub reconnects: u64,
}

/// What [`TransportSupervisor::poll`] wants done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// Backoff elapsed: attempt to re-establish the transport now.
    Retry {
        /// 1-based attempt number.
        attempt: u32,
    },
}

/// Backoff/retry state machine for one port's transport.
#[derive(Debug)]
pub struct TransportSupervisor {
    config: SupervisorConfig,
    jitter: SimRng,
    state: LinkState,
    stats: TransportSupervisorStats,
}

impl TransportSupervisor {
    /// A supervisor with the given (shared) backoff policy.
    pub fn new(config: SupervisorConfig) -> TransportSupervisor {
        TransportSupervisor {
            jitter: SimRng::new(config.jitter_seed),
            config,
            state: LinkState::Up,
            stats: TransportSupervisorStats::default(),
        }
    }

    /// True while the transport is believed healthy.
    pub(crate) fn is_up(&self) -> bool {
        self.state == LinkState::Up
    }

    /// A transport operation failed. Enters backoff (first attempt due
    /// after the base delay) and returns when the first retry is due;
    /// `None` when already backing off (the error changes nothing).
    pub fn error(&mut self, now: SimTime) -> Option<SimTime> {
        match self.state {
            LinkState::Up => {
                self.stats.errors += 1;
                let until = now + backoff_delay(&self.config, 1, &mut self.jitter);
                self.state = LinkState::Backoff { attempt: 1, until };
                Some(until)
            }
            LinkState::Backoff { .. } => None,
        }
    }

    /// Fire due retries. On `Retry`, the caller attempts
    /// `reconnect()+pump()`; success is reported via
    /// `TransportSupervisor::recovered`, failure needs nothing — the
    /// next attempt is already scheduled (exponent capped at
    /// `retry_budget + 1`, so the cadence settles at `backoff_max`).
    pub fn poll(&mut self, now: SimTime) -> Option<TransportEvent> {
        let LinkState::Backoff { attempt, until } = self.state else {
            return None;
        };
        if now < until {
            return None;
        }
        self.stats.retries += 1;
        let next_attempt = attempt.saturating_add(1).min(self.config.retry_budget + 1);
        let next_until = now + backoff_delay(&self.config, next_attempt, &mut self.jitter);
        self.state = LinkState::Backoff { attempt: next_attempt, until: next_until };
        Some(TransportEvent::Retry { attempt })
    }

    /// The transport is confirmed working again.
    pub(crate) fn recovered(&mut self) {
        if !self.is_up() {
            self.stats.reconnects += 1;
            self.state = LinkState::Up;
        }
    }

    /// The next scheduled retry, while down.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match self.state {
            LinkState::Up => None,
            LinkState::Backoff { until, .. } => Some(until),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TransportSupervisorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup() -> TransportSupervisor {
        TransportSupervisor::new(SupervisorConfig {
            setup_watchdog: SimTime::from_ms(5),
            retry_budget: 3,
            backoff_base: SimTime::from_ms(2),
            backoff_max: SimTime::from_ms(16),
            jitter_seed: 42,
        })
    }

    #[test]
    fn error_schedules_first_retry_after_base_backoff() {
        let mut s = sup();
        assert!(s.is_up());
        let until = s.error(SimTime::from_ms(10)).unwrap();
        assert!(until >= SimTime::from_ms(12), "base 2 ms");
        assert!(until <= SimTime::from_ms(13), "25% jitter cap");
        assert!(!s.is_up());
        assert!(s.error(SimTime::from_ms(11)).is_none(), "already down");
        assert_eq!(s.stats().errors, 1);
    }

    #[test]
    fn retries_grow_then_plateau_at_backoff_max_forever() {
        let mut s = sup();
        s.error(SimTime::ZERO);
        let mut t = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..12 {
            let due = s.next_deadline().unwrap();
            assert!(s.poll(due - SimTime::from_ns(1)).is_none(), "not before the deadline");
            assert!(matches!(s.poll(due), Some(TransportEvent::Retry { .. })));
            gaps.push((s.next_deadline().unwrap() - due).as_ns());
            t = due;
        }
        let _ = t;
        // 2, 4, 8, 16, 16, 16, ... ms (each plus <= 25% jitter).
        assert!(gaps[0] >= 4_000_000 && gaps[0] <= 5_000_000, "attempt 2: 4 ms, got {}", gaps[0]);
        assert!(gaps[1] >= 8_000_000 && gaps[1] <= 10_000_000, "attempt 3: 8 ms");
        for g in &gaps[2..] {
            assert!(*g >= 16_000_000 && *g <= 20_000_000, "plateau at max, got {g}");
        }
        assert_eq!(s.stats().retries, 12, "never gives up");
    }

    #[test]
    fn recovery_counts_and_resets_the_schedule() {
        let mut s = sup();
        s.error(SimTime::ZERO);
        s.poll(s.next_deadline().unwrap());
        s.recovered();
        assert!(s.is_up());
        assert_eq!(s.stats().reconnects, 1);
        assert_eq!(s.next_deadline(), None);
        // A fresh error starts over at the base delay.
        let until = s.error(SimTime::from_secs(1)).unwrap();
        assert!(until - SimTime::from_secs(1) <= SimTime::from_ms(3));
    }
}
