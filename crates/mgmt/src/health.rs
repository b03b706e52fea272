//! SMT-inspired per-port health reporting.
//!
//! FDDI's station management (SMT) continuously grades link health from
//! error counters and isolates misbehaving stations; this module
//! applies the same idea to the gateway's two ports. Error events
//! (sheds, drops, liveness quarantines) are tallied into fixed
//! evaluation windows, and a per-port state machine moves between
//! [`PortState::Up`], [`PortState::Degraded`], and
//! [`PortState::Isolated`] with hysteresis: escalation is immediate at
//! a window close, de-escalation needs several consecutive clean
//! windows, so a flapping link cannot oscillate the reported state.
//!
//! Appliance mode adds an orthogonal [`PortState::Reconnecting`] state
//! driven not by error-rate windows but by explicit transport events
//! (socket errors, link flaps): while a port's transport is down the
//! window machinery is suspended, and the way back runs through
//! [`PortState::Degraded`] so a freshly reconnected port still has to
//! earn `Up` through clean windows.

use gw_sim::SimTime;

/// A gateway port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// The ATM (SONET/STS-3c) side.
    Atm,
    /// The FDDI ring side.
    Fddi,
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Port::Atm => "atm",
            Port::Fddi => "fddi",
        })
    }
}

/// Health grade of one port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PortState {
    /// Nominal.
    Up,
    /// Error rate above the degrade threshold; still forwarding.
    Degraded,
    /// The port's transport is down and a supervised reconnect is in
    /// progress (appliance mode: socket error or link flap). Entered
    /// and left only through the explicit transport hooks
    /// ([`HealthReporter::note_transport_down`] /
    /// [`HealthReporter::note_transport_up`]); window evaluation is
    /// suspended while reconnecting — error-rate grading of a port
    /// with no transport under it is meaningless.
    Reconnecting,
    /// Error rate above the isolate threshold; operator attention
    /// needed (SMT would remove the station from the ring).
    Isolated,
}

impl PortState {
    /// Stable lower-case name used in snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            PortState::Up => "up",
            PortState::Degraded => "degraded",
            PortState::Reconnecting => "reconnecting",
            PortState::Isolated => "isolated",
        }
    }
}

impl std::fmt::Display for PortState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Length of one evaluation window.
const WINDOW: SimTime = SimTime::from_ms(1);
/// Errors in one window that degrade an Up port.
const DEGRADE_THRESHOLD: u64 = 8;
/// Errors in one window that isolate a port.
const ISOLATE_THRESHOLD: u64 = 64;
/// Consecutive clean windows needed to step down one level.
const RECOVERY_WINDOWS: u32 = 3;

/// Health bookkeeping for one port.
#[derive(Debug, Clone, Copy)]
pub struct PortHealth {
    /// Current grade.
    pub state: PortState,
    /// Errors tallied in the window now open.
    pub window_errors: u64,
    /// Consecutive clean windows observed so far.
    pub clean_windows: u32,
    /// Lifetime error total.
    pub errors_total: u64,
    /// Lifetime state transitions.
    pub transitions: u64,
    /// Completed transport reconnections (appliance mode: each time a
    /// downed port came back).
    pub reconnects: u64,
    /// Backoff-scheduled reconnect attempts issued while the port's
    /// transport was down.
    pub backoff_retries: u64,
}

impl PortHealth {
    fn new() -> PortHealth {
        PortHealth {
            state: PortState::Up,
            window_errors: 0,
            clean_windows: 0,
            errors_total: 0,
            transitions: 0,
            reconnects: 0,
            backoff_retries: 0,
        }
    }
}

/// A state transition reported by [`HealthReporter::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Which port changed.
    pub port: Port,
    /// Previous state.
    pub from: PortState,
    /// New state.
    pub to: PortState,
}

/// The per-port health state machines.
#[derive(Debug, Clone)]
pub struct HealthReporter {
    atm: PortHealth,
    fddi: PortHealth,
    window_start: SimTime,
}

impl Default for HealthReporter {
    /// Both ports Up, first window opening at time zero.
    fn default() -> HealthReporter {
        HealthReporter {
            atm: PortHealth::new(),
            fddi: PortHealth::new(),
            window_start: SimTime::ZERO,
        }
    }
}

impl HealthReporter {
    fn port_mut(&mut self, port: Port) -> &mut PortHealth {
        match port {
            Port::Atm => &mut self.atm,
            Port::Fddi => &mut self.fddi,
        }
    }

    /// Tally one error event against `port`.
    #[inline]
    pub fn note_error(&mut self, port: Port) {
        let p = self.port_mut(port);
        p.window_errors += 1;
        p.errors_total += 1;
    }

    /// Close every window that has elapsed by `now` and return the
    /// state transitions (at most one per port — intermediate windows
    /// collapse into the final verdict).
    pub fn advance(&mut self, now: SimTime) -> [Option<HealthTransition>; 2] {
        let before = [self.atm.state, self.fddi.state];
        while now >= self.window_start + WINDOW {
            self.window_start += WINDOW;
            for port in [Port::Atm, Port::Fddi] {
                let p = self.port_mut(port);
                let errors = p.window_errors;
                p.window_errors = 0;
                // A reconnecting port has no transport under it: its
                // windows neither escalate nor recover. The transport
                // hooks are the only way in or out of that state.
                if p.state == PortState::Reconnecting {
                    p.clean_windows = 0;
                    continue;
                }
                let next = if errors >= ISOLATE_THRESHOLD {
                    p.clean_windows = 0;
                    PortState::Isolated
                } else if errors >= DEGRADE_THRESHOLD {
                    p.clean_windows = 0;
                    // A noisy window holds an Isolated port down.
                    p.state.max(PortState::Degraded)
                } else {
                    p.clean_windows += 1;
                    if p.clean_windows >= RECOVERY_WINDOWS && p.state != PortState::Up {
                        p.clean_windows = 0;
                        match p.state {
                            PortState::Isolated => PortState::Degraded,
                            _ => PortState::Up,
                        }
                    } else {
                        p.state
                    }
                };
                if next != p.state {
                    p.state = next;
                    p.transitions += 1;
                }
            }
        }
        let mut out = [None, None];
        for (i, port) in [Port::Atm, Port::Fddi].into_iter().enumerate() {
            let after = self.port(port).state;
            if after != before[i] {
                out[i] = Some(HealthTransition { port, from: before[i], to: after });
            }
        }
        out
    }

    /// The port's transport went down (socket error, link flap): enter
    /// [`PortState::Reconnecting`] and hand supervision to the
    /// transport layer. Counts as one error toward the lifetime total.
    /// Returns the transition when the state actually changed.
    pub fn note_transport_down(&mut self, port: Port) -> Option<HealthTransition> {
        let p = self.port_mut(port);
        p.errors_total += 1;
        if p.state == PortState::Reconnecting {
            return None;
        }
        let from = p.state;
        p.state = PortState::Reconnecting;
        p.clean_windows = 0;
        p.transitions += 1;
        Some(HealthTransition { port, from, to: PortState::Reconnecting })
    }

    /// A supervised reconnect attempt was issued for the downed port.
    pub fn note_backoff_retry(&mut self, port: Port) {
        self.port_mut(port).backoff_retries += 1;
    }

    /// The port's transport came back. Re-enter at
    /// [`PortState::Degraded`] — a port that just flapped is not
    /// trusted as nominal; the ordinary recovery hysteresis (clean
    /// windows) earns it the way back to [`PortState::Up`].
    pub fn note_transport_up(&mut self, port: Port) -> Option<HealthTransition> {
        let p = self.port_mut(port);
        if p.state != PortState::Reconnecting {
            return None;
        }
        p.state = PortState::Degraded;
        p.clean_windows = 0;
        p.window_errors = 0;
        p.transitions += 1;
        p.reconnects += 1;
        Some(HealthTransition { port, from: PortState::Reconnecting, to: PortState::Degraded })
    }

    /// Health of one port.
    pub fn port(&self, port: Port) -> &PortHealth {
        match port {
            Port::Atm => &self.atm,
            Port::Fddi => &self.fddi,
        }
    }
}

/// A point-in-time health summary for `Gateway::health()`.
#[derive(Debug, Clone, Copy)]
pub struct GatewayHealth {
    /// ATM-side port health.
    pub atm: PortHealth,
    /// FDDI-side port health.
    pub fddi: PortHealth,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end of evaluation window `n` (window 1 closes at [`WINDOW`]).
    fn window(n: u64) -> SimTime {
        SimTime::from_ns(WINDOW.as_ns() * n)
    }

    fn errors(h: &mut HealthReporter, port: Port, n: u64) {
        for _ in 0..n {
            h.note_error(port);
        }
    }

    #[test]
    fn quiet_port_stays_up() {
        let mut h = HealthReporter::default();
        let t = h.advance(window(10));
        assert_eq!(t, [None, None]);
        assert_eq!(h.port(Port::Atm).state, PortState::Up);
    }

    #[test]
    fn degrade_then_isolate() {
        let mut h = HealthReporter::default();
        errors(&mut h, Port::Atm, DEGRADE_THRESHOLD + 1);
        let t = h.advance(window(1));
        assert_eq!(
            t[0],
            Some(HealthTransition {
                port: Port::Atm,
                from: PortState::Up,
                to: PortState::Degraded
            })
        );
        assert_eq!(h.port(Port::Fddi).state, PortState::Up);
        errors(&mut h, Port::Atm, ISOLATE_THRESHOLD + 4);
        let t = h.advance(window(2));
        assert_eq!(t[0].unwrap().to, PortState::Isolated);
        assert_eq!(h.port(Port::Atm).errors_total, DEGRADE_THRESHOLD + ISOLATE_THRESHOLD + 5);
    }

    #[test]
    fn recovery_needs_consecutive_clean_windows_and_steps_down() {
        let r = u64::from(RECOVERY_WINDOWS);
        let mut h = HealthReporter::default();
        errors(&mut h, Port::Fddi, ISOLATE_THRESHOLD);
        h.advance(window(1));
        assert_eq!(h.port(Port::Fddi).state, PortState::Isolated);
        // Fewer clean windows than the hysteresis asks for are not enough.
        for w in 2..1 + r {
            h.advance(window(w));
            assert_eq!(h.port(Port::Fddi).state, PortState::Isolated);
        }
        // The last one steps Isolated -> Degraded (one step, not to Up).
        let t = h.advance(window(1 + r));
        assert_eq!(t[1].unwrap().to, PortState::Degraded);
        // As many clean windows again: Degraded -> Up.
        for w in 2 + r..1 + 2 * r {
            h.advance(window(w));
        }
        let t = h.advance(window(1 + 2 * r));
        assert_eq!(t[1].unwrap().to, PortState::Up);
    }

    #[test]
    fn noisy_window_resets_recovery_hysteresis() {
        let r = u64::from(RECOVERY_WINDOWS);
        let mut h = HealthReporter::default();
        errors(&mut h, Port::Atm, DEGRADE_THRESHOLD + 1);
        h.advance(window(1));
        assert_eq!(h.port(Port::Atm).state, PortState::Degraded);
        // clean, noisy, then clean windows: the noisy one restarts the count.
        h.advance(window(2));
        errors(&mut h, Port::Atm, DEGRADE_THRESHOLD + 1);
        h.advance(window(3));
        for w in 4..3 + r {
            h.advance(window(w));
            assert_eq!(h.port(Port::Atm).state, PortState::Degraded, "too few clean after noise");
        }
        h.advance(window(3 + r));
        assert_eq!(h.port(Port::Atm).state, PortState::Up);
    }

    #[test]
    fn transport_down_enters_reconnecting_and_freezes_windows() {
        let mut h = HealthReporter::default();
        let t = h.note_transport_down(Port::Atm).unwrap();
        assert_eq!(t.from, PortState::Up);
        assert_eq!(t.to, PortState::Reconnecting);
        assert!(h.note_transport_down(Port::Atm).is_none(), "already reconnecting");
        assert_eq!(h.port(Port::Atm).errors_total, 2, "each down event still tallied");
        // Window evaluation is suspended: neither noise nor quiet moves
        // the state while the transport is down.
        errors(&mut h, Port::Atm, 2 * ISOLATE_THRESHOLD);
        assert_eq!(h.advance(window(10)), [None, None]);
        assert_eq!(h.port(Port::Atm).state, PortState::Reconnecting);
        assert_eq!(h.port(Port::Atm).clean_windows, 0);
    }

    #[test]
    fn transport_up_reenters_degraded_and_counts_reconnects() {
        let mut h = HealthReporter::default();
        h.note_transport_down(Port::Fddi);
        h.note_backoff_retry(Port::Fddi);
        h.note_backoff_retry(Port::Fddi);
        let t = h.note_transport_up(Port::Fddi).unwrap();
        assert_eq!(t.from, PortState::Reconnecting);
        assert_eq!(t.to, PortState::Degraded);
        assert_eq!(h.port(Port::Fddi).reconnects, 1);
        assert_eq!(h.port(Port::Fddi).backoff_retries, 2);
        assert!(h.note_transport_up(Port::Fddi).is_none(), "already up");
        // Clean windows recover Degraded -> Up as usual.
        let r = u64::from(RECOVERY_WINDOWS);
        for w in 1..r {
            h.advance(window(w));
        }
        let t = h.advance(window(r));
        assert_eq!(t[1].unwrap().to, PortState::Up);
    }

    #[test]
    fn reconnecting_outranks_degraded_in_state_order() {
        // The `state.max(Degraded)` arm in `advance` must never pull a
        // reconnecting port back to Degraded.
        assert!(PortState::Reconnecting > PortState::Degraded);
        assert!(PortState::Isolated > PortState::Reconnecting);
    }

    #[test]
    fn multiple_elapsed_windows_collapse_to_one_transition() {
        let mut h = HealthReporter::default();
        errors(&mut h, Port::Atm, ISOLATE_THRESHOLD);
        // Jump far ahead: window 1 isolates, the following clean windows
        // recover all the way back to Up; net transition is None.
        let t = h.advance(window(2 + 2 * u64::from(RECOVERY_WINDOWS)));
        assert_eq!(t, [None, None]);
        assert_eq!(h.port(Port::Atm).state, PortState::Up);
        assert!(h.port(Port::Atm).transitions >= 2, "intermediate transitions still counted");
    }
}
