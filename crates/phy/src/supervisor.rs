//! Per-port transport supervision: backoff/retry for socket errors.
//!
//! Reuses the congram-setup backoff schedule
//! ([`gw_gateway::supervisor::backoff_delay`]) — exponential in the
//! attempt number, capped, deterministically jittered — with one
//! deliberate difference: the setup supervisor's retry budget bounds
//! *attempts* (a congram the network keeps rejecting is eventually
//! failed toward its requester), while an appliance port is never
//! abandoned. Here the budget only caps the *exponent*: once attempts
//! exceed it, retries keep firing at the maximum backoff forever. An
//! operator unplugging a cable for an hour expects the daemon to
//! reconnect when it comes back, not to have given up at attempt four.
//!
//! The supervisor keeps no counts: the port driver reports each error,
//! retry and recovery to the mgmt port health (`errors_total`,
//! `backoff_retries` and `reconnects` in `gw-snapshot/1`).

use gw_gateway::supervisor::{backoff_delay, JITTER_SEED, RETRY_BUDGET};
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

/// Backoff/retry state machine for one port's transport.
#[derive(Debug)]
pub struct TransportSupervisor {
    jitter: SimRng,
    state: LinkState,
}

impl Default for TransportSupervisor {
    fn default() -> TransportSupervisor {
        TransportSupervisor { jitter: SimRng::new(JITTER_SEED), state: LinkState::Up }
    }
}

impl TransportSupervisor {
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
                let until = now + backoff_delay(1, &mut self.jitter);
                self.state = LinkState::Backoff { attempt: 1, until };
                Some(until)
            }
            LinkState::Backoff { .. } => None,
        }
    }

    /// True when a retry is due: the caller attempts
    /// `reconnect()+pump()`; success is reported via
    /// `TransportSupervisor::recovered`, failure needs nothing — the
    /// next attempt is already scheduled (exponent capped at
    /// `RETRY_BUDGET + 1`, so the cadence settles at the backoff cap).
    pub fn poll(&mut self, now: SimTime) -> bool {
        let LinkState::Backoff { attempt, until } = self.state else {
            return false;
        };
        if now < until {
            return false;
        }
        let next_attempt = attempt.saturating_add(1).min(RETRY_BUDGET + 1);
        let next_until = now + backoff_delay(next_attempt, &mut self.jitter);
        self.state = LinkState::Backoff { attempt: next_attempt, until: next_until };
        true
    }

    /// The transport is confirmed working again.
    pub(crate) fn recovered(&mut self) {
        self.state = LinkState::Up;
    }

    /// The next scheduled retry, while down.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match self.state {
            LinkState::Up => None,
            LinkState::Backoff { until, .. } => Some(until),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{loopback_frame_pair, CellPhy, PhyError, PortDriver};
    use gw_gateway::{Gateway, GatewayConfig};
    use gw_mgmt::{Port, PortHealth, PortState};
    use gw_wire::atm::CELL_SIZE;
    use gw_wire::fddi::FddiAddr;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// A cell port whose transport fails while `down` is set, and that
    /// logs when it was pumped.
    struct Flaky {
        down: Rc<Cell<bool>>,
        pumps: Rc<RefCell<Vec<SimTime>>>,
    }

    impl CellPhy for Flaky {
        fn send_cell(&mut self, _: SimTime, _: &[u8; CELL_SIZE]) -> Result<(), PhyError> {
            Ok(())
        }

        fn poll_cells(&mut self, _: &mut Vec<(SimTime, [u8; CELL_SIZE])>) -> Result<(), PhyError> {
            Ok(())
        }

        fn pump(&mut self, now: SimTime) -> Result<(), PhyError> {
            self.pumps.borrow_mut().push(now);
            if self.down.get() {
                return Err(PhyError::Io(std::io::ErrorKind::ConnectionRefused));
            }
            Ok(())
        }
    }

    /// A managed gateway whose ATM port is a [`Flaky`] one, driven by
    /// the port driver; the link starts down.
    struct Rig {
        gw: Gateway,
        driver: PortDriver,
        down: Rc<Cell<bool>>,
        pumps: Rc<RefCell<Vec<SimTime>>>,
    }

    impl Rig {
        fn new() -> Rig {
            let config =
                GatewayConfig { management: Some(gw_mgmt::MgmtConfig), ..Default::default() };
            let gw = Gateway::new(config, FddiAddr::station(0), 100_000_000);
            let (down, pumps) = (Rc::new(Cell::new(true)), Rc::default());
            let cell = Flaky { down: Rc::clone(&down), pumps: Rc::clone(&pumps) };
            let driver = PortDriver::new(Box::new(cell), Box::new(loopback_frame_pair().0));
            Rig { gw, driver, down, pumps }
        }

        fn pump(&mut self, now: SimTime) {
            self.driver.pump(&mut self.gw, now, Port::Atm);
        }

        fn health(&self) -> PortHealth {
            self.gw.health().expect("management is on").atm
        }
    }

    #[test]
    fn error_schedules_first_retry_after_base_backoff() {
        let mut s = TransportSupervisor::default();
        assert!(s.is_up());
        let until = s.error(SimTime::from_ms(10)).unwrap();
        assert!(until >= SimTime::from_ms(12), "base 2 ms");
        assert!(until <= SimTime::from_ms(13), "25% jitter cap");
        assert!(!s.is_up());
        assert!(s.error(SimTime::from_ms(11)).is_none(), "already down");
        // Through the port driver: one error counted, and a pump before
        // the retry is due touches nothing.
        let mut rig = Rig::new();
        rig.pump(SimTime::from_ms(10));
        rig.pump(SimTime::from_ms(11));
        let h = rig.health();
        assert_eq!((h.state, h.errors_total, h.backoff_retries), (PortState::Reconnecting, 1, 0));
        assert_eq!(rig.pumps.borrow().len(), 1);
    }

    #[test]
    fn retries_grow_then_plateau_at_backoff_max_forever() {
        let mut s = TransportSupervisor::default();
        s.error(SimTime::ZERO);
        let mut gaps = Vec::new();
        for _ in 0..12 {
            let due = s.next_deadline().unwrap();
            assert!(!s.poll(due - SimTime::from_ns(1)), "not before the deadline");
            assert!(s.poll(due));
            gaps.push((s.next_deadline().unwrap() - due).as_ns());
        }
        // 2, 4, 8, 16, 16, 16, ... ms (each plus <= 25% jitter): the
        // exponent stops at the retry budget, below the 50 ms cap.
        assert!(gaps[0] >= 4_000_000 && gaps[0] <= 5_000_000, "attempt 2: 4 ms, got {}", gaps[0]);
        assert!(gaps[1] >= 8_000_000 && gaps[1] <= 10_000_000, "attempt 3: 8 ms");
        for g in &gaps[2..] {
            assert!(*g >= 16_000_000 && *g <= 20_000_000, "plateau, got {g}");
        }
        // Through the port driver, every retry is counted once, and
        // they keep coming.
        let mut rig = Rig::new();
        for us in (0..250_000).step_by(100) {
            rig.pump(SimTime::from_us(us));
        }
        let h = rig.health();
        let retries = rig.pumps.borrow().len() as u64 - 1;
        assert!(retries >= 12, "never gives up: {retries}");
        assert_eq!(
            (h.state, h.errors_total, h.backoff_retries),
            (PortState::Reconnecting, 1, retries)
        );
    }

    #[test]
    fn recovery_counts_and_resets_the_schedule() {
        let mut s = TransportSupervisor::default();
        s.error(SimTime::ZERO);
        assert!(s.poll(s.next_deadline().unwrap()));
        s.recovered();
        assert!(s.is_up());
        assert_eq!(s.next_deadline(), None);
        // A fresh error starts over at the base delay.
        let until = s.error(SimTime::from_secs(1)).unwrap();
        assert!(until - SimTime::from_secs(1) <= SimTime::from_ms(3));
        // Through the port driver: the first retry after the link comes
        // back recovers the port, counted once.
        let mut rig = Rig::new();
        rig.pump(SimTime::ZERO);
        rig.down.set(false);
        for us in (100..5_000).step_by(100) {
            rig.pump(SimTime::from_us(us));
        }
        let h = rig.health();
        assert_eq!((h.state, h.reconnects, h.backoff_retries), (PortState::Degraded, 1, 1));
    }
}
