//! Per-station timed-token timer rules (ANSI X3.139 §8; paper refs
//! \[2\], \[6\], \[13\]).
//!
//! Each station keeps a **token rotation timer** (TRT) counting one
//! TTRT interval. The rules, as modeled here in absolute simulated
//! time:
//!
//! * When the token arrives **early** (TRT not yet expired), the unused
//!   rotation time becomes the **token holding timer** (THT) budget for
//!   asynchronous transmission, and TRT restarts at a full TTRT.
//! * When TRT expires before the token returns, the **late count**
//!   increments and TRT restarts; when the token then arrives **late**,
//!   the late count clears, TRT keeps running (it is *not* restarted),
//!   and no asynchronous transmission is permitted.
//! * **Synchronous** transmission up to the station's negotiated
//!   allocation is permitted on every token visit, early or late — this
//!   is what gives FDDI its performance guarantee (§3 "Access": time
//!   critical applications use synchronous transmission).
//!
//! These rules yield Johnson's bound: the time between token arrivals
//! at a station never exceeds 2×TTRT (validated in experiment E12).

use gw_sim::time::SimTime;

/// What a token visit permits (computed by `MacTimers::token_arrival`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenDisposition {
    /// True when the token arrived before TRT expiry.
    pub early: bool,
    /// Asynchronous transmission budget (zero for a late token).
    pub tht_budget: SimTime,
    /// The synchronous allocation usable this visit.
    pub sync_budget: SimTime,
}

/// The MAC timer state of one station.
#[derive(Debug, Clone)]
pub struct MacTimers {
    ttrt: SimTime,
    sync_alloc: SimTime,
    /// Absolute time at which the running TRT expires.
    trt_expiry: SimTime,
    late_count: u32,
    /// Cumulative count of TRT expirations (diagnostic register).
    total_late_events: u64,
    last_token_arrival: Option<SimTime>,
}

impl MacTimers {
    /// Initialize after ring initialization at `now`, with the
    /// negotiated TTRT and this station's synchronous allocation.
    ///
    /// # Panics
    /// Panics when `ttrt` is zero — ring initialization cannot have
    /// negotiated a zero rotation target.
    pub fn new(now: SimTime, ttrt: SimTime, sync_alloc: SimTime) -> MacTimers {
        assert!(ttrt > SimTime::ZERO, "TTRT must be positive");
        MacTimers {
            ttrt,
            sync_alloc,
            trt_expiry: now + ttrt,
            late_count: 0,
            total_late_events: 0,
            last_token_arrival: None,
        }
    }

    /// The negotiated target token rotation time.
    pub fn ttrt(&self) -> SimTime {
        self.ttrt
    }

    /// This station's synchronous allocation per visit.
    pub fn sync_alloc(&self) -> SimTime {
        self.sync_alloc
    }

    /// Process a token arriving at `now`; returns what this visit may
    /// transmit.
    pub(crate) fn token_arrival(&mut self, now: SimTime) -> TokenDisposition {
        // Account any TRT expirations since the last visit.
        while now >= self.trt_expiry {
            self.trt_expiry += self.ttrt;
            self.late_count += 1;
            self.total_late_events += 1;
        }
        let disposition = if self.late_count == 0 {
            // Early token: leftover rotation time funds async traffic.
            let tht = self.trt_expiry - now;
            self.trt_expiry = now + self.ttrt;
            TokenDisposition { early: true, tht_budget: tht, sync_budget: self.sync_alloc }
        } else {
            // Late token: clear the late count, keep TRT running, no
            // asynchronous budget.
            self.late_count = 0;
            TokenDisposition {
                early: false,
                tht_budget: SimTime::ZERO,
                sync_budget: self.sync_alloc,
            }
        };
        self.last_token_arrival = Some(now);
        disposition
    }

    /// Inter-arrival time since the previous token visit, if any.
    pub(crate) fn rotation_time(&self, now: SimTime) -> Option<SimTime> {
        self.last_token_arrival.map(|t| now.saturating_sub(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn early_token_gets_leftover_as_tht() {
        let mut m = MacTimers::new(SimTime::ZERO, t(100), t(10));
        // Token returns after 40 us: 60 us of rotation left -> THT.
        let d = m.token_arrival(t(40));
        assert!(d.early);
        assert_eq!(d.tht_budget, t(60));
        assert_eq!(d.sync_budget, t(10));
    }

    #[test]
    fn exactly_on_time_token_is_late() {
        let mut m = MacTimers::new(SimTime::ZERO, t(100), SimTime::ZERO);
        let d = m.token_arrival(t(100));
        assert!(!d.early);
        assert_eq!(d.tht_budget, SimTime::ZERO);
    }

    #[test]
    fn late_token_gives_no_async_budget_but_sync_remains() {
        let mut m = MacTimers::new(SimTime::ZERO, t(100), t(7));
        let d = m.token_arrival(t(150));
        assert!(!d.early);
        assert_eq!(d.tht_budget, SimTime::ZERO);
        assert_eq!(d.sync_budget, t(7), "sync allocation survives lateness");
        assert_eq!(m.late_count, 0, "late count cleared by the arrival");
        assert_eq!(m.total_late_events, 1);
    }

    #[test]
    fn late_token_does_not_restart_trt() {
        let mut m = MacTimers::new(SimTime::ZERO, t(100), SimTime::ZERO);
        // Token arrives at 150: TRT expired at 100, restarted for 200.
        m.token_arrival(t(150));
        // Next token at 180: TRT (expiring 200) has not expired -> early,
        // with 20 us left. Had the late arrival restarted TRT the expiry
        // would be 250 and THT would wrongly be 70.
        let d = m.token_arrival(t(180));
        assert!(d.early);
        assert_eq!(d.tht_budget, t(20));
    }

    #[test]
    fn early_token_restarts_trt_full() {
        let mut m = MacTimers::new(SimTime::ZERO, t(100), SimTime::ZERO);
        m.token_arrival(t(30)); // TRT restarts: expiry 130
        let d = m.token_arrival(t(130)); // exactly at expiry -> late
        assert!(!d.early);
        let d = m.token_arrival(t(140)); // before 230 -> early, 90 left
        assert!(d.early);
        assert_eq!(d.tht_budget, t(90));
    }

    #[test]
    fn very_late_token_counts_multiple_expirations() {
        let mut m = MacTimers::new(SimTime::ZERO, t(100), SimTime::ZERO);
        m.token_arrival(t(350)); // expirations at 100, 200, 300
        assert_eq!(m.total_late_events, 3);
        assert_eq!(m.late_count, 0);
    }

    #[test]
    fn rotation_time_tracked() {
        let mut m = MacTimers::new(SimTime::ZERO, t(100), SimTime::ZERO);
        assert_eq!(m.rotation_time(t(10)), None);
        m.token_arrival(t(10));
        // Queried before the next arrival is recorded (the ring samples
        // rotation time this way).
        assert_eq!(m.rotation_time(t(55)), Some(t(45)));
        m.token_arrival(t(55));
        assert_eq!(m.last_token_arrival, Some(t(55)));
    }

    #[test]
    #[should_panic(expected = "TTRT must be positive")]
    fn zero_ttrt_rejected() {
        let _ = MacTimers::new(SimTime::ZERO, SimTime::ZERO, SimTime::ZERO);
    }

    #[test]
    fn tht_budget_bounded_by_ttrt() {
        let mut m = MacTimers::new(SimTime::ZERO, t(100), SimTime::ZERO);
        for arrival in [1u64, 5, 20, 99] {
            let mut mm = m.clone();
            let d = mm.token_arrival(t(arrival));
            assert!(d.tht_budget <= t(100));
        }
        // Immediately-returning token gets nearly the whole TTRT.
        let d = m.token_arrival(SimTime::from_ns(1));
        assert_eq!(d.tht_budget, t(100) - SimTime::from_ns(1));
    }

    /// The alternating pattern from Sevcik & Johnson's analysis: a
    /// saturated station alternately sees early and late tokens, and the
    /// rotation never exceeds 2×TTRT.
    #[test]
    fn rotation_never_exceeds_twice_ttrt() {
        let ttrt = t(100);
        let mut m = MacTimers::new(SimTime::ZERO, ttrt, SimTime::ZERO);
        // Simulate a pathological arrival pattern driven by the budget
        // the MAC grants: the "ring" consumes the full THT each visit
        // plus a fixed 10 us of sync/latency from other stations.
        let mut now = t(10);
        let mut prev = None;
        for _ in 0..100 {
            let d = m.token_arrival(now);
            if let Some(p) = prev {
                let rotation = now - p;
                assert!(rotation <= t(200), "rotation {} exceeded 2*TTRT", rotation);
            }
            prev = Some(now);
            now = now + d.tht_budget + t(10);
        }
    }
}
