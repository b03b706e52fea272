//! Congram setup supervision: the policy for retrying ATM signaling.
//!
//! Congrams are plesio-reliable (§2.4): the network promises a very low
//! — but nonzero — failure rate, and recovery from the failures that do
//! happen is a connection-management job, not a data-path one. The
//! paper leaves that machinery to the NPE's software ("connection,
//! resource, and route management", §4.2). A setup's state lives in
//! its congram's record (`CongramRecord::setup`, `attempt` and
//! `first_attempt`), and the NPE drives it from `Npe::scan` and from
//! the signaling answers, by this policy:
//!
//! * every `NpeAction::RequestAtmConnection` the NPE emits is put
//!   under a **setup watchdog** of 5 ms (`SETUP_WATCHDOG`) — if neither
//!   a `ConnectionUp` nor a `Rejected` indication arrives before the
//!   deadline, the attempt is presumed lost (signaling messages travel
//!   the same lossy network as data);
//! * a failed or timed-out attempt moves the congram to **backoff**:
//!   exponentially growing, deterministically jittered delays
//!   ([`backoff_delay`]) keep retries from synchronizing across
//!   congrams;
//! * a **retry budget** of [`RETRY_BUDGET`] caps the attempts; once it
//!   is spent the congram is failed and the requester receives a
//!   `SetupReject`;
//! * attempt numbers never restart for a congram: a re-establishment
//!   (§2.4) continues where its last setup stopped, so a late answer to
//!   an earlier setup's attempt matches none of the new one's. The
//!   budget and the backoff count from the re-establishment's first
//!   attempt.
//!
//! The appliance's transport supervisor (`gw-phy`) paces socket
//! reconnects by the same backoff schedule.

use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;

/// How long one signaling attempt may remain unanswered before the
/// watchdog presumes it lost.
pub(crate) const SETUP_WATCHDOG: SimTime = SimTime::from_ms(5);
/// Retries allowed after a setup's first attempt.
pub const RETRY_BUDGET: u32 = 3;
/// The backoff before the first retry (pre-jitter).
const BACKOFF_BASE: SimTime = SimTime::from_ms(2);
/// Upper bound on the exponential backoff delay (pre-jitter).
const BACKOFF_MAX: SimTime = SimTime::from_ms(50);
/// Seed for the deterministic jitter stream.
pub const JITTER_SEED: u64 = 0x1991;

/// The backoff schedule: exponential in the 1-based `attempt` number
/// (`BACKOFF_BASE << (attempt-1)`), capped at `BACKOFF_MAX`, plus up to
/// 25% deterministic jitter drawn from `jitter` so retries
/// desynchronize across congrams.
pub fn backoff_delay(attempt: u32, jitter: &mut SimRng) -> SimTime {
    let shift = attempt.saturating_sub(1).min(20);
    let capped = (BACKOFF_BASE.as_ns() << shift).min(BACKOFF_MAX.as_ns());
    let jitter = jitter.below(capped / 4 + 1);
    SimTime::from_ns(capped + jitter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npe::{Npe, NpeAction, NpeInput};
    use gw_mchip::congram::{CongramId, CongramKind, FlowSpec};
    use gw_mchip::messages::ControlPayload;
    use gw_wire::atm::Vci;
    use gw_wire::fddi::FddiAddr;
    use gw_wire::mchip::Icn;

    const C: CongramId = CongramId(0);

    /// An NPE with one setup from station 8 (its congram `C`) awaiting
    /// attempt 1, requested at `at`.
    fn pending(at: SimTime) -> Npe {
        let mut n = Npe::new(FddiAddr::station(0), 40_000_000, SimTime::from_us(200));
        request(&mut n, at, 9);
        n
    }

    fn request(n: &mut Npe, at: SimTime, peer: u32) {
        let frame = ControlPayload::SetupRequest {
            congram: CongramId(peer),
            kind: CongramKind::UCon,
            flow: FlowSpec::cbr(5_000_000),
            dest: [1; 8],
        }
        .to_frame(Icn(0));
        let src = FddiAddr::station(8);
        let out = n.handle(at, NpeInput::ControlFromFddi { frame, src });
        assert!(matches!(out[..], [NpeAction::RequestAtmConnection { attempt: 1, .. }]));
    }

    /// What a scan at `t` does: re-issued attempts, and rejects.
    fn poll(n: &mut Npe, t: SimTime) -> (Vec<u32>, usize) {
        let actions = n.scan(t);
        let attempts = actions
            .iter()
            .filter_map(|a| match a {
                NpeAction::RequestAtmConnection { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        let rejects =
            actions.iter().filter(|a| matches!(a, NpeAction::SendControlToFddi { .. })).count();
        (attempts, rejects)
    }

    #[test]
    fn confirm_removes_entry_and_flags_stale_duplicates() {
        let mut n = pending(SimTime::ZERO);
        let stale = n.atm_connection_ready(SimTime::ZERO, C, 2, Vci(70));
        assert!(matches!(stale[..], [NpeAction::ReleaseAtmConnection { .. }]), "no attempt 2");
        assert_eq!(n.atm_connection_ready(SimTime::ZERO, C, 1, Vci(70)).len(), 3);
        let again = n.atm_connection_ready(SimTime::ZERO, C, 1, Vci(70));
        assert!(again.is_empty(), "second indication is stale");
        assert_eq!(n.next_deadline(), None);
        assert_eq!(poll(&mut n, SimTime::from_secs(10)), (vec![], 0));
    }

    #[test]
    fn watchdog_fires_then_retries_then_gives_up() {
        let mut n = pending(SimTime::ZERO);
        // Nothing before the watchdog deadline.
        assert_eq!(poll(&mut n, SimTime::from_ms(4)), (vec![], 0));
        let mut retries = 0;
        let mut gave_up = false;
        let mut t = SimTime::from_ms(4);
        // Never answer; drive time forward until the supervisor quits.
        for _ in 0..400 {
            t += SimTime::from_ms(1);
            let (attempts, rejects) = poll(&mut n, t);
            for attempt in attempts {
                retries += 1;
                assert_eq!(attempt, retries + 1);
            }
            if rejects > 0 {
                gave_up = true;
                break;
            }
        }
        assert_eq!(retries, RETRY_BUDGET, "the whole budget of retries");
        assert!(gave_up);
        let stats = n.stats();
        assert_eq!(stats.watchdog_fires, u64::from(RETRY_BUDGET) + 1, "every attempt timed out");
        assert_eq!((stats.setup_retries, stats.setups_failed), (u64::from(RETRY_BUDGET), 1));
        assert_eq!(n.next_deadline(), None);
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let mut jitter = SimRng::new(JITTER_SEED);
        let d1 = backoff_delay(1, &mut jitter);
        let d2 = backoff_delay(2, &mut jitter);
        let d9 = backoff_delay(9, &mut jitter);
        assert!(d1 >= SimTime::from_ms(2));
        assert!(d1 <= SimTime::from_ms(2) + SimTime::from_us(500), "jitter ≤ 25%");
        assert!(d2 >= SimTime::from_ms(4));
        // Capped at 50 ms + 25% jitter.
        assert!(d9 >= SimTime::from_ms(50));
        assert!(d9 <= SimTime::from_us(62_500));
    }

    #[test]
    fn explicit_rejection_schedules_backoff() {
        let mut n = pending(SimTime::ZERO);
        assert!(n.atm_connection_failed(SimTime::from_ms(1), C, 1).is_empty());
        let until = n.next_deadline().expect("a retry is scheduled");
        assert!(until >= SimTime::from_ms(3) && until <= SimTime::from_us(3_500), "{until:?}");
        // The retry fires once the backoff elapses.
        assert_eq!(poll(&mut n, until - SimTime::from_ns(1)), (vec![], 0));
        assert_eq!(poll(&mut n, until), (vec![2], 0));
        assert_eq!(n.next_deadline(), Some(until + SETUP_WATCHDOG));
        // The first attempt's rejection again, late: stale.
        assert!(n.atm_connection_failed(until, C, 1).is_empty());
        assert_eq!(n.next_deadline(), Some(until + SETUP_WATCHDOG), "still establishing");
        assert_eq!(n.stats().setups_rejected, 0);
    }

    #[test]
    fn next_deadline_tracks_earliest_timer() {
        let mut n = Npe::new(FddiAddr::station(0), 40_000_000, SimTime::from_us(200));
        assert_eq!(n.next_deadline(), None);
        request(&mut n, SimTime::from_ms(1), 1);
        request(&mut n, SimTime::ZERO, 2);
        assert_eq!(n.next_deadline(), Some(SimTime::from_ms(5)));
    }

    #[test]
    fn deterministic_for_a_seed() {
        let run = || {
            let mut n = pending(SimTime::ZERO);
            let log: Vec<_> = (1..200).map(|ms| poll(&mut n, SimTime::from_ms(ms))).collect();
            (log, n.stats())
        };
        assert_eq!(run(), run());
    }
}
