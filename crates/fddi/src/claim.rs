//! The claim-token process: TTRT negotiation at ring initialization
//! (ANSI X3.139 §8.3.2; paper reference \[2\]).
//!
//! Every station bids the rotation time it requires (`T_Req`); claim
//! frames circulate and the **lowest bid wins** (ties broken by the
//! highest MAC address). The winner issues the first token, and every
//! station operates with `TTRT = min(T_Req)`. The synchronous
//! allocations must satisfy `Σ sync_alloc + ring_latency ≤ TTRT` for
//! the timed-token guarantees to hold; `claim_process` checks this
//! and reports the slack.

use gw_sim::time::SimTime;
use gw_wire::fddi::FddiAddr;

/// The result of the claim process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimOutcome {
    /// The negotiated target token rotation time: the minimum bid.
    pub ttrt: SimTime,
    /// Index of the winning station (lowest bid; highest address wins
    /// ties).
    pub winner: usize,
    /// Number of claim frames modeled (one per station per round; the
    /// process converges in one round once every bid has circulated).
    pub claim_frames: usize,
    /// `TTRT − (Σ sync_alloc + ring_latency)`: non-negative when the
    /// synchronous guarantee is schedulable.
    pub sync_slack: Option<SimTime>,
}

/// Run the claim process over stations described by `(address, t_req,
/// sync_alloc)` with the given total ring latency.
///
/// Returns `None` for an empty ring.
pub(crate) fn claim_process(
    stations: &[(FddiAddr, SimTime, SimTime)],
    ring_latency: SimTime,
) -> Option<ClaimOutcome> {
    if stations.is_empty() {
        return None;
    }
    let mut winner = 0usize;
    for (i, &(addr, t_req, _)) in stations.iter().enumerate() {
        let (waddr, wreq, _) = stations[winner];
        if t_req < wreq || (t_req == wreq && addr.0 > waddr.0) {
            winner = i;
        }
    }
    let ttrt = stations[winner].1;
    let total_sync: u64 = stations.iter().map(|&(_, _, s)| s.as_ns()).sum();
    let committed = SimTime::from_ns(total_sync) + ring_latency;
    let sync_slack = (ttrt >= committed).then(|| ttrt - committed);
    Some(ClaimOutcome { ttrt, winner, claim_frames: stations.len(), sync_slack })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(idx: u32, req_us: u64, sync_us: u64) -> (FddiAddr, SimTime, SimTime) {
        (FddiAddr::station(idx), SimTime::from_us(req_us), SimTime::from_us(sync_us))
    }

    #[test]
    fn lowest_bid_wins() {
        let out =
            claim_process(&[st(1, 800, 0), st(2, 400, 0), st(3, 600, 0)], SimTime::ZERO).unwrap();
        assert_eq!(out.ttrt, SimTime::from_us(400));
        assert_eq!(out.winner, 1);
        assert_eq!(out.claim_frames, 3);
    }

    #[test]
    fn tie_broken_by_highest_address() {
        let out =
            claim_process(&[st(1, 400, 0), st(9, 400, 0), st(5, 400, 0)], SimTime::ZERO).unwrap();
        assert_eq!(out.winner, 1, "station 9 has the highest address");
    }

    #[test]
    fn empty_ring_yields_none() {
        assert_eq!(claim_process(&[], SimTime::ZERO), None);
    }

    #[test]
    fn sync_slack_computed() {
        let out =
            claim_process(&[st(1, 1000, 100), st(2, 1000, 200)], SimTime::from_us(50)).unwrap();
        assert_eq!(out.sync_slack, Some(SimTime::from_us(650)));
    }

    #[test]
    fn oversubscribed_sync_flagged() {
        let out = claim_process(&[st(1, 100, 80), st(2, 100, 80)], SimTime::from_us(10)).unwrap();
        assert_eq!(out.sync_slack, None, "160+10 > 100: not schedulable");
    }

    #[test]
    fn single_station_ring() {
        let out = claim_process(&[st(4, 250, 10)], SimTime::from_us(5)).unwrap();
        assert_eq!(out.winner, 0);
        assert_eq!(out.ttrt, SimTime::from_us(250));
        assert_eq!(out.sync_slack, Some(SimTime::from_us(235)));
    }
}
