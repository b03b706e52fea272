//! The per-network resource manager of §2.3.
//!
//! "A simple but effective approach is to designate a directly connected
//! gateway to serve as a resource manager of the network, that is the
//! gateway is responsible on behalf of the network for keeping track of
//! resource usage of active congrams, and accepting a new congram only
//! if there are resources to meet the congram's performance needs."
//!
//! For the FDDI side this models the synchronous-bandwidth pool: the
//! gateway admits congrams against the ring's schedulable capacity
//! (what the TTRT negotiation leaves for synchronous allocations).
//! Experiment E11 compares admission-controlled operation against a
//! manager that admits everything.

use crate::congram::FlowSpec;

/// The outcome of an admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Admitted; resources reserved.
    Admitted,
    /// Refused: committed + demand would exceed capacity.
    Refused {
        /// Bits per second available at refusal time.
        available_bps: u64,
    },
}

/// Tracks resource commitments of active congrams on one network. Each
/// congram's own reservation is held in its record
/// (`CongramRecord::reserved_bps`).
#[derive(Debug)]
pub struct ResourceManager {
    capacity_bps: u64,
    committed_bps: u64,
    active: usize,
    /// When true, every request is admitted regardless of capacity —
    /// the no-resource-management baseline for E11.
    pub bypass: bool,
}

impl ResourceManager {
    /// A manager over `capacity_bps` of schedulable network capacity.
    pub fn new(capacity_bps: u64) -> ResourceManager {
        ResourceManager { capacity_bps, committed_bps: 0, active: 0, bypass: false }
    }

    /// The network capacity this manager guards.
    pub fn capacity_bps(&self) -> u64 {
        self.capacity_bps
    }

    /// Currently committed bandwidth.
    pub fn committed_bps(&self) -> u64 {
        self.committed_bps
    }

    /// Available (uncommitted) bandwidth.
    pub(crate) fn available_bps(&self) -> u64 {
        self.capacity_bps.saturating_sub(self.committed_bps)
    }

    /// Fraction of capacity committed, 0.0–1.0+ (may exceed 1 in
    /// bypass mode — that is the point of E11).
    pub fn utilization(&self) -> f64 {
        if self.capacity_bps == 0 {
            return 0.0;
        }
        self.committed_bps as f64 / self.capacity_bps as f64
    }

    /// Would this flow be admitted right now?
    fn would_admit(&self, flow: &FlowSpec) -> bool {
        self.bypass || self.committed_bps + flow.peak_bps <= self.capacity_bps
    }

    /// Request admission for a flow; an admitted one reserves its peak
    /// rate.
    pub fn admit(&mut self, flow: &FlowSpec) -> AdmitDecision {
        if !self.would_admit(flow) {
            return AdmitDecision::Refused { available_bps: self.available_bps() };
        }
        self.committed_bps += flow.peak_bps;
        self.active += 1;
        AdmitDecision::Admitted
    }

    /// Release a reservation of `bps` (teardown, rejection upstream,
    /// keepalive expiry).
    pub fn release(&mut self, bps: u64) {
        self.committed_bps = self.committed_bps.saturating_sub(bps);
        self.active = self.active.saturating_sub(1);
    }

    /// Number of active reservations.
    pub fn active(&self) -> usize {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(mbps: u64) -> FlowSpec {
        FlowSpec::cbr(mbps * 1_000_000)
    }

    #[test]
    fn admits_until_capacity() {
        let mut rm = ResourceManager::new(100_000_000);
        for _ in 0..10 {
            assert_eq!(rm.admit(&flow(10)), AdmitDecision::Admitted);
        }
        assert_eq!(rm.admit(&flow(10)), AdmitDecision::Refused { available_bps: 0 });
        assert_eq!(rm.active(), 10);
        assert!((rm.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn release_restores_capacity() {
        let mut rm = ResourceManager::new(50_000_000);
        rm.admit(&flow(50));
        assert!(!rm.would_admit(&flow(1)));
        rm.release(50_000_000);
        assert_eq!((rm.available_bps(), rm.active()), (50_000_000, 0));
        assert_eq!(rm.admit(&flow(50)), AdmitDecision::Admitted);
    }

    #[test]
    fn release_unknown_is_noop() {
        // A release with no reservation active changes nothing.
        let mut rm = ResourceManager::new(10);
        rm.release(10);
        assert_eq!((rm.committed_bps(), rm.active()), (0, 0));
    }

    #[test]
    fn refusal_reports_remaining() {
        let mut rm = ResourceManager::new(100_000_000);
        rm.admit(&flow(70));
        match rm.admit(&flow(40)) {
            AdmitDecision::Refused { available_bps } => assert_eq!(available_bps, 30_000_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exact_fit_admitted() {
        let mut rm = ResourceManager::new(100);
        assert_eq!(rm.admit(&FlowSpec::cbr(100)), AdmitDecision::Admitted);
        assert_eq!(rm.available_bps(), 0);
    }

    #[test]
    fn bypass_overcommits() {
        let mut rm = ResourceManager::new(100_000_000);
        rm.bypass = true;
        for _ in 0..20 {
            assert_eq!(rm.admit(&flow(10)), AdmitDecision::Admitted);
        }
        assert!(rm.utilization() > 1.9, "bypass mode admits past capacity");
    }

    #[test]
    fn zero_capacity_refuses_everything_nonzero() {
        let mut rm = ResourceManager::new(0);
        assert!(matches!(rm.admit(&flow(1)), AdmitDecision::Refused { .. }));
        assert_eq!(rm.utilization(), 0.0);
        // A zero-rate flow trivially fits.
        assert_eq!(rm.admit(&FlowSpec::cbr(0)), AdmitDecision::Admitted);
    }
}
