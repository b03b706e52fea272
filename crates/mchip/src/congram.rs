//! Congram lifecycles and ICN management (§2.4, §6.1).
//!
//! A congram traverses three MCHIP phases: "congram set up, data
//! transfer, and congram termination" (§4.1), plus reconfiguration for
//! survivability (§2.4). Each hop identifies the congram by a 2-octet
//! internet channel number (ICN); "at each hop the input ICN is mapped
//! to an output ICN" (§6.1). The [`CongramManager`] is the per-gateway
//! software entity that allocates ICNs, drives the state machines, and
//! produces the translation pairs the MPP's ICXT tables are programmed
//! with.

use gw_sim::time::SimTime;
use gw_wire::mchip::Icn;

/// End-to-end congram identity (unique per originating MCHIP entity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CongramId(pub u32);

/// The two congram types of §2.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CongramKind {
    /// User congram: "a soft connection — it requires setup by the user
    /// (at some cost), and once the required data transfer is complete,
    /// it needs to be terminated."
    UCon,
    /// Persistent internet congram: long lived, system-created,
    /// multiplexes traffic and carries data for UCons being set up.
    PICon,
}

/// The resource description a congram carries (statistically bound
/// resources, §2.4; parametric network descriptions, §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Peak rate, bits per second.
    pub peak_bps: u64,
    /// Mean rate, bits per second.
    pub mean_bps: u64,
    /// Maximum burst, octets.
    pub burst_octets: u32,
}

impl FlowSpec {
    /// A constant-rate flow.
    pub fn cbr(bps: u64) -> FlowSpec {
        FlowSpec { peak_bps: bps, mean_bps: bps, burst_octets: 0 }
    }
}

/// Congram lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongramState {
    /// Setup requested, awaiting confirmation.
    SetupPending,
    /// Data transfer phase.
    Established,
    /// Path reconfiguration in progress (data may continue on the old
    /// path — plesio-reliability, §2.4).
    Reconfiguring,
    /// Teardown requested, awaiting acknowledgment.
    Closing,
    /// Terminated (or rejected).
    Closed,
}

/// Events the manager reports to its caller (the NPE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CongramEvent {
    /// The congram reached the data-transfer phase.
    Established(CongramId),
    /// Setup failed.
    Rejected(CongramId),
    /// The congram terminated.
    Closed(CongramId),
    /// Reconfiguration completed; translation updated.
    Reconfigured(CongramId),
    /// A PICon missed enough keepalives to be declared dead.
    KeepaliveExpired(CongramId),
}

/// Errors from manager operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongramError {
    /// Unknown congram id.
    Unknown,
    /// The operation is invalid in the congram's current state.
    BadState,
    /// The 16-bit ICN space on this interface is exhausted.
    IcnExhausted,
}

/// One established congram's bookkeeping.
#[derive(Debug, Clone)]
pub struct CongramRecord {
    /// Identity.
    pub id: CongramId,
    /// UCon or PICon.
    pub kind: CongramKind,
    /// Resources.
    pub flow: FlowSpec,
    /// Lifecycle state.
    pub state: CongramState,
    /// ICN on the inbound interface (what arriving frames carry).
    pub in_icn: Icn,
    /// ICN on the outbound interface (what forwarded frames carry).
    pub out_icn: Icn,
    /// Multipoint flag.
    pub multipoint: bool,
    /// Last keepalive seen (PICons only).
    pub last_keepalive: SimTime,
}

/// Allocates ICNs on one interface (one per direction per link).
#[derive(Debug, Default)]
pub struct IcnAllocator {
    next: u16,
    free: Vec<u16>,
}

impl IcnAllocator {
    /// Allocate the lowest available ICN.
    pub fn alloc(&mut self) -> Result<Icn, CongramError> {
        if let Some(v) = self.free.pop() {
            return Ok(Icn(v));
        }
        if self.next == u16::MAX {
            return Err(CongramError::IcnExhausted);
        }
        let v = self.next;
        self.next += 1;
        Ok(Icn(v))
    }

    /// Return an ICN to the pool.
    pub fn release(&mut self, icn: Icn) {
        self.free.push(icn.0);
    }
}

/// Sentinel in [`CongramManager::by_in_icn`] for an unmapped ICN.
const NO_CONGRAM: u32 = u32::MAX;

/// The per-gateway congram manager (runs on the NPE).
///
/// Ids are allocated sequentially, so records live in a dense
/// id-indexed table; the inbound-ICN map is likewise a direct-indexed
/// table (ICNs are allocated lowest-first, keeping it compact). Both
/// lookups on the control path are O(1) with no hashing.
#[derive(Debug, Default)]
pub struct CongramManager {
    records: Vec<Option<CongramRecord>>,
    in_alloc: IcnAllocator,
    out_alloc: IcnAllocator,
    by_in_icn: Vec<u32>,
    next_id: u32,
    /// Congrams in any live (non-`Closed`) state, maintained inline.
    open: usize,
    /// Live PICons, so the keepalive scan can skip entirely when none
    /// exist (the common case on a pure data-path gateway).
    picons: usize,
    /// PICon keepalive interval; a PICon is declared dead after missing
    /// three intervals (a conventional choice; the MCHIP companion spec
    /// would pin this).
    pub keepalive_interval: SimTime,
}

impl CongramManager {
    /// A manager with the default 1-second keepalive interval.
    pub fn new() -> CongramManager {
        CongramManager { keepalive_interval: SimTime::from_secs(1), ..Default::default() }
    }

    fn rec(&self, id: CongramId) -> Option<&CongramRecord> {
        self.records.get(id.0 as usize).and_then(|r| r.as_ref())
    }

    fn rec_mut(&mut self, id: CongramId) -> Option<&mut CongramRecord> {
        self.records.get_mut(id.0 as usize).and_then(|r| r.as_mut())
    }

    fn map_in_icn(&mut self, icn: Icn, id: CongramId) {
        let i = icn.0 as usize;
        if self.by_in_icn.len() <= i {
            self.by_in_icn.resize(i + 1, NO_CONGRAM);
        }
        self.by_in_icn[i] = id.0;
    }

    fn unmap_in_icn(&mut self, icn: Icn) {
        if let Some(slot) = self.by_in_icn.get_mut(icn.0 as usize) {
            *slot = NO_CONGRAM;
        }
    }

    /// A congram left the live set: release its ICNs and drop it from
    /// the running counters.
    fn close_record(&mut self, id: CongramId) {
        let r = self.rec_mut(id).expect("caller checked");
        r.state = CongramState::Closed;
        let (i, o, kind) = (r.in_icn, r.out_icn, r.kind);
        self.unmap_in_icn(i);
        self.in_alloc.release(i);
        self.out_alloc.release(o);
        self.open -= 1;
        if kind == CongramKind::PICon {
            self.picons -= 1;
        }
    }

    /// Begin setting up a congram through this gateway: allocates both
    /// ICNs and enters `SetupPending`.
    pub fn begin_setup(
        &mut self,
        kind: CongramKind,
        flow: FlowSpec,
        multipoint: bool,
        now: SimTime,
    ) -> Result<CongramId, CongramError> {
        let in_icn = self.in_alloc.alloc()?;
        let out_icn = match self.out_alloc.alloc() {
            Ok(icn) => icn,
            Err(e) => {
                self.in_alloc.release(in_icn);
                return Err(e);
            }
        };
        let id = CongramId(self.next_id);
        self.next_id += 1;
        debug_assert_eq!(self.records.len() as u32, id.0);
        self.records.push(Some(CongramRecord {
            id,
            kind,
            flow,
            state: CongramState::SetupPending,
            in_icn,
            out_icn,
            multipoint,
            last_keepalive: now,
        }));
        self.map_in_icn(in_icn, id);
        self.open += 1;
        if kind == CongramKind::PICon {
            self.picons += 1;
        }
        Ok(id)
    }

    /// Setup confirmed end to end: data transfer may begin.
    pub fn confirm(&mut self, id: CongramId) -> Result<CongramEvent, CongramError> {
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        if r.state != CongramState::SetupPending {
            return Err(CongramError::BadState);
        }
        r.state = CongramState::Established;
        Ok(CongramEvent::Established(id))
    }

    /// Setup rejected: release ICNs.
    pub fn reject(&mut self, id: CongramId) -> Result<CongramEvent, CongramError> {
        let r = self.rec(id).ok_or(CongramError::Unknown)?;
        if r.state != CongramState::SetupPending {
            return Err(CongramError::BadState);
        }
        self.close_record(id);
        Ok(CongramEvent::Rejected(id))
    }

    /// Begin teardown.
    pub fn begin_teardown(&mut self, id: CongramId) -> Result<(), CongramError> {
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        match r.state {
            CongramState::Established | CongramState::Reconfiguring => {
                r.state = CongramState::Closing;
                Ok(())
            }
            _ => Err(CongramError::BadState),
        }
    }

    /// Teardown acknowledged: release ICNs.
    pub fn complete_teardown(&mut self, id: CongramId) -> Result<CongramEvent, CongramError> {
        let r = self.rec(id).ok_or(CongramError::Unknown)?;
        if r.state != CongramState::Closing {
            return Err(CongramError::BadState);
        }
        self.close_record(id);
        Ok(CongramEvent::Closed(id))
    }

    /// Begin a path reconfiguration (survivability, §2.4). Data transfer
    /// continues — the congram is plesio-reliable, so frames in flight
    /// on the old path may be lost without protocol violation.
    pub fn begin_reconfigure(&mut self, id: CongramId) -> Result<(), CongramError> {
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        if r.state != CongramState::Established {
            return Err(CongramError::BadState);
        }
        r.state = CongramState::Reconfiguring;
        Ok(())
    }

    /// Complete a reconfiguration with a new outbound ICN (the new path
    /// assigned a fresh hop-by-hop channel).
    pub fn complete_reconfigure(
        &mut self,
        id: CongramId,
    ) -> Result<(CongramEvent, Icn), CongramError> {
        let new_out = self.out_alloc.alloc()?;
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        if r.state != CongramState::Reconfiguring {
            self.out_alloc.release(new_out);
            return Err(CongramError::BadState);
        }
        let old = r.out_icn;
        r.out_icn = new_out;
        r.state = CongramState::Established;
        self.out_alloc.release(old);
        Ok((CongramEvent::Reconfigured(id), new_out))
    }

    /// Record a keepalive on a PICon.
    pub fn keepalive(&mut self, id: CongramId, now: SimTime) -> Result<(), CongramError> {
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        r.last_keepalive = now;
        Ok(())
    }

    /// Scan PICons for missed keepalives (3 intervals). With no live
    /// PICons this is a counter check — data-path-only gateways pay
    /// nothing per housekeeping tick.
    pub fn scan_keepalives(&mut self, now: SimTime) -> Vec<CongramEvent> {
        if self.picons == 0 {
            return Vec::new();
        }
        let deadline = SimTime::from_ns(self.keepalive_interval.as_ns() * 3);
        let mut out = Vec::new();
        let expired: Vec<CongramId> = self
            .records
            .iter()
            .flatten()
            .filter(|r| {
                r.kind == CongramKind::PICon
                    && r.state == CongramState::Established
                    && now.saturating_sub(r.last_keepalive) >= deadline
            })
            .map(|r| r.id)
            .collect();
        for id in expired {
            // A dead PICon closes immediately (there is no peer to ack).
            self.close_record(id);
            out.push(CongramEvent::KeepaliveExpired(id));
        }
        out
    }

    /// Look up a congram record.
    pub fn get(&self, id: CongramId) -> Option<&CongramRecord> {
        self.rec(id)
    }

    /// Congrams in any live state — a running counter, not a scan.
    pub fn open_count(&self) -> usize {
        self.open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> CongramManager {
        CongramManager::new()
    }

    #[test]
    fn ucon_full_lifecycle() {
        let mut m = mgr();
        let id =
            m.begin_setup(CongramKind::UCon, FlowSpec::cbr(64_000), false, SimTime::ZERO).unwrap();
        assert_eq!(m.get(id).unwrap().state, CongramState::SetupPending);
        assert_eq!(m.confirm(id).unwrap(), CongramEvent::Established(id));
        assert_eq!(m.get(id).unwrap().state, CongramState::Established);
        m.begin_teardown(id).unwrap();
        assert_eq!(m.complete_teardown(id).unwrap(), CongramEvent::Closed(id));
        assert_eq!(m.get(id).unwrap().state, CongramState::Closed);
    }

    #[test]
    fn rejected_setup_releases_icns() {
        let mut m = mgr();
        let a = m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap();
        let a_icns = (m.get(a).unwrap().in_icn, m.get(a).unwrap().out_icn);
        m.reject(a).unwrap();
        let b = m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap();
        // Freed ICNs are reused.
        assert_eq!((m.get(b).unwrap().in_icn, m.get(b).unwrap().out_icn), a_icns);
    }

    #[test]
    fn bad_state_transitions_rejected() {
        let mut m = mgr();
        let id = m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap();
        assert_eq!(m.begin_teardown(id), Err(CongramError::BadState));
        m.confirm(id).unwrap();
        assert_eq!(m.confirm(id), Err(CongramError::BadState));
        assert_eq!(m.reject(id), Err(CongramError::BadState));
        assert_eq!(m.complete_teardown(id), Err(CongramError::BadState));
        assert_eq!(m.confirm(CongramId(999)), Err(CongramError::Unknown));
    }

    #[test]
    fn distinct_congrams_distinct_icns() {
        let mut m = mgr();
        let ids: Vec<_> = (0..100)
            .map(|_| {
                m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap()
            })
            .collect();
        let mut in_icns: Vec<Icn> = ids.iter().map(|&id| m.get(id).unwrap().in_icn).collect();
        in_icns.sort();
        in_icns.dedup();
        assert_eq!(in_icns.len(), 100);
    }

    #[test]
    fn by_in_icn_resolves() {
        let mut m = mgr();
        let id = m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap();
        let icn = m.get(id).unwrap().in_icn;
        assert_eq!(m.by_in_icn[icn.0 as usize], id.0);
        m.confirm(id).unwrap();
        m.begin_teardown(id).unwrap();
        m.complete_teardown(id).unwrap();
        assert_eq!(m.by_in_icn[icn.0 as usize], NO_CONGRAM);
    }

    #[test]
    fn reconfiguration_swaps_out_icn() {
        let mut m = mgr();
        let id = m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap();
        m.confirm(id).unwrap();
        let old_out = m.get(id).unwrap().out_icn;
        m.begin_reconfigure(id).unwrap();
        assert_eq!(m.get(id).unwrap().state, CongramState::Reconfiguring);
        let (ev, new_out) = m.complete_reconfigure(id).unwrap();
        assert_eq!(ev, CongramEvent::Reconfigured(id));
        assert_ne!(new_out, old_out);
        assert_eq!(m.get(id).unwrap().state, CongramState::Established);
    }

    #[test]
    fn picon_keepalive_expiry() {
        let mut m = mgr();
        let p = m
            .begin_setup(CongramKind::PICon, FlowSpec::cbr(1_000_000), true, SimTime::ZERO)
            .unwrap();
        m.confirm(p).unwrap();
        let u = m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap();
        m.confirm(u).unwrap();
        // Keepalive at 1s keeps it alive through 3.9s.
        m.keepalive(p, SimTime::from_secs(1)).unwrap();
        assert!(m.scan_keepalives(SimTime::from_ms(3900)).is_empty());
        // At 4s, three intervals have passed since the last keepalive.
        let evs = m.scan_keepalives(SimTime::from_secs(4));
        assert_eq!(evs, vec![CongramEvent::KeepaliveExpired(p)]);
        assert_eq!(m.get(p).unwrap().state, CongramState::Closed);
        // UCons are unaffected by keepalive scanning.
        assert_eq!(m.get(u).unwrap().state, CongramState::Established);
    }

    #[test]
    fn open_count_tracks_live_congrams() {
        let mut m = mgr();
        let a = m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap();
        let b = m.begin_setup(CongramKind::UCon, FlowSpec::cbr(1), false, SimTime::ZERO).unwrap();
        assert_eq!(m.open_count(), 2);
        m.reject(b).unwrap();
        assert_eq!(m.open_count(), 1);
        m.confirm(a).unwrap();
        m.begin_teardown(a).unwrap();
        m.complete_teardown(a).unwrap();
        assert_eq!(m.open_count(), 0);
    }

    #[test]
    fn allocator_exhaustion_reported() {
        let mut a = IcnAllocator { next: u16::MAX - 1, free: vec![] };
        assert!(a.alloc().is_ok());
        assert_eq!(a.alloc(), Err(CongramError::IcnExhausted));
        a.release(Icn(5));
        assert_eq!(a.alloc(), Ok(Icn(5)));
    }
}
