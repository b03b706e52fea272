//! Congram lifecycles and ICN management (§2.4, §6.1).
//!
//! A congram traverses three MCHIP phases: "congram set up, data
//! transfer, and congram termination" (§4.1), plus reconfiguration for
//! survivability (§2.4). Each hop identifies the congram by a 2-octet
//! internet channel number (ICN); "at each hop the input ICN is mapped
//! to an output ICN" (§6.1). The gateway's MPP indexes ICXT-F by the
//! ICN frames from the ATM side carry and ICXT-A by the ICN frames
//! from the FDDI side carry, so a congram's two ICNs are named by that
//! interface and drawn from that interface's own allocator. The
//! [`CongramManager`] is the per-gateway software entity that holds one
//! record per congram, allocates its ICNs and drives its state machine.
//!
//! The record is the only per-congram state on the gateway: beside its
//! lifecycle and ICNs it holds the ring bandwidth reserved for it
//! (§2.3) and, for a congram whose ATM VC this gateway signals, where
//! that setup stands ([`SetupPhase`]) and the number of its last
//! attempt. The NPE's supervisor drives the phase; the manager numbers
//! the attempts, ends the phase when the congram comes up or closes,
//! and counts the setups in flight, so a housekeeping scan with no
//! setup in flight and no PICon touches no record.
//!
//! A record lives while its congram does, in one of three
//! [`CongramState`]s; [`CongramManager::close`] takes it out and hands
//! it back. An id is never reused while its congram lives.

use gw_sim::time::SimTime;
use gw_wire::atm::Vci;
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::Icn;
use std::collections::{BTreeSet, HashMap};

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
}

/// Where the ATM setup this gateway signals for a congram stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupPhase {
    /// No attempt in flight.
    Idle,
    /// An attempt is in flight; the watchdog presumes it lost at the
    /// contained time.
    Establishing(SimTime),
    /// Waiting out the backoff; the next attempt is due at the
    /// contained time.
    Backoff(SimTime),
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
    /// The requester already has a live congram under this id.
    PeerIdInUse,
}

/// Who set a congram up, and where its control answers go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requester {
    /// An ATM host, answered on the VC its setup arrived on.
    Atm(Vci),
    /// An FDDI station.
    Fddi(FddiAddr),
}

/// A requester's name for its congram. ATM-side ids share one
/// namespace (each control message may arrive on a fresh VC);
/// FDDI-side ids are scoped by station.
type PeerKey = (Option<FddiAddr>, CongramId);

impl Requester {
    fn key(self, peer_id: CongramId) -> PeerKey {
        match self {
            Requester::Atm(_) => (None, peer_id),
            Requester::Fddi(station) => (Some(station), peer_id),
        }
    }
}

/// Everything the gateway knows about one congram.
#[derive(Debug, Clone, Copy)]
pub struct CongramRecord {
    /// Identity.
    pub id: CongramId,
    /// UCon or PICon.
    pub kind: CongramKind,
    /// Resources.
    pub flow: FlowSpec,
    /// Lifecycle state.
    pub state: CongramState,
    /// The ICN frames from the ATM side carry: the ICXT-F index.
    pub atm_icn: Icn,
    /// The ICN frames from the FDDI side carry: the ICXT-A index.
    pub fddi_icn: Icn,
    /// Who set the congram up.
    pub requester: Requester,
    /// The requester's own id for the congram.
    pub peer_id: CongramId,
    /// The ATM VC carrying the congram's data, while one is bound.
    pub vci: Option<Vci>,
    /// Where frames from the ATM side go on the ring.
    pub fddi_dst: FddiAddr,
    /// Last keepalive seen (PICons only).
    pub last_keepalive: SimTime,
    /// Ring bandwidth the resource manager reserved for the congram
    /// (§2.3).
    pub reserved_bps: Option<u64>,
    /// Where the setup this gateway signals stands.
    pub setup: SetupPhase,
    /// The number of the last signaling attempt issued (0: none). It
    /// never restarts, so a late answer to an earlier setup's attempt
    /// matches none of a re-establishment's.
    pub attempt: u32,
    /// The number of the current setup's first attempt: the retry
    /// budget and the backoff count from it.
    pub first_attempt: u32,
}

impl CongramRecord {
    /// The ICN the requester's own frames carry (the one its confirm
    /// assigns).
    pub fn requester_icn(&self) -> Icn {
        match self.requester {
            Requester::Atm(_) => self.atm_icn,
            Requester::Fddi(_) => self.fddi_icn,
        }
    }

    /// When the congram next needs housekeeping: its setup timer, or
    /// an established PICon's keepalive expiry.
    fn deadline(&self) -> Option<SimTime> {
        match self.setup {
            SetupPhase::Establishing(t) | SetupPhase::Backoff(t) => Some(t),
            SetupPhase::Idle if self.live_picon() => Some(self.last_keepalive + KEEPALIVE_DEADLINE),
            SetupPhase::Idle => None,
        }
    }

    fn live_picon(&self) -> bool {
        self.kind == CongramKind::PICon && self.state == CongramState::Established
    }
}

/// Allocates ICNs on one interface.
#[derive(Debug, Default)]
struct IcnAllocator {
    next: u16,
    free: Vec<u16>,
    /// ICNs a congram installed outside the manager holds: never
    /// handed out, and not pooled when a record that shared one closes.
    reserved: BTreeSet<u16>,
}

impl IcnAllocator {
    /// Allocate the most recently released ICN, else the next unused
    /// one that is not reserved.
    fn alloc(&mut self) -> Result<Icn, CongramError> {
        if let Some(v) = self.free.pop() {
            return Ok(Icn(v));
        }
        while self.next != u16::MAX && self.reserved.contains(&self.next) {
            self.next += 1;
        }
        if self.next == u16::MAX {
            return Err(CongramError::IcnExhausted);
        }
        let v = self.next;
        self.next += 1;
        Ok(Icn(v))
    }

    /// Return an ICN to the pool.
    fn release(&mut self, icn: Icn) {
        if !self.reserved.contains(&icn.0) {
            self.free.push(icn.0);
        }
    }

    /// Keep `icn` out of the pool for good.
    fn reserve(&mut self, icn: Icn) {
        if self.reserved.insert(icn.0) {
            self.free.retain(|&v| v != icn.0);
        }
    }
}

/// A PICon is declared dead after missing three keepalive intervals
/// of 1 s (a conventional choice; the MCHIP companion spec would pin
/// this).
const KEEPALIVE_DEADLINE: SimTime = SimTime::from_secs(3);

/// The per-gateway congram manager (runs on the NPE).
///
/// The live records sit in one `Vec` sorted by id and binary-searched;
/// a wrapped id counter skips the ids still live. The requester's id
/// for a congram maps to the record through one hash lookup.
#[derive(Debug, Default)]
pub struct CongramManager {
    records: Vec<CongramRecord>,
    /// The id the next setup tries first.
    next_id: u32,
    atm_icns: IcnAllocator,
    fddi_icns: IcnAllocator,
    /// Live congrams by their requester's name for them.
    by_peer: HashMap<PeerKey, CongramId>,
    /// Live PICons, so the keepalive scan can skip entirely when none
    /// exist (the common case on a pure data-path gateway).
    picons: usize,
    /// Records whose setup is not `Idle`, so the supervisor's scan can
    /// skip likewise.
    setups: usize,
}

impl CongramManager {
    /// Where congram `id`'s record sits, or where it would go.
    fn find(&self, id: CongramId) -> Result<usize, usize> {
        self.records.binary_search_by_key(&id, |r| r.id)
    }

    fn rec_mut(&mut self, id: CongramId) -> Option<&mut CongramRecord> {
        self.find(id).ok().map(|i| &mut self.records[i])
    }

    /// Begin setting up a congram through this gateway for `requester`,
    /// which calls it `peer_id`: allocates an ICN on each interface and
    /// enters `SetupPending`.
    pub fn begin_setup(
        &mut self,
        kind: CongramKind,
        flow: FlowSpec,
        requester: Requester,
        peer_id: CongramId,
        fddi_dst: FddiAddr,
        now: SimTime,
    ) -> Result<CongramId, CongramError> {
        let key = requester.key(peer_id);
        if self.by_peer.contains_key(&key) {
            return Err(CongramError::PeerIdInUse);
        }
        let atm_icn = self.atm_icns.alloc()?;
        let fddi_icn = match self.fddi_icns.alloc() {
            Ok(icn) => icn,
            Err(e) => {
                self.atm_icns.release(atm_icn);
                return Err(e);
            }
        };
        // The manager holds fewer live congrams than either ICN space,
        // so a free id turns up.
        let (id, at) = loop {
            let id = CongramId(self.next_id);
            self.next_id = self.next_id.wrapping_add(1);
            if let Err(at) = self.find(id) {
                break (id, at);
            }
        };
        self.records.insert(
            at,
            CongramRecord {
                id,
                kind,
                flow,
                state: CongramState::SetupPending,
                atm_icn,
                fddi_icn,
                requester,
                peer_id,
                vci: None,
                fddi_dst,
                last_keepalive: now,
                reserved_bps: None,
                setup: SetupPhase::Idle,
                attempt: 0,
                first_attempt: 0,
            },
        );
        self.by_peer.insert(key, id);
        self.picons += usize::from(kind == CongramKind::PICon);
        Ok(id)
    }

    /// Setup confirmed end to end on ATM VC `vci`: data transfer may
    /// begin, and the setup ends.
    pub fn confirm(&mut self, id: CongramId, vci: Vci) -> Result<(), CongramError> {
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        if r.state != CongramState::SetupPending {
            return Err(CongramError::BadState);
        }
        r.state = CongramState::Established;
        r.vci = Some(vci);
        self.set_setup(id, SetupPhase::Idle);
        Ok(())
    }

    /// Close congram `id` in whatever state it is: end its setup,
    /// release its ICNs and its peer id, and hand back its record —
    /// with the ring reservation to give back. `None` when no such
    /// congram lives.
    pub fn close(&mut self, id: CongramId) -> Option<CongramRecord> {
        let r = self.records.remove(self.find(id).ok()?);
        self.setups -= usize::from(r.setup != SetupPhase::Idle);
        self.picons -= usize::from(r.kind == CongramKind::PICon);
        self.atm_icns.release(r.atm_icn);
        self.fddi_icns.release(r.fddi_icn);
        self.by_peer.remove(&r.requester.key(r.peer_id));
        Some(r)
    }

    /// Begin a path reconfiguration (survivability, §2.4): the old VC
    /// is unbound. The congram stays — it is plesio-reliable, so frames
    /// in flight on the old path may be lost without protocol
    /// violation.
    pub fn begin_reconfigure(&mut self, id: CongramId) -> Result<(), CongramError> {
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        if r.state != CongramState::Established {
            return Err(CongramError::BadState);
        }
        r.state = CongramState::Reconfiguring;
        r.vci = None;
        Ok(())
    }

    /// Complete a reconfiguration onto ATM VC `vci`, ending its setup.
    /// The path moved on the ATM side, so the congram gets a fresh
    /// ATM-side ICN, which is returned.
    pub fn complete_reconfigure(&mut self, id: CongramId, vci: Vci) -> Result<Icn, CongramError> {
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        if r.state != CongramState::Reconfiguring {
            return Err(CongramError::BadState);
        }
        let old = r.atm_icn;
        let icn = self.atm_icns.alloc()?;
        self.atm_icns.release(old);
        let r = self.rec_mut(id).expect("checked above");
        r.atm_icn = icn;
        r.vci = Some(vci);
        r.state = CongramState::Established;
        self.set_setup(id, SetupPhase::Idle);
        Ok(icn)
    }

    /// Move congram `id`'s signaled setup to `phase` and return the
    /// number of its current attempt. Entering `Establishing` issues the
    /// congram's next attempt number; from `Idle` that attempt is the
    /// first of a new setup (or re-establishment).
    pub fn set_setup(&mut self, id: CongramId, phase: SetupPhase) -> u32 {
        let Ok(i) = self.find(id) else { return 0 };
        let r = &mut self.records[i];
        if let SetupPhase::Establishing(_) = phase {
            r.attempt += 1;
            if r.setup == SetupPhase::Idle {
                r.first_attempt = r.attempt;
            }
        }
        self.setups += usize::from(phase != SetupPhase::Idle);
        self.setups -= usize::from(r.setup != SetupPhase::Idle);
        r.setup = phase;
        r.attempt
    }

    /// The congrams whose setup timer is due at `now`, in id order.
    /// With no setup in flight this is a counter check.
    pub fn setups_due(&self, now: SimTime) -> impl Iterator<Item = CongramId> + '_ {
        let records = if self.setups == 0 { &[][..] } else { &self.records[..] };
        records
            .iter()
            .filter(move |r| {
                matches!(r.setup, SetupPhase::Establishing(t) | SetupPhase::Backoff(t) if t <= now)
            })
            .map(|r| r.id)
    }

    /// The earliest setup timer or PICon keepalive expiry.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.setups + self.picons == 0 {
            return None;
        }
        self.records.iter().filter_map(CongramRecord::deadline).min()
    }

    /// Record the ring reservation the resource manager granted.
    pub fn reserve(&mut self, id: CongramId, bps: u64) {
        if let Some(r) = self.rec_mut(id) {
            r.reserved_bps = Some(bps);
        }
    }

    /// Record a keepalive on a PICon.
    pub fn keepalive(&mut self, id: CongramId, now: SimTime) -> Result<(), CongramError> {
        let r = self.rec_mut(id).ok_or(CongramError::Unknown)?;
        r.last_keepalive = now;
        Ok(())
    }

    /// Close the PICons that missed their keepalives (3 intervals) and
    /// return their records in id order. With no live PICons this is a
    /// counter check — data-path-only gateways pay nothing per
    /// housekeeping tick.
    pub fn scan_keepalives(&mut self, now: SimTime) -> Vec<CongramRecord> {
        if self.picons == 0 {
            return Vec::new();
        }
        let expired: Vec<CongramId> = self
            .records
            .iter()
            .filter(|r| {
                r.live_picon() && now.saturating_sub(r.last_keepalive) >= KEEPALIVE_DEADLINE
            })
            .map(|r| r.id)
            .collect();
        // A dead PICon closes immediately (there is no peer to ack).
        expired.into_iter().filter_map(|id| self.close(id)).collect()
    }

    /// Look up a congram record.
    pub fn get(&self, id: CongramId) -> Option<&CongramRecord> {
        self.find(id).ok().map(|i| &self.records[i])
    }

    /// The live congram `requester` calls `peer_id`.
    pub fn by_peer(&self, requester: Requester, peer_id: CongramId) -> Option<CongramId> {
        self.by_peer.get(&requester.key(peer_id)).copied()
    }

    /// The live congrams bound to ATM VC `vci`, in id order.
    pub fn on_vc(&self, vci: Vci) -> impl Iterator<Item = &CongramRecord> + '_ {
        self.records.iter().filter(move |r| r.vci == Some(vci))
    }

    /// A congram was installed on this gateway without a record here,
    /// holding `atm_icn` and `fddi_icn`: no congram set up afterwards
    /// is given either.
    pub fn reserve_icns(&mut self, atm_icn: Icn, fddi_icn: Icn) {
        self.atm_icns.reserve(atm_icn);
        self.fddi_icns.reserve(fddi_icn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: Requester = Requester::Atm(Vci(40));

    fn mgr() -> CongramManager {
        CongramManager::default()
    }

    /// A congram the ATM host calls `peer`.
    fn setup(m: &mut CongramManager, kind: CongramKind, peer: u32) -> CongramId {
        let dst = FddiAddr::station(2);
        m.begin_setup(kind, FlowSpec::cbr(1), HOST, CongramId(peer), dst, SimTime::ZERO).unwrap()
    }

    #[test]
    fn ucon_full_lifecycle() {
        let mut m = mgr();
        let id = setup(&mut m, CongramKind::UCon, 1);
        assert_eq!(m.get(id).unwrap().state, CongramState::SetupPending);
        m.confirm(id, Vci(40)).unwrap();
        assert_eq!(m.get(id).unwrap().state, CongramState::Established);
        assert_eq!(m.get(id).unwrap().vci, Some(Vci(40)));
        assert_eq!(m.close(id).map(|r| r.state), Some(CongramState::Established));
        assert!(m.get(id).is_none(), "a closed congram leaves the manager");
    }

    #[test]
    fn rejected_setup_releases_icns() {
        let mut m = mgr();
        let a = setup(&mut m, CongramKind::UCon, 1);
        let a_icns = (m.get(a).unwrap().atm_icn, m.get(a).unwrap().fddi_icn);
        m.close(a).unwrap();
        let b = setup(&mut m, CongramKind::UCon, 2);
        // Freed ICNs are reused.
        assert_eq!((m.get(b).unwrap().atm_icn, m.get(b).unwrap().fddi_icn), a_icns);
    }

    #[test]
    fn bad_state_transitions_rejected() {
        let mut m = mgr();
        let id = setup(&mut m, CongramKind::UCon, 1);
        assert_eq!(m.begin_reconfigure(id), Err(CongramError::BadState));
        m.confirm(id, Vci(40)).unwrap();
        assert_eq!(m.confirm(id, Vci(40)), Err(CongramError::BadState));
        assert_eq!(m.complete_reconfigure(id, Vci(41)), Err(CongramError::BadState));
        m.close(id).unwrap();
        assert_eq!(m.confirm(id, Vci(40)), Err(CongramError::Unknown), "a closed congram is gone");
    }

    #[test]
    fn distinct_congrams_distinct_icns() {
        let mut m = mgr();
        let ids: Vec<_> = (0..100).map(|peer| setup(&mut m, CongramKind::UCon, peer)).collect();
        let mut atm_icns: Vec<Icn> = ids.iter().map(|&id| m.get(id).unwrap().atm_icn).collect();
        atm_icns.sort();
        atm_icns.dedup();
        assert_eq!(atm_icns.len(), 100);
    }

    #[test]
    fn peer_ids_are_scoped_by_side() {
        let mut m = mgr();
        let station = Requester::Fddi(FddiAddr::station(3));
        let host = setup(&mut m, CongramKind::UCon, 9);
        let dst = FddiAddr::station(3);
        let ring = m
            .begin_setup(
                CongramKind::UCon,
                FlowSpec::cbr(1),
                station,
                CongramId(9),
                dst,
                SimTime::ZERO,
            )
            .unwrap();
        // Any ATM VC names the host's congram; the station names its own.
        assert_eq!(m.by_peer(Requester::Atm(Vci(77)), CongramId(9)), Some(host));
        assert_eq!(m.by_peer(station, CongramId(9)), Some(ring));
        assert_eq!(m.by_peer(Requester::Fddi(FddiAddr::station(4)), CongramId(9)), None);
        // A live id cannot be taken twice; a closed one is free again.
        let again = m.begin_setup(
            CongramKind::UCon,
            FlowSpec::cbr(1),
            HOST,
            CongramId(9),
            dst,
            SimTime::ZERO,
        );
        assert_eq!(again, Err(CongramError::PeerIdInUse));
        m.close(host).unwrap();
        assert_eq!(m.by_peer(HOST, CongramId(9)), None);
        assert_eq!(m.by_peer(station, CongramId(9)), Some(ring));
        assert!(m
            .begin_setup(
                CongramKind::UCon,
                FlowSpec::cbr(1),
                HOST,
                CongramId(9),
                dst,
                SimTime::ZERO
            )
            .is_ok());
    }

    #[test]
    fn reconfiguration_swaps_out_icn() {
        let mut m = mgr();
        let id = setup(&mut m, CongramKind::UCon, 1);
        m.confirm(id, Vci(40)).unwrap();
        let before = *m.get(id).unwrap();
        m.begin_reconfigure(id).unwrap();
        assert_eq!(m.get(id).unwrap().state, CongramState::Reconfiguring);
        assert_eq!(m.on_vc(Vci(40)).count(), 0, "the dead VC is unbound");
        let icn = m.complete_reconfigure(id, Vci(41)).unwrap();
        let after = *m.get(id).unwrap();
        // The path moved on the ATM side: a fresh ATM-side ICN, the
        // same FDDI-side one.
        assert_eq!(after.atm_icn, icn);
        assert_ne!(after.atm_icn, before.atm_icn);
        assert_eq!(after.fddi_icn, before.fddi_icn);
        assert_eq!((after.state, after.vci), (CongramState::Established, Some(Vci(41))));
        assert_eq!(m.on_vc(Vci(41)).map(|r| r.id).collect::<Vec<_>>(), [id]);
    }

    #[test]
    fn picon_keepalive_expiry() {
        let mut m = mgr();
        let p = setup(&mut m, CongramKind::PICon, 1);
        m.confirm(p, Vci(40)).unwrap();
        let u = setup(&mut m, CongramKind::UCon, 2);
        m.confirm(u, Vci(40)).unwrap();
        // Keepalive at 1s keeps it alive through 3.9s.
        m.keepalive(p, SimTime::from_secs(1)).unwrap();
        assert!(m.scan_keepalives(SimTime::from_ms(3900)).is_empty());
        // At 4s, three intervals have passed since the last keepalive.
        assert_eq!(m.next_deadline(), Some(SimTime::from_secs(4)));
        let expired = m.scan_keepalives(SimTime::from_secs(4));
        assert_eq!(expired.iter().map(|r| r.id).collect::<Vec<_>>(), [p]);
        assert!(m.get(p).is_none(), "the dead PICon leaves the manager");
        // UCons are unaffected by keepalive scanning.
        assert_eq!(m.get(u).unwrap().state, CongramState::Established);
    }

    #[test]
    fn setup_attempts_continue_across_setups_and_end_with_the_phase() {
        let mut m = mgr();
        let id = setup(&mut m, CongramKind::UCon, 1);
        let at = |ms| SimTime::from_ms(ms);
        assert_eq!(m.set_setup(id, SetupPhase::Establishing(at(5))), 1);
        assert_eq!(m.next_deadline(), Some(at(5)));
        assert_eq!(m.setups_due(at(4)).count(), 0);
        assert_eq!(m.set_setup(id, SetupPhase::Backoff(at(7))), 1);
        assert_eq!(m.setups_due(at(7)).collect::<Vec<_>>(), [id]);
        // A retry continues the setup; confirming ends it.
        assert_eq!(m.set_setup(id, SetupPhase::Establishing(at(12))), 2);
        assert_eq!(m.get(id).unwrap().first_attempt, 1);
        m.confirm(id, Vci(40)).unwrap();
        assert_eq!((m.get(id).unwrap().setup, m.next_deadline()), (SetupPhase::Idle, None));
        // A re-establishment starts a setup at the next number.
        m.begin_reconfigure(id).unwrap();
        assert_eq!(m.set_setup(id, SetupPhase::Establishing(at(60))), 3);
        assert_eq!(m.get(id).unwrap().first_attempt, 3);
        // Closing a congram ends its setup too.
        let other = setup(&mut m, CongramKind::UCon, 2);
        m.set_setup(other, SetupPhase::Establishing(at(70)));
        assert_eq!(m.close(other).unwrap().setup, SetupPhase::Establishing(at(70)));
        assert_eq!(m.next_deadline(), Some(at(60)));
        m.close(id).unwrap();
        assert_eq!(m.next_deadline(), None);
        assert_eq!(m.setups_due(at(100)).count(), 0);
    }

    #[test]
    fn close_hands_the_reservation_back_once() {
        let mut m = mgr();
        let id = setup(&mut m, CongramKind::UCon, 1);
        m.reserve(id, 5_000);
        m.confirm(id, Vci(40)).unwrap();
        assert_eq!(m.get(id).unwrap().reserved_bps, Some(5_000));
        assert_eq!(m.close(id).unwrap().reserved_bps, Some(5_000));
        assert!(m.close(id).is_none());
    }

    #[test]
    fn a_wrapped_id_counter_skips_live_ids() {
        let mut m = mgr();
        assert_eq!(setup(&mut m, CongramKind::PICon, 1), CongramId(0));
        m.next_id = u32::MAX;
        assert_eq!(setup(&mut m, CongramKind::UCon, 2), CongramId(u32::MAX));
        // The counter wraps to 0, which the PICon still holds.
        assert_eq!(setup(&mut m, CongramKind::UCon, 3), CongramId(1));
        let by_id: Vec<u32> = m.records.iter().map(|r| r.peer_id.0).collect();
        assert_eq!(by_id, [1, 3, 2], "the records stay sorted by id");
    }

    #[test]
    fn allocator_exhaustion_reported() {
        let mut a = IcnAllocator { next: u16::MAX - 1, ..Default::default() };
        assert!(a.alloc().is_ok());
        assert_eq!(a.alloc(), Err(CongramError::IcnExhausted));
        a.release(Icn(5));
        assert_eq!(a.alloc(), Ok(Icn(5)));
    }

    #[test]
    fn reserved_icns_are_never_allocated() {
        let mut m = CongramManager::default();
        m.reserve_icns(Icn(0), Icn(1));
        m.reserve_icns(Icn(2), Icn(3));
        let a = setup(&mut m, CongramKind::UCon, 1);
        let b = setup(&mut m, CongramKind::UCon, 2);
        let icns = |m: &CongramManager, id| {
            let r = m.get(id).unwrap();
            (r.atm_icn, r.fddi_icn)
        };
        assert_eq!(icns(&m, a), (Icn(1), Icn(0)));
        assert_eq!(icns(&m, b), (Icn(3), Icn(2)));
        // Reserving an ICN that sits in the pool takes it out; one that
        // a live congram holds is not pooled when that congram closes.
        m.close(a).unwrap();
        m.reserve_icns(Icn(1), Icn(2));
        m.close(b).unwrap();
        let c = setup(&mut m, CongramKind::UCon, 3);
        assert_eq!(icns(&m, c), (Icn(3), Icn(0)));
        let d = setup(&mut m, CongramKind::UCon, 4);
        assert_eq!(icns(&m, d), (Icn(4), Icn(4)));
    }
}
