//! The Node Processing Element — the software control path (§4.3).
//!
//! "The NPE can be implemented using a standard microprocessor. It will
//! run software implementations of the ATM signaling protocol, the FDDI
//! connection and station management, and the MCHIP congram management.
//! The NPE also performs housekeeping functions… processing interrupts,
//! initializing various chips, and configuring the synchronous and
//! asynchronous queues" (§4.3).
//!
//! The NPE consumes control frames from the MPP's FIFOs and produces
//! **actions**: control frames to send, initialization frames that
//! program the SPP (reassembly timers) and MPP (ICXT entries, fixed
//! header register), and signaling requests toward the ATM network.
//! Every action carries a completion time `now + control latency` —
//! this is precisely the non-critical path whose cost experiment E13
//! contrasts with the hardware data path.
//!
//! Congram setup through the gateway: the NPE is the FDDI ring's
//! designated resource manager (§2.3), so for congrams entering the
//! ring it decides admission locally and replies with confirm/reject;
//! FDDI destinations are passive receivers. For congrams leaving
//! toward the ATM network, the NPE must first run ATM signaling — it
//! emits [`NpeAction::RequestAtmConnection`] and completes the congram
//! when the harness reports the VC with
//! [`Npe::atm_connection_ready`] / [`Npe::atm_connection_failed`].
//!
//! The NPE supervises those setups by the policy in
//! [`crate::supervisor`]. Their state lives in each congram's record:
//!
//! ```text
//! Idle ──request──▶ Establishing ──confirm──▶ Idle (congram up)
//!                    │  ▲
//!   watchdog / reject│  │backoff elapsed: next attempt
//!                    ▼  │
//!                   Backoff
//! budget spent ──▶ Idle (record closed; SetupReject toward the requester)
//! ```
//!
//! `Npe::scan` runs PICon keepalive expiries and then the setup timers,
//! each in congram-id order; with no PICon and no setup in flight it
//! touches no record.
//!
//! A congram's record lives in one of three states (`SetupPending`,
//! `Established`, `Reconfiguring`). Closing it is one call that takes
//! the record out of the congram manager and hands it back, so its
//! ring reservation and ICXT entries go from what it held.

use crate::mpp::{self, FixedHeader, IcxtAEntry, IcxtFEntry, MppInitOp};
use crate::spp;
use crate::supervisor::{backoff_delay, JITTER_SEED, RETRY_BUDGET, SETUP_WATCHDOG};
use gw_mchip::congram::{
    CongramId, CongramManager, CongramRecord, FlowSpec, Requester, SetupPhase,
};
use gw_mchip::messages::ControlPayload;
use gw_mchip::resman::{AdmitDecision, ResourceManager};
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, Vpi};
use gw_wire::fddi::{FddiAddr, FrameControl};
use gw_wire::mchip::Icn;
use std::collections::HashMap;

/// Inputs the NPE processes.
#[derive(Debug, Clone)]
pub enum NpeInput {
    /// A control frame that arrived from the ATM side (via SPP → MPP →
    /// NPE FIFO), with the VCI it arrived on.
    ControlFromAtm {
        /// The MCHIP control frame.
        frame: Vec<u8>,
        /// Arrival VCI (binds the congram to its ATM VC).
        arrival_vci: Vci,
    },
    /// A control frame that arrived from the FDDI side.
    ControlFromFddi {
        /// The MCHIP control frame.
        frame: Vec<u8>,
        /// The requesting station.
        src: FddiAddr,
    },
    /// An FDDI station-management frame (counted; SMT proper is beyond
    /// the paper's scope — "Station and connection management are not
    /// implemented in the SUPERNET chip set", §4.3).
    Smt,
}

/// Actions the NPE instructs the gateway to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NpeAction {
    /// Send an MCHIP control frame out the ATM side on `vci`.
    SendControlToAtm {
        /// When the NPE finished composing it.
        at: SimTime,
        /// VCI to send on.
        vci: Vci,
        /// The control frame.
        frame: Vec<u8>,
    },
    /// Send an MCHIP control frame out the FDDI side.
    SendControlToFddi {
        /// When the NPE finished composing it.
        at: SimTime,
        /// Destination station.
        dst: FddiAddr,
        /// The control frame.
        frame: Vec<u8>,
    },
    /// Program the MPP with an initialization payload.
    ProgramMpp {
        /// When programming completes.
        at: SimTime,
        /// `Init`-frame payload (`mpp::encode_mpp_init`).
        payload: Vec<u8>,
    },
    /// Program the SPP with an initialization payload.
    ProgramSpp {
        /// When programming completes.
        at: SimTime,
        /// `Init`-frame payload (`spp::encode_init`).
        payload: Vec<u8>,
    },
    /// Run ATM signaling to establish a VC for a congram heading into
    /// the ATM network.
    RequestAtmConnection {
        /// When the request leaves the NPE.
        at: SimTime,
        /// The congram awaiting the VC.
        congram: CongramId,
        /// Which attempt this is (1-based); the answer must name it.
        attempt: u32,
        /// Peak rate to reserve.
        peak_bps: u64,
        /// Mean rate.
        mean_bps: u64,
    },
    /// Release an ATM VC this gateway signaled for (its congram was
    /// quarantined, or no congram awaited it).
    ReleaseAtmConnection {
        /// When the release leaves the NPE.
        at: SimTime,
        /// The VC being released.
        vci: Vci,
    },
}

/// NPE counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NpeStats {
    /// Control frames processed.
    pub control_frames: u64,
    /// Congrams admitted and established.
    pub setups_confirmed: u64,
    /// Setups refused (admission or unknown destination).
    pub setups_rejected: u64,
    /// Teardowns completed.
    pub teardowns: u64,
    /// SMT frames counted.
    pub smt_frames: u64,
    /// Signaling attempts re-issued after a watchdog fire or an
    /// explicit rejection (supervisor retries).
    pub setup_retries: u64,
    /// Setups abandoned after the retry budget was exhausted (a subset
    /// of [`NpeStats::setups_rejected`]).
    pub setups_failed: u64,
    /// Bound congrams whose VC was quarantined by the liveness monitor.
    pub vcs_quarantined: u64,
    /// Quarantined congrams for which re-establishment was started.
    pub reestablishments: u64,
    /// Setup watchdogs that fired (attempt presumed lost).
    pub watchdog_fires: u64,
}

/// Reject reason codes carried in `SetupReject` (implementation
/// defined; the companion spec would pin these).
pub mod reject_codes {
    /// Destination not in the host table.
    pub(crate) const UNKNOWN_DEST: u16 = 1;
    /// Resource manager refused admission, or the congram could not be
    /// recorded (no free ICN, or the requester's id is already live).
    pub(crate) const ADMISSION: u16 = 2;
    /// ATM signaling failed.
    pub(crate) const ATM_SIGNALING: u16 = 3;
}

/// The NPE.
#[derive(Debug)]
pub struct Npe {
    congrams: CongramManager,
    resman: ResourceManager,
    host_table: HashMap<[u8; 8], FddiAddr>,
    latency: SimTime,
    gateway_fddi_addr: FddiAddr,
    stats: NpeStats,
    /// The setup backoff's jitter stream.
    jitter: SimRng,
    /// The reassembly timeout it programs for the VC of a congram it
    /// sets up (§5.3): 10 ms, unless its gateway configures another
    /// (this programming is all that opens a signalled VC).
    pub(crate) reassembly_timeout: SimTime,
}

/// A control frame toward `to`.
fn send(at: SimTime, to: Requester, frame: Vec<u8>) -> NpeAction {
    match to {
        Requester::Atm(vci) => NpeAction::SendControlToAtm { at, vci, frame },
        Requester::Fddi(dst) => NpeAction::SendControlToFddi { at, dst, frame },
    }
}

/// Clear the congram's two ICXT entries.
fn clear(at: SimTime, r: &CongramRecord) -> NpeAction {
    NpeAction::ProgramMpp {
        at,
        payload: mpp::encode_mpp_init(&[MppInitOp::Clear {
            f_icn: Some(r.atm_icn),
            a_icn: Some(r.fddi_icn),
        }]),
    }
}

/// Ask for an ATM VC for congram `id`, as the numbered attempt.
fn request_vc(at: SimTime, id: CongramId, attempt: u32, flow: FlowSpec) -> NpeAction {
    NpeAction::RequestAtmConnection {
        at,
        congram: id,
        attempt,
        peak_bps: flow.peak_bps,
        mean_bps: flow.mean_bps,
    }
}

impl Npe {
    /// An NPE managing `fddi_capacity_bps` of ring capacity, with the
    /// given per-message software latency.
    pub fn new(gateway_fddi_addr: FddiAddr, fddi_capacity_bps: u64, latency: SimTime) -> Npe {
        Npe {
            congrams: CongramManager::default(),
            resman: ResourceManager::new(fddi_capacity_bps),
            host_table: HashMap::new(),
            latency,
            gateway_fddi_addr,
            stats: NpeStats::default(),
            jitter: SimRng::new(JITTER_SEED),
            reassembly_timeout: SimTime::from_ms(10),
        }
    }

    /// Register an internet destination address as reachable at an FDDI
    /// station (the route server's job in a full VHSI deployment).
    pub fn add_host(&mut self, dest: [u8; 8], addr: FddiAddr) {
        self.host_table.insert(dest, addr);
    }

    /// A congram was programmed into the ICXTs without the NPE
    /// (`Gateway::install_congram`): no congram the NPE sets up is given
    /// its ICNs.
    pub(crate) fn reserve_icns(&mut self, atm_icn: Icn, fddi_icn: Icn) {
        self.congrams.reserve_icns(atm_icn, fddi_icn);
    }

    /// Disable FDDI-side admission control (the E11 baseline).
    pub fn set_admission_bypass(&mut self, bypass: bool) {
        self.resman.bypass = bypass;
    }

    /// The actions that initialize the gateway hardware at power-up:
    /// the MPP's fixed FDDI header register (§6.1).
    pub(crate) fn init_actions(&self, now: SimTime) -> Vec<NpeAction> {
        let at = now + self.latency;
        vec![NpeAction::ProgramMpp {
            at,
            payload: mpp::encode_mpp_init(&[MppInitOp::SetFixed {
                fixed: FixedHeader {
                    fc: FrameControl::LlcAsync { priority: 0 },
                    src: self.gateway_fddi_addr,
                },
            }]),
        }]
    }

    /// Process one input; returns the actions, all stamped at
    /// `now + latency`.
    pub fn handle(&mut self, now: SimTime, input: NpeInput) -> Vec<NpeAction> {
        let (frame, from) = match input {
            NpeInput::Smt => {
                self.stats.smt_frames += 1;
                return Vec::new();
            }
            NpeInput::ControlFromAtm { frame, arrival_vci } => (frame, Requester::Atm(arrival_vci)),
            NpeInput::ControlFromFddi { frame, src } => (frame, Requester::Fddi(src)),
        };
        self.stats.control_frames += 1;
        let Ok((header, payload)) = gw_wire::mchip::parse_frame(&frame) else {
            return Vec::new();
        };
        let Ok(ctrl) = ControlPayload::decode(header.mtype, payload) else {
            return Vec::new();
        };
        let at = now + self.latency;
        match ctrl {
            ControlPayload::SetupRequest { congram, kind, flow, dest } => match from {
                // The congram enters the ring, and the NPE is the ring's
                // designated resource manager (§2.3): it admits locally.
                // The VC the request arrived on carries the data.
                Requester::Atm(vci) => {
                    let Some(&fddi_dst) = self.host_table.get(&dest) else {
                        return self.reject(at, from, congram, reject_codes::UNKNOWN_DEST);
                    };
                    let Ok(id) =
                        self.congrams.begin_setup(kind, flow, from, congram, fddi_dst, now)
                    else {
                        return self.reject(at, from, congram, reject_codes::ADMISSION);
                    };
                    if self.resman.admit(&flow) != AdmitDecision::Admitted {
                        self.congrams.close(id);
                        return self.reject(at, from, congram, reject_codes::ADMISSION);
                    }
                    self.congrams.reserve(id, flow.peak_bps);
                    let _ = self.congrams.confirm(id, vci);
                    self.stats.setups_confirmed += 1;
                    self.install(at, id)
                }
                // The congram heads into the ATM network: the NPE must
                // run ATM signaling first.
                Requester::Fddi(src) => {
                    let Ok(id) = self.congrams.begin_setup(kind, flow, from, congram, src, now)
                    else {
                        return self.reject(at, from, congram, reject_codes::ADMISSION);
                    };
                    let attempt = self.begin_attempts(now, id);
                    vec![request_vc(at, id, attempt, flow)]
                }
            },
            ControlPayload::Teardown { congram } => self.teardown(at, from, congram),
            ControlPayload::Keepalive { congram } => {
                if let Some(id) = self.named(from, congram) {
                    let _ = self.congrams.keepalive(id, now);
                }
                Vec::new()
            }
            // Responder-side types (confirm/reject/ack land at the
            // requesting host, not here) and advisory reports are
            // ignored — named explicitly so a new control type is a
            // build break, not a silent drop.
            ControlPayload::SetupConfirm { .. }
            | ControlPayload::SetupReject { .. }
            | ControlPayload::TeardownAck { .. }
            | ControlPayload::Reconfigure { .. }
            | ControlPayload::ResourceReport { .. } => Vec::new(),
        }
    }

    /// The live congram a control frame from `from` names `peer`. A
    /// requester names its own congrams: ATM-side ids share one
    /// namespace and FDDI-side ids are scoped by station. A station may
    /// also name a congram an ATM host set up into the ring, by the
    /// host's id.
    fn named(&self, from: Requester, peer: CongramId) -> Option<CongramId> {
        self.congrams.by_peer(from, peer).or_else(|| match from {
            Requester::Fddi(_) => self.congrams.by_peer(Requester::Atm(Vci(0)), peer),
            Requester::Atm(_) => None,
        })
    }

    /// Refuse a setup: count it and answer the requester.
    fn reject(
        &mut self,
        at: SimTime,
        to: Requester,
        peer: CongramId,
        reason: u16,
    ) -> Vec<NpeAction> {
        self.stats.setups_rejected += 1;
        vec![send(at, to, ControlPayload::SetupReject { congram: peer, reason }.to_frame(Icn(0)))]
    }

    /// Program a congram's data path and confirm it to the requester
    /// with the ICN its frames must carry: the VC's reassembly timer,
    /// and the two ICXT entries (§6.1) — ICXT-F at the ATM-side ICN
    /// toward the ring, ICXT-A at the FDDI-side ICN toward the VC.
    fn install(&self, at: SimTime, id: CongramId) -> Vec<NpeAction> {
        let Some(&r) = self.congrams.get(id) else { return Vec::new() };
        let Some(vci) = r.vci else { return Vec::new() };
        let icn = r.requester_icn();
        let reassembly = [(vci, self.reassembly_timeout)];
        vec![
            NpeAction::ProgramSpp { at, payload: spp::encode_init(&reassembly) },
            NpeAction::ProgramMpp {
                at,
                payload: mpp::encode_mpp_init(&[
                    MppInitOp::SetF {
                        in_icn: r.atm_icn,
                        entry: IcxtFEntry { out_icn: r.fddi_icn, fddi_dst: r.fddi_dst },
                    },
                    MppInitOp::SetA {
                        in_icn: r.fddi_icn,
                        entry: IcxtAEntry {
                            out_icn: r.atm_icn,
                            atm_header: AtmHeader::data(Vpi(0), vci),
                        },
                    },
                ]),
            },
            send(
                at,
                r.requester,
                ControlPayload::SetupConfirm { congram: r.peer_id, assigned_icn: icn }
                    .to_frame(icn),
            ),
        ]
    }

    /// Close congram `id`, giving its ring reservation back.
    fn close(&mut self, id: CongramId) -> Option<CongramRecord> {
        let r = self.congrams.close(id)?;
        if let Some(bps) = r.reserved_bps {
            self.resman.release(bps);
        }
        Some(r)
    }

    /// Start supervising a signaled setup (or re-establishment) of `id`;
    /// returns the number its first attempt carries.
    fn begin_attempts(&mut self, now: SimTime, id: CongramId) -> u32 {
        self.congrams.set_setup(id, SetupPhase::Establishing(now + SETUP_WATCHDOG))
    }

    /// True when `attempt` is `id`'s attempt in flight: an answer to
    /// any other is stale.
    fn awaits(&self, id: CongramId, attempt: u32) -> bool {
        self.congrams.get(id).is_some_and(|r| r.setup != SetupPhase::Idle && r.attempt == attempt)
    }

    /// The attempt of `id`'s setup in flight failed at `at`: back off
    /// toward the next one, or — budget spent — return false.
    fn back_off(&mut self, at: SimTime, id: CongramId) -> bool {
        let Some(r) = self.congrams.get(id) else { return false };
        let ordinal = r.attempt - r.first_attempt + 1;
        if ordinal > RETRY_BUDGET {
            return false;
        }
        let until = at + backoff_delay(ordinal, &mut self.jitter);
        self.congrams.set_setup(id, SetupPhase::Backoff(until));
        true
    }

    /// ATM signaling succeeded for the numbered attempt of a congram
    /// requested from the FDDI side: program the chips and confirm to
    /// the requester. An answer no congram awaits releases its VC.
    pub fn atm_connection_ready(
        &mut self,
        now: SimTime,
        congram: CongramId,
        attempt: u32,
        vci: Vci,
    ) -> Vec<NpeAction> {
        if !self.awaits(congram, attempt) {
            // A stale answer: its VC goes back, unless a live congram is
            // bound to it (a duplicate of the answer that completed it).
            if self.congrams.on_vc(vci).next().is_some() {
                return Vec::new();
            }
            return vec![NpeAction::ReleaseAtmConnection { at: now + self.latency, vci }];
        }
        // A quarantined congram completes its reconfiguration (§2.4
        // survivability — the new path gets a fresh ATM-side ICN); a
        // fresh setup confirms. Either ends the setup.
        if self.congrams.complete_reconfigure(congram, vci).is_ok() {
            self.stats.reestablishments += 1;
        } else if self.congrams.confirm(congram, vci).is_ok() {
            self.stats.setups_confirmed += 1;
        }
        self.install(now + self.latency, congram)
    }

    /// ATM signaling failed for the numbered attempt. For the congram's
    /// attempt in flight, a retry is scheduled (exponential backoff with
    /// jitter, re-issued from `Npe::scan`); once the budget is spent the
    /// setup is rejected back to the requester. A failure of any other
    /// attempt is ignored.
    pub fn atm_connection_failed(
        &mut self,
        now: SimTime,
        congram: CongramId,
        attempt: u32,
    ) -> Vec<NpeAction> {
        if !self.awaits(congram, attempt) || self.back_off(now, congram) {
            return Vec::new();
        }
        self.final_setup_failure(now, congram)
    }

    /// The setup is dead: release its state and reject to the requester.
    /// No ICXT entries to clear: a setup still being signaled never had
    /// its data path programmed (a quarantined congram's entries were
    /// already cleared by [`Npe::vc_quarantined`]).
    fn final_setup_failure(&mut self, now: SimTime, congram: CongramId) -> Vec<NpeAction> {
        let Some(r) = self.close(congram) else { return Vec::new() };
        self.stats.setups_failed += 1;
        self.reject(now + self.latency, r.requester, r.peer_id, reject_codes::ATM_SIGNALING)
    }

    fn teardown(&mut self, at: SimTime, from: Requester, peer: CongramId) -> Vec<NpeAction> {
        let Some(id) = self.named(from, peer) else { return Vec::new() };
        let Some(r) = self.close(id) else { return Vec::new() };
        self.stats.teardowns += 1;
        let ack = ControlPayload::TeardownAck { congram: peer }.to_frame(r.requester_icn());
        vec![clear(at, &r), send(at, r.requester, ack)]
    }

    /// Periodic scan: PICon keepalive expiry releases resources, then
    /// the setup watchdog and backoff timers run.
    pub(crate) fn scan(&mut self, now: SimTime) -> Vec<NpeAction> {
        let at = now + self.latency;
        let mut actions = Vec::new();
        for r in self.congrams.scan_keepalives(now) {
            if let Some(bps) = r.reserved_bps {
                self.resman.release(bps);
            }
            actions.push(clear(at, &r));
        }
        let due: Vec<CongramId> = self.congrams.setups_due(now).collect();
        for id in due {
            let Some(&r) = self.congrams.get(id) else { continue };
            // The watchdog presumes the attempt lost: exactly like a
            // rejection at its deadline.
            if let SetupPhase::Establishing(deadline) = r.setup {
                self.stats.watchdog_fires += 1;
                if !self.back_off(deadline, id) {
                    actions.extend(self.final_setup_failure(now, id));
                    continue;
                }
            }
            // A backoff that has elapsed — perhaps the one just entered —
            // issues the next attempt.
            match self.congrams.get(id).map(|r| r.setup) {
                Some(SetupPhase::Backoff(until)) if until <= now => {
                    let next = SetupPhase::Establishing(until + SETUP_WATCHDOG);
                    let attempt = self.congrams.set_setup(id, next);
                    self.stats.setup_retries += 1;
                    actions.push(request_vc(at, id, attempt, r.flow));
                }
                _ => {}
            }
        }
        actions
    }

    /// Earliest time `Npe::scan` has work to do: a setup timer or a
    /// PICon's keepalive expiry.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.congrams.next_deadline()
    }

    /// The liveness monitor quarantined `vci`. Every congram bound to
    /// it, in id order, has its ICXT entries cleared and is either
    /// re-established (this gateway signaled the VC — begin a
    /// reconfiguration, release the dead VC, and request a fresh one
    /// under supervision) or torn down with the ATM peer notified (the
    /// VC was the peer's).
    pub(crate) fn vc_quarantined(&mut self, now: SimTime, vci: Vci) -> Vec<NpeAction> {
        let at = now + self.latency;
        let bound: Vec<CongramRecord> = self.congrams.on_vc(vci).copied().collect();
        let mut actions = Vec::new();
        for r in bound {
            self.stats.vcs_quarantined += 1;
            actions.push(clear(at, &r));
            match r.requester {
                Requester::Fddi(_) => {
                    // This gateway owns the VC: release it and
                    // re-establish the congram on a fresh one. Data
                    // transfer pauses but the congram survives
                    // (plesio-reliability, §2.4).
                    let _ = self.congrams.begin_reconfigure(r.id);
                    let attempt = self.begin_attempts(now, r.id);
                    actions.push(NpeAction::ReleaseAtmConnection { at, vci });
                    actions.push(request_vc(at, r.id, attempt, r.flow));
                }
                Requester::Atm(ctrl_vci) => {
                    // The peer owns the VC: the congram cannot be
                    // rebuilt from this side. Tear it down and tell the
                    // peer.
                    self.close(r.id);
                    self.stats.teardowns += 1;
                    let frame = ControlPayload::Teardown { congram: r.peer_id }.to_frame(r.atm_icn);
                    actions.push(NpeAction::SendControlToAtm { at, vci: ctrl_vci, frame });
                }
            }
        }
        actions
    }

    /// The FDDI-side resource manager (inspection).
    pub fn resource_manager(&self) -> &ResourceManager {
        &self.resman
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NpeStats {
        self.stats
    }

    /// The NPE's software latency per message.
    pub fn latency(&self) -> SimTime {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_mchip::congram::CongramKind;
    use gw_wire::mchip::MchipType;

    const DEST: [u8; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

    fn npe() -> Npe {
        let mut n = Npe::new(FddiAddr::station(0), 40_000_000, SimTime::from_us(200));
        n.add_host(DEST, FddiAddr::station(5));
        n
    }

    fn setup_frame(peer: u32, mbps: u64) -> Vec<u8> {
        ControlPayload::SetupRequest {
            congram: CongramId(peer),
            kind: CongramKind::UCon,
            flow: FlowSpec::cbr(mbps * 1_000_000),
            dest: DEST,
        }
        .to_frame(Icn(0))
    }

    #[test]
    fn setup_from_atm_confirms_and_programs() {
        let mut n = npe();
        let actions = n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromAtm { frame: setup_frame(7, 10), arrival_vci: Vci(42) },
        );
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], NpeAction::ProgramSpp { .. }));
        assert!(matches!(actions[1], NpeAction::ProgramMpp { .. }));
        match &actions[2] {
            NpeAction::SendControlToAtm { at, vci, frame } => {
                assert_eq!(*vci, Vci(42));
                assert_eq!(*at, SimTime::from_us(200), "software latency applied");
                let (h, p) = gw_wire::mchip::parse_frame(frame).unwrap();
                assert_eq!(h.mtype, MchipType::SetupConfirm);
                let ControlPayload::SetupConfirm { congram, .. } =
                    ControlPayload::decode(h.mtype, p).unwrap()
                else {
                    panic!()
                };
                assert_eq!(congram, CongramId(7), "peer's id echoed");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(n.stats().setups_confirmed, 1);
        assert_eq!(n.resource_manager().active(), 1);
    }

    #[test]
    fn unknown_destination_rejected() {
        let mut n = Npe::new(FddiAddr::station(0), 40_000_000, SimTime::from_us(200));
        let actions = n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromAtm { frame: setup_frame(1, 1), arrival_vci: Vci(9) },
        );
        assert_eq!(actions.len(), 1);
        let NpeAction::SendControlToAtm { frame, .. } = &actions[0] else { panic!() };
        let (h, p) = gw_wire::mchip::parse_frame(frame).unwrap();
        let ControlPayload::SetupReject { reason, .. } =
            ControlPayload::decode(h.mtype, p).unwrap()
        else {
            panic!()
        };
        assert_eq!(reason, reject_codes::UNKNOWN_DEST);
        assert_eq!(n.stats().setups_rejected, 1);
    }

    #[test]
    fn admission_control_rejects_when_full() {
        let mut n = npe(); // 40 Mb/s of ring capacity
        let a1 = n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromAtm { frame: setup_frame(1, 30), arrival_vci: Vci(1) },
        );
        assert_eq!(a1.len(), 3, "first congram admitted");
        let a2 = n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromAtm { frame: setup_frame(2, 30), arrival_vci: Vci(2) },
        );
        assert_eq!(a2.len(), 1, "second refused: 60 > 40 Mb/s");
        let NpeAction::SendControlToAtm { frame, .. } = &a2[0] else { panic!() };
        let (h, p) = gw_wire::mchip::parse_frame(frame).unwrap();
        assert!(matches!(
            ControlPayload::decode(h.mtype, p).unwrap(),
            ControlPayload::SetupReject { reason: reject_codes::ADMISSION, .. }
        ));
    }

    #[test]
    fn bypass_admits_everything() {
        let mut n = npe();
        n.set_admission_bypass(true);
        for i in 0..10 {
            let a = n.handle(
                SimTime::ZERO,
                NpeInput::ControlFromAtm {
                    frame: setup_frame(i, 30),
                    arrival_vci: Vci(i as u16 + 1),
                },
            );
            assert_eq!(a.len(), 3, "congram {i} admitted in bypass mode");
        }
        assert!(n.resource_manager().utilization() > 1.0);
    }

    #[test]
    fn teardown_releases_and_acks() {
        let mut n = npe();
        n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromAtm { frame: setup_frame(5, 10), arrival_vci: Vci(3) },
        );
        assert_eq!(n.resource_manager().active(), 1);
        let td = ControlPayload::Teardown { congram: CongramId(5) }.to_frame(Icn(0));
        let actions = n.handle(
            SimTime::from_ms(1),
            NpeInput::ControlFromAtm { frame: td, arrival_vci: Vci(3) },
        );
        assert_eq!(n.resource_manager().active(), 0);
        assert!(matches!(actions[0], NpeAction::ProgramMpp { .. }), "entries cleared");
        let NpeAction::SendControlToAtm { frame, .. } = &actions[1] else { panic!() };
        let (h, _) = gw_wire::mchip::parse_frame(frame).unwrap();
        assert_eq!(h.mtype, MchipType::TeardownAck);
        assert_eq!(n.stats().teardowns, 1);
    }

    #[test]
    fn fddi_side_setup_requests_atm_signaling_then_confirms() {
        let mut n = npe();
        let requester = FddiAddr::station(8);
        let actions = n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromFddi { frame: setup_frame(9, 5), src: requester },
        );
        assert_eq!(actions.len(), 1);
        let NpeAction::RequestAtmConnection { congram, peak_bps, .. } = actions[0] else {
            panic!("{actions:?}")
        };
        assert_eq!(peak_bps, 5_000_000);
        // Harness completes signaling.
        let done = n.atm_connection_ready(SimTime::from_ms(2), congram, 1, Vci(77));
        assert_eq!(done.len(), 3);
        let NpeAction::SendControlToFddi { dst, frame, .. } = &done[2] else { panic!() };
        assert_eq!(*dst, requester);
        let (h, p) = gw_wire::mchip::parse_frame(frame).unwrap();
        let ControlPayload::SetupConfirm { congram: peer, .. } =
            ControlPayload::decode(h.mtype, p).unwrap()
        else {
            panic!()
        };
        assert_eq!(peer, CongramId(9));
        assert_eq!(n.stats().setups_confirmed, 1);
    }

    #[test]
    fn fddi_side_setup_failure_rejects() {
        let mut n = npe();
        let actions = n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromFddi { frame: setup_frame(4, 5), src: FddiAddr::station(8) },
        );
        let NpeAction::RequestAtmConnection { congram, .. } = actions[0] else { panic!() };
        // Every attempt the budget allows is refused.
        let failed = refuse_every_attempt(&mut n, congram);
        let NpeAction::SendControlToFddi { frame, .. } = &failed[0] else { panic!() };
        let (h, p) = gw_wire::mchip::parse_frame(frame).unwrap();
        assert!(matches!(
            ControlPayload::decode(h.mtype, p).unwrap(),
            ControlPayload::SetupReject { reason: reject_codes::ATM_SIGNALING, .. }
        ));
    }

    #[test]
    fn smt_frames_counted() {
        let mut n = npe();
        assert!(n.handle(SimTime::ZERO, NpeInput::Smt).is_empty());
        assert_eq!(n.stats().smt_frames, 1);
    }

    #[test]
    fn init_actions_program_fixed_header() {
        let n = Npe::new(FddiAddr::station(55), 1, SimTime::from_us(100));
        let actions = n.init_actions(SimTime::ZERO);
        let NpeAction::ProgramMpp { at, payload } = &actions[0] else { panic!() };
        assert_eq!(*at, SimTime::from_us(100));
        let ops = mpp::decode_mpp_init(payload).unwrap();
        assert!(matches!(
            ops[0],
            MppInitOp::SetFixed { fixed } if fixed.src == FddiAddr::station(55)
        ));
    }

    /// The setup attempts `actions` request.
    fn requests(actions: &[NpeAction]) -> Vec<(CongramId, u32)> {
        actions
            .iter()
            .filter_map(|a| match *a {
                NpeAction::RequestAtmConnection { congram, attempt, .. } => {
                    Some((congram, attempt))
                }
                _ => None,
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A scan before the NPE's next deadline has nothing to do: over
        /// random set-ups from either side, refusals that back off,
        /// confirmations and PICons, a scan at any time short of
        /// `next_deadline()` returns no action and leaves the whole NPE
        /// — records, stats, resource manager, jitter stream — as it
        /// was. That is what lets the gateway skip it.
        #[test]
        fn a_scan_before_the_next_deadline_does_nothing(
            ops in proptest::collection::vec((0u8..6, 0u64..3_000_000, 0usize..8), 1..40),
        ) {
            let mut n = npe();
            let mut t = SimTime::ZERO;
            let mut pending: Vec<(CongramId, u32)> = Vec::new();
            let mut peer = 0;
            for (kind, dt_us, pick) in ops {
                t += SimTime::from_us(dt_us);
                peer += 1;
                let kinds = [CongramKind::UCon, CongramKind::PICon];
                let setup = ControlPayload::SetupRequest {
                    congram: CongramId(peer),
                    kind: kinds[pick % 2],
                    flow: FlowSpec::cbr(1_000_000),
                    dest: DEST,
                }
                .to_frame(Icn(0));
                match kind {
                    0 => {
                        let src = FddiAddr::station(6);
                        let actions = n.handle(t, NpeInput::ControlFromFddi { frame: setup, src });
                        pending.extend(requests(&actions));
                    }
                    1 => {
                        let arrival_vci = Vci(64 + peer as u16);
                        n.handle(t, NpeInput::ControlFromAtm { frame: setup, arrival_vci });
                    }
                    2 if !pending.is_empty() => {
                        let (congram, attempt) = pending.remove(pick % pending.len());
                        n.atm_connection_failed(t, congram, attempt);
                    }
                    3 if !pending.is_empty() => {
                        let (congram, attempt) = pending.remove(pick % pending.len());
                        n.atm_connection_ready(t, congram, attempt, Vci(200 + peer as u16));
                    }
                    _ => {
                        if n.next_deadline().is_some_and(|d| d <= t) {
                            let actions = n.scan(t);
                            pending.extend(requests(&actions));
                        }
                    }
                }
                let short: Vec<SimTime> = match n.next_deadline() {
                    None => vec![t, t + SimTime::from_secs(60)],
                    Some(d) if d > t => {
                        let before = SimTime::from_ns(d.as_ns() - 1);
                        vec![t, SimTime::from_ns((t.as_ns() + d.as_ns()) / 2), before]
                    }
                    Some(_) => vec![],
                };
                for now in short {
                    let before = format!("{n:?}");
                    let actions = n.scan(now);
                    proptest::prop_assert!(actions.is_empty(), "at {:?}: {:?}", now, actions);
                    proptest::prop_assert_eq!(format!("{n:?}"), before);
                }
            }
        }
    }

    #[test]
    fn keepalive_scan_releases_dead_picons() {
        let mut n = npe();
        // A PICon from the ATM side.
        let setup = ControlPayload::SetupRequest {
            congram: CongramId(1),
            kind: CongramKind::PICon,
            flow: FlowSpec::cbr(1_000_000),
            dest: DEST,
        }
        .to_frame(Icn(0));
        n.handle(SimTime::ZERO, NpeInput::ControlFromAtm { frame: setup, arrival_vci: Vci(2) });
        assert_eq!(n.resource_manager().active(), 1);
        assert_eq!(n.next_deadline(), Some(SimTime::from_secs(3)), "the keepalive expiry");
        // No keepalives for > 3 seconds.
        let actions = n.scan(SimTime::from_secs(4));
        assert_eq!(actions.len(), 1, "dead PICon cleared from the MPP");
        assert_eq!(n.resource_manager().active(), 0);
    }

    /// The attempts a scan at `t` re-issues.
    fn retries(n: &mut Npe, t: SimTime) -> Vec<u32> {
        let actions = n.scan(t);
        actions
            .iter()
            .filter_map(|a| match a {
                NpeAction::RequestAtmConnection { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect()
    }

    /// Refuse each attempt of `congram`'s setup as it is issued, at
    /// 100 ms intervals, until the budget is spent; returns what the
    /// last refusal emits.
    fn refuse_every_attempt(n: &mut Npe, congram: CongramId) -> Vec<NpeAction> {
        for attempt in 1..=RETRY_BUDGET {
            let t = SimTime::from_ms(100 * attempt as u64);
            assert!(n.atm_connection_failed(t, congram, attempt).is_empty());
            assert_eq!(retries(n, t + SimTime::from_ms(60)), [attempt + 1]);
        }
        let last = SimTime::from_ms(100 * (RETRY_BUDGET as u64 + 1));
        n.atm_connection_failed(last, congram, RETRY_BUDGET + 1)
    }

    fn begin_fddi_setup(n: &mut Npe) -> CongramId {
        let actions = n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromFddi { frame: setup_frame(9, 5), src: FddiAddr::station(8) },
        );
        let NpeAction::RequestAtmConnection { congram, .. } = actions[0] else {
            panic!("{actions:?}")
        };
        congram
    }

    #[test]
    fn supervised_failure_backs_off_then_retries() {
        let mut n = npe();
        let congram = begin_fddi_setup(&mut n);
        // Explicit rejection: no reject to the requester yet.
        assert!(n.atm_connection_failed(SimTime::from_ms(1), congram, 1).is_empty());
        assert_eq!(n.stats().setups_rejected, 0);
        // Past the backoff, the scan re-issues the signaling request.
        let actions = n.scan(SimTime::from_ms(10));
        assert!(
            actions.iter().any(
                |a| matches!(a, NpeAction::RequestAtmConnection { congram: c, .. } if *c == congram)
            ),
            "{actions:?}"
        );
        assert_eq!(n.stats().setup_retries, 1);
        // The retry succeeds and the congram confirms normally.
        let done = n.atm_connection_ready(SimTime::from_ms(12), congram, 2, Vci(70));
        assert_eq!(done.len(), 3);
        assert_eq!(n.stats().setups_confirmed, 1);
    }

    #[test]
    fn watchdog_recovers_a_lost_signaling_request() {
        let mut n = npe();
        let congram = begin_fddi_setup(&mut n);
        // No answer at all: the watchdog fires, backoff runs, and the
        // request is re-issued without any external failure indication.
        let mut retried = false;
        for ms in 1..40 {
            let actions = n.scan(SimTime::from_ms(ms));
            if actions
                .iter()
                .any(|a| matches!(a, NpeAction::RequestAtmConnection { congram: c, .. } if *c == congram))
            {
                retried = true;
                break;
            }
        }
        assert!(retried, "watchdog must re-issue the lost request");
        assert_eq!(n.stats().watchdog_fires, 1);
    }

    #[test]
    fn budget_exhaustion_rejects_with_atm_signaling_reason() {
        let mut n = npe();
        let congram = begin_fddi_setup(&mut n);
        // The failure of the last attempt the budget allows rejects.
        let failed = refuse_every_attempt(&mut n, congram);
        let NpeAction::SendControlToFddi { frame, .. } = &failed[0] else { panic!("{failed:?}") };
        let (h, p) = gw_wire::mchip::parse_frame(frame).unwrap();
        assert!(matches!(
            ControlPayload::decode(h.mtype, p).unwrap(),
            ControlPayload::SetupReject { reason: reject_codes::ATM_SIGNALING, .. }
        ));
        assert_eq!(n.stats().setups_failed, 1);
        assert_eq!(n.stats().setup_retries, u64::from(RETRY_BUDGET));
        assert_eq!(n.next_deadline(), None, "nothing left in flight");
        // A late answer for the dead congram confirms nothing: its VC goes back.
        let late = SimTime::from_secs(1);
        let answer = n.atm_connection_ready(late, congram, RETRY_BUDGET + 1, Vci(70));
        assert!(matches!(answer[..], [NpeAction::ReleaseAtmConnection { vci: Vci(70), .. }]));
        assert_eq!(n.stats().setups_confirmed, 0);
    }

    /// The watchdog replaced each attempt with the next, up to the last
    /// the budget allows. The earlier attempts' answers, arriving late,
    /// are not the last one's: a rejection does not fail the setup, and
    /// a success does not complete it but hands its VC back.
    #[test]
    fn a_superseded_attempts_answers_are_ignored() {
        let mut n = npe();
        let congram = begin_fddi_setup(&mut n);
        let last = RETRY_BUDGET + 1;
        let t = (1..400)
            .map(SimTime::from_ms)
            .find(|&t| retries(&mut n, t) == [last])
            .expect("the watchdog re-issues the request");
        let late = t + SimTime::from_ms(1);
        for stale in [1, last - 1] {
            assert!(n.atm_connection_failed(late, congram, stale).is_empty());
            assert_eq!((n.stats().setups_failed, n.stats().setups_rejected), (0, 0));
            let answer = n.atm_connection_ready(late, congram, stale, Vci(70));
            assert!(matches!(answer[..], [NpeAction::ReleaseAtmConnection { vci: Vci(70), .. }]));
            assert_eq!(n.stats().setups_confirmed, 0);
        }
        let done = n.atm_connection_ready(late, congram, last, Vci(71));
        assert_eq!(done.len(), 3, "the last attempt completes the setup: {done:?}");
        assert_eq!(n.stats().setups_confirmed, 1);
    }

    #[test]
    fn stale_signaling_failure_leaves_an_established_congram_up() {
        let mut n = npe();
        let congram = begin_fddi_setup(&mut n);
        n.atm_connection_ready(SimTime::from_ms(2), congram, 1, Vci(77));
        // An earlier attempt's rejection, arriving late.
        assert!(n.atm_connection_failed(SimTime::from_ms(3), congram, 1).is_empty());
        assert_eq!(n.stats().setups_failed, 0);
        let quarantine = n.vc_quarantined(SimTime::from_ms(10), Vci(77));
        assert!(
            matches!(quarantine[..], [_, _, NpeAction::RequestAtmConnection { .. }]),
            "still bound to its VC: {quarantine:?}"
        );
    }

    #[test]
    fn quarantined_congram_reestablishes_on_a_fresh_vc() {
        let mut n = npe();
        let congram = begin_fddi_setup(&mut n);
        n.atm_connection_ready(SimTime::from_ms(2), congram, 1, Vci(77));
        // The liveness monitor declares VC 77 dead.
        let actions = n.vc_quarantined(SimTime::from_ms(50), Vci(77));
        assert!(matches!(actions[0], NpeAction::ProgramMpp { .. }), "ICXT cleared");
        assert!(
            matches!(actions[1], NpeAction::ReleaseAtmConnection { vci: Vci(77), .. }),
            "{actions:?}"
        );
        let NpeAction::RequestAtmConnection { congram: c, attempt, .. } = actions[2] else {
            panic!("{actions:?}")
        };
        assert_eq!(c, congram);
        assert_eq!(n.stats().vcs_quarantined, 1);
        // Signaling completes on a new VC: reconfiguration, not a new
        // setup.
        let done = n.atm_connection_ready(SimTime::from_ms(52), congram, attempt, Vci(91));
        assert_eq!(done.len(), 3, "chips reprogrammed and confirm resent");
        assert_eq!(n.stats().reestablishments, 1);
        assert_eq!(n.stats().setups_confirmed, 1, "initial setup only");
    }

    /// A re-establishment continues its congram's attempt numbers, so a
    /// late answer to the first setup's attempt 1 is not the new
    /// setup's; the retry budget counts from the re-establishment's
    /// first attempt.
    #[test]
    fn a_reestablishment_continues_the_attempt_numbers() {
        let mut n = npe();
        let congram = begin_fddi_setup(&mut n);
        n.atm_connection_ready(SimTime::from_ms(2), congram, 1, Vci(77));
        let actions = n.vc_quarantined(SimTime::from_ms(50), Vci(77));
        let NpeAction::RequestAtmConnection { attempt, .. } = actions[2] else {
            panic!("{actions:?}")
        };
        assert_eq!(attempt, 2);
        // The first setup's attempt 1, answered again late: neither its
        // success nor its failure is the re-establishment's; its VC goes back.
        let late = SimTime::from_ms(51);
        let answer = n.atm_connection_ready(late, congram, 1, Vci(77));
        assert!(matches!(answer[..], [NpeAction::ReleaseAtmConnection { vci: Vci(77), .. }]));
        assert!(n.atm_connection_failed(late, congram, 1).is_empty());
        assert_eq!(n.stats().reestablishments, 0);
        // The budget counts from attempt 2: each of its attempts' failures
        // earns another.
        let last = 2 + RETRY_BUDGET;
        for attempt in 2..last {
            let t = SimTime::from_ms(100 * attempt as u64);
            assert!(n.atm_connection_failed(t, congram, attempt).is_empty());
            assert_eq!(retries(&mut n, t + SimTime::from_ms(60)), [attempt + 1]);
        }
        let done = n.atm_connection_ready(SimTime::from_secs(1), congram, last, Vci(91));
        assert_eq!(done.len(), 3, "{done:?}");
        assert_eq!(n.stats().reestablishments, 1);
    }

    #[test]
    fn quarantine_of_peer_owned_vc_tears_down_and_notifies() {
        let mut n = npe();
        n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromAtm { frame: setup_frame(7, 10), arrival_vci: Vci(42) },
        );
        assert_eq!(n.resource_manager().active(), 1);
        let actions = n.vc_quarantined(SimTime::from_ms(10), Vci(42));
        assert!(matches!(actions[0], NpeAction::ProgramMpp { .. }));
        let NpeAction::SendControlToAtm { frame, .. } = &actions[1] else { panic!("{actions:?}") };
        let (h, _) = gw_wire::mchip::parse_frame(frame).unwrap();
        assert_eq!(h.mtype, gw_wire::mchip::MchipType::Teardown);
        assert_eq!(n.resource_manager().active(), 0, "ring resources released");
        assert_eq!(n.stats().teardowns, 1);
    }

    #[test]
    fn quarantine_of_unknown_vc_is_a_no_op() {
        let mut n = npe();
        assert!(n.vc_quarantined(SimTime::from_ms(1), Vci(999)).is_empty());
        assert_eq!(n.stats().vcs_quarantined, 0);
    }

    /// The (ICXT-F, ICXT-A) indexes an action list sets or clears.
    fn slots(actions: &[NpeAction]) -> (Option<Icn>, Option<Icn>) {
        let mut slots = (None, None);
        for action in actions {
            let NpeAction::ProgramMpp { payload, .. } = action else { continue };
            for op in mpp::decode_mpp_init(payload).unwrap() {
                match op {
                    MppInitOp::SetF { in_icn, .. } => slots.0 = Some(in_icn),
                    MppInitOp::SetA { in_icn, .. } => slots.1 = Some(in_icn),
                    MppInitOp::Clear { f_icn, a_icn } => slots = (f_icn, a_icn),
                    MppInitOp::SetFixed { .. } => {}
                }
            }
        }
        slots
    }

    fn control(frame: &[u8]) -> ControlPayload {
        let (h, p) = gw_wire::mchip::parse_frame(frame).unwrap();
        ControlPayload::decode(h.mtype, p).unwrap()
    }

    /// An FDDI-side congram whose VC was quarantined and that came back
    /// on a fresh one; returns the ICXT slots it was reprogrammed into.
    fn reestablished(n: &mut Npe) -> (Option<Icn>, Option<Icn>) {
        let congram = begin_fddi_setup(n);
        n.atm_connection_ready(SimTime::from_ms(2), congram, 1, Vci(77));
        let actions = n.vc_quarantined(SimTime::from_ms(50), Vci(77));
        let NpeAction::RequestAtmConnection { attempt, .. } = actions[2] else {
            panic!("{actions:?}")
        };
        slots(&n.atm_connection_ready(SimTime::from_ms(52), congram, attempt, Vci(91)))
    }

    #[test]
    fn reestablished_congram_keeps_its_icxt_slots_from_a_later_setup() {
        let mut n = npe();
        let (xf, xa) = reestablished(&mut n);
        let y = n.handle(
            SimTime::from_ms(60),
            NpeInput::ControlFromAtm { frame: setup_frame(3, 1), arrival_vci: Vci(42) },
        );
        let (yf, ya) = slots(&y);
        assert!(yf.is_some() && ya.is_some(), "{y:?}");
        assert_ne!(yf, xf, "ICXT-F slot shared");
        assert_ne!(ya, xa, "ICXT-A slot shared");
    }

    #[test]
    fn dead_picon_clears_only_its_own_icxt_entries() {
        let mut n = npe();
        let x = reestablished(&mut n);
        let setup = ControlPayload::SetupRequest {
            congram: CongramId(4),
            kind: CongramKind::PICon,
            flow: FlowSpec::cbr(1_000_000),
            dest: DEST,
        }
        .to_frame(Icn(0));
        let req = n.handle(
            SimTime::from_ms(60),
            NpeInput::ControlFromFddi { frame: setup, src: FddiAddr::station(6) },
        );
        let NpeAction::RequestAtmConnection { congram, .. } = req[0] else { panic!("{req:?}") };
        let picon = slots(&n.atm_connection_ready(SimTime::from_ms(62), congram, 1, Vci(93)));
        // No keepalives for > 3 seconds: the PICon dies, the UCon stays.
        let expiry = n.scan(SimTime::from_secs(4));
        assert_eq!(expiry.len(), 1, "{expiry:?}");
        assert_eq!(slots(&expiry), picon);
        assert_ne!(slots(&expiry).0, x.0);
        assert_ne!(slots(&expiry).1, x.1);
    }

    #[test]
    fn same_congram_id_from_each_side_tears_down_independently() {
        let mut n = npe();
        let host = n.handle(
            SimTime::ZERO,
            NpeInput::ControlFromAtm { frame: setup_frame(9, 1), arrival_vci: Vci(42) },
        );
        // Station 8 numbers its congram 9 as well.
        let station = begin_fddi_setup(&mut n);
        n.atm_connection_ready(SimTime::from_ms(2), station, 1, Vci(77));

        // The host's teardown, on a fresh control VC.
        let td = ControlPayload::Teardown { congram: CongramId(9) }.to_frame(Icn(0));
        let acts = n.handle(
            SimTime::from_ms(5),
            NpeInput::ControlFromAtm { frame: td.clone(), arrival_vci: Vci(43) },
        );
        assert_eq!(slots(&acts), slots(&host), "the host's entries cleared");
        let NpeAction::SendControlToAtm { vci, frame, .. } = &acts[1] else { panic!("{acts:?}") };
        assert_eq!(*vci, Vci(42), "acked on the host's VC");
        assert_eq!(control(frame), ControlPayload::TeardownAck { congram: CongramId(9) });
        assert_eq!(n.resource_manager().active(), 0, "the host's reservation released");

        // The station's congram is still up, and its own teardown reaches it.
        let acts = n.handle(
            SimTime::from_ms(6),
            NpeInput::ControlFromFddi { frame: td, src: FddiAddr::station(8) },
        );
        let NpeAction::SendControlToFddi { dst, .. } = &acts[1] else { panic!("{acts:?}") };
        assert_eq!(*dst, FddiAddr::station(8));
        assert_eq!(n.stats().teardowns, 2);
    }

    #[test]
    fn quarantine_takes_every_congram_on_the_vc_in_id_order() {
        let mut n = npe();
        for peer in [1, 2] {
            n.handle(
                SimTime::ZERO,
                NpeInput::ControlFromAtm { frame: setup_frame(peer, 1), arrival_vci: Vci(42) },
            );
        }
        assert_eq!(n.resource_manager().active(), 2);
        let actions = n.vc_quarantined(SimTime::from_ms(10), Vci(42));
        let torn_down: Vec<ControlPayload> = actions
            .iter()
            .filter_map(|a| match a {
                NpeAction::SendControlToAtm { frame, .. } => Some(control(frame)),
                _ => None,
            })
            .collect();
        assert_eq!(
            torn_down,
            [CongramId(1), CongramId(2)].map(|congram| ControlPayload::Teardown { congram })
        );
        assert_eq!(n.resource_manager().active(), 0);
        assert_eq!((n.stats().vcs_quarantined, n.stats().teardowns), (2, 2));
    }
}
