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

use crate::mpp::{self, FixedHeader, IcxtAEntry, IcxtFEntry, MppInitOp};
use crate::spp;
use crate::supervisor::{ConnectionSupervisor, FailVerdict, SupervisorConfig, SupervisorEvent};
use gw_mchip::congram::{CongramId, CongramManager, FlowSpec};
use gw_mchip::messages::ControlPayload;
use gw_mchip::resman::{AdmitDecision, ResourceManager};
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, Vpi};
use gw_wire::fddi::{FddiAddr, FrameControl};
use gw_wire::mchip::Icn;
use std::collections::HashMap;

/// Reassembly timeout the NPE programs for the VCs of the congrams it
/// sets up (§5.3).
const REASSEMBLY_TIMEOUT: SimTime = SimTime::from_ms(10);

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
        /// `Init`-frame payload ([`mpp::encode_mpp_init`]).
        payload: Vec<u8>,
    },
    /// Program the SPP with an initialization payload.
    ProgramSpp {
        /// When programming completes.
        at: SimTime,
        /// `Init`-frame payload ([`spp::encode_init`]).
        payload: Vec<u8>,
    },
    /// Run ATM signaling to establish a VC for a congram heading into
    /// the ATM network.
    RequestAtmConnection {
        /// When the request leaves the NPE.
        at: SimTime,
        /// The congram awaiting the VC.
        congram: CongramId,
        /// Peak rate to reserve.
        peak_bps: u64,
        /// Mean rate.
        mean_bps: u64,
    },
    /// Release an ATM VC this gateway previously signaled for (the
    /// congram was quarantined or torn down).
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
}

/// Reject reason codes carried in `SetupReject` (implementation
/// defined; the companion spec would pin these).
pub mod reject_codes {
    /// Destination not in the host table.
    pub const UNKNOWN_DEST: u16 = 1;
    /// Resource manager refused admission.
    pub const ADMISSION: u16 = 2;
    /// ATM signaling failed.
    pub const ATM_SIGNALING: u16 = 3;
}

#[derive(Debug, Clone)]
struct CongramBinding {
    in_icn: Icn,
    out_icn: Icn,
    atm_vci: Vci,
    fddi_dst: FddiAddr,
    flow: FlowSpec,
    requester: Requester,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Requester {
    Atm(Vci),
    Fddi(FddiAddr),
}

/// The NPE.
#[derive(Debug)]
pub struct Npe {
    congrams: CongramManager,
    resman: ResourceManager,
    host_table: HashMap<[u8; 8], FddiAddr>,
    bindings: HashMap<CongramId, CongramBinding>,
    by_peer_id: HashMap<u32, CongramId>,
    latency: SimTime,
    gateway_fddi_addr: FddiAddr,
    stats: NpeStats,
    supervisor: ConnectionSupervisor,
}

impl Npe {
    /// An NPE managing `fddi_capacity_bps` of ring capacity, with the
    /// given per-message software latency.
    pub fn new(gateway_fddi_addr: FddiAddr, fddi_capacity_bps: u64, latency: SimTime) -> Npe {
        Npe {
            congrams: CongramManager::new(),
            resman: ResourceManager::new(fddi_capacity_bps),
            host_table: HashMap::new(),
            bindings: HashMap::new(),
            by_peer_id: HashMap::new(),
            latency,
            gateway_fddi_addr,
            stats: NpeStats::default(),
            supervisor: ConnectionSupervisor::new(SupervisorConfig::disabled()),
        }
    }

    /// Install a connection-supervision policy (watchdog + retries for
    /// ATM-signaled setups). The default is [`SupervisorConfig::disabled`]:
    /// the first signaling failure rejects the setup.
    pub fn set_supervisor_config(&mut self, config: SupervisorConfig) {
        self.supervisor.set_config(config);
    }

    /// The connection supervisor (inspection).
    pub fn supervisor(&self) -> &ConnectionSupervisor {
        &self.supervisor
    }

    /// Register an internet destination address as reachable at an FDDI
    /// station (the route server's job in a full VHSI deployment).
    pub fn add_host(&mut self, dest: [u8; 8], addr: FddiAddr) {
        self.host_table.insert(dest, addr);
    }

    /// Disable FDDI-side admission control (the E11 baseline).
    pub fn set_admission_bypass(&mut self, bypass: bool) {
        self.resman.bypass = bypass;
    }

    /// The actions that initialize the gateway hardware at power-up:
    /// the MPP's fixed FDDI header register (§6.1).
    pub fn init_actions(&self, now: SimTime) -> Vec<NpeAction> {
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
        let at = now + self.latency;
        match input {
            NpeInput::Smt => {
                self.stats.smt_frames += 1;
                Vec::new()
            }
            NpeInput::ControlFromAtm { frame, arrival_vci } => {
                self.stats.control_frames += 1;
                let Ok((header, payload)) = gw_wire::mchip::parse_frame(&frame) else {
                    return Vec::new();
                };
                let Ok(ctrl) = ControlPayload::decode(header.mtype, payload) else {
                    return Vec::new();
                };
                self.handle_from_atm(at, now, arrival_vci, ctrl)
            }
            NpeInput::ControlFromFddi { frame, src } => {
                self.stats.control_frames += 1;
                let Ok((header, payload)) = gw_wire::mchip::parse_frame(&frame) else {
                    return Vec::new();
                };
                let Ok(ctrl) = ControlPayload::decode(header.mtype, payload) else {
                    return Vec::new();
                };
                self.handle_from_fddi(at, now, src, ctrl)
            }
        }
    }

    fn handle_from_atm(
        &mut self,
        at: SimTime,
        now: SimTime,
        arrival_vci: Vci,
        ctrl: ControlPayload,
    ) -> Vec<NpeAction> {
        match ctrl {
            ControlPayload::SetupRequest { congram, kind, flow, dest } => {
                // Destination must be a known FDDI host.
                let Some(&fddi_dst) = self.host_table.get(&dest) else {
                    self.stats.setups_rejected += 1;
                    return vec![NpeAction::SendControlToAtm {
                        at,
                        vci: arrival_vci,
                        frame: ControlPayload::SetupReject {
                            congram,
                            reason: reject_codes::UNKNOWN_DEST,
                        }
                        .to_frame(Icn(0)),
                    }];
                };
                // Admission on the FDDI ring (designated resource
                // manager, §2.3).
                let local = match self.congrams.begin_setup(kind, flow, fddi_dst.is_group(), now) {
                    Ok(id) => id,
                    Err(_) => {
                        self.stats.setups_rejected += 1;
                        return vec![NpeAction::SendControlToAtm {
                            at,
                            vci: arrival_vci,
                            frame: ControlPayload::SetupReject {
                                congram,
                                reason: reject_codes::ADMISSION,
                            }
                            .to_frame(Icn(0)),
                        }];
                    }
                };
                if self.resman.admit(local, &flow) != AdmitDecision::Admitted {
                    let _ = self.congrams.reject(local);
                    self.stats.setups_rejected += 1;
                    return vec![NpeAction::SendControlToAtm {
                        at,
                        vci: arrival_vci,
                        frame: ControlPayload::SetupReject {
                            congram,
                            reason: reject_codes::ADMISSION,
                        }
                        .to_frame(Icn(0)),
                    }];
                }
                let Some(rec) = self.congrams.get(local) else {
                    // Internal inconsistency (record vanished between
                    // begin_setup and here): refuse rather than panic.
                    self.stats.setups_rejected += 1;
                    return vec![NpeAction::SendControlToAtm {
                        at,
                        vci: arrival_vci,
                        frame: ControlPayload::SetupReject {
                            congram,
                            reason: reject_codes::ADMISSION,
                        }
                        .to_frame(Icn(0)),
                    }];
                };
                let (in_icn, out_icn) = (rec.in_icn, rec.out_icn);
                let _ = self.congrams.confirm(local);
                let binding = CongramBinding {
                    in_icn,
                    out_icn,
                    atm_vci: arrival_vci,
                    fddi_dst,
                    flow,
                    requester: Requester::Atm(arrival_vci),
                };
                self.bindings.insert(local, binding);
                self.by_peer_id.insert(congram.0, local);
                self.stats.setups_confirmed += 1;
                // Program both chips, then confirm to the requester with
                // the ICN its data frames must carry.
                vec![
                    NpeAction::ProgramSpp {
                        at,
                        payload: spp::encode_init(&[(arrival_vci, REASSEMBLY_TIMEOUT)]),
                    },
                    NpeAction::ProgramMpp {
                        at,
                        payload: mpp::encode_mpp_init(&[
                            MppInitOp::SetF { in_icn, entry: IcxtFEntry { out_icn, fddi_dst } },
                            // Reverse traffic: frames from FDDI carrying
                            // the out ICN translate back and head to the
                            // ATM side on the same (full-duplex) VC.
                            MppInitOp::SetA {
                                in_icn: out_icn,
                                entry: IcxtAEntry {
                                    out_icn: in_icn,
                                    atm_header: AtmHeader::data(Vpi(0), arrival_vci),
                                },
                            },
                        ]),
                    },
                    NpeAction::SendControlToAtm {
                        at,
                        vci: arrival_vci,
                        frame: ControlPayload::SetupConfirm { congram, assigned_icn: in_icn }
                            .to_frame(in_icn),
                    },
                ]
            }
            ControlPayload::Teardown { congram } => self.teardown(at, congram),
            ControlPayload::Keepalive { congram } => {
                if let Some(&local) = self.by_peer_id.get(&congram.0) {
                    let _ = self.congrams.keepalive(local, now);
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

    fn handle_from_fddi(
        &mut self,
        at: SimTime,
        now: SimTime,
        src: FddiAddr,
        ctrl: ControlPayload,
    ) -> Vec<NpeAction> {
        match ctrl {
            ControlPayload::SetupRequest { congram, kind, flow, dest: _ } => {
                // Congram heads into the ATM network: the NPE must run
                // ATM signaling first.
                let local = match self.congrams.begin_setup(kind, flow, false, now) {
                    Ok(id) => id,
                    Err(_) => {
                        self.stats.setups_rejected += 1;
                        return vec![NpeAction::SendControlToFddi {
                            at,
                            dst: src,
                            frame: ControlPayload::SetupReject {
                                congram,
                                reason: reject_codes::ADMISSION,
                            }
                            .to_frame(Icn(0)),
                        }];
                    }
                };
                // A just-created congram always has a record; losing it
                // is an internal inconsistency the setup cannot survive,
                // but the gateway can (reject instead of panicking).
                let Some(rec) = self.congrams.get(local) else {
                    self.stats.setups_rejected += 1;
                    return vec![NpeAction::SendControlToFddi {
                        at,
                        dst: src,
                        frame: ControlPayload::SetupReject {
                            congram,
                            reason: reject_codes::ADMISSION,
                        }
                        .to_frame(Icn(0)),
                    }];
                };
                let binding = CongramBinding {
                    in_icn: rec.in_icn,
                    out_icn: rec.out_icn,
                    atm_vci: Vci(0), // assigned when signaling completes
                    fddi_dst: src,
                    flow,
                    requester: Requester::Fddi(src),
                };
                self.bindings.insert(local, binding);
                self.by_peer_id.insert(congram.0, local);
                self.supervisor.begin(now, local);
                vec![NpeAction::RequestAtmConnection {
                    at,
                    congram: local,
                    peak_bps: flow.peak_bps,
                    mean_bps: flow.mean_bps,
                }]
            }
            ControlPayload::Teardown { congram } => self.teardown(at, congram),
            ControlPayload::Keepalive { congram } => {
                if let Some(&local) = self.by_peer_id.get(&congram.0) {
                    let _ = self.congrams.keepalive(local, now);
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

    /// ATM signaling succeeded for a congram requested from the FDDI
    /// side: program the chips and confirm to the requester.
    pub fn atm_connection_ready(
        &mut self,
        now: SimTime,
        congram: CongramId,
        vci: Vci,
    ) -> Vec<NpeAction> {
        let at = now + self.latency;
        if !self.supervisor.confirmed(congram) {
            // A stale or duplicate indication — a superseded attempt's
            // answer arriving after the congram already completed (or
            // was given up on). Acting on it would double-program the
            // chips.
            return Vec::new();
        }
        let Some(binding) = self.bindings.get_mut(&congram) else { return Vec::new() };
        binding.atm_vci = vci;
        let peer = match binding.requester {
            Requester::Fddi(addr) => addr,
            Requester::Atm(_) => return Vec::new(),
        };
        // A quarantined congram completes its reconfiguration (§2.4
        // survivability — the new path gets a fresh outbound ICN); a
        // fresh setup confirms.
        if let Ok((_, new_out)) = self.congrams.complete_reconfigure(congram) {
            if let Some(b) = self.bindings.get_mut(&congram) {
                b.out_icn = new_out;
            }
            self.stats.reestablishments += 1;
        } else {
            let _ = self.congrams.confirm(congram);
            self.stats.setups_confirmed += 1;
        }
        let Some(binding) = self.bindings.get(&congram) else { return Vec::new() };
        let (in_icn, out_icn, dst) = (binding.in_icn, binding.out_icn, binding.fddi_dst);
        vec![
            NpeAction::ProgramSpp { at, payload: spp::encode_init(&[(vci, REASSEMBLY_TIMEOUT)]) },
            NpeAction::ProgramMpp {
                at,
                payload: mpp::encode_mpp_init(&[
                    // Frames from FDDI carrying in_icn go out on the VC.
                    MppInitOp::SetA {
                        in_icn,
                        entry: IcxtAEntry { out_icn, atm_header: AtmHeader::data(Vpi(0), vci) },
                    },
                    // Reverse traffic from the ATM side translates back.
                    MppInitOp::SetF {
                        in_icn: out_icn,
                        entry: IcxtFEntry { out_icn: in_icn, fddi_dst: dst },
                    },
                ]),
            },
            NpeAction::SendControlToFddi {
                at,
                dst: peer,
                frame: ControlPayload::SetupConfirm {
                    congram: CongramId(
                        *self
                            .by_peer_id
                            .iter()
                            .find(|(_, &l)| l == congram)
                            .map(|(p, _)| p)
                            .unwrap_or(&congram.0),
                    ),
                    assigned_icn: in_icn,
                }
                .to_frame(in_icn),
            },
        ]
    }

    /// ATM signaling failed for the congram's current attempt. Under an
    /// enabled supervisor this schedules a retry (exponential backoff
    /// with jitter, re-issued from [`Npe::scan`]); once the budget is
    /// exhausted — or with the supervisor disabled — the setup is
    /// rejected back to the requester.
    pub fn atm_connection_failed(&mut self, now: SimTime, congram: CongramId) -> Vec<NpeAction> {
        match self.supervisor.fail(now, congram) {
            FailVerdict::Backoff(_) => Vec::new(),
            FailVerdict::GiveUp => self.final_setup_failure(now, congram),
        }
    }

    /// The setup is dead: release its state and reject to the requester.
    fn final_setup_failure(&mut self, now: SimTime, congram: CongramId) -> Vec<NpeAction> {
        let at = now + self.latency;
        let Some(binding) = self.bindings.remove(&congram) else { return Vec::new() };
        if self.congrams.reject(congram).is_err() {
            // A quarantined (Reconfiguring) congram cannot be rejected;
            // close it through the teardown path instead.
            let _ = self.congrams.begin_teardown(congram);
            let _ = self.congrams.complete_teardown(congram);
        }
        self.stats.setups_rejected += 1;
        self.stats.setups_failed += 1;
        let peer_id = self
            .by_peer_id
            .iter()
            .find(|(_, &l)| l == congram)
            .map(|(p, _)| CongramId(*p))
            .unwrap_or(congram);
        self.by_peer_id.remove(&peer_id.0);
        // No ICXT entries to clear: a setup still being signaled never
        // had its data path programmed (a quarantined congram's entries
        // were already cleared by [`Npe::vc_quarantined`]).
        match binding.requester {
            Requester::Fddi(addr) => vec![NpeAction::SendControlToFddi {
                at,
                dst: addr,
                frame: ControlPayload::SetupReject {
                    congram: peer_id,
                    reason: reject_codes::ATM_SIGNALING,
                }
                .to_frame(Icn(0)),
            }],
            Requester::Atm(_) => Vec::new(),
        }
    }

    fn teardown(&mut self, at: SimTime, peer: CongramId) -> Vec<NpeAction> {
        let Some(local) = self.by_peer_id.remove(&peer.0) else { return Vec::new() };
        let Some(binding) = self.bindings.remove(&local) else { return Vec::new() };
        self.supervisor.cancel(local);
        let _ = self.congrams.begin_teardown(local);
        let _ = self.congrams.complete_teardown(local);
        self.resman.release(local);
        self.stats.teardowns += 1;
        let ack = ControlPayload::TeardownAck { congram: peer }.to_frame(binding.in_icn);
        let mut actions = vec![NpeAction::ProgramMpp {
            at,
            payload: mpp::encode_mpp_init(&[MppInitOp::Clear {
                f_icn: Some(match binding.requester {
                    Requester::Atm(_) => binding.in_icn,
                    Requester::Fddi(_) => binding.out_icn,
                }),
                a_icn: Some(match binding.requester {
                    Requester::Atm(_) => binding.out_icn,
                    Requester::Fddi(_) => binding.in_icn,
                }),
            }]),
        }];
        actions.push(match binding.requester {
            Requester::Atm(vci) => NpeAction::SendControlToAtm { at, vci, frame: ack },
            Requester::Fddi(addr) => NpeAction::SendControlToFddi { at, dst: addr, frame: ack },
        });
        actions
    }

    /// Periodic scan: PICon keepalive expiry releases resources, and
    /// the connection supervisor's watchdog/backoff timers run.
    pub fn scan(&mut self, now: SimTime) -> Vec<NpeAction> {
        let mut actions = Vec::new();
        for ev in self.congrams.scan_keepalives(now) {
            if let gw_mchip::congram::CongramEvent::KeepaliveExpired(id) = ev {
                if let Some(binding) = self.bindings.remove(&id) {
                    self.supervisor.cancel(id);
                    self.resman.release(id);
                    actions.push(NpeAction::ProgramMpp {
                        at: now + self.latency,
                        payload: mpp::encode_mpp_init(&[MppInitOp::Clear {
                            f_icn: Some(binding.in_icn),
                            a_icn: Some(binding.out_icn),
                        }]),
                    });
                }
            }
        }
        for ev in self.supervisor.poll(now) {
            match ev {
                SupervisorEvent::Retry(id) => {
                    let Some(binding) = self.bindings.get(&id) else { continue };
                    self.stats.setup_retries += 1;
                    actions.push(NpeAction::RequestAtmConnection {
                        at: now + self.latency,
                        congram: id,
                        peak_bps: binding.flow.peak_bps,
                        mean_bps: binding.flow.mean_bps,
                    });
                }
                SupervisorEvent::GiveUp(id) => {
                    actions.extend(self.final_setup_failure(now, id));
                }
            }
        }
        actions
    }

    /// Earliest time [`Npe::scan`] has supervisor work to do.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.supervisor.next_deadline()
    }

    /// The liveness monitor quarantined `vci`: clear the congram's ICXT
    /// entries and either re-establish it (this gateway signaled the VC
    /// — begin a reconfiguration, release the dead VC, and request a
    /// fresh one under supervision) or tear it down and notify the ATM
    /// peer (the VC was the peer's).
    pub fn vc_quarantined(&mut self, now: SimTime, vci: Vci) -> Vec<NpeAction> {
        let at = now + self.latency;
        let Some((&id, binding)) =
            self.bindings.iter().find(|(_, b)| b.atm_vci == vci && b.atm_vci != Vci(0))
        else {
            return Vec::new();
        };
        let binding = binding.clone();
        self.stats.vcs_quarantined += 1;
        let mut actions = vec![NpeAction::ProgramMpp {
            at,
            payload: mpp::encode_mpp_init(&[MppInitOp::Clear {
                f_icn: Some(match binding.requester {
                    Requester::Atm(_) => binding.in_icn,
                    Requester::Fddi(_) => binding.out_icn,
                }),
                a_icn: Some(match binding.requester {
                    Requester::Atm(_) => binding.out_icn,
                    Requester::Fddi(_) => binding.in_icn,
                }),
            }]),
        }];
        match binding.requester {
            Requester::Fddi(_) => {
                // This gateway owns the VC: release it and re-establish
                // the congram on a fresh one. Data transfer pauses but
                // the congram survives (plesio-reliability, §2.4).
                let _ = self.congrams.begin_reconfigure(id);
                if let Some(b) = self.bindings.get_mut(&id) {
                    b.atm_vci = Vci(0);
                }
                self.supervisor.begin(now, id);
                actions.push(NpeAction::ReleaseAtmConnection { at, vci });
                actions.push(NpeAction::RequestAtmConnection {
                    at,
                    congram: id,
                    peak_bps: binding.flow.peak_bps,
                    mean_bps: binding.flow.mean_bps,
                });
            }
            Requester::Atm(ctrl_vci) => {
                // The peer owns the VC: the congram cannot be rebuilt
                // from this side. Tear it down and tell the peer.
                self.bindings.remove(&id);
                self.supervisor.cancel(id);
                let _ = self.congrams.begin_teardown(id);
                let _ = self.congrams.complete_teardown(id);
                self.resman.release(id);
                self.stats.teardowns += 1;
                let peer_id = self
                    .by_peer_id
                    .iter()
                    .find(|(_, &l)| l == id)
                    .map(|(p, _)| CongramId(*p))
                    .unwrap_or(id);
                self.by_peer_id.remove(&peer_id.0);
                actions.push(NpeAction::SendControlToAtm {
                    at,
                    vci: ctrl_vci,
                    frame: ControlPayload::Teardown { congram: peer_id }.to_frame(binding.in_icn),
                });
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
        let done = n.atm_connection_ready(SimTime::from_ms(2), congram, Vci(77));
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
        let failed = n.atm_connection_failed(SimTime::from_ms(1), congram);
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
        // No keepalives for > 3 seconds.
        let actions = n.scan(SimTime::from_secs(4));
        assert_eq!(actions.len(), 1, "dead PICon cleared from the MPP");
        assert_eq!(n.resource_manager().active(), 0);
    }

    fn supervised_npe(budget: u32) -> Npe {
        let mut n = npe();
        n.set_supervisor_config(crate::supervisor::SupervisorConfig {
            setup_watchdog: SimTime::from_ms(5),
            retry_budget: budget,
            backoff_base: SimTime::from_ms(2),
            backoff_max: SimTime::from_ms(16),
            jitter_seed: 3,
        });
        n
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
        let mut n = supervised_npe(2);
        let congram = begin_fddi_setup(&mut n);
        // Explicit rejection: no reject to the requester yet.
        assert!(n.atm_connection_failed(SimTime::from_ms(1), congram).is_empty());
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
        let done = n.atm_connection_ready(SimTime::from_ms(12), congram, Vci(70));
        assert_eq!(done.len(), 3);
        assert_eq!(n.stats().setups_confirmed, 1);
    }

    #[test]
    fn watchdog_recovers_a_lost_signaling_request() {
        let mut n = supervised_npe(2);
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
        assert_eq!(n.supervisor().stats().watchdog_fires, 1);
    }

    #[test]
    fn budget_exhaustion_rejects_with_atm_signaling_reason() {
        let mut n = supervised_npe(1);
        let congram = begin_fddi_setup(&mut n);
        assert!(n.atm_connection_failed(SimTime::from_ms(1), congram).is_empty());
        let retry = n.scan(SimTime::from_ms(10));
        assert!(matches!(retry[0], NpeAction::RequestAtmConnection { .. }));
        // Second failure exhausts the budget of 1.
        let failed = n.atm_connection_failed(SimTime::from_ms(11), congram);
        let NpeAction::SendControlToFddi { frame, .. } = &failed[0] else { panic!("{failed:?}") };
        let (h, p) = gw_wire::mchip::parse_frame(frame).unwrap();
        assert!(matches!(
            ControlPayload::decode(h.mtype, p).unwrap(),
            ControlPayload::SetupReject { reason: reject_codes::ATM_SIGNALING, .. }
        ));
        assert_eq!(n.stats().setups_failed, 1);
        assert_eq!(n.stats().setup_retries, 1);
        // Stale answers for the dead congram are ignored.
        assert!(n.atm_connection_ready(SimTime::from_ms(20), congram, Vci(70)).is_empty());
    }

    #[test]
    fn quarantined_congram_reestablishes_on_a_fresh_vc() {
        let mut n = supervised_npe(3);
        let congram = begin_fddi_setup(&mut n);
        n.atm_connection_ready(SimTime::from_ms(2), congram, Vci(77));
        // The liveness monitor declares VC 77 dead.
        let actions = n.vc_quarantined(SimTime::from_ms(50), Vci(77));
        assert!(matches!(actions[0], NpeAction::ProgramMpp { .. }), "ICXT cleared");
        assert!(
            matches!(actions[1], NpeAction::ReleaseAtmConnection { vci: Vci(77), .. }),
            "{actions:?}"
        );
        assert!(
            matches!(actions[2], NpeAction::RequestAtmConnection { congram: c, .. } if c == congram)
        );
        assert_eq!(n.stats().vcs_quarantined, 1);
        // Signaling completes on a new VC: reconfiguration, not a new
        // setup.
        let done = n.atm_connection_ready(SimTime::from_ms(52), congram, Vci(91));
        assert_eq!(done.len(), 3, "chips reprogrammed and confirm resent");
        assert_eq!(n.stats().reestablishments, 1);
        assert_eq!(n.stats().setups_confirmed, 1, "initial setup only");
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
}
