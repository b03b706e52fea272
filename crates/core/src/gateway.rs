//! The assembled two-port ATM-FDDI gateway (Figure 4).
//!
//! Data path, ATM→FDDI (§4.2): AIC (HEC check, cell sync) → SPP
//! (reassembly, 10+45 cycles/cell) → MPP (type decode + ICXT-F, 15
//! cycles) → RBC DMA → transmit buffer → SUPERNET. Control segments
//! peel off at the MPP to the NPE FIFO.
//!
//! Data path, FDDI→ATM: receive buffer → MPP (ICXT-A, 15 cycles) → SPP
//! FIFO → Fragmentation Logic (48 cycles/cell, on the fly) → AIC (HEC
//! generation) → ATM network.
//!
//! The gateway reports **measured** per-stage and end-to-end latencies;
//! experiments E3–E5 compare them with the paper's §5.5/§6.3 estimates.
//!
//! # Co-simulation contract
//!
//! The gateway is a passive component driven by a harness that owns the
//! ATM network and FDDI ring simulations:
//!
//! * feed arriving ATM cells with [`Gateway::deliver_cells`], arriving
//!   FDDI frames with [`Gateway::fddi_frame_in`];
//! * collect [`Output`]s: cells to inject into the ATM network, and
//!   NPE-level notifications;
//! * frames toward FDDI accumulate in the transmit buffer memory —
//!   drain them with [`Gateway::pop_fddi_tx`] when the ring's station
//!   queue has room (that is the RBC/SUPERNET hand-off);
//! * call [`Gateway::advance_into`] periodically (or at
//!   [`Gateway::next_deadline`]) to run reassembly timers and NPE
//!   housekeeping.

// The critical path's discipline (DESIGN.md §8): none of clippy.toml's
// allocations, maps or locks, and no panics. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::disallowed_macros,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

use crate::aic::Aic;
use crate::buffers::{BufferMemory, Class};
use crate::config::{GatewayConfig, MAX_CONGRAMS, NPE_CONTROL_LATENCY, NPE_FIFO_FRAMES};
use crate::fifo::FrameFifo;
use crate::mpp::{Mpp, MppDownOutput, MppUpOutput};
use crate::npe::{Npe, NpeAction, NpeInput};
use crate::spp::{IngestResult, Spp};
use gw_atm::policing::Gcra;
use gw_mchip::congram::CongramId;
use gw_mgmt::{
    CausalTrace, CellDropReason, CellId, FrameDropReason, FrameId, GatewayHealth, GwEvent,
    MgmtPlane, Port,
};
use gw_sar::reassemble::{ReassembledFrame, ReassemblyConfig, ReassemblyEvent};
use gw_sim::index::SlotIndex;
use gw_sim::stats::Histogram;
use gw_sim::time::SimTime;
use gw_sim::timer::{TimerId, TimerWheel};
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE, HEADER_SIZE};
use gw_wire::fddi::{self, FddiAddr, Frame, FrameControl};
use gw_wire::mchip::Icn;
use gw_wire::pool::BufPool;

/// Externally visible gateway outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub enum Output {
    /// A cell ready for the ATM network (HEC stamped).
    AtmCell {
        /// Emission time at the AIC.
        at: SimTime,
        /// The 53-octet cell.
        cell: [u8; CELL_SIZE],
    },
    /// A data/control frame was written into the transmit buffer toward
    /// FDDI; drain it with [`Gateway::pop_fddi_tx`].
    FddiFrameQueued {
        /// When the RBC DMA completed.
        at: SimTime,
        /// Queue class.
        synchronous: bool,
    },
    /// The NPE asks for an ATM VC (congram heading into the ATM
    /// network); the harness must run signaling and call
    /// [`Gateway::atm_connection_ready`] or
    /// [`Gateway::atm_connection_failed`].
    AtmConnectionRequest {
        /// When the request left the NPE.
        at: SimTime,
        /// Congram awaiting a VC.
        congram: CongramId,
        /// Which attempt this is (1-based); pass it back with the answer.
        attempt: u32,
        /// Peak rate to reserve.
        peak_bps: u64,
        /// Mean rate.
        mean_bps: u64,
    },
    /// The NPE releases an ATM VC it signaled for (its congram was
    /// quarantined, or no congram awaited it); the harness should drop
    /// any network state for the VC.
    AtmConnectionRelease {
        /// When the release left the NPE.
        at: SimTime,
        /// The released VC.
        vci: Vci,
    },
}

/// Measured gateway statistics.
#[derive(Debug)]
pub struct GatewayStats {
    /// ATM→FDDI data-frame latency: first cell at AIC → frame in the
    /// transmit buffer (ns bins of 40 ns).
    pub atm_to_fddi_ns: Histogram,
    /// FDDI→ATM data-frame latency: frame at the gateway → last cell
    /// out of the AIC.
    pub fddi_to_atm_ns: Histogram,
    /// Per-frame MPP+DMA critical-path component (excludes reassembly
    /// accumulation).
    pub forward_path_ns: Histogram,
    /// FDDI frames that failed the FCS at the gateway.
    pub fddi_fcs_drops: u64,
    /// Partial (timer-flushed) frames discarded at the MPP.
    pub partial_discards: u64,
    /// VCs quarantined by the liveness monitor. (Setup retries,
    /// failed setups and re-establishments are the NPE's own counters:
    /// [`Npe::stats`].)
    pub vcs_quarantined: u64,
    /// Cell-equivalents (45-octet payloads) in the frames shed at the
    /// SUPERNET buffers (the frames themselves are the buffers' own
    /// count: [`Gateway::tx_buffer_stats`]).
    pub cells_shed: u64,
    /// Frames dropped by defensive checks on paths that previously
    /// panicked (malformed internal state; each is also traced).
    pub malformed_drops: u64,
}

/// Always-on disposition counters for the conservation invariant: every
/// cell and frame entering the gateway leaves through exactly one of
/// these (or is still in flight), so
/// [`Gateway::check_conservation`] can prove nothing was silently
/// dropped or double-counted. Kept separate from [`GatewayStats`]
/// because these counters partition flows (each event increments
/// exactly one) where the stats counters aggregate them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservationCounters {
    /// Cells shed by per-VC ingress policing (GCRA non-conformance).
    pub policed_cells: u64,
    /// Complete data frames stored into the transmit buffer.
    pub atm_frames_forwarded: u64,
    /// Complete data frames shed at the transmit-buffer watermark.
    pub atm_tx_shed: u64,
    /// Complete data frames lost to transmit-buffer hard overflow.
    pub atm_tx_overflow: u64,
    /// Reassembled frames the MPP refused (bad MCHIP header, no ICXT
    /// entry, rebuild failure) — complete or timer-flushed control.
    pub atm_mpp_drops: u64,
    /// Reassembled frames dropped by defensive type-consistency checks.
    pub atm_malformed: u64,
    /// Control frames delivered to the NPE through the MPP-NPE FIFO.
    pub control_delivered: u64,
    /// Control frames lost at a full MPP-NPE FIFO.
    pub control_fifo_drops: u64,
    /// Reassemblies discarded with the misinsertion signature (backward
    /// sequence jump), traced as [`FrameDropReason::Misinserted`].
    pub misinserted_frames: u64,
    /// FDDI frames offered to [`Gateway::fddi_frame_in`].
    pub fddi_frames_in: u64,
    /// FDDI frames with an unreadable frame-control field.
    pub fddi_malformed_fc: u64,
    /// SMT/beacon/claim MAC frames routed to the NPE.
    pub fddi_smt: u64,
    /// Tokens observed (not frames; returned to the ring untouched).
    pub fddi_tokens: u64,
    /// LLC frames shed at the receive-buffer watermark.
    pub fddi_rx_shed: u64,
    /// LLC frames lost to receive-buffer hard overflow.
    pub fddi_rx_overflow: u64,
    /// LLC data frames successfully fragmented toward ATM.
    pub fddi_fragmented: u64,
    /// LLC data frames whose segmentation failed (oversized payload).
    pub fddi_fragment_errors: u64,
    /// FDDI control frames routed to the NPE.
    pub fddi_control_to_npe: u64,
    /// FDDI frames the MPP refused (bad encapsulation, no ICXT entry).
    pub fddi_mpp_drops: u64,
    /// Store-then-drain inconsistencies in the receive buffer
    /// (defensive; should stay zero).
    pub fddi_rx_inconsistent: u64,
    /// MPP staging buffers permanently consumed by the control plane
    /// (handed to the NPE, or lost with a full FIFO): the pool census
    /// offset for [`Gateway::residue`].
    pub mpp_staging_consumed: u64,
}

/// State the gateway still holds, as audited by [`Gateway::residue`].
/// After a full drain (all traffic delivered or dropped, all timers
/// past), every field must be zero/false — anything else is a leak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residue {
    /// Cells sitting in SPP reassembly buffers.
    pub reassembly_cells: usize,
    /// A reassembly timer is still armed.
    pub reassembly_timers_armed: bool,
    /// Frames waiting in the transmit buffer.
    pub tx_frames_pending: usize,
    /// Octets occupied in the transmit buffer.
    pub tx_octets: usize,
    /// Octets occupied in the receive buffer.
    pub rx_octets: usize,
    /// Control frames waiting in the MPP-NPE FIFO.
    pub npe_fifo_depth: usize,
    /// Armed liveness-wheel timers minus VC slots claiming one
    /// (nonzero either way is an orphaned or lost timer).
    pub liveness_timer_skew: i64,
    /// SPP pool buffers drawn beyond those held by frames in progress.
    pub spp_pool_leak: i64,
    /// MPP pool buffers drawn beyond those consumed by the control
    /// plane (negative: something returned buffers it never drew).
    pub mpp_pool_leak: i64,
}

impl Residue {
    /// True when nothing is held: the drained gateway is back to its
    /// ground state.
    pub fn is_clean(&self) -> bool {
        *self
            == Residue {
                reassembly_cells: 0,
                reassembly_timers_armed: false,
                tx_frames_pending: 0,
                tx_octets: 0,
                rx_octets: 0,
                npe_fifo_depth: 0,
                liveness_timer_skew: 0,
                spp_pool_leak: 0,
                mpp_pool_leak: 0,
            }
    }
}

impl GatewayStats {
    fn new() -> GatewayStats {
        GatewayStats {
            atm_to_fddi_ns: Histogram::new(40, 4096),
            fddi_to_atm_ns: Histogram::new(40, 4096),
            forward_path_ns: Histogram::new(40, 4096),
            fddi_fcs_drops: 0,
            partial_discards: 0,
            vcs_quarantined: 0,
            cells_shed: 0,
            malformed_drops: 0,
        }
    }
}

/// Dense per-VC state, direct-indexed by VCI through
/// [`Gateway::vci_index`] — one table lookup replaces the four hash
/// maps the per-cell path used to touch (first-cell timestamp, CLP OR,
/// GCRA policer, liveness activity) plus the causal-lineage map. Slots
/// are allocated on first touch and retained for the VCI's lifetime;
/// individual fields are cleared as frames complete or the VC retires.
#[derive(Debug)]
pub(crate) struct VcSlot {
    /// The VCI this slot serves (for table scans in snapshots).
    pub(crate) vci: Vci,
    /// First-cell arrival of the in-progress frame, for end-to-end
    /// latency measurement.
    first_cell: Option<SimTime>,
    /// OR of the CLP bits seen across the frame's cells (a frame is
    /// discard-eligible when any of its cells was tagged).
    clp: bool,
    /// Ingress rate controller, when installed.
    pub(crate) policer: Option<Gcra>,
    /// Last data activity, when under the liveness monitor.
    activity: Option<SimTime>,
    /// Armed liveness wheel entry. Deadlines are lazy: activity only
    /// updates the slot; the wheel entry re-arms itself when it fires
    /// early, so the per-cell path never touches the wheel.
    liveness_timer: Option<TimerId>,
    /// Causal lineage of the in-progress reassembly (management only).
    origin: Option<FrameOrigin>,
    /// The liveness monitor quarantined this VC and it has not been
    /// re-established — cells still arriving on it are attributed to
    /// the quarantine, not to an unprogrammed VC.
    quarantined: bool,
}

impl VcSlot {
    fn new(vci: Vci) -> VcSlot {
        VcSlot {
            vci,
            first_cell: None,
            clp: false,
            policer: None,
            activity: None,
            liveness_timer: None,
            origin: None,
            quarantined: false,
        }
    }

    /// End the VC's in-progress frame: take its first-cell time, its
    /// CLP mark and its lineage.
    fn end_frame(&mut self) -> (Option<SimTime>, bool, Option<FrameOrigin>) {
        (self.first_cell.take(), std::mem::take(&mut self.clp), self.origin.take())
    }
}

/// Causal lineage of one in-progress reassembly: the frame id, the cell
/// that opened it, and how many cells it has consumed. Tracked only
/// when the management plane is enabled.
#[derive(Debug, Clone, Copy)]
struct FrameOrigin {
    frame: FrameId,
    first_cell: CellId,
    cells: u32,
}

/// The two-port gateway.
#[derive(Debug)]
pub struct Gateway {
    pub(crate) config: GatewayConfig,
    pub(crate) aic: Aic,
    pub(crate) spp: Spp,
    pub(crate) mpp: Mpp,
    pub(crate) npe: Npe,
    pub(crate) tx_buffer: BufferMemory,
    pub(crate) rx_buffer: BufferMemory,
    pub(crate) npe_fifo: FrameFifo<Vec<u8>>,
    stats: GatewayStats,
    cons: ConservationCounters,
    /// Direct VCI→slot index, grown to the largest VCI touched (no
    /// entry when the VCI has never been touched).
    vci_index: SlotIndex,
    /// Per-VC slot table (see [`VcSlot`]).
    pub(crate) vc_slots: Vec<VcSlot>,
    /// Liveness deadlines for monitored VCs; polled by
    /// [`Gateway::advance_into`] in O(expired) instead of scanning every VC.
    liveness: TimerWheel<Vci>,
    /// Scratch for liveness wheel polls (reused; no steady-state
    /// allocation).
    liveness_scratch: Vec<(SimTime, Vci)>,
    /// Scratch for the VCs confirmed expired in one `advance` (sorted by
    /// VCI for deterministic quarantine order).
    quarantine_scratch: Vec<Vci>,
    /// Recycled staging buffers for the FDDI receive path.
    rx_pool: BufPool,
    /// The management plane (`None` unless
    /// [`GatewayConfig::management`] configures one).
    pub(crate) mgmt: Option<MgmtPlane>,
    /// Monotone cell id source; meaningful only under management.
    cell_seq: u64,
    /// Monotone frame id source; meaningful only under management.
    frame_seq: u64,
}

impl Gateway {
    /// Build a gateway with its FDDI station address and the ring
    /// capacity its resource manager guards.
    #[expect(
        clippy::disallowed_methods,
        reason = "power-up construction; sizes the pools once (the VCI index starts empty)"
    )]
    pub fn new(config: GatewayConfig, fddi_addr: FddiAddr, fddi_capacity_bps: u64) -> Gateway {
        let reasm = ReassemblyConfig {
            timeout: config.reassembly_timeout,
            forward_errored_frames: config.forward_errored_frames,
            ..ReassemblyConfig::default()
        };
        let mut npe = Npe::new(fddi_addr, fddi_capacity_bps, NPE_CONTROL_LATENCY);
        npe.reassembly_timeout = config.reassembly_timeout;
        let aic = if config.hec_correction { Aic::with_correction() } else { Aic::new() };
        let mut tx_buffer = BufferMemory::new(config.tx_buffer_octets);
        let mut rx_buffer = BufferMemory::new(config.rx_buffer_octets);
        if let Some(shed) = config.overload_shedding {
            let marks = |cap: usize| {
                let low = (cap as f64 * shed.low_fraction) as usize;
                let high = (cap as f64 * shed.high_fraction) as usize;
                (low, high)
            };
            let (low, high) = marks(config.tx_buffer_octets);
            tx_buffer.set_watermarks(low, high);
            let (low, high) = marks(config.rx_buffer_octets);
            rx_buffer.set_watermarks(low, high);
        }
        let mut gw = Gateway {
            aic,
            spp: Spp::new(reasm),
            mpp: Mpp::new(MAX_CONGRAMS),
            tx_buffer,
            rx_buffer,
            npe_fifo: FrameFifo::new("mpp-npe", NPE_FIFO_FRAMES),
            stats: GatewayStats::new(),
            cons: ConservationCounters::default(),
            vci_index: SlotIndex::default(),
            vc_slots: Vec::new(),
            liveness: TimerWheel::new(),
            liveness_scratch: Vec::new(),
            quarantine_scratch: Vec::new(),
            rx_pool: BufPool::new(64, 0),
            mgmt: config.management.map(|_| MgmtPlane::default()),
            cell_seq: 0,
            frame_seq: 0,
            npe,
            config,
        };
        // Power-up initialization: NPE programs the fixed header register.
        let actions = gw.npe.init_actions(SimTime::ZERO);
        let mut sink = Vec::new();
        gw.apply_npe_actions(actions, &mut sink);
        gw
    }

    /// Mutable access to the NPE (host table, admission bypass…).
    pub fn npe_mut(&mut self) -> &mut Npe {
        &mut self.npe
    }

    /// The NPE.
    pub fn npe(&self) -> &Npe {
        &self.npe
    }

    /// The MPP (inspection).
    pub fn mpp(&self) -> &Mpp {
        &self.mpp
    }

    /// The SPP (inspection).
    pub fn spp(&self) -> &Spp {
        &self.spp
    }

    /// The AIC (inspection).
    pub fn aic(&self) -> &crate::aic::Aic {
        &self.aic
    }

    /// Gateway statistics.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// The conservation disposition counters.
    pub fn conservation(&self) -> ConservationCounters {
        self.cons
    }

    /// Check the flow-conservation invariant: every cell and frame that
    /// entered the gateway is accounted for by exactly one disposition
    /// counter or is visibly in flight (reassembly occupancy, buffers,
    /// FIFOs). Returns one human-readable line per violated equation;
    /// an empty vector means the books balance.
    ///
    /// The equations chain the pipeline stages of Figure 4:
    /// offered cells → AIC → policer → SPP reassembly → frame
    /// dispositions, plus the FDDI-side frame ledger and the egress
    /// cell count. They hold at *any* instant, not only at drain —
    /// in-flight work appears as reassembly occupancy.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        reason = "audit pass over counters; runs per snapshot/soak check, never per cell"
    )]
    pub fn check_conservation(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut check = |name: &str, lhs: u64, rhs: u64| {
            if lhs != rhs {
                violations.push(format!("{name}: {lhs} != {rhs}"));
            }
        };
        let a = self.aic.stats();
        let s = self.spp.stats();
        let r = self.sar_reassembly_stats();
        let c = &self.cons;
        // C1 — every offered cell passed HEC or was discarded by it.
        check(
            "offered == aic.cells_in + aic.hec_discards",
            self.cell_seq,
            a.cells_in + a.hec_discards,
        );
        // C2 — every HEC-clean cell was policed away or reached the SPP.
        check("aic.cells_in == policed + spp.cells_in", a.cells_in, c.policed_cells + s.cells_in);
        // C3 — every SPP cell was refused for a named reason or stored.
        check(
            "spp.cells_in == crc + unknown_vc + no_buffer + overflow + stored",
            s.cells_in,
            r.crc_drops
                + r.unknown_vc_drops
                + r.no_buffer_drops
                + r.overflow_drops
                + r.cells_stored,
        );
        // C4 — every stored cell left through a frame disposition or is
        // still sitting in a reassembly buffer.
        check(
            "cells_stored == completed + discarded + flushed + closed + occupancy",
            r.cells_stored,
            r.cells_completed
                + r.cells_discarded
                + r.cells_flushed
                + r.cells_closed
                + self.spp.occupancy_cells() as u64,
        );
        // C5 — every frame the MPP saw (complete or timer-flushed) has
        // exactly one disposition.
        check(
            "frames_complete + timeouts == forwarded + shed + overflow + mpp_drop \
             + malformed + control + fifo_drop + partial",
            r.frames_complete + r.timeouts,
            c.atm_frames_forwarded
                + c.atm_tx_shed
                + c.atm_tx_overflow
                + c.atm_mpp_drops
                + c.atm_malformed
                + c.control_delivered
                + c.control_fifo_drops
                + self.stats.partial_discards,
        );
        // C6 — every FDDI frame offered has exactly one disposition.
        check(
            "fddi_frames_in == fcs + malformed_fc + smt + tokens + rx_shed + rx_overflow \
             + fragmented + fragment_errors + control + mpp_drop + inconsistent",
            c.fddi_frames_in,
            self.stats.fddi_fcs_drops
                + c.fddi_malformed_fc
                + c.fddi_smt
                + c.fddi_tokens
                + c.fddi_rx_shed
                + c.fddi_rx_overflow
                + c.fddi_fragmented
                + c.fddi_fragment_errors
                + c.fddi_control_to_npe
                + c.fddi_mpp_drops
                + c.fddi_rx_inconsistent,
        );
        // C7 — the AIC transmitted exactly the cells the SPP segmented.
        check("spp.cells_out == aic.cells_out", s.cells_out, a.cells_out);
        violations
    }

    /// Audit state that must be empty once every injected flow has been
    /// delivered or dropped and all timers have fired. Nonzero fields
    /// after a drain are leaks: a reassembly slot, pool buffer, timer,
    /// or queue entry the gateway is still holding for traffic that no
    /// longer exists. An audit pass: it runs per soak check, never per
    /// cell.
    pub fn residue(&self) -> Residue {
        let spp_pool = self.spp.pool_stats();
        let mpp_pool = self.mpp.pool_stats();
        let armed_slot_timers = self.vc_slots.iter().filter(|s| s.liveness_timer.is_some()).count();
        Residue {
            reassembly_cells: self.spp.occupancy_cells(),
            reassembly_timers_armed: self.spp.next_deadline().is_some(),
            tx_frames_pending: self.fddi_tx_pending(),
            tx_octets: self.tx_buffer.used_octets(),
            rx_octets: self.rx_buffer.used_octets(),
            npe_fifo_depth: self.npe_fifo.len(),
            liveness_timer_skew: self.liveness.len() as i64 - armed_slot_timers as i64,
            spp_pool_leak: spp_pool.outstanding() - self.spp.resident_buffers() as i64,
            mpp_pool_leak: mpp_pool.outstanding() - self.cons.mpp_staging_consumed as i64,
        }
    }

    /// Reassembly-layer counters of the SPP.
    pub fn sar_reassembly_stats(&self) -> gw_sar::reassemble::ReassemblyStats {
        self.spp.reassembly_stats()
    }

    /// Directly install a bidirectional data congram — the state the
    /// NPE would program after signaling. `atm_vci` is the VC on the
    /// ATM side; `fddi_icn`/`atm_icn` are the ICNs on each interface;
    /// `fddi_dst` the destination station. Used by benchmarks and tests
    /// that exercise the data path in isolation. The NPE keeps both ICNs
    /// out of the congrams it sets up later.
    #[expect(
        clippy::expect_used,
        reason = "congram programming runs once per connection, not per cell"
    )]
    pub fn install_congram(
        &mut self,
        atm_vci: Vci,
        atm_icn: Icn,
        fddi_icn: Icn,
        fddi_dst: FddiAddr,
        synchronous: bool,
    ) {
        self.spp.open_vc(atm_vci, self.config.reassembly_timeout);
        self.register_vc_liveness(SimTime::ZERO, atm_vci);
        self.note_vc_installed(SimTime::ZERO, atm_vci);
        self.mpp
            .program_f(atm_icn, crate::mpp::IcxtFEntry { out_icn: fddi_icn, fddi_dst })
            .expect("icn within range");
        self.mpp
            .program_a(
                fddi_icn,
                crate::mpp::IcxtAEntry {
                    out_icn: atm_icn,
                    atm_header: AtmHeader::data(Default::default(), atm_vci),
                },
            )
            .expect("icn within range");
        self.mpp.set_synchronous(atm_icn, synchronous).expect("icn within range");
        self.npe.reserve_icns(atm_icn, fddi_icn);
    }

    /// The VC's slot index, allocating one on first touch.
    fn slot_index(&mut self, vci: Vci) -> usize {
        if let Some(idx) = self.vci_index.get(vci.0) {
            return idx as usize;
        }
        let idx = self.vc_slots.len();
        self.vci_index.insert(vci.0, idx as u32);
        self.vc_slots.push(VcSlot::new(vci));
        idx
    }

    /// The VC's slot, if the VCI has ever been touched.
    fn vc_slot(&self, vci: Vci) -> Option<&VcSlot> {
        self.vci_index.get(vci.0).map(|idx| &self.vc_slots[idx as usize])
    }

    /// The VC's slot, mutably, if the VCI has ever been touched.
    fn vc_slot_mut(&mut self, vci: Vci) -> Option<&mut VcSlot> {
        self.vci_index.get(vci.0).map(|idx| &mut self.vc_slots[idx as usize])
    }

    /// Install ingress rate control on a congram's VC: cells beyond the
    /// GCRA contract are dropped before the SPP — the "explicit rate…
    /// control" the paper's conclusion defers (§7), implemented as the
    /// design's natural extension point.
    pub fn install_rate_control(&mut self, vci: Vci, policer: Gcra) {
        let i = self.slot_index(vci);
        self.vc_slots[i].policer = Some(policer);
    }

    /// `(conforming, non-conforming)` counts of a VC's rate controller.
    pub fn rate_control_counts(&self, vci: Vci) -> Option<(u64, u64)> {
        self.vc_slot(vci).and_then(|s| s.policer.as_ref()).map(|g| g.counts())
    }

    /// The causal event trace, when the management plane is up.
    pub fn trace(&self) -> Option<&CausalTrace> {
        self.mgmt.as_ref().map(|m| &m.trace)
    }

    /// The management plane, when configured.
    pub fn mgmt(&self) -> Option<&MgmtPlane> {
        self.mgmt.as_ref()
    }

    /// Per-port health (SMT-style Up/Degraded/Isolated), when the
    /// management plane is up.
    pub fn health(&self) -> Option<GatewayHealth> {
        self.mgmt.as_ref().map(|m| GatewayHealth {
            atm: *m.health.port(Port::Atm),
            fddi: *m.health.port(Port::Fddi),
        })
    }

    /// Open a VC for reassembly without installing data-path ICXT
    /// entries — control channels carrying signaling traffic (PICons
    /// carrying UCon setups, §2.4) need reassembly but no translation.
    pub fn open_control_vc(&mut self, vci: Vci) {
        self.spp.open_vc(vci, self.config.reassembly_timeout);
        self.note_vc_installed(SimTime::ZERO, vci);
    }

    /// RBC DMA time for `octets` at one octet per 40 ns cycle.
    fn dma_time(octets: usize) -> SimTime {
        SimTime::from_cycles(octets as u64)
    }

    /// Put a data VC under the liveness monitor (no-op when the monitor
    /// is disabled). Control VCs are never registered — signaling may
    /// legitimately be quiet for long stretches.
    fn register_vc_liveness(&mut self, now: SimTime, vci: Vci) {
        let Some(timeout) = self.config.vc_liveness_timeout else { return };
        let i = self.slot_index(vci);
        let slot = &mut self.vc_slots[i];
        slot.quarantined = false;
        let last = match slot.activity {
            Some(last) if last >= now => last,
            _ => {
                slot.activity = Some(now);
                now
            }
        };
        if slot.liveness_timer.is_none() {
            slot.liveness_timer = Some(self.liveness.insert(last + timeout, vci));
        }
    }

    /// Record data activity on a monitored VC. The armed wheel deadline
    /// is left alone — it re-arms from `activity` when it fires.
    fn touch_vc(&mut self, now: SimTime, vci: Vci) {
        let Some(slot) = self.vc_slot_mut(vci) else { return };
        if let Some(last) = slot.activity.as_mut() {
            if *last < now {
                *last = now;
            }
        }
    }

    /// Take a VC off the liveness monitor and disarm its wheel entry.
    fn unmonitor_vc(&mut self, vci: Vci) {
        let Some(slot) = self.vc_slot_mut(vci) else { return };
        slot.activity = None;
        if let Some(id) = slot.liveness_timer.take() {
            self.liveness.cancel(id);
        }
    }

    // ---- management-plane bookkeeping ---------------------------------
    //
    // Each event is counted once, where it is decided: in the
    // component's own stats, `GatewayStats` or the conservation ledger.
    // The helpers below keep what only the management plane records —
    // the per-VC rows, the four gateway-wide counters no other book
    // holds (`GwHandles`), the latency histograms, the causal trace and
    // port health — and the snapshot renders every other `gw.*` name
    // from the count it would duplicate.

    /// A cell died before reassembly (HEC, policing, CRC-10).
    fn note_cell_drop(&mut self, at: SimTime, cell: CellId, vci: Vci, reason: CellDropReason) {
        if let Some(m) = &mut self.mgmt {
            if reason == CellDropReason::Policed {
                if let Some(row) = m.registry.vc_mut(vci.0) {
                    row.policed_cells.tick();
                }
            }
            m.health.note_error(Port::Atm);
            m.trace.emit(GwEvent::CellDropped { at, cell, vci: vci.0, reason });
        }
    }

    /// A frame completed SAR reassembly.
    fn note_frame_reassembled(&mut self, at: SimTime, vci: Vci, origin: Option<FrameOrigin>) {
        if let Some(m) = &mut self.mgmt {
            if let Some(row) = m.registry.vc_mut(vci.0) {
                row.reassembled_frames.tick();
            }
            if let Some(o) = origin {
                m.trace.emit(GwEvent::FrameReassembled {
                    at,
                    frame: o.frame,
                    vci: vci.0,
                    first_cell: o.first_cell,
                    cells: o.cells,
                });
            }
        }
    }

    /// A frame with cell lineage died for a non-buffer reason (lost
    /// cell, timer flush, MPP drop, control-FIFO loss…).
    fn note_frame_discarded(
        &mut self,
        at: SimTime,
        vci: Vci,
        origin: Option<FrameOrigin>,
        reason: FrameDropReason,
    ) {
        if let Some(m) = &mut self.mgmt {
            if matches!(reason, FrameDropReason::MppDrop | FrameDropReason::Malformed) {
                m.registry.inc(m.handles.mpp_drops);
            }
            if let Some(row) = m.registry.vc_mut(vci.0) {
                row.discarded_frames.tick();
            }
            m.health.note_error(Port::Atm);
            if let Some(o) = origin {
                m.trace.emit(GwEvent::FrameDiscarded {
                    at,
                    frame: o.frame,
                    vci: vci.0,
                    first_cell: o.first_cell,
                    cells: o.cells,
                    reason,
                });
            }
        }
    }

    /// A data frame reached the transmit buffer (ATM→FDDI success).
    fn note_frame_forwarded(
        &mut self,
        done: SimTime,
        started: SimTime,
        vci: Vci,
        origin: Option<FrameOrigin>,
        octets: usize,
    ) {
        if let Some(m) = &mut self.mgmt {
            m.registry.add(m.handles.mpp_frames_forwarded, octets);
            m.registry.observe(m.handles.atm_to_fddi_ns, (done - started).as_ns());
            if let Some(row) = m.registry.vc_mut(vci.0) {
                row.forwarded_frames.record(octets);
            }
            if let Some(o) = origin {
                m.trace.emit(GwEvent::FrameForwarded {
                    at: done,
                    frame: o.frame,
                    vci: vci.0,
                    first_cell: o.first_cell,
                    port: Port::Fddi,
                    octets: octets as u32,
                });
            }
        }
    }

    /// An FDDI frame was segmented into `cells` cells toward ATM.
    fn note_frame_down(
        &mut self,
        done: SimTime,
        arrived: SimTime,
        vci: Vci,
        cells: usize,
        octets: usize,
    ) {
        if let Some(m) = &mut self.mgmt {
            let cell_octets = (cells * CELL_SIZE) as u64;
            m.registry.add(m.handles.spp_frames_down, octets);
            m.registry.add_bulk(m.handles.spp_cells_out, cells as u64, cell_octets);
            m.registry.observe(m.handles.fddi_to_atm_ns, (done - arrived).as_ns());
            if let Some(row) = m.registry.vc_mut(vci.0) {
                row.cells_out.add(cells as u64, cell_octets);
            }
        }
    }

    /// A frame was refused by a SUPERNET buffer memory — watermark shed
    /// (`overflow == false`) or hard overflow; the buffer counted it.
    /// The shed frame's cells, the trace, and FDDI-port health move
    /// here.
    #[allow(clippy::too_many_arguments, reason = "internal plumbing; flags mirror buffer outcomes")]
    fn note_buffer_drop(
        &mut self,
        at: SimTime,
        tx: bool,
        overflow: bool,
        synchronous: bool,
        octets: usize,
        origin: Option<FrameOrigin>,
        vci: Option<Vci>,
    ) {
        if !overflow {
            self.stats.cells_shed += octets.div_ceil(45) as u64;
        }
        let Some(m) = &mut self.mgmt else { return };
        m.health.note_error(Port::Fddi);
        let reason = match (tx, overflow) {
            (true, true) => FrameDropReason::TxOverflow,
            (true, false) => FrameDropReason::TxShed,
            (false, true) => FrameDropReason::RxOverflow,
            (false, false) => FrameDropReason::RxShed,
        };
        match (origin, vci) {
            (Some(o), Some(vci)) => {
                if let Some(row) = m.registry.vc_mut(vci.0) {
                    row.discarded_frames.tick();
                }
                m.trace.emit(GwEvent::FrameDiscarded {
                    at,
                    frame: o.frame,
                    vci: vci.0,
                    first_cell: o.first_cell,
                    cells: o.cells,
                    reason,
                });
            }
            _ => m.trace.emit(GwEvent::FddiFrameDropped {
                at,
                port: Port::Fddi,
                synchronous,
                octets: octets as u32,
                reason,
            }),
        }
    }

    /// An FDDI-side frame died without cell lineage (MAC checks,
    /// oversized control emissions).
    fn note_fddi_frame_drop(
        &mut self,
        at: SimTime,
        synchronous: bool,
        octets: usize,
        reason: FrameDropReason,
    ) {
        if let Some(m) = &mut self.mgmt {
            m.health.note_error(Port::Fddi);
            m.trace.emit(GwEvent::FddiFrameDropped {
                at,
                port: Port::Fddi,
                synchronous,
                octets: octets as u32,
                reason,
            });
        }
    }

    /// A congram/VC came up (install, or SPP programming for a setup).
    fn note_vc_installed(&mut self, at: SimTime, vci: Vci) {
        if let Some(m) = &mut self.mgmt {
            m.registry.create_vc(vci.0);
            m.trace.emit(GwEvent::VcInstalled { at, vci: vci.0 });
        }
    }

    /// A VC went away — normal release or liveness quarantine.
    fn note_vc_retired(&mut self, at: SimTime, vci: Vci, quarantined: bool) {
        if let Some(slot) = self.vc_slot_mut(vci) {
            slot.origin = None;
        }
        if let Some(m) = &mut self.mgmt {
            m.registry.retire_vc(vci.0);
            if quarantined {
                m.health.note_error(Port::Atm);
            }
            m.trace.emit(GwEvent::VcRetired { at, vci: vci.0, quarantined });
        }
    }

    /// A port's transport went down (appliance mode: socket error or
    /// link flap). Moves the port's health to `Reconnecting` and traces
    /// the transition; a no-op without the management plane.
    pub fn note_transport_down(&mut self, at: SimTime, port: Port) {
        if let Some(m) = &mut self.mgmt {
            if let Some(t) = m.health.note_transport_down(port) {
                m.trace.emit(GwEvent::PortHealthChanged { at, port, from: t.from, to: t.to });
            }
        }
    }

    /// A supervised reconnect attempt was issued for a downed port
    /// (appliance mode; counts toward the port's backoff counter).
    pub fn note_transport_retry(&mut self, _at: SimTime, port: Port) {
        if let Some(m) = &mut self.mgmt {
            m.health.note_backoff_retry(port);
        }
    }

    /// A port's transport came back (appliance mode). The port re-enters
    /// service as `Degraded` and earns `Up` through clean windows.
    pub fn note_transport_up(&mut self, at: SimTime, port: Port) {
        if let Some(m) = &mut self.mgmt {
            if let Some(t) = m.health.note_transport_up(port) {
                m.trace.emit(GwEvent::PortHealthChanged { at, port, from: t.from, to: t.to });
            }
        }
    }

    /// Feed the cells arriving from the ATM network at `now`, appending
    /// outputs to `out` — the one cell ingest. The VC is always read
    /// from the (AIC-checked, possibly corrected) header, so control
    /// frames bind to the congram of the VC they arrived on and per-VC
    /// rate control applies uniformly. The SPP pipeline serializes the
    /// cells (`ingest_cell` queues on `pipeline_free`), so one call over
    /// a batch and one call per cell at the same `now` are
    /// indistinguishable. Reuse `out` across calls to keep the
    /// steady-state loop allocation-free, and hand frames from
    /// [`Gateway::pop_fddi_tx`] back with [`Gateway::recycle_frame`] so
    /// the staging pools stay warm.
    pub fn deliver_cells(
        &mut self,
        now: SimTime,
        cells: &[[u8; CELL_SIZE]],
        out: &mut Vec<Output>,
    ) {
        for cell in cells {
            self.cell_in(now, cell, out);
        }
    }

    /// Return a frame obtained from [`Gateway::pop_fddi_tx`] to the
    /// header-builder staging pool once the ring simulation is done
    /// with it.
    pub fn recycle_frame(&mut self, frame: Vec<u8>) {
        self.mpp.recycle(frame);
    }

    /// Recycling statistics for the SPP's reassembly-buffer pool.
    pub fn spp_pool_stats(&self) -> gw_wire::pool::PoolStats {
        self.spp.pool_stats()
    }

    /// Recycling statistics for the MPP's frame-staging pool.
    pub fn mpp_pool_stats(&self) -> gw_wire::pool::PoolStats {
        self.mpp.pool_stats()
    }

    /// A reassembled (or flushed) frame climbs into the MPP.
    /// `discard_eligible` marks frames whose cells carried the CLP bit —
    /// under overload they are shed first.
    #[allow(clippy::too_many_arguments, reason = "internal plumbing; flags mirror SPP outcomes")]
    fn frame_up(
        &mut self,
        now: SimTime,
        started: SimTime,
        vci: Vci,
        origin: Option<FrameOrigin>,
        control: bool,
        partial: bool,
        discard_eligible: bool,
        data: &[u8],
        out: &mut Vec<Output>,
    ) {
        match self.mpp.from_spp(now, data, control, partial) {
            MppUpOutput::DataToFddi { ready, frame, synchronous } => {
                let done = ready + Self::dma_time(frame.len());
                let class = if synchronous { Class::Sync } else { Class::Async };
                let len = frame.len();
                match self.tx_buffer.store_tagged(done, class, frame, discard_eligible) {
                    crate::buffers::StoreOutcome::Stored => {
                        self.stats.atm_to_fddi_ns.record((done - started).as_ns());
                        self.stats.forward_path_ns.record((done - now).as_ns());
                        self.cons.atm_frames_forwarded += 1;
                        out.push(Output::FddiFrameQueued { at: done, synchronous });
                        self.note_frame_forwarded(done, started, vci, origin, len);
                    }
                    crate::buffers::StoreOutcome::Shed(frame) => {
                        self.mpp.recycle(frame);
                        self.cons.atm_tx_shed += 1;
                        self.note_buffer_drop(
                            ready,
                            true,
                            false,
                            synchronous,
                            len,
                            origin,
                            Some(vci),
                        );
                    }
                    crate::buffers::StoreOutcome::Overflow(frame) => {
                        self.mpp.recycle(frame);
                        self.cons.atm_tx_overflow += 1;
                        self.note_buffer_drop(
                            ready,
                            true,
                            true,
                            synchronous,
                            len,
                            origin,
                            Some(vci),
                        );
                    }
                }
            }
            MppUpOutput::ControlToNpe { ready, frame } => {
                // Control frames are routed with their arrival VC by
                // `cell_in`; a control frame reaching this helper (used
                // for data and timer-flushed frames only) has lost its
                // VC binding and cannot be delivered.
                self.mpp.recycle(frame);
                self.stats.malformed_drops += 1;
                self.cons.atm_malformed += 1;
                self.note_frame_discarded(ready, vci, origin, FrameDropReason::Malformed);
            }
            MppUpOutput::Dropped { reason } => {
                let typed = if reason == crate::mpp::MppDrop::PartialFrame {
                    self.stats.partial_discards += 1;
                    FrameDropReason::ReassemblyTimeout
                } else {
                    self.cons.atm_mpp_drops += 1;
                    FrameDropReason::MppDrop
                };
                self.note_frame_discarded(now, vci, origin, typed);
            }
        }
    }

    /// The per-cell fast path — AIC (HEC check), header parse, policing,
    /// SPP reassembly, and the frame-level consequences of the SAR
    /// verdict: one dense slot lookup, no heap allocation in the steady
    /// state (cells, frame completion, and management bookkeeping
    /// included). Drops are counted and traced where they happen.
    ///
    /// Header fields are shifts of one word and the information field
    /// is read where the caller put it, so no load straddles a store
    /// made here (DESIGN.md §15, "Words travel in registers").
    fn cell_in(&mut self, now: SimTime, input: &[u8; CELL_SIZE], out: &mut Vec<Output>) {
        // The AIC corrects at most one header bit, in this copy; the
        // information field is taken from `input`.
        let mut cell = *input;
        self.cell_seq += 1;
        let cell_id = CellId(self.cell_seq);
        let Some(aligned) = self.aic.receive(now, &mut cell) else {
            // The header is unreadable, so the VC is unknown (0).
            self.note_cell_drop(now, cell_id, Vci(0), CellDropReason::HecError);
            return;
        };
        // Read the VCI after the AIC so a corrected header binds the
        // cell to the right connection.
        let [b0, b1, b2, b3, ..] = cell;
        let AtmHeader { vci, clp, .. } = AtmHeader::from_word(u32::from_be_bytes([b0, b1, b2, b3]));
        let idx = self.slot_index(vci);
        if let Some(policer) = self.vc_slots[idx].policer.as_mut() {
            if policer.offer(aligned) == gw_atm::policing::Conformance::NonConforming {
                // Non-conforming cells are shed before they can occupy
                // reassembly buffers; the frame they belonged to will be
                // discarded by the sequence check (§5.2 semantics).
                self.cons.policed_cells += 1;
                self.note_cell_drop(aligned, cell_id, vci, CellDropReason::Policed);
                return;
            }
        }
        let slot = &mut self.vc_slots[idx];
        if let Some(last) = slot.activity.as_mut() {
            if *last < aligned {
                *last = aligned;
            }
        }
        let IngestResult { timing, event } =
            self.spp.ingest_cell(aligned, vci, &input[HEADER_SIZE..]);
        let slot = &mut self.vc_slots[idx];
        if slot.first_cell.is_none() {
            slot.first_cell = Some(aligned);
        }
        slot.clp |= clp;
        if let Some(m) = self.mgmt.as_mut() {
            // Causal lineage: a cell landing on a VC with no reassembly
            // in progress opens a new frame.
            let started_frame = match slot.origin.as_mut() {
                Some(o) => {
                    o.cells += 1;
                    None
                }
                None => {
                    self.frame_seq += 1;
                    let origin = FrameOrigin {
                        frame: FrameId(self.frame_seq),
                        first_cell: cell_id,
                        cells: 1,
                    };
                    slot.origin = Some(origin);
                    Some(origin)
                }
            };
            if let Some(row) = m.registry.vc_mut(vci.0) {
                row.cells_in.record(CELL_SIZE);
            }
            if let Some(o) = started_frame {
                m.trace.emit(GwEvent::FrameStarted {
                    at: aligned,
                    frame: o.frame,
                    vci: vci.0,
                    first_cell: cell_id,
                });
            }
        }
        match event {
            ReassemblyEvent::Complete(frame) => {
                let ReassembledFrame { data, control, .. } = frame;
                let (first_cell, discard_eligible, origin) = self.vc_slots[idx].end_frame();
                let started = first_cell.unwrap_or(timing.start);
                self.spp.release(vci);
                self.note_frame_reassembled(timing.write_done, vci, origin);
                if control {
                    match self.mpp.from_spp(timing.write_done, &data, true, false) {
                        MppUpOutput::ControlToNpe { ready, frame: cf } => {
                            // Through the MPP-NPE FIFO (Figure 4): a full
                            // FIFO loses the control frame, exactly the
                            // failure mode §6.1's sizing discussion (E18)
                            // is about.
                            self.cons.mpp_staging_consumed += 1;
                            if self.npe_fifo.push(cf).is_err() {
                                self.cons.control_fifo_drops += 1;
                                self.note_frame_discarded(
                                    ready,
                                    vci,
                                    origin,
                                    FrameDropReason::ControlFifoFull,
                                );
                            } else {
                                self.cons.control_delivered += 1;
                                if let Some(queued) = self.npe_fifo.pop() {
                                    let actions = self.npe.handle(
                                        ready,
                                        NpeInput::ControlFromAtm {
                                            frame: queued,
                                            arrival_vci: vci,
                                        },
                                    );
                                    self.apply_npe_actions(actions, out);
                                }
                            }
                        }
                        MppUpOutput::Dropped { .. } => {
                            self.cons.atm_mpp_drops += 1;
                            self.note_frame_discarded(
                                timing.write_done,
                                vci,
                                origin,
                                FrameDropReason::MppDrop,
                            );
                        }
                        _other => {
                            // A control frame routed onto the data path
                            // means the MPP type decode disagrees with
                            // the SAR control bit — count and drop
                            // rather than take the gateway down.
                            self.stats.malformed_drops += 1;
                            self.cons.atm_malformed += 1;
                            self.note_frame_discarded(
                                timing.write_done,
                                vci,
                                origin,
                                FrameDropReason::Malformed,
                            );
                        }
                    }
                } else {
                    self.frame_up(
                        timing.write_done,
                        started,
                        vci,
                        origin,
                        false,
                        false,
                        discard_eligible,
                        &data,
                        out,
                    );
                }
                // The reassembly buffer goes back to the pool either way.
                self.spp.recycle(data);
            }
            ReassemblyEvent::DiscardedErrored { cells: _, misinserted } => {
                let (_, _, origin) = self.vc_slots[idx].end_frame();
                // A backward sequence jump is a foreign (misinserted) or
                // replayed cell, not plain loss — keep the distinction
                // all the way to the drop reason (§5.2's misinsertion
                // hazard).
                let reason = if misinserted {
                    self.cons.misinserted_frames += 1;
                    FrameDropReason::Misinserted
                } else {
                    FrameDropReason::LostCell
                };
                self.note_frame_discarded(timing.decode_done, vci, origin, reason);
            }
            ReassemblyEvent::CrcDropped => {
                self.note_cell_drop(timing.decode_done, cell_id, vci, CellDropReason::Crc10);
            }
            ReassemblyEvent::UnknownVc => {
                // The congram is not programmed: the reassembler refused
                // the cell (counted in its stats); close out any lineage
                // so the trace shows the loss. A VC torn down by the
                // liveness monitor attributes the loss to the
                // quarantine, not to a never-programmed VC.
                let slot = &mut self.vc_slots[idx];
                let (_, _, origin) = slot.end_frame();
                let reason = if slot.quarantined {
                    FrameDropReason::VcQuarantined
                } else {
                    FrameDropReason::UnknownVc
                };
                self.note_frame_discarded(timing.decode_done, vci, origin, reason);
            }
            ReassemblyEvent::NoBuffer => {
                // Both reassembly buffers busy: the frame this cell
                // begins is lost (§5.3's dual-buffer limit).
                let (_, _, origin) = self.vc_slots[idx].end_frame();
                self.note_frame_discarded(
                    timing.decode_done,
                    vci,
                    origin,
                    FrameDropReason::NoBuffer,
                );
            }
            ReassemblyEvent::Stored | ReassemblyEvent::Overflow => {
                // Stored: frame still accumulating. Overflow: the cell
                // was refused and the frame flagged; the frame-level
                // discard is reported when its final cell (or the
                // timer) terminates it.
            }
        }
    }

    /// Feed one frame arriving from the FDDI ring. The returned `Vec` is
    /// the frame's one allocation, sized exactly to its cells.
    #[expect(
        clippy::disallowed_methods,
        reason = "thin wrapper that owns the frame's one allocation (the returned Vec); the frame path itself is `frame_in`, which carries no waiver"
    )]
    pub fn fddi_frame_in(&mut self, now: SimTime, frame_bytes: &[u8]) -> Vec<Output> {
        let mut out = Vec::new();
        self.frame_in(now, frame_bytes, &mut out);
        out
    }

    /// The per-frame path from the ring — FCS and frame-control check,
    /// receive buffer (SUPERNET RBC), MPP translation, then the
    /// Fragmentation Logic and the AIC writing the frame's cells
    /// straight into `out`. No heap allocation in the steady state
    /// beyond what `out` itself needs; drops are counted and traced
    /// where they happen.
    fn frame_in(&mut self, now: SimTime, frame_bytes: &[u8], out: &mut Vec<Output>) {
        self.cons.fddi_frames_in += 1;
        let Ok(frame) = Frame::new_checked(frame_bytes) else {
            self.stats.fddi_fcs_drops += 1;
            self.note_fddi_frame_drop(now, false, frame_bytes.len(), FrameDropReason::FcsError);
            return;
        };
        let Ok(fc) = frame.frame_control() else {
            self.stats.malformed_drops += 1;
            self.cons.fddi_malformed_fc += 1;
            self.note_fddi_frame_drop(now, false, frame_bytes.len(), FrameDropReason::Malformed);
            return;
        };
        match fc {
            FrameControl::Smt | FrameControl::MacBeacon | FrameControl::MacClaim => {
                self.cons.fddi_smt += 1;
                let _ = self.npe.handle(now, NpeInput::Smt);
                return;
            }
            FrameControl::Token => {
                self.cons.fddi_tokens += 1;
                return;
            }
            FrameControl::LlcAsync { .. } | FrameControl::LlcSync => {}
        }
        // Into the receive buffer (SUPERNET RBC), then the MPP reads it.
        // The copy goes through the receive staging pool so a steady
        // frame stream reuses one buffer.
        let stored_at = now + Self::dma_time(frame_bytes.len());
        let mut staged = self.rx_pool.get();
        staged.extend_from_slice(frame_bytes);
        match self.rx_buffer.store_tagged(stored_at, Class::Async, staged, false) {
            crate::buffers::StoreOutcome::Stored => {}
            crate::buffers::StoreOutcome::Shed(staged) => {
                self.rx_pool.put(staged);
                self.cons.fddi_rx_shed += 1;
                self.note_buffer_drop(
                    stored_at,
                    false,
                    false,
                    false,
                    frame_bytes.len(),
                    None,
                    None,
                );
                return;
            }
            crate::buffers::StoreOutcome::Overflow(staged) => {
                self.rx_pool.put(staged);
                self.cons.fddi_rx_overflow += 1;
                self.note_buffer_drop(stored_at, false, true, false, frame_bytes.len(), None, None);
                return;
            }
        }
        let src = frame.src();
        let Some(stored) = self.rx_buffer.drain(stored_at, Class::Async) else {
            // The store above succeeded; an empty drain means the buffer
            // accounting is inconsistent — count it instead of panicking.
            self.stats.malformed_drops += 1;
            self.cons.fddi_rx_inconsistent += 1;
            return;
        };
        match self.mpp.from_fddi(stored_at, &stored) {
            MppDownOutput::DataToSpp { ready, atm_header, frame: mchip } => {
                self.touch_vc(ready, atm_header.vci);
                match self.fragment_out(ready, &atm_header, &mchip, false, out) {
                    Ok((last, n_cells)) => {
                        self.stats.fddi_to_atm_ns.record((last - now).as_ns());
                        self.stats.forward_path_ns.record((last - stored_at).as_ns());
                        self.cons.fddi_fragmented += 1;
                        self.note_frame_down(last, now, atm_header.vci, n_cells, mchip.len());
                    }
                    Err(_) => {
                        // Previously a silent loss: a frame the ICXT
                        // translated but segmentation refused (oversized
                        // for 1024 sequence numbers) now counts and
                        // traces like every other discard.
                        self.stats.malformed_drops += 1;
                        self.cons.fddi_fragment_errors += 1;
                        self.note_fddi_frame_drop(
                            ready,
                            false,
                            mchip.len(),
                            FrameDropReason::Malformed,
                        );
                    }
                }
                self.mpp.recycle(mchip);
            }
            MppDownOutput::ControlToNpe { ready, frame: cf } => {
                self.cons.fddi_control_to_npe += 1;
                self.cons.mpp_staging_consumed += 1;
                let actions = self.npe.handle(ready, NpeInput::ControlFromFddi { frame: cf, src });
                self.apply_npe_actions(actions, out);
            }
            MppDownOutput::Dropped { .. } => {
                // Previously silent: unroutable FDDI frames (bad
                // encapsulation, missing ICXT-A entry) now count and
                // trace.
                self.cons.fddi_mpp_drops += 1;
                self.note_fddi_frame_drop(stored_at, false, stored.len(), FrameDropReason::MppDrop);
            }
        }
        self.rx_pool.put(stored);
    }

    /// One frame through the Fragmentation Logic and the AIC: room for
    /// exactly its cells is reserved in `out` and each finished cell is
    /// written there once, under the header octets the AIC stamped once
    /// for the frame. Returns when the last cell leaves and how many
    /// there were; a frame the segmenter refuses leaves `out` as it was.
    fn fragment_out(
        &mut self,
        now: SimTime,
        header: &AtmHeader,
        frame: &[u8],
        control: bool,
        out: &mut Vec<Output>,
    ) -> gw_wire::Result<(SimTime, usize)> {
        let mut cells = self.spp.fragment_cells(now, header, frame, control)?;
        let (n, done) = (cells.remaining(), cells.done());
        self.aic.transmit_frame(cells.header_mut(), n);
        let first = out.len();
        out.reserve_exact(n);
        out.resize(first + n, Output::AtmCell { at: done, cell: [0u8; CELL_SIZE] });
        for slot in &mut out[first..] {
            if let Output::AtmCell { at, cell } = slot {
                *at = cells.next_into(cell);
            }
        }
        Ok((done, n))
    }

    /// NPE control actions (congram setup/teardown, control frames):
    /// the paper's non-critical path.
    fn apply_npe_actions(&mut self, actions: Vec<NpeAction>, out: &mut Vec<Output>) {
        if actions.is_empty() {
            return;
        }
        for action in actions {
            match action {
                NpeAction::ProgramMpp { payload, .. } => {
                    let _ = self.mpp.handle_init(&payload);
                }
                NpeAction::ProgramSpp { at, payload } => {
                    // NPE-programmed data VCs come under the liveness
                    // monitor from the moment they are programmed.
                    if let Ok(entries) = crate::spp::decode_init(&payload) {
                        for (vci, _) in entries {
                            self.register_vc_liveness(at, vci);
                            self.note_vc_installed(at, vci);
                        }
                    }
                    let _ = self.spp.handle_init(&payload);
                }
                NpeAction::SendControlToAtm { at, vci, frame } => {
                    let header = AtmHeader::data(Default::default(), vci);
                    if self.fragment_out(at, &header, &frame, true, out).is_err() {
                        // Previously silent: an oversized NPE control
                        // payload the segmenter refuses now counts.
                        self.stats.malformed_drops += 1;
                        self.note_frame_discarded(at, vci, None, FrameDropReason::Malformed);
                    }
                }
                NpeAction::SendControlToFddi { at, dst, frame } => {
                    let fixed = self.mpp.fixed_header();
                    let llc = fddi::llc_snap_header();
                    // Staged from the MPP pool so NPE-originated control
                    // frames sit under the same buffer census as data
                    // frames (the harness recycles them after transmit).
                    let mut fddi_frame = self.mpp.stage_get();
                    if fddi::emit_frame_into(
                        fixed.fc,
                        dst,
                        fixed.src,
                        &[&llc, &frame],
                        &mut fddi_frame,
                    )
                    .is_err()
                    {
                        // An oversized control payload cannot become an
                        // FDDI frame; drop it rather than panic.
                        self.mpp.recycle(fddi_frame);
                        self.stats.malformed_drops += 1;
                        self.note_fddi_frame_drop(
                            at,
                            false,
                            frame.len(),
                            FrameDropReason::Malformed,
                        );
                        continue;
                    }
                    let done = at + Self::dma_time(fddi_frame.len());
                    let len = fddi_frame.len();
                    // Control frames bypass the shedding policy: losing
                    // signaling under overload would wedge recovery.
                    match self.tx_buffer.store(done, Class::Async, fddi_frame) {
                        Ok(()) => {
                            out.push(Output::FddiFrameQueued { at: done, synchronous: false });
                        }
                        Err(fddi_frame) => {
                            self.mpp.recycle(fddi_frame);
                            self.note_buffer_drop(done, true, true, false, len, None, None);
                        }
                    }
                }
                NpeAction::RequestAtmConnection { at, congram, attempt, peak_bps, mean_bps } => {
                    out.push(Output::AtmConnectionRequest {
                        at,
                        congram,
                        attempt,
                        peak_bps,
                        mean_bps,
                    });
                }
                NpeAction::ReleaseAtmConnection { at, vci } => {
                    // The VC is gone: stop monitoring it and free any
                    // reassembly state it still holds. A VC the liveness
                    // monitor quarantined was retired then, once.
                    self.unmonitor_vc(vci);
                    let mut quarantined = false;
                    if let Some(slot) = self.vc_slot_mut(vci) {
                        slot.end_frame();
                        quarantined = slot.quarantined;
                    }
                    self.spp.close_vc(vci);
                    if !quarantined {
                        self.note_vc_retired(at, vci, false);
                    }
                    out.push(Output::AtmConnectionRelease { at, vci });
                }
            }
        }
    }

    /// Run housekeeping up to `now`, appending to a caller-owned buffer:
    /// reassembly timeouts (partial frames flush to the MPP and are
    /// discarded, §5.2–§5.3), VC liveness expiry, and NPE scans
    /// (keepalives, setup watchdogs, retries). Both reassembly and
    /// liveness deadlines live in timer wheels, so an idle call is
    /// O(expired) = O(1) and allocation-free — harnesses can call it
    /// every slice without scanning cost.
    ///
    /// When nothing is due each step returns at once: a poll of an empty
    /// timer wheel only moves its cursor, the reassembler returns before
    /// it builds and sorts a list of flushed frames, and an empty list
    /// of NPE actions is not applied. The buffer-occupancy gauges and
    /// the port health windows still update on every call: they
    /// integrate over time in `f64`, and that integral is in the
    /// snapshot, so an update skipped or merged into a later one would
    /// change it.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Output>) {
        for frame in self.spp.check_timeouts(now) {
            // A timer-flushed partial: clear the VC's lineage and hand
            // the fragment to the MPP (which discards it).
            let idx = self.slot_index(frame.vci);
            let (_, de, origin) = self.vc_slots[idx].end_frame();
            self.frame_up(
                now,
                frame.started_at,
                frame.vci,
                origin,
                frame.control,
                true,
                de,
                &frame.data,
                out,
            );
            self.spp.recycle(frame.data);
        }
        if let Some(timeout) = self.config.vc_liveness_timeout {
            let mut fired = std::mem::take(&mut self.liveness_scratch);
            fired.clear();
            self.liveness.poll(now, &mut fired);
            let mut expired = std::mem::take(&mut self.quarantine_scratch);
            expired.clear();
            for &(_, vci) in &fired {
                let Some(idx) = self.vci_index.get(vci.0) else { continue };
                let slot = &mut self.vc_slots[idx as usize];
                let Some(last) = slot.activity else {
                    slot.liveness_timer = None;
                    continue;
                };
                if last + timeout <= now {
                    slot.activity = None;
                    slot.liveness_timer = None;
                    expired.push(vci);
                } else {
                    // Activity moved the true deadline; re-arm lazily.
                    slot.liveness_timer = Some(self.liveness.insert(last + timeout, vci));
                }
            }
            expired.sort_unstable_by_key(|v| v.0);
            for &vci in &expired {
                self.stats.vcs_quarantined += 1;
                self.note_vc_retired(now, vci, true);
                // Free reassembly state so a half-received frame cannot
                // leak or later surface torn.
                self.spp.close_vc(vci);
                let idx = self.slot_index(vci);
                let slot = &mut self.vc_slots[idx];
                slot.end_frame();
                slot.quarantined = true;
                let actions = self.npe.vc_quarantined(now, vci);
                self.apply_npe_actions(actions, out);
            }
            fired.clear();
            expired.clear();
            self.liveness_scratch = fired;
            self.quarantine_scratch = expired;
        }
        // A scan short of the NPE's next deadline has nothing to do.
        if self.npe.next_deadline().is_some_and(|due| due <= now) {
            let actions = self.npe.scan(now);
            self.apply_npe_actions(actions, out);
        }
        if let Some(m) = &mut self.mgmt {
            let (tx, rx) = (self.tx_buffer.used_octets(), self.rx_buffer.used_octets());
            m.registry.set_gauge(m.handles.tx_occupancy, now, tx as f64);
            m.registry.set_gauge(m.handles.rx_occupancy, now, rx as f64);
            for transition in m.health.advance(now).into_iter().flatten() {
                m.trace.emit(GwEvent::PortHealthChanged {
                    at: now,
                    port: transition.port,
                    from: transition.from,
                    to: transition.to,
                });
            }
        }
    }

    /// The earliest time `advance_into` has work to do: reassembly timers,
    /// setup watchdogs/backoffs, PICon keepalive expiries, and VC
    /// liveness deadlines.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut next = self.spp.next_deadline();
        let mut merge = |candidate: Option<SimTime>| {
            next = match (next, candidate) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        };
        merge(self.npe.next_deadline());
        // Lazy liveness deadlines may be early (activity since arming
        // only re-arms at fire time); an `advance` at an early deadline
        // is a cheap no-op.
        merge(self.liveness.next_deadline());
        next
    }

    /// Drain one frame from the transmit buffer toward the SUPERNET —
    /// `(frame, synchronous)`. Synchronous frames drain first.
    pub fn pop_fddi_tx(&mut self, now: SimTime) -> Option<(Vec<u8>, bool)> {
        if let Some(f) = self.tx_buffer.drain(now, Class::Sync) {
            return Some((f, true));
        }
        self.tx_buffer.drain(now, Class::Async).map(|f| (f, false))
    }

    /// Frames waiting in the transmit buffer.
    pub fn fddi_tx_pending(&self) -> usize {
        self.tx_buffer.depth(Class::Sync) + self.tx_buffer.depth(Class::Async)
    }

    /// Transmit buffer memory statistics.
    pub fn tx_buffer_stats(&self) -> crate::buffers::BufferStats {
        self.tx_buffer.stats()
    }

    /// Receive buffer memory statistics.
    pub fn rx_buffer_stats(&self) -> crate::buffers::BufferStats {
        self.rx_buffer.stats()
    }

    /// Mean transmit-buffer occupancy over `[0, t_end]`, octets.
    pub fn tx_buffer_mean_occupancy(&self, t_end: SimTime) -> f64 {
        self.tx_buffer.mean_occupancy(t_end)
    }

    /// Complete the numbered attempt of an NPE-requested ATM connection
    /// (the `attempt` of its [`Output::AtmConnectionRequest`]),
    /// appending outputs to `out`. An answer the NPE does not await
    /// opens nothing and becomes one [`Output::AtmConnectionRelease`].
    pub fn atm_connection_ready(
        &mut self,
        now: SimTime,
        congram: CongramId,
        attempt: u32,
        vci: Vci,
        out: &mut Vec<Output>,
    ) {
        let actions = self.npe.atm_connection_ready(now, congram, attempt, vci);
        if let [NpeAction::ReleaseAtmConnection { at, vci }] = actions[..] {
            out.push(Output::AtmConnectionRelease { at, vci });
            return;
        }
        self.apply_npe_actions(actions, out);
    }

    /// Fail the numbered attempt of an NPE-requested ATM connection,
    /// appending outputs to `out`.
    pub fn atm_connection_failed(
        &mut self,
        now: SimTime,
        congram: CongramId,
        attempt: u32,
        out: &mut Vec<Output>,
    ) {
        let actions = self.npe.atm_connection_failed(now, congram, attempt);
        self.apply_npe_actions(actions, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_sar::segment::segment_cells;
    use gw_wire::fddi::FrameRepr;
    use gw_wire::mchip::build_data_frame;

    const ATM_VCI: Vci = Vci(100);
    const ATM_ICN: Icn = Icn(10);
    const FDDI_ICN: Icn = Icn(20);

    fn gateway() -> Gateway {
        gateway_with(GatewayConfig::default())
    }

    fn gateway_with(config: GatewayConfig) -> Gateway {
        let mut gw = Gateway::new(config, FddiAddr::station(0), 80_000_000);
        gw.install_congram(ATM_VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(7), false);
        gw
    }

    fn data_cells(payload: &[u8]) -> Vec<[u8; CELL_SIZE]> {
        let mchip = build_data_frame(ATM_ICN, payload).unwrap();
        segment_cells(&AtmHeader::data(Default::default(), ATM_VCI), &mchip, false)
            .unwrap()
            .into_iter()
            .map(|c| c.into_inner())
            .collect()
    }

    #[test]
    fn atm_to_fddi_data_path_end_to_end() {
        let mut gw = gateway();
        let payload = b"end-to-end payload through the gateway".to_vec();
        let cells = data_cells(&payload);
        let mut t = SimTime::ZERO;
        let mut outputs = Vec::new();
        for c in &cells {
            gw.deliver_cells(t, std::slice::from_ref(c), &mut outputs);
            t += SimTime::from_us(3); // ~cell spacing at 155 Mb/s
        }
        assert_eq!(outputs.len(), 1);
        let Output::FddiFrameQueued { at, synchronous } = outputs[0] else { panic!() };
        assert!(!synchronous);
        let (frame, _) = gw.pop_fddi_tx(at).expect("frame in tx buffer");
        let f = Frame::new_checked(&frame[..]).expect("valid FDDI frame");
        assert_eq!(f.dst(), FddiAddr::station(7));
        let mchip = fddi::strip_llc_snap(f.info()).unwrap();
        let (h, p) = gw_wire::mchip::parse_frame(mchip).unwrap();
        assert_eq!(h.icn, FDDI_ICN, "ICN translated");
        assert_eq!(p, &payload[..]);
        assert_eq!(gw.stats().atm_to_fddi_ns.count(), 1);
    }

    /// An LLC frame from station 7 carrying an MCHIP data frame on `icn`.
    fn llc_data_frame(icn: Icn, payload: &[u8]) -> Vec<u8> {
        let mut info = fddi::llc_snap_header().to_vec();
        info.extend_from_slice(&build_data_frame(icn, payload).unwrap());
        FrameRepr {
            fc: FrameControl::LlcAsync { priority: 0 },
            dst: FddiAddr::station(0),
            src: FddiAddr::station(7),
            info,
        }
        .emit()
        .unwrap()
    }

    #[test]
    fn fddi_to_atm_data_path_end_to_end() {
        let mut gw = gateway();
        let payload = b"reverse direction".to_vec();
        let outputs = gw.fddi_frame_in(SimTime::ZERO, &llc_data_frame(FDDI_ICN, &payload));
        let cells: Vec<_> = outputs
            .iter()
            .filter_map(|o| match o {
                Output::AtmCell { cell, .. } => Some(*cell),
                _ => None,
            })
            .collect();
        assert!(!cells.is_empty());
        // Cells carry the congram's VCI and valid HECs; reassembling
        // them recovers the translated MCHIP frame.
        let mut reasm = Vec::new();
        for c in &cells {
            let cell = gw_wire::atm::Cell::new_checked(&c[..]).expect("HEC valid");
            assert_eq!(cell.header().vci, ATM_VCI);
            let mut info = [0u8; 48];
            info.copy_from_slice(cell.payload());
            let sar = gw_wire::sar::SarCell::new_checked(info).expect("CRC valid");
            reasm.extend_from_slice(sar.payload());
        }
        let (h, p) = gw_wire::mchip::parse_frame(&reasm).unwrap();
        assert_eq!(h.icn, ATM_ICN, "ICN translated back");
        assert_eq!(p, &payload[..]);
        assert_eq!(gw.stats().fddi_to_atm_ns.count(), 1);
    }

    /// One hop of Figure 1's internet: `payload` enters `from` as cells
    /// on `vci` carrying `icn`, leaves it as a ring frame addressed to
    /// `to_station`, and that frame enters `to`. Returns the ring frame's
    /// ICN, then the VCI, ICN and payload of the cells `to` emits.
    fn across_the_ring(
        from: &mut Gateway,
        to: &mut Gateway,
        to_station: FddiAddr,
        now: SimTime,
        (vci, icn): (Vci, Icn),
        payload: &[u8],
    ) -> (Icn, Vci, Icn, Vec<u8>) {
        let mchip = build_data_frame(icn, payload).unwrap();
        let cells =
            segment_cells(&AtmHeader::data(Default::default(), vci), &mchip, false).unwrap();
        let mut out = Vec::new();
        for (i, c) in cells.into_iter().enumerate() {
            from.deliver_cells(now + SimTime::from_us(3 * i as u64), &[c.into_inner()], &mut out);
        }
        let [Output::FddiFrameQueued { at, .. }] = out[..] else { panic!("{out:?}") };
        let (frame, _) = from.pop_fddi_tx(at).expect("frame in tx buffer");
        let f = Frame::new_checked(&frame[..]).expect("valid FDDI frame");
        assert_eq!(f.dst(), to_station);
        let (ring, _) =
            gw_wire::mchip::parse_frame(fddi::strip_llc_snap(f.info()).unwrap()).unwrap();

        let mut out_vci = None;
        let mut sar = Vec::new();
        for o in to.fddi_frame_in(at, &frame) {
            let Output::AtmCell { cell, .. } = o else { continue };
            let cell = gw_wire::atm::Cell::new_checked(&cell[..]).expect("HEC valid");
            let vci = cell.header().vci;
            assert_eq!(*out_vci.get_or_insert(vci), vci, "one frame, one VC");
            let mut info = [0u8; 48];
            info.copy_from_slice(cell.payload());
            sar.extend_from_slice(
                gw_wire::sar::SarCell::new_checked(info).expect("CRC valid").payload(),
            );
        }
        let (h, p) = gw_wire::mchip::parse_frame(&sar).unwrap();
        (ring.icn, out_vci.expect("cells out"), h.icn, p.to_vec())
    }

    /// Figure 1: two ATM networks joined through two gateways on one
    /// ring. "At each hop the input ICN is mapped to an output ICN"
    /// (§6.1): GW-A maps `icn_a` ⇄ `icn_ring`, GW-B maps `icn_ring` ⇄
    /// `icn_b`, so neither ATM side sees the other's identifier space.
    #[test]
    fn two_gateways_chain_icns_across_the_ring() {
        let (station_a, station_b) = (FddiAddr::station(0), FddiAddr::station(1));
        let mut gw_a = Gateway::new(GatewayConfig::default(), station_a, 80_000_000);
        let mut gw_b = Gateway::new(GatewayConfig::default(), station_b, 80_000_000);
        // Per congram: (vci_a, icn_a, icn_ring, vci_b, icn_b).
        let congrams = [
            (Vci(64), Icn(1), Icn(2), Vci(65), Icn(3)),
            (Vci(66), Icn(4), Icn(5), Vci(67), Icn(6)),
        ];
        for (vci_a, icn_a, icn_ring, vci_b, icn_b) in congrams {
            gw_a.install_congram(vci_a, icn_a, icn_ring, station_b, false);
            gw_b.install_congram(vci_b, icn_b, icn_ring, station_a, false);
        }

        let mut now = SimTime::ZERO;
        for round in 0..3u8 {
            for (k, (vci_a, icn_a, icn_ring, vci_b, icn_b)) in congrams.into_iter().enumerate() {
                let a_to_b = vec![round * 2 + k as u8; 400];
                assert_eq!(
                    across_the_ring(&mut gw_a, &mut gw_b, station_b, now, (vci_a, icn_a), &a_to_b),
                    (icn_ring, vci_b, icn_b, a_to_b),
                    "A→B, congram {k}"
                );
                now += SimTime::from_ms(1);
                let b_to_a = vec![!(round * 2 + k as u8); 300];
                assert_eq!(
                    across_the_ring(&mut gw_b, &mut gw_a, station_a, now, (vci_b, icn_b), &b_to_a),
                    (icn_ring, vci_a, icn_a, b_to_a),
                    "B→A, congram {k}"
                );
                now += SimTime::from_ms(1);
            }
        }
        for gw in [&gw_a, &gw_b] {
            assert_eq!((gw.mpp().stats().data_up, gw.mpp().stats().data_down), (6, 6));
        }
    }

    #[test]
    fn frame_cells_land_in_one_exactly_sized_buffer_after_what_was_there() {
        let mut gw = gateway();
        let out = gw.fddi_frame_in(SimTime::ZERO, &llc_data_frame(FDDI_ICN, &[5; 461]));
        assert_eq!((out.len(), out.capacity()), (11, 11), "469 octets of MCHIP frame: 11 cells");
        // Through the same path into a buffer that already holds
        // something: appended, nothing before it disturbed.
        let mut held = vec![Output::FddiFrameQueued { at: SimTime::ZERO, synchronous: true }];
        gw.frame_in(SimTime::from_us(400), &llc_data_frame(FDDI_ICN, &[5; 461]), &mut held);
        assert_eq!(held.len(), 12);
        assert!(matches!(held[0], Output::FddiFrameQueued { .. }));
        let moved = |o: &Output| match o {
            Output::AtmCell { cell, .. } => *cell,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            held[1..].iter().map(moved).collect::<Vec<_>>(),
            out.iter().map(moved).collect::<Vec<_>>()
        );
        assert_eq!(gw.aic().stats().cells_out, 22);
        assert_eq!(gw.spp().stats().cells_out, 22);
    }

    #[test]
    fn refused_segmentation_emits_nothing_and_books_as_before() {
        let mut gw = gateway();
        // An ICXT-A entry whose header no cell can carry (PTI is three
        // bits): the MPP translates the frame, the segmenter refuses it.
        gw.mpp
            .program_a(
                Icn(21),
                crate::mpp::IcxtAEntry {
                    out_icn: Icn(11),
                    atm_header: AtmHeader {
                        pti: 8,
                        ..AtmHeader::data(Default::default(), ATM_VCI)
                    },
                },
            )
            .unwrap();
        let held = vec![Output::FddiFrameQueued { at: SimTime::ZERO, synchronous: false }];
        let mut out = held.clone();
        gw.frame_in(SimTime::ZERO, &llc_data_frame(Icn(21), &[9; 300]), &mut out);
        assert_eq!(out, held, "refused before the first cell");
        assert_eq!((gw.cons.fddi_fragment_errors, gw.stats.malformed_drops), (1, 1));
        // The NPE's way out toward ATM, with a control payload beyond
        // the 1024-cell sequence space.
        let oversized = vec![0u8; gw_sar::MAX_FRAME_CELLS * 45 + 1];
        gw.apply_npe_actions(
            vec![NpeAction::SendControlToAtm { at: SimTime::ZERO, vci: ATM_VCI, frame: oversized }],
            &mut out,
        );
        assert_eq!(out, held, "refused before the first cell");
        assert_eq!((gw.cons.fddi_fragment_errors, gw.stats.malformed_drops), (1, 2));
        assert_eq!((gw.aic.stats().cells_out, gw.spp.stats().cells_out), (0, 0));
        assert!(gw.check_conservation().is_empty());
    }

    #[test]
    fn hec_corrupted_cell_discarded_at_aic() {
        let mut gw = gateway();
        let mut cells = data_cells(b"x");
        cells[0][4] ^= 0xFF;
        let mut out = Vec::new();
        gw.deliver_cells(SimTime::ZERO, &cells[..1], &mut out);
        assert!(out.is_empty());
        assert_eq!(gw.aic().stats().hec_discards, 1);
    }

    #[test]
    fn corrected_vci_bit_binds_to_its_vc_and_uncorrected_is_booked_as_loss() {
        // One bit of VCI 100 flipped in the second cell's header: read
        // uncorrected it is VCI 356, which nobody programmed. The header
        // comes from the AIC's corrected copy, the payload from the
        // caller's cell.
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let clean = data_cells(&payload);
        let mut hit = clean.clone();
        hit[1][2] ^= 0x10;
        let run = |hec_correction: bool, cells: &[[u8; CELL_SIZE]]| {
            let mut gw = gateway_with(GatewayConfig {
                hec_correction,
                management: Some(gw_mgmt::MgmtConfig),
                ..Default::default()
            });
            let mut out = Vec::new();
            for (i, c) in cells.iter().enumerate() {
                gw.deliver_cells(SimTime::from_us(3 * i as u64), std::slice::from_ref(c), &mut out);
            }
            let end = SimTime::from_ms(1);
            let frames: Vec<_> =
                std::iter::from_fn(|| gw.pop_fddi_tx(end).map(|(f, _)| f)).collect();
            let snapshot = gw.snapshot(end);
            let corrections = snapshot.get_path(&["components", "aic", "hec_corrections"]);
            let corrections = corrections.and_then(gw_sim::json::Json::as_u64);
            let counted =
                snapshot.get_path(&["metrics", "counters", "gw.aic.hec_corrections", "count"]);
            assert_eq!(
                counted.and_then(gw_sim::json::Json::as_u64),
                corrections,
                "the gw.* view agrees"
            );
            (gw, frames, corrections)
        };
        let (_, want, _) = run(false, &clean);
        assert_eq!(want.len(), 1);

        let (gw, frames, corrections) = run(true, &hit);
        assert_eq!(frames, want, "the frame reassembles byte-identical");
        assert_eq!(corrections, Some(1));
        assert_eq!(gw.aic().stats().hec_discards, 0);

        let (gw, frames, corrections) = run(false, &hit);
        assert!(frames.is_empty());
        assert_eq!((corrections, gw.aic().stats().hec_discards), (Some(0), 1));
        let trace = gw.trace().expect("management plane up");
        let drops: Vec<_> = trace.by_component("aic").collect();
        assert!(
            matches!(drops[..], [GwEvent::CellDropped { reason: CellDropReason::HecError, .. }]),
            "{drops:?}"
        );
        let reasons: Vec<_> = trace
            .discards()
            .map(|e| match e {
                GwEvent::FrameDiscarded { reason, .. } => *reason,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(reasons, [FrameDropReason::LostCell]);
    }

    #[test]
    fn corrupted_fcs_frame_dropped() {
        let mut gw = gateway();
        let mut frame = FrameRepr {
            fc: FrameControl::LlcAsync { priority: 0 },
            dst: FddiAddr::station(0),
            src: FddiAddr::station(7),
            info: vec![0; 60],
        }
        .emit()
        .unwrap();
        let n = frame.len();
        frame[n - 1] ^= 1;
        assert!(gw.fddi_frame_in(SimTime::ZERO, &frame).is_empty());
        assert_eq!(gw.stats().fddi_fcs_drops, 1);
    }

    #[test]
    fn lost_cell_frame_discarded_not_forwarded() {
        let mut gw = gateway();
        let cells = data_cells(&vec![7u8; 300]);
        assert!(cells.len() >= 3);
        let mut outputs = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 1 {
                continue; // lost in the ATM network
            }
            gw.deliver_cells(SimTime::from_us(i as u64 * 3), std::slice::from_ref(c), &mut outputs);
        }
        assert!(outputs.is_empty(), "errored frame must be discarded (§5.2)");
        assert_eq!(gw.spp().reassembly_stats().frames_discarded, 1);
    }

    #[test]
    fn reassembly_timeout_discards_partial_at_mpp() {
        let mut gw = gateway();
        let cells = data_cells(&vec![1u8; 300]);
        // Only the first two cells arrive.
        let mut out = Vec::new();
        gw.deliver_cells(SimTime::ZERO, &cells[..1], &mut out);
        gw.deliver_cells(SimTime::from_us(3), &cells[1..2], &mut out);
        gw.advance_into(SimTime::from_ms(20), &mut out);
        assert!(out.is_empty());
        assert_eq!(gw.stats().partial_discards, 1, "partial frame reached and was dropped at MPP");
    }

    #[test]
    fn smt_frames_go_to_npe() {
        let mut gw = gateway();
        let smt = FrameRepr {
            fc: FrameControl::Smt,
            dst: FddiAddr::BROADCAST,
            src: FddiAddr::station(3),
            info: vec![0; 20],
        }
        .emit()
        .unwrap();
        gw.fddi_frame_in(SimTime::ZERO, &smt);
        assert_eq!(gw.npe().stats().smt_frames, 1);
    }

    #[test]
    fn measured_forward_latency_matches_paper_order() {
        let mut gw = gateway();
        let cells = data_cells(b"q");
        let mut out = Vec::new();
        gw.deliver_cells(SimTime::ZERO, &cells[..1], &mut out);
        let Output::FddiFrameQueued { at, .. } = out[0] else { panic!() };
        // Single-cell frame: 10 (decode) + 45 (write) cycles in the SPP,
        // 15 cycles in the MPP, then DMA. All well under 10 us.
        assert!(at.as_ns() >= 600 + 400, "must include MPP and SPP stages");
        assert!(at.as_ns() < 10_000, "critical path is hardware-fast");
    }

    #[test]
    fn congram_setup_over_atm_control_path() {
        let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 100_000_000);
        gw.npe_mut().add_host([9; 8], FddiAddr::station(4));
        // The setup request arrives as a control frame (C bit) on a VC.
        let setup = gw_mchip::messages::ControlPayload::SetupRequest {
            congram: gw_mchip::congram::CongramId(77),
            kind: gw_mchip::congram::CongramKind::UCon,
            flow: gw_mchip::congram::FlowSpec::cbr(10_000_000),
            dest: [9; 8],
        }
        .to_frame(Icn(0));
        gw.spp().stats(); // touch
        let vci = Vci(33);
        gw.npe_mut(); // ensure open for control VC
                      // Control VCs must be open for reassembly too.
        let cells = segment_cells(&AtmHeader::data(Default::default(), vci), &setup, true).unwrap();
        let mut gw2 = gw;
        gw2.install_congram(vci, Icn(63), Icn(62), FddiAddr::station(1), false); // opens the VC
        let mut outputs = Vec::new();
        for c in cells {
            gw2.deliver_cells(SimTime::ZERO, &[c.into_inner()], &mut outputs);
        }
        // The NPE answered with a SetupConfirm, segmented into cells out
        // the ATM side.
        let confirm_cells: Vec<_> =
            outputs.iter().filter(|o| matches!(o, Output::AtmCell { .. })).collect();
        assert!(!confirm_cells.is_empty(), "confirm must be emitted: {outputs:?}");
        assert_eq!(gw2.npe().stats().setups_confirmed, 1);
        // And the congram's data path is now programmed.
        assert_eq!(gw2.mpp().installed().0, 2, "setup added an ICXT-F entry");
    }

    #[test]
    fn trace_records_exceptional_events() {
        let mut gw = gateway_with(GatewayConfig {
            management: Some(gw_mgmt::MgmtConfig),
            ..Default::default()
        });
        // An AIC discard.
        let mut bad = data_cells(b"x");
        bad[0][4] ^= 0xFF;
        let mut out = Vec::new();
        gw.deliver_cells(SimTime::ZERO, &bad[..1], &mut out);
        // A lost-cell frame discard.
        let cells = data_cells(&vec![7u8; 300]);
        for (i, c) in cells.iter().enumerate() {
            if i == 1 {
                continue;
            }
            gw.deliver_cells(SimTime::from_us(3 * i as u64), std::slice::from_ref(c), &mut out);
        }
        let trace = gw.trace().expect("management plane up");
        assert_eq!(trace.by_component("aic").count(), 1);
        let discard = trace.discards().next().expect("a frame discard was traced");
        let gw_mgmt::GwEvent::FrameDiscarded { vci, first_cell, reason, .. } = *discard else {
            panic!("discards() returned a non-discard: {discard:?}");
        };
        assert_eq!(vci, ATM_VCI.0);
        assert_eq!(reason, gw_mgmt::FrameDropReason::LostCell);
        // The causal id resolves back to the frame's opening cell: the
        // HEC-killed cell was id 1, so the lost frame started at id 2.
        assert_eq!(first_cell, gw_mgmt::CellId(2));
        let frame = discard.frame().unwrap();
        assert_eq!(trace.lineage(frame), Some((first_cell, ATM_VCI.0)));
    }

    #[test]
    fn management_plane_counts_vc_rows_and_forwards() {
        let mut gw = Gateway::new(
            GatewayConfig { management: Some(gw_mgmt::MgmtConfig), ..Default::default() },
            FddiAddr::station(0),
            100_000_000,
        );
        gw.install_congram(ATM_VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(7), false);
        let cells = data_cells(b"count me");
        gw.deliver_cells(SimTime::ZERO, &cells, &mut Vec::new());
        let m = gw.mgmt().unwrap();
        let row = m.registry.vc(ATM_VCI.0).expect("the congram's row");
        assert_eq!(row.cells_in.count(), cells.len() as u64);
        assert_eq!(row.reassembled_frames.count(), 1);
        assert_eq!(row.forwarded_frames.count(), 1);
        assert_eq!(m.registry.counter_by_name("gw.mpp.frames_forwarded"), Some(1));
        assert!(row.active());
        let health = gw.health().unwrap();
        assert_eq!(health.atm.state, gw_mgmt::PortState::Up);
        assert_eq!(health.fddi.state, gw_mgmt::PortState::Up);
    }

    #[test]
    fn tx_buffer_overflow_counts() {
        let mut gw = Gateway::new(
            GatewayConfig { tx_buffer_octets: 100, ..Default::default() },
            FddiAddr::station(0),
            100_000_000,
        );
        gw.install_congram(ATM_VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(7), false);
        // Two frames; the second cannot fit in 100 octets.
        for i in 0..2 {
            let cells = data_cells(&[i as u8; 60]);
            gw.deliver_cells(SimTime::from_us(i as u64 * 100), &cells, &mut Vec::new());
        }
        assert_eq!(gw.tx_buffer_stats().overflow_drops, 1);
        assert_eq!(gw.fddi_tx_pending(), 1);
    }

    /// `next_deadline` covers a PICon's keepalive expiry, so a loop that
    /// sleeps until it does not oversleep the PICon's death.
    #[test]
    fn next_deadline_includes_a_picons_keepalive_expiry() {
        use gw_mchip::congram::{CongramId, CongramKind, FlowSpec};
        use gw_mchip::messages::ControlPayload;
        let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 80_000_000);
        let (control, dest) = (Vci(33), [9; 8]);
        gw.npe_mut().add_host(dest, FddiAddr::station(4));
        gw.open_control_vc(control);
        let setup = ControlPayload::SetupRequest {
            congram: CongramId(1),
            kind: CongramKind::PICon,
            flow: FlowSpec::cbr(1_000_000),
            dest,
        }
        .to_frame(Icn(0));
        let cells: Vec<[u8; CELL_SIZE]> =
            segment_cells(&AtmHeader::data(Default::default(), control), &setup, true)
                .unwrap()
                .into_iter()
                .map(|c| c.into_inner())
                .collect();
        let mut out = Vec::new();
        gw.deliver_cells(SimTime::from_us(10), &cells, &mut out);
        assert_eq!(gw.mpp().installed(), (1, 1), "the PICon's ICXT entries");
        let deadline = gw.next_deadline().expect("the keepalive expiry");
        let expiry = SimTime::from_secs(3);
        assert!(deadline > expiry && deadline < expiry + SimTime::from_ms(1), "{deadline:?}");
        gw.advance_into(deadline - SimTime::from_ns(1), &mut out);
        assert_eq!(gw.mpp().installed(), (1, 1), "alive until the deadline");
        gw.advance_into(deadline, &mut out);
        assert_eq!(gw.mpp().installed(), (0, 0), "the dead PICon's entries cleared");
        assert_eq!(gw.next_deadline(), None);
    }

    #[test]
    fn idle_vc_is_quarantined_and_reassembly_freed() {
        let mut gw = Gateway::new(
            GatewayConfig { vc_liveness_timeout: Some(SimTime::from_ms(5)), ..Default::default() },
            FddiAddr::station(0),
            100_000_000,
        );
        gw.install_congram(ATM_VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(7), false);
        // Two cells of a larger frame arrive, then the VC goes silent.
        let cells = data_cells(&vec![9u8; 300]);
        let mut out = Vec::new();
        gw.deliver_cells(SimTime::ZERO, &cells[..1], &mut out);
        gw.deliver_cells(SimTime::from_us(3), &cells[1..2], &mut out);
        assert!(gw.spp().occupancy_cells() > 0, "partial frame held in reassembly");
        let deadline = gw.next_deadline().expect("liveness deadline pending");
        assert!(deadline <= SimTime::from_ms(5) + SimTime::from_us(3));
        gw.advance_into(SimTime::from_ms(6), &mut out);
        assert!(out.is_empty(), "quarantine of a harness-installed congram is silent");
        assert_eq!(gw.stats().vcs_quarantined, 1);
        assert_eq!(gw.spp().occupancy_cells(), 0, "reassembly state freed, no leak");
        // A second idle period must not double-count the same VC.
        gw.advance_into(SimTime::from_ms(20), &mut out);
        assert_eq!(gw.stats().vcs_quarantined, 1);
    }

    #[test]
    fn active_vc_is_not_quarantined() {
        let mut gw = Gateway::new(
            GatewayConfig { vc_liveness_timeout: Some(SimTime::from_ms(5)), ..Default::default() },
            FddiAddr::station(0),
            100_000_000,
        );
        gw.install_congram(ATM_VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(7), false);
        // A frame every 2 ms keeps the VC alive across 10 ms.
        let mut out = Vec::new();
        for i in 0..5u64 {
            gw.deliver_cells(SimTime::from_ms(2 * i), &data_cells(b"keepalive"), &mut out);
            gw.advance_into(SimTime::from_ms(2 * i + 1), &mut out);
        }
        assert_eq!(gw.stats().vcs_quarantined, 0);
    }

    #[test]
    fn overloaded_tx_buffer_sheds_async_frames_before_overflow() {
        let mut gw = Gateway::new(
            GatewayConfig {
                tx_buffer_octets: 400,
                overload_shedding: Some(crate::config::ShedConfig {
                    high_fraction: 0.6,
                    low_fraction: 0.4,
                }),
                ..Default::default()
            },
            FddiAddr::station(0),
            100_000_000,
        );
        gw.install_congram(ATM_VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(7), false);
        // Six frames arrive with nothing draining the transmit buffer.
        let mut out = Vec::new();
        for i in 0..6u64 {
            gw.deliver_cells(SimTime::from_us(i * 100), &data_cells(&[i as u8; 60]), &mut out);
        }
        let (s, tx) = (gw.stats(), gw.tx_buffer_stats());
        assert!(tx.frames_shed >= 1, "watermark must trip: {tx:?}");
        assert!(s.cells_shed >= tx.frames_shed);
        assert_eq!(tx.overflow_drops, 0, "shedding kicks in before hard overflow");
    }

    #[test]
    fn clp_tagged_frames_shed_before_untagged() {
        let mut gw = Gateway::new(
            GatewayConfig {
                tx_buffer_octets: 400,
                overload_shedding: Some(crate::config::ShedConfig {
                    high_fraction: 0.9,
                    low_fraction: 0.3,
                }),
                ..Default::default()
            },
            FddiAddr::station(0),
            100_000_000,
        );
        gw.install_congram(ATM_VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(7), false);
        let clp_cells = |payload: &[u8]| -> Vec<[u8; CELL_SIZE]> {
            let mchip = build_data_frame(ATM_ICN, payload).unwrap();
            let mut h = AtmHeader::data(Default::default(), ATM_VCI);
            h.clp = true;
            segment_cells(&h, &mchip, false).unwrap().into_iter().map(|c| c.into_inner()).collect()
        };
        // Two untagged frames raise occupancy past the low watermark.
        let mut out = Vec::new();
        for i in 0..2u64 {
            gw.deliver_cells(SimTime::from_us(i * 100), &data_cells(&[1u8; 60]), &mut out);
        }
        assert_eq!(gw.tx_buffer_stats().frames_shed, 0);
        // A CLP-tagged frame is now shed while an untagged one still fits.
        gw.deliver_cells(SimTime::from_us(300), &clp_cells(&[2u8; 60]), &mut out);
        assert_eq!(gw.tx_buffer_stats().frames_shed, 1, "discard-eligible frame shed first");
        gw.deliver_cells(SimTime::from_us(400), &data_cells(&[3u8; 60]), &mut out);
        assert_eq!(gw.tx_buffer_stats().frames_shed, 1, "untagged frame still delivered");
        assert_eq!(gw.tx_buffer_stats().overflow_drops, 0);
    }

    #[test]
    fn synchronous_congram_frames_use_sync_queue() {
        let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 100_000_000);
        gw.install_congram(ATM_VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(7), true);
        let cells = data_cells(b"realtime");
        let mut outputs = Vec::new();
        gw.deliver_cells(SimTime::ZERO, &cells, &mut outputs);
        let Output::FddiFrameQueued { synchronous, .. } = outputs[0] else { panic!() };
        assert!(synchronous);
        let (frame, sync) = gw.pop_fddi_tx(SimTime::from_ms(1)).unwrap();
        assert!(sync);
        assert_eq!(
            Frame::new_unchecked(&frame[..]).frame_control().unwrap(),
            FrameControl::LlcSync
        );
    }
}
