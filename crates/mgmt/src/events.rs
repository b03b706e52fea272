//! Structured trace events with causal lineage.
//!
//! A free-form `String` detail is good for eyeballs and useless for
//! attribution. These events are a typed enum carrying causal ids —
//! every cell entering the gateway gets a [`CellId`], every
//! reassembly in progress a [`FrameId`], and frame
//! events carry the id of the *first cell* that opened the frame — so a
//! dropped frame can be traced back to the exact cell and VC that
//! caused it, and a forwarded frame to the cells it came from.

use crate::health::{Port, PortState};
use gw_sim::{EventRing, SimTime};

/// Identity of one ATM cell entering the gateway (monotone per
/// gateway, assigned at the AIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u64);

/// Identity of one frame reassembly (monotone per gateway, assigned
/// when the SPP opens a reassembly buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u64);

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl std::fmt::Display for FrameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Why a single cell was discarded before reaching reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellDropReason {
    /// AIC header error check failed (uncorrectable).
    HecError,
    /// GCRA policer marked the cell non-conforming.
    Policed,
    /// SAR payload CRC-10 check failed at the SPP.
    Crc10,
}

/// Why a frame (in reassembly or in flight) was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDropReason {
    /// A cell of the frame was lost; SPP discarded the rest (§5.2).
    LostCell,
    /// Reassembly CRC-10 mismatch.
    CrcError,
    /// Reassembly timer expired before the last cell arrived.
    ReassemblyTimeout,
    /// No reassembly buffer available for the VC.
    NoBuffer,
    /// Frame exceeded the reassembly buffer size.
    ReassemblyOverflow,
    /// Cell arrived for a VC with no programmed congram.
    UnknownVc,
    /// MPP could not classify or route the frame.
    MppDrop,
    /// Frame failed structural validation.
    Malformed,
    /// Shed by the tx-buffer watermark policy (overload).
    TxShed,
    /// Tx buffer hard overflow.
    TxOverflow,
    /// Shed by the rx-buffer watermark policy (overload).
    RxShed,
    /// Rx buffer hard overflow.
    RxOverflow,
    /// NPE control FIFO was full.
    ControlFifoFull,
    /// The frame's VC was quarantined by liveness monitoring.
    VcQuarantined,
    /// FDDI FCS check failed at the MAC.
    FcsError,
    /// A misinserted (or replayed) cell landed in the frame: the
    /// sequence check saw a backward jump, the signature of a cell that
    /// belongs to another connection — never merged into this VC's
    /// reassembly, and never booked as plain loss.
    Misinserted,
}

impl FrameDropReason {
    /// Stable lower-snake name used in snapshots and text dumps.
    pub fn name(&self) -> &'static str {
        match self {
            FrameDropReason::LostCell => "lost_cell",
            FrameDropReason::CrcError => "crc_error",
            FrameDropReason::ReassemblyTimeout => "reassembly_timeout",
            FrameDropReason::NoBuffer => "no_buffer",
            FrameDropReason::ReassemblyOverflow => "reassembly_overflow",
            FrameDropReason::UnknownVc => "unknown_vc",
            FrameDropReason::MppDrop => "mpp_drop",
            FrameDropReason::Malformed => "malformed",
            FrameDropReason::TxShed => "tx_shed",
            FrameDropReason::TxOverflow => "tx_overflow",
            FrameDropReason::RxShed => "rx_shed",
            FrameDropReason::RxOverflow => "rx_overflow",
            FrameDropReason::ControlFifoFull => "control_fifo_full",
            FrameDropReason::VcQuarantined => "vc_quarantined",
            FrameDropReason::FcsError => "fcs_error",
            FrameDropReason::Misinserted => "misinserted_cell",
        }
    }
}

impl CellDropReason {
    /// Stable lower-snake name used in snapshots and text dumps.
    pub fn name(&self) -> &'static str {
        match self {
            CellDropReason::HecError => "hec_error",
            CellDropReason::Policed => "policed",
            CellDropReason::Crc10 => "crc10",
        }
    }
}

/// One structured gateway event.
///
/// Frame events carry `first_cell`: the [`CellId`] of the cell that
/// opened the reassembly, which is the causal root of the frame's
/// lineage (cell → reassembled frame → forwarded frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GwEvent {
    /// A cell was discarded before reassembly.
    CellDropped {
        /// When.
        at: SimTime,
        /// Which cell.
        cell: CellId,
        /// The VCI it carried.
        vci: u16,
        /// Why.
        reason: CellDropReason,
    },
    /// The SPP opened a reassembly for a new frame.
    FrameStarted {
        /// When.
        at: SimTime,
        /// The new frame's id.
        frame: FrameId,
        /// The frame's VC.
        vci: u16,
        /// The cell that opened it.
        first_cell: CellId,
    },
    /// Reassembly completed; the frame moved up to the MPP.
    FrameReassembled {
        /// When.
        at: SimTime,
        /// Which frame.
        frame: FrameId,
        /// The frame's VC.
        vci: u16,
        /// The cell that opened it.
        first_cell: CellId,
        /// Cells consumed by the reassembly.
        cells: u32,
    },
    /// A frame under reassembly or in flight was discarded.
    FrameDiscarded {
        /// When.
        at: SimTime,
        /// Which frame.
        frame: FrameId,
        /// The frame's VC.
        vci: u16,
        /// The cell that opened it — the causal root of the loss.
        first_cell: CellId,
        /// Cells consumed before the discard.
        cells: u32,
        /// Why.
        reason: FrameDropReason,
    },
    /// A frame left the gateway.
    FrameForwarded {
        /// When.
        at: SimTime,
        /// Which frame.
        frame: FrameId,
        /// The frame's VC.
        vci: u16,
        /// The cell that opened it.
        first_cell: CellId,
        /// Egress port.
        port: Port,
        /// Frame payload octets.
        octets: u32,
    },
    /// An FDDI-side frame (no cell lineage) was dropped or shed.
    FddiFrameDropped {
        /// When.
        at: SimTime,
        /// Port whose buffer dropped it.
        port: Port,
        /// Whether it was synchronous-class traffic.
        synchronous: bool,
        /// Frame octets.
        octets: u32,
        /// Why.
        reason: FrameDropReason,
    },
    /// A congram was installed (or re-established) for a VC.
    VcInstalled {
        /// When.
        at: SimTime,
        /// The VC.
        vci: u16,
    },
    /// A VC's congram was released or quarantined.
    VcRetired {
        /// When.
        at: SimTime,
        /// The VC.
        vci: u16,
        /// True when retirement was a liveness quarantine, not a
        /// normal release.
        quarantined: bool,
    },
    /// A port's health state changed.
    PortHealthChanged {
        /// When.
        at: SimTime,
        /// Which port.
        port: Port,
        /// Previous state.
        from: PortState,
        /// New state.
        to: PortState,
    },
}

impl GwEvent {
    /// When the event happened.
    pub fn at(&self) -> SimTime {
        match *self {
            GwEvent::CellDropped { at, .. }
            | GwEvent::FrameStarted { at, .. }
            | GwEvent::FrameReassembled { at, .. }
            | GwEvent::FrameDiscarded { at, .. }
            | GwEvent::FrameForwarded { at, .. }
            | GwEvent::FddiFrameDropped { at, .. }
            | GwEvent::VcInstalled { at, .. }
            | GwEvent::VcRetired { at, .. }
            | GwEvent::PortHealthChanged { at, .. } => at,
        }
    }

    /// The VC the event concerns, if any.
    pub fn vci(&self) -> Option<u16> {
        match *self {
            GwEvent::CellDropped { vci, .. }
            | GwEvent::FrameStarted { vci, .. }
            | GwEvent::FrameReassembled { vci, .. }
            | GwEvent::FrameDiscarded { vci, .. }
            | GwEvent::FrameForwarded { vci, .. }
            | GwEvent::VcInstalled { vci, .. }
            | GwEvent::VcRetired { vci, .. } => Some(vci),
            _ => None,
        }
    }

    /// The causal cell id, if the event has cell lineage.
    pub fn cell(&self) -> Option<CellId> {
        match *self {
            GwEvent::CellDropped { cell, .. } => Some(cell),
            GwEvent::FrameStarted { first_cell, .. }
            | GwEvent::FrameReassembled { first_cell, .. }
            | GwEvent::FrameDiscarded { first_cell, .. }
            | GwEvent::FrameForwarded { first_cell, .. } => Some(first_cell),
            _ => None,
        }
    }

    /// The frame id, if the event concerns a frame with lineage.
    pub fn frame(&self) -> Option<FrameId> {
        match *self {
            GwEvent::FrameStarted { frame, .. }
            | GwEvent::FrameReassembled { frame, .. }
            | GwEvent::FrameDiscarded { frame, .. }
            | GwEvent::FrameForwarded { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// The reporting component, mirroring the old string trace's
    /// component tags.
    fn component(&self) -> &'static str {
        match self {
            GwEvent::CellDropped { reason: CellDropReason::HecError, .. } => "aic",
            GwEvent::CellDropped { reason: CellDropReason::Policed, .. } => "gcra",
            GwEvent::CellDropped { reason: CellDropReason::Crc10, .. } => "spp",
            GwEvent::FrameStarted { .. } | GwEvent::FrameReassembled { .. } => "spp",
            GwEvent::FrameDiscarded { reason, .. } => match reason {
                FrameDropReason::TxShed | FrameDropReason::TxOverflow => "txbuf",
                FrameDropReason::RxShed | FrameDropReason::RxOverflow => "rxbuf",
                FrameDropReason::MppDrop | FrameDropReason::Malformed => "mpp",
                FrameDropReason::ControlFifoFull => "npe-fifo",
                FrameDropReason::VcQuarantined => "npe",
                FrameDropReason::FcsError => "mac",
                _ => "spp",
            },
            GwEvent::FrameForwarded { .. } => "mpp",
            GwEvent::FddiFrameDropped { reason, .. } => match reason {
                FrameDropReason::TxShed | FrameDropReason::TxOverflow => "txbuf",
                FrameDropReason::RxShed | FrameDropReason::RxOverflow => "rxbuf",
                FrameDropReason::ControlFifoFull => "npe-fifo",
                FrameDropReason::FcsError => "mac",
                _ => "mpp",
            },
            GwEvent::VcInstalled { .. } | GwEvent::VcRetired { .. } => "npe",
            GwEvent::PortHealthChanged { .. } => "health",
        }
    }
}

impl std::fmt::Display for GwEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GwEvent::CellDropped { at, cell, vci, reason } => {
                write!(
                    f,
                    "{at} [{}] cell {cell} vci={vci} dropped: {}",
                    self.component(),
                    reason.name()
                )
            }
            GwEvent::FrameStarted { at, frame, vci, first_cell } => {
                write!(f, "{at} [spp] frame {frame} vci={vci} started by {first_cell}")
            }
            GwEvent::FrameReassembled { at, frame, vci, first_cell, cells } => {
                write!(f, "{at} [spp] frame {frame} vci={vci} reassembled ({cells} cells from {first_cell})")
            }
            GwEvent::FrameDiscarded { at, frame, vci, first_cell, cells, reason } => {
                write!(
                    f,
                    "{at} [{}] frame {frame} vci={vci} discarded: {} ({cells} cells, first cell {first_cell})",
                    self.component(),
                    reason.name()
                )
            }
            GwEvent::FrameForwarded { at, frame, vci, first_cell, port, octets } => {
                write!(f, "{at} [mpp] frame {frame} vci={vci} forwarded to {port} ({octets} B, from {first_cell})")
            }
            GwEvent::FddiFrameDropped { at, port, synchronous, octets, reason } => {
                let class = if synchronous { "sync" } else { "async" };
                write!(
                    f,
                    "{at} [{}] {port} {class} frame dropped: {} ({octets} B)",
                    self.component(),
                    reason.name()
                )
            }
            GwEvent::VcInstalled { at, vci } => {
                write!(f, "{at} [npe] vci={vci} congram installed")
            }
            GwEvent::VcRetired { at, vci, quarantined } => {
                let how = if quarantined { "quarantined" } else { "released" };
                write!(f, "{at} [npe] vci={vci} congram {how}")
            }
            GwEvent::PortHealthChanged { at, port, from, to } => {
                write!(f, "{at} [health] {port} {from} -> {to}")
            }
        }
    }
}

/// A bounded ring of [`GwEvent`]s with lineage queries.
#[derive(Debug, Clone)]
pub struct CausalTrace {
    ring: EventRing<GwEvent>,
}

impl CausalTrace {
    /// A trace retaining the most recent `capacity` events.
    pub fn bounded(capacity: usize) -> CausalTrace {
        CausalTrace { ring: EventRing::bounded(capacity) }
    }

    /// Record an event.
    #[inline]
    pub fn emit(&mut self, event: GwEvent) {
        self.ring.push(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &GwEvent> {
        self.ring.events()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Events from one component, oldest first.
    pub fn by_component<'a>(&'a self, component: &str) -> impl Iterator<Item = &'a GwEvent> + 'a {
        let component = component.to_string();
        self.ring.events().filter(move |e| e.component() == component)
    }

    /// All frame-discard events, oldest first.
    pub fn discards(&self) -> impl Iterator<Item = &GwEvent> {
        self.ring.events().filter(|e| matches!(e, GwEvent::FrameDiscarded { .. }))
    }

    /// The causal lineage of `frame`: `(first_cell, vci)`, from any
    /// retained event that carries it.
    pub fn lineage(&self, frame: FrameId) -> Option<(CellId, u16)> {
        self.ring.events().find_map(|e| match *e {
            GwEvent::FrameStarted { frame: f, first_cell, vci, .. }
            | GwEvent::FrameReassembled { frame: f, first_cell, vci, .. }
            | GwEvent::FrameDiscarded { frame: f, first_cell, vci, .. }
            | GwEvent::FrameForwarded { frame: f, first_cell, vci, .. }
                if f == frame =>
            {
                Some((first_cell, vci))
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineage_traces_discard_to_cell_and_vc() {
        let mut t = CausalTrace::bounded(16);
        t.emit(GwEvent::FrameStarted {
            at: SimTime::from_ns(10),
            frame: FrameId(3),
            vci: 100,
            first_cell: CellId(42),
        });
        t.emit(GwEvent::FrameDiscarded {
            at: SimTime::from_ns(90),
            frame: FrameId(3),
            vci: 100,
            first_cell: CellId(42),
            cells: 5,
            reason: FrameDropReason::LostCell,
        });
        let discard = t.discards().next().unwrap();
        assert_eq!(discard.frame(), Some(FrameId(3)));
        assert_eq!(discard.cell(), Some(CellId(42)));
        assert_eq!(discard.vci(), Some(100));
        assert_eq!(t.lineage(FrameId(3)), Some((CellId(42), 100)));
        assert_eq!(t.lineage(FrameId(9)), None);
    }

    #[test]
    fn component_tags_match_old_trace_names() {
        let e = GwEvent::CellDropped {
            at: SimTime::ZERO,
            cell: CellId(1),
            vci: 5,
            reason: CellDropReason::HecError,
        };
        assert_eq!(e.component(), "aic");
        let e = GwEvent::FrameDiscarded {
            at: SimTime::ZERO,
            frame: FrameId(1),
            vci: 5,
            first_cell: CellId(1),
            cells: 1,
            reason: FrameDropReason::TxShed,
        };
        assert_eq!(e.component(), "txbuf");
        let e = GwEvent::FddiFrameDropped {
            at: SimTime::ZERO,
            port: Port::Fddi,
            synchronous: false,
            octets: 100,
            reason: FrameDropReason::RxOverflow,
        };
        assert_eq!(e.component(), "rxbuf");
    }

    #[test]
    fn display_is_human_readable() {
        let e = GwEvent::FrameDiscarded {
            at: SimTime::from_us(5),
            frame: FrameId(7),
            vci: 200,
            first_cell: CellId(31),
            cells: 4,
            reason: FrameDropReason::ReassemblyTimeout,
        };
        let s = e.to_string();
        assert!(s.contains("f7"), "{s}");
        assert!(s.contains("vci=200"), "{s}");
        assert!(s.contains("reassembly_timeout"), "{s}");
        assert!(s.contains("c31"), "{s}");
    }

    #[test]
    fn by_component_filters_typed_events() {
        let mut t = CausalTrace::bounded(8);
        t.emit(GwEvent::VcInstalled { at: SimTime::ZERO, vci: 1 });
        t.emit(GwEvent::CellDropped {
            at: SimTime::ZERO,
            cell: CellId(0),
            vci: 1,
            reason: CellDropReason::Policed,
        });
        assert_eq!(t.by_component("npe").count(), 1);
        assert_eq!(t.by_component("gcra").count(), 1);
        assert_eq!(t.by_component("spp").count(), 0);
    }
}
