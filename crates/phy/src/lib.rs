//! Transport-blind gateway ports.
//!
//! The paper's gateway is an appliance between two physical ports: the
//! AIC's cell side toward the ATM network and the SUPERNET frame side
//! toward the FDDI ring. This crate extracts those two seams behind
//! the [`CellPhy`] and [`FramePhy`] traits so the *same* protocol core
//! ([`gw_gateway::gateway::Gateway`]) can be driven identically by
//!
//! * the co-sim testbed (which wires the traits to its in-process
//!   network models through the [`loopback`] pair),
//! * the [`loopback`] pair on its own (unit and appliance tests), and
//! * a real OS transport — the [`udp`] encapsulation, which carries
//!   timestamped cells (up to 23 to a datagram) and frames in UDP
//!   datagrams with a tiny lockstep-reliable ARQ so datagram loss,
//!   duplication, and truncation at the transport never reach the
//!   gateway core.
//!
//! On top sit the appliance pieces: a [`clock::WallClock`] mapping real
//! time onto the 40 ns cycle clock, a per-port
//! [`supervisor::TransportSupervisor`] reusing the congram-setup
//! backoff policy for socket errors and link flaps, and the
//! [`appliance::Appliance`] driver with graceful drain and live
//! config reload — the engine behind the `gwd` daemon.
//!
//! Layering: `gw-phy` may depend on the wire formats and the gateway
//! core; nothing below it (wire, sar, core) may depend back on a
//! transport. `gw-lint` enforces this.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod appliance;
pub mod clock;
pub mod encap;
pub mod loopback;
pub mod supervisor;
pub mod udp;

pub use appliance::{Appliance, ApplianceConfig, CongramSpec, DrainReport};
pub use clock::WallClock;
pub use loopback::{loopback_cell_pair, loopback_frame_pair, LoopbackCellPhy, LoopbackFramePhy};
pub use supervisor::{TransportEvent, TransportSupervisor};
pub use udp::{udp_cell_pair, udp_frame_pair, TransportFaultConfig, UdpCellPhy, UdpFramePhy};

use gw_sim::time::SimTime;
use gw_wire::atm::CELL_SIZE;

/// Why a phy operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhyError {
    /// The OS transport failed (socket error); the port supervisor
    /// treats this as a link flap and starts reconnecting.
    Io(std::io::ErrorKind),
    /// The payload exceeds what the encapsulation can carry.
    TooLarge(usize),
}

impl std::fmt::Display for PhyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhyError::Io(kind) => write!(f, "transport i/o error: {kind:?}"),
            PhyError::TooLarge(len) => write!(f, "payload of {len} octets exceeds encapsulation"),
        }
    }
}

impl std::error::Error for PhyError {}

impl From<std::io::Error> for PhyError {
    fn from(e: std::io::Error) -> PhyError {
        PhyError::Io(e.kind())
    }
}

/// Transport-level counters a phy maintains. All zero for transports
/// with nothing to count (loopback).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhyStats {
    /// Datagrams put on the wire (first transmissions, not retries).
    pub datagrams_tx: u64,
    /// In-sequence datagrams accepted off the wire.
    pub datagrams_rx: u64,
    /// Retransmissions of unacknowledged datagrams.
    pub retransmits: u64,
    /// Duplicate datagrams discarded by the sequence check.
    pub dup_drops: u64,
    /// Datagrams discarded as undecodable (runt, bad magic, length
    /// mismatch from truncation), and in-sequence ones whose payload the
    /// port cannot use (wrong kind, a ragged run of cell records).
    pub decode_drops: u64,
    /// Datagrams discarded for a sequence number too far ahead of the
    /// next expected one to be held for reordering.
    pub window_drops: u64,
    /// Fault injector: transmissions dropped at the seam.
    pub faults_dropped: u64,
    /// Fault injector: transmissions duplicated at the seam.
    pub faults_duplicated: u64,
    /// Fault injector: transmissions truncated at the seam.
    pub faults_truncated: u64,
}

impl PhyStats {
    /// Fold another counter set into this one (summing across the
    /// endpoints of a pair, or across ports).
    pub fn merge(&mut self, other: &PhyStats) {
        self.datagrams_tx += other.datagrams_tx;
        self.datagrams_rx += other.datagrams_rx;
        self.retransmits += other.retransmits;
        self.dup_drops += other.dup_drops;
        self.decode_drops += other.decode_drops;
        self.window_drops += other.window_drops;
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.faults_truncated += other.faults_truncated;
    }

    /// True when the injected-fault counters show all three transport
    /// fault classes actually fired (the phy-soak hollow-coverage gate).
    pub fn faults_exercised(&self) -> bool {
        self.faults_dropped > 0 && self.faults_duplicated > 0 && self.faults_truncated > 0
    }
}

/// One endpoint of the gateway's ATM cell port (the AIC seam).
///
/// Cells travel with the `SimTime` they were emitted at; the receiving
/// side must observe them in send order with those timestamps intact —
/// that invariant is what makes a transport swap invisible to the
/// cycle-accurate core (the testbed byte-compares snapshots across
/// transports to prove it).
pub trait CellPhy {
    /// Queue one 53-octet cell stamped `at` toward the peer. A transport
    /// may hold it back to share a datagram with the cells that follow;
    /// it leaves no later than the next [`CellPhy::flush`] or
    /// [`CellPhy::pump`].
    fn send_cell(&mut self, at: SimTime, cell: &[u8; CELL_SIZE]) -> Result<(), PhyError>;

    /// Append every cell that has arrived in order, oldest first.
    fn poll_cells(&mut self, out: &mut Vec<(SimTime, [u8; CELL_SIZE])>) -> Result<(), PhyError>;

    /// Move the transport: receive pending datagrams, send acks,
    /// retransmit unacknowledged data, and send what `send_cell` held
    /// back. Call until [`CellPhy::in_flight`] reaches zero to flush
    /// synchronously (lockstep mode), or once per tick in wall-clock
    /// mode.
    fn pump(&mut self, now: SimTime) -> Result<(), PhyError>;

    /// Send what `send_cell` held back, now, and do nothing else — for
    /// a caller that has finished emitting and will not pump again for
    /// a while. Default: nothing is ever held back.
    fn flush(&mut self) -> Result<(), PhyError> {
        Ok(())
    }

    /// Re-establish the transport after an I/O error (rebind/reconnect).
    /// Cells held back or unacknowledged survive and go out after the
    /// reconnect. Default: nothing to re-establish.
    fn reconnect(&mut self) -> Result<(), PhyError> {
        Ok(())
    }

    /// Transmissions the peer has not acknowledged yet, counted in the
    /// transport's own units (for UDP, datagrams of up to 23 cells, one
    /// still being filled included) — zero exactly when every cell sent
    /// has been acknowledged.
    fn in_flight(&self) -> usize {
        0
    }

    /// Transport counters.
    fn stats(&self) -> PhyStats {
        PhyStats::default()
    }
}

/// One endpoint of the gateway's SUPERNET frame port (the ring seam).
pub trait FramePhy {
    /// Queue one FDDI frame stamped `at` toward the peer; `synchronous`
    /// carries the frame's ring service class. Returns `Some(buffer)`
    /// when the transport copied the frame and hands the buffer back
    /// for recycling into the MPP frame pool; `None` when ownership
    /// moved into the transport (the loopback pair passes the buffer
    /// through, preserving the pool census across the seam).
    fn send_frame(
        &mut self,
        at: SimTime,
        frame: Vec<u8>,
        synchronous: bool,
    ) -> Result<Option<Vec<u8>>, PhyError>;

    /// Append every frame that has arrived in order, oldest first.
    fn poll_frames(&mut self, out: &mut Vec<(SimTime, Vec<u8>, bool)>) -> Result<(), PhyError>;

    /// Move the transport (see [`CellPhy::pump`]).
    fn pump(&mut self, now: SimTime) -> Result<(), PhyError>;

    /// Re-establish the transport after an I/O error (see
    /// [`CellPhy::reconnect`]).
    fn reconnect(&mut self) -> Result<(), PhyError> {
        Ok(())
    }

    /// Frames sent but not yet acknowledged by the peer.
    fn in_flight(&self) -> usize {
        0
    }

    /// Transport counters.
    fn stats(&self) -> PhyStats {
        PhyStats::default()
    }
}

/// Which transport a harness should put under the gateway's two ports.
#[derive(Debug, Clone, Default)]
pub enum PhyMode {
    /// In-process loopback queues (the co-sim default; zero overhead).
    #[default]
    Loopback,
    /// Real UDP datagrams over localhost sockets, with optional
    /// injected transport faults at the seam.
    Udp {
        /// Fault injection applied at the datagram seam.
        faults: TransportFaultConfig,
    },
}
