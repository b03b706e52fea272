//! The ATM-FDDI gateway — the paper's primary contribution (§4–§6).
//!
//! A two-port gateway interconnecting an ATM (BPN) network and an FDDI
//! ring, implementing the VHSI philosophy: **the critical path (per
//! packet processing) in hardware, the non-critical path (connection,
//! resource, and route management) in software** (§1, §4.2).
//!
//! The hardware blocks of Figure 4, each a module here:
//!
//! * [`aic`] — ATM Interface Chip: cell synchronization to the 40 ns
//!   packet cycle, HEC check inbound (errored headers discarded), HEC
//!   generation outbound.
//! * [`spp`] — SAR Protocol Processor: two cycle-accurate pipelines.
//!   ATM→FDDI: Header Decoder → Reassembly Logic → CRC Logic →
//!   Interface Logic → Reassembly Buffer, with per-VC state and two
//!   buffers per connection. FDDI→ATM: FIFO Interface → Fragmentation
//!   Logic → CRC Generator, headers stamped on the fly (§5).
//! * [`mpp`] — MCHIP Protocol Processor: frame-type decode (2 cycles),
//!   ICN translation through the N×8-octet ICXT-F and ICXT-A lookup
//!   tables (13-cycle read), FDDI Header Builder with the fixed-header
//!   register, NPE FIFOs, and DMA to the SUPERNET buffers (§6).
//! * [`npe`] — Node Processing Element: the software control path —
//!   MCHIP congram management, resource management for the FDDI ring,
//!   chip initialization (ICXT programming, reassembly-timer setup,
//!   fixed-header register), and signaling relay (§4.3).
//! * [`buffers`] — the three buffer memories (reassembly, transmit,
//!   receive) with occupancy accounting, and [`fifo`] — the three FIFO
//!   sets of Figure 4.
//! * [`gateway`] — the assembled two-port gateway with measured
//!   per-stage latencies (the quantities §5.5 and §6.3 estimate).

pub mod aic;
pub mod buffers;
pub mod config;
pub mod fifo;
pub mod gateway;
pub mod mpp;
pub mod npe;
pub mod snapshot;
pub mod spp;
pub mod supervisor;

pub use config::GatewayConfig;
pub use gateway::{Gateway, GatewayStats, Output};
pub use mpp::{IcxtAEntry, IcxtFEntry, Mpp};
pub use npe::Npe;
pub use spp::Spp;

/// One cycle of the 25 MHz gateway clock (§5.5, §6.3): 40 ns.
pub const CYCLE_NS: u64 = 40;

/// Worst-case SPP reassembly pipeline latch+decode delay, in cycles:
/// "It takes 10 clock cycles (400ns) to latch, decode the cell header,
/// and start generating the write addresses" (§5.5).
pub(crate) const SPP_DECODE_CYCLES: u64 = 10;
/// SPP payload write: "the 45-byte payload is written into the
/// reassembly buffer in 45 cycles" (§5.5).
pub(crate) const SPP_WRITE_CYCLES: u64 = 45;
/// MPP frame-type decode and routing decision: "2 clock cycles (80ns)"
/// (§6.3).
pub(crate) const MPP_DECODE_CYCLES: u64 = 2;
/// MPP ICXT read access: "approximately 13 clock cycles (520ns)" (§6.3).
pub(crate) const MPP_ICXT_CYCLES: u64 = 13;
