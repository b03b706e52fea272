//! Gateway management plane.
//!
//! The paper's NPE software handles the non-critical path: connection
//! management, resource management, route management, and **network
//! management** (§6). This crate is the network-management role:
//!
//! * [`registry`] — a typed metrics store with hierarchical MIB-style
//!   names (`gw.spp.vc.100.reassembled_frames`,
//!   `gw.supernet.tx.shed_async`). Names resolve once to index handles;
//!   the per-cell critical path updates by index only. Per-VC rows are
//!   created and retired with congram lifecycle events.
//! * [`events`] — structured trace events with causal ids: every cell
//!   gets a [`CellId`], every reassembly a [`FrameId`], and frame
//!   events carry the first cell that opened them, so a dropped frame
//!   traces back to the cell and VC that caused it.
//! * [`health`] — SMT-inspired per-port state machines
//!   (Up / Degraded / Isolated) fed by shed/drop/liveness counters,
//!   with windowed hysteresis.
//! * [`plane`] — the assembled [`MgmtPlane`] a gateway owns, with
//!   pre-resolved [`GwHandles`].
//!
//! The plane is opt-in: a gateway built without [`MgmtConfig`] carries
//! no registry, no trace, and no health machinery, and its hot loop is
//! byte-for-byte the unmanaged one.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod events;
pub mod health;
pub mod plane;
pub mod registry;

/// The snapshot's JSON document model lives in `gw-sim`. This path
/// stays only because the repository benchmark imports
/// `atm_fddi_gateway::mgmt::json::Json`; new code names `gw_sim::json`.
pub use gw_sim::json;

pub use events::{CausalTrace, CellDropReason, CellId, FrameDropReason, FrameId, GwEvent};
pub use health::{GatewayHealth, HealthReporter, HealthTransition, Port, PortHealth, PortState};
pub use plane::{GwHandles, MgmtConfig, MgmtPlane};
pub use registry::{CounterId, GaugeId, HistogramId, MetricsRegistry, VcMetrics};
