//! ATM network simulation: the Broadcast Packet Network (BPN) the
//! gateway attaches to (§3; paper references \[4\], \[7\], \[14\]).
//!
//! The paper's target ATM network is Washington University's BPN — a
//! mesh of cell switches supporting "point-to-point and multipoint
//! connections with resource reservations" and a connection-management
//! (ATM signaling) protocol (§3). The gateway observes the network
//! through exactly two interfaces, both modeled here:
//!
//! * **cells** on established virtual channels — [`network`] implements
//!   a mesh of output-queued switches with per-port VPI/VCI translation
//!   tables, link-rate serialization, propagation delay, bounded output
//!   queues with CLP-aware discard, and multipoint (tree) forwarding;
//! * **signaling messages** — [`signaling`] implements connection
//!   management: SETUP routed hop-by-hop with connection admission
//!   control per link, CONNECT/REJECT responses and RELEASE, in the
//!   spirit of Haserodt & Turner's connection-management architecture
//!   \[7\].
//!
//! Everything is deterministic and event-driven on [`gw_sim`]'s queue.

pub mod network;
pub mod policing;
pub mod signaling;

pub use network::{
    AtmNetwork, EndpointEvent, EndpointId, LinkParams, LinkStats, SwitchId, DEFAULT_LINK_RATE,
};
pub use policing::{Conformance, Gcra, GcraParams, PolicingAction};
pub use signaling::{CacPolicy, ConnId, ConnState, SignalingConfig, TrafficContract};
