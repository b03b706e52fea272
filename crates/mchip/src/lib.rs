//! MCHIP — the Multipoint Congram-oriented High performance Internet
//! Protocol (§2 of the paper; companion reports \[3\], \[11\]).
//!
//! MCHIP is the VHSI abstraction's internet protocol: higher-level
//! protocols use it "to communicate across the internet without being
//! concerned with the diversity of underlying networks" (§1). The unit
//! of service is the **congram** — a plesio-reliable connection/datagram
//! hybrid: a predetermined path with statistically bound resources, no
//! hop-by-hop flow or error control, and low-overhead establishment and
//! reconfiguration (§2.4).
//!
//! This crate implements the software (non-critical-path) side of MCHIP
//! that the gateway's NPE runs (§4.3 "Node Processing Element"):
//!
//! * [`congram`] — congram lifecycles for both congram types: **UCon**
//!   (user congram, set up on request, terminated after use) and
//!   **PICon** (persistent internet congram, system-created, long
//!   lived, multiplexing many users and carrying data for UCons in
//!   setup — "like dynamic leased packet switched internet channels",
//!   §2.4); ICN allocation and hop-by-hop translation bookkeeping.
//! * [`resman`] — the per-network resource manager of §2.3: a
//!   designated gateway accounts resource usage of active congrams on
//!   behalf of networks (like FDDI) that lack explicit internal
//!   resource management, admitting congrams only when resources
//!   remain (the approach validated for Ethernet in reference \[10\]).
//! * [`route`] — an internet route server: routing over a graph of
//!   networks and gateways subject to resource requirements (§2.2),
//!   including multicast trees for multipoint congrams.
//! * [`messages`] — wire codecs for the MCHIP control payloads the NPE
//!   exchanges (setup / confirm / reject / teardown / reconfigure /
//!   keepalive / resource reports).
//!
//! The paper defines the congram abstraction and the gateway's view of
//! it; where the companion MCHIP specification would supply details
//! (exact message fields, timer values), this crate documents its
//! choices inline and keeps them minimal.

pub mod congram;
pub mod messages;
pub mod picon;
pub mod resman;
pub mod route;

pub use congram::{CongramError, CongramId, CongramKind, CongramManager, CongramState, FlowSpec};
pub use messages::ControlPayload;
pub use picon::{CutOver, PiconMux, UconPath};
pub use resman::{AdmitDecision, ResourceManager};
pub use route::{NodeId, NodeKind, RouteError, RouteServer};
