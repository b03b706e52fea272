//! Deterministic discrete-event simulation engine for the ATM-FDDI
//! gateway reproduction.
//!
//! The paper's gateway was to be evaluated through a simulation model
//! ("to do the functional verification of the design and to quantify its
//! performance with various application traffic patterns", §7). This
//! crate is that model's substrate:
//!
//! * [`time`] — nanosecond-resolution simulated time, with conversions
//!   to the gateway's 25 MHz / 40 ns clock cycles (§5.5).
//! * [`event`] — a generic priority event queue with stable FIFO
//!   ordering among simultaneous events, so runs are reproducible.
//! * [`rng`] — a small, fully deterministic PRNG (SplitMix64 seeding a
//!   xoshiro256++ core) plus the distributions the workload generators
//!   need. Same seed ⇒ identical traces, byte for byte.
//! * [`stats`] — counters, time-weighted gauges (for buffer-occupancy
//!   integrals), and histograms with quantile summaries.
//! * [`timer`] — a hierarchical timer wheel so deadline-heavy components
//!   (reassembly timeouts, VC liveness) pay O(expired) per advance, not
//!   O(armed).
//! * [`trace`] — a bounded ring of typed events (the management
//!   plane's causal trace is one).
//! * [`fault`] — fault injection (drop / corrupt / delay) used by the
//!   loss experiments (E10).
//! * [`traffic`] — application workload generators (CBR voice, on-off
//!   video, Poisson datagrams, bulk transfer, imaging bursts) for the
//!   buffer-sizing study (E6) and the examples.
//! * [`json`] — a serde-free JSON document model (stable rendering plus
//!   a strict parser): the one writer behind the gateway snapshot, the
//!   chaos report and the gw-lint report.
//!
//! No wall-clock time, no global state, no threads: simulations are pure
//! functions of their configuration and seed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod fault;
pub mod json;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timer;
pub mod trace;
pub mod traffic;

pub use event::EventQueue;
pub use fault::{FaultConfig, FaultConfigBuilder, FaultInjector, FaultOutcome, GilbertElliott};
pub use rng::SimRng;
pub use stats::{Counter, Histogram, TimeWeighted};
pub use time::{SimTime, CYCLE_NS, NS_PER_SEC};
pub use timer::{TimerId, TimerWheel};
pub use trace::EventRing;
