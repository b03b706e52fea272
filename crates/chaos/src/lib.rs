//! Deterministic chaos soak harness for the ATM-FDDI gateway.
//!
//! A chaos run materializes a **scene** (`gw-scene/1`) from a single
//! `u64` seed — a randomized-but-fully-seeded traffic schedule plus an
//! adversarial fault mix (cell loss, corruption, duplication bursts,
//! adjacent-swap reordering, misinsertion onto live foreign VCs, delay
//! skew, buffer starvation) — drives it through the co-simulation
//! testbed by the lowering every harness shares, drains every queue
//! and timer, and then checks two global invariants the paper's
//! hardware implicitly promises:
//!
//! * **Conservation** — every cell and frame that entered the gateway
//!   is accounted for as delivered or dropped under a named reason
//!   (the C1–C7 equations of [`gw_gateway::gateway::Gateway::check_conservation`]);
//! * **Zero residue** — after drain, no reassembly slot, pool buffer,
//!   timer, or staged frame is still held
//!   ([`gw_gateway::gateway::Gateway::residue`]).
//!
//! Every source of randomness forks off [`gw_sim::rng::SimRng`], so a
//! seed replays **bit-for-bit**: two runs of the same seed render
//! byte-identical `gw-snapshot/1` documents. A failing seed is
//! therefore a complete bug report — the CLI (`gw-chaos`) re-runs it,
//! dumps the causal-trace ring for the offending VC, and shrinks the
//! traffic schedule by halving until the failure is minimal.

pub mod report;
pub mod runner;
pub mod workload;

pub use report::{artifact, Coverage, RunReport, TransportCoverage};
pub use runner::{minimize_scene, run_scene, run_seed, run_seed_with_phy};
pub use workload::{emit_scene, generate};
