//! Experiment harness regenerating every figure and quantitative claim
//! of "Design of an ATM-FDDI Gateway" (see DESIGN.md §3 for the index).
//!
//! `cargo run -p gw-bench --bin experiments -- all` prints every
//! experiment; `-- e5` (etc.) runs one. EXPERIMENTS.md records the
//! output against the paper's numbers.

pub mod experiments;
pub mod report;

pub use report::Table;
