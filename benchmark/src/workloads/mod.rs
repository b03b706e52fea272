//! The six workloads. Names are fixed: later issues cite them.
//!
//! `BENCHMARK.json` lists four of them ([`NOT_IN_MANIFEST`] names the
//! other two). The acceptance driver takes ten runs of every listed
//! workload twice under one time limit for all runs, and refuses the
//! benchmark when the q1–q3 spread of a metric over ten runs of unchanged
//! code exceeds the metric's bound. The reference host slows down by
//! 20–35 % for up to a few minutes at a time; such an episode passes as
//! outlying runs only if it covers two or three of a workload's ten
//! runs, so runs must be long — and every workload listed shortens every
//! run (six fit 15 s, four 30 s).
//!
//! * `a2f_small_1kvc` cannot be held to a bound here at any run length.
//!   Its 1 000 open reassemblies are spread over 8 MB, its speed follows
//!   the state of the host's shared cache and page-walk machinery, and
//!   its best half second wandered between 2.0 M and 3.8 M cells/s
//!   within single recordings: a spread of 0.10–0.23 over ten runs.
//! * `appliance_udp_lossy` is as steady as `appliance_udp` and gives way
//!   to it for run length: every cell of both crosses the same `gw-phy`
//!   send, receive and acknowledge path, and the fault-free figure is the
//!   one an operator quotes.
//!
//! Both run like the others by name and under `--workload all` (README,
//! "Workloads"); neither gates a change.

pub mod appliance;
pub mod core;
pub mod testbed;

/// Workloads this package runs that `BENCHMARK.json` does not list.
pub const NOT_IN_MANIFEST: [&str; 2] = ["a2f_small_1kvc", "appliance_udp_lossy"];

/// Workload names with the one-line reason each exists (the same lines
/// `BENCHMARK.json` carries).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "a2f_bulk",
        "ATM->FDDI, 16 VCs, 87-cell frames: per-cell stages (HEC, parse, SPP, CRC-10, reassembly copy) do nearly all the work",
    ),
    (
        "a2f_small_1kvc",
        "1000 policed VCs, 2-cell frames interleaved: per-frame stages (MPP lookup, header build, buffers, pools, mgmt rows) and table working set dominate",
    ),
    (
        "f2a_mixed",
        "FDDI->ATM, 64 congrams, 64..4000-octet frames: the same layers the other way (rx buffer, ICXT-A, fragmentation, CRC-10 generation)",
    ),
    (
        "appliance_udp",
        "Appliance over real loopback UDP (GWP1, lockstep ARQ), both directions: gw-phy does most of the work, the core little",
    ),
    (
        "appliance_udp_lossy",
        "appliance_udp with 2% drop, 2% duplicate, 1% truncate at the datagram seam: the phy layer on its recovery path",
    ),
    (
        "testbed_mix",
        "whole co-simulation from generated .scene text, 8 congrams, ~80 Mb/s, light ATM-seam faults: network models, ring and event queue dominate",
    ),
];
