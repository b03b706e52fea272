//! The measurement harness every workload runs under.
//!
//! One process, one driving thread, closed loop: a workload is a stream
//! of *units* (one batch of cells, one frame pair through the appliance,
//! one simulated slice of the testbed), and the next unit is fed only
//! when the previous one has returned. The harness times **chunks** of
//! units on one persistent warm system and reports the **best chunk** —
//! the highest chunk rate, the lowest latency percentile of any fifth of
//! a chunk — beside the quartiles of all of them.
//!
//! Why the best and not the median: the reference host is a small
//! virtual machine whose neighbours take the processor and the cache
//! away in episodes of seconds to minutes. That only ever slows a
//! chunk down; nothing makes one faster than the code allows. Over ten
//! runs of unchanged code the median of 30 chunks moved by 10–39 % (q1–q3
//! as a share of the median, per workload), the best chunk by 2–15 %: a
//! run in which more than half the chunks were disturbed is common, one
//! without a single clean half second is rare.
//!
//! Counts that must repeat bit for bit (simulated latencies, allocation
//! counts, the snapshot digest) cannot come from the timed system: how
//! many units fit into a chunk depends on the wall clock. They come from
//! the **fixed pass** instead — a fresh system fed an exact number of
//! units with every frame checked in full.

use crate::alloc;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seconds per timed chunk.
    pub chunk_s: f64,
    /// Discarded warm-up chunks.
    pub warmup_chunks: usize,
    /// Timed chunks.
    pub chunks: usize,
    /// Fresh constructions timed for `setup_s` after every timed chunk:
    /// spread over the run like the chunks, and the fastest is reported
    /// for the same reason the best chunk is (31 constructions back to
    /// back take 15 ms, and one episode of host interference then moved
    /// the whole sample by 30 %).
    pub setups_per_chunk: usize,
}

impl Plan {
    /// The plan for `--seconds`: as many 0.5 s chunks as fit, after two
    /// warm-up chunks that are not part of the measured time.
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            chunk_s: 0.5,
            warmup_chunks: 2,
            chunks: ((seconds / 0.5).round() as usize).max(2),
            setups_per_chunk: 4,
        }
    }

    /// Wall time of one chunk.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.chunk_s)
    }

    /// `--quick`: 2 chunks × 0.1 s, for the smoke test.
    pub fn quick() -> Plan {
        Plan { chunk_s: 0.1, warmup_chunks: 1, chunks: 2, setups_per_chunk: 1 }
    }
}

/// Running totals a workload adds to as it feeds units.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Cells that crossed the gateway's ATM port (either direction).
    pub cells: u64,
    /// MCHIP payload octets delivered intact at a far side.
    pub payload_octets: u64,
    /// Frames handed to the system.
    pub attempted: u64,
    /// Frames that came out the far side (count-checked).
    pub delivered: u64,
    /// Of those, frames compared octet for octet.
    pub checked_in_full: u64,
    /// Frames that failed the oracle.
    pub failed: u64,
    /// Frames lost to injected faults and booked under a named
    /// conservation reason (not failures).
    pub lost_booked: u64,
    /// Simulated nanoseconds the workload advanced.
    pub sim_ns: u64,
    /// `Appliance::step` calls (appliance workloads).
    pub steps: u64,
    /// Wall-clock frame latencies, microseconds.
    pub latency_us: Vec<f64>,
    /// First few oracle failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    /// A tally with room for latency samples reserved up front, so the
    /// timed loop never reallocates the sample vector.
    pub fn new() -> Tally {
        Tally { latency_us: Vec::with_capacity(1 << 20), ..Tally::default() }
    }

    /// Book one oracle failure.
    pub fn fail(&mut self, what: String) {
        self.fail_many(1, what);
    }

    /// Book `n` frames failed for one reason.
    pub fn fail_many(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(format!("{what} (x{n})"));
        }
    }

    /// Record one frame latency (dropped once the reserve is full, so
    /// the sample vector never grows inside a timed chunk).
    pub fn latency(&mut self, started: Instant, ended: Instant) {
        if self.latency_us.len() < self.latency_us.capacity() {
            self.latency_us.push((ended - started).as_secs_f64() * 1e6);
        }
    }
}

/// What the end-of-run audit found.
#[derive(Debug, Default, Clone)]
pub struct Audit {
    /// Conservation-equation violations (C1–C7), residue and drain
    /// findings; empty on success.
    pub findings: Vec<String>,
    /// FNV-1a digest of the final `gw-snapshot/1` document.
    pub snapshot_digest: String,
    /// `GatewayStats::atm_to_fddi_ns.quantile(0.99)`, ns (0 = no sample).
    pub sim_a2f_p99_ns: u64,
    /// `GatewayStats::fddi_to_atm_ns.quantile(0.99)`, ns (0 = no sample).
    pub sim_f2a_p99_ns: u64,
    /// Shares read at the layer boundaries (pool hits, ARQ shares, …),
    /// keyed by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Raw boundary counts for the trace file (datagrams, retransmits, …).
    pub boundary: BTreeMap<&'static str, u64>,
}

/// A workload: generated inputs plus the way to build, drive and audit
/// the system under test.
pub trait Workload {
    /// The system under test.
    type Sys;

    /// Fresh system, ready for the first unit. `managed` is false only
    /// for the management-plane difference run on the core workloads.
    fn build(&self, managed: bool) -> Self::Sys;

    /// Units in one pass over the generated input set.
    fn units_per_cycle(&self) -> u64;

    /// Feed one closed-loop unit. `check_all` compares every frame octet
    /// for octet (fixed pass); otherwise only the workload's sample.
    fn unit(
        &self,
        sys: &mut Self::Sys,
        check_all: bool,
        tracer: &mut Option<&mut Tracer>,
        tally: &mut Tally,
    );

    /// Drain the system, audit it, and digest its final snapshot.
    fn finish(&self, sys: Self::Sys, tally: &mut Tally) -> Audit;
}

/// One timed chunk.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Wall seconds.
    pub wall_s: f64,
    /// Cells across the ATM port.
    pub cells: u64,
    /// Payload octets delivered intact.
    pub payload_octets: u64,
    /// Simulated nanoseconds advanced.
    pub sim_ns: u64,
    /// The chunk's frame-latency samples: this range of
    /// [`Tally::latency_us`].
    pub latencies: std::ops::Range<usize>,
}

impl Chunk {
    /// Cells per wall second.
    pub fn cells_per_s(&self) -> f64 {
        self.cells as f64 / self.wall_s
    }
    /// Payload megabits per wall second.
    pub fn goodput_mbps(&self) -> f64 {
        self.payload_octets as f64 * 8.0 / 1e6 / self.wall_s
    }
    /// Simulated seconds per wall second.
    pub fn sim_s_per_wall_s(&self) -> f64 {
        self.sim_ns as f64 / 1e9 / self.wall_s
    }
}

/// Feed units until `budget` has elapsed; returns the chunk's totals.
pub fn run_chunk<W: Workload>(
    w: &W,
    sys: &mut W::Sys,
    budget: Duration,
    tracer: &mut Option<&mut Tracer>,
    tally: &mut Tally,
) -> Chunk {
    let (cells0, octets0, sim0) = (tally.cells, tally.payload_octets, tally.sim_ns);
    let first_latency = tally.latency_us.len();
    let start = Instant::now();
    loop {
        w.unit(sys, false, tracer, tally);
        if start.elapsed() >= budget {
            break;
        }
    }
    Chunk {
        wall_s: start.elapsed().as_secs_f64(),
        cells: tally.cells - cells0,
        payload_octets: tally.payload_octets - octets0,
        sim_ns: tally.sim_ns - sim0,
        latencies: first_latency..tally.latency_us.len(),
    }
}

/// The plan's discarded warm-up chunks.
pub fn warm_up<W: Workload>(w: &W, sys: &mut W::Sys, plan: &Plan, tally: &mut Tally) {
    for _ in 0..plan.warmup_chunks {
        run_chunk(w, sys, plan.budget(), &mut None, tally);
    }
    // Warm-up latencies would otherwise sit in the pooled sample.
    tally.latency_us.clear();
}

/// `chunks` timed chunks on `sys`, each inside a span when traced.
pub fn run_chunks<W: Workload>(
    w: &W,
    sys: &mut W::Sys,
    plan: &Plan,
    chunks: usize,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Vec<Chunk> {
    let mut out = Vec::with_capacity(chunks);
    for i in 0..chunks {
        let span = tracer.as_deref_mut().map(|t| {
            t.set_chunk(Some(i as u32));
            t.open("chunk")
        });
        let mut inner = tracer.as_deref_mut();
        out.push(run_chunk(w, sys, plan.budget(), &mut inner, tally));
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
            t.set_chunk(None);
        }
    }
    out
}

/// Time `plan.setups_per_chunk` fresh constructions into `samples`
/// (seconds each), after one that is not timed: the chunk before has
/// evicted the constructor's code and tables from the caches, and the
/// first construction after it costs half as much again as the next.
pub fn time_setups<W: Workload>(w: &W, plan: &Plan, samples: &mut Vec<f64>) {
    drop(std::hint::black_box(w.build(true)));
    for _ in 0..plan.setups_per_chunk {
        let t = Instant::now();
        let sys = std::hint::black_box(w.build(true));
        samples.push(t.elapsed().as_secs_f64());
        drop(sys);
    }
}

/// What the fixed pass established.
#[derive(Debug, Clone)]
pub struct Fixed {
    /// Totals over the warm and the counted cycles.
    pub tally: Tally,
    /// Heap allocations on the driving thread over the counted cycles.
    pub allocs: u64,
    /// Cells over the counted cycles.
    pub cells: u64,
    /// The audit of the drained system.
    pub audit: Audit,
}

/// The fixed pass: fresh system, one warm cycle, then one counted cycle,
/// every frame compared in full, then the audit.
pub fn fixed_pass<W: Workload>(w: &W) -> Fixed {
    let mut sys = w.build(true);
    let mut tally = Tally::new();
    for _ in 0..w.units_per_cycle() {
        w.unit(&mut sys, true, &mut None, &mut tally);
    }
    let warm_cells = tally.cells;
    let (allocs, ()) = alloc::counted(|| {
        for _ in 0..w.units_per_cycle() {
            w.unit(&mut sys, true, &mut None, &mut tally);
        }
    });
    let cells = tally.cells - warm_cells;
    let audit = w.finish(sys, &mut tally);
    Fixed { tally, allocs, cells, audit }
}

/// Stretches a chunk's latency samples are cut into, and the fewest
/// samples a stretch may hold (a p90 over fewer reads single samples).
const STRETCHES_PER_CHUNK: usize = 5;
const MIN_STRETCH_SAMPLES: usize = 40;

/// Frame-latency percentiles taken per **stretch** — a fifth of a chunk's
/// consecutive samples, ≈ 0.1 s; a metric is the lowest over the
/// stretches (see the module comment). Pooled over the whole run, one
/// episode of host interference moves p90 by tens of percent; and a p90
/// needs nine tenths of its stretch undisturbed, which a tenth of a
/// second is far more often than half a second.
pub struct StretchPercentiles<const N: usize> {
    ps: [f64; N],
    per_stretch: [Vec<f64>; N],
}

impl<const N: usize> StretchPercentiles<N> {
    /// Percentiles `ps` over a run of `chunks` chunks.
    pub fn new(ps: [f64; N], chunks: usize) -> Self {
        let per_stretch = std::array::from_fn(|_| Vec::with_capacity(chunks * STRETCHES_PER_CHUNK));
        StretchPercentiles { ps, per_stretch }
    }

    /// Take the percentiles of `chunk`'s samples out of `tally` and drop
    /// the samples: kept for the whole run they were half of a fast
    /// workload's resident memory, and `peak_rss_mb` rose with the speed
    /// of the program.
    pub fn take_chunk(&mut self, chunk: &Chunk, tally: &mut Tally) {
        let samples = &tally.latency_us[chunk.latencies.clone()];
        if !samples.is_empty() {
            let stretches = (samples.len() / MIN_STRETCH_SAMPLES).clamp(1, STRETCHES_PER_CHUNK);
            for stretch in samples.chunks(samples.len().div_ceil(stretches)) {
                let mut sorted = stretch.to_vec();
                sorted.sort_by(f64::total_cmp);
                for (values, p) in self.per_stretch.iter_mut().zip(self.ps) {
                    values.push(stats::percentile_sorted(&sorted, p));
                }
            }
        }
        tally.latency_us.clear();
    }

    /// One summary per percentile over all stretches; `None` when the
    /// workload recorded no latency.
    pub fn summaries(self) -> Option<[Summary; N]> {
        (!self.per_stretch[0].is_empty()).then(|| self.per_stretch.map(|v| stats::summarize(&v)))
    }
}

/// Summaries of the three rate metrics over a set of chunks.
pub fn rate_summaries(chunks: &[Chunk]) -> (Summary, Summary, Summary) {
    let of = |f: fn(&Chunk) -> f64| stats::summarize(&chunks.iter().map(f).collect::<Vec<_>>());
    (of(Chunk::cells_per_s), of(Chunk::goodput_mbps), of(Chunk::sim_s_per_wall_s))
}
