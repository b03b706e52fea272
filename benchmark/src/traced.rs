//! The two kinds of run: end-to-end (tracing off) and traced.
//!
//! End-to-end numbers always come from the untraced run. The traced run
//! measures the same workload again — untraced chunks first, then the
//! same persistent system with spans on, the difference being the
//! tracing overhead — and then replays the workload's recorded inputs
//! through each layer alone (see [`crate::layers`]).

use crate::layers::{self, CoreReplay, Metrics};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{MetricValue, RunResult};
use crate::run::{self, Plan, Tally, Workload};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::workloads::appliance::ApplianceUdp;
use crate::workloads::core::{A2fBulk, A2fSmall, F2aMixed};
use crate::workloads::testbed::{window_load, TestbedMix, WindowCosts, WINDOW_US};
use crate::{host, Options};
use atm_fddi_gateway::mgmt::json::Json;

/// What the share-of-whole lines need from a workload's replays.
pub struct Shares {
    /// Counts and per-frame stage cost from the core replay.
    pub core: CoreReplay,
    /// The workload runs through `gw-phy` (appliance workloads).
    pub through_phy: bool,
    /// One window's cost in each network model (testbed workload).
    pub window: Option<WindowCosts>,
}

/// A workload that can also be traced.
pub trait Traced: Workload {
    /// The management plane can be turned off under this workload (the
    /// bare-core workloads; `Appliance` and `Testbed::from_scene` force
    /// it on).
    const HAS_UNMANAGED: bool;

    /// Replay recorded inputs through each layer. Layers the workload
    /// does not contain are timed on their home workload's inputs for
    /// the same seed, so every per-layer time is a measurement and the
    /// unchanged ones double as a noise control.
    fn replays(&self, seed: u64, tracer: &mut Tracer, m: &mut Metrics) -> Shares;
}

fn foreign_phy(seed: u64, tracer: &mut Tracer, m: &mut Metrics) {
    ApplianceUdp::generate(seed, false).layers(tracer, m);
}

fn foreign_testbed(seed: u64, tracer: &mut Tracer, m: &mut Metrics) {
    let home = TestbedMix::generate(seed);
    let (up, down) = window_load(&home);
    home.layers(&up, &down, tracer, m);
}

macro_rules! core_traced {
    ($ty:ty) => {
        impl Traced for $ty {
            const HAS_UNMANAGED: bool = true;
            fn replays(&self, seed: u64, tracer: &mut Tracer, m: &mut Metrics) -> Shares {
                let core = layers::replay_core(&self.recorded(), seed, tracer, m);
                foreign_phy(seed, tracer, m);
                foreign_testbed(seed, tracer, m);
                Shares { core, through_phy: false, window: None }
            }
        }
    };
}
core_traced!(A2fBulk);
core_traced!(A2fSmall);
core_traced!(F2aMixed);

impl Traced for ApplianceUdp {
    const HAS_UNMANAGED: bool = false;
    fn replays(&self, seed: u64, tracer: &mut Tracer, m: &mut Metrics) -> Shares {
        let core = layers::replay_core(&self.recorded(), seed, tracer, m);
        self.layers(tracer, m);
        foreign_testbed(seed, tracer, m);
        Shares { core, through_phy: true, window: None }
    }
}

impl Traced for TestbedMix {
    const HAS_UNMANAGED: bool = false;
    fn replays(&self, seed: u64, tracer: &mut Tracer, m: &mut Metrics) -> Shares {
        let (up, down) = window_load(self);
        let core = layers::replay_core(&self.recorded(&up, &down), seed, tracer, m);
        foreign_phy(seed, tracer, m);
        let window = self.layers(&up, &down, tracer, m);
        Shares { core, through_phy: false, window: Some(window) }
    }
}

/// Run `name` as `options` ask.
pub fn run_workload(name: &str, options: &Options) -> Result<RunResult, String> {
    let seed = options.seed;
    match name {
        "a2f_bulk" => Ok(run(name, &A2fBulk::generate(seed), options)),
        "a2f_small_1kvc" => Ok(run(name, &A2fSmall::generate(seed), options)),
        "f2a_mixed" => Ok(run(name, &F2aMixed::generate(seed), options)),
        "appliance_udp" => Ok(run(name, &ApplianceUdp::generate(seed, false), options)),
        "appliance_udp_lossy" => Ok(run(name, &ApplianceUdp::generate(seed, true), options)),
        "testbed_mix" => Ok(run(name, &TestbedMix::generate(seed), options)),
        other => {
            let known: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.0).collect();
            Err(format!("unknown workload {other:?}; known: {}", known.join(", ")))
        }
    }
}

fn run<W: Traced>(name: &str, w: &W, options: &Options) -> RunResult {
    let plan = if options.quick { Plan::quick() } else { Plan::for_seconds(options.seconds) };
    let mut result = RunResult::new(name, options, &plan);
    layers::set_quick(options.quick);
    if options.trace {
        traced(w, &plan, &mut result);
    } else {
        end_to_end(w, &plan, &mut result);
    }
    result.correct = result.failed == 0 && result.findings.is_empty();
    result
}

/// Percentiles of every latency sample taken so far, pooled.
fn pooled_latency(tally: &Tally, ps: [f64; 2]) -> [f64; 2] {
    if tally.latency_us.is_empty() {
        return [0.0; 2];
    }
    let mut sorted = tally.latency_us.clone();
    sorted.sort_by(f64::total_cmp);
    ps.map(|p| stats::percentile_sorted(&sorted, p))
}

/// Fold one system's tally and audit into the result.
fn book(result: &mut RunResult, tally: &Tally, findings: Vec<String>) {
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    result.lost_booked += tally.lost_booked;
    result.checked_in_full += tally.checked_in_full;
    result.failures.extend(tally.failures.iter().cloned());
    result.findings.extend(findings);
}

fn simulated_cycles(ns: u64) -> f64 {
    (ns / atm_fddi_gateway::gateway::CYCLE_NS) as f64
}

/// Fold the fixed pass into the result: its oracle counts, the snapshot
/// digest, and the exact counts in [`crate::metrics::EXACT`] order.
fn book_fixed(result: &mut RunResult, fixed: &run::Fixed) {
    book(result, &fixed.tally, fixed.audit.findings.clone());
    result.snapshot_digest = fixed.audit.snapshot_digest.clone();
    result.exact = vec![
        simulated_cycles(fixed.audit.sim_a2f_p99_ns),
        simulated_cycles(fixed.audit.sim_f2a_p99_ns),
        if fixed.cells == 0 { 0.0 } else { fixed.allocs as f64 / fixed.cells as f64 },
    ];
}

fn end_to_end<W: Traced>(w: &W, plan: &Plan, result: &mut RunResult) {
    let mut sys = w.build(true);
    let mut tally = Tally::new();
    run::warm_up(w, &mut sys, plan, &mut tally);
    let mut chunks = Vec::with_capacity(plan.chunks);
    let mut setups = Vec::with_capacity(plan.chunks * plan.setups_per_chunk);
    let mut latency = run::StretchPercentiles::new([0.5, 0.9], plan.chunks);
    for _ in 0..plan.chunks {
        let chunk = run::run_chunk(w, &mut sys, plan.budget(), &mut None, &mut tally);
        latency.take_chunk(&chunk, &mut tally);
        chunks.push(chunk);
        run::time_setups(w, plan, &mut setups);
    }
    let setup = stats::summarize(&setups);
    let [p50, p90] = match latency.summaries() {
        Some([p50, p90]) => [Some(p50), Some(p90)],
        None => [None, None],
    };
    let audit = w.finish(sys, &mut tally);
    book(result, &tally, audit.findings);

    let fixed = run::fixed_pass(w);
    book_fixed(result, &fixed);
    result.chunks = chunks.len();

    let (cells, goodput, sim_rate) = run::rate_summaries(&chunks);
    let values: [(f64, Option<Summary>); 7] = [
        (setup.min, Some(setup)),
        (cells.max, Some(cells)),
        (goodput.max, Some(goodput)),
        (p50.map_or(0.0, |s| s.min), p50),
        (p90.map_or(0.0, |s| s.min), p90),
        (sim_rate.max, Some(sim_rate)),
        (host::peak_rss_mb().unwrap_or(0.0), None),
    ];
    for (m, (value, summary)) in END_TO_END.iter().zip(values) {
        result.metrics.push(MetricValue { name: m.name, unit: m.unit, value, summary });
    }
}

fn traced<W: Traced>(w: &W, plan: &Plan, result: &mut RunResult) {
    let mut tracer = Tracer::new();
    let root = tracer.open("workload");
    let mut m = Metrics::new();
    // A quarter of the end-to-end run's chunks for each of the whole
    // runs compared here, so a traced run costs about as much wall time.
    let chunks = (plan.chunks / 4).max(2);

    let id = tracer.open("setup");
    let mut sys = w.build(true);
    tracer.close(id);
    let mut tally = Tally::new();
    run::warm_up(w, &mut sys, plan, &mut tally);
    let untraced = run::run_chunks(w, &mut sys, plan, chunks, None, &mut tally);
    let tail = pooled_latency(&tally, [0.99, 0.999]);
    let with_spans = run::run_chunks(w, &mut sys, plan, chunks, Some(&mut tracer), &mut tally);
    let audit = w.finish(sys, &mut tally);
    book(result, &tally, audit.findings);
    result.chunks = untraced.len();

    let rate = |c: &[run::Chunk]| run::rate_summaries(c).0.max;
    let whole_ns = 1e9 / rate(&untraced);
    m.insert("whole.ns_per_cell", whole_ns);
    m.insert("trace.overhead_share", (rate(&untraced) - rate(&with_spans)) / rate(&untraced));
    m.insert("phy.appliance.frame_latency_us_p99", tail[0]);
    m.insert("phy.appliance.frame_latency_us_p999", tail[1]);

    let shares = w.replays(result.seed, &mut tracer, &mut m);

    if W::HAS_UNMANAGED {
        // Whole run with the management plane off: the difference is
        // what telemetry costs per cell (ROADMAP item 4 / E19).
        let id = tracer.open("unmanaged");
        let mut bare = w.build(false);
        let mut bare_tally = Tally::new();
        run::warm_up(w, &mut bare, plan, &mut bare_tally);
        let off = run::run_chunks(w, &mut bare, plan, chunks, None, &mut bare_tally);
        let audit = w.finish(bare, &mut bare_tally);
        tracer.close(id);
        book(result, &bare_tally, audit.findings);
        m.insert("mgmt.overhead_ns_per_cell", whole_ns - 1e9 / rate(&off));
    }

    let fixed = run::fixed_pass(w);
    book_fixed(result, &fixed);
    for (name, value) in &fixed.audit.counts {
        m.insert(name, *value);
    }
    let per = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    m.insert("core.gateway.sim_a2f_latency_cycles_p99", result.exact[0]);
    m.insert("core.gateway.sim_f2a_latency_cycles_p99", result.exact[1]);
    m.insert("allocs_per_cell", result.exact[2]);
    m.insert("failed_share", per(result.failed, result.attempted));
    m.insert("lost_booked_share", per(result.lost_booked, result.attempted));
    m.insert("checked_in_full_share", per(result.checked_in_full, result.attempted));
    m.insert("fixed_pass.frames", fixed.tally.attempted as f64);

    // Shares of the whole, over the directions the workload itself
    // drives. With one thread and no contention a faster stage saves at
    // most this share.
    let c = &shares.core;
    let get = |m: &Metrics, k: &str| m.get(k).copied().unwrap_or(0.0);
    let (up_cells, down_cells) = (
        if c.native_up { c.cells.0 } else { 0 } as f64,
        if c.native_down { c.cells.1 } else { 0 } as f64,
    );
    let (up_frames, down_frames) = (
        if c.native_up { c.frames.0 } else { 0 } as f64,
        if c.native_down { c.frames.1 } else { 0 } as f64,
    );
    let whole_cycle_ns = whole_ns * (up_cells + down_cells);
    let buffers = get(&m, "core.buffers.store_drain_ns_per_frame");
    let per_frame_ns = (get(&m, "core.mpp.from_spp_ns_per_frame") + buffers) * up_frames
        + (get(&m, "core.mpp.from_fddi_ns_per_frame") + buffers) * down_frames;
    m.insert("core.per_frame_share", per_frame_ns / whole_cycle_ns);
    let gateway_cycle_ns = get(&m, "core.gateway.deliver_ns_per_cell") * up_cells
        + get(&m, "core.gateway.fddi_in_ns_per_frame") * down_frames;
    m.insert(
        "phy.self_share",
        if shares.through_phy { 1.0 - gateway_cycle_ns / whole_cycle_ns } else { 0.0 },
    );
    let mut other = 0.0;
    if let Some(win) = &shares.window {
        m.insert("testbed.run_ns_per_cell", whole_ns);
        let gateway_window_ns = get(&m, "core.gateway.deliver_ns_per_cell") * win.cells_in as f64
            + get(&m, "core.gateway.fddi_in_ns_per_frame") * win.frames_in as f64;
        let window_ns = WINDOW_US as f64 * 1e3 / run::rate_summaries(&untraced).2.max;
        other = 1.0 - (gateway_window_ns + win.atm_ns + win.ring_ns) / window_ns;
    }
    m.insert("testbed.other_share", other);

    tracer.close(root);
    m.insert("trace.spans", tracer.len() as f64);
    for &(name, unit, _) in PER_LAYER {
        // A time must have been measured; a count or share a workload
        // has no source for (ARQ counters outside the appliance) is 0.
        let timed = matches!(unit, "ns" | "us" | "ms" | "s");
        let value = match m.get(name) {
            Some(v) => *v,
            None if !timed => 0.0,
            None => panic!("per-layer time {name} was not measured"),
        };
        result.metrics.push(MetricValue { name, unit, value, summary: None });
    }
    let mut doc = tracer.to_json(&result.workload);
    let mut counts = Json::obj();
    for (k, v) in [
        ("cells", tally.cells),
        ("frames_attempted", tally.attempted),
        ("frames_delivered", tally.delivered),
        ("appliance_steps", tally.steps),
        ("fixed_pass_allocations", fixed.allocs),
        ("fixed_pass_cells", fixed.cells),
    ] {
        counts.set(k, Json::U64(v));
    }
    for (k, v) in &fixed.audit.boundary {
        counts.set(k, Json::U64(*v));
    }
    doc.set("boundary_counts", counts);
    result.trace = Some(doc);
}
