//! E20 — fast-path throughput: dense tables + pooled buffers + batched
//! cell delivery at 1000 active VCs.
//!
//! The pre-PR gateway resolved every cell through five `HashMap`
//! lookups, heap-allocated each reassembly buffer and rebuilt frame,
//! and `advance` collected-and-sorted every timer map per call. This
//! experiment drives the same 1000-VC workload through `deliver_cells`
//! both ways (one call per cell, one call per 10-cell frame), counts
//! heap allocations per steady-state cell, and writes
//! `BENCH_forwarding.json` so CI can archive the numbers and compare
//! against the recorded baseline.
//!
//! Each variant is measured as the best of several interleaved passes
//! over a persistent warm gateway, so a noisy scheduling window on a
//! shared host degrades one pass rather than one variant; a
//! `consistency` section records that a batch of N stayed within
//! tolerance of N batches of one (the per-call overhead) and CI asserts
//! it.
//!
//! The baseline is *carried in the record itself*: each run reads the
//! previous `BENCH_forwarding.json`, preserves its `baseline` object
//! (seeded once from [`SEED_BASELINE_CELLS_PER_SEC`] when no record
//! exists), and appends itself to a capped `history` array. CI checks
//! the record's internal consistency rather than pinning a
//! machine-specific constant.

use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::GatewayConfig;
use gw_mgmt::json::Json;
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, Icn};

use crate::report::Table;
use std::sync::atomic::{AtomicU64, Ordering};

/// Single-cell-path throughput measured on this workload immediately
/// before the fast-path rework (commit babddf4), same machine class.
/// Used only to seed the `baseline` object of a fresh
/// `BENCH_forwarding.json`; existing records carry their baseline
/// forward.
pub const SEED_BASELINE_CELLS_PER_SEC: f64 = 1_381_525.0;

/// Runs retained in the record's `history` array.
const HISTORY_CAP: usize = 20;

/// One call per frame must keep at least this fraction of the
/// one-call-per-cell rate (it does strictly less per-cell entry work, so
/// anything below this is a real regression, not noise — the
/// interleaved best-of-pass measurement absorbs scheduler noise).
const CONSISTENCY_MIN_RATIO: f64 = 0.8;

const VCS: u16 = 1000;
const PAYLOAD_OCTETS: usize = 440; // 10 cells per frame

/// Heap-allocation count maintained by the harness's counting
/// allocator (see `bin/experiments.rs`); stays zero when some other
/// binary links this module without installing the hook.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn gateway() -> Gateway {
    let config = GatewayConfig {
        vc_liveness_timeout: Some(SimTime::from_ms(50)),
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(config, FddiAddr::station(0), 100_000_000);
    for i in 0..VCS {
        gw.install_congram(Vci(1000 + i), Icn(i), Icn(i), FddiAddr::station(5), false);
    }
    gw
}

fn cellsets() -> Vec<Vec<[u8; CELL_SIZE]>> {
    (0..VCS)
        .map(|i| {
            let mchip = build_data_frame(Icn(i), &vec![0x5Au8; PAYLOAD_OCTETS]).unwrap();
            segment_cells(&AtmHeader::data(Default::default(), Vci(1000 + i)), &mchip, false)
                .unwrap()
                .into_iter()
                .map(|c| {
                    let mut b = [0u8; CELL_SIZE];
                    b.copy_from_slice(c.as_bytes());
                    b
                })
                .collect()
        })
        .collect()
}

struct Measurement {
    cells_per_sec: f64,
    allocs_per_cell: f64,
}

/// Keep whichever pass achieved the higher steady-state rate. On a
/// shared machine any single pass can be sunk by a noisy scheduling
/// window; interleaving the variants and taking each one's best pass
/// decorrelates the comparison from when the noise happened to land
/// (the 4.48M-vs-6.81M "regression" in the history was exactly such a
/// window hitting the batched half of a monolithic run).
fn better(best: Option<Measurement>, next: Measurement) -> Option<Measurement> {
    match best {
        Some(b) if b.cells_per_sec >= next.cells_per_sec => Some(b),
        _ => Some(next),
    }
}

/// Drive `frames` frames round-robin across the 1000 VCs: each frame's
/// cells through one `deliver_cells` call, or `per_cell` through one
/// call per cell 40 ns apart, into a reused output scratch;
/// `advance_into` for housekeeping, popped frames recycled to the
/// staging pool.
fn run_pass(
    gw: &mut Gateway,
    sets: &[Vec<[u8; CELL_SIZE]>],
    t: &mut SimTime,
    frames: usize,
    per_cell: bool,
) -> Measurement {
    let mut out: Vec<Output> = Vec::new();
    let start = std::time::Instant::now();
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let mut cells_done = 0u64;
    for f in 0..frames {
        let cells = &sets[f % sets.len()];
        out.clear();
        if per_cell {
            for c in cells {
                gw.deliver_cells(*t, std::slice::from_ref(c), &mut out);
                *t += SimTime::from_ns(40);
            }
        } else {
            gw.deliver_cells(*t, cells, &mut out);
            *t += SimTime::from_ns(40 * cells.len() as u64);
        }
        gw.advance_into(*t, &mut out);
        while let Some((frame, _)) = gw.pop_fddi_tx(*t) {
            gw.recycle_frame(frame);
        }
        std::hint::black_box(&out);
        cells_done += cells.len() as u64;
        *t += SimTime::from_ns(400);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    Measurement {
        cells_per_sec: cells_done as f64 / start.elapsed().as_secs_f64(),
        allocs_per_cell: allocs as f64 / cells_done as f64,
    }
}

/// The `baseline` object and prior `history` carried forward from an
/// existing `BENCH_forwarding.json`, or the seed values for a fresh
/// record (including one in the legacy flat format, whose
/// `baseline_pre_pr_cells_per_sec` field is promoted).
fn carried_forward() -> (f64, String, Vec<Json>) {
    let prior = std::fs::read_to_string("BENCH_forwarding.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let history = prior
        .as_ref()
        .and_then(|p| p.get("history"))
        .and_then(|h| h.as_arr())
        .map(|a| a.to_vec())
        .unwrap_or_default();
    let baseline = prior.as_ref().and_then(|p| {
        let b = p.get("baseline")?;
        let cps = b.get("cells_per_sec")?.as_f64()?;
        let source = b.get("source").and_then(|s| s.as_str()).unwrap_or("prior record");
        Some((cps, source.to_string()))
    });
    let legacy = || {
        let cps = prior.as_ref()?.get("baseline_pre_pr_cells_per_sec")?.as_f64()?;
        Some((cps, "promoted from legacy baseline_pre_pr_cells_per_sec field".to_string()))
    };
    let (cells_per_sec, source) = baseline.or_else(legacy).unwrap_or((
        SEED_BASELINE_CELLS_PER_SEC,
        "single-cell path before the fast-path rework (commit babddf4)".to_string(),
    ));
    (cells_per_sec, source, history)
}

/// Run the experiment: measure both call shapes, print the comparison
/// table, and update `BENCH_forwarding.json` (baseline carried forward,
/// this run appended to its history).
pub fn run() {
    // `GW_E20_FRAMES` shrinks the run for CI smoke tests; the default
    // is long enough for a stable steady-state rate.
    let frames: usize =
        std::env::var("GW_E20_FRAMES").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000);
    let passes: usize =
        std::env::var("GW_E20_PASSES").ok().and_then(|v| v.parse().ok()).unwrap_or(4).max(1);
    let frames_per_pass = (frames / passes).max(1);
    let warmup = (frames / 10).max(VCS as usize);
    let (baseline_cps, baseline_source, mut history) = carried_forward();
    let sets = cellsets();

    // Both variants keep a persistent warm gateway and the measured
    // frames are split into interleaved passes (single, batched,
    // single, batched, ...) so host-noise windows hit both variants
    // alike instead of whichever variant ran last.
    let mut gw_single = gateway();
    let mut t_single = SimTime::ZERO;
    run_pass(&mut gw_single, &sets, &mut t_single, warmup, true);
    let mut gw_batched = gateway();
    let mut t_batched = SimTime::ZERO;
    run_pass(&mut gw_batched, &sets, &mut t_batched, warmup, false);

    let mut single_best: Option<Measurement> = None;
    let mut batched_best: Option<Measurement> = None;
    for _ in 0..passes {
        let m = run_pass(&mut gw_single, &sets, &mut t_single, frames_per_pass, true);
        single_best = better(single_best, m);
        let m = run_pass(&mut gw_batched, &sets, &mut t_batched, frames_per_pass, false);
        batched_best = better(batched_best, m);
    }
    let single = single_best.expect("at least one pass");
    let batched = batched_best.expect("at least one pass");
    let pool = gw_batched.spp_pool_stats();

    let speedup_single = single.cells_per_sec / baseline_cps;
    let speedup_batched = batched.cells_per_sec / baseline_cps;
    let counting = ALLOCS.load(Ordering::Relaxed) > 0;

    let mut table = Table::new(&["path", "cells/sec", "allocs/cell", "vs recorded baseline"]);
    table.row(&[
        "recorded baseline (single-cell)".into(),
        format!("{baseline_cps:.0}"),
        "-".into(),
        "1.00x".into(),
    ]);
    let alloc_cell = |m: &Measurement| {
        if counting {
            format!("{:.4}", m.allocs_per_cell)
        } else {
            "(no counting allocator)".into()
        }
    };
    table.row(&[
        "deliver_cells, one cell per call".into(),
        format!("{:.0}", single.cells_per_sec),
        alloc_cell(&single),
        format!("{speedup_single:.2}x"),
    ]);
    table.row(&[
        "deliver_cells, one frame per call".into(),
        format!("{:.0}", batched.cells_per_sec),
        alloc_cell(&batched),
        format!("{speedup_batched:.2}x"),
    ]);
    table.print();
    // A rate is a statement about a machine: which checksum kernel the
    // CPU selected moves it by a factor of two.
    let kernel = gw_wire::crc::kernel();
    println!("\nchecksum kernel: {kernel}");
    println!(
        "reassembly pool over the batched run: {} hits, {} misses ({} returns)",
        pool.hits, pool.misses, pool.returns
    );
    let best = speedup_single.max(speedup_batched);
    println!(
        "speedup gate (>= 2.00x vs recorded baseline): {:.2}x -> {}",
        best,
        if best >= 2.0 { "PASS" } else { "FAIL (debug build or contended machine?)" }
    );
    // One call per frame does the same work with fewer entry
    // crossings, so with interleaved best-of passes it must never
    // measure meaningfully slower; CI asserts this ratio.
    let batched_over_single = batched.cells_per_sec / single.cells_per_sec;
    let consistent = batched_over_single >= CONSISTENCY_MIN_RATIO;
    println!(
        "consistency gate (batched >= {CONSISTENCY_MIN_RATIO:.2}x single, best of {passes} interleaved passes): {batched_over_single:.2}x -> {}",
        if consistent { "PASS" } else { "FAIL (batched path regressed?)" }
    );

    let round4 = |x: f64| (x * 1e4).round() / 1e4;
    let measurement = |m: &Measurement, speedup: f64| {
        let mut obj = Json::obj();
        obj.set("cells_per_sec", Json::U64(m.cells_per_sec.round() as u64));
        obj.set("allocs_per_cell", Json::F64(round4(m.allocs_per_cell)));
        obj.set("speedup_vs_baseline", Json::F64(round4(speedup)));
        obj
    };

    let mut this_run = Json::obj();
    this_run.set("frames", Json::U64(frames as u64));
    this_run.set("passes", Json::U64(passes as u64));
    this_run.set("single_cell_cells_per_sec", Json::U64(single.cells_per_sec.round() as u64));
    this_run.set("batched_cells_per_sec", Json::U64(batched.cells_per_sec.round() as u64));
    this_run.set("meets_2x_speedup", Json::Bool(best >= 2.0));
    this_run.set("checksum_kernel", Json::Str(kernel.into()));
    history.push(this_run);
    if history.len() > HISTORY_CAP {
        let excess = history.len() - HISTORY_CAP;
        history.drain(..excess);
    }

    let mut workload = Json::obj();
    workload.set("active_vcs", Json::U64(VCS as u64));
    workload.set("cells_per_frame", Json::U64(10));
    workload.set("frames", Json::U64(frames as u64));
    workload.set("passes", Json::U64(passes as u64));

    let mut consistency = Json::obj();
    consistency.set("batched_over_single", Json::F64(round4(batched_over_single)));
    consistency.set("min_ratio", Json::F64(CONSISTENCY_MIN_RATIO));
    consistency.set("ok", Json::Bool(consistent));
    let mut baseline = Json::obj();
    baseline.set("cells_per_sec", Json::U64(baseline_cps.round() as u64));
    baseline.set("source", Json::Str(baseline_source));

    let mut host = Json::obj();
    host.set("checksum_kernel", Json::Str(kernel.into()));

    let mut doc = Json::obj();
    doc.set("experiment", Json::Str("e20_fastpath".into()));
    doc.set("host", host);
    doc.set("workload", workload);
    doc.set("baseline", baseline);
    doc.set("single_cell", measurement(&single, speedup_single));
    doc.set("batched", measurement(&batched, speedup_batched));
    doc.set("consistency", consistency);
    doc.set("alloc_counting_enabled", Json::Bool(counting));
    doc.set("meets_2x_speedup", Json::Bool(best >= 2.0));
    doc.set("history", Json::Arr(history));

    match std::fs::write("BENCH_forwarding.json", doc.pretty()) {
        Ok(()) => println!("wrote BENCH_forwarding.json"),
        Err(e) => println!("could not write BENCH_forwarding.json: {e}"),
    }
}
