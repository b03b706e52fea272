//! Drive one scene through the co-simulation and audit the result.
//!
//! There is one way to run anything here: lower the [`Scene`] through
//! [`atm_fddi_gateway::scene_run`] (the lowering every harness shares),
//! then audit. A seed is run by running the scene it denotes
//! ([`crate::workload::generate`]); `tests/replay.rs` pins the
//! snapshots that path renders to the digests the former direct
//! seed→testbed lowering produced.

use atm_fddi_gateway::scene_run;
use atm_fddi_gateway::testbed::Testbed;
use gw_phy::PhyMode;
use gw_scene::Scene;

use crate::report::{Coverage, RunReport, TransportCoverage};
use crate::workload::generate;

/// Materialize and run the scene a seed denotes.
pub fn run_seed(seed: u64) -> RunReport {
    run_scene(&generate(seed))
}

/// [`run_seed`] on a chosen port transport — the transport-blindness
/// probe: the same seed on loopback and on the fault-injected UDP phy
/// must render byte-identical snapshots.
pub fn run_seed_with_phy(seed: u64, phy: PhyMode) -> RunReport {
    run_scene_with_phy(&generate(seed), phy)
}

/// Run a scene under the full chaos oracle set: conservation, zero
/// residue, and payload integrity are always checked (they are the
/// harness's own invariants, declared or not), and the scene's
/// `delivered_*` / `max_lost_frames` expects are evaluated on top.
pub fn run_scene(scene: &Scene) -> RunReport {
    run_scene_with_phy(scene, PhyMode::Loopback)
}

/// [`run_scene`] with the port seams carried by `phy`.
fn run_scene_with_phy(scene: &Scene, phy: PhyMode) -> RunReport {
    let faultable_phy = matches!(phy, PhyMode::Udp { .. });
    let (mut tb, handles) = Testbed::from_scene(scene, phy);
    let scheduled = scene_run::play_schedule(&mut tb, &handles, scene);
    scene_run::drain(&mut tb);
    let transport = faultable_phy.then(|| TransportCoverage(tb.transport_stats()));

    let mut report = audit(scene, tb, transport);
    // The audit has already booked conservation and residue, declared
    // or not; `judge` is told they held so it rules on the rest.
    report.violations.extend(scene_run::judge(scene, scheduled, report.delivered, &[], true));
    report
}

/// Shrink a failing scene's traffic by halving: keep whichever half
/// still fails, re-running the whole scene each time. O(log n) runs, no
/// oracle beyond "does it still fail", and the fault streams stay
/// driven by the scene's seed, so the minimized scene replays exactly.
/// Returns the input itself if it passes or nothing smaller fails.
pub fn minimize_scene(scene: &Scene) -> Scene {
    let mut best = scene.clone();
    if run_scene(&best).passed() {
        return best;
    }
    while best.traffic.len() > 1 {
        let half = best.traffic.len() / 2;
        let front = Scene { traffic: best.traffic[..half].to_vec(), ..best.clone() };
        if !run_scene(&front).passed() {
            best = front;
            continue;
        }
        let back = Scene { traffic: best.traffic[half..].to_vec(), ..best.clone() };
        if !run_scene(&back).passed() {
            best = back;
            continue;
        }
        break;
    }
    best
}

/// Check the harness's own invariants and assemble the report.
fn audit(scene: &Scene, mut tb: Testbed, transport: Option<TransportCoverage>) -> RunReport {
    // Every scheduled frame's `(len, fill)`.
    let frames: Vec<(usize, u8)> =
        scene.schedule().iter().map(|s| (s.len as usize, s.fill)).collect();
    let mut violations = tb.gw.check_conservation();
    let residue = tb.gw.residue();

    // Delivered-payload integrity: the SPP forwards a frame intact or
    // not at all (§5.2) — under corruption, duplication, reordering,
    // and misinsertion a delivered frame must be byte-perfect, with
    // exactly one carve-out. When a VC's cell is misinserted away and
    // a foreign cell carrying the *same* sequence number is misinserted
    // in before the gap is noticed, the replacement passes the
    // sequence check and its own CRC-10: with no MID field and no
    // frame-level checksum, the SAR format provably cannot catch the
    // swap (end-to-end integrity is the MCHIP layer's job, §5.2). The
    // oracle therefore accepts whole-chunk, chunk-aligned, uniform
    // replacements matching another scheduled frame's fill — and only
    // while misinsertion is armed. Anything else is a violation.
    let mut delivered = 0usize;
    let mut chunk_swaps = 0u64;
    let misinsertion_armed = scene.faults.misinsertion_armed();
    let mut check_payload = |payload: &[u8], violations: &mut Vec<String>| {
        let mut counts = [0u32; 256];
        for &b in payload {
            counts[b as usize] += 1;
        }
        let fill = (0u16..256).max_by_key(|&i| counts[i as usize]).unwrap_or(0) as u8;
        // Exact (length, fill) pairs come from the schedule — except
        // that a misinserted BOM cell carries its own MCHIP header and
        // opens a foreign-length frame on the victim VC, so under
        // misinsertion the pair may straddle two scheduled sends.
        let exact = frames.iter().any(|&(len, f)| len == payload.len() && f == fill);
        let straddled = misinsertion_armed
            && frames.iter().any(|&(len, _)| len == payload.len())
            && frames.iter().any(|&(_, f)| f == fill);
        if !exact && !straddled {
            violations.push(format!(
                "corrupt delivery: {} octets, fill {fill:#04x} — not a scheduled frame",
                payload.len()
            ));
            return;
        }
        // Walk the SAR chunk windows: 37 octets after the 8-octet
        // MCHIP header in cell 0, then 45 per cell.
        let mut start = 0usize;
        while start < payload.len() {
            let end = if start == 0 { 37 } else { start + 45 }.min(payload.len());
            let chunk = &payload[start..end];
            let b0 = chunk[0];
            if chunk.iter().any(|&x| x != b0) {
                violations.push(format!(
                    "corrupt delivery: mixed bytes inside the SAR chunk at {start} of a \
                     {}-octet frame (fill {fill:#04x})",
                    payload.len()
                ));
                return;
            }
            if b0 != fill {
                if misinsertion_armed && frames.iter().any(|&(_, f)| f == b0) {
                    chunk_swaps += 1;
                } else {
                    violations.push(format!(
                        "corrupt delivery: foreign chunk {b0:#04x} at {start} of a {}-octet \
                         frame (fill {fill:#04x}) with no misinsertion armed",
                        payload.len()
                    ));
                    return;
                }
            }
            start = end;
        }
    };
    for station in 0..tb.ring.len() {
        for payload in tb.fddi_rx(station) {
            delivered += 1;
            check_payload(&payload, &mut violations);
        }
    }
    for payload in std::mem::take(&mut tb.atm_host_rx) {
        delivered += 1;
        check_payload(&payload, &mut violations);
    }

    let now = tb.now();
    let failed = !violations.is_empty() || !residue.is_clean();
    // `snapshot()` self-checks conservation with a debug assertion; on
    // an already-diagnosed violating run (debug builds only) skip the
    // render instead of aborting mid-report.
    let snapshot = if violations.is_empty() || !cfg!(debug_assertions) {
        tb.gw.snapshot(now).render()
    } else {
        String::new()
    };
    let trace_dump = if failed { Some(dump_trace(&tb)) } else { None };

    let cons = tb.gw.conservation();
    let reasm = tb.gw.spp().reassembly_stats();
    let aic = tb.gw.aic().stats();
    let coverage = Coverage {
        hec_discards: aic.hec_discards,
        crc_drops: reasm.crc_drops,
        seq_errors: reasm.seq_errors,
        seq_misinserts: reasm.seq_misinserts,
        timeouts: reasm.timeouts,
        shed: cons.atm_tx_shed + cons.fddi_rx_shed,
        overflow: cons.atm_tx_overflow + cons.fddi_rx_overflow,
        policed: cons.policed_cells,
        chunk_swaps,
    };

    RunReport {
        seed: scene.seed_or_default(),
        sends: frames.len(),
        delivered,
        violations,
        residue,
        snapshot,
        trace_dump,
        coverage,
        transport,
        scene: gw_scene::format_scene(scene),
        end: now,
    }
}

/// Render the causal-trace ring for the offending VC — the VC of the
/// most recent discard — or the whole ring when no discard points at
/// one.
fn dump_trace(tb: &Testbed) -> String {
    let Some(trace) = tb.gw.trace() else {
        return String::from("causal trace disabled");
    };
    let offender = trace.discards().last().and_then(|e| e.vci());
    let mut out = String::new();
    match offender {
        Some(vci) => {
            out.push_str(&format!(
                "causal trace for vc {vci} ({} events in ring, {} dropped)\n",
                trace.len(),
                trace.dropped()
            ));
            for e in trace.events().filter(|e| e.vci() == Some(vci)) {
                out.push_str(&format!("  {e:?}\n"));
            }
        }
        None => {
            out.push_str(&format!("causal trace (no discards; {} events in ring)\n", trace.len()));
            for e in trace.events() {
                out.push_str(&format!("  {e:?}\n"));
            }
        }
    }
    out
}
