//! Drive one scenario through the co-simulation and audit the result.

use atm_fddi_gateway::atm::policing::{Gcra, GcraParams, PolicingAction};
use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};
use gw_mgmt::MgmtConfig;
use gw_phy::PhyMode;
use gw_sim::time::SimTime;

use crate::report::{Coverage, RunReport, TransportCoverage};
use crate::workload::{Direction, Scenario};

/// Materialize and run the scenario a seed denotes.
pub fn run_seed(seed: u64) -> RunReport {
    run_scenario(&Scenario::generate(seed))
}

/// [`run_seed`] on a chosen port transport — the transport-blindness
/// probe: the same seed on loopback and on the fault-injected UDP phy
/// must render byte-identical snapshots.
pub fn run_seed_with_phy(seed: u64, phy: PhyMode) -> RunReport {
    run_scenario_with_phy(&Scenario::generate(seed), phy)
}

/// Run a (possibly minimized) scenario: install the congrams, play the
/// schedule, drain every queue and timer, then check conservation,
/// residue, and delivered-payload integrity.
pub fn run_scenario(sc: &Scenario) -> RunReport {
    run_scenario_with_phy(sc, PhyMode::Loopback)
}

/// [`run_scenario`] with the port seams carried by `phy`.
pub fn run_scenario_with_phy(sc: &Scenario, phy: PhyMode) -> RunReport {
    // The fault injector gets its own stream; any injective function of
    // the seed keeps it disjoint from the scenario's generator forks.
    let faultable_phy = matches!(phy, PhyMode::Udp { .. });
    let mut cfg = TestbedConfig {
        seed: sc.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7),
        atm_faults: sc.faults.to_config(),
        phy,
        ..Default::default()
    };
    cfg.gateway.management = Some(MgmtConfig::default());
    cfg.gateway.reassembly_timeout = sc.reassembly_timeout;
    if sc.liveness {
        cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(8));
    }
    if sc.starve_buffers {
        // Starve the SUPERNET buffer memories. Transmit: barely over
        // one max-size frame, with the shedding watermark (85% = 1740)
        // *below* one 1800-octet frame — one stored frame is enough to
        // enter the shedding state, so both the shed and the
        // hard-overflow arms run when a synchronized wave lands.
        // Receive: below one max-size frame outright, because the RBC
        // store-then-drain runs per frame and only a single oversized
        // frame can ever overflow the receive memory.
        cfg.gateway.tx_buffer_octets = 2048;
        cfg.gateway.rx_buffer_octets = 1024;
    }
    if sc.shedding {
        cfg.gateway.overload_shedding = Some(Default::default());
    }
    let stations = cfg.fddi_stations;
    let mut tb = Testbed::build(cfg);
    let congrams: Vec<_> =
        (0..sc.vcs).map(|i| tb.install_data_congram(1 + i % (stations - 1))).collect();
    if sc.police {
        // A tight contract on the first congram so GCRA non-conformance
        // (and its conservation arm) gets exercised.
        tb.gw.install_rate_control(
            congrams[0].vci,
            Gcra::new(
                GcraParams::for_sar_payload_bps(2_000_000, SimTime::from_us(20)),
                PolicingAction::Drop,
            ),
        );
    }

    for s in &sc.sends {
        if s.at > tb.now() {
            tb.run_until(s.at);
        }
        let payload = vec![s.fill; s.len];
        match s.direction {
            Direction::AtmToFddi => tb.send_from_atm_host_at(s.at, congrams[s.vc], payload),
            Direction::FddiToAtm => {
                tb.send_from_fddi_station(congrams[s.vc].station, congrams[s.vc], payload)
            }
        }
    }

    // Drain: run well past the last send and the longest timeout, then
    // keep stepping while anything is still in flight (ring queues,
    // reassembly timers, staged frames). The bounded loop turns a
    // genuine leak into a stable, reportable residue, not a hang.
    let mut t = tb.now() + SimTime::from_ms(60);
    tb.run_until(t);
    for _ in 0..40 {
        if tb.gw.residue().is_clean() && tb.gw.fddi_tx_pending() == 0 {
            break;
        }
        t += SimTime::from_ms(10);
        tb.run_until(t);
    }

    let transport = faultable_phy.then(|| TransportCoverage::from_stats(&tb.transport_stats()));
    let frames: Vec<(usize, u8)> = sc.sends.iter().map(|s| (s.len, s.fill)).collect();
    let inputs = AuditInputs {
        seed: sc.seed,
        frames: &frames,
        misinsertion_armed: sc.faults.misinsertion > 0.0,
        scene: Some(gw_scene::format_scene(&crate::scene::scenario_to_scene(sc))),
    };
    audit(inputs, tb, transport)
}

/// What the audit needs to know about the run it is judging — the
/// schedule's `(len, fill)` pairs and whether misinsertion was armed.
/// Both the seed path and the scene path build one of these, so the
/// oracle (and therefore the verdict) is shared, not duplicated.
pub(crate) struct AuditInputs<'a> {
    /// The seed (or scene-declared seed) the run was driven by.
    pub seed: u64,
    /// Every scheduled frame's `(len, fill)`.
    pub frames: &'a [(usize, u8)],
    /// Misinsertion armed with nonzero probability (the chunk-swap
    /// carve-out keys on this).
    pub misinsertion_armed: bool,
    /// Canonical `.scene` text of the run, embedded in artifacts.
    pub scene: Option<String>,
}

/// Check the invariants and assemble the report.
pub(crate) fn audit(
    inputs: AuditInputs,
    mut tb: Testbed,
    transport: Option<TransportCoverage>,
) -> RunReport {
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
    let misinsertion_armed = inputs.misinsertion_armed;
    let frames = inputs.frames;
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
        seed: inputs.seed,
        sends: frames.len(),
        delivered,
        violations,
        residue,
        snapshot,
        trace_dump,
        coverage,
        transport,
        scene: inputs.scene,
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
