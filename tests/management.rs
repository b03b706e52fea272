//! Management-plane integration: snapshot export cross-checked against
//! the gateway's own statistics, and causal trace attribution under
//! fault injection.

use atm_fddi_gateway::atm::policing::{Gcra, GcraParams, PolicingAction};
use atm_fddi_gateway::gateway::snapshot::{render_text, SNAPSHOT_FORMAT};
use atm_fddi_gateway::sim::fault::{FaultConfig, GilbertElliott};
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};
use gw_mgmt::{FrameDropReason, GwEvent, Json, MgmtConfig, PortState};

fn managed_config(management: MgmtConfig) -> TestbedConfig {
    let mut cfg = TestbedConfig::default();
    cfg.gateway.management = Some(management);
    cfg
}

fn u(doc: &Json, path: &[&str]) -> u64 {
    doc.get_path(path).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing u64 at {path:?}"))
}

/// The acceptance scenario: traffic on two VCs (one rate-controlled),
/// the JSON snapshot deserialized back, and its numbers cross-checked
/// against `GatewayStats` and the component registers — however the
/// management plane is configured: defaults, trace ring off, every
/// histogram sample kept.
#[test]
fn snapshot_json_cross_checks_against_gateway_stats() {
    for management in [
        MgmtConfig::default(),
        MgmtConfig { trace_events: 0, ..MgmtConfig::default() },
        MgmtConfig { histogram_sample: 1, ..MgmtConfig::default() },
    ] {
        snapshot_cross_checks(management);
    }
}

fn snapshot_cross_checks(management: MgmtConfig) {
    let mut tb = Testbed::build(managed_config(management));
    let c1 = tb.install_data_congram(1);
    let c2 = tb.install_data_congram(2);
    tb.gw.install_rate_control(
        c2.vci,
        Gcra::new(
            GcraParams::for_sar_payload_bps(2_000_000, SimTime::from_us(20)),
            PolicingAction::Drop,
        ),
    );

    for i in 0..12 {
        tb.send_from_atm_host(c1, vec![0xA5; 400 + i * 16]);
        tb.send_from_fddi_station(1, c1, vec![0x5A; 300]);
    }
    for _ in 0..6 {
        tb.send_from_atm_host(c2, vec![0xC3; 1800]);
    }
    tb.run_until(SimTime::from_ms(60));
    let now = tb.now();

    // The document round-trips through the renderer and parser.
    let rendered = tb.gw.snapshot(now).render();
    let doc = Json::parse(&rendered).expect("snapshot must be valid JSON");
    assert_eq!(doc.get("format").and_then(Json::as_str), Some(SNAPSHOT_FORMAT));
    assert_eq!(u(&doc, &["time_ns"]), now.as_ns());

    // Per-VC SPP/MPP counters agree with the registry and with each
    // other: VC 1 forwarded everything it reassembled.
    let vcs = doc.get("vcs").and_then(Json::as_arr).expect("vcs array");
    assert_eq!(vcs.len(), 2, "two congrams, two rows");
    let row1 = vcs.iter().find(|r| u(r, &["vci"]) == c1.vci.0 as u64).expect("row for VC 1");
    assert_eq!(u(row1, &["reassembled_frames"]), 12);
    assert_eq!(u(row1, &["forwarded_frames"]), 12);
    assert!(u(row1, &["cells_in"]) >= 12, "at least one cell per frame");
    assert!(u(row1, &["cells_out"]) > 0, "FDDI→ATM segmentation counted");
    assert_eq!(row1.get("rate_control"), Some(&Json::Null), "no policer on VC 1");

    // Satellite: GCRA conforming/non-conforming counts surface in the
    // export and match the gateway's own accessor.
    let row2 = vcs.iter().find(|r| u(r, &["vci"]) == c2.vci.0 as u64).expect("row for VC 2");
    let (conf, nonconf) = tb.gw.rate_control_counts(c2.vci).expect("policer installed");
    assert_eq!(u(row2, &["rate_control", "conforming_cells"]), conf);
    assert_eq!(u(row2, &["rate_control", "nonconforming_cells"]), nonconf);
    assert!(nonconf > 0, "the burst must overrun the 2 Mb/s contract");
    assert_eq!(u(row2, &["policed_cells"]), nonconf, "registry mirrors the policer");

    // Component totals match the live registers.
    let aic = tb.gw.aic().stats();
    assert_eq!(u(&doc, &["components", "aic", "cells_in"]), aic.cells_in);
    let spp = tb.gw.spp().stats();
    assert_eq!(u(&doc, &["components", "spp", "frames_up"]), spp.frames_up);
    assert_eq!(u(&doc, &["components", "spp", "frames_down"]), spp.frames_down);
    let mpp = tb.gw.mpp().stats();
    assert_eq!(u(&doc, &["components", "mpp", "data_up"]), mpp.data_up);

    // Registry counters agree with the component registers they mirror.
    assert_eq!(u(&doc, &["metrics", "counters", "gw.aic.cells_in", "count"]), aic.cells_in);
    assert_eq!(u(&doc, &["metrics", "counters", "gw.mpp.frames_forwarded", "count"]), mpp.data_up);
    assert_eq!(u(&doc, &["metrics", "counters", "gw.gcra.policed_cells", "count"]), nonconf);
    let registry = &tb.gw.mgmt().expect("management enabled").registry;
    let reassembled = |vci: u16| {
        registry.counter_by_name(&format!("gw.spp.vc.{vci}.reassembled_frames")).expect("VC row")
    };
    assert_eq!(reassembled(c1.vci.0) + reassembled(c2.vci.0), spp.frames_up);

    // Buffer occupancy and drop/shed totals line up with GatewayStats.
    let gs = tb.gw.stats();
    assert_eq!(u(&doc, &["totals", "frames_shed"]), gs.frames_shed);
    assert_eq!(u(&doc, &["totals", "tx_overflow_drops"]), gs.tx_overflow_drops);
    assert_eq!(u(&doc, &["totals", "rx_overflow_drops"]), gs.rx_overflow_drops);
    assert_eq!(u(&doc, &["totals", "atm_to_fddi_ns", "count"]), gs.atm_to_fddi_ns.count());
    let tx = tb.gw.tx_buffer_stats();
    assert_eq!(u(&doc, &["buffers", "tx", "frames_in"]), tx.frames_in);
    assert_eq!(u(&doc, &["buffers", "tx", "peak_octets"]), tx.peak_octets as u64);
    let rx = tb.gw.rx_buffer_stats();
    assert_eq!(u(&doc, &["buffers", "rx", "frames_in"]), rx.frames_in);

    // Per-port health exports with a stable state name.
    let health = tb.gw.health().expect("management enabled");
    assert_eq!(
        doc.get_path(&["health", "atm", "state"]).and_then(Json::as_str),
        Some(health.atm.state.name())
    );
    assert_eq!(u(&doc, &["health", "fddi", "errors_total"]), health.fddi.errors_total);

    // The text dump renders from the same document.
    let text = render_text(&doc);
    assert!(text.contains("gateway snapshot"), "text:\n{text}");
    assert!(text.contains(&format!("vc {}", c2.vci.0)), "per-VC line present");
}

/// Burst loss plus a link flap (the PR 1 fault injector), attributed:
/// the causal trace ties at least one discarded frame back to the exact
/// cell that opened its reassembly and the VC it rode in on.
#[test]
fn causal_trace_attributes_discards_to_cell_and_vc_under_faults() {
    let mut cfg = managed_config(MgmtConfig::default());
    cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(8));
    cfg.atm_faults = FaultConfig::builder()
        .burst(GilbertElliott::bursty(0.05, 0.3))
        .link_flap(SimTime::from_ms(20), SimTime::from_ms(32))
        .build();
    cfg.seed = 21;
    let mut tb = Testbed::build(cfg);
    let congram = tb.install_data_congram(1);

    // 11-cell frames through a bursty, flapping link: some reassemblies
    // must die to lost cells or the reassembly timer.
    for ms in (2..=38u64).step_by(2) {
        tb.send_from_atm_host_at(SimTime::from_ms(ms), congram, vec![ms as u8; 450]);
    }
    tb.run_until(SimTime::from_ms(50));

    let trace = tb.gw.trace().expect("management plane records a trace");
    let discards: Vec<&GwEvent> = trace.discards().collect();
    assert!(!discards.is_empty(), "burst loss must discard at least one frame");

    // Every discard carries its causal root, and the lineage query
    // agrees with the event's own fields.
    let mut attributed = 0;
    for event in &discards {
        let GwEvent::FrameDiscarded { frame, vci, first_cell, cells, reason, .. } = event else {
            unreachable!("discards() only yields FrameDiscarded");
        };
        assert_eq!(*vci, congram.vci.0, "only one data VC is active");
        assert!(*cells >= 1, "a discarded reassembly consumed at least its first cell");
        assert!(
            matches!(
                reason,
                FrameDropReason::LostCell
                    | FrameDropReason::ReassemblyTimeout
                    | FrameDropReason::VcQuarantined
            ),
            "loss-induced discard, got {reason:?}"
        );
        if let Some((cell, lineage_vci)) = trace.lineage(*frame) {
            assert_eq!(cell, *first_cell, "lineage resolves the originating cell");
            assert_eq!(lineage_vci, *vci);
            attributed += 1;
        }
    }
    assert!(attributed >= 1, "at least one discard must trace back to its cell and VC");

    // The flap pushed enough errors through the ATM port's windows that
    // health reacted: either a state excursion was recorded or the
    // error totals show the storm.
    let health = tb.gw.health().expect("management enabled");
    assert!(
        health.atm.transitions > 0
            || health.atm.errors_total > 0
            || health.atm.state != PortState::Up,
        "fault storm must be visible to the ATM port's health: {health:?}"
    );

    // Quarantine retired the VC's registry row; re-establishment (same
    // VCI or fresh) reactivates or adds a row — either way the registry
    // recorded the lifecycle.
    let mgmt = tb.gw.mgmt().expect("management enabled");
    assert!(mgmt.registry.vcs_retired() >= 1, "liveness quarantine retires the row");
}
