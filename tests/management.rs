//! Management-plane integration: snapshot export cross-checked against
//! the gateway's own statistics, and causal trace attribution under
//! fault injection.

use atm_fddi_gateway::atm::policing::{Gcra, GcraParams, PolicingAction};
use atm_fddi_gateway::gateway::snapshot::{render_text, SNAPSHOT_FORMAT};
use atm_fddi_gateway::sim::fault::{FaultConfig, GilbertElliott};
use atm_fddi_gateway::sim::json::Json;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};
use gw_mgmt::{FrameDropReason, GwEvent, MgmtConfig, PortState};

fn managed_config() -> TestbedConfig {
    let mut cfg = TestbedConfig::default();
    cfg.gateway.management = Some(MgmtConfig);
    cfg
}

fn u(doc: &Json, path: &[&str]) -> u64 {
    doc.get_path(path).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing u64 at {path:?}"))
}

/// The acceptance scenario: traffic on two VCs (one rate-controlled),
/// the JSON snapshot deserialized back, and its numbers cross-checked
/// against `GatewayStats` and the component registers.
#[test]
fn snapshot_json_cross_checks_against_gateway_stats() {
    let mut tb = Testbed::build(managed_config());
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

    // Gateway-wide counters agree with the books that count the same
    // events: `gw.aic.cells_in` counts every offered cell, HEC discards
    // included, and `gw.mpp.frames_forwarded` the data frames stored
    // into the transmit buffer (the MPP's `data_up` also counts frames
    // the buffer then sheds or overflows).
    assert_eq!(
        u(&doc, &["metrics", "counters", "gw.aic.cells_in", "count"]),
        aic.cells_in + aic.hec_discards
    );
    assert_eq!(
        u(&doc, &["metrics", "counters", "gw.mpp.frames_forwarded", "count"]),
        tb.gw.conservation().atm_frames_forwarded
    );
    assert_eq!(u(&doc, &["metrics", "counters", "gw.gcra.policed_cells", "count"]), nonconf);
    let registry = &tb.gw.mgmt().expect("management enabled").registry;
    let reassembled = |vci: u16| registry.vc(vci).expect("VC row").reassembled_frames.count();
    assert_eq!(reassembled(c1.vci.0) + reassembled(c2.vci.0), spp.frames_up);

    // Buffer occupancy and drop/shed totals line up with the buffers'
    // own counts and with GatewayStats.
    let gs = tb.gw.stats();
    let tx = tb.gw.tx_buffer_stats();
    let rx = tb.gw.rx_buffer_stats();
    assert_eq!(u(&doc, &["totals", "frames_shed"]), tx.frames_shed + rx.frames_shed);
    assert_eq!(u(&doc, &["totals", "tx_overflow_drops"]), tx.overflow_drops);
    assert_eq!(u(&doc, &["totals", "rx_overflow_drops"]), rx.overflow_drops);
    assert_eq!(u(&doc, &["totals", "atm_to_fddi_ns", "count"]), gs.atm_to_fddi_ns.count());
    assert_eq!(u(&doc, &["buffers", "tx", "frames_in"]), tx.frames_in);
    assert_eq!(u(&doc, &["buffers", "tx", "peak_octets"]), tx.peak_octets as u64);
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
    let mut cfg = managed_config();
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

/// The gateway-wide counters of `gw-snapshot/1`, in document order.
const GLOBAL_COUNTERS: [&str; 21] = [
    "gw.aic.cells_in",
    "gw.aic.hec_discards",
    "gw.aic.hec_corrections",
    "gw.gcra.policed_cells",
    "gw.spp.frames_reassembled",
    "gw.spp.frames_discarded",
    "gw.spp.frames_down",
    "gw.spp.cells_out",
    "gw.mpp.frames_forwarded",
    "gw.mpp.drops",
    "gw.npe.control_frames",
    "gw.npe.fifo_drops",
    "gw.npe.vcs_quarantined",
    "gw.npe.reestablishments",
    "gw.supernet.tx.shed_sync",
    "gw.supernet.tx.shed_async",
    "gw.supernet.tx.overflow_drops",
    "gw.supernet.rx.shed_sync",
    "gw.supernet.rx.shed_async",
    "gw.supernet.rx.overflow_drops",
    "gw.mac.fcs_drops",
];

/// `(name, count)` of every gateway-wide counter in a snapshot, in
/// document order (per-VC rows left out).
fn global_counts(doc: &Json) -> Vec<(String, u64)> {
    let Some(Json::Obj(members)) = doc.get_path(&["metrics", "counters"]) else {
        panic!("metrics.counters is an object");
    };
    members
        .iter()
        .filter(|(name, _)| !name.contains(".vc."))
        .map(|(name, c)| (name.clone(), u(c, &["count"])))
        .collect()
}

/// `(octets, FNV-1a 64)` of the two snapshots of
/// `every_counter_that_can_move_moves_and_the_snapshots_stay_pinned`,
/// recorded with the NPE's two setups issued before the harness data,
/// and with a quarantined signalled VC retired once (`trace.events_retained`
/// 345, three fewer than when its release retired it again).
const PINNED: [(usize, u64); 2] = [(7952, 0x5010_0161_850a_1f5d), (4335, 0xab0b_2607_9aad_b612)];

/// `(octets, FNV-1a 64)` of a rendered snapshot.
fn digest(rendered: &str) -> (usize, u64) {
    let fnv = rendered.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (rendered.len(), fnv)
}

/// One managed run that moves every gateway-wide counter that can move
/// alongside traffic in both directions, then a second run for the one
/// that cannot. Three names never move: the two `shed_sync` counters
/// (a buffer sheds only asynchronous frames, and the receive buffer
/// stores only those) and `gw.npe.fifo_drops` (the gateway pops the
/// MPP–NPE FIFO right after each push). `gw.supernet.rx.shed_async`
/// moves only when the receive buffer's high watermark rounds down to
/// zero octets: the buffer is drained in the call that stores a frame,
/// so it is empty at every store, and then it sheds every LLC frame —
/// no FDDI→ATM traffic, no receive overflow. The second run is that
/// buffer. Both snapshots are pinned by `(octets, FNV-1a 64)`.
#[test]
fn every_counter_that_can_move_moves_and_the_snapshots_stay_pinned() {
    use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
    use atm_fddi_gateway::mchip::messages::ControlPayload;
    use atm_fddi_gateway::scene_run;
    use atm_fddi_gateway::testbed::CongramHandle;
    use atm_fddi_gateway::wire::atm::{AtmHeader, Vci, CELL_SIZE};
    use atm_fddi_gateway::wire::fddi::{FddiAddr, FrameControl, FrameRepr};
    use atm_fddi_gateway::wire::mchip::Icn;

    let mut cfg = managed_config();
    cfg.gateway.hec_correction = true;
    cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(8));
    cfg.gateway.overload_shedding = Some(Default::default());
    cfg.gateway.tx_buffer_octets = 2048;
    cfg.gateway.rx_buffer_octets = 1024;
    // A link flap that idles the signaled congram into quarantine.
    cfg.atm_faults =
        FaultConfig::builder().link_flap(SimTime::from_ms(20), SimTime::from_ms(32)).build();
    let mut tb = Testbed::build(cfg);
    let waves: Vec<CongramHandle> = (1..=3).map(|s| tb.install_data_congram(s)).collect();
    let c1 = waves[0];
    let policed = tb.install_data_congram(3);
    tb.gw.install_rate_control(
        policed.vci,
        Gcra::new(
            GcraParams::for_sar_payload_bps(2_000_000, SimTime::from_us(20)),
            PolicingAction::Drop,
        ),
    );

    // Two NPE setups beside the harness congrams, whose ICNs the NPE
    // keeps clear of. From the ring: station 2 asks for a congram into
    // the ATM network, which the NPE signals for.
    tb.send_control_from_fddi(
        2,
        &ControlPayload::SetupRequest {
            congram: CongramId(9),
            kind: CongramKind::UCon,
            flow: FlowSpec::cbr(1_000_000),
            dest: [5; 8],
        },
    );
    // Control from the ATM host.
    tb.gw.npe_mut().add_host([3; 8], FddiAddr::station(3));
    tb.send_control_from_atm_host(&ControlPayload::SetupRequest {
        congram: CongramId(5),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(1_000_000),
        dest: [3; 8],
    });

    // Data while the harness congrams are live (the liveness monitor
    // retires them at 8 ms): a burst past the policer's contract, a
    // frame on an ICN the MPP has no ICXT-F entry for, and from the
    // ring frames both within and beyond the 1 024-octet receive
    // buffer.
    for _ in 0..6 {
        tb.send_from_atm_host(policed, vec![0xc3; 1800]);
    }
    tb.send_from_atm_host(CongramHandle { atm_icn: Icn(700), ..c1 }, vec![0x77; 200]);
    for k in 0..4u8 {
        tb.send_from_fddi_station(1, c1, vec![k; 300]);
    }
    tb.send_from_fddi_station(1, c1, vec![0x4a; 1800]);
    // Waves of maximum-size frames on three congrams at once, CLP-tagged
    // frames among them, into the 2 048-octet transmit buffer: the
    // watermark sheds and hard overflow both fire.
    let wave = "# gw-scene/1\n\
                scene waves\n\
                congram a station 1 class async\n\
                congram b station 2 class async\n\
                congram c station 3 class async\n\
                burst from_us 1000 to_us 7000 every_us 700 vc a dir atm len 400 fill 0x21\n\
                send at_us 1200 vc c dir atm len 2100 fill 0xb4\n\
                send at_us 2700 vc b dir atm len 2100 fill 0xb4\n\
                send at_us 4200 vc c dir atm len 2100 fill 0xb4\n\
                send at_us 2000 vc a dir atm len 1800 fill 0xb5\n\
                send at_us 2000 vc b dir atm len 1800 fill 0xb5 clp\n\
                send at_us 2000 vc c dir atm len 1800 fill 0xb5\n\
                send at_us 3500 vc a dir atm len 1800 fill 0xb6 clp\n\
                send at_us 3500 vc b dir atm len 1800 fill 0xb6\n\
                send at_us 3500 vc c dir atm len 1800 fill 0xb6 clp\n\
                send at_us 5000 vc a dir atm len 1800 fill 0xb7\n\
                send at_us 5000 vc b dir atm len 1800 fill 0xb7 clp\n\
                send at_us 5000 vc c dir atm len 1800 fill 0xb7\n\
                send at_us 6500 vc a dir atm len 1800 fill 0xb8 clp\n\
                send at_us 6500 vc b dir atm len 1800 fill 0xb8\n\
                send at_us 6500 vc c dir atm len 1800 fill 0xb8 clp\n\
                expect conservation\n";
    let (scene, diags) = atm_fddi_gateway::scene::parse(wave);
    assert!(diags.is_empty(), "{diags:?}");
    scene_run::play_schedule(&mut tb, &waves, &scene.expect("the wave scene parses"));
    tb.run_until(SimTime::from_ms(9));

    // An SMT frame and a frame whose FCS no longer matches, both on
    // the ring toward the gateway.
    let to_gateway = |fc, info: Vec<u8>| {
        FrameRepr { fc, dst: FddiAddr::station(0), src: FddiAddr::station(1), info }
            .emit()
            .expect("fits FDDI")
    };
    let _ = tb.ring.push_async(1, to_gateway(FrameControl::Smt, vec![0x5a; 32]));
    let mut corrupt = to_gateway(FrameControl::LlcAsync { priority: 0 }, vec![0xa5; 64]);
    corrupt[20] ^= 0x10;
    let _ = tb.ring.push_async(1, corrupt);
    // Two cells with header errors: one bit, which the AIC corrects,
    // then two, which it cannot.
    let mut cell = [0u8; CELL_SIZE];
    AtmHeader::data(Default::default(), Vci(1000)).emit(&mut cell[..5]).expect("header fits");
    let (mut one, mut two) = (cell, cell);
    one[2] ^= 0x04;
    two[1] ^= 0x03;
    let mut out = Vec::new();
    tb.gw.deliver_cells(tb.now(), &[one, two], &mut out);
    assert!(out.is_empty());

    tb.run_until(SimTime::from_ms(11));
    let fddi_icn = tb
        .fddi_control_rx(2)
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram, assigned_icn } if *congram == CongramId(9) => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("the station's setup confirms");
    let signaled = CongramHandle { vci: Vci(0), atm_icn: Icn(0), fddi_icn, station: 2 };
    for ms in (12..=18u64).step_by(2) {
        tb.run_until(SimTime::from_ms(ms));
        tb.send_from_fddi_station(2, signaled, vec![ms as u8; 300]);
    }
    // Through the flap: the idle signaled congram is quarantined, and
    // re-established once the link is back.
    tb.run_until(SimTime::from_ms(45));

    let rendered = tb.gw.snapshot(tb.now()).render();
    let doc = Json::parse(&rendered).expect("snapshot parses");
    let counts = global_counts(&doc);
    let names: Vec<&str> = counts.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, GLOBAL_COUNTERS, "the gateway-wide names, in document order");
    let never = [
        "gw.supernet.tx.shed_sync",
        "gw.supernet.rx.shed_sync",
        "gw.npe.fifo_drops",
        "gw.supernet.rx.shed_async",
    ];
    for (name, count) in &counts {
        if never.contains(&name.as_str()) {
            assert_eq!(*count, 0, "{name}");
        } else {
            assert!(*count > 0, "{name} did not move: {counts:?}");
        }
    }
    assert!(tb.gw.check_conservation().is_empty());

    // The receive buffer whose high watermark is zero octets.
    let mut cfg = managed_config();
    cfg.gateway.overload_shedding = Some(Default::default());
    cfg.gateway.rx_buffer_octets = 1;
    let mut shed = Testbed::build(cfg);
    let c = shed.install_data_congram(1);
    for _ in 0..3 {
        shed.send_from_fddi_station(1, c, vec![0x3c; 300]);
    }
    shed.run_until(SimTime::from_ms(5));
    let shed_rendered = shed.gw.snapshot(shed.now()).render();
    let shed_doc = Json::parse(&shed_rendered).expect("snapshot parses");
    let count = |name: &str| u(&shed_doc, &["metrics", "counters", name, "count"]);
    assert_eq!(count("gw.supernet.rx.shed_async"), 3);
    assert_eq!(count("gw.supernet.rx.overflow_drops"), 0);
    assert_eq!(count("gw.spp.frames_down"), 0);

    let pinned = [digest(&rendered), digest(&shed_rendered)];
    assert!(
        pinned == PINNED,
        "the snapshots moved; re-record only when changing the simulation is the point: \
         {pinned:#x?}"
    );
}
