//! The non-critical path end to end: congram signaling through the
//! NPE, both directions, including the ATM signaling interplay.

use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
use atm_fddi_gateway::mchip::messages::ControlPayload;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{CongramHandle, Testbed, TestbedConfig};
use atm_fddi_gateway::wire::fddi::FddiAddr;
use atm_fddi_gateway::wire::mchip::Icn;

fn setup_payload(peer: u32, mbps: u64, dest: [u8; 8]) -> ControlPayload {
    ControlPayload::SetupRequest {
        congram: CongramId(peer),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(mbps * 1_000_000),
        dest,
    }
}

#[test]
fn ucon_setup_data_teardown_from_atm() {
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.gw.npe_mut().add_host([7; 8], FddiAddr::station(2));

    let vci = tb.send_control_from_atm_host(&setup_payload(11, 5, [7; 8]));
    tb.run_until(SimTime::from_ms(30));

    let assigned = tb
        .atm_host_control_rx
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram: CongramId(11), assigned_icn } => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("confirm expected");

    // Data on the assigned ICN flows to station 2.
    let handle = CongramHandle { vci, atm_icn: assigned, fddi_icn: Icn(0), station: 2 };
    for i in 0..5u8 {
        tb.send_from_atm_host(handle, vec![i; 128]);
    }
    tb.run_until(SimTime::from_ms(60));
    assert_eq!(tb.fddi_rx(2).len(), 5);

    // Teardown releases resources and clears the tables.
    tb.send_control_from_atm_host(&ControlPayload::Teardown { congram: CongramId(11) });
    tb.run_until(SimTime::from_ms(90));
    assert!(tb
        .atm_host_control_rx
        .iter()
        .any(|c| matches!(c, ControlPayload::TeardownAck { congram: CongramId(11) })));
    assert_eq!(tb.gw.npe().resource_manager().active(), 0);
    tb.send_from_atm_host(handle, vec![9; 64]);
    tb.run_until(SimTime::from_ms(120));
    assert!(tb.fddi_rx(2).is_empty(), "data after teardown must not forward");
}

/// Congram ids are the requester's: an ATM host and an FDDI station
/// that both number a congram 4 each tear down only their own.
#[test]
fn same_congram_id_from_each_side_stays_apart() {
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.gw.npe_mut().add_host([7; 8], FddiAddr::station(2));
    let host_vci = tb.send_control_from_atm_host(&setup_payload(4, 5, [7; 8]));
    tb.run_until(SimTime::from_ms(10));
    tb.send_control_from_fddi(3, &setup_payload(4, 5, [9; 8]));
    tb.run_until(SimTime::from_ms(40));
    let station_icn = tb
        .fddi_control_rx(3)
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram: CongramId(4), assigned_icn } => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("station 3's setup confirms");
    let host_icn = tb
        .atm_host_control_rx
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram: CongramId(4), assigned_icn } => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("the host's setup confirms");

    // The host tears its congram 4 down: the ack is the host's, and its
    // data stops forwarding.
    tb.send_control_from_atm_host(&ControlPayload::Teardown { congram: CongramId(4) });
    tb.run_until(SimTime::from_ms(70));
    assert!(tb
        .atm_host_control_rx
        .iter()
        .any(|c| matches!(c, ControlPayload::TeardownAck { congram: CongramId(4) })));
    assert!(tb.fddi_control_rx(3).is_empty(), "nothing for station 3");
    let host = CongramHandle { vci: host_vci, atm_icn: host_icn, fddi_icn: Icn(0), station: 2 };
    tb.send_from_atm_host(host, vec![1; 64]);

    // Station 3's congram 4 still carries data to the ATM host.
    let station = CongramHandle {
        vci: atm_fddi_gateway::wire::atm::Vci(0),
        atm_icn: Icn(0),
        fddi_icn: station_icn,
        station: 3,
    };
    for i in 0..3u8 {
        tb.send_from_fddi_station(3, station, vec![i; 100]);
    }
    tb.run_until(SimTime::from_ms(100));
    assert!(tb.fddi_rx(2).is_empty(), "the host's congram is gone");
    assert_eq!(tb.atm_host_rx.len(), 3, "station 3's congram is up");
}

#[test]
fn setup_rejected_when_destination_unknown() {
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.send_control_from_atm_host(&setup_payload(3, 1, [0xEE; 8]));
    tb.run_until(SimTime::from_ms(30));
    assert!(tb
        .atm_host_control_rx
        .iter()
        .any(|c| matches!(c, ControlPayload::SetupReject { congram: CongramId(3), reason: 1 })));
}

#[test]
fn admission_fills_then_rejects_then_recovers() {
    let mut tb =
        Testbed::build(TestbedConfig { fddi_capacity_bps: 20_000_000, ..Default::default() });
    tb.gw.npe_mut().add_host([1; 8], FddiAddr::station(1));

    // Two 8 Mb/s congrams fit in 20 Mb/s; the third does not.
    tb.send_control_from_atm_host(&setup_payload(1, 8, [1; 8]));
    tb.send_control_from_atm_host(&setup_payload(2, 8, [1; 8]));
    tb.send_control_from_atm_host(&setup_payload(3, 8, [1; 8]));
    tb.run_until(SimTime::from_ms(50));
    let confirms = tb
        .atm_host_control_rx
        .iter()
        .filter(|c| matches!(c, ControlPayload::SetupConfirm { .. }))
        .count();
    let rejects = tb
        .atm_host_control_rx
        .iter()
        .filter(|c| matches!(c, ControlPayload::SetupReject { reason: 2, .. }))
        .count();
    assert_eq!(confirms, 2);
    assert_eq!(rejects, 1);

    // Releasing one admits the next.
    tb.send_control_from_atm_host(&ControlPayload::Teardown { congram: CongramId(1) });
    tb.run_until(SimTime::from_ms(80));
    tb.send_control_from_atm_host(&setup_payload(4, 8, [1; 8]));
    tb.run_until(SimTime::from_ms(120));
    assert!(tb
        .atm_host_control_rx
        .iter()
        .any(|c| matches!(c, ControlPayload::SetupConfirm { congram: CongramId(4), .. })));
}

#[test]
fn fddi_side_setup_triggers_atm_signaling() {
    let mut tb = Testbed::build(TestbedConfig::default());
    // Station 3 requests a congram toward the ATM network; the
    // gateway's NPE must run BPN signaling (handled by the testbed
    // against the real gw-atm signaling layer) and confirm.
    tb.send_control_from_fddi(3, &setup_payload(21, 5, [9; 8]));
    tb.run_until(SimTime::from_ms(100));
    let confirms = tb.fddi_control_rx(3);
    assert!(
        confirms
            .iter()
            .any(|c| matches!(c, ControlPayload::SetupConfirm { congram: CongramId(21), .. })),
        "station 3 must receive a confirm: {confirms:?}"
    );
    assert_eq!(tb.gw.npe().stats().setups_confirmed, 1);
    // The BPN reserved bandwidth for it.
    let (sw, port) = tb.atm.endpoint_attachment(tb.atm_host);
    let _ = (sw, port); // reservation exists on the gateway's access link
    assert!(tb.atm.conn_state(gw_atm::signaling::ConnId(0)).is_some());
}

#[test]
fn fddi_side_setup_rejected_when_bpn_full() {
    let mut tb = Testbed::build(TestbedConfig::default());
    // Demand more than the 155 Mb/s access link can reserve.
    tb.send_control_from_fddi(2, &setup_payload(31, 160, [9; 8]));
    tb.run_until(SimTime::from_ms(100));
    let signals = tb.fddi_control_rx(2);
    assert!(
        signals.iter().any(|c| matches!(
            c,
            ControlPayload::SetupReject { congram: CongramId(31), reason: 3 }
        )),
        "{signals:?}"
    );
    assert_eq!(tb.gw.npe().stats().setups_rejected, 1);
}

#[test]
fn control_and_data_path_latency_separation() {
    // E13's premise: control frames cost NPE software latency (hundreds
    // of microseconds); data frames cost nanoseconds in hardware. Both
    // measured here through the same testbed.
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.gw.npe_mut().add_host([7; 8], FddiAddr::station(1));
    let t0 = tb.now();
    let vci = tb.send_control_from_atm_host(&setup_payload(50, 1, [7; 8]));
    // Run until the confirm arrives, tracking when.
    let mut confirm_at = None;
    let mut t = t0;
    while confirm_at.is_none() && t < SimTime::from_ms(100) {
        t = SimTime::from_ns(t.as_ns() + 100_000);
        tb.run_until(t);
        if tb.atm_host_control_rx.iter().any(|c| matches!(c, ControlPayload::SetupConfirm { .. })) {
            confirm_at = Some(t);
        }
    }
    let setup_latency = confirm_at.expect("confirmed") - t0;
    assert!(setup_latency >= tb.gw.npe().latency(), "setup must pay the NPE software latency");

    // Data latency through the hardware path.
    let assigned = tb
        .atm_host_control_rx
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { assigned_icn, .. } => Some(*assigned_icn),
            _ => None,
        })
        .unwrap();
    let handle = CongramHandle { vci, atm_icn: assigned, fddi_icn: Icn(0), station: 1 };
    tb.send_from_atm_host(handle, vec![1; 40]);
    tb.run_until(t + SimTime::from_ms(20));
    let data_latency_ns = tb.gw.stats().atm_to_fddi_ns.max();
    assert!(
        (data_latency_ns as f64) < setup_latency.as_ns() as f64 / 10.0,
        "hardware path ({data_latency_ns} ns) must be far below the software path ({setup_latency})"
    );
}

/// Congrams installed by hand (as scenes, `gwd` and the benchmarks
/// install them) and congrams the NPE sets up share the gateway's two
/// ICXTs: the NPE hands out no ICN a hand-installed congram holds, and
/// every congram keeps carrying its own frames.
#[test]
fn npe_setups_keep_clear_of_hand_installed_congrams() {
    let mut tb = Testbed::build(TestbedConfig { fddi_stations: 5, ..Default::default() });
    let hand = [tb.install_data_congram(1), tb.install_data_congram(2)];
    tb.gw.npe_mut().add_host([7; 8], FddiAddr::station(3));

    // One setup from each side: the ATM host's into the ring, then
    // station 4's into the ATM network.
    let host_vci = tb.send_control_from_atm_host(&setup_payload(11, 1, [7; 8]));
    tb.run_until(SimTime::from_ms(10));
    tb.send_control_from_fddi(4, &setup_payload(21, 1, [9; 8]));
    tb.run_until(SimTime::from_ms(40));
    let host_icn = tb
        .atm_host_control_rx
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram: CongramId(11), assigned_icn } => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("the host's setup confirms");
    let station_icn = tb
        .fddi_control_rx(4)
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram: CongramId(21), assigned_icn } => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("station 4's setup confirms");
    for h in &hand {
        assert_ne!(host_icn, h.atm_icn, "ICXT-F slot shared with {h:?}");
        assert_ne!(station_icn, h.fddi_icn, "ICXT-A slot shared with {h:?}");
    }

    // Frames both ways on each hand-installed congram, and one way on
    // each NPE congram, each congram with its own fill.
    let host = CongramHandle { vci: host_vci, atm_icn: host_icn, fddi_icn: Icn(0), station: 3 };
    let station = CongramHandle {
        vci: atm_fddi_gateway::wire::atm::Vci(0),
        atm_icn: Icn(0),
        fddi_icn: station_icn,
        station: 4,
    };
    for (h, fill) in hand.iter().zip([0x11u8, 0x22]) {
        tb.send_from_atm_host(*h, vec![fill; 200]);
        tb.send_from_fddi_station(h.station, *h, vec![fill + 1; 200]);
    }
    tb.send_from_atm_host(host, vec![0x33; 200]);
    tb.send_from_fddi_station(4, station, vec![0x44; 200]);
    tb.run_until(SimTime::from_ms(70));
    for (st, fill) in [(1usize, 0x11u8), (2, 0x22), (3, 0x33)] {
        assert_eq!(tb.fddi_rx(st), [vec![fill; 200]], "station {st}");
    }
    assert_eq!(tb.fddi_rx(4), Vec::<Vec<u8>>::new(), "station 4 sent, and got nothing");
    let mut at_host: Vec<u8> = tb.atm_host_rx.iter().map(|p| p[0]).collect();
    at_host.sort();
    assert_eq!(at_host, [0x12, 0x23, 0x44], "every congram reaches the ATM host");
}

/// Each time the liveness monitor replaces an idle VC the gateway
/// signalled for, the gateway releases the dead VC's connection: the
/// bandwidth the network holds for the congram stays that of one
/// connection however often it is re-established.
#[test]
fn reestablishing_an_idle_congram_releases_its_old_connection() {
    use atm_fddi_gateway::atm::network::SwitchId;
    let mut cfg = TestbedConfig::default();
    cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(8));
    let mut tb = Testbed::build(cfg);
    let reserved = |tb: &Testbed| -> u64 {
        (0..2)
            .flat_map(|sw| (0..4).map(move |port| (sw, port)))
            .map(|(sw, port)| tb.atm.reserved_bps(SwitchId(sw), port))
            .sum()
    };

    tb.send_control_from_fddi(2, &setup_payload(9, 1, [5; 8]));
    tb.run_until(SimTime::from_ms(2));
    assert_eq!(tb.gw.npe().stats().setups_confirmed, 1);
    let one_connection = reserved(&tb);
    assert!(one_connection > 0, "the congram's connection holds bandwidth");

    tb.run_until(SimTime::from_ms(160));
    assert!(tb.gw.npe().stats().reestablishments >= 10, "{:?}", tb.gw.npe().stats());
    assert_eq!(reserved(&tb), one_connection, "dead connections keep their reservations");
}

/// A VC the gateway signalled for and the liveness monitor gave up is
/// retired once, as quarantined: the release of its connection that
/// follows retires nothing more.
#[test]
fn a_quarantined_signalled_vc_is_retired_once() {
    use atm_fddi_gateway::mgmt::{GwEvent, MgmtConfig};
    let mut cfg = TestbedConfig::default();
    cfg.gateway.management = Some(MgmtConfig);
    cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(8));
    let mut tb = Testbed::build(cfg);
    tb.send_control_from_fddi(2, &setup_payload(9, 1, [5; 8]));
    tb.run_until(SimTime::from_ms(40));
    assert!(tb.gw.npe().stats().reestablishments >= 2, "{:?}", tb.gw.npe().stats());

    let trace = tb.gw.trace().expect("management is on");
    let retired: Vec<(u16, bool)> = trace
        .events()
        .filter_map(|e| match *e {
            GwEvent::VcRetired { vci, quarantined, .. } => Some((vci, quarantined)),
            _ => None,
        })
        .collect();
    assert!(retired.len() >= 2, "{retired:?}");
    let mut vcis: Vec<u16> = retired.iter().map(|&(vci, _)| vci).collect();
    vcis.dedup();
    assert_eq!(vcis.len(), retired.len(), "one VcRetired per VC: {retired:?}");
    assert!(retired.iter().all(|&(_, quarantined)| quarantined), "{retired:?}");
    assert_eq!(tb.gw.stats().vcs_quarantined, retired.len() as u64);
}

/// A congram that carries frames and then idles: the frames reach the
/// ATM host before the liveness monitor gives the VC up, and each
/// re-establishment still releases the connection before it.
#[test]
fn a_congram_that_carried_frames_releases_its_connection_once_idle() {
    use atm_fddi_gateway::atm::network::SwitchId;
    use atm_fddi_gateway::wire::atm::Vci;
    let mut cfg = TestbedConfig::default();
    cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(8));
    let mut tb = Testbed::build(cfg);
    let reserved = |tb: &Testbed| -> u64 {
        (0..2)
            .flat_map(|sw| (0..4).map(move |port| (sw, port)))
            .map(|(sw, port)| tb.atm.reserved_bps(SwitchId(sw), port))
            .sum()
    };

    tb.send_control_from_fddi(2, &setup_payload(9, 1, [5; 8]));
    tb.run_until(SimTime::from_ms(2));
    let one_connection = reserved(&tb);
    let fddi_icn = tb
        .fddi_control_rx(2)
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { assigned_icn, .. } => Some(*assigned_icn),
            _ => None,
        })
        .expect("station 2's setup confirms");
    let station = CongramHandle { vci: Vci(0), atm_icn: Icn(0), fddi_icn, station: 2 };
    for fill in 0..5u8 {
        tb.send_from_fddi_station(2, station, vec![fill; 4000]);
    }

    tb.run_until(SimTime::from_ms(40));
    let fills: Vec<(u8, usize)> = tb.atm_host_rx.iter().map(|p| (p[0], p.len())).collect();
    assert_eq!(fills, (0..5u8).map(|f| (f, 4000)).collect::<Vec<_>>());
    assert!(tb.gw.npe().stats().reestablishments >= 3, "{:?}", tb.gw.npe().stats());
    assert_eq!(reserved(&tb), one_connection, "dead connections keep their reservations");
}

/// The watchdog gave attempt 1 of a station's setup up and issued
/// attempt 2; attempt 1's answer then arrives late. The gateway opened
/// nothing for it, so its connection goes straight back to the network,
/// and the VC that attempt 2 brings up is installed once, with the
/// gateway's reassembly timeout.
#[test]
fn a_superseded_attempts_vc_goes_back_without_being_opened() {
    use atm_fddi_gateway::gateway::{Gateway, GatewayConfig, Output};
    use atm_fddi_gateway::mgmt::{GwEvent, MgmtConfig};
    use atm_fddi_gateway::sar::segment::segment_cells;
    use atm_fddi_gateway::wire::atm::{AtmHeader, Vci};
    use atm_fddi_gateway::wire::fddi::{llc_snap_header, FrameControl, FrameRepr};
    use atm_fddi_gateway::wire::mchip::build_data_frame;
    let config = GatewayConfig {
        management: Some(MgmtConfig),
        vc_liveness_timeout: Some(SimTime::from_ms(8)),
        reassembly_timeout: SimTime::from_ms(3),
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(config, FddiAddr::station(0), 100_000_000);
    let mut info = llc_snap_header().to_vec();
    info.extend_from_slice(&setup_payload(9, 1, [5; 8]).to_frame(Icn(0)));
    let fc = FrameControl::LlcAsync { priority: 0 };
    let (dst, src) = (FddiAddr::station(0), FddiAddr::station(2));
    let frame = FrameRepr { fc, dst, src, info }.emit().unwrap();
    let mut t = SimTime::from_us(10);
    let mut out = gw.fddi_frame_in(t, &frame);
    let mut requests = Vec::new();
    while requests.len() < 2 {
        gw.advance_into(t, &mut out);
        requests.extend(out.drain(..).filter_map(|o| match o {
            Output::AtmConnectionRequest { congram, attempt, .. } => Some((congram, attempt)),
            _ => None,
        }));
        t += SimTime::from_us(100);
    }
    let [(congram, 1), (again, 2)] = requests[..] else { panic!("{requests:?}") };
    assert_eq!(congram, again);

    gw.atm_connection_ready(t, congram, 1, Vci(70), &mut out);
    assert!(
        matches!(out[..], [Output::AtmConnectionRelease { vci: Vci(70), .. }]),
        "the late answer's VC goes back: {out:?}"
    );
    out.clear();
    gw.atm_connection_ready(t, congram, 2, Vci(71), &mut out);
    assert_eq!(gw.npe().stats().setups_confirmed, 1);
    // The first cell of a frame on VC 71 starts its 3 ms reassembly timer.
    let mchip = build_data_frame(Icn(1), &[0; 200]).unwrap();
    let cells = segment_cells(&AtmHeader::data(Default::default(), Vci(71)), &mchip, false);
    let first = cells.unwrap().swap_remove(0).into_inner();
    gw.deliver_cells(t, &[first], &mut out);
    let deadline = gw.next_deadline().expect("the reassembly timer runs");
    assert!(
        deadline >= t + SimTime::from_ms(3) && deadline < t + SimTime::from_ms(4),
        "{deadline:?}"
    );
    let end = t + SimTime::from_ms(40);
    while t < end {
        t += SimTime::from_us(500);
        gw.advance_into(t, &mut out);
    }
    let vc_events = |vci: u16| -> Vec<&GwEvent> {
        let trace = gw.trace().expect("management is on");
        trace
            .events()
            .filter(|e| matches!(e, GwEvent::VcInstalled { .. } | GwEvent::VcRetired { .. }))
            .filter(|e| e.vci() == Some(vci))
            .collect()
    };
    assert_eq!(vc_events(70), Vec::<&GwEvent>::new(), "nothing was opened for VC 70");
    let installs = vc_events(71).into_iter().filter(|e| matches!(e, GwEvent::VcInstalled { .. }));
    assert_eq!(installs.count(), 1, "VC 71 is installed once: {:?}", vc_events(71));
    assert_eq!(gw.stats().vcs_quarantined, 1, "only VC 71 idles out");
}
