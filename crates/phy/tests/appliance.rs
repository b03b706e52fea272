//! End-to-end appliance tests: the `gwd` engine driven without
//! signals — graceful drain with work in flight, live config reload
//! (the SIGHUP path), and a transport flap with supervised reconnect
//! whose backoff schedule is observable in the mgmt port health — and
//! the port driver's admission rule and hand-back.

use gw_gateway::gateway::Output;
use gw_gateway::{Gateway, GatewayConfig};
use gw_mchip::congram::{CongramId, CongramKind, FlowSpec};
use gw_mchip::messages::ControlPayload;
use gw_mgmt::{GwEvent, PortState};
use gw_phy::encap::{self, KIND_ACK, KIND_FRAME};
use gw_phy::{
    loopback_cell_pair, loopback_frame_pair, udp_cell_pair, Appliance, ApplianceConfig, CellPhy,
    CongramSpec, FramePhy, PortDriver, TransportFaultConfig, UdpFramePhy,
};
use gw_sar::segment::{cells_for_len, segment_cells};
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::{self, FddiAddr, Frame, FrameControl, FrameRepr};
use gw_wire::mchip::{build_data_frame, parse_frame, Icn, MchipType};
use std::net::UdpSocket;

/// Segment one MCHIP data frame into the cells a line-side ATM peer
/// would send on `vci`.
fn cells_for(vci: u16, icn: u16, payload: &[u8]) -> Vec<[u8; CELL_SIZE]> {
    let mchip = build_data_frame(Icn(icn), payload).expect("payload fits an MCHIP frame");
    let header = AtmHeader::data(Default::default(), Vci(vci));
    segment_cells(&header, &mchip, false)
        .expect("frame fits the SAR")
        .into_iter()
        .map(|cell| cell.into_inner())
        .collect()
}

/// Recover the MCHIP data payload from an emitted FDDI frame.
fn mchip_payload(bytes: &[u8]) -> Option<Vec<u8>> {
    let frame = Frame::new_unchecked(bytes);
    let encap = fddi::strip_llc_snap(frame.info()).ok()?;
    let (header, payload) = parse_frame(encap).ok()?;
    (header.mtype == MchipType::Data).then(|| payload.to_vec())
}

/// Consume what the line-side loopback endpoint received, keeping a
/// copy for assertions and recycling the buffer into the gateway's
/// frame pool — the loopback pair passes ownership through, so the
/// consumer must balance the MPP pool census (as the testbed does).
fn collect_line_frames(
    app: &mut Appliance,
    line: &mut impl FramePhy,
    sink: &mut Vec<(Vec<u8>, bool)>,
) {
    let mut got = Vec::new();
    line.poll_frames(&mut got).unwrap();
    for (_, bytes, sync) in got {
        sink.push((bytes.clone(), sync));
        app.gateway_mut().recycle_frame(bytes);
    }
}

#[test]
fn graceful_drain_flushes_staged_tx_and_discards_partial_reassembly() {
    let (cell_gw, mut cell_line) = loopback_cell_pair();
    let (frame_gw, mut frame_line) = loopback_frame_pair();
    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    assert_eq!(app.apply_config(&ApplianceConfig::parse("congram 64 1 2 1 async").unwrap()), 1);

    let mut now = SimTime::ZERO;
    // Frame A: every cell arrives, so the reassembled frame is headed
    // for the staged transmit path when the drain begins.
    let payload_a = vec![0x5A; 700];
    for cell in cells_for(64, 1, &payload_a) {
        now += SimTime::from_us(2);
        cell_line.send_cell(now, &cell).unwrap();
        app.step(now);
    }
    // Frame B: a strict prefix of its cells — a reassembly left in
    // flight, exactly what a shutdown mid-transfer looks like.
    let cells_b = cells_for(64, 1, &[0xB7; 700]);
    assert!(cells_b.len() >= 2, "payload must segment into multiple cells");
    for cell in &cells_b[..cells_b.len() - 1] {
        now += SimTime::from_us(2);
        cell_line.send_cell(now, cell).unwrap();
        app.step(now);
    }

    let residue = app.gateway().residue();
    assert!(residue.reassembly_cells > 0, "partial reassembly is held: {residue:?}");
    assert!(!app.is_quiescent());

    // The drain must run the reassembly deadline forward (discarding
    // B), flush A toward the line, and leave the books balanced. The
    // line side keeps consuming while the drain runs, as a live ring
    // would.
    app.begin_drain();
    let mut delivered = Vec::new();
    let mut t = now;
    for _ in 0..300 {
        t += SimTime::from_ms(1);
        app.step(t);
        collect_line_frames(&mut app, &mut frame_line, &mut delivered);
        if app.is_quiescent() {
            break;
        }
    }
    let report = app.drain(t, SimTime::from_ms(1));
    assert!(
        report.clean(),
        "drain must reach zero residue with C1-C7 intact: residue {:?}, violations {:?}, {} in flight",
        report.residue,
        report.violations,
        report.in_flight
    );
    assert!(app.is_quiescent());
    assert!(report.end > now, "quiescence required running timers forward");

    let payloads: Vec<Vec<u8>> =
        delivered.iter().filter_map(|(bytes, _)| mchip_payload(bytes)).collect();
    assert_eq!(payloads, vec![payload_a], "A delivered intact exactly once; B discarded");

    // Draining is sticky: traffic arriving afterwards is not admitted.
    cell_line.send_cell(report.end, &cells_b[cells_b.len() - 1]).unwrap();
    app.step(report.end + SimTime::from_us(2));
    assert!(app.is_draining());
    assert!(app.gateway().residue().is_clean(), "post-drain traffic is refused");
}

#[test]
fn config_rejects_icns_outside_or_repeated_within_an_icxt_table() {
    // ICNs index the N = 1 024-entry ICXTs: 1 023 is the last entry.
    assert!(ApplianceConfig::parse("congram 64 1023 1023 1 async").is_ok());
    for (text, why) in [
        ("congram 64 2000 2001 1 async", "atm_icn outside the 1024-entry ICXT"),
        ("congram 64 1 1024 1 async", "fddi_icn outside the 1024-entry ICXT"),
        ("congram 64 1 2 1 async\ncongram 80 1 6 3 sync", "atm_icn already held"),
        ("congram 64 1 2 1 async\ncongram 80 5 2 3 sync", "fddi_icn already held"),
        ("congram 64 1 2 1 async\ncongram 64 5 6 3 sync", "vci already held"),
    ] {
        let err = ApplianceConfig::parse(text).expect_err(text);
        assert!(err.contains(why), "{text:?}: {err}");
    }
}

#[test]
fn a_full_icxt_config_parses_applies_and_reapplies_nothing() {
    let text: String = (0..1024u16)
        .map(|i| format!("congram {} {i} {} {} async\n", 64 + i, 1023 - i, 1 + i % 8))
        .collect();
    let config = ApplianceConfig::parse(&text).unwrap();
    assert_eq!(config.congrams.len(), 1024);
    let (cell_gw, _cell_line) = loopback_cell_pair();
    let (frame_gw, _frame_line) = loopback_frame_pair();
    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    assert_eq!(app.apply_config(&config), 1024);
    assert_eq!(app.apply_config(&config), 0, "every congram is already live");
    assert_eq!(app.congrams().len(), 1024);
}

#[test]
fn reload_skips_a_congram_whose_icn_a_live_congram_holds() {
    let (cell_gw, _cell_line) = loopback_cell_pair();
    let (frame_gw, _frame_line) = loopback_frame_pair();
    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    assert_eq!(app.apply_config(&ApplianceConfig::parse("congram 64 1 2 1 async").unwrap()), 1);
    // A new VCI on the live congram's ATM ICN, then on its FDDI ICN:
    // installing either would overwrite that congram's ICXT entry.
    for text in ["congram 80 1 6 3 sync", "congram 81 7 2 3 sync"] {
        assert_eq!(app.apply_config(&ApplianceConfig::parse(text).unwrap()), 0, "{text}");
    }
    assert_eq!(app.congrams().len(), 1);
    assert_eq!(app.apply_config(&ApplianceConfig::parse("congram 80 5 6 3 sync").unwrap()), 1);
}

#[test]
fn live_reload_adds_congrams_without_disturbing_in_flight_frames() {
    let (cell_gw, mut cell_line) = loopback_cell_pair();
    let (frame_gw, mut frame_line) = loopback_frame_pair();
    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    assert_eq!(app.apply_config(&ApplianceConfig::parse("congram 64 1 2 1 async").unwrap()), 1);

    // Start a transfer on the live congram and interrupt it mid-frame.
    let mut now = SimTime::ZERO;
    let payload = vec![0xC4; 900];
    let cells = cells_for(64, 1, &payload);
    let (head, tail) = cells.split_at(cells.len() - 1);
    for cell in head {
        now += SimTime::from_us(2);
        cell_line.send_cell(now, cell).unwrap();
        app.step(now);
    }
    assert!(app.gateway().residue().reassembly_cells > 0, "reassembly in flight");

    // The SIGHUP path: re-apply a config that repeats the live VCI
    // (with different parameters, which must be ignored) and adds one.
    let reload = ApplianceConfig::parse(
        "congram 64 9 9 9 sync # ignored: vci already live\ncongram 80 5 6 3 sync",
    )
    .unwrap();
    assert_eq!(app.apply_config(&reload), 1, "only the new congram installs");
    assert_eq!(app.congrams().len(), 2);
    assert_eq!(
        app.congrams()[0],
        CongramSpec { vci: 64, atm_icn: 1, fddi_icn: 2, station: 1, synchronous: false },
        "the live congram keeps its original parameters"
    );

    // The interrupted frame completes across the reload.
    now += SimTime::from_us(2);
    cell_line.send_cell(now, &tail[0]).unwrap();
    app.step(now);
    let mut delivered = Vec::new();
    for _ in 0..50 {
        now += SimTime::from_us(100);
        app.step(now);
        collect_line_frames(&mut app, &mut frame_line, &mut delivered);
        if !delivered.is_empty() {
            break;
        }
    }
    assert_eq!(delivered.len(), 1, "the in-flight frame survived the reload");
    assert_eq!(mchip_payload(&delivered[0].0).as_deref(), Some(&payload[..]));
    assert!(!delivered[0].1, "congram 64 serves the asynchronous class");

    // The newly installed congram carries traffic too, in its own
    // (synchronous) ring class.
    let payload_80 = vec![0x80; 400];
    for cell in cells_for(80, 5, &payload_80) {
        now += SimTime::from_us(2);
        cell_line.send_cell(now, &cell).unwrap();
        app.step(now);
    }
    let mut delivered = Vec::new();
    for _ in 0..50 {
        now += SimTime::from_us(100);
        app.step(now);
        collect_line_frames(&mut app, &mut frame_line, &mut delivered);
        if !delivered.is_empty() {
            break;
        }
    }
    assert_eq!(delivered.len(), 1);
    assert_eq!(mchip_payload(&delivered[0].0).as_deref(), Some(&payload_80[..]));
    assert!(delivered[0].1, "congram 80 serves the synchronous class");

    let report = app.drain(now, SimTime::from_ms(200));
    assert!(report.clean(), "reload left the books balanced: {report:?}");
}

/// Each cell enters the gateway at its line stamp, clamped into [the
/// cell port's last admission, `now`] and raised to the previous
/// tick's `now`: a stamp behind the last admission, or repeating it,
/// enters at it, one past `now` at `now`, and one behind the time the
/// gateway's timers have already run to at that time. Every cell here
/// is a frame of its own, so the trace's `FrameStarted` times are the
/// admission times.
#[test]
fn cells_enter_at_their_line_stamps_clamped_to_the_port_clock() {
    let (cell_gw, mut cell_line) = loopback_cell_pair();
    let (frame_gw, _frame_line) = loopback_frame_pair();
    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    assert_eq!(app.apply_config(&ApplianceConfig::parse("congram 64 1 2 1 async").unwrap()), 1);
    let us = SimTime::from_us;
    let ticks = [
        (us(1_000), vec![us(900), us(800), us(900), SimTime::from_secs(5)]),
        (us(2_000), vec![us(500), us(1_500)]),
        (us(3_000), vec![us(1_800), us(2_500)]),
    ];
    for (now, stamps) in ticks {
        for at in stamps {
            let [cell] = cells_for(64, 1, &[7; 4])[..] else { panic!("one cell per frame") };
            cell_line.send_cell(at, &cell).unwrap();
        }
        app.step(now);
    }
    let started: Vec<SimTime> = app
        .gateway()
        .trace()
        .expect("the appliance runs the management plane")
        .events()
        .filter_map(|e| match e {
            GwEvent::FrameStarted { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    assert_eq!(
        started,
        [us(900), us(900), us(900), us(1_000), us(1_000), us(1_500), us(2_000), us(2_500)]
    );
}

/// A peer whose clock lags the gateway's by far more than the
/// reassembly timeout (GWP1 stamps are the sender's clock, and each
/// process starts its own at zero) still has its frames forwarded: a
/// frame whose cells span two ticks starts at the previous tick's
/// `now`, not at its stamp, so this tick's timers do not flush it as
/// partial.
#[test]
fn a_frame_from_a_lagging_peer_spans_two_ticks_intact() {
    let (cell_gw, mut cell_line) = loopback_cell_pair();
    let (frame_gw, mut frame_line) = loopback_frame_pair();
    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    assert_eq!(app.apply_config(&ApplianceConfig::parse("congram 64 1 2 1 async").unwrap()), 1);
    let payload = vec![0x3C; 700];
    let cells = cells_for(64, 1, &payload);
    let (first, rest) = cells.split_at(cells.len() / 2);
    let ms = SimTime::from_ms;
    app.step(ms(99));
    for (tick, half, stamp) in [(ms(100), first, ms(1)), (ms(101), rest, SimTime::from_us(1_500))] {
        for cell in half {
            cell_line.send_cell(stamp, cell).unwrap();
        }
        app.step(tick);
    }
    let mut delivered = Vec::new();
    collect_line_frames(&mut app, &mut frame_line, &mut delivered);
    let got: Vec<_> = delivered.iter().filter_map(|(bytes, _)| mchip_payload(bytes)).collect();
    assert_eq!(got, [payload], "the frame is forwarded whole");
}

/// What neither port carries comes back to the driver's caller, in
/// emission order, with the signalling attempt it answers: a ring
/// station's setup asks for an ATM connection, and when the liveness
/// monitor gives the idle VC up, its release comes back before the
/// request for the next one.
#[test]
fn the_driver_hands_back_connection_requests_and_releases_in_emission_order() {
    let (cell_gw, _cell_line) = loopback_cell_pair();
    let (frame_gw, mut frame_line) = loopback_frame_pair();
    let mut driver = PortDriver::new(Box::new(cell_gw), Box::new(frame_gw));
    let config =
        GatewayConfig { vc_liveness_timeout: Some(SimTime::from_ms(8)), ..Default::default() };
    let mut gw = Gateway::new(config, FddiAddr::station(0), 100_000_000);
    let mut back = Vec::new();

    let setup = ControlPayload::SetupRequest {
        congram: CongramId(9),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(1_000_000),
        dest: [5; 8],
    };
    let mut info = fddi::llc_snap_header().to_vec();
    info.extend_from_slice(&setup.to_frame(Icn(0)));
    let frame = FrameRepr {
        fc: FrameControl::LlcAsync { priority: 0 },
        dst: FddiAddr::station(0),
        src: FddiAddr::station(2),
        info,
    }
    .emit()
    .unwrap();
    let t = SimTime::from_us(100);
    frame_line.send_frame(t, frame, false).unwrap();
    assert!(driver.admit_frames(&mut gw, t, &mut |_, _, o| back.push(o)));
    let [Output::AtmConnectionRequest { congram, attempt: 1, .. }] = back[..] else {
        panic!("one request, attempt 1: {back:?}")
    };

    back.clear();
    let t = SimTime::from_ms(1);
    driver.call(
        &mut gw,
        t,
        |gw, out| gw.atm_connection_ready(t, congram, 1, Vci(77), out),
        &mut |_, _, o| back.push(o),
    );
    assert!(back.is_empty(), "{back:?}");
    let t = SimTime::from_ms(20);
    assert!(driver.advance(&mut gw, t, &mut |_, _, o| back.push(o)));
    assert!(
        matches!(
            back[..],
            [
                Output::AtmConnectionRelease { vci: Vci(77), .. },
                Output::AtmConnectionRequest { congram: c, attempt: 2, .. },
            ] if c == congram
        ),
        "the release, then the next attempt's request: {back:?}"
    );
}

#[test]
fn what_a_step_emits_toward_the_atm_port_has_left_when_it_returns() {
    let (cell_gw, mut cell_line) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
    let (frame_gw, mut frame_line) = loopback_frame_pair();
    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    assert_eq!(app.apply_config(&ApplianceConfig::parse("congram 64 1 2 1 async").unwrap()), 1);

    // One FDDI→ATM frame of fewer cells than a datagram holds: nothing
    // fills, so only the step's closing flush can put them on the wire.
    let mchip = build_data_frame(Icn(2), &[0x3C; 400]).unwrap();
    let want = cells_for_len(mchip.len());
    assert!(want > 1 && want < encap::MAX_CELLS);
    let mut info = fddi::llc_snap_header().to_vec();
    info.extend_from_slice(&mchip);
    let frame = FrameRepr {
        fc: FrameControl::LlcAsync { priority: 0 },
        dst: FddiAddr::station(0),
        src: FddiAddr::station(1),
        info,
    }
    .emit()
    .unwrap();
    let now = SimTime::from_us(100);
    frame_line.send_frame(now, frame, false).unwrap();
    app.step(now);
    assert!(!app.is_quiescent(), "the cells are on the wire, unacknowledged");

    // No second step: the line side alone sees the whole frame.
    cell_line.pump(now).unwrap();
    let mut got = Vec::new();
    cell_line.poll_cells(&mut got).unwrap();
    assert_eq!(got.len(), want);
    assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "each cell keeps its own emission time");

    // With no data to carry it, the line side's ack leaves bare at its
    // second pump after the one that took the cells.
    for _ in 0..2 {
        cell_line.pump(now).unwrap();
    }
    app.step(now + SimTime::from_us(10));
    let report = app.drain(now + SimTime::from_us(20), SimTime::from_ms(200));
    assert!(report.clean(), "{report:?}");
}

/// A stateful line-side FDDI peer driven through raw sockets and the
/// GWP1 codec directly, so its ARQ receive state survives an outage
/// the way a real peer process would (only the wire goes away, not
/// the peer's sequence numbers).
struct RawFramePeer {
    sock: Option<UdpSocket>,
    gw_addr: std::net::SocketAddr,
    rx_next: u64,
    frames: Vec<Vec<u8>>,
}

impl RawFramePeer {
    fn bind() -> RawFramePeer {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_nonblocking(true).unwrap();
        RawFramePeer {
            sock: Some(sock),
            gw_addr: "0.0.0.0:0".parse().unwrap(),
            rx_next: 0,
            frames: Vec::new(),
        }
    }

    fn local_addr(&self) -> std::net::SocketAddr {
        self.sock.as_ref().unwrap().local_addr().unwrap()
    }

    fn connect(&mut self, gw_addr: std::net::SocketAddr) {
        self.gw_addr = gw_addr;
        self.sock.as_ref().unwrap().connect(gw_addr).unwrap();
    }

    /// Sever the transport: the port closes, and datagrams toward it
    /// start bouncing as ICMP port-unreachable.
    fn sever(&mut self) {
        self.sock = None;
    }

    /// Restore the transport on the same port, receive state intact.
    fn restore(&mut self, at: std::net::SocketAddr) {
        let sock = UdpSocket::bind(at).unwrap();
        sock.set_nonblocking(true).unwrap();
        sock.connect(self.gw_addr).unwrap();
        self.sock = Some(sock);
    }

    /// Accept in-order frames, discard duplicates, acknowledge
    /// cumulatively.
    fn pump(&mut self) {
        let Some(sock) = &self.sock else { return };
        let mut buf = [0u8; 8192];
        let mut progressed = false;
        while let Ok(n) = sock.recv(&mut buf) {
            let Ok(d) = encap::decode(&buf[..n]) else { continue };
            if d.kind != KIND_FRAME {
                continue;
            }
            if d.seq == self.rx_next {
                self.frames.push(d.payload.to_vec());
                self.rx_next += 1;
            }
            progressed = true;
        }
        if progressed {
            let mut ack = Vec::new();
            encap::encode(KIND_ACK, 0, 0, SimTime::ZERO, &[], &mut ack).unwrap();
            encap::set_ack(&mut ack, self.rx_next);
            let _ = sock.send(&ack);
        }
    }
}

#[test]
fn transport_flap_reconnects_with_observable_backoff_and_no_loss() {
    // Cell side: a normal in-process UDP pair. Frame side: the gateway
    // endpoint speaks to a raw stateful peer we can sever and restore.
    let (cell_gw, mut cell_line) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
    let mut peer = RawFramePeer::bind();
    let frame_gw = UdpFramePhy::bind("127.0.0.1:0".parse().unwrap(), peer.local_addr()).unwrap();
    peer.connect(frame_gw.local_addr());
    let peer_addr = peer.local_addr();

    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    assert_eq!(app.apply_config(&ApplianceConfig::parse("congram 64 1 2 1 async").unwrap()), 1);

    let mut now = SimTime::ZERO;
    fn step(
        app: &mut Appliance,
        now: SimTime,
        cell_line: &mut dyn CellPhy,
        peer: &mut RawFramePeer,
    ) {
        app.step(now);
        cell_line.pump(now).unwrap();
        peer.pump();
    }

    // Phase 1: a frame crosses while the link is healthy.
    let payload_a = vec![0xA1; 500];
    for cell in cells_for(64, 1, &payload_a) {
        now += SimTime::from_us(2);
        cell_line.send_cell(now, &cell).unwrap();
        step(&mut app, now, &mut cell_line, &mut peer);
    }
    for _ in 0..200 {
        now += SimTime::from_us(100);
        step(&mut app, now, &mut cell_line, &mut peer);
        if peer.frames.len() == 1 {
            break;
        }
    }
    assert_eq!(peer.frames.len(), 1, "healthy link delivers");
    assert_eq!(mchip_payload(&peer.frames[0]).as_deref(), Some(&payload_a[..]));

    // Phase 2: sever the peer, then push another frame through. The
    // gateway's sends start bouncing; the supervisor must take the
    // port to Reconnecting and start the backoff schedule.
    peer.sever();
    let payload_b = vec![0xB2; 500];
    for cell in cells_for(64, 1, &payload_b) {
        now += SimTime::from_us(2);
        cell_line.send_cell(now, &cell).unwrap();
        step(&mut app, now, &mut cell_line, &mut peer);
    }
    let mut saw_reconnecting = false;
    for _ in 0..400 {
        now += SimTime::from_ms(1);
        step(&mut app, now, &mut cell_line, &mut peer);
        let health = app.gateway().health().expect("mgmt is forced on");
        if health.fddi.state == PortState::Reconnecting {
            saw_reconnecting = true;
            if health.fddi.backoff_retries >= 2 {
                break;
            }
        }
        // The ICMP error needs a moment of wall time to surface.
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(saw_reconnecting, "the FDDI port must reach Reconnecting while severed");
    let health = app.gateway().health().unwrap();
    assert!(
        health.fddi.backoff_retries >= 2,
        "backoff schedule observable in mgmt counters: {:?}",
        health.fddi
    );
    assert_eq!(health.atm.backoff_retries, 0, "the ATM port never flapped");
    let snapshot = app.gateway_mut().snapshot(now).pretty();
    assert!(
        snapshot.contains("\"backoff_retries\""),
        "reconnect counters are part of gw-snapshot/1"
    );

    // Phase 3: the peer comes back on the same port with its receive
    // state intact. The unacknowledged tail retransmits; nothing is
    // lost and the mgmt plane records the recovery.
    peer.restore(peer_addr);
    for _ in 0..400 {
        now += SimTime::from_ms(1);
        step(&mut app, now, &mut cell_line, &mut peer);
        if peer.frames.len() == 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(peer.frames.len(), 2, "the frame sent during the outage arrives after reconnect");
    assert_eq!(mchip_payload(&peer.frames[1]).as_deref(), Some(&payload_b[..]));
    let health = app.gateway().health().unwrap();
    assert!(health.fddi.reconnects >= 1, "recovery counted: {:?}", health.fddi);
    assert_ne!(health.fddi.state, PortState::Isolated);
    assert_eq!(app.gateway().check_conservation(), Vec::<String>::new());

    // And the appliance still drains clean after the flap.
    app.begin_drain();
    for _ in 0..400 {
        now += SimTime::from_ms(1);
        step(&mut app, now, &mut cell_line, &mut peer);
        if app.is_quiescent() {
            break;
        }
    }
    let report = app.drain(now, SimTime::from_ms(200));
    assert!(report.clean(), "post-flap drain: {report:?}");
}
