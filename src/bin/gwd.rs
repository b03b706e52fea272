//! `gwd` — the gateway as a real-I/O appliance daemon.
//!
//! ```text
//! gwd run --atm-bind A --atm-peer B --fddi-bind C --fddi-peer D
//!         [--config FILE] [--snapshot FILE] [--duration-ms N]
//!     Serve the two ports over UDP-encapsulated transports (GWP1) on
//!     a wall-clock mapping of the 40 ns cycle clock. SIGHUP reloads
//!     --config additively (live congrams survive); SIGTERM/SIGINT
//!     trigger a graceful drain: stop admitting, run every timer to
//!     quiescence, write the gw-snapshot/1 document, and exit 0 only
//!     if the residue audit is clean (3 otherwise).
//!
//! gwd smoke [--frames N] [--snapshot FILE] [--scene FILE]
//!     Deterministic self-exercise on real loopback sockets: scripted
//!     traffic both directions through a fault-injected transport,
//!     graceful drain, conservation audit. Exit 0 only when every
//!     frame arrived and the drain was clean — the CI daemon gate.
//!     With --scene, the congram table and the traffic schedule come
//!     from a `.scene` file (same wire-ID assignment as every other
//!     harness; see `gw-scene`) and the scene's delivery expects are
//!     enforced. Scene `fault` directives describe the simulated ATM
//!     seam and do not apply to the appliance's datagram transport,
//!     which always runs under the smoke fault mix + ARQ.
//! ```

use atm_fddi_gateway::gateway::GatewayConfig;
use atm_fddi_gateway::phy::{
    udp_cell_pair, udp_frame_pair, Appliance, ApplianceConfig, CellPhy, FramePhy,
    TransportFaultConfig, UdpCellPhy, UdpFramePhy, WallClock,
};
use atm_fddi_gateway::sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
use atm_fddi_gateway::sar::segment::segment_cells;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::wire::atm::{AtmHeader, Cell, Vci, CELL_SIZE};
use atm_fddi_gateway::wire::fddi::{self, FddiAddr, Frame, FrameControl, FrameRepr};
use atm_fddi_gateway::wire::mchip::{build_data_frame, parse_frame, Icn, MchipType};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------
// Signals. The daemon links no C library wrapper crate; `signal(2)` is
// declared directly and the handlers only flip atomics.

static GOT_RELOAD: AtomicBool = AtomicBool::new(false);
static GOT_SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGHUP: i32 = 1;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(sig: i32) {
    match sig {
        SIGHUP => GOT_RELOAD.store(true, Ordering::SeqCst),
        SIGINT | SIGTERM => GOT_SHUTDOWN.store(true, Ordering::SeqCst),
        _ => {}
    }
}

fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as *const () as usize;
    // SAFETY: `signal(2)` is declared with its true C ABI, the handler
    // is a valid `extern "C" fn` for the process lifetime (a static
    // item), and it is async-signal-safe — it only stores to atomics.
    unsafe {
        signal(SIGHUP, handler);
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

// ---------------------------------------------------------------------
// CLI plumbing (same idiom as gwsim).

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("gwd: invalid value for {flag}: {v:?}");
            std::process::exit(2);
        }),
    }
}

fn required_addr(args: &[String], flag: &str) -> SocketAddr {
    let Some(v) = arg_value(args, flag) else {
        eprintln!("gwd: missing required {flag} <ip:port>");
        std::process::exit(2);
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("gwd: invalid socket address for {flag}: {v:?}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let code = match cmd {
        "run" => run_daemon(&args),
        "smoke" => smoke(&args),
        _ => {
            eprintln!(
                "usage: gwd run --atm-bind A --atm-peer B --fddi-bind C --fddi-peer D \
                 [--config FILE] [--snapshot FILE] [--duration-ms N]\n\
                 \x20      gwd smoke [--frames N] [--snapshot FILE] [--scene FILE]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn load_config(path: &str) -> Option<ApplianceConfig> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gwd: cannot read config {path}: {e}");
            return None;
        }
    };
    match ApplianceConfig::parse(&text) {
        Ok(cfg) => Some(cfg),
        Err(e) => {
            eprintln!("gwd: config {path} rejected: {e}");
            None
        }
    }
}

fn write_snapshot(app: &mut Appliance, now: SimTime, path: Option<&str>) {
    let doc = app.gateway_mut().snapshot(now).pretty();
    match path {
        Some(p) => match std::fs::write(p, &doc) {
            Ok(()) => eprintln!("gwd: snapshot written to {p}"),
            Err(e) => eprintln!("gwd: snapshot write to {p} failed: {e}"),
        },
        None => println!("{doc}"),
    }
}

// ---------------------------------------------------------------------
// Daemon mode.

fn run_daemon(args: &[String]) -> i32 {
    let atm_bind = required_addr(args, "--atm-bind");
    let atm_peer = required_addr(args, "--atm-peer");
    let fddi_bind = required_addr(args, "--fddi-bind");
    let fddi_peer = required_addr(args, "--fddi-peer");
    let config_path = arg_value(args, "--config");
    let snapshot_path = arg_value(args, "--snapshot");
    let duration_ms: u64 = parse_flag(args, "--duration-ms", 0);

    // Wall-clock transports: retransmit on a timer instead of every
    // pump, because a real peer answers in real time.
    let rto = SimTime::from_ms(50);
    let cell = match UdpCellPhy::bind(atm_bind, atm_peer, TransportFaultConfig::none(), false, rto)
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gwd: ATM port bind {atm_bind} failed: {e}");
            return 2;
        }
    };
    let frame =
        match UdpFramePhy::bind(fddi_bind, fddi_peer, TransportFaultConfig::none(), false, rto) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("gwd: FDDI port bind {fddi_bind} failed: {e}");
                return 2;
            }
        };

    let mut app =
        Appliance::new(GatewayConfig::default(), 100_000_000, Box::new(cell), Box::new(frame));
    if let Some(path) = &config_path {
        match load_config(path) {
            Some(cfg) => {
                let added = app.apply_config(&cfg);
                eprintln!("gwd: installed {added} congrams from {path}");
            }
            None => return 2,
        }
    }

    install_signal_handlers();
    let clock = WallClock::start();
    let deadline = (duration_ms > 0).then(|| clock.now() + SimTime::from_ms(duration_ms));
    eprintln!("gwd: serving atm {atm_bind} <-> {atm_peer}, fddi {fddi_bind} <-> {fddi_peer}");

    loop {
        if GOT_SHUTDOWN.load(Ordering::SeqCst) {
            eprintln!("gwd: shutdown signal — draining");
            break;
        }
        if let Some(d) = deadline {
            if clock.now() >= d {
                eprintln!("gwd: duration elapsed — draining");
                break;
            }
        }
        if GOT_RELOAD.swap(false, Ordering::SeqCst) {
            match &config_path {
                Some(path) => {
                    // A rejected reload keeps the running config; a
                    // good one only ever *adds* congrams, so in-flight
                    // frames survive.
                    if let Some(cfg) = load_config(path) {
                        let added = app.apply_config(&cfg);
                        eprintln!(
                            "gwd: reloaded {path}: {added} congrams added, {} live",
                            app.congrams().len()
                        );
                    }
                }
                None => eprintln!("gwd: SIGHUP with no --config; nothing to reload"),
            }
        }
        app.step(clock.now());
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Graceful drain against a live peer: keep stepping on the wall
    // clock (so the peer's acks can still land) until quiescent, then
    // let the drain loop run the remaining gateway timers forward.
    let wall_deadline = clock.now() + SimTime::from_secs(2);
    app.begin_drain();
    while !app.is_quiescent() && clock.now() < wall_deadline {
        app.step(clock.now());
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let report = app.drain(clock.now(), SimTime::from_secs(5));
    let end = report.end;
    eprintln!(
        "gwd: drain {} at {} ms: residue {:?}, {} violations, {} in flight",
        if report.clean() { "clean" } else { "DIRTY" },
        end.as_ns() / 1_000_000,
        report.residue,
        report.violations.len(),
        report.in_flight
    );
    for v in &report.violations {
        eprintln!("gwd:   violation: {v}");
    }
    write_snapshot(&mut app, end, snapshot_path.as_deref());
    if report.clean() {
        0
    } else {
        3
    }
}

// ---------------------------------------------------------------------
// Smoke mode: the whole appliance exercised on real loopback sockets,
// deterministically (the clock is scripted, not read).

fn smoke(args: &[String]) -> i32 {
    if let Some(path) = arg_value(args, "--scene") {
        return smoke_scene(&path, arg_value(args, "--snapshot").as_deref());
    }
    let frames: usize = parse_flag(args, "--frames", 8);
    let snapshot_path = arg_value(args, "--snapshot");

    // Harsh datagram faults prove the ARQ is doing the work even in a
    // smoke run; the traffic must still arrive exactly once, in order.
    let faults =
        TransportFaultConfig { drop: 0.10, duplicate: 0.10, truncate: 0.05, seed: 0x51301 };
    let (cell_gw, mut cell_line) = match udp_cell_pair(&faults) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gwd smoke: UDP cell pair bind failed: {e}");
            return 2;
        }
    };
    let (frame_gw, mut frame_line) = match udp_frame_pair(&faults) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gwd smoke: UDP frame pair bind failed: {e}");
            return 2;
        }
    };

    let mut app = Appliance::new(
        GatewayConfig::default(),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );
    let cfg = ApplianceConfig::parse(
        "# smoke congrams\n\
         congram 64 1 2 1 async\n\
         congram 65 3 4 2 sync\n",
    )
    .expect("smoke config parses");
    assert_eq!(app.apply_config(&cfg), 2);

    let mut now = SimTime::ZERO;
    let slice = SimTime::from_us(10);
    let mut cells_from_gw: Vec<(SimTime, [u8; CELL_SIZE])> = Vec::new();
    let mut frames_from_gw: Vec<(SimTime, Vec<u8>, bool)> = Vec::new();
    fn step(
        app: &mut Appliance,
        now: SimTime,
        cell_line: &mut UdpCellPhy,
        frame_line: &mut UdpFramePhy,
        cells_out: &mut Vec<(SimTime, [u8; CELL_SIZE])>,
        frames_out: &mut Vec<(SimTime, Vec<u8>, bool)>,
    ) {
        app.step(now);
        cell_line.pump(now).expect("line cell pump");
        frame_line.pump(now).expect("line frame pump");
        cell_line.poll_cells(cells_out).expect("line cell poll");
        frame_line.poll_frames(frames_out).expect("line frame poll");
    }

    // ATM -> FDDI: segmented MCHIP data frames on VCI 64.
    let atm_payload = |i: usize| vec![0x40 + i as u8; 600];
    for i in 0..frames {
        let mchip = build_data_frame(Icn(1), &atm_payload(i)).expect("payload fits");
        let header = AtmHeader::data(Default::default(), Vci(64));
        for cell in segment_cells(&header, &mchip, false).expect("frame fits") {
            let mut b = [0u8; CELL_SIZE];
            b.copy_from_slice(cell.as_bytes());
            cell_line.send_cell(now, &b).expect("line cell send");
            now += SimTime::from_us(2);
            step(
                &mut app,
                now,
                &mut cell_line,
                &mut frame_line,
                &mut cells_from_gw,
                &mut frames_from_gw,
            );
        }
    }

    // FDDI -> ATM: LLC/SNAP MCHIP frames toward the gateway station.
    let fddi_payload = |i: usize| vec![0xA0 + i as u8; 900];
    for i in 0..frames {
        let mchip = build_data_frame(Icn(2), &fddi_payload(i)).expect("payload fits");
        let mut info = fddi::llc_snap_header().to_vec();
        info.extend_from_slice(&mchip);
        let frame = FrameRepr {
            fc: FrameControl::LlcAsync { priority: 0 },
            dst: FddiAddr::station(0),
            src: FddiAddr::station(1),
            info,
        }
        .emit()
        .expect("fits FDDI");
        frame_line.send_frame(now, frame, false).expect("line frame send");
        now += slice;
        step(
            &mut app,
            now,
            &mut cell_line,
            &mut frame_line,
            &mut cells_from_gw,
            &mut frames_from_gw,
        );
    }

    // Let timers and the ARQ settle, pumping both sides.
    for _ in 0..2000 {
        now += slice;
        step(
            &mut app,
            now,
            &mut cell_line,
            &mut frame_line,
            &mut cells_from_gw,
            &mut frames_from_gw,
        );
        if app.is_quiescent() && cell_line.in_flight() == 0 && frame_line.in_flight() == 0 {
            break;
        }
    }

    // Graceful drain (the line side keeps acking while it runs).
    app.begin_drain();
    for _ in 0..2000 {
        now += slice;
        step(
            &mut app,
            now,
            &mut cell_line,
            &mut frame_line,
            &mut cells_from_gw,
            &mut frames_from_gw,
        );
        if app.is_quiescent() && cell_line.in_flight() == 0 && frame_line.in_flight() == 0 {
            break;
        }
    }
    let report = app.drain(now, SimTime::from_ms(1));
    let end = report.end;

    // Audit the deliveries.
    let mut failures = 0;
    let mut fddi_delivered = 0;
    for (_, bytes, _) in &frames_from_gw {
        let frame = Frame::new_unchecked(bytes);
        let Ok(encap) = fddi::strip_llc_snap(frame.info()) else { continue };
        let Ok((header, payload)) = parse_frame(encap) else { continue };
        if header.mtype == MchipType::Data {
            if payload != atm_payload(fddi_delivered) {
                eprintln!("gwd smoke: FDDI delivery {fddi_delivered} corrupt");
                failures += 1;
            }
            fddi_delivered += 1;
        }
    }
    let mut reasm = Reassembler::new(ReassemblyConfig::default());
    reasm.open_vc(Vci(64));
    let mut atm_delivered = 0;
    for (t, cell) in &cells_from_gw {
        let Ok(view) = Cell::new_checked(&cell[..]) else { continue };
        if let ReassemblyEvent::Complete(frame) = reasm.push(*t, view.header().vci, view.payload())
        {
            reasm.release(view.header().vci);
            let Ok((header, payload)) = parse_frame(&frame.data) else { continue };
            if header.mtype == MchipType::Data {
                if payload != fddi_payload(atm_delivered) {
                    eprintln!("gwd smoke: ATM delivery {atm_delivered} corrupt");
                    failures += 1;
                }
                atm_delivered += 1;
            }
        }
    }
    if fddi_delivered != frames {
        eprintln!("gwd smoke: {fddi_delivered}/{frames} frames reached the FDDI side");
        failures += 1;
    }
    if atm_delivered != frames {
        eprintln!("gwd smoke: {atm_delivered}/{frames} frames reached the ATM side");
        failures += 1;
    }
    if !report.clean() {
        eprintln!(
            "gwd smoke: drain DIRTY: residue {:?}, {} violations, {} in flight",
            report.residue,
            report.violations.len(),
            report.in_flight
        );
        for v in &report.violations {
            eprintln!("gwd smoke:   violation: {v}");
        }
        failures += 1;
    }

    let t = app.transport_stats();
    eprintln!(
        "gwd smoke: {frames}+{frames} frames both directions, drain {}, transport tx {} rx {} \
         retx {} (injected drop {} dup {} trunc {})",
        if report.clean() { "clean" } else { "DIRTY" },
        t.datagrams_tx,
        t.datagrams_rx,
        t.retransmits,
        t.faults_dropped,
        t.faults_duplicated,
        t.faults_truncated
    );
    write_snapshot(&mut app, end, snapshot_path.as_deref());
    if failures == 0 {
        0
    } else {
        1
    }
}

// ---------------------------------------------------------------------
// Scene-driven smoke: the congram table, gateway knobs, and traffic
// schedule come from a `.scene` file. Wire identifiers follow
// `gw_scene::wire_ids` — the same assignment the testbed, chaos, and
// bench harnesses use — so one scene denotes one connection table on
// the real appliance too.

fn smoke_scene(path: &str, snapshot_path: Option<&str>) -> i32 {
    use atm_fddi_gateway::atm::policing::{Gcra, GcraParams, PolicingAction};
    use atm_fddi_gateway::scene::{Dir, Expect, PoliceAction};

    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gwd smoke: {path}: {e}");
            return 2;
        }
    };
    let (scene, diags) = atm_fddi_gateway::scene::parse(&src);
    for d in &diags {
        eprintln!("{path}:{}", d.render());
    }
    let Some(scene) = scene else {
        return 2;
    };

    let faults =
        TransportFaultConfig { drop: 0.10, duplicate: 0.10, truncate: 0.05, seed: 0x51301 };
    let (cell_gw, mut cell_line) = match udp_cell_pair(&faults) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gwd smoke: UDP cell pair bind failed: {e}");
            return 2;
        }
    };
    let (frame_gw, mut frame_line) = match udp_frame_pair(&faults) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gwd smoke: UDP frame pair bind failed: {e}");
            return 2;
        }
    };

    // The same gateway-knob lowering `Testbed::from_scene` applies.
    let mut gw_cfg = GatewayConfig {
        reassembly_timeout: SimTime::from_ns(scene.reassembly_timeout_ns()),
        ..GatewayConfig::default()
    };
    if let Some(us) = scene.liveness_us {
        gw_cfg.vc_liveness_timeout = Some(SimTime::from_us(us));
    }
    if let Some(starve) = scene.starve {
        gw_cfg.tx_buffer_octets = starve.tx_octets as usize;
        gw_cfg.rx_buffer_octets = starve.rx_octets as usize;
    }
    if scene.shedding {
        gw_cfg.overload_shedding = Some(Default::default());
    }
    let mut app = Appliance::new(gw_cfg, 100_000_000, Box::new(cell_gw), Box::new(frame_gw));

    let mut cfg_text = String::from("# scene congrams\n");
    for (i, c) in scene.congrams.iter().enumerate() {
        let (vci, atm_icn, fddi_icn) = atm_fddi_gateway::scene::wire_ids(i);
        cfg_text.push_str(&format!(
            "congram {vci} {atm_icn} {fddi_icn} {} {}\n",
            c.station,
            if c.sync { "sync" } else { "async" }
        ));
    }
    let cfg = match ApplianceConfig::parse(&cfg_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gwd smoke: scene congram table rejected: {e}");
            return 2;
        }
    };
    let installed = app.apply_config(&cfg);
    if installed != scene.congrams.len() {
        eprintln!("gwd smoke: installed {installed}/{} scene congrams", scene.congrams.len());
        return 2;
    }
    for (i, c) in scene.congrams.iter().enumerate() {
        if let Some(p) = c.police {
            let (vci, _, _) = atm_fddi_gateway::scene::wire_ids(i);
            let action = match p.action {
                PoliceAction::Drop => PolicingAction::Drop,
                PoliceAction::Tag => PolicingAction::Tag,
            };
            app.gateway_mut().install_rate_control(
                Vci(vci),
                Gcra::new(
                    GcraParams::for_sar_payload_bps(p.pcr_bps, SimTime::from_us(p.tolerance_us)),
                    action,
                ),
            );
        }
    }

    let mut now = SimTime::ZERO;
    let slice = SimTime::from_us(10);
    let mut cells_from_gw: Vec<(SimTime, [u8; CELL_SIZE])> = Vec::new();
    let mut frames_from_gw: Vec<(SimTime, Vec<u8>, bool)> = Vec::new();
    let mut step = |app: &mut Appliance,
                    now: SimTime,
                    cell_line: &mut UdpCellPhy,
                    frame_line: &mut UdpFramePhy| {
        app.step(now);
        cell_line.pump(now).expect("line cell pump");
        frame_line.pump(now).expect("line frame pump");
        cell_line.poll_cells(&mut cells_from_gw).expect("line cell poll");
        frame_line.poll_frames(&mut frames_from_gw).expect("line frame poll");
    };

    // Play the schedule, keeping the appliance and the ARQ pumping
    // between injections.
    let plan = scene.schedule();
    let scheduled = plan.len();
    for s in &plan {
        let at = SimTime::from_ns(s.at_ns);
        while now < at {
            now += slice;
            step(&mut app, now, &mut cell_line, &mut frame_line);
        }
        let handle = &scene.congrams[s.congram];
        let (vci, atm_icn, fddi_icn) = atm_fddi_gateway::scene::wire_ids(s.congram);
        let payload = vec![s.fill; s.len as usize];
        match s.dir {
            Dir::Atm => {
                let mchip = build_data_frame(Icn(atm_icn), &payload).expect("payload fits");
                let mut header = AtmHeader::data(Default::default(), Vci(vci));
                header.clp = s.clp;
                for cell in segment_cells(&header, &mchip, false).expect("frame fits") {
                    let mut b = [0u8; CELL_SIZE];
                    b.copy_from_slice(cell.as_bytes());
                    cell_line.send_cell(now, &b).expect("line cell send");
                    now += SimTime::from_us(2);
                    step(&mut app, now, &mut cell_line, &mut frame_line);
                }
            }
            Dir::Fddi => {
                let mchip = build_data_frame(Icn(fddi_icn), &payload).expect("payload fits");
                let mut info = fddi::llc_snap_header().to_vec();
                info.extend_from_slice(&mchip);
                let frame = FrameRepr {
                    fc: FrameControl::LlcAsync { priority: 0 },
                    dst: FddiAddr::station(0),
                    src: FddiAddr::station(handle.station),
                    info,
                }
                .emit()
                .expect("fits FDDI");
                frame_line.send_frame(now, frame, false).expect("line frame send");
                now += slice;
                step(&mut app, now, &mut cell_line, &mut frame_line);
            }
        }
    }

    // Settle, then drain gracefully — same discipline as plain smoke.
    for _ in 0..4000 {
        now += slice;
        step(&mut app, now, &mut cell_line, &mut frame_line);
        if app.is_quiescent() && cell_line.in_flight() == 0 && frame_line.in_flight() == 0 {
            break;
        }
    }
    app.begin_drain();
    for _ in 0..4000 {
        now += slice;
        step(&mut app, now, &mut cell_line, &mut frame_line);
        if app.is_quiescent() && cell_line.in_flight() == 0 && frame_line.in_flight() == 0 {
            break;
        }
    }
    let report = app.drain(now, SimTime::from_ms(1));
    let end = report.end;

    // Audit deliveries against the schedule: a delivered frame must be
    // a uniform fill matching some scheduled (len, fill) pair.
    let frames_pairs: Vec<(usize, u8)> = plan.iter().map(|s| (s.len as usize, s.fill)).collect();
    let mut failures = 0;
    let mut delivered = 0usize;
    let check = |payload: &[u8], side: &str, failures: &mut i32| {
        let ok = !payload.is_empty()
            && payload.iter().all(|&b| b == payload[0])
            && frames_pairs.iter().any(|&(len, f)| len == payload.len() && f == payload[0]);
        if !ok {
            eprintln!(
                "gwd smoke: corrupt {side} delivery: {} octets, first byte {:#04x}",
                payload.len(),
                payload.first().copied().unwrap_or(0)
            );
            *failures += 1;
        }
    };
    for (_, bytes, _) in &frames_from_gw {
        let frame = Frame::new_unchecked(bytes);
        let Ok(encap) = fddi::strip_llc_snap(frame.info()) else { continue };
        let Ok((header, payload)) = parse_frame(encap) else { continue };
        if header.mtype == MchipType::Data {
            check(payload, "FDDI", &mut failures);
            delivered += 1;
        }
    }
    let mut reasm = Reassembler::new(ReassemblyConfig::default());
    for i in 0..scene.congrams.len() {
        let (vci, _, _) = atm_fddi_gateway::scene::wire_ids(i);
        reasm.open_vc(Vci(vci));
    }
    for (t, cell) in &cells_from_gw {
        let Ok(view) = Cell::new_checked(&cell[..]) else { continue };
        if let ReassemblyEvent::Complete(frame) = reasm.push(*t, view.header().vci, view.payload())
        {
            reasm.release(view.header().vci);
            let Ok((header, payload)) = parse_frame(&frame.data) else { continue };
            if header.mtype == MchipType::Data {
                check(payload, "ATM", &mut failures);
                delivered += 1;
            }
        }
    }

    // The scene's expects: conservation and residue map onto the drain
    // audit; the delivery expects are judged on the counts above.
    for e in &scene.expects {
        match e {
            Expect::Conservation | Expect::ResidueClean => {
                if !report.clean() {
                    failures += 1;
                }
            }
            Expect::DeliveredAll => {
                if delivered != scheduled {
                    eprintln!("gwd smoke: expect delivered_all: {delivered}/{scheduled} arrived");
                    failures += 1;
                }
            }
            Expect::DeliveredAtLeast(n) => {
                if (delivered as u64) < *n {
                    eprintln!("gwd smoke: expect delivered_at_least {n}: only {delivered}");
                    failures += 1;
                }
            }
            Expect::MaxLostFrames(n) => {
                let lost = scheduled.saturating_sub(delivered) as u64;
                if lost > *n {
                    eprintln!("gwd smoke: expect max_lost_frames {n}: lost {lost}");
                    failures += 1;
                }
            }
        }
    }
    if !report.clean() {
        eprintln!(
            "gwd smoke: drain DIRTY: residue {:?}, {} violations, {} in flight",
            report.residue,
            report.violations.len(),
            report.in_flight
        );
        for v in &report.violations {
            eprintln!("gwd smoke:   violation: {v}");
        }
    }

    let t = app.transport_stats();
    eprintln!(
        "gwd smoke: scene `{}`: {delivered}/{scheduled} frames delivered, drain {}, transport \
         tx {} rx {} retx {} (injected drop {} dup {} trunc {})",
        scene.name,
        if report.clean() { "clean" } else { "DIRTY" },
        t.datagrams_tx,
        t.datagrams_rx,
        t.retransmits,
        t.faults_dropped,
        t.faults_duplicated,
        t.faults_truncated
    );
    write_snapshot(&mut app, end, snapshot_path);
    if failures == 0 {
        0
    } else {
        1
    }
}
