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
//!     Deterministic self-exercise on real loopback sockets: a
//!     `.scene`'s congram table, gateway knobs and traffic schedule
//!     through a fault-injected transport, graceful drain, audit.
//!     Without --scene it runs (and prints) the built-in scene: N
//!     frames each direction, every one of them owed. Exit 0 only when
//!     the scene's expects held, every delivery was in order and
//!     byte-exact, the books balanced and the drain was clean (declared
//!     or not) — the CI daemon gate. Scene `fault` directives describe
//!     the simulated ATM seam and do not apply to the appliance's
//!     datagram transport, which always runs under the smoke fault mix
//!     + ARQ.
//! ```

use atm_fddi_gateway::gateway::GatewayConfig;
use atm_fddi_gateway::phy::{
    udp_cell_pair, udp_frame_pair, Appliance, ApplianceConfig, CellPhy, CongramSpec, DrainReport,
    FramePhy, TransportFaultConfig, UdpCellPhy, UdpFramePhy, WallClock,
};
use atm_fddi_gateway::sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
use atm_fddi_gateway::sar::segment::segment_cells;
use atm_fddi_gateway::scene::{wire_ids, Dir, Scene, ScheduledSend};
use atm_fddi_gateway::scene_run;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::wire::atm::{AtmHeader, Cell, Vci, CELL_SIZE};
use atm_fddi_gateway::wire::crc;
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

#[expect(unsafe_code, reason = "`signal(2)` is a foreign function")]
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
// CLI plumbing.

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

    let cell = match UdpCellPhy::bind(atm_bind, atm_peer) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gwd: ATM port bind {atm_bind} failed: {e}");
            return 2;
        }
    };
    let frame = match UdpFramePhy::bind(fddi_bind, fddi_peer) {
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
    eprintln!("gwd: checksum kernel {}", crc::kernel());
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
// deterministically (the clock is scripted, not read). What runs is a
// `.scene`: the file `--scene` names, or the built-in one `--frames`
// sizes. Wire identifiers follow `gw_scene::wire_ids` and the knobs
// lower through `scene_run` — the same as the testbed, chaos, and bench
// harnesses — so one scene denotes one connection table and one
// gateway configuration on the real appliance too.

/// The scene plain `gwd smoke --frames N` runs, as `gw-scene/1` text:
/// N 600-octet frames ATM→FDDI then N 900-octet frames FDDI→ATM on the
/// first of two congrams (the second is installed and idle), every
/// frame a distinct fill (wrapping past 256 frames), and every one of
/// them owed.
fn builtin_scene(frames: usize) -> String {
    let mut text = String::from(
        "# gw-scene/1\nscene smoke\n\
         congram a station 1 class async\ncongram b station 2 class sync\n",
    );
    for (dir, len, first_fill) in [("atm", 600, 0x40u8), ("fddi", 900, 0xA0)] {
        for i in 0..frames {
            let fill = first_fill.wrapping_add(i as u8);
            text.push_str(&format!("send at_us 0 vc a dir {dir} len {len} fill 0x{fill:02x}\n"));
        }
    }
    text.push_str("expect conservation\nexpect residue_clean\nexpect delivered_all\n");
    text
}

fn smoke(args: &[String]) -> i32 {
    eprintln!("gwd smoke: checksum kernel {}", crc::kernel());
    let snapshot_path = arg_value(args, "--snapshot");
    let scene = match arg_value(args, "--scene") {
        Some(path) => match scene_run::load(&path) {
            Some(scene) => scene,
            None => return 2,
        },
        None => {
            let text = builtin_scene(parse_flag(args, "--frames", 8));
            eprint!("{text}");
            // The one warning it draws (congram `b` is idle) is by
            // design; only a scene too large to parse is an error.
            match atm_fddi_gateway::scene::parse(&text) {
                (Some(scene), _) => scene,
                (None, diags) => {
                    for d in &diags {
                        eprintln!("gwd smoke: --frames: {}", d.render());
                    }
                    return 2;
                }
            }
        }
    };

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
        scene_run::gateway_config(&scene),
        100_000_000,
        Box::new(cell_gw),
        Box::new(frame_gw),
    );

    let table = ApplianceConfig {
        congrams: (scene.congrams.iter().enumerate())
            .map(|(i, c)| {
                let (vci, atm_icn, fddi_icn) = wire_ids(i);
                CongramSpec { vci, atm_icn, fddi_icn, station: c.station, synchronous: c.sync }
            })
            .collect(),
    };
    let installed = app.apply_config(&table);
    if installed != scene.congrams.len() {
        eprintln!("gwd smoke: installed {installed}/{} scene congrams", scene.congrams.len());
        return 2;
    }
    for (i, c) in scene.congrams.iter().enumerate() {
        if let Some(p) = &c.police {
            app.gateway_mut().install_rate_control(Vci(wire_ids(i).0), scene_run::policer(p));
        }
    }

    let mut now = SimTime::ZERO;
    let slice = atm_fddi_gateway::testbed::SLICE;
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
    for s in &plan {
        let at = SimTime::from_ns(s.at_ns);
        while now < at {
            now += slice;
            step(&mut app, now, &mut cell_line, &mut frame_line);
        }
        let (vci, atm_icn, fddi_icn) = wire_ids(s.congram);
        let payload = vec![s.fill; s.len as usize];
        match s.dir {
            Dir::Atm => {
                let mchip = build_data_frame(Icn(atm_icn), &payload).expect("payload fits");
                let mut header = AtmHeader::data(Default::default(), Vci(vci));
                header.clp = s.clp;
                for cell in segment_cells(&header, &mchip, false).expect("frame fits") {
                    cell_line.send_cell(now, &cell.into_inner()).expect("line cell send");
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
                    src: FddiAddr::station(scene.congrams[s.congram].station),
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

    // Let timers and the ARQ settle, then drain gracefully (the line
    // side keeps pumping and acking throughout).
    for draining in [false, true] {
        if draining {
            app.begin_drain();
        }
        for _ in 0..4000 {
            now += slice;
            step(&mut app, now, &mut cell_line, &mut frame_line);
            if app.is_quiescent() && cell_line.in_flight() == 0 && frame_line.in_flight() == 0 {
                break;
            }
        }
    }
    let report = app.drain(now, SimTime::from_ms(1));

    // What reached each far side, as MCHIP data payloads.
    let mut to_fddi: Vec<Vec<u8>> = Vec::new();
    for (_, bytes, _) in &frames_from_gw {
        let frame = Frame::new_unchecked(bytes);
        let Ok(encap) = fddi::strip_llc_snap(frame.info()) else { continue };
        let Ok((header, payload)) = parse_frame(encap) else { continue };
        if header.mtype == MchipType::Data {
            to_fddi.push(payload.to_vec());
        }
    }
    let mut to_atm: Vec<Vec<u8>> = Vec::new();
    let mut reasm = Reassembler::new(ReassemblyConfig::default());
    for i in 0..scene.congrams.len() {
        reasm.open_vc(Vci(wire_ids(i).0));
    }
    for (t, cell) in &cells_from_gw {
        let Ok(view) = Cell::new_checked(&cell[..]) else { continue };
        if let ReassemblyEvent::Complete(frame) = reasm.push(*t, view.header().vci, view.payload())
        {
            reasm.release(view.header().vci);
            let Ok((header, payload)) = parse_frame(&frame.data) else { continue };
            if header.mtype == MchipType::Data {
                to_atm.push(payload.to_vec());
            }
        }
    }

    let failures = verdict(&scene, &plan, &to_fddi, &to_atm, &report);
    for f in &failures {
        eprintln!("gwd smoke: FAIL: {f}");
    }
    // Both ends of both links: the line side's data and acks too.
    let mut t = app.transport_stats();
    t.merge(&cell_line.stats());
    t.merge(&frame_line.stats());
    eprintln!(
        "gwd smoke: scene `{}`: {}/{} frames delivered, drain {}, transport tx {} rx {} retx {} \
         acks_tx {} acks_carried {} (injected drop {} dup {} trunc {})",
        scene.name,
        to_fddi.len() + to_atm.len(),
        plan.len(),
        if report.clean() { "clean" } else { "DIRTY" },
        t.datagrams_tx,
        t.datagrams_rx,
        t.retransmits,
        t.acks_tx,
        t.acks_carried,
        t.faults_dropped,
        t.faults_duplicated,
        t.faults_truncated
    );
    write_snapshot(&mut app, report.end, snapshot_path.as_deref());
    if failures.is_empty() {
        0
    } else {
        1
    }
}

/// Everything that fails a smoke run. Conservation and a clean drain
/// are the harness's own gate, failed whether or not the scene declares
/// them — so `judge` is told they held and rules on the delivery
/// expects only. The ARQ owes exactly-once in-order delivery, so each
/// direction is held to the in-order byte-exact oracle.
fn verdict(
    scene: &Scene,
    plan: &[ScheduledSend],
    to_fddi: &[Vec<u8>],
    to_atm: &[Vec<u8>],
    drain: &DrainReport,
) -> Vec<String> {
    let mut failures = Vec::new();
    failures.extend(scene_run::audit_in_order(plan, Dir::Atm, to_fddi.iter().map(Vec::as_slice)));
    failures.extend(scene_run::audit_in_order(plan, Dir::Fddi, to_atm.iter().map(Vec::as_slice)));
    failures.extend(scene_run::judge(scene, plan.len(), to_fddi.len() + to_atm.len(), &[], true));
    if !drain.clean() {
        failures.push(format!(
            "drain DIRTY: residue {:?}, {} in flight",
            drain.residue, drain.in_flight
        ));
        failures.extend(drain.violations.iter().cloned());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(frames: usize) -> Scene {
        let text = builtin_scene(frames);
        let scene = atm_fddi_gateway::scene::parse(&text).0.expect("built-in scene parses");
        assert_eq!(atm_fddi_gateway::scene::format_scene(&scene), text, "printed canonically");
        scene
    }

    fn clean_drain() -> DrainReport {
        DrainReport {
            end: SimTime::ZERO,
            residue: Default::default(),
            violations: Vec::new(),
            in_flight: 0,
        }
    }

    /// A dirty drain fails the run even when the scene declares neither
    /// `expect conservation` nor `expect residue_clean`.
    #[test]
    fn dirty_drain_fails_a_scene_that_declares_no_expects() {
        let scene = Scene { expects: Vec::new(), ..parsed(1) };
        let plan = scene.schedule();
        let (to_fddi, to_atm) = (vec![vec![0x40; 600]], vec![vec![0xA0; 900]]);
        let mut drain = clean_drain();
        assert_eq!(verdict(&scene, &plan, &to_fddi, &to_atm, &drain), Vec::<String>::new());
        drain.in_flight = 1;
        assert_eq!(verdict(&scene, &plan, &to_fddi, &to_atm, &drain).len(), 1);
        drain.violations.push("C1 unbalanced".to_string());
        assert_eq!(verdict(&scene, &plan, &to_fddi, &to_atm, &drain).len(), 2);
    }

    #[test]
    fn builtin_scene_wraps_its_fills_and_owes_every_frame() {
        let plan = parsed(300).schedule();
        assert_eq!(plan.len(), 600);
        assert_eq!((plan[0].fill, plan[191].fill, plan[192].fill), (0x40, 0xff, 0x00));
        assert_eq!((plan[300].fill, plan[300 + 96].fill), (0xA0, 0x00));
        let one = parsed(1);
        let lost = verdict(&one, &one.schedule(), &[vec![0x40; 600]], &[], &clean_drain());
        assert_eq!(lost.len(), 1, "delivered_all: {lost:?}");
    }
}
