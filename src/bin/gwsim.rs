//! `gwsim` — command-line driver for the ATM-FDDI gateway simulation.
//!
//! ```text
//! gwsim info                         network/gateway parameter summary
//! gwsim throughput [--ms N]          drive both directions near line rate
//! gwsim latency                      per-stage critical-path latencies
//! gwsim loss [--drop P] [--ms N]     cell-loss study through the testbed
//! gwsim setup                        congram signaling lifecycle
//! gwsim transit                      two-gateway, three-network demo
//! ```

use atm_fddi_gateway::gateway::gateway::Output;
use atm_fddi_gateway::gateway::Gateway;
use atm_fddi_gateway::gateway::GatewayConfig;
use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
use atm_fddi_gateway::mchip::messages::ControlPayload;
use atm_fddi_gateway::sim::fault::FaultConfig;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};
use atm_fddi_gateway::transit::TransitTestbed;
use atm_fddi_gateway::wire::atm::{AtmHeader, Vci, CELL_SIZE};
use atm_fddi_gateway::wire::fddi::{self, FddiAddr, FrameControl, FrameRepr};
use atm_fddi_gateway::wire::mchip::{build_data_frame, Icn};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Parse a flag's value, defaulting only when the flag is absent; a
/// present-but-unparseable value is an error, not a silent default.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {flag}: {v:?}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "info" => info(),
        "throughput" => throughput(parse_flag(&args, "--ms", 100)),
        "latency" => latency(),
        "loss" => loss(parse_flag(&args, "--drop", 0.01), parse_flag(&args, "--ms", 500)),
        "setup" => setup(),
        "transit" => transit(),
        _ => {
            eprintln!(
                "usage: gwsim <info|throughput|latency|loss|setup|transit> [--ms N] [--drop P]"
            );
            std::process::exit(2);
        }
    }
}

fn info() {
    let cfg = GatewayConfig::default();
    println!("ATM-FDDI gateway (Kapoor & Parulkar, SIGCOMM '91) — simulation parameters");
    println!("  gateway clock:        25 MHz (40 ns cycle)");
    println!("  ATM link rate:        {} b/s", atm_fddi_gateway::atm::DEFAULT_LINK_RATE);
    println!("  FDDI line rate:       {} b/s", atm_fddi_gateway::fddi::FDDI_BIT_RATE);
    println!("  cell:                 53 octets (5 header + 48 info)");
    println!("  SAR payload/cell:     45 octets (3-octet SAR header)");
    println!(
        "  max congrams (N):     {} -> ICXT {} octets/direction",
        cfg.max_congrams,
        cfg.icxt_octets()
    );
    println!(
        "  reassembly buffers:   {} x {} cells per VC",
        cfg.reassembly_buffers_per_vc, cfg.reassembly_buffer_cells
    );
    println!("  tx / rx buffer:       {} / {} octets", cfg.tx_buffer_octets, cfg.rx_buffer_octets);
    println!("  NPE control latency:  {}", cfg.npe_control_latency);
    println!("  SPP delays:           10 cy decode + 45 cy write; frag 48 cy/cell");
    println!("  MPP delays:           15 cy data (600 ns), 2 cy control (80 ns)");
}

fn throughput(ms: u64) {
    println!("driving both directions for {ms} simulated ms…");
    let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 100_000_000);
    gw.install_congram(Vci(100), Icn(1), Icn(2), FddiAddr::station(5), false);
    // ATM->FDDI.
    let payload = vec![0xABu8; 4080];
    let mchip = build_data_frame(Icn(1), &payload).unwrap();
    let cells: Vec<[u8; CELL_SIZE]> = atm_fddi_gateway::sar::segment::segment_cells(
        &AtmHeader::data(Default::default(), Vci(100)),
        &mchip,
        false,
    )
    .unwrap()
    .into_iter()
    .map(|c| {
        let mut b = [0u8; CELL_SIZE];
        b.copy_from_slice(c.as_bytes());
        b
    })
    .collect();
    let horizon = SimTime::from_ms(ms);
    let cell_gap = SimTime::from_ns(3600);
    let mut t = SimTime::ZERO;
    let mut up_frames = 0u64;
    let mut out = Vec::new();
    while t < horizon {
        for c in &cells {
            gw.deliver_cells(t, std::slice::from_ref(c), &mut out);
            t += cell_gap;
        }
        out.clear();
        while gw.pop_fddi_tx(t).is_some() {
            up_frames += 1;
        }
    }
    let up_bps = up_frames as f64 * payload.len() as f64 * 8.0 / t.as_secs_f64();
    // FDDI->ATM.
    let mchip_b = build_data_frame(Icn(2), &payload).unwrap();
    let mut info = fddi::llc_snap_header().to_vec();
    info.extend_from_slice(&mchip_b);
    let frame = FrameRepr {
        fc: FrameControl::LlcAsync { priority: 0 },
        dst: FddiAddr::station(0),
        src: FddiAddr::station(3),
        info,
    }
    .emit()
    .unwrap();
    let frame_gap = SimTime::from_ns((frame.len() as u64 + 10) * 80);
    let mut t2 = SimTime::ZERO;
    let mut cells_out = 0u64;
    while t2 < horizon {
        for o in gw.fddi_frame_in(t2, &frame) {
            if matches!(o, Output::AtmCell { .. }) {
                cells_out += 1;
            }
        }
        t2 += frame_gap;
    }
    let down_bps = cells_out as f64 * 45.0 * 8.0 / t2.as_secs_f64();
    println!("  ATM -> FDDI: {:.2} Mb/s goodput ({up_frames} frames)", up_bps / 1e6);
    println!("  FDDI -> ATM: {:.2} Mb/s SAR payload ({cells_out} cells)", down_bps / 1e6);
    println!(
        "  drops: tx_overflow={} reassembly={:?}",
        gw.stats().tx_overflow_drops,
        gw.spp().reassembly_stats().frames_discarded
    );
}

fn latency() {
    let mut tb = Testbed::build(TestbedConfig::default());
    let c = tb.install_data_congram(1);
    for i in 0..50u8 {
        tb.send_from_atm_host_at(SimTime::from_ms(i as u64), c, vec![i; 450]);
        tb.send_from_fddi_station(1, c, vec![i; 450]);
    }
    tb.run_until(SimTime::from_ms(120));
    let s = tb.gw.stats();
    println!("gateway critical-path latencies (measured, 40 ns resolution):");
    println!(
        "  ATM -> FDDI frame: mean {:>8.0} ns   p99 {:>8} ns   max {:>8} ns",
        s.atm_to_fddi_ns.mean(),
        s.atm_to_fddi_ns.quantile(0.99),
        s.atm_to_fddi_ns.max()
    );
    println!(
        "  FDDI -> ATM frame: mean {:>8.0} ns   p99 {:>8} ns   max {:>8} ns",
        s.fddi_to_atm_ns.mean(),
        s.fddi_to_atm_ns.quantile(0.99),
        s.fddi_to_atm_ns.max()
    );
    println!("  forward path (MPP+DMA, excl. reassembly): mean {:.0} ns", s.forward_path_ns.mean());
    println!("  static stage costs: SPP 10+45 cy/cell, MPP 15 cy/frame, per §5.5/§6.3");
}

fn loss(p: f64, ms: u64) {
    println!("cell drop probability {p}, horizon {ms} ms…");
    let cfg = TestbedConfig { atm_faults: FaultConfig::drops(p), ..Default::default() };
    let mut tb = Testbed::build(cfg);
    let c = tb.install_data_congram(1);
    let frames = (ms / 2) as usize;
    for i in 0..frames {
        tb.send_from_atm_host_at(SimTime::from_ms(i as u64 * 2), c, vec![(i % 251) as u8; 900]);
    }
    tb.run_until(SimTime::from_ms(ms + 100));
    let delivered = tb.fddi_rx(1).len();
    let stats = tb.gw.spp().reassembly_stats();
    let analytic = 1.0 - (1.0 - p).powi(21);
    println!("  frames: {frames} sent, {delivered} delivered ({} lost)", frames - delivered);
    println!(
        "  frame loss: measured {:.2}%, analytic 1-(1-p)^21 = {:.2}%",
        (frames - delivered) as f64 / frames as f64 * 100.0,
        analytic * 100.0
    );
    println!(
        "  SPP: {} seq errors, {} discarded, {} timer flushes (all per §5.2 policy)",
        stats.seq_errors, stats.frames_discarded, stats.timeouts
    );
}

fn setup() {
    let mut tb = Testbed::build(TestbedConfig::default());
    tb.gw.npe_mut().add_host([9; 8], FddiAddr::station(2));
    println!("sending SETUP for a 10 Mb/s UCon…");
    tb.send_control_from_atm_host(&ControlPayload::SetupRequest {
        congram: CongramId(1),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(10_000_000),
        dest: [9; 8],
    });
    tb.run_until(SimTime::from_ms(20));
    for c in &tb.atm_host_control_rx {
        println!("  <- {c:?}");
    }
    println!(
        "resource manager: {} b/s committed of {} capacity",
        tb.gw.npe().resource_manager().committed_bps(),
        tb.gw.npe().resource_manager().capacity_bps()
    );
    println!("ICXT entries installed: {:?}", tb.gw.mpp().installed());
}

fn transit() {
    let mut tt = TransitTestbed::new();
    let c = tt.install_transit_congram();
    println!("transit congram: {} -> {} -> {}", c.icn_a, c.icn_ring, c.icn_b);
    for i in 0..20u8 {
        tt.send_from_a(c, vec![i; 800]);
        tt.run_until(tt.now() + SimTime::from_ms(1));
    }
    tt.run_until(tt.now() + SimTime::from_ms(100));
    println!(
        "host B received {} frames through two gateways and three networks",
        tt.host_b_rx.len()
    );
    println!(
        "GW-A translated {} frames up; GW-B translated {} frames down",
        tt.gw_a.mpp().stats().data_up,
        tt.gw_b.mpp().stats().data_down
    );
}
