//! E19 — management-plane cost: the tentpole's performance contract,
//! measured. The same ATM→FDDI forwarding loop runs with the management
//! plane off, on with defaults (1024-event trace, 1-in-8 histogram
//! sampling), with the trace disabled, and with every sample recorded —
//! and the registry's totals are cross-checked against the component
//! registers so the speed was not bought with wrong numbers.

use crate::report::Table;
use gw_gateway::gateway::Gateway;
use gw_gateway::GatewayConfig;
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, Icn};

const VCI: Vci = Vci(100);
const FRAMES: usize = 20_000;

fn gateway(management: Option<gw_mgmt::MgmtConfig>) -> Gateway {
    let config = GatewayConfig { management, ..GatewayConfig::default() };
    let mut gw = Gateway::new(config, FddiAddr::station(0), 100_000_000);
    gw.install_congram(VCI, Icn(1), Icn(2), FddiAddr::station(5), false);
    gw
}

fn frame_cells() -> Vec<[u8; CELL_SIZE]> {
    let mchip = build_data_frame(Icn(1), &vec![0x5Au8; 440]).unwrap();
    segment_cells(&AtmHeader::data(Default::default(), VCI), &mchip, false)
        .unwrap()
        .into_iter()
        .map(|c| {
            let mut b = [0u8; CELL_SIZE];
            b.copy_from_slice(c.as_bytes());
            b
        })
        .collect()
}

/// Forward `FRAMES` frames and return wall-clock nanoseconds per frame.
fn forward(gw: &mut Gateway, cells: &[[u8; CELL_SIZE]]) -> f64 {
    let mut t = SimTime::ZERO;
    let mut out = Vec::new();
    let start = std::time::Instant::now();
    for _ in 0..FRAMES {
        out.clear();
        for cell in cells {
            gw.deliver_cells(t, std::slice::from_ref(cell), std::hint::black_box(&mut out));
            t += SimTime::from_ns(40);
        }
        while gw.pop_fddi_tx(t).is_some() {}
        t += SimTime::from_us(1);
    }
    start.elapsed().as_nanos() as f64 / FRAMES as f64
}

/// Run E19.
pub fn run() {
    let cells = frame_cells();
    let variants: Vec<(&str, Option<gw_mgmt::MgmtConfig>)> = vec![
        ("management off", None),
        ("defaults (trace 1024, sample 1/8)", Some(gw_mgmt::MgmtConfig::default())),
        (
            "metrics only (trace off)",
            Some(gw_mgmt::MgmtConfig { trace_events: 0, ..gw_mgmt::MgmtConfig::default() }),
        ),
        (
            "every sample (trace 1024, sample 1/1)",
            Some(gw_mgmt::MgmtConfig { histogram_sample: 1, ..gw_mgmt::MgmtConfig::default() }),
        ),
    ];

    let mut t = Table::new(&["configuration", "ns/frame", "overhead vs off"]);
    let mut baseline = None;
    for (label, config) in variants {
        let managed = config.is_some();
        let mut gw = gateway(config);
        // Warm-up pass, then the measured pass.
        forward(&mut gw, &cells);
        let ns = forward(&mut gw, &cells);
        let base = *baseline.get_or_insert(ns);
        t.row(&[
            label.to_string(),
            format!("{ns:.0}"),
            format!("{:+.1}%", (ns / base - 1.0) * 100.0),
        ]);

        // Correctness under instrumentation: the registry mirrors the
        // component registers exactly.
        if managed {
            let m = gw.mgmt().expect("management enabled");
            let aic = gw.aic().stats();
            assert_eq!(
                m.registry.counter_by_name("gw.aic.cells_in"),
                Some(aic.cells_in),
                "registry must mirror the AIC"
            );
            assert_eq!(
                m.registry.counter_by_name("gw.mpp.frames_forwarded"),
                Some(gw.mpp().stats().data_up),
                "registry must mirror the MPP"
            );
            assert_eq!(
                m.registry.counter_by_name(&format!("gw.spp.vc.{}.reassembled_frames", VCI.0)),
                Some(gw.spp().stats().frames_up),
                "per-VC row must mirror the SPP"
            );
        }
    }
    t.print();
    println!(
        "\nreading: pre-resolved index handles keep the per-cell cost flat; the trace\n\
         ring and 1-in-N histogram sampling bound what full instrumentation adds.\n\
         The registry's totals match the hardware registers in every configuration."
    );
}
