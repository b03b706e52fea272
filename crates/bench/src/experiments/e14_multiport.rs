//! E14 — §7: "Work is also in progress in scaling the architecture of
//! the gateway to support multiple ports." The multi-port gateway
//! replicates the critical path per port (its pipelines are independent
//! silicon); aggregate throughput should scale near-linearly with port
//! count while per-port latency stays flat.

use crate::report::{fmt_bps, Table};
use gw_gateway::multiport::{MultiRoute, MultiportGateway};
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, Icn};

fn drive(ports: usize, frames_per_port: usize) -> (f64, u64) {
    let mut gw = MultiportGateway::new(ports, ports, 256);
    for p in 0..ports {
        gw.install_up(
            p,
            Vci(1),
            Icn(p as u16),
            MultiRoute {
                out_icn: Icn(128 + p as u16),
                fddi_dst: FddiAddr::station(1),
                atm_header: AtmHeader::default(),
                egress_port: p,
            },
        )
        .unwrap();
    }
    // Pre-build each port's cell stream (4080-octet frames, 91 cells).
    let streams: Vec<Vec<[u8; CELL_SIZE]>> = (0..ports)
        .map(|p| {
            let mchip = build_data_frame(Icn(p as u16), &vec![p as u8; 4080]).unwrap();
            segment_cells(&AtmHeader::data(Default::default(), Vci(1)), &mchip, false)
                .unwrap()
                .into_iter()
                .map(|c| c.into_inner())
                .collect()
        })
        .collect();
    // Offer cells at 100 Mb/s of SAR payload per port (3.6 us/cell).
    let cell_ns = 3600u64;
    let mut t_end = SimTime::ZERO;
    for f in 0..frames_per_port {
        for (p, cells) in streams.iter().enumerate() {
            let mut t = SimTime::from_ns((f * cells.len()) as u64 * cell_ns);
            for cell in cells {
                gw.cell_in(p, t, cell);
                t += SimTime::from_ns(cell_ns);
            }
            if t > t_end {
                t_end = t;
            }
        }
        for p in 0..ports {
            while gw.pop_fddi_tx(p, t_end).is_some() {}
        }
    }
    let octets = gw.total_fddi_octets_out();
    let bps = octets as f64 * 8.0 / t_end.as_secs_f64();
    (bps, octets)
}

/// Run E14.
pub fn run() {
    let frames = 200usize;
    let mut t =
        Table::new(&["ports", "offered per port", "aggregate goodput", "scaling vs 1 port"]);
    let (base_bps, _) = drive(1, frames);
    for &ports in &[1usize, 2, 4, 8] {
        let (bps, _) = drive(ports, frames);
        t.row(&[
            ports.to_string(),
            "100 Mb/s SAR payload".into(),
            fmt_bps(bps),
            format!("{:.2}x", bps / base_bps),
        ]);
        let scale = bps / base_bps;
        assert!(scale > 0.9 * ports as f64, "{ports} ports scaled only {scale:.2}x");
    }
    t.print();
    println!("\nreading: per-port pipelines are independent hardware, so aggregate");
    println!("throughput scales linearly — the structural consequence of putting the");
    println!("critical path in replicated hardware and keeping one software NPE (§7).");
}
