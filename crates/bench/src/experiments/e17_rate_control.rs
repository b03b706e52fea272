//! E17 — §7: "the present design does not implement any explicit rate
//! or congestion control." This experiment builds that missing piece —
//! GCRA rate control at the gateway's ATM ingress — and shows what it
//! buys: a congram violating its contract can no longer crowd a
//! conforming congram out of the shared transmit buffer.
//!
//! Setup: two congrams share a gateway whose FDDI service is
//! token-gated at ~45 Mb/s (loaded-ring model from E6). The conforming
//! congram offers its contracted 20 Mb/s; the misbehaving one has the
//! same 20 Mb/s contract but offers 90 Mb/s. Without rate control the
//! violator floods the transmit buffer and the conforming congram
//! loses frames; with GCRA policing the violator is clipped to its
//! contract and the conforming congram is untouched.

use crate::report::{fmt_bps, Table};
use gw_atm::policing::{Gcra, GcraParams, PolicingAction};
use gw_gateway::gateway::Gateway;
use gw_gateway::GatewayConfig;
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, Icn};

const GOOD_VCI: Vci = Vci(10);
const BAD_VCI: Vci = Vci(11);
const CONTRACT_BPS: u64 = 20_000_000;

struct Outcome {
    good_delivered: usize,
    bad_delivered: usize,
    good_offered: usize,
    bad_offered: usize,
    tx_drops: u64,
    policed: u64,
}

fn run_case(policed: bool) -> Outcome {
    let mut gw = Gateway::new(
        GatewayConfig { tx_buffer_octets: 32 * 1024, ..Default::default() },
        FddiAddr::station(0),
        100_000_000,
    );
    gw.install_congram(GOOD_VCI, Icn(1), Icn(101), FddiAddr::station(1), false);
    gw.install_congram(BAD_VCI, Icn(2), Icn(102), FddiAddr::station(2), false);
    if policed {
        for vci in [GOOD_VCI, BAD_VCI] {
            // The cell-level contract carries ~10% headroom over the
            // payload rate: SAR padding and the MCHIP header make a
            // 900-octet frame occupy 21 cells (945 SAR-payload octets).
            gw.install_rate_control(
                vci,
                Gcra::new(
                    GcraParams::for_sar_payload_bps(CONTRACT_BPS * 11 / 10, SimTime::from_us(100)),
                    PolicingAction::Drop,
                ),
            );
        }
    }

    // Build per-congram cell schedules for 200 ms.
    let horizon = SimTime::from_ms(200);
    let frame_octets = 900usize; // 21 cells
    let mut events: Vec<(SimTime, [u8; CELL_SIZE])> = Vec::new();
    let mut offered = [0usize; 2];
    for (k, (vci, icn, rate)) in
        [(GOOD_VCI, Icn(1), CONTRACT_BPS), (BAD_VCI, Icn(2), 90_000_000)].iter().enumerate()
    {
        let frame_gap = SimTime::from_ns(frame_octets as u64 * 8 * 1_000_000_000 / rate);
        let cell_gap = SimTime::from_ns(45 * 8 * 1_000_000_000 / rate.max(&1));
        let mut t = SimTime::ZERO;
        while t < horizon {
            let mchip = build_data_frame(*icn, &vec![k as u8; frame_octets]).unwrap();
            let mut ct = t;
            for cell in
                segment_cells(&AtmHeader::data(Default::default(), *vci), &mchip, false).unwrap()
            {
                events.push((ct, cell.into_inner()));
                ct += cell_gap;
            }
            offered[k] += 1;
            t += frame_gap;
        }
    }
    events.sort_by_key(|&(t, _)| t);

    // Token-gated FDDI service at ~45 Mb/s: a visit every 2 ms drains
    // up to 11250 octets.
    let rotation = SimTime::from_ms(2);
    let budget = 11_250usize;
    let mut next_visit = rotation;
    let mut delivered = [0usize; 2];
    let end = horizon + SimTime::from_ms(100);
    let mut idx = 0;
    let mut now = SimTime::ZERO;
    let mut out = Vec::new();
    while now < end {
        let next_cell = events.get(idx).map(|&(t, _)| t).unwrap_or(end);
        if next_cell <= next_visit && idx < events.len() {
            now = next_cell;
            out.clear();
            gw.deliver_cells(now, std::slice::from_ref(&events[idx].1), &mut out);
            idx += 1;
        } else {
            now = next_visit;
            let mut sent = 0usize;
            while sent < budget {
                let Some((frame, _)) = gw.pop_fddi_tx(now) else { break };
                sent += frame.len();
                // Which congram? Look at the FDDI destination.
                let dst = gw_wire::fddi::Frame::new_unchecked(&frame[..]).dst();
                if dst == FddiAddr::station(1) {
                    delivered[0] += 1;
                } else {
                    delivered[1] += 1;
                }
            }
            next_visit += rotation;
        }
    }
    let policed_count = gw.rate_control_counts(BAD_VCI).map(|(_, bad)| bad).unwrap_or(0);
    Outcome {
        good_delivered: delivered[0],
        bad_delivered: delivered[1],
        good_offered: offered[0],
        bad_offered: offered[1],
        tx_drops: gw.tx_buffer_stats().overflow_drops,
        policed: policed_count,
    }
}

/// Run E17.
pub fn run() {
    let mut t = Table::new(&[
        "rate control",
        "conforming congram (20 of 20 Mb/s)",
        "violator (90 of 20 Mb/s)",
        "tx-buffer drops",
        "cells policed",
    ]);
    let span = 0.2;
    for &(policed, name) in
        &[(false, "off (paper's design, §7)"), (true, "GCRA at ingress (extension)")]
    {
        let o = run_case(policed);
        t.row(&[
            name.into(),
            format!(
                "{}/{} frames ({})",
                o.good_delivered,
                o.good_offered,
                fmt_bps(o.good_delivered as f64 * 900.0 * 8.0 / span)
            ),
            format!(
                "{}/{} frames ({})",
                o.bad_delivered,
                o.bad_offered,
                fmt_bps(o.bad_delivered as f64 * 900.0 * 8.0 / span)
            ),
            o.tx_drops.to_string(),
            o.policed.to_string(),
        ]);
        if policed {
            assert_eq!(
                o.good_delivered, o.good_offered,
                "policing must protect the conforming congram"
            );
            assert!(o.policed > 0);
        } else {
            assert!(
                o.good_delivered < o.good_offered,
                "without rate control the violator must do visible damage"
            );
        }
    }
    t.print();
    println!("\nreading: without rate control, both congrams share the transmit");
    println!("buffer's losses no matter who caused the overload — admission control");
    println!("alone (E11) cannot help when an admitted source simply lies. With GCRA");
    println!("at the gateway's ATM ingress, the violator's excess cells are shed and");
    println!("its holed frames die at the SPP's sequence check (§5.2), so the damage");
    println!("lands entirely on the violator while the conforming congram sails");
    println!("through — closing the gap §7 acknowledged.");
}
