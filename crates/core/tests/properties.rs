//! Property tests for the gateway: payload integrity and loss-free
//! forwarding under arbitrary frame sizes, interleavings, and timing.

use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::GatewayConfig;
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::{self, FddiAddr, Frame, FrameControl, FrameRepr};
use gw_wire::mchip::{build_data_frame, parse_frame, Icn};
use proptest::prelude::*;

fn gateway(vcs: usize) -> Gateway {
    let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 100_000_000);
    for k in 0..vcs {
        gw.install_congram(
            Vci(100 + k as u16),
            Icn(1 + k as u16),
            Icn(200 + k as u16),
            FddiAddr::station(1 + k as u32),
            false,
        );
    }
    gw
}

fn cells_for(vci: Vci, icn: Icn, payload: &[u8]) -> Vec<[u8; CELL_SIZE]> {
    let mchip = build_data_frame(icn, payload).unwrap();
    segment_cells(&AtmHeader::data(Default::default(), vci), &mchip, false)
        .unwrap()
        .into_iter()
        .map(|c| c.into_inner())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of frames on one congram crosses ATM->FDDI intact
    /// and in order, whatever the sizes and cell spacing.
    #[test]
    fn atm_to_fddi_integrity(
        sizes in proptest::collection::vec(1usize..3000, 1..12),
        gap_us in 3u64..40,
    ) {
        let mut gw = gateway(1);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..size).map(|b| (b ^ i) as u8).collect();
            for cell in cells_for(Vci(100), Icn(1), &payload) {
                gw.deliver_cells(t, &[cell], &mut out);
                t += SimTime::from_ns(gap_us * 1000);
            }
        }
        let mut got = Vec::new();
        while let Some((frame, _)) = gw.pop_fddi_tx(t) {
            let f = Frame::new_checked(&frame[..]).expect("valid FDDI frame");
            let mchip = fddi::strip_llc_snap(f.info()).unwrap();
            let (h, p) = parse_frame(mchip).unwrap();
            prop_assert_eq!(h.icn, Icn(200));
            got.push(p.to_vec());
        }
        prop_assert_eq!(got.len(), sizes.len());
        for (i, (&size, frame)) in sizes.iter().zip(&got).enumerate() {
            prop_assert_eq!(frame.len(), size);
            let expect: Vec<u8> = (0..size).map(|b| (b ^ i) as u8).collect();
            prop_assert_eq!(frame, &expect, "frame {}", i);
        }
    }

    /// Cells of many congrams arbitrarily interleaved never cross wires:
    /// every frame lands on its own congram's FDDI destination.
    #[test]
    fn congrams_never_leak(
        nvcs in 2usize..6,
        order in proptest::collection::vec(0usize..6, 1..30),
    ) {
        let mut gw = gateway(nvcs);
        // One frame per congram, cells released in a proptest-chosen
        // round-robin-ish order.
        let streams: Vec<Vec<[u8; CELL_SIZE]>> = (0..nvcs)
            .map(|k| cells_for(Vci(100 + k as u16), Icn(1 + k as u16), &vec![k as u8; 450]))
            .collect();
        let mut cursors = vec![0usize; nvcs];
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        // Interleave by the random schedule, then drain remainders.
        for &pick in &order {
            let k = pick % nvcs;
            if cursors[k] < streams[k].len() {
                gw.deliver_cells(t, std::slice::from_ref(&streams[k][cursors[k]]), &mut out);
                cursors[k] += 1;
                t += SimTime::from_us(3);
            }
        }
        for k in 0..nvcs {
            while cursors[k] < streams[k].len() {
                gw.deliver_cells(t, std::slice::from_ref(&streams[k][cursors[k]]), &mut out);
                cursors[k] += 1;
                t += SimTime::from_us(3);
            }
        }
        let mut per_dst = std::collections::HashMap::new();
        while let Some((frame, _)) = gw.pop_fddi_tx(t) {
            let f = Frame::new_checked(&frame[..]).unwrap();
            let mchip = fddi::strip_llc_snap(f.info()).unwrap();
            let (_, p) = parse_frame(mchip).unwrap();
            per_dst.insert(f.dst(), p.to_vec());
        }
        prop_assert_eq!(per_dst.len(), nvcs);
        for k in 0..nvcs {
            let frame = &per_dst[&FddiAddr::station(1 + k as u32)];
            prop_assert!(frame.iter().all(|&b| b == k as u8), "congram {} leaked", k);
        }
    }

    /// FDDI->ATM: any frame fragments into cells that reassemble to the
    /// translated frame, bit for bit.
    #[test]
    fn fddi_to_atm_integrity(
        size in 1usize..4000,
        seed in any::<u8>(),
    ) {
        let mut gw = gateway(1);
        let payload: Vec<u8> = (0..size).map(|b| (b as u8).wrapping_mul(31).wrapping_add(seed)).collect();
        let mchip = build_data_frame(Icn(200), &payload).unwrap();
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
        let outputs = gw.fddi_frame_in(SimTime::ZERO, &frame);
        let mut reasm = Vec::new();
        for o in &outputs {
            if let Output::AtmCell { cell, .. } = o {
                let view = gw_wire::atm::Cell::new_checked(&cell[..]).expect("HEC");
                prop_assert_eq!(view.header().vci, Vci(100));
                let mut inf = [0u8; 48];
                inf.copy_from_slice(view.payload());
                let sar = gw_wire::sar::SarCell::new_checked(inf).expect("CRC-10");
                reasm.extend_from_slice(sar.payload());
            }
        }
        let (h, p) = parse_frame(&reasm).unwrap();
        prop_assert_eq!(h.icn, Icn(1), "translated back to the ATM-side ICN");
        prop_assert_eq!(p, &payload[..]);
    }
}
