//! The cell path's oracle: every observable of one workload — the
//! `Output` sequence, the popped FDDI frames and the rendered
//! `gw-snapshot/1` document — is pinned to digests recorded before
//! `classify → ingest → merge` were fused into one `cell_in`, and one
//! `deliver_cells` call over a batch is indistinguishable from one call
//! per cell.
//!
//! The workload deliberately crosses every ATM→FDDI disposition the
//! cell path can take: completions across 16 interleaved VCs, policing,
//! HEC corruption, an unknown VC, a duplicated cell (misinsertion
//! signature), a lost cell (sequence error), and a timer-flushed
//! partial frame.

use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::GatewayConfig;
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, Icn};

const VCS: u16 = 16;
const BASE_VCI: u16 = 100;

/// `(byte length, FNV-1a 64)` of the outputs, the frames and the
/// rendered snapshot of `drive(32, false)`, recorded at the last commit that
/// still had the three-stage cell path (ad5b255). A behaviour-preserving
/// refactor never needs to touch it.
const GOLDEN: [(usize, u64); 3] =
    [(5347, 11327591852494472198), (23871, 8265902546374129377), (11819, 8728789097137367898)];

fn digest(bytes: &[u8]) -> (usize, u64) {
    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (bytes.len(), fnv)
}

fn cells_for(vci: Vci, payload: &[u8]) -> Vec<[u8; CELL_SIZE]> {
    let mchip = build_data_frame(Icn(10 + (vci.0 - BASE_VCI)), payload).unwrap();
    segment_cells(&AtmHeader::data(Default::default(), vci), &mchip, false)
        .unwrap()
        .into_iter()
        .map(|c| c.into_inner())
        .collect()
}

fn workload() -> Vec<[u8; CELL_SIZE]> {
    let mut schedule = Vec::new();
    for round in 0..6u16 {
        let frames: Vec<Vec<[u8; CELL_SIZE]>> = (0..VCS)
            .map(|v| {
                let len = 40 + ((round as usize * 97 + v as usize * 31) % 400);
                let payload: Vec<u8> = (0..len).map(|i| (i as u8) ^ (v as u8)).collect();
                let mut cells = cells_for(Vci(BASE_VCI + v), &payload);
                match (round, v) {
                    // A replayed cell: a backward sequence jump, then
                    // the stream resumes where it was (the misinsertion
                    // signature).
                    (3, 9) => cells.insert(3, cells[1]),
                    // A lost cell: a forward sequence jump.
                    (3, 7) => drop(cells.remove(1)),
                    _ => {}
                }
                cells
            })
            .collect();
        // One frame per VC in flight, interleaved round-robin so
        // consecutive cells belong to different VCs.
        let longest = frames.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            schedule.extend(frames.iter().filter_map(|f| f.get(i)));
        }
    }
    // Spliced mid-stream: a cell on an unknown VC,
    let mid = schedule.len() / 2;
    let stray = cells_for(Vci(999), b"stray frame on an unprogrammed vc");
    schedule.insert(mid + 7, stray[0]);
    // and a copy of a good cell with its header corrupted past what
    // the HEC can vouch for.
    let mut bad = schedule[mid + 11];
    bad[0] ^= 0xFF;
    bad[4] ^= 0x55;
    schedule.insert(mid + 12, bad);
    // Last, a partial frame that only the reassembly timer terminates.
    let tail = cells_for(Vci(BASE_VCI), b"this frame never finishes and must be timer-flushed");
    schedule.extend_from_slice(&tail[..tail.len() - 1]);
    schedule
}

/// Everything a harness can observe of one run.
#[derive(Debug, PartialEq)]
struct Observed {
    outputs: Vec<Output>,
    frames: Vec<Vec<u8>>,
    snapshot: String,
}

/// Deliver the workload `batch` cells per 50 µs slice — each slice as
/// one `deliver_cells` call, or `per_cell` as one call per cell at the
/// same instant — then run the reassembly timer out and drain.
fn drive(batch: usize, per_cell: bool) -> Observed {
    // Management on so the snapshot carries registry rows, lineage
    // counters, and trace totals — all of which must also match.
    let config = GatewayConfig {
        management: Some(gw_mgmt::MgmtConfig::default()),
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(config, FddiAddr::station(0), 80_000_000);
    for v in 0..VCS {
        let vci = Vci(BASE_VCI + v);
        gw.install_congram(vci, Icn(10 + v), Icn(40 + v), FddiAddr::station(7), v % 3 == 0);
    }
    // A tight policer on one VC so some of its cells are shed.
    gw.install_rate_control(
        Vci(BASE_VCI + 2),
        gw_atm::policing::Gcra::new(
            gw_atm::policing::GcraParams::peak_rate(40_000, SimTime::from_us(5)),
            gw_atm::policing::PolicingAction::Drop,
        ),
    );

    let mut outputs = Vec::new();
    let mut frames = Vec::new();
    let mut t = SimTime::ZERO;
    for slice in workload().chunks(batch) {
        if per_cell {
            for cell in slice {
                gw.deliver_cells(t, std::slice::from_ref(cell), &mut outputs);
            }
        } else {
            gw.deliver_cells(t, slice, &mut outputs);
        }
        t += SimTime::from_us(50);
        gw.advance_into(t, &mut outputs);
        while let Some((frame, _)) = gw.pop_fddi_tx(t) {
            frames.push(frame.clone());
            gw.recycle_frame(frame);
        }
    }
    // Run the reassembly timer well past the flush deadline.
    let end = t + SimTime::from_ms(500);
    gw.advance_into(end, &mut outputs);
    while let Some((frame, _)) = gw.pop_fddi_tx(end) {
        frames.push(frame.clone());
        gw.recycle_frame(frame);
    }
    let violations = gw.check_conservation();
    assert!(violations.is_empty(), "books balance: {violations:?}");
    let residue = gw.residue();
    assert!(residue.is_clean(), "drained gateway holds nothing: {residue:?}");
    // The workload crossed every disposition it claims to.
    let (sar, cons) = (gw.sar_reassembly_stats(), gw.conservation());
    assert!(cons.atm_frames_forwarded >= 64, "completions: {cons:?}");
    assert!(cons.policed_cells > 0, "policing: {cons:?}");
    assert_eq!(gw.aic().stats().hec_discards, 1, "HEC corruption");
    assert_eq!(sar.unknown_vc_drops, 1, "unknown VC: {sar:?}");
    assert!(cons.misinserted_frames > 0, "duplicated cell: {cons:?}");
    assert!(sar.frames_discarded > cons.misinserted_frames, "lost cell: {sar:?}");
    assert!(gw.stats().partial_discards > 0, "timer-flushed partial");
    Observed { outputs, frames, snapshot: gw.snapshot(end).render() }
}

#[test]
fn fused_cell_path_reproduces_the_recorded_golden() {
    let seen = drive(32, false);
    assert!(seen.snapshot.contains("gw-snapshot/1"));
    let frames: Vec<u8> = seen
        .frames
        .iter()
        .flat_map(|f| (f.len() as u32).to_be_bytes().into_iter().chain(f.iter().copied()))
        .collect();
    let seen = [
        digest(format!("{:?}", seen.outputs).as_bytes()),
        digest(&frames),
        digest(seen.snapshot.as_bytes()),
    ];
    assert_eq!(seen, GOLDEN, "[outputs, frames, snapshot]");
}

#[test]
fn one_batched_call_equals_one_call_per_cell() {
    // 32-cell slices (the golden's shape) and the whole schedule in a
    // single call.
    for batch in [32, usize::MAX] {
        assert_eq!(drive(batch, false), drive(batch, true), "batch of {batch}");
    }
}
