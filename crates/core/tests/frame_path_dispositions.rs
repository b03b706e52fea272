//! The frame path's oracle — the FDDI→ATM sibling of
//! `cell_path_dispositions.rs`: every observable of one seeded workload
//! through `Gateway::fddi_frame_in` + `advance_into` — the full
//! `Output` sequence with its `at` times, the frames popped toward the
//! ring and the rendered `gw-snapshot/1` documents — is pinned to
//! digests recorded while segmentation still staged every cell through
//! `segment` → `segment_cells` → `Spp::fragment` → a per-cell copy and
//! HEC re-stamp in the gateway.
//!
//! The workload crosses every disposition the frame path can take: data
//! frames whose MCHIP frame ends before, on and after a 45-octet cell
//! boundary (from header-only to the largest the ring carries) on
//! several congrams, synchronous and asynchronous FC; FCS error;
//! unreadable, truncated and oversized frames; SMT/beacon/claim; token;
//! bad LLC/SNAP; bad MCHIP header; ICN out of range; ICN without an
//! ICXT-A entry; MCHIP control frames to the NPE, one of whose answers
//! leaves toward ATM fragmented with C = 1; a congram the NPE signals
//! for from the FDDI side, used once it is ready; and receive-buffer
//! overflow and shedding on two small gateways.

use gw_gateway::config::ShedConfig;
use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::GatewayConfig;
use gw_mchip::congram::{CongramId, CongramKind, FlowSpec};
use gw_mchip::messages::ControlPayload;
use gw_sar::segment::{cells_for_len, segment_cells};
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::{self, FddiAddr, FrameControl, FrameRepr};
use gw_wire::mchip::{build_data_frame, Icn, MCHIP_HEADER_SIZE};
use gw_wire::sar::SarCell;

const SEED: u64 = 1991;
const CONGRAMS: u16 = 6;
const BASE_VCI: u16 = 100;
const CONTROL_VCI: Vci = Vci(33);
/// Payload sizes: the MCHIP frame (8-octet header + payload) is 8, 9,
/// 45, 52, 53, 54, 90, 98, 469, 1 508, 4 008 and 4 475 octets — the
/// last is the largest an FDDI INFO field holds behind LLC/SNAP.
const PAYLOADS: [usize; 12] = [0, 1, 37, 44, 45, 46, 82, 90, 461, 1500, 4000, 4467];

/// `(byte length, FNV-1a 64)` of `[outputs, frames, snapshots]` for the
/// managed and the unmanaged run, recorded at 66b1e56 — the last commit
/// with the four-stage segmentation. A behaviour-preserving rewrite
/// never needs to touch them. The outputs digest was re-recorded once
/// since, when `Output::AtmConnectionRequest` gained its `attempt`
/// field: its five requests print 12 octets more each (`attempt: N, `),
/// and with that text left out the digest is the one recorded here
/// before. The frames and snapshots did not move.
const GOLDEN_MANAGED: [(usize, u64); 3] =
    [(426611, 8621608342216120790), (136, 3133288946123245689), (21409, 43854984187951824)];
const GOLDEN_UNMANAGED: [(usize, u64); 3] =
    [(426611, 8621608342216120790), (136, 3133288946123245689), (6709, 5128379663898638583)];

fn digest(bytes: &[u8]) -> (usize, u64) {
    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (bytes.len(), fnv)
}

fn fddi_icn(congram: u16) -> Icn {
    Icn(40 + congram)
}

/// An LLC frame from station 7 carrying `mchip` behind LLC/SNAP.
fn llc_frame(fc: FrameControl, mchip: &[u8]) -> Vec<u8> {
    let mut info = fddi::llc_snap_header().to_vec();
    info.extend_from_slice(mchip);
    FrameRepr { fc, dst: FddiAddr::station(0), src: FddiAddr::station(7), info }.emit().unwrap()
}

fn data_frame(rng: &mut SimRng, icn: Icn, fc: FrameControl, payload_octets: usize) -> Vec<u8> {
    let mut payload = vec![0u8; payload_octets];
    rng.fill_bytes(&mut payload);
    llc_frame(fc, &build_data_frame(icn, &payload).unwrap())
}

fn mac_frame(fc: FrameControl) -> Vec<u8> {
    FrameRepr { fc, dst: FddiAddr::BROADCAST, src: FddiAddr::station(3), info: vec![0; 20] }
        .emit()
        .unwrap()
}

fn setup_request(congram: u32, dest: [u8; 8]) -> Vec<u8> {
    ControlPayload::SetupRequest {
        congram: CongramId(congram),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(5_000_000),
        dest,
    }
    .to_frame(Icn(0))
}

/// Everything a harness can observe of one gateway's run.
struct Run {
    gw: Gateway,
    t: SimTime,
    outputs: Vec<Output>,
    frames: Vec<Vec<u8>>,
}

impl Run {
    fn new(config: GatewayConfig) -> Run {
        let mut gw = Gateway::new(config, FddiAddr::station(0), 80_000_000);
        for c in 0..CONGRAMS {
            gw.install_congram(
                Vci(BASE_VCI + c),
                Icn(10 + c),
                fddi_icn(c),
                FddiAddr::station(7),
                c % 3 == 0,
            );
        }
        Run { gw, t: SimTime::from_us(10), outputs: Vec::new(), frames: Vec::new() }
    }

    /// One frame off the ring, then the time it occupied the ring, then
    /// housekeeping and whatever the transmit buffer holds.
    fn frame_in(&mut self, frame: &[u8]) -> usize {
        let out = self.gw.fddi_frame_in(self.t, frame);
        let n = out.len();
        self.outputs.extend(out);
        self.t += SimTime::from_ns(frame.len() as u64 * 80);
        self.settle();
        n
    }

    fn settle(&mut self) {
        self.gw.advance_into(self.t, &mut self.outputs);
        while let Some((frame, _)) = self.gw.pop_fddi_tx(self.t) {
            self.frames.push(frame.clone());
            self.gw.recycle_frame(frame);
        }
    }

    /// Let every timer run out, then audit.
    fn finish(mut self) -> (Vec<Output>, Vec<Vec<u8>>, String, Gateway) {
        self.t += SimTime::from_ms(500);
        self.settle();
        let violations = self.gw.check_conservation();
        assert!(violations.is_empty(), "books balance: {violations:?}");
        let residue = self.gw.residue();
        assert!(residue.is_clean(), "drained gateway holds nothing: {residue:?}");
        let snapshot = self.gw.snapshot(self.t).render();
        assert!(snapshot.contains("gw-snapshot/1"));
        (self.outputs, self.frames, snapshot, self.gw)
    }
}

/// The cells of the most recent `n` outputs, checked as the far end
/// would: HEC, VCI, CRC-10, sequence, F on the last cell only, C as
/// given — and the carried MCHIP frame.
fn reassembled(outputs: &[Output], n: usize, vci: Vci, control: bool) -> Vec<u8> {
    let mut data = Vec::new();
    let cells = &outputs[outputs.len() - n..];
    for (i, o) in cells.iter().enumerate() {
        let Output::AtmCell { cell, .. } = o else { panic!("not a cell: {o:?}") };
        let cell = gw_wire::atm::Cell::new_checked(&cell[..]).expect("HEC valid");
        assert_eq!(cell.header().vci, vci);
        let sar = SarCell::new_checked(cell.payload()).expect("CRC-10 valid");
        let h = sar.header();
        assert_eq!((h.seq as usize, h.final_cell, h.control), (i, i == n - 1, control));
        data.extend_from_slice(sar.payload());
    }
    data
}

fn main_run(managed: bool) -> (Vec<Output>, Vec<Vec<u8>>, String) {
    let mut rng = SimRng::new(SEED);
    let mut run = Run::new(GatewayConfig {
        management: managed.then(gw_mgmt::MgmtConfig::default),
        ..GatewayConfig::default()
    });
    let asynchronous = FrameControl::LlcAsync { priority: 0 };

    // A congram set up from the ATM side over a control VC, so the NPE
    // has a requester to answer toward ATM later. The confirm leaves
    // through the same fragmentation as everything else.
    run.gw.npe_mut().add_host([9; 8], FddiAddr::station(4));
    run.gw.open_control_vc(CONTROL_VCI);
    let setup = setup_request(77, [9; 8]);
    let cells: Vec<[u8; CELL_SIZE]> =
        segment_cells(&AtmHeader::data(Default::default(), CONTROL_VCI), &setup, true)
            .unwrap()
            .into_iter()
            .map(|c| c.into_inner())
            .collect();
    run.gw.deliver_cells(run.t, &cells, &mut run.outputs);
    assert!(matches!(run.outputs.last(), Some(Output::AtmCell { .. })), "SetupConfirm toward ATM");
    run.t += SimTime::from_us(400);
    run.settle();

    // Data frames of every size on every congram, three service classes.
    for (i, &octets) in PAYLOADS.iter().enumerate() {
        for c in 0..CONGRAMS {
            let fc = match (i + c as usize) % 3 {
                0 => FrameControl::LlcSync,
                1 => asynchronous,
                _ => FrameControl::LlcAsync { priority: 5 },
            };
            let n = run.frame_in(&data_frame(&mut rng, fddi_icn(c), fc, octets));
            assert_eq!(n, cells_for_len(MCHIP_HEADER_SIZE + octets), "{octets} octets");
            let mchip = reassembled(&run.outputs, n, Vci(BASE_VCI + c), false);
            let (h, _) = gw_wire::mchip::parse_frame(&mchip).unwrap();
            assert_eq!((h.icn, h.length as usize), (Icn(10 + c), octets), "ICN translated");
        }
        // Between the sizes, one of each frame the path turns away.
        let good = data_frame(&mut rng, fddi_icn(1), asynchronous, 200);
        let n = good.len();
        let refused: Vec<u8> = match i {
            // FCS error.
            0 => {
                let mut f = good;
                f[n - 1] ^= 1;
                f
            }
            // An FC octet no frame type owns, under a valid FCS.
            1 => {
                let mut f = good;
                f[0] = 0x00;
                let fcs = gw_wire::crc::crc32(&f[..n - 4]);
                f[n - 4..].copy_from_slice(&fcs.to_be_bytes());
                f
            }
            2 => mac_frame(FrameControl::Smt),
            3 => mac_frame(FrameControl::MacBeacon),
            4 => mac_frame(FrameControl::MacClaim),
            5 => mac_frame(FrameControl::Token),
            // LLC frame that is not LLC/SNAP-encapsulated MCHIP.
            6 => FrameRepr {
                fc: asynchronous,
                dst: FddiAddr::station(0),
                src: FddiAddr::station(7),
                info: vec![0x42; 60],
            }
            .emit()
            .unwrap(),
            // MCHIP header checksum broken.
            7 => {
                let mut mchip = build_data_frame(fddi_icn(1), &[7; 100]).unwrap();
                mchip[7] ^= 0x10;
                llc_frame(asynchronous, &mchip)
            }
            // ICN beyond the ICXT-A, and inside it but never programmed.
            8 => data_frame(&mut rng, Icn(5000), asynchronous, 100),
            9 => data_frame(&mut rng, Icn(900), FrameControl::LlcSync, 100),
            // Shorter than the fixed fields; longer than any FDDI frame.
            10 => good[..12].to_vec(),
            _ => vec![0x50; fddi::MAX_FRAME_SIZE + 1],
        };
        assert_eq!(run.frame_in(&refused), 0, "refused frame {i} emits nothing");
    }

    // A teardown for the ATM-requested congram arrives from the ring:
    // the NPE's acknowledgement goes out toward ATM with C = 1.
    let teardown = ControlPayload::Teardown { congram: CongramId(77) }.to_frame(Icn(0));
    let n = run.frame_in(&llc_frame(asynchronous, &teardown));
    assert!(n > 0, "TeardownAck toward ATM");
    let ack = reassembled(&run.outputs, n, CONTROL_VCI, true);
    let (h, p) = gw_wire::mchip::parse_frame(&ack).unwrap();
    assert!(h.mtype.is_control());
    assert_eq!(
        ControlPayload::decode(h.mtype, p).unwrap(),
        ControlPayload::TeardownAck { congram: CongramId(77) }
    );

    // Two setups from the ring: one whose signalling fails for good,
    // one that comes up and then carries data frames.
    for (peer, comes_up) in [(21u32, false), (22, true)] {
        run.frame_in(&llc_frame(asynchronous, &setup_request(peer, [3; 8])));
        let Some(&Output::AtmConnectionRequest { congram, mut attempt, .. }) = run.outputs.last()
        else {
            panic!("setup {peer}: {:?}", run.outputs.last())
        };
        run.t += SimTime::from_us(300);
        let vci = Vci(200);
        let mut out = Vec::new();
        if comes_up {
            run.gw.atm_connection_ready(run.t, congram, attempt, vci, &mut out);
        } else {
            // Until the supervisor gives up and rejects to the requester.
            // Each rejection answers the latest attempt requested.
            for _ in 0..64 {
                run.gw.atm_connection_failed(run.t, congram, attempt, &mut out);
                run.t += SimTime::from_ms(50);
                run.gw.advance_into(run.t, &mut out);
                if out.iter().any(|o| matches!(o, Output::FddiFrameQueued { .. })) {
                    break;
                }
                if let Some(latest) = out.iter().rev().find_map(|o| match o {
                    Output::AtmConnectionRequest { attempt, .. } => Some(*attempt),
                    _ => None,
                }) {
                    attempt = latest;
                }
            }
        }
        assert!(
            out.iter().any(|o| matches!(o, Output::FddiFrameQueued { .. })),
            "setup {peer} answered toward the ring: {out:?}"
        );
        run.outputs.extend(out);
        run.t += SimTime::from_us(300);
        run.settle();
        if !comes_up {
            continue;
        }
        let confirm = run.frames.last().expect("confirm popped");
        let info = gw_wire::fddi::Frame::new_checked(&confirm[..]).unwrap();
        let (h, p) =
            gw_wire::mchip::parse_frame(fddi::strip_llc_snap(info.info()).unwrap()).unwrap();
        let ControlPayload::SetupConfirm { assigned_icn, .. } =
            ControlPayload::decode(h.mtype, p).unwrap()
        else {
            panic!("not a confirm")
        };
        for octets in [64, 1500] {
            let n = run.frame_in(&data_frame(&mut rng, assigned_icn, asynchronous, octets));
            assert_eq!(n, cells_for_len(MCHIP_HEADER_SIZE + octets));
            reassembled(&run.outputs, n, vci, false);
        }
    }

    let (outputs, frames, snapshot, gw) = run.finish();
    // The workload crossed every disposition it claims to.
    let (cons, stats) = (gw.conservation(), gw.stats());
    assert_eq!(cons.fddi_fragmented, PAYLOADS.len() as u64 * CONGRAMS as u64 + 2);
    assert_eq!(stats.fddi_fcs_drops, 4, "FCS, unknown FC, truncated, oversized");
    assert_eq!((cons.fddi_smt, cons.fddi_tokens), (3, 1));
    assert_eq!(cons.fddi_mpp_drops, 4, "LLC/SNAP, MCHIP header, ICN range, ICN entry");
    assert_eq!(cons.fddi_control_to_npe, 3, "teardown and two setups");
    assert_eq!(gw.npe().stats().setups_failed, 1);
    assert_eq!(gw.aic().stats().cells_out, gw.spp().stats().cells_out);
    (outputs, frames, snapshot)
}

/// A gateway whose receive buffer holds one small frame: larger ones
/// overflow it, and with the watermarks at the floor everything sheds.
fn small_rx_run(managed: bool, shed: bool) -> (Vec<Output>, Vec<Vec<u8>>, String) {
    let mut rng = SimRng::new(SEED ^ 0x5a);
    let mut run = Run::new(GatewayConfig {
        rx_buffer_octets: 1024,
        overload_shedding: shed.then_some(ShedConfig { high_fraction: 0.0, low_fraction: 0.0 }),
        management: managed.then(gw_mgmt::MgmtConfig::default),
        ..GatewayConfig::default()
    });
    for octets in [461, 1500, 64, 4000] {
        let fc = FrameControl::LlcAsync { priority: 0 };
        let n = run.frame_in(&data_frame(&mut rng, fddi_icn(2), fc, octets));
        let fits = !shed && octets < 1024;
        assert_eq!(n, if fits { cells_for_len(MCHIP_HEADER_SIZE + octets) } else { 0 });
    }
    let (outputs, frames, snapshot, gw) = run.finish();
    let cons = gw.conservation();
    let want = if shed { (0, 4, 0) } else { (2, 0, 2) };
    assert_eq!((cons.fddi_fragmented, cons.fddi_rx_shed, cons.fddi_rx_overflow), want);
    (outputs, frames, snapshot)
}

fn observed(managed: bool) -> [(usize, u64); 3] {
    let mut outputs = Vec::new();
    let mut frames = Vec::new();
    let mut snapshots = String::new();
    for (o, f, s) in [main_run(managed), small_rx_run(managed, false), small_rx_run(managed, true)]
    {
        outputs.extend(o);
        for frame in f {
            frames.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            frames.extend_from_slice(&frame);
        }
        snapshots.push_str(&s);
    }
    [digest(format!("{outputs:?}").as_bytes()), digest(&frames), digest(snapshots.as_bytes())]
}

#[test]
fn frame_path_reproduces_the_recorded_golden_managed() {
    assert_eq!(observed(true), GOLDEN_MANAGED, "[outputs, frames, snapshots]");
}

#[test]
fn frame_path_reproduces_the_recorded_golden_unmanaged() {
    assert_eq!(observed(false), GOLDEN_UNMANAGED, "[outputs, frames, snapshots]");
}
