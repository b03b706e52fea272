//! Property tests for the transport seam: the GWP1 encapsulation
//! round-trips byte-exact — a cell datagram of any fill with every
//! cell's own stamp — and both transport pairs (in-process
//! loopback and real UDP sockets) deliver the sender's
//! `(timestamp, payload)` sequence unchanged — including the maximum
//! FDDI frame (4500 octets) and the zero-payload edges. This is the
//! property the snapshot byte-identity proof rests on: if the seam
//! preserves the sequence exactly, the cycle-accurate core cannot tell
//! transports apart.

use gw_phy::encap::{
    self, DecodeError, CELL_RECORD_LEN, FLAG_SYNC, HEADER_LEN, KIND_ACK, KIND_CELL, MAX_CELLS,
    MAX_PAYLOAD,
};
use gw_phy::{
    loopback_cell_pair, loopback_frame_pair, udp_cell_pair, udp_frame_pair, CellPhy, FramePhy,
    PhyError, TransportFaultConfig,
};
use gw_sim::time::SimTime;
use gw_wire::atm::CELL_SIZE;
use gw_wire::fddi::MAX_FRAME_SIZE;
use proptest::prelude::*;

/// Pump a pair until nothing is unacknowledged (no-op for loopback,
/// runs the lockstep ARQ for UDP).
fn flush_cells(a: &mut impl CellPhy, b: &mut impl CellPhy) {
    for _ in 0..256 {
        a.pump(SimTime::from_us(1)).expect("pump");
        b.pump(SimTime::from_us(1)).expect("pump");
        if a.in_flight() == 0 && b.in_flight() == 0 {
            return;
        }
    }
    panic!("cell pair failed to quiesce");
}

fn flush_frames(a: &mut impl FramePhy, b: &mut impl FramePhy) {
    for _ in 0..256 {
        a.pump(SimTime::from_us(1)).expect("pump");
        b.pump(SimTime::from_us(1)).expect("pump");
        if a.in_flight() == 0 && b.in_flight() == 0 {
            return;
        }
    }
    panic!("frame pair failed to quiesce");
}

/// Cells with arbitrary stamps made distinct by construction: the low
/// six bits carry the index (more than a datagram holds, and enough for
/// the longest run drawn below).
fn stamped_cells(raw: &[(u64, Vec<u8>)]) -> Vec<(SimTime, [u8; CELL_SIZE])> {
    assert!(raw.len() <= 64);
    raw.iter()
        .enumerate()
        .map(|(i, (at_ns, bytes))| {
            let mut cell = [0u8; CELL_SIZE];
            cell.copy_from_slice(bytes);
            (SimTime::from_ns((at_ns & !0x3F) | i as u64), cell)
        })
        .collect()
}

/// Drive one batch of frames through a pair and assert the receiver
/// observes exactly the sent `(time, bytes, class)` sequence.
fn assert_frames_cross_exact(
    a: &mut impl FramePhy,
    b: &mut impl FramePhy,
    frames: &[(Vec<u8>, bool)],
) {
    for (i, (bytes, sync)) in frames.iter().enumerate() {
        a.send_frame(SimTime::from_us(i as u64), bytes.clone(), *sync).expect("send");
    }
    flush_frames(a, b);
    let mut got = Vec::new();
    b.poll_frames(&mut got).expect("poll");
    assert_eq!(got.len(), frames.len());
    for (i, ((at, bytes, sync), (sent, sent_sync))) in got.iter().zip(frames).enumerate() {
        assert_eq!(*at, SimTime::from_us(i as u64), "timestamp preserved");
        assert_eq!(bytes, sent, "frame {i} byte-exact");
        assert_eq!(sync, sent_sync, "ring class preserved");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every header field and payload octet survives encode/decode.
    #[test]
    fn gwp1_encode_decode_round_trips(
        kind in 0u8..3,
        sync: bool,
        seq: u64,
        at_ns: u64,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        ack: u64,
    ) {
        let flags = if sync { FLAG_SYNC } else { 0 };
        let mut wire = Vec::new();
        encap::encode(kind, flags, seq, SimTime::from_ns(at_ns), &payload, &mut wire).unwrap();
        encap::set_ack(&mut wire, ack);
        prop_assert_eq!(wire.len(), HEADER_LEN + payload.len());
        let d = encap::decode(&wire).unwrap();
        prop_assert_eq!(d.kind, kind);
        prop_assert_eq!(d.flags, flags);
        prop_assert_eq!(d.seq, seq);
        prop_assert_eq!(d.at, SimTime::from_ns(at_ns));
        prop_assert_eq!(d.payload, &payload[..]);
        prop_assert_eq!(d.ack, ack);
    }

    /// No strict prefix of a valid datagram decodes — in-flight
    /// truncation is always caught by the length check, so a truncated
    /// payload can never masquerade as a shorter valid one — and
    /// neither does the datagram with an octet added.
    #[test]
    fn every_truncation_of_a_datagram_is_rejected(
        kind in 0u8..3,
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        seq: u64,
        ack: u64,
    ) {
        let mut wire = Vec::new();
        encap::encode(kind, FLAG_SYNC, seq, SimTime::from_ns(7), &payload, &mut wire).unwrap();
        encap::set_ack(&mut wire, ack);
        for keep in 0..wire.len() {
            let err = encap::decode(&wire[..keep]).unwrap_err();
            prop_assert!(
                matches!(err, DecodeError::Runt | DecodeError::Truncated),
                "prefix of {} octets gave {:?}", keep, err
            );
        }
        prop_assert_eq!(encap::decode(&wire).unwrap().ack, ack);
        wire.push(0);
        prop_assert_eq!(encap::decode(&wire).unwrap_err(), DecodeError::Truncated);
    }

    /// A datagram in the retired layout that carried its ack in a
    /// trailer — a 24-octet header with flag bit 1 set, the payload,
    /// then the 8-octet ack — is exactly as long as a current datagram
    /// of the same `len`, so the length check alone cannot refuse it.
    /// It decodes at no length: not whole, not as any strict prefix,
    /// and not with an octet added.
    #[test]
    fn every_truncation_of_a_datagram_with_a_trailer_is_rejected(
        kind in 0u8..2,
        sync: bool,
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        seq: u64,
        ack: u64,
    ) {
        let mut wire = b"GWP1".to_vec();
        wire.push(kind);
        wire.push(0x02 | if sync { FLAG_SYNC } else { 0 });
        wire.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        wire.extend_from_slice(&seq.to_le_bytes());
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(&ack.to_le_bytes());
        prop_assert_eq!(wire.len(), HEADER_LEN + payload.len());
        wire.push(0);
        for keep in 0..=wire.len() {
            let err = encap::decode(&wire[..keep]).unwrap_err();
            prop_assert!(
                matches!(err, DecodeError::Runt | DecodeError::BadFlags),
                "{} of {} octets gave {:?}", keep, wire.len() - 1, err
            );
        }
    }

    /// A cell datagram of every fill a sender produces round-trips with
    /// each cell's own stamp, is exactly as long as the layout says, and
    /// decodes from no strict prefix of itself.
    #[test]
    fn cell_datagrams_round_trip_every_cell_and_stamp(
        raw in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), CELL_SIZE)), 1..=MAX_CELLS),
        seq: u64,
    ) {
        let cells = stamped_cells(&raw);
        let mut wire = Vec::new();
        encap::encode(KIND_CELL, 0, seq, cells[0].0, &cells[0].1, &mut wire).unwrap();
        for (at, cell) in &cells[1..] {
            encap::append_cell(&mut wire, *at, cell).unwrap();
        }
        prop_assert_eq!(
            wire.len(),
            HEADER_LEN + CELL_SIZE + (cells.len() - 1) * CELL_RECORD_LEN
        );
        let d = encap::decode(&wire).unwrap();
        prop_assert_eq!((d.kind, d.seq), (KIND_CELL, seq));
        let got: Vec<_> = encap::cells(&d).expect("whole records").map(|(at, c)| (at, *c)).collect();
        prop_assert_eq!(got, cells);
        for keep in 0..wire.len() {
            let err = encap::decode(&wire[..keep]).unwrap_err();
            prop_assert!(
                matches!(err, DecodeError::Runt | DecodeError::Truncated),
                "prefix of {} octets gave {:?}", keep, err
            );
        }
    }

    /// A payload is a run of cells exactly when it is 53 + 61 k octets
    /// of a cell datagram; anything else yields nothing, without a panic.
    #[test]
    fn only_whole_cell_records_unpack(
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        kind in 0u8..3,
    ) {
        let mut wire = Vec::new();
        encap::encode(kind, 0, 0, SimTime::ZERO, &payload, &mut wire).unwrap();
        let d = encap::decode(&wire).unwrap();
        let whole = kind == KIND_CELL
            && payload.len() >= CELL_SIZE
            && (payload.len() - CELL_SIZE).is_multiple_of(CELL_RECORD_LEN);
        let unpacked = encap::cells(&d).map(Iterator::count);
        let want = whole.then(|| 1 + (payload.len() - CELL_SIZE) / CELL_RECORD_LEN);
        prop_assert_eq!(unpacked, want, "{} octets of kind {}", payload.len(), kind);
    }

    /// Arbitrary cells cross the loopback pair byte-exact and in order
    /// with their timestamps.
    #[test]
    fn loopback_cells_cross_byte_exact(
        cells in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), CELL_SIZE), 1..12),
    ) {
        let (mut a, mut b) = loopback_cell_pair();
        for (i, bytes) in cells.iter().enumerate() {
            let mut cell = [0u8; CELL_SIZE];
            cell.copy_from_slice(bytes);
            a.send_cell(SimTime::from_ns(i as u64 * 40), &cell).unwrap();
        }
        flush_cells(&mut a, &mut b);
        let mut got = Vec::new();
        b.poll_cells(&mut got).unwrap();
        prop_assert_eq!(got.len(), cells.len());
        for (i, ((at, cell), sent)) in got.iter().zip(&cells).enumerate() {
            prop_assert_eq!(*at, SimTime::from_ns(i as u64 * 40));
            prop_assert_eq!(&cell[..], &sent[..]);
        }
    }

    /// The same property over real UDP sockets with injected datagram
    /// faults, for runs that fill no datagram, one, or two and a part,
    /// under arbitrary stamps: the ARQ presents the identical byte-exact
    /// in-order sequence above the seam.
    #[test]
    fn udp_cells_cross_byte_exact(
        raw in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), CELL_SIZE)), 1..=60),
        seed: u64,
    ) {
        let cells = stamped_cells(&raw);
        let faults = TransportFaultConfig { drop: 0.1, duplicate: 0.1, truncate: 0.05, seed };
        let (mut a, mut b) = udp_cell_pair(&faults).expect("bind");
        for (at, cell) in &cells {
            a.send_cell(*at, cell).unwrap();
        }
        flush_cells(&mut a, &mut b);
        let mut got = Vec::new();
        b.poll_cells(&mut got).unwrap();
        prop_assert_eq!(got, cells);
    }

    /// Arbitrary frames — lengths drawn across the whole legal range,
    /// zero included — cross both transports byte-exact with their
    /// ring service class intact.
    #[test]
    fn frames_cross_both_transports_byte_exact(
        lens in proptest::collection::vec((0usize..=MAX_FRAME_SIZE, any::<bool>()), 1..6),
        fill: u8,
    ) {
        let frames: Vec<(Vec<u8>, bool)> = lens
            .iter()
            .enumerate()
            .map(|(i, (len, sync))| (vec![fill.wrapping_add(i as u8); *len], *sync))
            .collect();
        let (mut la, mut lb) = loopback_frame_pair();
        assert_frames_cross_exact(&mut la, &mut lb, &frames);
        let (mut ua, mut ub) = udp_frame_pair(&TransportFaultConfig::none()).expect("bind");
        assert_frames_cross_exact(&mut ua, &mut ub, &frames);
    }
}

/// The two boundary payloads the property sampler may miss: exactly
/// [`MAX_FRAME_SIZE`] octets and the empty frame.
#[test]
fn max_size_and_zero_payload_edges_cross_both_transports() {
    let max: Vec<u8> = (0..MAX_FRAME_SIZE).map(|i| i as u8).collect();
    assert_eq!(max.len(), 4500, "FDDI maximum per the spec");
    let frames = vec![(max, true), (Vec::new(), false), (Vec::new(), true)];

    let (mut la, mut lb) = loopback_frame_pair();
    assert_frames_cross_exact(&mut la, &mut lb, &frames);

    let faults = TransportFaultConfig { drop: 0.2, duplicate: 0.2, truncate: 0.1, seed: 0xED6E };
    let (mut ua, mut ub) = udp_frame_pair(&faults).expect("bind");
    assert_frames_cross_exact(&mut ua, &mut ub, &frames);
}

/// Encoding edges: an ack is exactly one bare header; the payload
/// ceiling is enforced at the trait surface, not just in `encode`.
#[test]
fn ack_and_payload_ceiling_edges() {
    let mut wire = Vec::new();
    encap::encode(KIND_ACK, 0, 0, SimTime::ZERO, &[], &mut wire).unwrap();
    encap::set_ack(&mut wire, u64::MAX);
    assert_eq!(wire.len(), HEADER_LEN);
    let d = encap::decode(&wire).unwrap();
    assert_eq!((d.kind, d.ack, d.payload.len()), (KIND_ACK, u64::MAX, 0));

    let mut wire = Vec::new();
    encap::encode(KIND_CELL, 0, 0, SimTime::ZERO, &[0xAA; MAX_PAYLOAD], &mut wire).unwrap();
    assert_eq!(encap::decode(&wire).unwrap().payload.len(), MAX_PAYLOAD);

    let (mut a, _b) = udp_frame_pair(&TransportFaultConfig::none()).expect("bind");
    let err = a.send_frame(SimTime::ZERO, vec![0; MAX_PAYLOAD + 1], false).unwrap_err();
    assert_eq!(err, PhyError::TooLarge(MAX_PAYLOAD + 1));
}
