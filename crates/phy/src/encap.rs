//! The GWP1 datagram encapsulation.
//!
//! One gateway payload (a run of 53-octet cells, an FDDI frame, or
//! nothing, for a bare acknowledgement) per UDP datagram, behind a
//! fixed 32-octet header:
//!
//! ```text
//!  0        4      5       6       8        16        24        32          32+len
//!  +--------+------+-------+-------+--------+---------+---------+-----------+
//!  | "GWP1" | kind | flags |  len  |  seq   |  at_ns  |   ack   | payload ..|
//!  +--------+------+-------+-------+--------+---------+---------+-----------+
//!  magic[4] kind[1] flags[1] len[2] seq[8] at_ns[8] ack[8] payload[len]
//!  (integers little-endian)
//! ```
//!
//! `seq` numbers each data datagram per direction (0 on a bare ack,
//! where it means nothing); `at_ns` carries the sender's `SimTime`
//! stamp so the receiving core sees the same timestamps the emitting
//! core produced — the property that makes snapshots byte-identical
//! across transports. `ack` is the sender's cumulative acknowledgement
//! for the reverse direction: the next sequence number it expects, so
//! 0 until something has arrived. Every datagram carries it at the
//! same offset, data and bare acks alike ([`set_ack`]), so the
//! receiver reads it without asking what kind of datagram it holds.
//! `len` is the payload length; a datagram whose wire size is not
//! exactly 32 + `len` was truncated (or padded) in flight and is
//! discarded (the ARQ retransmits it).
//!
//! A datagram of GWP1's earlier layout, whose header had no `ack`
//! field and was 24 octets long, is rejected, never misread: its bare
//! ack is shorter than this header, its data datagrams are eight octets
//! short of the 32 + `len` their `len` announces here, and one that
//! ended in that layout's 8-octet ack trailer — the right length — set
//! a flag bit this layout reserves. A mismatched peer therefore loses
//! traffic loudly (`decode_drops`) instead of delivering shifted octets.
//!
//! A cell datagram carries one cell or more. The first travels as the
//! bare payload, stamped by the header's `at_ns`; every further cell is
//! a 61-octet record, its own `at_ns` then its 53 octets, so each cell
//! keeps the time it was emitted at:
//!
//! ```text
//!  32         85                146               207
//!  +----------+--------+--------+--------+--------+---
//!  | cell 0   | at_ns 1| cell 1 | at_ns 2| cell 2 | ..
//!  +----------+--------+--------+--------+--------+---
//!  payload = cell[53] (at_ns[8] cell[53])*      len = 53 + 61 k
//! ```
//!
//! The datagram of one cell is the case k = 0. A sender stops at
//! [`MAX_CELLS`] so the datagram fits one Ethernet frame; a receiver
//! takes any whole number of records `len` can describe ([`cells`]).

use crate::PhyError;
use gw_sim::time::SimTime;
use gw_wire::atm::CELL_SIZE;

/// Leading magic: "GWP1".
const MAGIC: [u8; 4] = *b"GWP1";
/// Fixed header length in octets.
pub const HEADER_LEN: usize = 32;
/// Offset of the `ack` field in the header.
const ACK_AT: usize = 24;
/// `kind`: the payload is one ATM cell, then zero or more cell records.
pub const KIND_CELL: u8 = 0;
/// `kind`: the payload is one FDDI frame.
pub const KIND_FRAME: u8 = 1;
/// `kind`: no payload, only the header's `ack`; `seq` is 0 and ignored.
pub const KIND_ACK: u8 = 2;
/// `flags` bit 0: the frame travels in the synchronous ring class.
pub const FLAG_SYNC: u8 = 0x01;
/// Every other `flags` bit is reserved: a datagram that sets one is
/// rejected ([`DecodeError::BadFlags`]).
const RESERVED_FLAGS: u8 = !FLAG_SYNC;
/// Largest payload the encapsulation carries. An FDDI frame is at most
/// 4500 octets ([`gw_wire::fddi::MAX_FRAME_SIZE`]); the limit leaves
/// headroom without approaching the 64 KiB UDP ceiling.
pub const MAX_PAYLOAD: usize = 8192;
/// One cell after a datagram's first: `at_ns` (u64 LE), then the cell.
pub const CELL_RECORD_LEN: usize = 8 + CELL_SIZE;
/// Cells a sender packs into one datagram: 32 + 53 + 22 × 61 = 1 427
/// octets, which with the IP and UDP headers (28) stays inside a
/// 1 500-octet MTU — no fragment to lose, one syscall for 23 cells.
pub const MAX_CELLS: usize = 23;
/// Wire length of a cell datagram carrying [`MAX_CELLS`].
pub(crate) const FULL_CELL_DATAGRAM_LEN: usize =
    HEADER_LEN + CELL_SIZE + (MAX_CELLS - 1) * CELL_RECORD_LEN;

/// A decoded datagram, borrowing its payload from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Datagram<'a> {
    /// [`KIND_CELL`], [`KIND_FRAME`], or [`KIND_ACK`].
    pub kind: u8,
    /// Flag bits ([`FLAG_SYNC`]).
    pub flags: u8,
    /// Per-direction sequence number of a data datagram.
    pub seq: u64,
    /// The sender-side timestamp of the payload.
    pub at: SimTime,
    /// The payload octets.
    pub payload: &'a [u8],
    /// The sender's next expected sequence number for the reverse
    /// direction (0: nothing received yet).
    pub ack: u64,
}

/// Why a received datagram was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Shorter than the fixed header.
    Runt,
    /// The magic does not match.
    BadMagic,
    /// Unknown `kind` octet.
    BadKind,
    /// A reserved `flags` bit is set.
    BadFlags,
    /// The wire length disagrees with the `len` field — the datagram
    /// was truncated (or padded) in flight.
    Truncated,
}

/// Append one encoded datagram to `out`, its `ack` 0 ([`set_ack`]
/// writes it).
pub fn encode(
    kind: u8,
    flags: u8,
    seq: u64,
    at: SimTime,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), PhyError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(PhyError::TooLarge(payload.len()));
    }
    out.extend_from_slice(&MAGIC);
    out.push(kind);
    out.push(flags);
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&at.as_ns().to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Write the cumulative acknowledgement into a datagram [`encode`]
/// began: the next sequence number expected from the peer.
pub fn set_ack(datagram: &mut [u8], ack: u64) {
    datagram[ACK_AT..HEADER_LEN].copy_from_slice(&ack.to_le_bytes());
}

/// Append one more cell to `datagram`, which [`encode`] began as a
/// [`KIND_CELL`] datagram holding its first cell (and nothing else).
pub fn append_cell(
    datagram: &mut Vec<u8>,
    at: SimTime,
    cell: &[u8; CELL_SIZE],
) -> Result<(), PhyError> {
    let len = datagram.len() - HEADER_LEN + CELL_RECORD_LEN;
    if len > MAX_PAYLOAD {
        return Err(PhyError::TooLarge(len));
    }
    datagram[6..8].copy_from_slice(&(len as u16).to_le_bytes());
    datagram.extend_from_slice(&at.as_ns().to_le_bytes());
    datagram.extend_from_slice(cell);
    Ok(())
}

/// The cells of a decoded datagram, each with its own stamp, in send
/// order. `None` when this is not a cell datagram or its payload is not
/// one cell plus a whole number of records — a malformed sender, since
/// truncation in flight never gets past [`decode`].
pub fn cells<'a>(d: &Datagram<'a>) -> Option<impl Iterator<Item = (SimTime, &'a [u8; CELL_SIZE])>> {
    let (first, records) = d.payload.split_first_chunk::<CELL_SIZE>()?;
    if d.kind != KIND_CELL || !records.len().is_multiple_of(CELL_RECORD_LEN) {
        return None;
    }
    let rest = records.chunks_exact(CELL_RECORD_LEN).map(|record| {
        let (at_ns, cell) = record.split_first_chunk::<8>().expect("a whole record");
        (SimTime::from_ns(u64::from_le_bytes(*at_ns)), cell.try_into().expect("a whole record"))
    });
    Some(std::iter::once((d.at, first)).chain(rest))
}

/// Decode one datagram from a received buffer.
pub fn decode(buf: &[u8]) -> Result<Datagram<'_>, DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Runt);
    }
    if buf[0..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let kind = buf[4];
    if kind > KIND_ACK {
        return Err(DecodeError::BadKind);
    }
    let flags = buf[5];
    if flags & RESERVED_FLAGS != 0 {
        return Err(DecodeError::BadFlags);
    }
    let len = u16::from_le_bytes([buf[6], buf[7]]) as usize;
    if buf.len() != HEADER_LEN + len {
        return Err(DecodeError::Truncated);
    }
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 octets"));
    Ok(Datagram {
        kind,
        flags,
        seq: word(8),
        at: SimTime::from_ns(word(16)),
        ack: word(ACK_AT),
        payload: &buf[HEADER_LEN..],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        encode(KIND_FRAME, FLAG_SYNC, 7, SimTime::from_ns(123_456), b"payload", &mut buf).unwrap();
        assert_eq!(decode(&buf).unwrap().ack, 0, "encode writes no acknowledgement");
        set_ack(&mut buf, 42);
        let d = decode(&buf).unwrap();
        assert_eq!(d.kind, KIND_FRAME);
        assert_eq!(d.flags, FLAG_SYNC);
        assert_eq!(d.seq, 7);
        assert_eq!(d.at, SimTime::from_ns(123_456));
        assert_eq!(d.ack, 42);
        assert_eq!(d.payload, b"payload");
    }

    #[test]
    fn zero_payload_ack() {
        let mut buf = Vec::new();
        encode(KIND_ACK, 0, 0, SimTime::ZERO, &[], &mut buf).unwrap();
        set_ack(&mut buf, u64::MAX);
        assert_eq!(buf.len(), HEADER_LEN);
        let d = decode(&buf).unwrap();
        assert_eq!(d.kind, KIND_ACK);
        assert_eq!(d.ack, u64::MAX);
        assert!(d.payload.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        encode(KIND_CELL, 0, 1, SimTime::ZERO, &[0xAA; 53], &mut buf).unwrap();
        for keep in 0..buf.len() {
            let err = decode(&buf[..keep]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Runt | DecodeError::Truncated),
                "keep={keep} gave {err:?}"
            );
        }
        assert!(decode(&buf).is_ok());
    }

    #[test]
    fn bad_magic_and_kind_rejected() {
        let mut buf = Vec::new();
        encode(KIND_CELL, 0, 1, SimTime::ZERO, &[], &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode(&bad).unwrap_err(), DecodeError::BadMagic);
        let mut bad = buf.clone();
        bad[4] = 9;
        assert_eq!(decode(&bad).unwrap_err(), DecodeError::BadKind);
    }

    #[test]
    fn reserved_flag_bits_are_rejected() {
        let mut buf = Vec::new();
        encode(KIND_FRAME, FLAG_SYNC, 1, SimTime::ZERO, &[0xAA; 16], &mut buf).unwrap();
        for bit in (0..8).map(|b| 1u8 << b).filter(|&bit| bit != FLAG_SYNC) {
            let mut bad = buf.clone();
            bad[5] = bit | FLAG_SYNC;
            assert_eq!(decode(&bad).unwrap_err(), DecodeError::BadFlags, "flags {bit:#04x}");
        }
    }

    #[test]
    fn oversized_payload_refused() {
        let mut buf = Vec::new();
        let err = encode(KIND_FRAME, 0, 0, SimTime::ZERO, &[0; MAX_PAYLOAD + 1], &mut buf);
        assert_eq!(err.unwrap_err(), PhyError::TooLarge(MAX_PAYLOAD + 1));
    }
}
