//! The GWP1 datagram encapsulation.
//!
//! One gateway payload (a run of 53-octet cells, an FDDI frame, or a
//! bare acknowledgement) per UDP datagram, behind a fixed 24-octet
//! header, and — on a data datagram with [`FLAG_ACK`] set — an 8-octet
//! acknowledgement trailer after the payload:
//!
//! ```text
//!  0      4     5      6      8              16             24         24+len
//!  +------+-----+------+------+--------------+--------------+----------+-----------+
//!  | "GWP1" magic| kind |flags | len (u16 LE) | seq (u64 LE) | at_ns .. | payload ..| ack (u64 LE)
//!  +------+-----+------+------+--------------+--------------+----------+-----------+
//!  magic[4] kind[1] flags[1] len[2] seq[8] at_ns[8] payload[len] [ack[8] iff FLAG_ACK]
//! ```
//!
//! `seq` numbers each data datagram per direction (acks echo the
//! highest in-order sequence received); `at_ns` carries the sender's
//! `SimTime` stamp so the receiving core sees the same timestamps the
//! emitting core produced — the property that makes snapshots
//! byte-identical across transports. `len` is the payload length; a
//! datagram whose wire size disagrees with `len` (plus the trailer its
//! flags announce) was truncated in flight and is discarded (the ARQ
//! retransmits it).
//!
//! The trailer is the sender's cumulative acknowledgement for the
//! reverse direction, riding on data instead of a datagram of its own
//! ([`append_ack`]). It sits outside `len`, so the length check stays
//! exact: cutting the trailer off is a truncation like any other. On a
//! [`KIND_ACK`] the flag carries no trailer; it only tells the peer that
//! the sender reads trailers. A parent-format sender never sets the bit,
//! and a parent-format receiver ignores flags on acks.
//!
//! A cell datagram carries one cell or more. The first travels as the
//! bare payload, stamped by the header's `at_ns`; every further cell is
//! a 61-octet record, its own `at_ns` then its 53 octets, so each cell
//! keeps the time it was emitted at:
//!
//! ```text
//!  24         77                138               199
//!  +----------+--------+--------+--------+--------+---
//!  | cell 0   | at_ns 1| cell 1 | at_ns 2| cell 2 | ..
//!  +----------+--------+--------+--------+--------+---
//!  payload = cell[53] (at_ns[8] cell[53])*      len = 53 + 61 k
//! ```
//!
//! The datagram of one cell is the case k = 0. A sender stops at
//! [`MAX_CELLS`] so the datagram fits one Ethernet frame, trailer
//! included; a receiver takes any whole number of records `len` can
//! describe ([`cells`]).

use crate::PhyError;
use gw_sim::time::SimTime;
use gw_wire::atm::CELL_SIZE;

/// Leading magic: "GWP1".
const MAGIC: [u8; 4] = *b"GWP1";
/// Fixed header length in octets.
pub const HEADER_LEN: usize = 24;
/// `kind`: the payload is one ATM cell, then zero or more cell records.
pub const KIND_CELL: u8 = 0;
/// `kind`: the payload is one FDDI frame.
pub const KIND_FRAME: u8 = 1;
/// `kind`: no payload; `seq` is a cumulative acknowledgement.
pub const KIND_ACK: u8 = 2;
/// `flags` bit 0: the frame travels in the synchronous ring class.
pub const FLAG_SYNC: u8 = 0x01;
/// `flags` bit 1: on a data datagram, an acknowledgement trailer
/// follows the payload; on a [`KIND_ACK`], the sender reads trailers.
pub const FLAG_ACK: u8 = 0x02;
/// Length of the acknowledgement trailer (a u64 LE sequence number).
pub const ACK_TRAILER_LEN: usize = 8;
/// Largest payload the encapsulation carries. An FDDI frame is at most
/// 4500 octets ([`gw_wire::fddi::MAX_FRAME_SIZE`]); the limit leaves
/// headroom without approaching the 64 KiB UDP ceiling.
pub const MAX_PAYLOAD: usize = 8192;
/// One cell after a datagram's first: `at_ns` (u64 LE), then the cell.
pub const CELL_RECORD_LEN: usize = 8 + CELL_SIZE;
/// Cells a sender packs into one datagram: 24 + 53 + 22 × 61 = 1 419
/// octets, 1 427 with an acknowledgement trailer, which with the IP and
/// UDP headers (28) stays inside a 1 500-octet MTU — no fragment to
/// lose, one syscall for 23 cells.
pub const MAX_CELLS: usize = 23;
/// Wire length of a cell datagram carrying [`MAX_CELLS`], trailer not
/// counted.
pub(crate) const FULL_CELL_DATAGRAM_LEN: usize =
    HEADER_LEN + CELL_SIZE + (MAX_CELLS - 1) * CELL_RECORD_LEN;

/// A decoded datagram, borrowing its payload from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Datagram<'a> {
    /// [`KIND_CELL`], [`KIND_FRAME`], or [`KIND_ACK`].
    pub kind: u8,
    /// Flag bits ([`FLAG_SYNC`], [`FLAG_ACK`]).
    pub flags: u8,
    /// Per-direction sequence number (cumulative ack for `KIND_ACK`).
    pub seq: u64,
    /// The sender-side timestamp of the payload.
    pub at: SimTime,
    /// The payload octets (the trailer excluded).
    pub payload: &'a [u8],
    /// The acknowledgement trailer of a data datagram, if it has one.
    pub ack: Option<u64>,
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
    /// The wire length disagrees with the `len` field — the datagram
    /// was truncated (or padded) in flight.
    Truncated,
}

/// Append one encoded datagram to `out`.
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
    out.extend_from_slice(payload);
    Ok(())
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

/// Close a data datagram [`encode`] (and [`append_cell`]) built with the
/// sender's cumulative acknowledgement for the reverse direction: set
/// [`FLAG_ACK`] and append the trailer. Nothing may be appended after it.
pub fn append_ack(datagram: &mut Vec<u8>, ack: u64) {
    datagram[5] |= FLAG_ACK;
    datagram.extend_from_slice(&ack.to_le_bytes());
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
    let len = u16::from_le_bytes([buf[6], buf[7]]) as usize;
    let trailer = flags & FLAG_ACK != 0 && kind != KIND_ACK;
    if buf.len() != HEADER_LEN + len + if trailer { ACK_TRAILER_LEN } else { 0 } {
        return Err(DecodeError::Truncated);
    }
    let seq = u64::from_le_bytes(buf[8..16].try_into().expect("8 octets"));
    let at_ns = u64::from_le_bytes(buf[16..24].try_into().expect("8 octets"));
    let (payload, ack) = buf[HEADER_LEN..].split_at(len);
    let ack = trailer.then(|| u64::from_le_bytes(ack.try_into().expect("8 octets")));
    Ok(Datagram { kind, flags, seq, at: SimTime::from_ns(at_ns), payload, ack })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        encode(KIND_FRAME, FLAG_SYNC, 7, SimTime::from_ns(123_456), b"payload", &mut buf).unwrap();
        let d = decode(&buf).unwrap();
        assert_eq!(d.kind, KIND_FRAME);
        assert_eq!(d.flags, FLAG_SYNC);
        assert_eq!(d.seq, 7);
        assert_eq!(d.at, SimTime::from_ns(123_456));
        assert_eq!(d.payload, b"payload");
    }

    #[test]
    fn zero_payload_ack() {
        let mut buf = Vec::new();
        encode(KIND_ACK, 0, u64::MAX, SimTime::ZERO, &[], &mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_LEN);
        let d = decode(&buf).unwrap();
        assert_eq!(d.kind, KIND_ACK);
        assert_eq!(d.seq, u64::MAX);
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
    fn oversized_payload_refused() {
        let mut buf = Vec::new();
        let err = encode(KIND_FRAME, 0, 0, SimTime::ZERO, &[0; MAX_PAYLOAD + 1], &mut buf);
        assert_eq!(err.unwrap_err(), PhyError::TooLarge(MAX_PAYLOAD + 1));
    }
}
