//! The SAR header (paper Figure 5, §5.2).
//!
//! The 48-octet ATM information field carries a 3-octet SAR header
//! followed by a 45-octet SAR payload:
//!
//! ```text
//!  | 3 octets  |     45 octets     |   (inside the 48-octet info field)
//!  +-----------+-------------------+
//!  | SAR hdr   |    SAR payload    |
//!  +-----------+-------------------+
//!
//!  SAR header bit layout (24 bits, transmitted msb first):
//!    seq[10] | unused[2] | F[1] | C[1] | crc10[10]
//! ```
//!
//! * `seq` — 10-bit sequence number: the cell's position within the
//!   reassembled frame.
//! * `F` — set on the last cell of a frame.
//! * `C` — set when the cell carries a control (rather than data) frame.
//! * `crc10` — covers the *entire* 48-octet information field, i.e. the
//!   SAR header (with the CRC field zeroed) plus the 45-octet payload.
//!
//! With a 10-bit sequence number a frame may span up to 1024 cells; the
//! gateway's reassembly buffers only need ⌈4096/45⌉ = 91 (§5.3).

use crate::atm::PAYLOAD_SIZE;
use crate::crc;
use crate::{Error, Result};

/// SAR header size in octets.
pub const SAR_HEADER_SIZE: usize = 3;
/// SAR payload per cell: 48 − 3 = 45 octets.
pub const SAR_PAYLOAD_SIZE: usize = PAYLOAD_SIZE - SAR_HEADER_SIZE;
/// Maximum sequence number (10 bits).
pub const MAX_SEQ: u16 = 0x3FF;
/// Where the 24-bit SAR header's low bit — the CRC field's — sits in the
/// first big-endian 64-bit word of an information field.
const CRC_SHIFT: u32 = 40;

/// Parsed representation of the 3-octet SAR header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SarHeader {
    /// 10-bit position of this cell within the reassembled frame.
    pub seq: u16,
    /// Final-cell flag: set on the last cell of the frame.
    pub final_cell: bool,
    /// Control flag: set when the reassembled frame is a control frame.
    pub control: bool,
    /// 10-bit CRC over the whole 48-octet information field.
    pub crc10: u16,
}

impl SarHeader {
    /// Parse the three header octets (CRC is extracted, not verified —
    /// verification needs the full information field; see
    /// [`SarCell::check_crc`]).
    pub fn parse(bytes: &[u8]) -> Result<Self> {
        match bytes.first_chunk::<SAR_HEADER_SIZE>() {
            Some(&[a, b, c]) => Ok(SarHeader::from_word(u32::from_be_bytes([0, a, b, c]))),
            None => Err(Error::Truncated),
        }
    }

    /// The one decoder: the header from its 24-bit word. The two unused
    /// bits are ignored.
    #[inline]
    fn from_word(word: u32) -> SarHeader {
        SarHeader {
            seq: ((word >> 14) & 0x3FF) as u16,
            final_cell: (word >> 11) & 1 != 0,
            control: (word >> 10) & 1 != 0,
            crc10: (word & 0x3FF) as u16,
        }
    }

    /// The header as its 24-bit word; fields are taken as they are.
    #[inline]
    fn word(&self) -> u32 {
        ((self.seq as u32) << 14)
            | ((self.final_cell as u32) << 11)
            | ((self.control as u32) << 10)
            | self.crc10 as u32
    }

    /// Emit the three header octets.
    pub fn emit(&self, bytes: &mut [u8]) -> Result<()> {
        if bytes.len() < SAR_HEADER_SIZE {
            return Err(Error::Truncated);
        }
        if self.seq > MAX_SEQ || self.crc10 > 0x3FF {
            return Err(Error::Malformed);
        }
        let word = self.word();
        bytes[0] = (word >> 16) as u8;
        bytes[1] = (word >> 8) as u8;
        bytes[2] = word as u8;
        Ok(())
    }
}

/// A typed view over a 48-octet ATM information field carrying a SAR cell.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub struct SarCell<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> SarCell<T> {
    /// Wrap an information field without checks.
    pub fn new_unchecked(buffer: T) -> SarCell<T> {
        SarCell { buffer }
    }

    /// Wrap an information field, verifying its length and CRC-10 — what
    /// the SPP's CRC Logic does per cell (§5.3).
    #[inline]
    pub fn new_checked(buffer: T) -> Result<SarCell<T>> {
        let cell = SarCell::new_unchecked(buffer);
        if cell.buffer.as_ref().len() != PAYLOAD_SIZE {
            return Err(Error::Truncated);
        }
        if !cell.check_crc() {
            return Err(Error::Checksum);
        }
        Ok(cell)
    }

    /// Release the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// The parsed SAR header. A buffer shorter than a header is only
    /// reachable through [`SarCell::new_unchecked`]; it reads as the
    /// all-zero header (sequence 0, flags clear), whose CRC then fails
    /// verification downstream — drop-and-count, never a panic.
    #[inline]
    pub fn header(&self) -> SarHeader {
        match self.buffer.as_ref().first_chunk::<SAR_HEADER_SIZE>() {
            Some(&[a, b, c]) => SarHeader::from_word(u32::from_be_bytes([0, a, b, c])),
            None => SarHeader::default(),
        }
    }

    /// The 45-octet SAR payload.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[SAR_HEADER_SIZE..PAYLOAD_SIZE]
    }

    /// Verify the CRC-10 over the whole information field (header CRC
    /// bits zeroed during computation).
    #[inline]
    pub fn check_crc(&self) -> bool {
        let Ok(field) = <&[u8; PAYLOAD_SIZE]>::try_from(self.buffer.as_ref()) else {
            return false;
        };
        // Six words read straight from the cell, the CRC field masked
        // out of the first: nothing is copied, so the checksum stage has
        // no store to wait on.
        let mut words = crc::field_words(field);
        let stored = (words[0] >> CRC_SHIFT) as u16 & 0x3FF;
        words[0] &= !(0x3FF << CRC_SHIFT);
        crc::crc10_field(words) == stored
    }

    /// The whole 48-octet field.
    pub fn as_bytes(&self) -> &[u8] {
        self.buffer.as_ref()
    }
}

/// An owned SAR cell information field.
pub type OwnedSarCell = SarCell<[u8; PAYLOAD_SIZE]>;

impl OwnedSarCell {
    /// Build an information field: header (CRC computed here) + payload.
    ///
    /// `payload` shorter than 45 octets is zero-padded on the right, as
    /// the Fragmentation Logic does for a frame's final partial cell.
    #[inline]
    pub fn build(
        seq: u16,
        final_cell: bool,
        control: bool,
        payload: &[u8],
    ) -> Result<OwnedSarCell> {
        if payload.len() > SAR_PAYLOAD_SIZE {
            return Err(Error::TooLong);
        }
        if seq > MAX_SEQ {
            return Err(Error::Malformed);
        }
        let mut padded = [0u8; SAR_PAYLOAD_SIZE];
        let src: &[u8; SAR_PAYLOAD_SIZE] = match payload.try_into() {
            Ok(full) => full,
            Err(_) => {
                padded[..payload.len()].copy_from_slice(payload);
                &padded
            }
        };
        // Copy and CRC in one pass: the six words of the field are
        // assembled from the header bits and the *source* payload, the
        // CRC taken over them in registers, and each word stored once.
        let header = SarHeader { seq, final_cell, control, crc10: 0 }.word() as u64;
        let [p0, p1, p2, p3, p4, ..] = *src;
        let mut words = [0u64; 6];
        words[0] = header << CRC_SHIFT | u64::from_be_bytes([0, 0, 0, p0, p1, p2, p3, p4]);
        let (rest, _) = src[5..].as_chunks::<8>();
        for (w, octets) in words[1..].iter_mut().zip(rest) {
            *w = u64::from_be_bytes(*octets);
        }
        words[0] |= (crc::crc10_field(words) as u64) << CRC_SHIFT;
        Ok(SarCell::new_unchecked(crc::field_octets(words)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = SarHeader { seq: 0x2A5, final_cell: true, control: false, crc10: 0x155 };
        let mut b = [0u8; 3];
        h.emit(&mut b).unwrap();
        assert_eq!(SarHeader::parse(&b).unwrap(), h);
    }

    #[test]
    fn header_roundtrip_extremes() {
        for (seq, f, c, crc) in [
            (0u16, false, false, 0u16),
            (MAX_SEQ, true, true, 0x3FF),
            (1, true, false, 0x200),
            (512, false, true, 1),
        ] {
            let h = SarHeader { seq, final_cell: f, control: c, crc10: crc };
            let mut b = [0u8; 3];
            h.emit(&mut b).unwrap();
            assert_eq!(SarHeader::parse(&b).unwrap(), h);
        }
    }

    #[test]
    fn unused_bits_are_zero_on_emit() {
        let h = SarHeader { seq: MAX_SEQ, final_cell: true, control: true, crc10: 0x3FF };
        let mut b = [0u8; 3];
        h.emit(&mut b).unwrap();
        let word = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        assert_eq!((word >> 12) & 0x3, 0, "unused bits must stay clear");
    }

    #[test]
    fn emit_rejects_oversized_fields() {
        let h = SarHeader { seq: 0x400, ..Default::default() };
        assert_eq!(h.emit(&mut [0u8; 3]), Err(Error::Malformed));
        let h = SarHeader { crc10: 0x400, ..Default::default() };
        assert_eq!(h.emit(&mut [0u8; 3]), Err(Error::Malformed));
    }

    #[test]
    fn cell_header_and_parse_decode_alike() {
        // Every sequence number and flag pair, both unused bits set or
        // clear, and CRC fields at zero, alternating and all ones.
        let mut field = [0x5Au8; PAYLOAD_SIZE];
        for seq in 0..=MAX_SEQ as u32 {
            for flags in 0..16u32 {
                for crc in [0, 0x155, 0x3FF] {
                    let word = seq << 14 | flags << 10 | crc;
                    field[..SAR_HEADER_SIZE].copy_from_slice(&word.to_be_bytes()[1..]);
                    let parsed = SarHeader::parse(&field).unwrap();
                    assert_eq!(SarCell::new_unchecked(field).header(), parsed, "{word:06x}");
                    let want = (seq as u16, flags & 2 != 0, flags & 1 != 0, crc as u16);
                    assert_eq!((parsed.seq, parsed.final_cell, parsed.control, parsed.crc10), want);
                }
            }
        }
        assert_eq!(SarCell::new_unchecked([0xFFu8; 2]).header(), SarHeader::default());
    }

    #[test]
    fn parse_rejects_truncated() {
        assert_eq!(SarHeader::parse(&[0u8; 2]), Err(Error::Truncated));
    }

    #[test]
    fn build_and_check_roundtrip() {
        let payload: Vec<u8> = (0..45u8).collect();
        let cell = OwnedSarCell::build(17, false, false, &payload).unwrap();
        assert!(cell.check_crc());
        assert_eq!(cell.header().seq, 17);
        assert!(!cell.header().final_cell);
        assert_eq!(cell.payload(), &payload[..]);
    }

    #[test]
    fn short_payload_zero_padded() {
        let cell = OwnedSarCell::build(0, true, false, &[0xAA; 10]).unwrap();
        assert_eq!(&cell.payload()[..10], &[0xAA; 10]);
        assert!(cell.payload()[10..].iter().all(|&b| b == 0));
        assert!(cell.check_crc());
    }

    #[test]
    fn build_rejects_oversized_payload() {
        assert_eq!(OwnedSarCell::build(0, true, false, &[0u8; 46]).err(), Some(Error::TooLong));
    }

    #[test]
    fn build_rejects_bad_seq() {
        assert_eq!(
            OwnedSarCell::build(0x400, true, false, &[0u8; 1]).err(),
            Some(Error::Malformed)
        );
    }

    #[test]
    fn corruption_anywhere_fails_crc() {
        // All 384 bits: payload, sequence number, flags, the CRC field
        // itself and the two unused header bits.
        let cell = OwnedSarCell::build(5, false, true, &[0x5A; 45]).unwrap();
        for pos in 0..PAYLOAD_SIZE {
            for bit in 0..8 {
                let mut buf = cell.clone().into_inner();
                buf[pos] ^= 1 << bit;
                let corrupted = SarCell::new_unchecked(buf);
                assert!(!corrupted.check_crc(), "flip at {pos}:{bit} undetected");
                assert_eq!(
                    SarCell::new_checked(corrupted.into_inner()).err(),
                    Some(Error::Checksum)
                );
            }
        }
    }

    #[test]
    fn build_equals_emit_copy_crc_emit() {
        // The construction `build` replaced: header with a zero CRC,
        // payload copied in behind it, CRC over the 48 octets, header
        // emitted again. Every payload length (so every padding), the
        // sequence-number corners, both flags.
        fn by_emit(seq: u16, final_cell: bool, control: bool, payload: &[u8]) -> [u8; 48] {
            let mut buf = [0u8; PAYLOAD_SIZE];
            let header = SarHeader { seq, final_cell, control, crc10: 0 };
            header.emit(&mut buf).unwrap();
            buf[SAR_HEADER_SIZE..SAR_HEADER_SIZE + payload.len()].copy_from_slice(payload);
            let header = SarHeader { crc10: crc::crc10(&buf), ..header };
            header.emit(&mut buf).unwrap();
            buf
        }
        let octets: Vec<u8> = (0..45u8).map(|i| i.wrapping_mul(151).wrapping_add(29)).collect();
        for len in 0..=SAR_PAYLOAD_SIZE {
            for seq in [0, 1, 511, MAX_SEQ] {
                for (f, c) in [(false, false), (false, true), (true, false), (true, true)] {
                    let cell = OwnedSarCell::build(seq, f, c, &octets[..len]).unwrap();
                    let want = by_emit(seq, f, c, &octets[..len]);
                    assert_eq!(cell.as_bytes(), &want, "len {len} seq {seq} F {f} C {c}");
                    let checked = SarCell::new_checked(cell.into_inner()).unwrap();
                    let header = SarHeader { seq, final_cell: f, control: c, ..checked.header() };
                    assert_eq!(checked.header(), header);
                }
            }
        }
    }

    #[test]
    fn checked_rejects_wrong_length() {
        assert_eq!(SarCell::new_checked(vec![0u8; 47]).err(), Some(Error::Truncated));
    }

    #[test]
    fn control_bit_separates_frame_types() {
        let data = OwnedSarCell::build(0, true, false, &[1; 45]).unwrap();
        let ctrl = OwnedSarCell::build(0, true, true, &[1; 45]).unwrap();
        assert!(!data.header().control);
        assert!(ctrl.header().control);
        assert_ne!(data.as_bytes(), ctrl.as_bytes());
    }

    #[test]
    fn payload_capacity_is_45() {
        assert_eq!(SAR_PAYLOAD_SIZE, 45);
        // §5.3 claims "a maximum of 91 ATM cells per reassembly buffer"
        // for a 4096-octet FDDI internet data segment. 4096/45 = 91.02,
        // so the claim holds exactly when the 8-octet LLC/SNAP header —
        // which the MPP appends *after* reassembly (§6.1) — is excluded:
        // the reassembled MCHIP frame is at most 4096 − 8 = 4088 octets.
        assert_eq!((4096usize - 8).div_ceil(SAR_PAYLOAD_SIZE), 91);
        // A raw 4096-octet segment would need 92; documented in DESIGN.md.
        assert_eq!(4096usize.div_ceil(SAR_PAYLOAD_SIZE), 92);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn header_roundtrip_any(seq in 0u16..=MAX_SEQ, f: bool, c: bool, crc in 0u16..=0x3FF) {
            let h = SarHeader { seq, final_cell: f, control: c, crc10: crc };
            let mut b = [0u8; 3];
            h.emit(&mut b).unwrap();
            prop_assert_eq!(SarHeader::parse(&b).unwrap(), h);
        }

        #[test]
        fn build_check_any_payload(seq in 0u16..=MAX_SEQ, f: bool, c: bool,
                                   payload in proptest::collection::vec(any::<u8>(), 0..=45)) {
            let cell = OwnedSarCell::build(seq, f, c, &payload).unwrap();
            prop_assert!(cell.check_crc());
            prop_assert_eq!(&cell.payload()[..payload.len()], &payload[..]);
        }

        #[test]
        fn single_flip_always_detected(seq in 0u16..=MAX_SEQ,
                                       payload in proptest::collection::vec(any::<u8>(), 45),
                                       pos in 0usize..48, bit in 0u8..8) {
            let cell = OwnedSarCell::build(seq, false, false, &payload).unwrap();
            let mut buf = cell.into_inner();
            buf[pos] ^= 1 << bit;
            // A 10-bit CRC detects all single-bit errors; note the flip
            // may land in the seq/F/C fields and change them, but the CRC
            // still covers those bits.
            prop_assert!(!SarCell::new_unchecked(buf).check_crc());
        }
    }
}
