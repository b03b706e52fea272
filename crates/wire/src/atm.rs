//! The 53-octet ATM cell (§3 "Packet Format", Figure 2; §4.3 "AIC").
//!
//! A cell comprises a 5-octet header and a 48-octet information field.
//! The gateway targets the UNI header layout:
//!
//! ```text
//!  bit   7   6   5   4   3   2   1   0
//!      +---------------+---------------+
//!  [0] |      GFC      |   VPI (hi)    |
//!      +---------------+---------------+
//!  [1] |   VPI (lo)    |   VCI (hi)    |
//!      +---------------+---------------+
//!  [2] |           VCI (mid)           |
//!      +-----------+-------------------+
//!  [3] | VCI (lo)  |    PTI    | CLP   |
//!      +-----------+-------------------+
//!  [4] |              HEC              |
//!      +-------------------------------+
//! ```
//!
//! The AIC checks the HEC on inbound cells (discarding failures) and
//! generates it for outbound cells.

use crate::crc;
use crate::{Error, Result};

/// Total cell size in octets.
pub const CELL_SIZE: usize = 53;
/// Header size in octets.
pub const HEADER_SIZE: usize = 5;
/// Information-field size in octets.
pub const PAYLOAD_SIZE: usize = 48;

/// Virtual path identifier (8 bits at the UNI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Vpi(pub u8);

/// Virtual channel identifier (16 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Vci(pub u16);

impl core::fmt::Display for Vpi {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "vpi:{}", self.0)
    }
}

impl core::fmt::Display for Vci {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "vci:{}", self.0)
    }
}

/// Parsed representation of the 5-octet ATM cell header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AtmHeader {
    /// Generic flow control (4 bits, UNI only).
    pub gfc: u8,
    /// Virtual path identifier.
    pub vpi: Vpi,
    /// Virtual channel identifier.
    pub vci: Vci,
    /// Payload type indicator (3 bits).
    pub pti: u8,
    /// Cell loss priority (true = eligible for discard under congestion).
    pub clp: bool,
}

impl AtmHeader {
    /// A data-cell header on the given VPI/VCI with all other fields zero.
    pub fn data(vpi: Vpi, vci: Vci) -> Self {
        AtmHeader { gfc: 0, vpi, vci, pti: 0, clp: false }
    }

    /// Parse the first four octets (the HEC is *not* consulted here; use
    /// [`Cell::check_hec`] or [`crate::crc::hec_valid`] for that).
    #[inline]
    pub fn parse(bytes: &[u8]) -> Result<Self> {
        match bytes.first_chunk::<4>() {
            Some(&octets) => Ok(AtmHeader::from_word(u32::from_be_bytes(octets))),
            None => Err(Error::Truncated),
        }
    }

    /// Decode the header's first four octets held as one big-endian
    /// word — the form a per-cell path reads them in, so the fields are
    /// shifts of a register rather than reloads of a parsed struct
    /// (DESIGN.md §15).
    #[inline]
    pub fn from_word(word: u32) -> Self {
        AtmHeader {
            gfc: (word >> 28) as u8,
            vpi: Vpi((word >> 20) as u8),
            vci: Vci((word >> 4) as u16),
            pti: (word >> 1) as u8 & 0x07,
            clp: word & 1 != 0,
        }
    }

    /// Emit the full 5-octet header, computing the HEC, into `bytes`.
    #[inline]
    pub fn emit(&self, bytes: &mut [u8]) -> Result<()> {
        if bytes.len() < HEADER_SIZE {
            return Err(Error::Truncated);
        }
        if self.gfc > 0x0F || self.pti > 0x07 {
            return Err(Error::Malformed);
        }
        bytes[..HEADER_SIZE].copy_from_slice(&self.to_bytes());
        Ok(())
    }

    /// The header as a 5-octet array (HEC included). Field widths are
    /// masked to their on-wire sizes (GFC 4 bits, PTI 3 bits), so
    /// packing cannot fail; [`AtmHeader::emit`] is the variant that
    /// reports out-of-range fields instead of truncating them.
    #[inline]
    pub fn to_bytes(&self) -> [u8; HEADER_SIZE] {
        let mut b = [0u8; HEADER_SIZE];
        b[0] = ((self.gfc & 0x0F) << 4) | (self.vpi.0 >> 4);
        b[1] = (self.vpi.0 << 4) | ((self.vci.0 >> 12) as u8 & 0x0F);
        b[2] = (self.vci.0 >> 4) as u8;
        b[3] = ((self.vci.0 << 4) as u8) | ((self.pti & 0x07) << 1) | (self.clp as u8);
        b[4] = crc::hec(&b[..4]);
        b
    }
}

/// A typed view over a 53-octet ATM cell buffer.
///
/// Wraps any `AsRef<[u8]>`; mutating accessors additionally require
/// `AsMut<[u8]>`. Constructing with [`Cell::new_checked`] verifies length
/// and HEC, mirroring what the AIC does in hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub struct Cell<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Cell<T> {
    /// Wrap a buffer without any checks.
    pub fn new_unchecked(buffer: T) -> Cell<T> {
        Cell { buffer }
    }

    /// Wrap a buffer, ensuring it is exactly one cell long and its HEC
    /// verifies — the AIC's inbound filter (§4.3).
    pub fn new_checked(buffer: T) -> Result<Cell<T>> {
        let cell = Cell::new_unchecked(buffer);
        let data = cell.buffer.as_ref();
        if data.len() != CELL_SIZE {
            return Err(Error::Truncated);
        }
        if !crc::hec_valid(&data[..HEADER_SIZE]) {
            return Err(Error::Checksum);
        }
        Ok(cell)
    }

    /// Release the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Parse the header fields. A buffer shorter than a header is only
    /// reachable through [`Cell::new_unchecked`]; it reads as the
    /// all-zero header, and VCI 0 is never programmed, so such a cell
    /// falls to the unknown-VC drop-and-count path rather than
    /// panicking — the hardware has no panic.
    pub fn header(&self) -> AtmHeader {
        AtmHeader::parse(self.buffer.as_ref()).unwrap_or(AtmHeader {
            gfc: 0,
            vpi: Vpi(0),
            vci: Vci(0),
            pti: 0,
            clp: false,
        })
    }

    /// Verify the header error check.
    pub fn check_hec(&self) -> bool {
        crc::hec_valid(&self.buffer.as_ref()[..HEADER_SIZE])
    }

    /// The 48-octet information field.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_SIZE..CELL_SIZE]
    }

    /// The whole 53-octet cell.
    pub fn as_bytes(&self) -> &[u8] {
        self.buffer.as_ref()
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Cell<T> {
    /// Write the header (computing the HEC) into the cell.
    pub fn set_header(&mut self, header: &AtmHeader) -> Result<()> {
        header.emit(self.buffer.as_mut())
    }

    /// Mutable access to the information field.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_SIZE..CELL_SIZE]
    }
}

/// An owned cell, the common currency between the simulated networks and
/// the gateway.
pub type OwnedCell = Cell<[u8; CELL_SIZE]>;

impl OwnedCell {
    /// Build a cell from a header and a 48-octet information field.
    pub fn build(header: &AtmHeader, payload: &[u8]) -> Result<OwnedCell> {
        if payload.len() != PAYLOAD_SIZE {
            return Err(Error::Malformed);
        }
        let mut buf = [0u8; CELL_SIZE];
        header.emit(&mut buf)?;
        buf[HEADER_SIZE..].copy_from_slice(payload);
        Ok(Cell::new_unchecked(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> AtmHeader {
        AtmHeader { gfc: 0x3, vpi: Vpi(0xAB), vci: Vci(0x1234), pti: 0b010, clp: true }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let bytes = h.to_bytes();
        let parsed = AtmHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn header_roundtrip_extremes() {
        for (gfc, vpi, vci, pti, clp) in
            [(0, 0, 0, 0, false), (0xF, 0xFF, 0xFFFF, 0x7, true), (0x5, 0x01, 0x8000, 0x4, false)]
        {
            let h = AtmHeader { gfc, vpi: Vpi(vpi), vci: Vci(vci), pti, clp };
            assert_eq!(AtmHeader::parse(&h.to_bytes()).unwrap(), h);
        }
    }

    #[test]
    fn emit_rejects_out_of_range_fields() {
        let mut h = sample_header();
        h.gfc = 0x10;
        assert_eq!(h.emit(&mut [0u8; 5]), Err(Error::Malformed));
        let mut h = sample_header();
        h.pti = 0x08;
        assert_eq!(h.emit(&mut [0u8; 5]), Err(Error::Malformed));
    }

    #[test]
    fn emit_rejects_short_buffer() {
        assert_eq!(sample_header().emit(&mut [0u8; 4]), Err(Error::Truncated));
    }

    #[test]
    fn word_decode_places_every_field() {
        // Each field alone at all ones, then all fields at once.
        for h in [
            AtmHeader { gfc: 0xF, ..Default::default() },
            AtmHeader { vpi: Vpi(0xFF), ..Default::default() },
            AtmHeader { vci: Vci(0xFFFF), ..Default::default() },
            AtmHeader { pti: 0x7, ..Default::default() },
            AtmHeader { clp: true, ..Default::default() },
            sample_header(),
        ] {
            let [a, b, c, d, _] = h.to_bytes();
            assert_eq!(AtmHeader::from_word(u32::from_be_bytes([a, b, c, d])), h);
        }
    }

    #[test]
    fn parse_rejects_short_buffer() {
        assert_eq!(AtmHeader::parse(&[0u8; 3]), Err(Error::Truncated));
    }

    #[test]
    fn checked_cell_accepts_good_hec() {
        let cell = OwnedCell::build(&sample_header(), &[7u8; PAYLOAD_SIZE]).unwrap();
        let buf = cell.into_inner();
        assert!(Cell::new_checked(buf).is_ok());
    }

    #[test]
    fn checked_cell_rejects_bad_hec() {
        let cell = OwnedCell::build(&sample_header(), &[7u8; PAYLOAD_SIZE]).unwrap();
        let mut buf = cell.into_inner();
        buf[1] ^= 0x40;
        assert_eq!(Cell::new_checked(buf).err(), Some(Error::Checksum));
    }

    #[test]
    fn checked_cell_rejects_wrong_length() {
        assert_eq!(Cell::new_checked(vec![0u8; 52]).err(), Some(Error::Truncated));
        assert_eq!(Cell::new_checked(vec![0u8; 54]).err(), Some(Error::Truncated));
    }

    #[test]
    fn payload_is_48_octets_and_mutable() {
        let mut cell = OwnedCell::build(&sample_header(), &[0u8; PAYLOAD_SIZE]).unwrap();
        assert_eq!(cell.payload().len(), PAYLOAD_SIZE);
        cell.payload_mut()[0] = 0xEE;
        assert_eq!(cell.payload()[0], 0xEE);
        // Header untouched by payload writes.
        assert_eq!(cell.header(), sample_header());
    }

    #[test]
    fn build_rejects_wrong_payload_size() {
        assert_eq!(OwnedCell::build(&sample_header(), &[0u8; 47]).err(), Some(Error::Malformed));
    }

    #[test]
    fn cell_size_constant_is_53() {
        assert_eq!(CELL_SIZE, HEADER_SIZE + PAYLOAD_SIZE);
        assert_eq!(CELL_SIZE, 53);
    }
}
