//! MCHIP frames — the internet-protocol frames the gateway forwards
//! (§2.4, §6).
//!
//! The paper specifies the parts of the MCHIP frame its gateway hardware
//! touches: each congram is identified by a **2-octet hop-by-hop internet
//! channel number (ICN)** which the MPP strips and translates at every
//! hop (§6.1), and the frame **type** must be decodable fast (the MPP
//! spends 2 clock cycles on it, §6.3). The companion MCHIP specification
//! reports (\[11\], \[3\]) are not reproduced here; the header below is the
//! minimal structure supporting every operation this paper requires:
//!
//! ```text
//!  | ver|type | flags |   ICN   |  length |  cksum  |  payload...
//!  |   1 oct  | 1 oct | 2 oct   |  2 oct  |  2 oct  |
//! ```
//!
//! * `ver|type` — 4-bit version, 4-bit frame type ([`MchipType`]).
//! * `ICN` — internet channel number, big-endian.
//! * `length` — payload octets following the 8-octet header.
//! * `cksum` — 16-bit ones'-complement sum over the header (cksum
//!   field zeroed), protecting routing state against header corruption.

use crate::{Error, Result};

/// MCHIP header size in octets.
pub const MCHIP_HEADER_SIZE: usize = 8;
/// Protocol version implemented here.
const MCHIP_VERSION: u8 = 1;

/// A 2-octet internet channel number: the hop-by-hop congram identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Icn(pub u16);

impl core::fmt::Display for Icn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "icn:{}", self.0)
    }
}

/// MCHIP frame types.
///
/// `Data` travels the hardware critical path; every other type is a
/// control frame routed to the NPE without header processing (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MchipType {
    /// User/application data on an established congram.
    Data = 0x0,
    /// Congram setup request (UCon or PICon establishment, §2.4).
    SetupRequest = 0x1,
    /// Positive setup response, confirming resources along the path.
    SetupConfirm = 0x2,
    /// Negative setup response (admission refused or no route).
    SetupReject = 0x3,
    /// Congram termination request.
    Teardown = 0x4,
    /// Termination acknowledgment.
    TeardownAck = 0x5,
    /// Congram path reconfiguration (survivability, §2.4).
    Reconfigure = 0x6,
    /// Reconfiguration acknowledgment.
    ReconfigureAck = 0x7,
    /// PICon liveness probe.
    Keepalive = 0x8,
    /// Gateway-internal initialization frame: the NPE programs SPP
    /// reassembly timers and MPP ICXT tables with these (§5.4, §6.2).
    Init = 0x9,
    /// Resource-manager report (utilization exchange, §2.3).
    ResourceReport = 0xA,
}

impl MchipType {
    /// Decode from a 4-bit value.
    pub fn from_nibble(n: u8) -> Result<MchipType> {
        Ok(match n {
            0x0 => MchipType::Data,
            0x1 => MchipType::SetupRequest,
            0x2 => MchipType::SetupConfirm,
            0x3 => MchipType::SetupReject,
            0x4 => MchipType::Teardown,
            0x5 => MchipType::TeardownAck,
            0x6 => MchipType::Reconfigure,
            0x7 => MchipType::ReconfigureAck,
            0x8 => MchipType::Keepalive,
            0x9 => MchipType::Init,
            0xA => MchipType::ResourceReport,
            _ => return Err(Error::Malformed),
        })
    }

    /// True for every type except `Data` — these bypass ICXT lookup and
    /// go to the NPE.
    pub fn is_control(self) -> bool {
        !matches!(self, MchipType::Data)
    }
}

/// Parsed representation of the MCHIP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MchipHeader {
    /// Protocol version.
    pub version: u8,
    /// Frame type.
    pub mtype: MchipType,
    /// Flag bits (bit 0: multipoint congram; others reserved).
    pub flags: u8,
    /// Internet channel number.
    pub icn: Icn,
    /// Payload length in octets.
    pub length: u16,
}

impl MchipHeader {
    /// A data-frame header for the given congram and payload length.
    pub fn data(icn: Icn, length: u16) -> MchipHeader {
        MchipHeader { version: MCHIP_VERSION, mtype: MchipType::Data, flags: 0, icn, length }
    }

    /// A control-frame header of the given type.
    pub fn control(mtype: MchipType, icn: Icn, length: u16) -> MchipHeader {
        MchipHeader { version: MCHIP_VERSION, mtype, flags: 0, icn, length }
    }

    fn checksum(bytes: &[u8; MCHIP_HEADER_SIZE]) -> u16 {
        let mut sum: u32 = 0;
        for pair in [0usize, 2, 4].iter().map(|&i| [bytes[i], bytes[i + 1]]) {
            sum += u16::from_be_bytes(pair) as u32;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Parse and verify the 8-octet header.
    pub fn parse(bytes: &[u8]) -> Result<MchipHeader> {
        if bytes.len() < MCHIP_HEADER_SIZE {
            return Err(Error::Truncated);
        }
        let mut hdr = [0u8; MCHIP_HEADER_SIZE];
        hdr.copy_from_slice(&bytes[..MCHIP_HEADER_SIZE]);
        let stored = u16::from_be_bytes([hdr[6], hdr[7]]);
        if Self::checksum(&hdr) != stored {
            return Err(Error::Checksum);
        }
        Ok(MchipHeader {
            version: hdr[0] >> 4,
            mtype: MchipType::from_nibble(hdr[0] & 0x0F)?,
            flags: hdr[1],
            icn: Icn(u16::from_be_bytes([hdr[2], hdr[3]])),
            length: u16::from_be_bytes([hdr[4], hdr[5]]),
        })
    }

    /// Emit the 8-octet header, computing the checksum.
    pub fn emit(&self, bytes: &mut [u8]) -> Result<()> {
        if bytes.len() < MCHIP_HEADER_SIZE {
            return Err(Error::Truncated);
        }
        if self.version > 0x0F {
            return Err(Error::Malformed);
        }
        bytes[0] = (self.version << 4) | (self.mtype as u8);
        bytes[1] = self.flags;
        bytes[2..4].copy_from_slice(&self.icn.0.to_be_bytes());
        bytes[4..6].copy_from_slice(&self.length.to_be_bytes());
        bytes[6] = 0;
        bytes[7] = 0;
        let mut hdr = [0u8; MCHIP_HEADER_SIZE];
        hdr.copy_from_slice(&bytes[..MCHIP_HEADER_SIZE]);
        let sum = Self::checksum(&hdr);
        bytes[6..8].copy_from_slice(&sum.to_be_bytes());
        Ok(())
    }
}

/// Build a complete MCHIP frame (header + payload) as owned bytes.
#[expect(
    clippy::disallowed_methods,
    reason = "owned convenience for congram control frames; the frame path uses build_frame_into with recycled buffers"
)]
pub fn build_frame(header: &MchipHeader, payload: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(MCHIP_HEADER_SIZE + payload.len());
    build_frame_into(header, payload, &mut out)?;
    Ok(out)
}

/// Build a complete MCHIP frame (header + payload), appending to `out` —
/// the allocation-free variant for recycled staging buffers.
pub fn build_frame_into(header: &MchipHeader, payload: &[u8], out: &mut Vec<u8>) -> Result<()> {
    if payload.len() != header.length as usize {
        return Err(Error::Malformed);
    }
    let mut hdr = [0u8; MCHIP_HEADER_SIZE];
    header.emit(&mut hdr)?;
    out.extend_from_slice(&hdr);
    out.extend_from_slice(payload);
    Ok(())
}

/// Build a data frame on `icn` carrying `payload`.
pub fn build_data_frame(icn: Icn, payload: &[u8]) -> Result<Vec<u8>> {
    if payload.len() > u16::MAX as usize {
        return Err(Error::TooLong);
    }
    build_frame(&MchipHeader::data(icn, payload.len() as u16), payload)
}

/// Parse a complete frame into header and payload slice. Trailing bytes
/// beyond the declared length (e.g. FDDI minimum-frame padding) are
/// ignored.
pub fn parse_frame(bytes: &[u8]) -> Result<(MchipHeader, &[u8])> {
    let header = MchipHeader::parse(bytes)?;
    let end = MCHIP_HEADER_SIZE + header.length as usize;
    if bytes.len() < end {
        return Err(Error::Truncated);
    }
    Ok((header, &bytes[MCHIP_HEADER_SIZE..end]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = MchipHeader::data(Icn(0xBEEF), 1234);
        let mut b = [0u8; 8];
        h.emit(&mut b).unwrap();
        assert_eq!(MchipHeader::parse(&b).unwrap(), h);
    }

    #[test]
    fn all_types_roundtrip() {
        for n in 0..=0xAu8 {
            let t = MchipType::from_nibble(n).unwrap();
            assert_eq!(t as u8, n);
            let h = MchipHeader::control(t, Icn(7), 0);
            let mut b = [0u8; 8];
            h.emit(&mut b).unwrap();
            assert_eq!(MchipHeader::parse(&b).unwrap().mtype, t);
        }
    }

    #[test]
    fn unknown_type_rejected() {
        for n in 0xBu8..=0xF {
            assert_eq!(MchipType::from_nibble(n), Err(Error::Malformed));
        }
    }

    #[test]
    fn only_data_is_noncontrol() {
        assert!(!MchipType::Data.is_control());
        for n in 1..=0xAu8 {
            assert!(MchipType::from_nibble(n).unwrap().is_control());
        }
    }

    #[test]
    fn checksum_detects_header_corruption() {
        let h = MchipHeader::data(Icn(0x1234), 99);
        let mut b = [0u8; 8];
        h.emit(&mut b).unwrap();
        for pos in 0..8 {
            let mut c = b;
            c[pos] ^= 0x10;
            assert!(MchipHeader::parse(&c).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn frame_build_parse_roundtrip() {
        let payload = b"application data".to_vec();
        let frame = build_data_frame(Icn(55), &payload).unwrap();
        let (h, p) = parse_frame(&frame).unwrap();
        assert_eq!(h.icn, Icn(55));
        assert_eq!(h.mtype, MchipType::Data);
        assert_eq!(p, &payload[..]);
    }

    #[test]
    fn parse_ignores_trailing_padding() {
        let mut frame = build_data_frame(Icn(1), b"abc").unwrap();
        frame.extend_from_slice(&[0u8; 40]); // FDDI min-frame padding
        let (h, p) = parse_frame(&frame).unwrap();
        assert_eq!(h.length, 3);
        assert_eq!(p, b"abc");
    }

    #[test]
    fn parse_rejects_short_payload() {
        let mut frame = build_data_frame(Icn(1), &[9u8; 50]).unwrap();
        frame.truncate(30);
        assert_eq!(parse_frame(&frame).err(), Some(Error::Truncated));
    }

    #[test]
    fn build_rejects_length_mismatch() {
        let h = MchipHeader::data(Icn(0), 10);
        assert_eq!(build_frame(&h, &[0u8; 9]).err(), Some(Error::Malformed));
    }

    #[test]
    fn emit_rejects_short_buffer() {
        let h = MchipHeader::data(Icn(0), 0);
        assert_eq!(h.emit(&mut [0u8; 7]), Err(Error::Truncated));
    }

    #[test]
    fn parse_rejects_short_buffer() {
        assert_eq!(MchipHeader::parse(&[0u8; 7]), Err(Error::Truncated));
    }

    #[test]
    fn header_is_8_octets() {
        assert_eq!(MCHIP_HEADER_SIZE, 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_any(icn: u16, len: u16, flags: u8, t in 0u8..=0xA) {
            let h = MchipHeader {
                version: MCHIP_VERSION,
                mtype: MchipType::from_nibble(t).unwrap(),
                flags,
                icn: Icn(icn),
                length: len,
            };
            let mut b = [0u8; 8];
            h.emit(&mut b).unwrap();
            prop_assert_eq!(MchipHeader::parse(&b).unwrap(), h);
        }

        #[test]
        fn data_frame_roundtrip(icn: u16, payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let frame = build_data_frame(Icn(icn), &payload).unwrap();
            let (h, p) = parse_frame(&frame).unwrap();
            prop_assert_eq!(h.icn, Icn(icn));
            prop_assert_eq!(p, &payload[..]);
        }
    }
}
