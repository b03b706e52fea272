//! FDDI MAC frames and the token (§3, Figure 2).
//!
//! FDDI frames are variable-size, 64 to 4500 octets (paper Figure 2).
//! The MAC frame layout modeled here (preamble and start/end delimiters
//! are line symbols, not octets, and are accounted for as transmission
//! overhead by the ring simulation, not stored in buffers):
//!
//! ```text
//!  | 1  |   6    |   6    |  0..=4483  |  4  |
//!  +----+--------+--------+------------+-----+
//!  | FC |   DA   |   SA   |    INFO    | FCS |
//!  +----+--------+--------+------------+-----+
//! ```
//!
//! * `FC` — frame control: class (synchronous/asynchronous), format
//!   (LLC / MAC / SMT), and async priority (§3 "Access").
//! * `DA`/`SA` — 48-bit addresses; FDDI supports point-to-point, group
//!   (multicast) and broadcast addressing (§3 "Addressing"). The
//!   group bit is the most significant bit of the first octet.
//! * `FCS` — 32-bit CRC over FC..INFO.
//!
//! MCHIP frames ride in INFO behind an 8-octet LLC/SNAP header
//! ("LLC specific header", §6.1), which the MPP's Header Builder emits
//! from its fixed-header register.

use crate::crc;
use crate::{Error, Result};

/// Maximum total frame size in octets (paper Figure 2).
pub const MAX_FRAME_SIZE: usize = 4500;
/// Minimum total frame size in octets (paper Figure 2). Shorter frames
/// are padded on emission.
pub const MIN_FRAME_SIZE: usize = 64;
/// Octets of fixed fields: FC + DA + SA + FCS.
pub const FIXED_FIELDS: usize = 1 + 6 + 6 + 4;
/// Maximum INFO field length.
const MAX_INFO: usize = MAX_FRAME_SIZE - FIXED_FIELDS;
/// The LLC/SNAP encapsulation header the gateway prepends to MCHIP
/// frames: `AA AA 03` (SNAP) + zero OUI + a 2-octet protocol id.
pub const LLC_SNAP_SIZE: usize = 8;
/// Protocol identifier used for MCHIP inside SNAP (locally assigned).
const MCHIP_PROTO_ID: u16 = 0x88F1;

/// A 48-bit FDDI MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FddiAddr(pub [u8; 6]);

impl FddiAddr {
    /// The broadcast address (all ones).
    pub const BROADCAST: FddiAddr = FddiAddr([0xFF; 6]);

    /// A (locally administered) individual station address from an index.
    pub fn station(index: u32) -> FddiAddr {
        let b = index.to_be_bytes();
        FddiAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// A group (multicast) address from a group id: group bit set.
    pub fn group(id: u32) -> FddiAddr {
        let b = id.to_be_bytes();
        FddiAddr([0x83, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// True when the group (I/G) bit is set — group or broadcast.
    pub fn is_group(&self) -> bool {
        self.0[0] & 0x80 != 0
    }

    /// True for the all-ones broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl core::fmt::Display for FddiAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let a = &self.0;
        write!(f, "{:02x}-{:02x}-{:02x}-{:02x}-{:02x}-{:02x}", a[0], a[1], a[2], a[3], a[4], a[5])
    }
}

/// Frame-control values: the class/format byte at the head of each frame.
///
/// Encoded per ANSI X3.139 `CLFF ZZZZ`: `C` = class (1 = synchronous),
/// `L` = address length (always 1 here, 48-bit), `FF` = format
/// (01 = LLC, 00 = MAC/SMT), `ZZZZ` = control bits / async priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameControl {
    /// A non-restricted token.
    Token,
    /// MAC claim frame (TTRT bidding).
    MacClaim,
    /// MAC beacon frame (ring fault isolation).
    MacBeacon,
    /// Station-management frame.
    Smt,
    /// Asynchronous LLC frame with a 3-bit priority.
    LlcAsync {
        /// Priority 0 (lowest) ..= 7 (highest).
        priority: u8,
    },
    /// Synchronous LLC frame (time-critical traffic, §3 "Access").
    LlcSync,
}

impl FrameControl {
    /// Encode to the FC octet.
    pub fn to_byte(self) -> u8 {
        match self {
            FrameControl::Token => 0x80,
            FrameControl::MacClaim => 0xC3,
            FrameControl::MacBeacon => 0xC2,
            FrameControl::Smt => 0x41,
            FrameControl::LlcAsync { priority } => 0x50 | (priority & 0x07),
            FrameControl::LlcSync => 0xD0,
        }
    }

    /// Decode from the FC octet.
    pub fn from_byte(b: u8) -> Result<FrameControl> {
        match b {
            0x80 => Ok(FrameControl::Token),
            0xC3 => Ok(FrameControl::MacClaim),
            0xC2 => Ok(FrameControl::MacBeacon),
            0x41 => Ok(FrameControl::Smt),
            0xD0 => Ok(FrameControl::LlcSync),
            b if b & 0xF8 == 0x50 => Ok(FrameControl::LlcAsync { priority: b & 0x07 }),
            _ => Err(Error::Malformed),
        }
    }
}

/// A typed view over an FDDI MAC frame buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap without checks.
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Wrap, checking structural length, a known FC value, and the FCS.
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        let frame = Frame::new_unchecked(buffer);
        let data = frame.buffer.as_ref();
        if data.len() < FIXED_FIELDS {
            return Err(Error::Truncated);
        }
        if data.len() > MAX_FRAME_SIZE {
            return Err(Error::TooLong);
        }
        FrameControl::from_byte(data[0])?;
        if !frame.check_fcs() {
            return Err(Error::Checksum);
        }
        Ok(frame)
    }

    /// Release the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// The frame-control field.
    pub fn frame_control(&self) -> Result<FrameControl> {
        FrameControl::from_byte(self.buffer.as_ref()[0])
    }

    /// Destination address.
    pub fn dst(&self) -> FddiAddr {
        let mut a = [0u8; 6];
        a.copy_from_slice(&self.buffer.as_ref()[1..7]);
        FddiAddr(a)
    }

    /// Source address.
    pub fn src(&self) -> FddiAddr {
        let mut a = [0u8; 6];
        a.copy_from_slice(&self.buffer.as_ref()[7..13]);
        FddiAddr(a)
    }

    /// The INFO field (everything between SA and FCS).
    pub fn info(&self) -> &[u8] {
        let data = self.buffer.as_ref();
        &data[13..data.len() - 4]
    }

    /// The stored FCS value.
    pub fn fcs(&self) -> u32 {
        let data = self.buffer.as_ref();
        let n = data.len();
        u32::from_be_bytes([data[n - 4], data[n - 3], data[n - 2], data[n - 1]])
    }

    /// Verify the FCS over FC..INFO.
    pub fn check_fcs(&self) -> bool {
        let data = self.buffer.as_ref();
        data.len() >= FIXED_FIELDS && crc::crc32(&data[..data.len() - 4]) == self.fcs()
    }

    /// Total length in octets.
    pub fn len(&self) -> usize {
        self.buffer.as_ref().len()
    }

    /// True when the buffer is empty (never true for a checked frame).
    pub fn is_empty(&self) -> bool {
        self.buffer.as_ref().is_empty()
    }

    /// The whole frame as bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.buffer.as_ref()
    }
}

/// Parsed, owned representation of an FDDI frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub struct FrameRepr {
    /// Frame control.
    pub fc: FrameControl,
    /// Destination address.
    pub dst: FddiAddr,
    /// Source address.
    pub src: FddiAddr,
    /// INFO field contents (before padding).
    pub info: Vec<u8>,
}

impl FrameRepr {
    /// Parse from a checked frame view.
    #[expect(
        clippy::disallowed_methods,
        reason = "owned-repr convenience for control code; the cell path reads Frame views in place"
    )]
    pub fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Result<FrameRepr> {
        Ok(FrameRepr {
            fc: frame.frame_control()?,
            dst: frame.dst(),
            src: frame.src(),
            info: frame.info().to_vec(),
        })
    }

    /// Emit a complete frame, computing the FCS and padding to the
    /// 64-octet minimum (paper Figure 2).
    #[expect(
        clippy::disallowed_methods,
        reason = "owned-repr convenience; the cell path emits into recycled buffers via emit_frame_into"
    )]
    pub fn emit(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        emit_frame_into(self.fc, self.dst, self.src, &[&self.info], &mut out)?;
        Ok(out)
    }

    /// Total emitted size (including minimum-frame padding).
    pub fn emitted_len(&self) -> usize {
        (FIXED_FIELDS + self.info.len()).max(MIN_FRAME_SIZE)
    }
}

/// Emit a complete FDDI frame — FCS computed, padded to the 64-octet
/// minimum — appending to `out`, with the INFO field given as a
/// concatenation of `info_parts` so callers can scatter-gather (LLC/SNAP
/// header + MCHIP frame) straight into a recycled staging buffer with no
/// intermediate copies. Returns the emitted length.
pub fn emit_frame_into(
    fc: FrameControl,
    dst: FddiAddr,
    src: FddiAddr,
    info_parts: &[&[u8]],
    out: &mut Vec<u8>,
) -> Result<usize> {
    let info_len: usize = info_parts.iter().map(|p| p.len()).sum();
    if info_len > MAX_INFO {
        return Err(Error::TooLong);
    }
    let body_len = FIXED_FIELDS + info_len;
    let padded = body_len.max(MIN_FRAME_SIZE);
    let base = out.len();
    out.reserve(padded);
    out.push(fc.to_byte());
    out.extend_from_slice(&dst.0);
    out.extend_from_slice(&src.0);
    for part in info_parts {
        out.extend_from_slice(part);
    }
    out.resize(base + padded, 0);
    let fcs = crc::crc32(&out[base..base + padded - 4]);
    let n = out.len();
    out[n - 4..].copy_from_slice(&fcs.to_be_bytes());
    Ok(padded)
}

/// Build the 8-octet LLC/SNAP header for MCHIP encapsulation.
pub fn llc_snap_header() -> [u8; LLC_SNAP_SIZE] {
    let p = MCHIP_PROTO_ID.to_be_bytes();
    [0xAA, 0xAA, 0x03, 0x00, 0x00, 0x00, p[0], p[1]]
}

/// Strip and validate the LLC/SNAP header from an INFO field, returning
/// the MCHIP frame bytes.
pub fn strip_llc_snap(info: &[u8]) -> Result<&[u8]> {
    if info.len() < LLC_SNAP_SIZE {
        return Err(Error::Truncated);
    }
    if info[..LLC_SNAP_SIZE] != llc_snap_header() {
        return Err(Error::Malformed);
    }
    Ok(&info[LLC_SNAP_SIZE..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_station_is_individual() {
        let a = FddiAddr::station(42);
        assert!(!a.is_group());
        assert!(!a.is_broadcast());
    }

    #[test]
    fn addr_group_and_broadcast() {
        assert!(FddiAddr::group(3).is_group());
        assert!(!FddiAddr::group(3).is_broadcast());
        assert!(FddiAddr::BROADCAST.is_group());
        assert!(FddiAddr::BROADCAST.is_broadcast());
    }

    #[test]
    fn addr_display_format() {
        assert_eq!(FddiAddr([0, 1, 2, 0xAB, 0xCD, 0xEF]).to_string(), "00-01-02-ab-cd-ef");
    }

    #[test]
    fn distinct_stations_distinct_addrs() {
        assert_ne!(FddiAddr::station(1), FddiAddr::station(2));
        assert_ne!(FddiAddr::group(1), FddiAddr::station(1));
    }

    #[test]
    fn frame_control_roundtrip() {
        let all = [
            FrameControl::Token,
            FrameControl::MacClaim,
            FrameControl::MacBeacon,
            FrameControl::Smt,
            FrameControl::LlcSync,
            FrameControl::LlcAsync { priority: 0 },
            FrameControl::LlcAsync { priority: 7 },
        ];
        for fc in all {
            assert_eq!(FrameControl::from_byte(fc.to_byte()).unwrap(), fc);
        }
    }

    #[test]
    fn frame_control_rejects_unknown() {
        assert_eq!(FrameControl::from_byte(0xFF), Err(Error::Malformed));
        assert_eq!(FrameControl::from_byte(0x00), Err(Error::Malformed));
    }

    fn sample_repr(info_len: usize) -> FrameRepr {
        FrameRepr {
            fc: FrameControl::LlcAsync { priority: 4 },
            dst: FddiAddr::station(7),
            src: FddiAddr::station(1),
            info: (0..info_len).map(|i| i as u8).collect(),
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = sample_repr(200);
        let bytes = repr.emit().unwrap();
        let frame = Frame::new_checked(&bytes[..]).unwrap();
        let parsed = FrameRepr::parse(&frame).unwrap();
        assert_eq!(parsed.fc, repr.fc);
        assert_eq!(parsed.dst, repr.dst);
        assert_eq!(parsed.src, repr.src);
        assert_eq!(&parsed.info[..200], &repr.info[..]);
    }

    #[test]
    fn small_frames_padded_to_minimum() {
        let repr = sample_repr(4);
        let bytes = repr.emit().unwrap();
        assert_eq!(bytes.len(), MIN_FRAME_SIZE);
        assert_eq!(repr.emitted_len(), MIN_FRAME_SIZE);
        assert!(Frame::new_checked(&bytes[..]).is_ok());
    }

    #[test]
    fn max_info_accepted_beyond_rejected() {
        let repr = sample_repr(MAX_INFO);
        let bytes = repr.emit().unwrap();
        assert_eq!(bytes.len(), MAX_FRAME_SIZE);
        assert!(Frame::new_checked(&bytes[..]).is_ok());
        let too_big = sample_repr(MAX_INFO + 1);
        assert_eq!(too_big.emit().err(), Some(Error::TooLong));
    }

    #[test]
    fn corrupted_frame_fails_fcs() {
        let bytes = sample_repr(100).emit().unwrap();
        for pos in [0usize, 1, 13, 50, bytes.len() - 5] {
            let mut b = bytes.clone();
            b[pos] ^= 0x01;
            // FC corruption may also make the FC field unparseable; either
            // way new_checked refuses it.
            assert!(Frame::new_checked(&b[..]).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn corrupted_fcs_detected() {
        let mut bytes = sample_repr(100).emit().unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert_eq!(Frame::new_checked(&bytes[..]).err(), Some(Error::Checksum));
    }

    #[test]
    fn checked_rejects_truncated_and_oversized() {
        assert_eq!(Frame::new_checked(&[0u8; 16][..]).err(), Some(Error::Truncated));
        assert_eq!(
            Frame::new_checked(&vec![0u8; MAX_FRAME_SIZE + 1][..]).err(),
            Some(Error::TooLong)
        );
    }

    #[test]
    fn llc_snap_roundtrip() {
        let mut info = llc_snap_header().to_vec();
        info.extend_from_slice(b"mchip-frame");
        assert_eq!(strip_llc_snap(&info).unwrap(), b"mchip-frame");
    }

    #[test]
    fn llc_snap_rejects_wrong_header() {
        let mut info = llc_snap_header().to_vec();
        info[0] = 0xAB;
        info.extend_from_slice(b"x");
        assert_eq!(strip_llc_snap(&info).err(), Some(Error::Malformed));
        assert_eq!(strip_llc_snap(&[0xAA; 4]).err(), Some(Error::Truncated));
    }

    #[test]
    fn frame_views_expose_fields() {
        let repr = sample_repr(64);
        let bytes = repr.emit().unwrap();
        let frame = Frame::new_unchecked(&bytes[..]);
        assert_eq!(frame.dst(), FddiAddr::station(7));
        assert_eq!(frame.src(), FddiAddr::station(1));
        assert_eq!(frame.info().len(), 64);
        assert_eq!(frame.len(), bytes.len());
        assert!(!frame.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_fc() -> impl Strategy<Value = FrameControl> {
        prop_oneof![
            Just(FrameControl::Smt),
            Just(FrameControl::LlcSync),
            (0u8..8).prop_map(|p| FrameControl::LlcAsync { priority: p }),
        ]
    }

    proptest! {
        #[test]
        fn emit_parse_any(fc in arb_fc(), dst in any::<u32>(), src in any::<u32>(),
                          info in proptest::collection::vec(any::<u8>(), 0..600)) {
            let repr = FrameRepr {
                fc,
                dst: FddiAddr::station(dst),
                src: FddiAddr::station(src),
                info: info.clone(),
            };
            let bytes = repr.emit().unwrap();
            prop_assert!(bytes.len() >= MIN_FRAME_SIZE);
            let frame = Frame::new_checked(&bytes[..]).unwrap();
            prop_assert_eq!(frame.frame_control().unwrap(), fc);
            prop_assert_eq!(&frame.info()[..info.len()], &info[..]);
        }

        #[test]
        fn any_flip_detected(info in proptest::collection::vec(any::<u8>(), 50..200),
                             pos_frac in 0.0f64..1.0, bit in 0u8..8) {
            let repr = FrameRepr {
                fc: FrameControl::LlcAsync { priority: 0 },
                dst: FddiAddr::BROADCAST,
                src: FddiAddr::station(9),
                info,
            };
            let mut bytes = repr.emit().unwrap();
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= 1 << bit;
            prop_assert!(Frame::new_checked(&bytes[..]).is_err());
        }
    }
}
