// gw-lint: critical-path
//! Wire formats for the ATM-FDDI gateway reproduction.
//!
//! This crate implements every on-the-wire data format the gateway design
//! (Kapoor & Parulkar, SIGCOMM '91) touches:
//!
//! * [`atm`] — the 53-octet ATM cell with its 5-octet header (GFC / VPI /
//!   VCI / PTI / CLP) protected by the HEC, an 8-bit CRC (§3, §4.3 "AIC").
//! * [`sar`] — the 3-octet segmentation-and-reassembly header carried
//!   inside the 48-octet cell payload: a 10-bit sequence number, an F
//!   (final-cell) bit, a C (control) bit, and a 10-bit CRC covering the
//!   entire information field (paper Figure 5, §5.2).
//! * [`fddi`] — FDDI MAC frames (frame control, 48-bit addresses with
//!   group/broadcast support, LLC/SNAP encapsulation, 32-bit FCS) and the
//!   token (§3, Figure 2).
//! * [`mchip`] — MCHIP frames: the internet-protocol frames the gateway
//!   forwards, identified by a 2-octet internet channel number (§6.1).
//! * [`crc`] — the three checksum generators/validators the hardware
//!   implements (HEC CRC-8, SAR CRC-10, FDDI FCS CRC-32).
//!
//! # Design idiom
//!
//! Following the smoltcp style, each format offers:
//!
//! * a **view type** (`Cell<T>`, `Frame<T>`, …) wrapping any `AsRef<[u8]>`
//!   buffer with checked constructors and field accessors — zero-copy
//!   parsing, and in-place emission when `T: AsMut<[u8]>`;
//! * a **repr type** (`AtmHeader`, `SarHeader`, …), a plain Rust struct
//!   holding the parsed high-level representation with `parse` / `emit`;
//! * explicit [`Error`] values — malformed input never panics.

// `deny`, not `forbid`: `crc/clmul.rs` alone re-allows it, for the two
// calls into its `#[target_feature]` kernels (DESIGN.md §15). gw-lint
// holds the exemption to that one file.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod atm;
pub mod crc;
pub mod fddi;
pub mod hec_correct;
pub mod mchip;
pub mod pool;
pub mod sar;

/// Errors produced when parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Error {
    /// The buffer is shorter than the format's fixed header, or shorter
    /// than the length its header declares.
    Truncated,
    /// A checksum (HEC, SAR CRC-10, or FDDI FCS) did not verify.
    Checksum,
    /// A field holds a value outside its legal range (for example a
    /// sequence number wider than 10 bits, or an oversized payload).
    Malformed,
    /// The frame length exceeds the maximum the format permits.
    TooLong,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer truncated"),
            Error::Checksum => write!(f, "checksum mismatch"),
            Error::Malformed => write!(f, "malformed field"),
            Error::TooLong => write!(f, "frame exceeds maximum length"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the wire crate.
pub type Result<T> = core::result::Result<T, Error>;

pub use atm::{AtmHeader, Cell, Vci, Vpi, CELL_SIZE, HEADER_SIZE, PAYLOAD_SIZE};
pub use fddi::{FddiAddr, Frame, FrameControl, MAX_FRAME_SIZE, MIN_FRAME_SIZE};
pub use hec_correct::{HecMode, HecOutcome, HecReceiver};
pub use mchip::{Icn, MchipHeader, MchipType, MCHIP_HEADER_SIZE};
pub use pool::{BufPool, PoolStats};
pub use sar::{SarCell, SarHeader, SAR_HEADER_SIZE, SAR_PAYLOAD_SIZE};
