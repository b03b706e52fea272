//! FDDI timed-token ring simulation (§3 and Figure 2 of the paper;
//! ANSI X3.139 MAC subset).
//!
//! The paper's gateway sits on an FDDI ring through the AMD SUPERNET
//! chip set, which implements the PHY and MAC in silicon. Because the
//! gateway's performance is entangled with token-ring dynamics (it may
//! transmit only while holding the token, §4.2), this crate implements
//! the timed-token MAC itself rather than stubbing it:
//!
//! * [`mac`] — the per-station timed-token timer rules: token rotation
//!   timer (TRT), token holding timer (THT), late count, synchronous
//!   allocation. Pure state machine, exhaustively unit-tested, and the
//!   subject of experiment E12 (TRT ≤ 2×TTRT, after Johnson's proof,
//!   paper reference \[6\]).
//! * [`claim`] — the claim-token process that negotiates the target
//!   token rotation time (TTRT) as the minimum of station bids.
//! * [`ring`] — the event-driven ring: token circulation, synchronous
//!   then asynchronous transmission within MAC limits, frame delivery
//!   by destination address (point-to-point, group, broadcast — §3
//!   "Addressing"), source stripping, and SUPERNET-style statistics
//!   registers (§4.3 "SUPERNET").
//!
//! Rates and sizes come from Figure 2: 100 Mb/s, 64–4500-octet frames,
//! up to 1000 stations, 200 km maximum ring length.

pub mod claim;
pub mod mac;
pub mod ring;
pub mod smt;

pub use claim::ClaimOutcome;
pub use mac::{MacTimers, TokenDisposition};
pub use ring::{Delivery, Ring, RingConfig, RingStats, StationConfig, StationStats};
pub use smt::{Nif, SmtMonitor};

/// FDDI line rate (Figure 2): 100 Mb/s.
pub const FDDI_BIT_RATE: u64 = 100_000_000;
/// Nanoseconds to transmit one octet at 100 Mb/s.
pub const NS_PER_OCTET: u64 = 80;
/// Token length in octet-times (preamble + SD + FC + ED ≈ 11 octets).
pub(crate) const TOKEN_OCTETS: usize = 11;
/// Per-frame line overhead in octet-times (preamble, SD, ED/FS symbols).
pub const FRAME_OVERHEAD_OCTETS: usize = 10;
/// Maximum stations on a ring (Figure 2).
pub const MAX_STATIONS: usize = 1000;
/// Maximum ring circumference in kilometres (Figure 2).
pub const MAX_RING_KM: u64 = 200;
/// Propagation delay per kilometre of fibre (≈ 5.085 µs/km; we use 5 µs).
pub(crate) const NS_PER_KM: u64 = 5_000;
