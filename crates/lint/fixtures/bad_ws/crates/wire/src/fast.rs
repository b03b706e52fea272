// gw-lint: critical-path
//! Fixture: a second file in `gw-wire` re-allowing `unsafe`. The
//! exemption names one kernel file; this is not it, so the attribute
//! below is a hygiene finding.
#![allow(unsafe_code)]

/// Hygienic otherwise.
pub fn double(v: u8) -> u8 {
    v.wrapping_mul(2)
}
