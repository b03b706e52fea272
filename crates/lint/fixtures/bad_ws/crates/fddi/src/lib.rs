//! Fixture ring crate. Violation on purpose: `deny(unsafe_code)` where
//! `forbid` is required — only `gw-wire` may relax its root, and a
//! `deny` can be re-allowed further down where a `forbid` cannot.
#![deny(unsafe_code)]
#![deny(missing_docs)]

/// Hygienic otherwise.
pub fn ttrt_ms() -> u64 {
    8
}
