//! Fixture ATM crate. Violation on purpose: the root carries
//! `deny(missing_docs)`, then a later `warn` downgrades it — the later
//! attribute wins, so an undocumented public item would only warn.
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_docs)]

/// Hygienic otherwise.
pub fn cell_octets() -> usize {
    53
}
