//! Fixture SAR crate: its manifest's layering edge onto `gw-phy` is one
//! finding; the other is its hot-lint block, which has lost
//! `clippy::panic`.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::disallowed_macros,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

/// Panic-free per-cell logic.
pub fn chunk_len(first: bool) -> usize {
    if first {
        37
    } else {
        45
    }
}
