//! Fixture: a module under the hot scope that lowers one of the block's
//! lints for all of itself, where one function should opt out.
#![expect(clippy::unwrap_used, reason = "fixture: a whole module opted out")]
// Decoys: a lint that only shares a prefix with a hot one, and one
// function opting out on its own.
#![allow(clippy::panic_in_result_fn, reason = "fixture")]

/// Hygienic otherwise.
#[expect(clippy::unwrap_used, reason = "fixture: one function opted out")]
pub fn double(v: u8) -> u8 {
    v.wrapping_mul(2)
}
