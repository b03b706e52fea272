// Fixture crate without crate docs: gw-lint's `hygiene` rule planted a root missing `#![deny(missing_docs)]` and `#![forbid(unsafe_code)]`; the workspace table sets both.

pub fn undocumented() -> u8 { //~ missing_docs missing_docs
    1
}

/// `unsafe` where the workspace forbids it.
pub fn peek(v: &[u8; 1]) -> u8 {
    // SAFETY: `v` holds one byte, but the crate forbids `unsafe`.
    unsafe { *v.as_ptr() } //~ unsafe_code
}
