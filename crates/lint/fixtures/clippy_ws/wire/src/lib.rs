//! Fixture crate like gw-wire: `unsafe_code` at `deny`, so a listed
//! site can opt in. What gw-lint's `hygiene` rule planted (`unsafe`
//! outside the opt-in) and its `safety` rule (`unsafe` without its
//! argument).

/// `unsafe` without an opt-in.
pub fn peek(v: &[u8; 1]) -> u8 {
    // SAFETY: `v` holds one byte, but nothing opted in.
    unsafe { *v.as_ptr() } //~ unsafe_code
}

/// An opt-in without its argument.
pub fn read(v: &[u8; 1]) -> Option<u8> {
    #[expect(unsafe_code, reason = "fixture")]
    let b = unsafe { *v.as_ptr() }; //~ clippy::undocumented_unsafe_blocks
    Some(b)
}

/// A pointer wrapper.
pub struct Token(pub *const u8);

#[expect(unsafe_code, reason = "fixture")]
unsafe impl Send for Token {} //~ clippy::undocumented_unsafe_blocks

/// An opt-in with its argument: dark.
pub fn first(v: &[u8; 4]) -> Option<u8> {
    #[expect(unsafe_code, reason = "fixture")]
    // SAFETY: `v` holds four bytes, so its first is in bounds.
    let b = unsafe { *v.as_ptr() };
    Some(b)
}

/// A lint allowed without saying why.
#[allow(clippy::too_many_arguments)] //~ clippy::allow_attributes_without_reason
pub fn many(a: u8, b: u8) -> u8 {
    a.wrapping_add(b)
}
