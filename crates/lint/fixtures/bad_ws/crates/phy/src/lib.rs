//! Fixture transport crate: hygienic and off the critical path, so it
//! contributes no findings of its own.

/// Transports live outside the board and may allocate freely.
pub fn encapsulate(payload: &[u8]) -> Vec<u8> {
    payload.to_vec()
}
