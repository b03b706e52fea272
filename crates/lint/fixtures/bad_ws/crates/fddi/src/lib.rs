//! Fixture ring crate: hygienic, no findings of its own.

/// Hygienic otherwise.
pub fn ttrt_ms() -> u64 {
    8
}
