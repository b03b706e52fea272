//! Fixture management crate: hygienic and off the critical path, so it
//! contributes no findings of its own.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Non-critical code may allocate and use maps freely.
pub fn registry() -> std::collections::HashMap<String, u64> {
    std::collections::HashMap::new()
}
