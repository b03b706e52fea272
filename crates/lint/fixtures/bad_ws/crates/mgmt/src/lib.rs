//! Fixture management crate: hygienic and off the critical path, so it
//! contributes no findings of its own. It calls into the fixture
//! `gw-sim`, and decoys that crate's dead items in text only. Off the
//! hot scope, it may lower a hot lint for the whole module.
#![allow(clippy::unwrap_used, reason = "fixture: not a hot module")]

/// Non-critical code may allocate and use maps freely.
pub fn registry() -> std::collections::HashMap<String, u64> {
    std::collections::HashMap::new()
}

/// A sibling-crate caller. Naming `only_mentioned` in this comment, or
/// in the string below, does not make it live.
pub fn tick() -> u8 {
    let _label = "gw_sim::only_mentioned()";
    gw_sim::sibling_called()
}
