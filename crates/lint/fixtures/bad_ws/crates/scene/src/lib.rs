//! Fixture scenario crate: hygienic source so every finding it draws
//! comes from its manifest (the illegal internal dependency, plus
//! being illegally reachable from the fixture `gw-wire`).

/// Scenario text is plain data; parsing it may allocate freely.
pub fn canonicalize(src: &str) -> String {
    src.trim().to_string()
}
