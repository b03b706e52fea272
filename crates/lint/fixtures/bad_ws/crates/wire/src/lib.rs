// Fixture crate root. Violations on purpose:
//  - hygiene: missing #![forbid(unsafe_code)] (or the #![deny(unsafe_code)]
//    this one crate may carry instead) and #![deny(missing_docs)]; `unsafe`
//    outside the one kernel file, here and re-allowed in fast.rs
//  - marker: a designated critical-path file without its marker
//  - hot-path: unwrap / HashMap / Vec::new / clone in critical code
//  - no-lock: Mutex and .lock( in critical code
//  - safety: an unsafe block and an unsafe impl without SAFETY arguments
//  - exhaustive: wildcard arm over a wire-format enum
// The #[cfg(test)] module and the string/comment decoys below must NOT
// produce findings.

use std::collections::HashMap;

pub fn hot_cell_path(input: Option<u8>, table: &HashMap<u16, u8>) -> u8 {
    let v = input.unwrap();
    let copy = table.clone();
    let mut scratch = Vec::new();
    scratch.push(v);
    copy.get(&0).copied().unwrap_or(0)
}

pub enum FrameControl {
    Token,
    LlcAsync,
}

pub fn classify(fc: FrameControl) -> u8 {
    match fc {
        FrameControl::Token => 1,
        _ => 0,
    }
}

// gw-lint: setup-path — fixture: table sizing runs once at install time
pub fn install_tables() -> Vec<u8> {
    let exempt = Vec::with_capacity(64);
    exempt
}

pub fn serialized(m: &std::sync::Mutex<u8>) -> u8 {
    match m.lock() {
        Ok(g) => *g,
        Err(_) => 0,
    }
}

pub fn peek(v: &[u8]) -> u8 {
    unsafe { *v.as_ptr() }
}

pub struct Token(pub *const u8);
unsafe impl Send for Token {}

pub fn decoys() -> &'static str {
    // .unwrap() or unsafe inside a comment is not a finding, and neither
    // is the string below.
    "call .expect( and panic! and unsafe and match _ => nothing"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_only_code_is_exempt() {
        let v: Option<u8> = None;
        v.expect("test code may panic");
    }
}
