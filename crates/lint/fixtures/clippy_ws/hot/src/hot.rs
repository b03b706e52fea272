//! Fixture hot module: every construct clippy.toml bans and every
//! panic the block denies, one to a line, each with the lint expected
//! on its line in a `//~` comment (what gw-lint's `hot-path` rule
//! planted, and its `no-lock` rule in `locks.rs`).
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::disallowed_macros,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

pub mod locks;

use std::collections::BTreeMap; //~ clippy::disallowed_types
use std::collections::HashMap; //~ clippy::disallowed_types

/// Panicking combinators and macros.
pub fn panics(input: Option<u8>, parsed: Result<u8, ()>, k: u8) -> u8 {
    let a = input.unwrap(); //~ clippy::unwrap_used
    let b = parsed.expect("parsed"); //~ clippy::expect_used
    match k {
        0 => panic!("zero"), //~ clippy::panic
        1 => todo!(), //~ clippy::todo
        2 => unimplemented!(), //~ clippy::unimplemented
        3 => unreachable!(), //~ clippy::unreachable
        _ => a + b,
    }
}

/// Allocations and copies.
pub fn allocates(cells: &[u8], name: &str, held: &Owned) -> usize {
    let a: Vec<u8> = Vec::new(); //~ clippy::disallowed_methods
    let b: Vec<u8> = Vec::with_capacity(4); //~ clippy::disallowed_methods
    let c = Box::new(1u8); //~ clippy::disallowed_methods
    let d = String::new(); //~ clippy::disallowed_methods
    let e = name.to_owned(); //~ clippy::disallowed_methods
    let f = name.to_string(); //~ clippy::disallowed_methods
    let g = held.clone(); //~ clippy::disallowed_methods
    let h = cells.to_vec(); //~ clippy::disallowed_methods
    let i = vec![0u8; cells.len()]; //~ clippy::disallowed_macros
    let j = format!("{name}{}", cells.len()); //~ clippy::disallowed_macros
    a.len() + b.len() + usize::from(*c) + d.len() + e.len() + f.len() + g.bytes.len() + h.len() + i.len() + j.len()
}

/// Hashed and tree maps.
pub fn maps(
    hashed: &HashMap<u16, u8>, //~ clippy::disallowed_types
    ordered: &BTreeMap<u16, u8>, //~ clippy::disallowed_types
) -> usize {
    hashed.len() + ordered.len()
}

/// A per-connection function opts out with its reason, as gw-lint's
/// `// gw-lint: setup-path — why` marker did: dark.
#[expect(clippy::disallowed_methods, reason = "sizes a table once, at install time")]
pub fn install(entries: usize) -> Vec<u8> {
    Vec::with_capacity(entries)
}

/// An opt-out whose function no longer does what it excuses is stale,
/// and says so.
#[expect(clippy::disallowed_methods, reason = "stale")] //~ unfulfilled_lint_expectations
pub fn stale() -> u8 {
    1
}

/// A derived `Clone` over an owned field opts out on the type.
#[derive(Clone)]
#[allow(clippy::disallowed_methods, reason = "derived `Clone`")]
pub struct Owned {
    /// The bytes.
    pub bytes: Vec<u8>,
}

/// Decoys: `.unwrap()`, `HashMap` and `Vec::new()` in a comment, and in
/// the string below, are not calls.
pub fn decoys() -> &'static str {
    // input.unwrap(); let m: HashMap<u8, u8> = HashMap::new();
    "input.unwrap(); Vec::new(); format!(); panic!()"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic_and_allocate() {
        let v: Option<Vec<u8>> = Some(vec![1]);
        assert_eq!(v.clone().unwrap().len(), 1);
        let _ = format!("{v:?}").to_string();
    }
}
