//! Crate hygiene: every crate root keeps its compiler-enforced
//! guarantees.
//!
//! `#![forbid(unsafe_code)]` is the software analogue of the gateway
//! being built from fixed-function parts — no crate may smuggle in
//! undefined behaviour to "go faster", the structure itself must be
//! fast. `#![deny(missing_docs)]` keeps the paper-section cross-
//! references on every public item, which is how this reproduction
//! stays auditable against the design it models.

use crate::manifest::Crate;
use crate::strip::strip;
use crate::Diagnostic;
use std::path::Path;

/// Root-attribute lines every crate root must carry.
pub const REQUIRED_ATTRS: &[&str] = &["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"];

/// Check one member crate's root module for the required attributes.
pub fn check_crate(root: &Path, krate: &Crate) -> Vec<Diagnostic> {
    let dir = if krate.dir == "." { root.to_path_buf() } else { root.join(&krate.dir) };
    let (rel, path) = {
        let lib = dir.join("src/lib.rs");
        if lib.is_file() {
            (join_rel(&krate.dir, "src/lib.rs"), lib)
        } else {
            (join_rel(&krate.dir, "src/main.rs"), dir.join("src/main.rs"))
        }
    };
    let Ok(text) = std::fs::read_to_string(&path) else {
        return vec![Diagnostic {
            file: rel,
            line: 0,
            rule: "hygiene",
            message: "crate root not found (expected src/lib.rs or src/main.rs)".to_string(),
        }];
    };
    let stripped = strip(&text);
    REQUIRED_ATTRS
        .iter()
        .filter(|attr| !stripped.lines().any(|l| l.trim() == **attr))
        .map(|attr| Diagnostic {
            file: rel.clone(),
            line: 0,
            rule: "hygiene",
            message: format!("crate root is missing `{attr}`"),
        })
        .collect()
}

fn join_rel(dir: &str, file: &str) -> String {
    if dir == "." {
        file.to_string()
    } else {
        format!("{dir}/{file}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_lines_must_match_exactly() {
        // The check is line-exact on stripped text: a commented-out
        // attribute must not satisfy it.
        let stripped = strip("// #![forbid(unsafe_code)]\n#![deny(missing_docs)]\n");
        assert!(!stripped.lines().any(|l| l.trim() == REQUIRED_ATTRS[0]));
        assert!(stripped.lines().any(|l| l.trim() == REQUIRED_ATTRS[1]));
    }
}
