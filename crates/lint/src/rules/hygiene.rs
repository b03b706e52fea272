//! Crate hygiene: every crate root keeps its compiler-enforced
//! guarantees.
//!
//! `#![forbid(unsafe_code)]` is the software analogue of the gateway
//! being built from fixed-function parts — no crate may smuggle in
//! undefined behaviour to "go faster", the structure itself must be
//! fast. `#![deny(missing_docs)]` keeps the paper-section cross-
//! references on every public item, which is how this reproduction
//! stays auditable against the design it models.
//!
//! One exemption, and the lint proves it is one file: `gw-wire`'s
//! checksum kernels call `#[target_feature]` functions (DESIGN.md §15),
//! which is an `unsafe` call however safe the callee. So that crate's
//! root may carry `#![deny(unsafe_code)]` instead, [`KERNEL_FILE`]
//! alone may re-allow it — for at most [`KERNEL_UNSAFE_BUDGET`]
//! `unsafe` blocks — and an `unsafe` token or `allow(unsafe_code)`
//! anywhere else under the crate's `src/` is a finding. Like every
//! hygiene finding, none of these can be allowlisted.

use super::safety::has_unsafe_token;
use crate::manifest::Crate;
use crate::strip::strip;
use crate::Diagnostic;
use std::path::Path;

/// Root-attribute lines every crate root must carry.
pub const REQUIRED_ATTRS: &[&str] = &["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"];

/// The crate whose root may carry [`EXEMPT_ROOT_ATTR`] in place of
/// `#![forbid(unsafe_code)]`.
pub const EXEMPT_CRATE_DIR: &str = "crates/wire";
/// What the exempted root carries instead.
pub const EXEMPT_ROOT_ATTR: &str = "#![deny(unsafe_code)]";
/// The one file of that crate that may contain `allow(unsafe_code)` and
/// `unsafe`.
pub const KERNEL_FILE: &str = "crates/wire/src/crc/clmul.rs";
/// How many lines of [`KERNEL_FILE`] may carry an `unsafe` token: one
/// call per kernel.
pub const KERNEL_UNSAFE_BUDGET: usize = 2;

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
    let has = |attr: &str| stripped.lines().any(|l| l.trim() == attr);
    REQUIRED_ATTRS
        .iter()
        .filter(|attr| {
            let exempt = **attr == REQUIRED_ATTRS[0] && krate.dir == EXEMPT_CRATE_DIR;
            !(has(attr) || exempt && has(EXEMPT_ROOT_ATTR))
        })
        .map(|attr| Diagnostic {
            file: rel.clone(),
            line: 0,
            rule: "hygiene",
            message: format!("crate root is missing `{attr}`"),
        })
        .collect()
}

/// Hold the `unsafe` exemption to its one file. `stripped` is the
/// comment- and string-stripped source, test code included: the
/// compiler's `deny` covers test modules too, and so does this.
pub fn check_file(rel: &str, stripped: &str) -> Vec<Diagnostic> {
    if !rel.strip_prefix(EXEMPT_CRATE_DIR).is_some_and(|rest| rest.starts_with("/src/")) {
        return Vec::new();
    }
    let finding = |line: usize, message: String| Diagnostic {
        file: rel.to_string(),
        line,
        rule: "hygiene",
        message,
    };
    let in_kernel_file = rel == KERNEL_FILE;
    let mut diags = Vec::new();
    let mut unsafe_lines = 0;
    for (idx, line) in stripped.lines().enumerate() {
        if has_unsafe_token(line) {
            unsafe_lines += 1;
            if !in_kernel_file {
                diags
                    .push(finding(idx + 1, format!("`unsafe` in gw-wire outside `{KERNEL_FILE}`")));
            } else if unsafe_lines > KERNEL_UNSAFE_BUDGET {
                diags.push(finding(
                    idx + 1,
                    format!(
                        "more than {KERNEL_UNSAFE_BUDGET} `unsafe` blocks in the kernel file: \
                         the exemption buys one call per kernel, nothing else"
                    ),
                ));
            }
        }
        if !in_kernel_file && line.contains("allow(unsafe_code)") {
            diags.push(finding(
                idx + 1,
                format!("`allow(unsafe_code)` in gw-wire outside `{KERNEL_FILE}`"),
            ));
        }
    }
    diags
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

    #[test]
    fn the_exemption_is_one_file_and_two_blocks() {
        let src = "#![allow(unsafe_code)]\nfn f() { unsafe { g() } }\n";
        // In the kernel file: within budget, nothing to say.
        assert!(check_file(KERNEL_FILE, src).is_empty());
        // A third `unsafe` line there is over budget.
        let three = "unsafe { a() }\nunsafe { b() }\nunsafe { c() }\n";
        let diags = check_file(KERNEL_FILE, three);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        // Anywhere else in gw-wire both the attribute and the token are
        // findings; outside gw-wire this rule is silent (those roots
        // `forbid`, so the compiler already refuses both).
        let diags = check_file("crates/wire/src/sar.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "hygiene"));
        assert!(check_file("crates/wirex/src/lib.rs", src).is_empty());
        assert!(check_file("src/bin/gwd.rs", src).is_empty());
    }
}
