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
//! Carrying the attribute is not enough: a later `#![warn(missing_docs)]`
//! wins over an earlier `deny`, and the crate then only warns. So a
//! root that names `missing_docs` or `unsafe_code` again at a weaker
//! level than it requires is a finding too.
//!
//! One exemption, and the lint proves it is one file: `gw-wire`'s
//! checksum kernels call `#[target_feature]` functions (DESIGN.md §15),
//! which is an `unsafe` call however safe the callee. So that crate's
//! root may carry `#![deny(unsafe_code)]` instead, `KERNEL_FILE`
//! alone may re-allow it — for at most `KERNEL_UNSAFE_BUDGET`
//! `unsafe` blocks — and an `unsafe` token or `allow(unsafe_code)`
//! anywhere else under the crate's `src/` is a finding.

use super::safety::has_unsafe_token;
use crate::manifest::Crate;
use crate::strip::strip;
use crate::Diagnostic;
use std::path::Path;

/// Root-attribute lines every crate root must carry.
const REQUIRED_ATTRS: &[&str] = &["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"];

/// The crate whose root may carry [`EXEMPT_ROOT_ATTR`] in place of
/// `#![forbid(unsafe_code)]`.
const EXEMPT_CRATE_DIR: &str = "crates/wire";
/// What the exempted root carries instead.
const EXEMPT_ROOT_ATTR: &str = "#![deny(unsafe_code)]";
/// The one file of that crate that may contain `allow(unsafe_code)` and
/// `unsafe`.
const KERNEL_FILE: &str = "crates/wire/src/crc/clmul.rs";
/// How many lines of [`KERNEL_FILE`] may carry an `unsafe` token: one
/// call per kernel.
const KERNEL_UNSAFE_BUDGET: usize = 2;

/// Check one member crate's root module for the required attributes.
pub(crate) fn check_crate(root: &Path, krate: &Crate) -> Vec<Diagnostic> {
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
    let exempt = krate.dir == EXEMPT_CRATE_DIR && has(EXEMPT_ROOT_ATTR);
    let mut diags = Vec::new();
    for (attr, lint, level) in [
        (REQUIRED_ATTRS[0], "unsafe_code", if exempt { "deny" } else { "forbid" }),
        (REQUIRED_ATTRS[1], "missing_docs", "deny"),
    ] {
        if !(has(attr) || exempt && lint == "unsafe_code") {
            diags.push(Diagnostic {
                file: rel.clone(),
                line: 0,
                rule: "hygiene",
                message: format!("crate root is missing `{attr}`"),
            });
            continue;
        }
        for (idx, line) in stripped.lines().enumerate() {
            let Some((weaker, names)) = lint_attr(line) else { continue };
            if names.contains(&lint) && rank(weaker) < rank(level) {
                diags.push(Diagnostic {
                    file: rel.clone(),
                    line: idx + 1,
                    rule: "hygiene",
                    message: format!(
                        "`{}` lowers `{lint}` below the root's `{level}` \
                         (whichever comes later wins); delete it",
                        line.trim()
                    ),
                });
            }
        }
    }
    diags
}

/// Split an inner lint attribute such as `#![warn(missing_docs, unused)]`
/// into its level and the lints it names.
fn lint_attr(line: &str) -> Option<(&str, Vec<&str>)> {
    let inner = line.trim().strip_prefix("#![")?.strip_suffix(")]")?;
    let (level, names) = inner.split_once('(')?;
    rank(level)?;
    Some((level, names.split(',').map(str::trim).collect()))
}

/// Strength of a lint level; `None` for anything that is not one.
fn rank(level: &str) -> Option<u8> {
    match level {
        "allow" | "expect" => Some(0),
        "warn" => Some(1),
        "deny" => Some(2),
        "forbid" => Some(3),
        _ => None,
    }
}

/// Hold the `unsafe` exemption to its one file. `stripped` is the
/// comment- and string-stripped source, test code included: the
/// compiler's `deny` covers test modules too, and so does this.
pub(crate) fn check_file(rel: &str, stripped: &str) -> Vec<Diagnostic> {
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
    fn lint_attributes_parse_into_level_and_names() {
        assert_eq!(lint_attr("#![warn(missing_docs)]"), Some(("warn", vec!["missing_docs"])));
        assert_eq!(
            lint_attr("  #![allow(unused, unsafe_code)]"),
            Some(("allow", vec!["unused", "unsafe_code"]))
        );
        assert_eq!(lint_attr("#![cfg_attr(test, allow(missing_docs))]"), None);
        assert_eq!(lint_attr("#[warn(missing_docs)]"), None, "outer attributes are not roots'");
        assert!(rank("warn") < rank("deny") && rank("deny") < rank("forbid"));
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
