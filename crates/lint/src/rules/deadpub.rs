//! Dead `pub`: every public function, constant and static of a library
//! crate has a caller outside that library.
//!
//! The paper's gateway keeps its surface narrow by construction: the
//! NPE reaches the critical path only through a few registers and the
//! N × 8-octet ICXT tables (§4.2, §6.1). The software copy keeps the
//! same discipline by refusing a `pub` item that nothing outside its
//! own crate names — such an item is either crate-internal (and says so
//! with `pub(crate)`) or dead.
//!
//! A **library** is any workspace member with a `src/lib.rs`; its own
//! source tree is `src/` less the bin targets (`src/main.rs`,
//! `src/bin/`). A **caller** is any `.rs` file outside that tree under
//! a member's `src/`, `tests/`, `examples/` or `benches/` — other
//! crates, every bin and example, and every `tests/` directory,
//! including the library's own (an integration test can only reach
//! `pub`) — plus the workspace's `benchmark/src`, the frozen harness
//! that compiles against the libraries from outside the workspace.
//!
//! Matching is by identifier: an item is live when its name appears as
//! a token in some caller's comment- and string-stripped source. Two
//! items sharing a name keep each other live; the rule accepts that
//! imprecision to stay a token scan. Types, fields, modules and
//! re-exports are out of scope, because they leak through signatures
//! that a token-level rule cannot follow.

use crate::manifest::{walk_rs, Workspace};
use crate::strip;
use crate::Diagnostic;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// Per-member directories whose `.rs` files can call a library.
const CALLER_DIRS: &[&str] = &["src", "tests", "examples", "benches"];

/// The out-of-workspace harness whose source counts as a caller.
const BENCHMARK_SRC: &str = "benchmark/src";

/// Report every `pub fn`/`pub const`/`pub static` of a library crate
/// that no caller names.
pub fn check(root: &Path, workspace: &Workspace) -> io::Result<Vec<Diagnostic>> {
    let mut paths = Vec::new();
    for krate in &workspace.crates {
        for dir in CALLER_DIRS {
            let d = root.join(&krate.dir).join(dir);
            if d.is_dir() {
                walk_rs(&d, &mut paths)?;
            }
        }
    }
    if root.join(BENCHMARK_SRC).is_dir() {
        walk_rs(&root.join(BENCHMARK_SRC), &mut paths)?;
    }
    let mut files: Vec<(String, String)> = Vec::new();
    for path in paths {
        let Ok(rel) = path.strip_prefix(root) else { continue };
        let rel = rel.to_string_lossy().replace('\\', "/");
        let rel = rel.strip_prefix("./").unwrap_or(&rel).to_string();
        files.push((rel, strip::strip(&std::fs::read_to_string(&path)?)));
    }
    files.sort();
    let idents: Vec<HashSet<&str>> = files.iter().map(|(_, text)| identifiers(text)).collect();

    let mut diags = Vec::new();
    for krate in &workspace.crates {
        let src = if krate.dir == "." { "src/".to_string() } else { format!("{}/src/", krate.dir) };
        if !root.join(&src).join("lib.rs").is_file() {
            continue;
        }
        let (main_rs, bin_dir) = (format!("{src}main.rs"), format!("{src}bin/"));
        let own = |rel: &str| rel.starts_with(&src) && rel != main_rs && !rel.starts_with(&bin_dir);
        let outside: Vec<_> =
            files.iter().zip(&idents).filter(|((f, _), _)| !own(f)).map(|(_, ids)| ids).collect();
        for (rel, stripped) in files.iter().filter(|(rel, _)| own(rel)) {
            let prepared = strip::blank_cfg_test(stripped);
            for (i, line) in prepared.lines().enumerate() {
                let Some((kind, name)) = pub_item(line) else { continue };
                if !outside.iter().any(|ids| ids.contains(name)) {
                    diags.push(Diagnostic {
                        file: rel.clone(),
                        line: i + 1,
                        rule: "dead-pub",
                        message: format!(
                            "`pub {kind} {name}` is named nowhere outside {}'s own source: \
                             narrow it to `pub(crate)`, or delete it",
                            krate.name
                        ),
                    });
                }
            }
        }
    }
    Ok(diags)
}

/// The identifier tokens of stripped source.
fn identifiers(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| t.starts_with(|c: char| c.is_alphabetic() || c == '_'))
        .collect()
}

/// `(kind, name)` when `line` declares a `pub` (not `pub(…)`) fn,
/// const or static.
fn pub_item(line: &str) -> Option<(&'static str, &str)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?.trim_start();
    let kind = if let Some(r) = rest.strip_prefix("static ") {
        rest = r.trim_start();
        rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        "static"
    } else {
        let mut is_const = false;
        loop {
            if let Some(r) = rest.strip_prefix("const ") {
                is_const = true;
                rest = r.trim_start();
            } else if let Some(r) = rest.strip_prefix("unsafe ").or(rest.strip_prefix("async ")) {
                rest = r.trim_start();
            } else {
                break;
            }
        }
        if let Some(r) = rest.strip_prefix("fn ") {
            rest = r.trim_start();
            "fn"
        } else if is_const {
            "const"
        } else {
            return None;
        }
    };
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
    let name = &rest[..end];
    (!name.is_empty() && name != "_").then_some((kind, name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognises_each_item_form() {
        assert_eq!(pub_item("    pub fn run(x: u8) {"), Some(("fn", "run")));
        assert_eq!(pub_item("pub const fn cells() -> usize {"), Some(("fn", "cells")));
        assert_eq!(pub_item("pub unsafe fn raw() {"), Some(("fn", "raw")));
        assert_eq!(pub_item("pub const MAX: usize = 1;"), Some(("const", "MAX")));
        assert_eq!(pub_item("pub static TABLE: [u8; 4] = [0; 4];"), Some(("static", "TABLE")));
        assert_eq!(pub_item("pub static mut COUNT: u8 = 0;"), Some(("static", "COUNT")));
        assert_eq!(pub_item("pub(crate) fn inner() {"), None);
        assert_eq!(pub_item("pub struct Ring {"), None);
        assert_eq!(pub_item("pub const _: () = ();"), None);
        assert_eq!(pub_item("fn private() {"), None);
    }

    #[test]
    fn identifiers_skip_numbers() {
        let ids = identifiers("let x = a::b_c(3, 0x2a);");
        assert!(ids.contains("b_c") && ids.contains("x") && !ids.contains("3"));
    }
}
