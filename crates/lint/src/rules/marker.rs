//! Markers: rustc and clippy enforce the critical path's lint levels
//! (DESIGN.md §8), but cannot say *where* those levels must be set.
//! This family holds the settings themselves: every designated hot
//! module carries [`HOT_BLOCK`] verbatim; no module under the hot scope
//! lowers one of its lints with a module-level `#![allow]`,
//! `#![expect]` or `#![warn]` (one function opts out with its own
//! `#[expect]`, which goes stale loudly); and every member inherits
//! the workspace lint table, except the two crates with listed
//! `unsafe` sites, whose own tables are that table with `unsafe_code`
//! at `deny`.

use crate::manifest::Workspace;
use crate::{strip, Diagnostic};

/// The lint block every hot module carries. Test code is exempt, as it
/// is from the hardware's per-cell budget.
pub const HOT_BLOCK: &str = "#![cfg_attr(
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
)]";

/// The files the paper's critical path maps onto: the wire-format and
/// SAR crate roots (the block covers every module under them), the
/// core crate's per-cell and per-frame machinery, and the VCI index.
/// The rest of `crates/core` (NPE, supervisor, snapshot…) is the
/// software non-critical path by design.
const HOT_FILES: &[&str] = &[
    "crates/wire/src/lib.rs",
    "crates/sar/src/lib.rs",
    "crates/core/src/gateway.rs",
    "crates/core/src/mpp.rs",
    "crates/core/src/spp.rs",
    "crates/core/src/buffers.rs",
    "crates/core/src/fifo.rs",
    "crates/sim/src/index.rs",
];

/// Crates whose whole `src/` the block covers.
const HOT_CRATES: &[&str] = &["crates/wire/src/", "crates/sar/src/"];

/// Members with their own lint table: the workspace's, with
/// `unsafe_code` lowered to `deny` for their listed `unsafe` sites.
const OWN_TABLE: &[&str] = &[".", "crates/wire"];

/// Check one source file: the block where it is required, and no
/// module-level lowering of a hot lint anywhere under the hot scope.
/// `stripped` is the comment- and string-stripped text.
pub(crate) fn check_file(rel: &str, stripped: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if HOT_FILES.contains(&rel) && !stripped.contains(HOT_BLOCK) {
        let message = "designated hot module lacks the hot-lint block `HOT_BLOCK`, or alters it";
        diags.push(finding(rel, 0, message.to_string()));
    }
    if !(HOT_FILES.contains(&rel) || HOT_CRATES.iter().any(|p| rel.starts_with(p))) {
        return diags;
    }
    let mut from = 0;
    while let Some(at) = stripped[from..].find("#![").map(|i| i + from) {
        from = stripped[at..].find(")]").map_or(stripped.len(), |i| at + i + 2);
        let attr = &stripped[at..from];
        let lowers = ["allow(", "expect(", "warn("].iter().any(|level| attr.contains(level));
        if let Some(lint) = words(HOT_BLOCK).find(|lint| lowers && words(attr).any(|w| w == *lint))
        {
            let message = format!(
                "module-level attribute lowers `{lint}` for a whole hot module; opt one \
                 function out with `#[expect({lint}, reason = \"…\")]`"
            );
            diags.push(finding(rel, strip::line_of(stripped, at), message));
        }
    }
    diags
}

/// Check the designated files exist and each member's lint table.
pub(crate) fn check_workspace(workspace: &Workspace, sources: &[String]) -> Vec<Diagnostic> {
    let missing = HOT_FILES.iter().filter(|file| !sources.iter().any(|s| s == *file));
    let message = "designated hot module not found; move `HOT_FILES` with it";
    let mut diags: Vec<_> = missing.map(|file| finding(file, 0, message.to_string())).collect();
    let own: Vec<String> = workspace
        .lints
        .iter()
        .map(|l| l.replace("rust.unsafe_code = \"forbid\"", "rust.unsafe_code = \"deny\""))
        .collect();
    for krate in &workspace.crates {
        let (expected, what) = if OWN_TABLE.contains(&krate.dir.as_str()) {
            (own.clone(), "the workspace lint table with `unsafe_code = \"deny\"`")
        } else {
            (vec!["workspace = true".to_string()], "`[lints] workspace = true`")
        };
        if krate.lints != expected {
            let manifest = format!("{}/Cargo.toml", krate.dir);
            let message = format!("`{}` must carry {what}", krate.name);
            diags.push(finding(manifest.trim_start_matches("./"), 0, message));
        }
    }
    diags
}

fn finding(file: &str, line: usize, message: String) -> Diagnostic {
    Diagnostic { file: file.to_string(), line, rule: "marker", message }
}

/// The `clippy::` lint paths named in `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .filter(|w| w.starts_with("clippy::"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_block_names_nine_lints() {
        assert_eq!(super::words(super::HOT_BLOCK).count(), 9);
    }
}
