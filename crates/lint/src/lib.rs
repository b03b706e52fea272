//! `gw-lint` — the checks behind the paper's critical-path /
//! non-critical-path split that rustc and clippy cannot make.
//!
//! The ATM-FDDI gateway (Kapoor & Parulkar, SIGCOMM '91) runs the
//! per-cell **critical path** in hardware with fixed lookup tables,
//! bounded work and no dynamic resource acquisition, and connection
//! setup and every exception on the **non-critical path** in software
//! (the NPE). The compiler checks most of the software image of that
//! line from the type-checked program (DESIGN.md §8):
//!
//! | Discipline | Enforced by |
//! |---|---|
//! | no allocation, maps, locks or panics on the critical path | clippy.toml's `disallowed-{methods,macros,types}` plus `unwrap_used`, `expect_used`, `panic`, `todo`, `unimplemented`, `unreachable`, denied by each hot module's [`HOT_BLOCK`](rules::marker::HOT_BLOCK) |
//! | a per-connection function there says why | `#[expect(lint, reason = "…")]`: stale warns, no reason is an error |
//! | crate hygiene | `[workspace.lints]`: `missing_docs`, `unsafe_code` at `forbid` |
//! | every `unsafe` carries its argument | `clippy::undocumented_unsafe_blocks` |
//!
//! The `unsafe` budget — two opt-ins, both in gw-wire's `crc/clmul.rs`
//! — is a count, which clippy cannot keep; CI greps for it. What else
//! the compiler cannot say stays here, in four families (see [`rules`]):
//!
//! 1. **layering** — the crate DAG matches the paper's architecture
//!    (wire formats at the bottom, management off the cell path);
//! 2. **exhaustive** — no wildcard `_ =>` arm in a `match` over the four
//!    wire-format enums, anywhere: a new protocol variant is a build
//!    break, not a silent drop. Clippy's `wildcard_enum_match_arm` is
//!    scoped by module, not by enum; workspace-wide it fires on about
//!    60 arms over unrelated enums;
//! 3. **marker** — the lint levels above are set where the design puts
//!    them (see [`rules::marker`]);
//! 4. **dead-pub** — every `pub fn`/`const`/`static` of a library is
//!    named by a caller outside its own source (see [`rules::deadpub`]).
//!
//! The analyzer is token-level: it strips comments and string literals
//! (preserving line numbers), blanks `#[cfg(test)]` items where a rule
//! wants that, and scans. Its one dependency is `gw-sim`'s JSON writer,
//! a leaf crate. There is no exception file.

pub mod manifest;
pub mod report;
pub mod rules;
pub mod strip;

use std::path::{Path, PathBuf};

/// One `file:line` finding, tagged with the rule that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file (or manifest).
    pub file: String,
    /// 1-based line number; 0 when the finding is file- or crate-level.
    pub line: usize,
    /// Rule family — one of `rules::FAMILIES`: `layering`,
    /// `exhaustive`, `marker`, or `dead-pub`.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Render as the conventional `file:line: [rule] message` form.
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
        }
    }
}

/// Outcome of a full workspace pass: the diagnostics plus the
/// bookkeeping the JSON report needs.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every finding, sorted by file and line. Any entry here fails
    /// the lint.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Workspace crates discovered from the manifests.
    pub crates: Vec<String>,
}

impl Outcome {
    /// True when the workspace is clean.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Run the full pass over the workspace rooted at `root`.
///
/// Reads every member crate's manifest and `src/**/*.rs` and applies
/// all rule families.
pub fn run(root: &Path) -> std::io::Result<Outcome> {
    let workspace = manifest::Workspace::discover(root)?;
    let mut outcome = Outcome {
        crates: workspace.crates.iter().map(|c| c.name.clone()).collect(),
        ..Outcome::default()
    };

    outcome.diagnostics.extend(rules::layering::check(&workspace));
    outcome.diagnostics.extend(rules::deadpub::check(root, &workspace)?);

    let sources = workspace.source_files(root)?;
    outcome.diagnostics.extend(rules::marker::check_workspace(&workspace, &sources));
    outcome.files_scanned = sources.len();
    for file in &sources {
        let text = std::fs::read_to_string(root.join(file))?;
        outcome.diagnostics.extend(rules::scan_file(file, &text));
    }
    outcome.diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(outcome)
}
