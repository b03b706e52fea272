//! `gw-lint` — the workspace static-analysis pass that enforces the
//! paper's critical-path / non-critical-path split.
//!
//! The ATM-FDDI gateway design (Kapoor & Parulkar, SIGCOMM '91) derives
//! its performance argument from a partition: the per-cell **critical
//! path** runs in hardware with fixed lookup tables, bounded worst-case
//! work and no dynamic resource acquisition, while connection setup and
//! every exception runs on the **non-critical path** in software (the
//! NPE). PR 3 restructured our software fast path to match that memory
//! model; this crate makes the discipline *checkable* so it survives
//! future PRs. The invariant families enforced (see [`rules`]):
//!
//! 1. **hot-path** — no panicking combinators, no map containers, no
//!    allocation inside the designated critical-path modules;
//! 2. **layering** — the crate dependency DAG matches the paper's
//!    architecture (wire formats at the bottom, management never
//!    reachable from the cell path);
//! 3. **hygiene** — every crate root keeps `#![forbid(unsafe_code)]`
//!    and `#![deny(missing_docs)]`; the one exemption (`gw-wire`'s
//!    checksum kernels) is held to one listed file;
//! 4. **safety** — every `unsafe` token (block or impl) carries its
//!    `// SAFETY:` soundness argument directly on it;
//! 5. **exhaustive** — no wildcard `_ =>` arms in `match`es over the
//!    wire-format enums, so a new protocol variant is a build break,
//!    not a silent drop;
//! 6. **no-lock** — no `Mutex`/`RwLock`/`.lock()`/library channels in
//!    critical-path code: every engine owns its state outright;
//! 7. **dead-pub** — every `pub fn`/`const`/`static` of a library crate
//!    is named by a caller outside its own source tree: another crate,
//!    a bin or example, any `tests/` directory (the crate's own too: an
//!    integration test can only reach `pub`), or the frozen
//!    `benchmark/src` harness. Unit tests are not callers. Types,
//!    fields and modules are out of scope — they leak through
//!    signatures a token scan cannot follow.
//!
//! The analyzer is deliberately token-level: it strips comments and
//! string literals (preserving line numbers), blanks `#[cfg(test)]`
//! items, and then scans for banned constructs. Its one dependency is
//! `gw-sim`'s JSON writer, a leaf crate. There is no exception file: a
//! finding is fixed, or — for a per-connection function living in a
//! critical-path file — carries a justified
//! `// gw-lint: setup-path — <why>` marker in the source.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

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
    /// Rule family — one of `rules::FAMILIES`: `hot-path`, `no-lock`,
    /// `layering`, `hygiene`, `safety`, `exhaustive`, `marker`, or
    /// `dead-pub`.
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
    for krate in &workspace.crates {
        outcome.diagnostics.extend(rules::hygiene::check_crate(root, krate));
    }

    let sources = workspace.source_files(root)?;
    outcome.files_scanned = sources.len();
    for file in &sources {
        let text = std::fs::read_to_string(root.join(file))?;
        outcome.diagnostics.extend(rules::scan_file(file, &text));
    }
    outcome.diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(outcome)
}
