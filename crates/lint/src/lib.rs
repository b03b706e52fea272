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
//!    critical-path code: every engine owns its state outright, and
//!    this family admits no allowlist entries at all.
//!
//! The analyzer is deliberately token-level and dependency-free: it
//! strips comments and string literals (preserving line numbers), blanks
//! `#[cfg(test)]` items, and then scans for banned constructs. Surviving
//! exceptions live in the checked-in [`allowlist`] (`gw-lint.allow`),
//! where every entry carries a one-line justification; stale or
//! unjustified entries fail the lint, and the hardware-model crates
//! (`crates/wire`, `crates/sar`) admit no entries at all.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allowlist;
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
    /// Rule family — one of [`rules::FAMILIES`]: `hot-path`, `no-lock`,
    /// `layering`, `hygiene`, `safety`, `exhaustive`, `marker`, or
    /// `allowlist`.
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

/// Outcome of a full workspace pass: surviving diagnostics plus the
/// bookkeeping the JSON report and the allowlist-drift check need.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Diagnostics that survived allowlist filtering, sorted by file
    /// and line. Any entry here fails the lint.
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics suppressed by an allowlist entry, with the entry's
    /// justification attached (kept for the report's audit trail).
    pub suppressed: Vec<(Diagnostic, String)>,
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
/// Reads every member crate's manifest and `src/**/*.rs`, applies all
/// rule families, then filters through `gw-lint.allow` (allowlist drift
/// itself producing diagnostics).
pub fn run(root: &Path) -> std::io::Result<Outcome> {
    let workspace = manifest::Workspace::discover(root)?;
    let mut outcome = Outcome {
        crates: workspace.crates.iter().map(|c| c.name.clone()).collect(),
        ..Outcome::default()
    };

    let mut raw = Vec::new();
    raw.extend(rules::layering::check(&workspace));
    for krate in &workspace.crates {
        raw.extend(rules::hygiene::check_crate(root, krate));
    }

    let sources = workspace.source_files(root)?;
    outcome.files_scanned = sources.len();
    for file in &sources {
        let text = std::fs::read_to_string(root.join(file))?;
        raw.extend(rules::scan_file(file, &text));
    }

    let allow = allowlist::Allowlist::load(root);
    let (kept, suppressed, drift) =
        allow.apply(raw, |rel| std::fs::read_to_string(root.join(rel)).ok());
    outcome.diagnostics = kept;
    outcome.suppressed = suppressed;
    outcome.diagnostics.extend(drift);
    outcome.diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(outcome)
}
