//! The checked-in exception list, `gw-lint.allow`.
//!
//! Every surviving violation of the `hot-path` or `exhaustive` rules
//! must be listed here with a one-line justification —
//! the lint's equivalent of the paper putting an exception on the
//! non-critical path deliberately, with a reason. The file is audited
//! on every run:
//!
//! * entries that no longer match a diagnostic are **stale** and fail
//!   the lint (the allowlist may only shrink by deleting the entry);
//! * entries without a real justification fail the lint;
//! * entries for `crates/wire` or `crates/sar` fail the lint — the
//!   hardware-model crates admit no exceptions at all;
//! * `layering`, `hygiene`, `safety`, `marker`, and `no-lock` findings
//!   cannot be allowlisted — those are fixed, not excused (a lock is
//!   never an exception, it is a different concurrency model, and an
//!   unjustified `unsafe` is missing its proof, which belongs in the
//!   source).
//!
//! Format, one entry per line, `|`-separated:
//!
//! ```text
//! path | rule | needle | justification
//! crates/core/src/gateway.rs | hot-path | Vec::new | per-frame output vec; batched path reuses scratch
//! ```
//!
//! `needle` must occur in the diagnostic's source line (or, for
//! file-level findings, in its message), which keeps entries anchored
//! to the code they excuse without brittle line numbers.

use crate::Diagnostic;
use std::path::Path;

/// The allowlist file name, resolved against the workspace root.
pub const FILE: &str = "gw-lint.allow";

/// Rules whose findings may be excused.
const ALLOWLISTABLE: &[&str] = &["hot-path", "exhaustive"];

/// Crate prefixes that admit no entries.
const NO_EXCEPTIONS: &[&str] = &["crates/wire/", "crates/sar/"];

#[derive(Debug)]
struct Entry {
    allow_line: usize,
    path: String,
    rule: String,
    needle: String,
    justification: String,
    used: bool,
}

/// The parsed allowlist plus any malformed-entry findings.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<Entry>,
    malformed: Vec<Diagnostic>,
}

impl Allowlist {
    /// Load `gw-lint.allow` from the workspace root; a missing file is
    /// an empty allowlist.
    pub fn load(root: &Path) -> Allowlist {
        let Ok(text) = std::fs::read_to_string(root.join(FILE)) else {
            return Allowlist::default();
        };
        let mut list = Allowlist::default();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = t.split('|').map(str::trim).collect();
            let fault = |message: String| Diagnostic {
                file: FILE.to_string(),
                line: lineno,
                rule: "allowlist",
                message,
            };
            if fields.len() != 4 {
                list.malformed.push(fault(format!(
                    "malformed entry (expected `path | rule | needle | justification`, got {} fields)",
                    fields.len()
                )));
                continue;
            }
            let (path, rule, needle, justification) = (fields[0], fields[1], fields[2], fields[3]);
            if !ALLOWLISTABLE.contains(&rule) {
                list.malformed.push(fault(format!(
                    "rule `{rule}` cannot be allowlisted; fix the finding instead"
                )));
                continue;
            }
            if NO_EXCEPTIONS.iter().any(|p| path.starts_with(p)) {
                list.malformed.push(fault(format!(
                    "`{path}` models the gateway hardware; these crates admit no allowlist entries"
                )));
                continue;
            }
            if justification.len() < 10 {
                list.malformed.push(fault(
                    "entry lacks a real justification (one line explaining why this survives)"
                        .to_string(),
                ));
                continue;
            }
            list.entries.push(Entry {
                allow_line: lineno,
                path: path.to_string(),
                rule: rule.to_string(),
                needle: needle.to_string(),
                justification: justification.to_string(),
                used: false,
            });
        }
        list
    }

    /// Partition `raw` diagnostics into kept and suppressed, then emit
    /// drift findings (malformed and stale entries). `read` fetches a
    /// workspace-relative file's contents for needle anchoring.
    pub fn apply<F>(
        mut self,
        raw: Vec<Diagnostic>,
        read: F,
    ) -> (Vec<Diagnostic>, Vec<(Diagnostic, String)>, Vec<Diagnostic>)
    where
        F: Fn(&str) -> Option<String>,
    {
        let mut kept = Vec::new();
        let mut suppressed = Vec::new();
        for diag in raw {
            let source_line = if diag.line > 0 {
                read(&diag.file)
                    .and_then(|text| text.lines().nth(diag.line - 1).map(str::to_string))
            } else {
                None
            };
            let hit = self.entries.iter_mut().find(|e| {
                e.path == diag.file
                    && e.rule == diag.rule
                    && (source_line.as_deref().is_some_and(|l| l.contains(&e.needle))
                        || diag.message.contains(&e.needle))
            });
            match hit {
                Some(entry) => {
                    entry.used = true;
                    let why = entry.justification.clone();
                    suppressed.push((diag, why));
                }
                None => kept.push(diag),
            }
        }
        let mut drift = self.malformed;
        for entry in &self.entries {
            if !entry.used {
                drift.push(Diagnostic {
                    file: FILE.to_string(),
                    line: entry.allow_line,
                    rule: "allowlist",
                    message: format!(
                        "stale entry: no `{}` diagnostic in `{}` matches `{}` any more — delete it",
                        entry.rule, entry.path, entry.needle
                    ),
                });
            }
        }
        (kept, suppressed, drift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: usize, rule: &'static str, message: &str) -> Diagnostic {
        Diagnostic { file: file.into(), line, rule, message: message.into() }
    }

    /// Load `text` as an allowlist through a directory of this call's
    /// own (tests run in parallel inside one process), removed again
    /// once loaded.
    fn parse(text: &str) -> Allowlist {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gw-lint-allow-{}-{call}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(FILE), text).unwrap();
        let list = Allowlist::load(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        list
    }

    #[test]
    fn suppresses_matching_and_reports_stale() {
        let list = parse(
            "# comment\ncrates/core/src/x.rs | hot-path | Vec::new | per-frame scratch, reused by the batch path\ncrates/core/src/y.rs | hot-path | clone | was removed last PR, entry forgotten\n",
        );
        let raw =
            vec![diag("crates/core/src/x.rs", 3, "hot-path", "`Vec::new` in critical-path code")];
        let (kept, suppressed, drift) = list.apply(raw, |_| Some("let v = Vec::new();".into()));
        assert!(kept.is_empty());
        assert_eq!(suppressed.len(), 1);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].message.contains("stale"));
    }

    #[test]
    fn rejects_wire_sar_and_unjustified_entries() {
        let list = parse(
            "crates/wire/src/atm.rs | hot-path | .unwrap( | because\ncrates/core/src/x.rs | hot-path | y | short\ncrates/core/src/x.rs | layering | y | layering is not allowlistable here\n",
        );
        let (_, _, drift) = list.apply(Vec::new(), |_| None);
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(drift.iter().any(|d| d.message.contains("no allowlist entries")));
        assert!(drift.iter().any(|d| d.message.contains("justification")));
        assert!(drift.iter().any(|d| d.message.contains("cannot be allowlisted")));
    }
}
