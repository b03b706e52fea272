//! Safety discipline: every `unsafe` token carries its soundness
//! argument.
//!
//! Every crate root but one forbids `unsafe`, so the token survives
//! only in harness binaries and test targets (a signal handler, a
//! counting allocator) and in `gw-wire`'s one kernel file (see
//! [`hygiene`](super::hygiene)). Wherever it appears, the argument for
//! the operation stays physically attached to it: a `// SAFETY:`
//! comment in the contiguous comment block directly above the `unsafe`
//! line, or trailing on the line itself — so a `git grep 'SAFETY:'`
//! enumerates every soundness obligation in the workspace. `unsafe
//! impl` counts
//! like `unsafe` blocks do: a `Send`/`Sync` assertion is exactly the
//! kind of claim whose justification must survive next to the code.
//!
//! An unjustified unsafe is missing its proof, and the proof belongs
//! in the source: the finding is fixed by writing it.

use crate::Diagnostic;

/// Scan one source file for `unsafe` tokens lacking a `// SAFETY:`
/// justification. The comment must sit in the contiguous `//` block
/// directly above the `unsafe` line (or trail on the line itself), so
/// the soundness argument is physically attached to the operation it
/// covers — the same locality the setup-path marker demands.
pub(crate) fn check_unsafe(rel: &str, original: &str, prepared: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let code_lines: Vec<&str> = prepared.lines().collect();
    let raw_lines: Vec<&str> = original.lines().collect();
    let mut last_flagged = usize::MAX;
    for (idx, line) in code_lines.iter().enumerate() {
        if !has_unsafe_token(line) || idx == last_flagged {
            continue;
        }
        let covered = raw_lines.get(idx).is_some_and(|l| l.contains("SAFETY:"))
            || raw_lines[..idx]
                .iter()
                .rev()
                .take_while(|l| {
                    let t = l.trim_start();
                    t.starts_with("//") || t.starts_with("#[")
                })
                .any(|l| l.contains("SAFETY:"));
        if !covered {
            last_flagged = idx;
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: idx + 1,
                rule: "safety",
                message: "`unsafe` without a `// SAFETY:` comment directly above it stating \
                          why the operation is sound"
                    .to_string(),
            });
        }
    }
    diags
}

/// Identifier-bounded occurrence of the `unsafe` keyword in a stripped
/// source line (so `unsafe_op_in_unsafe_fn` and `forbid(unsafe_code)`
/// never match).
pub(crate) fn has_unsafe_token(line: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = line[from..].find("unsafe").map(|p| p + from) {
        let left_ok = pos == 0 || !(b[pos - 1].is_ascii_alphanumeric() || b[pos - 1] == b'_');
        let right_ok = b.get(pos + 6).is_none_or(|c| !(c.is_ascii_alphanumeric() || *c == b'_'));
        if left_ok && right_ok {
            return true;
        }
        from = pos + 6;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip::{blank_cfg_test, strip};

    fn unsafe_diags(src: &str) -> Vec<Diagnostic> {
        let prepared = blank_cfg_test(&strip(src));
        check_unsafe("x.rs", src, &prepared)
    }

    #[test]
    fn uncommented_unsafe_is_flagged_once_per_line() {
        let diags = unsafe_diags("fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].rule, "safety");
        assert!(diags[0].message.contains("SAFETY:"));
    }

    #[test]
    fn unsafe_impl_needs_the_same_argument() {
        let diags = unsafe_diags("struct T(*const u8);\nunsafe impl Send for T {}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        let ok = "struct T(*const u8);\n// SAFETY: the pointer is only dereferenced on the owning thread.\nunsafe impl Send for T {}\n";
        assert!(unsafe_diags(ok).is_empty());
    }

    #[test]
    fn safety_comment_block_covers_the_next_unsafe() {
        let ok = "// SAFETY: caller guarantees p is valid for reads.\n// (second comment line)\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(unsafe_diags(ok).is_empty());
        // Trailing on the same line also counts.
        let trailing = "fn f(p: *const u8) -> u8 { unsafe { *p } } // SAFETY: p valid\n";
        assert!(unsafe_diags(trailing).is_empty());
        // Attributes between the comment and the item do not break the
        // block (e.g. `#[global_allocator]` statics in the harness).
        let with_attr =
            "// SAFETY: trait contract upheld below.\n#[allow(dead_code)]\nunsafe fn g() {}\n";
        assert!(unsafe_diags(with_attr).is_empty());
    }

    #[test]
    fn lookalike_identifiers_and_decoys_stay_dark() {
        assert!(unsafe_diags("#![deny(unsafe_op_in_unsafe_fn)]\n").is_empty());
        assert!(unsafe_diags("#![forbid(unsafe_code)]\n").is_empty());
        assert!(unsafe_diags("// unsafe in a comment\nlet s = \"unsafe\";\n").is_empty());
    }

    #[test]
    fn a_blank_line_breaks_the_safety_block() {
        let src = "// SAFETY: stale, detached argument.\n\nunsafe fn g() {}\n";
        assert_eq!(unsafe_diags(src).len(), 1);
    }
}
