//! Hot-path discipline: the software equivalent of the SPP/MPP
//! contract — fixed per-cell work against pre-allocated table memory.
//!
//! Inside critical-path files nothing may panic (the hardware has no
//! panic; every malformed input has a defined drop-and-count path),
//! nothing may hash or walk a tree (the hardware indexes dense tables
//! by VCI/ICN), and nothing may allocate or copy buffers (cell and
//! frame memory is owned by pools and recycled).
//!
//! Setup and teardown code that legitimately lives in a critical-path
//! file — constructors sizing the dense tables, congram programming,
//! `Init`-frame codecs — is the paper's *non*-critical path (it runs
//! per connection, not per cell). Such functions opt out with a marker
//! comment directly above the `fn`:
//!
//! ```text
//! // gw-lint: setup-path — runs once per congram install, not per cell
//! fn open_vc(&mut self, …) { … }
//! ```
//!
//! The exemption spans exactly one function body and the marker must
//! carry a justification, so every opt-out is visible in review and in
//! `git grep 'gw-lint: setup-path'`.

use crate::strip;
use crate::Diagnostic;

/// Banned constructs: `(needle, why)`. Needles are matched against
/// comment- and string-stripped, test-blanked source, with identifier
/// boundaries enforced on both ends.
pub(crate) const BANNED: &[(&str, &str)] = &[
    (".unwrap(", "panicking combinator; hardware drops-and-counts instead"),
    (".expect(", "panicking combinator; hardware drops-and-counts instead"),
    ("panic!", "explicit panic on the cell path"),
    ("todo!", "explicit panic on the cell path"),
    ("unimplemented!", "explicit panic on the cell path"),
    ("unreachable!", "explicit panic on the cell path"),
    ("HashMap", "hashed container; the SPP/MPP index dense tables by VCI/ICN"),
    ("BTreeMap", "tree container; the SPP/MPP index dense tables by VCI/ICN"),
    ("Vec::new", "dynamic allocation; cell-path memory is pre-allocated"),
    ("Vec::with_capacity", "dynamic allocation; cell-path memory is pre-allocated"),
    ("vec!", "dynamic allocation; cell-path memory is pre-allocated"),
    ("Box::new", "dynamic allocation; cell-path memory is pre-allocated"),
    ("String::new", "string allocation on the cell path"),
    ("format!", "string allocation on the cell path"),
    (".to_string(", "string allocation on the cell path"),
    (".to_vec(", "buffer copy; the cell path moves ownership through pools"),
    (".to_owned(", "buffer copy; the cell path moves ownership through pools"),
    (".clone(", "deep copy of buffers; the cell path moves ownership through pools"),
];

/// The function-level opt-out marker.
const SETUP_MARKER: &str = "gw-lint: setup-path";

/// Scan one critical-path file. `original` is the raw source (markers
/// live in comments); `prepared` is the stripped, test-blanked text
/// with identical byte offsets.
pub fn check(rel: &str, original: &str, prepared: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut scan = prepared.as_bytes().to_vec();

    // Blank each setup-path-exempted function body out of the scan
    // buffer, validating the markers as we go.
    let mut offset = 0usize;
    for line in original.lines() {
        // Only comment lines carry markers; a string literal naming the
        // marker (e.g. this crate's own config) is not an opt-out.
        if let Some(pos) = line.find(SETUP_MARKER).filter(|_| line.trim_start().starts_with("//")) {
            let lineno = strip::line_of(original, offset);
            let reason = line[pos + SETUP_MARKER.len()..]
                .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
                .trim();
            if reason.len() < 8 {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "hot-path",
                    message: "setup-path marker lacks a justification (`// gw-lint: setup-path — why this runs per connection, not per cell`)".to_string(),
                });
            }
            match exempt_region(&scan, offset) {
                Some((from, to)) => blank(&mut scan, from, to),
                None => diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "hot-path",
                    message: "dangling setup-path marker: no `fn` follows it".to_string(),
                }),
            }
        }
        offset += line.len() + 1;
    }

    let text = String::from_utf8_lossy(&scan).into_owned();
    for &(needle, why) in BANNED {
        let mut from = 0usize;
        while let Some(pos) = find_bounded(text.as_bytes(), needle, from) {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: strip::line_of(&text, pos),
                rule: "hot-path",
                message: format!("`{needle}` in critical-path code: {why}"),
            });
            from = pos + needle.len();
        }
    }
    diags
}

/// The byte range `[marker_line_start, end_of_next_fn_body)` that a
/// setup-path marker at `offset` exempts, or `None` when no function
/// follows the marker.
fn exempt_region(b: &[u8], offset: usize) -> Option<(usize, usize)> {
    let mut i = offset;
    // Find the next `fn` keyword.
    loop {
        i = strip::find(b, b"fn", i)?;
        let left_ok = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        let right_ok = b.get(i + 2).is_none_or(|c| !(c.is_ascii_alphanumeric() || *c == b'_'));
        if left_ok && right_ok {
            break;
        }
        i += 2;
    }
    // Find the body's opening brace at delimiter depth zero (past the
    // parameter list and any where-clause), then its matching close.
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b';' if depth == 0 => return Some((offset, i + 1)), // trait method decl
            b'{' if depth == 0 => {
                let mut braces = 0usize;
                while i < b.len() {
                    match b[i] {
                        b'{' => braces += 1,
                        b'}' => {
                            braces -= 1;
                            if braces == 0 {
                                return Some((offset, i + 1));
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return Some((offset, b.len()));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn blank(b: &mut [u8], from: usize, to: usize) {
    let to = to.min(b.len());
    for byte in &mut b[from..to] {
        if *byte != b'\n' {
            *byte = b' ';
        }
    }
}

/// Find `needle` at `from` or later, requiring identifier boundaries:
/// when the needle starts (ends) with an identifier character, the
/// preceding (following) source character must not be one. Shared with
/// the no-lock rule, which scans the same prepared text.
pub(crate) fn find_bounded(hay: &[u8], needle: &str, from: usize) -> Option<usize> {
    let nb = needle.as_bytes();
    let mut at = from;
    while let Some(pos) = strip::find(hay, nb, at) {
        let first = nb[0];
        let last = nb[nb.len() - 1];
        let left_ok = !first.is_ascii_alphanumeric() && first != b'_'
            || pos == 0
            || !(hay[pos - 1].is_ascii_alphanumeric() || hay[pos - 1] == b'_');
        let right_ok = !last.is_ascii_alphanumeric() && last != b'_'
            || hay.get(pos + nb.len()).is_none_or(|c| !(c.is_ascii_alphanumeric() || *c == b'_'));
        if left_ok && right_ok {
            return Some(pos);
        }
        at = pos + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip::{blank_cfg_test, strip};

    fn run(src: &str) -> Vec<Diagnostic> {
        let prepared = blank_cfg_test(&strip(src));
        check("x.rs", src, &prepared)
    }

    #[test]
    fn flags_each_banned_construct() {
        let diags = run("fn f() { a.unwrap(); m.insert(HashMap::new()); let v = Vec::new(); }");
        let rules: Vec<_> = diags.iter().map(|d| d.message.clone()).collect();
        assert_eq!(diags.len(), 3, "{rules:?}");
    }

    #[test]
    fn setup_path_marker_exempts_one_fn() {
        let src = "// gw-lint: setup-path — sizes tables once at install time\nfn new() { let v = Vec::new(); }\nfn hot() { let w = Vec::new(); }\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn bare_marker_needs_justification() {
        let diags = run("// gw-lint: setup-path\nfn new() { let v = Vec::new(); }\n");
        assert!(diags.iter().any(|d| d.message.contains("justification")), "{diags:?}");
    }

    #[test]
    fn boundaries_avoid_lookalikes() {
        let diags = run("fn f(v: MyVec) { v.expect_none; formatted!(); }");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
