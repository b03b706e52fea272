//! Protocol exhaustiveness: no wildcard `_ =>` arms in `match`es over
//! the wire-format enums.
//!
//! The MCHIP type field and the congram control opcodes are a closed
//! code space in the hardware: the MPP routes `Data` through the ICXT
//! and every other type to the NPE, and an unknown code is a fault the
//! design surfaces, never silently discards (§6.1). In Rust terms: a
//! `match` over `MchipType`-like enums must name every variant, so
//! adding a protocol variant breaks the build everywhere a decision is
//! made, instead of sliding into a catch-all drop.
//!
//! Decoders mapping *raw integers* into these enums legitimately need a
//! reject arm — there the scrutinee is a number and no enum path appears
//! in any pattern, so this rule does not fire.

use crate::strip::line_of;
use crate::Diagnostic;

/// Scan prepared (stripped, test-blanked) source for wildcard arms in
/// matches whose patterns mention any of `crate::rules::EXHAUSTIVE_ENUMS`.
pub fn check(rel: &str, prepared: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let b = prepared.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if at_word(b, i, b"match") {
            i = parse_match(rel, prepared, i + 5, &mut diags);
        } else {
            i += 1;
        }
    }
    diags
}

fn at_word(b: &[u8], i: usize, word: &[u8]) -> bool {
    if i + word.len() > b.len() || &b[i..i + word.len()] != word {
        return false;
    }
    let left = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
    let right = b.get(i + word.len()).is_none_or(|c| !(c.is_ascii_alphanumeric() || *c == b'_'));
    left && right
}

/// Parse one `match` expression starting just past the keyword; emits
/// diagnostics for it (and, via recursion, any nested matches) and
/// returns the index just past its closing brace.
fn parse_match(rel: &str, text: &str, mut i: usize, diags: &mut Vec<Diagnostic>) -> usize {
    let b = text.as_bytes();
    // Scrutinee: up to the body's `{` at delimiter depth zero.
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'{' if depth > 0 => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b'{' => break,
            _ => {}
        }
        i += 1;
    }
    if i >= b.len() {
        return i;
    }
    i += 1; // past the body `{`

    let mut wildcard_at: Option<usize> = None;
    let mut named: Vec<&str> = Vec::new();
    loop {
        while i < b.len() && (b[i].is_ascii_whitespace() || b[i] == b',') {
            i += 1;
        }
        if i >= b.len() {
            break;
        }
        if b[i] == b'}' {
            i += 1;
            break;
        }
        // Pattern (including any `if` guard) up to `=>`.
        let pat_start = i;
        let mut depth = 0usize;
        while i < b.len() {
            if depth == 0 && b[i] == b'=' && b.get(i + 1) == Some(&b'>') {
                break;
            }
            match b[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth = depth.saturating_sub(1),
                _ => {}
            }
            i += 1;
        }
        let pat = text[pat_start..i.min(text.len())].trim();
        if pat == "_" {
            wildcard_at = Some(pat_start);
        }
        for name in crate::rules::EXHAUSTIVE_ENUMS {
            if mentions_enum(pat, name) && !named.contains(name) {
                named.push(name);
            }
        }
        i += 2; // past `=>`

        // Arm body: a block, or an expression up to the `,` (or the
        // match's `}`) at depth zero. Nested matches recurse.
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        let mut depth = 0usize;
        while i < b.len() {
            if at_word(b, i, b"match") {
                i = parse_match(rel, text, i + 5, diags);
                continue;
            }
            match b[i] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'}' if depth > 0 => depth -= 1,
                b'}' => break, // the match's own closing brace
                b',' if depth == 0 => break,
                _ => {}
            }
            i += 1;
            // A block-bodied arm ends at its closing brace, comma optional.
            if depth == 0 && i > 0 && b[i - 1] == b'}' {
                break;
            }
        }
    }

    if let (Some(pos), false) = (wildcard_at, named.is_empty()) {
        diags.push(Diagnostic {
            file: rel.to_string(),
            line: line_of(text, pos),
            rule: "exhaustive",
            message: format!(
                "wildcard `_` arm in a match over wire-format enum{} {}: name every variant so a new protocol type is a build break, not a silent drop",
                if named.len() > 1 { "s" } else { "" },
                named.join(", "),
            ),
        });
    }
    i
}

/// Does the pattern text mention `Name::` with an identifier boundary
/// on the left (so `MchipType::` matches but `NotMchipType::` does not)?
fn mentions_enum(pat: &str, name: &str) -> bool {
    let needle = format!("{name}::");
    let b = pat.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = crate::strip::find(b, needle.as_bytes(), from) {
        if pos == 0 || !(b[pos - 1].is_ascii_alphanumeric() || b[pos - 1] == b'_') {
            return true;
        }
        from = pos + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip::{blank_cfg_test, strip};

    fn run(src: &str) -> Vec<Diagnostic> {
        check("x.rs", &blank_cfg_test(&strip(src)))
    }

    #[test]
    fn flags_wildcard_over_designated_enum() {
        let d = run("fn f(t: MchipType) -> u8 { match t { MchipType::Data => 0, _ => 1 } }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("MchipType"));
    }

    #[test]
    fn ignores_integer_decoders_and_other_enums() {
        let d =
            run("fn f(n: u8) { match n { 0 => a(), _ => b() } match o { Some(x) => x, _ => 0 } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn wrapped_patterns_still_count() {
        let d = run("fn f(r: R) { match r { Ok(FrameControl::LlcAsync { priority }) => priority, _ => 0 }; }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn nested_matches_are_independent() {
        let d = run(
            "fn f() { match t { MchipType::Data => match n { 0 => 1, _ => 2 }, MchipType::Init => 3 } }",
        );
        assert!(d.is_empty(), "inner wildcard is over an int: {d:?}");
    }

    #[test]
    fn exhaustive_match_is_clean() {
        let d = run("fn f(t: T) { match t { HecOutcome::Ok => 1, HecOutcome::Corrected => 2 } }");
        assert!(d.is_empty(), "{d:?}");
    }
}
