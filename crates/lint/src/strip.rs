//! Source preparation: comment/string stripping and `#[cfg(test)]`
//! blanking, both preserving line structure so every later scan reports
//! accurate `file:line` positions.
//!
//! This is the "token level" the analyzer works at: after `strip`,
//! any substring match against the text is guaranteed to sit in real
//! code — not in a doc comment, not in a string literal, not in a
//! `#[cfg(test)]` module. That guarantee is what lets the rules stay
//! simple needle scans instead of a full parser, mirroring how the
//! paper's hardware enforces its invariants structurally rather than
//! by inspection.

/// Replace comments (line, doc, nested block) and string/char literals
/// with spaces, leaving newlines and all other code bytes in place.
///
/// Handles raw strings (`r"…"`, `r#"…"#`, arbitrary `#` depth), byte
/// and byte-raw strings, character literals (including escapes and
/// multi-byte chars), and tells lifetimes (`'a`) apart from char
/// literals.
pub(crate) fn strip(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = b.to_vec();
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let start = i;
                // Skip the prefix (`r`, `br`) and count the `#`s.
                i += if b[i] == b'b' { 2 } else { 1 };
                let mut hashes = 0usize;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // opening quote
                while i < b.len() {
                    if b[i] == b'"' && closes_raw(b, i, hashes) {
                        i += 1 + hashes;
                        break;
                    }
                    i += 1;
                }
                blank(&mut out, start, i.min(b.len()));
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' && !ident_before(b, i) => {
                let start = i;
                i += 1;
                i = skip_quoted(b, i, b'"');
                blank(&mut out, start, i.min(b.len()));
            }
            b'"' => {
                let start = i;
                i = skip_quoted(b, i, b'"');
                blank(&mut out, start, i.min(b.len()));
            }
            b'\'' => {
                if is_char_literal(b, i) {
                    let start = i;
                    i = skip_quoted(b, i, b'\'');
                    blank(&mut out, start, i.min(b.len()));
                } else {
                    // A lifetime: keep the identifier, it is code.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // The byte-level surgery only ever wrote ASCII spaces over existing
    // bytes, so the result is valid UTF-8 whenever the input was —
    // except where a multi-byte char was partially blanked, which the
    // blanking helpers avoid by covering whole literals.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn blank(out: &mut [u8], from: usize, to: usize) {
    for byte in &mut out[from..to] {
        if *byte != b'\n' {
            *byte = b' ';
        }
    }
}

fn ident_before(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    if ident_before(b, i) {
        return false;
    }
    let mut j = i + if b[i] == b'b' {
        if b.get(i + 1) == Some(&b'r') {
            2
        } else {
            return false;
        }
    } else {
        1
    };
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn closes_raw(b: &[u8], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| b.get(i + k) == Some(&b'#'))
}

/// Advance past a quoted literal starting at the opening quote `b[i]`,
/// honouring backslash escapes; returns the index just past the close.
fn skip_quoted(b: &[u8], i: usize, quote: u8) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        if b[j] == b'\\' {
            j += 2;
        } else if b[j] == quote {
            return j + 1;
        } else {
            j += 1;
        }
    }
    j
}

/// Distinguish `'x'` / `'\n'` (char literal) from `'lifetime`.
fn is_char_literal(b: &[u8], i: usize) -> bool {
    match b.get(i + 1) {
        None => false,
        Some(b'\\') => true,
        Some(&c) if c.is_ascii_alphabetic() || c == b'_' => {
            // `'a'` is a char only when a quote follows immediately.
            b.get(i + 2) == Some(&b'\'')
        }
        // Digits, punctuation, multi-byte UTF-8 lead bytes: always a
        // char literal (lifetimes are ASCII identifiers).
        Some(_) => true,
    }
}

/// Blank every `#[cfg(test)]` item (module, function, or use) in
/// already-stripped text, so test-only code never trips the
/// exhaustiveness or dead-pub rules. Line structure is preserved.
pub(crate) fn blank_cfg_test(stripped: &str) -> String {
    let mut out = stripped.as_bytes().to_vec();
    let needle = b"#[cfg(test)]";
    let mut from = 0usize;
    while let Some(pos) = find(&out, needle, from) {
        let mut i = pos + needle.len();
        // Skip trailing attributes and whitespace between the cfg and
        // the item it gates.
        loop {
            while i < out.len() && out[i].is_ascii_whitespace() {
                i += 1;
            }
            if i + 1 < out.len() && out[i] == b'#' && out[i + 1] == b'[' {
                let mut depth = 0usize;
                while i < out.len() {
                    match out[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        // Blank through the item: to the matching `}` of its first
        // top-level block, or to `;` for block-less items.
        let end = item_end(&out, i);
        blank(&mut out, pos, end);
        from = end;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// End index of the item starting at `i`: just past the `;` or the
/// matching close brace of the first `{` at delimiter depth zero.
fn item_end(b: &[u8], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0usize;
    while j < b.len() {
        match b[j] {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b';' if depth == 0 => return j + 1,
            b'{' if depth == 0 => {
                let mut braces = 0usize;
                while j < b.len() {
                    match b[j] {
                        b'{' => braces += 1,
                        b'}' => {
                            braces -= 1;
                            if braces == 0 {
                                return j + 1;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Byte-substring find starting at `from`.
pub(crate) fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    (from..=hay.len() - needle.len()).find(|&i| &hay[i..i + needle.len()] == needle)
}

/// 1-based line number of byte offset `pos` in `text`.
pub(crate) fn line_of(text: &str, pos: usize) -> usize {
    text.as_bytes()[..pos.min(text.len())].iter().filter(|&&c| c == b'\n').count() + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_strings_preserving_lines() {
        let src =
            "let a = \"x.unwrap()\"; // .expect(\nlet b = 'c'; /* panic! */ let l: &'static str;";
        let s = strip(src);
        assert_eq!(s.lines().count(), src.lines().count());
        assert!(!s.contains("unwrap"));
        assert!(!s.contains(".expect("));
        assert!(!s.contains("panic!"));
        assert!(s.contains("'static"), "lifetime survives: {s}");
    }

    #[test]
    fn strips_raw_and_byte_strings() {
        let src = "let a = r#\"HashMap \"inner\" BTreeMap\"#; let b = b\"Vec::new\"; let c = br#\"todo!\"#;";
        let s = strip(src);
        assert!(!s.contains("HashMap"));
        assert!(!s.contains("Vec::new"));
        assert!(!s.contains("todo!"));
    }

    #[test]
    fn char_literals_and_escapes() {
        let s = strip("let q = '\\''; let n = '\\n'; let u = 'é'; let life: &'a u8 = x;");
        assert!(s.contains("&'a u8"));
        assert!(!s.contains('é'));
    }

    #[test]
    fn blanks_cfg_test_modules_and_fns() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.expect(\"z\"); }\n}\n#[cfg(test)]\nuse foo::bar;\nfn live2() {}\n";
        let s = blank_cfg_test(&strip(src));
        assert!(s.contains("x.unwrap()"));
        assert!(!s.contains("y.expect"));
        assert!(!s.contains("foo::bar"));
        assert!(s.contains("fn live2"));
        assert_eq!(s.lines().count(), src.lines().count());
    }
}
