//! The machine-readable report (`gw-lint-report.json`, format
//! `gw-lint/1`), hand-serialized so the lint stays dependency-free.
//!
//! CI uploads this as an artifact; the schema is stable:
//! `diagnostics` is empty exactly when the run passed, and
//! `suppressed` records every allowlisted exception with its
//! justification so the audit trail survives outside the repo too.
//! The `rules` object breaks both lists down per family (every family
//! in [`crate::rules::FAMILIES`] appears, zero or not), so a dashboard
//! can watch one family's count without parsing messages — additive,
//! still format `gw-lint/1`.

use crate::rules::FAMILIES;
use crate::Outcome;

/// Serialize `outcome` as the `gw-lint/1` JSON document.
pub fn to_json(outcome: &Outcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"format\": \"gw-lint/1\",\n");
    s.push_str(&format!("  \"ok\": {},\n", outcome.ok()));
    s.push_str(&format!("  \"files_scanned\": {},\n", outcome.files_scanned));
    s.push_str("  \"crates\": [");
    for (i, name) in outcome.crates.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&quote(name));
    }
    s.push_str("],\n");
    s.push_str("  \"rules\": {\n");
    for (i, family) in FAMILIES.iter().enumerate() {
        let diags = outcome.diagnostics.iter().filter(|d| d.rule == *family).count();
        let supp = outcome.suppressed.iter().filter(|(d, _)| d.rule == *family).count();
        s.push_str(&format!(
            "    {}: {{\"diagnostics\": {diags}, \"suppressed\": {supp}}}{}\n",
            quote(family),
            if i + 1 < FAMILIES.len() { "," } else { "" }
        ));
    }
    s.push_str("  },\n");
    s.push_str("  \"diagnostics\": [");
    for (i, d) in outcome.diagnostics.iter().enumerate() {
        s.push_str(if i > 0 { ",\n    " } else { "\n    " });
        s.push_str(&format!(
            "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            quote(&d.file),
            d.line,
            quote(d.rule),
            quote(&d.message)
        ));
    }
    s.push_str(if outcome.diagnostics.is_empty() { "],\n" } else { "\n  ],\n" });
    s.push_str("  \"suppressed\": [");
    for (i, (d, why)) in outcome.suppressed.iter().enumerate() {
        s.push_str(if i > 0 { ",\n    " } else { "\n    " });
        s.push_str(&format!(
            "{{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"justification\": {}}}",
            quote(&d.file),
            d.line,
            quote(d.rule),
            quote(&d.message),
            quote(why)
        ));
    }
    s.push_str(if outcome.suppressed.is_empty() { "]\n" } else { "\n  ]\n" });
    s.push_str("}\n");
    s
}

/// JSON string escaping (quotes, backslashes, control characters).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Diagnostic;

    #[test]
    fn report_is_valid_json_shaped() {
        let outcome = Outcome {
            diagnostics: vec![Diagnostic {
                file: "a.rs".into(),
                line: 3,
                rule: "hot-path",
                message: "`.unwrap(` \"quoted\"".into(),
            }],
            suppressed: vec![],
            files_scanned: 1,
            crates: vec!["gw-wire".into()],
        };
        let json = to_json(&outcome);
        assert!(json.contains("\"format\": \"gw-lint/1\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ok\": false"));
    }

    #[test]
    fn per_rule_counts_cover_every_family() {
        let outcome = Outcome {
            diagnostics: vec![Diagnostic {
                file: "a.rs".into(),
                line: 3,
                rule: "exhaustive",
                message: "wildcard arm".into(),
            }],
            suppressed: vec![(
                Diagnostic {
                    file: "b.rs".into(),
                    line: 9,
                    rule: "exhaustive",
                    message: "wildcard arm".into(),
                },
                "closed by the caller's own check".into(),
            )],
            files_scanned: 2,
            crates: vec![],
        };
        let json = to_json(&outcome);
        for family in FAMILIES {
            assert!(json.contains(&format!("\"{family}\": {{\"diagnostics\": ")), "{family}");
        }
        assert!(json.contains("\"exhaustive\": {\"diagnostics\": 1, \"suppressed\": 1}"));
        assert!(json.contains("\"safety\": {\"diagnostics\": 0, \"suppressed\": 0}"));
        // Every diagnostic's rule is a listed family — a new rule
        // string must be added to FAMILIES or it vanishes from the
        // breakdown.
        for d in outcome.diagnostics.iter().chain(outcome.suppressed.iter().map(|(d, _)| d)) {
            assert!(FAMILIES.contains(&d.rule), "unlisted family {}", d.rule);
        }
    }
}
