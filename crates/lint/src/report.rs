//! The machine-readable report (`gw-lint-report.json`, format
//! `gw-lint/2`), written with `gw-sim`'s JSON document model.
//!
//! CI uploads this as an artifact; the schema is stable:
//! `diagnostics` is empty exactly when the run passed, and the `rules`
//! object counts them per family (every family in
//! [`crate::rules::FAMILIES`] appears, zero or not), so a dashboard can
//! watch one family's count without parsing messages.

use crate::rules::FAMILIES;
use crate::Outcome;
use gw_sim::json::Json;

/// Format tag carried in every report (`"format"` key).
pub const REPORT_FORMAT: &str = "gw-lint/2";

/// Build the `gw-lint/2` JSON document for `outcome`.
pub fn to_json(outcome: &Outcome) -> Json {
    let mut rules = Json::obj();
    for family in FAMILIES {
        let n = outcome.diagnostics.iter().filter(|d| d.rule == *family).count();
        rules.set(family, Json::U64(n as u64));
    }
    let diagnostics = outcome
        .diagnostics
        .iter()
        .map(|d| {
            let mut o = Json::obj();
            o.set("file", Json::Str(d.file.clone()))
                .set("line", Json::U64(d.line as u64))
                .set("rule", Json::Str(d.rule.to_string()))
                .set("message", Json::Str(d.message.clone()));
            o
        })
        .collect();
    let mut doc = Json::obj();
    doc.set("format", Json::Str(REPORT_FORMAT.to_string()))
        .set("ok", Json::Bool(outcome.ok()))
        .set("files_scanned", Json::U64(outcome.files_scanned as u64))
        .set("crates", Json::Arr(outcome.crates.iter().cloned().map(Json::Str).collect()))
        .set("rules", rules)
        .set("diagnostics", Json::Arr(diagnostics));
    doc
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
            files_scanned: 1,
            crates: vec!["gw-wire".into()],
        };
        let text = to_json(&outcome).pretty();
        assert!(text.contains("\"format\": \"gw-lint/2\""));
        assert!(text.contains("\\\"quoted\\\""));
        let doc = Json::parse(&text).expect("the report parses back");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let message = doc.get("diagnostics").and_then(Json::as_arr).map(|d| d[0].get("message"));
        assert_eq!(message.flatten().and_then(Json::as_str), Some("`.unwrap(` \"quoted\""));
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
            files_scanned: 2,
            crates: vec![],
        };
        let doc = to_json(&outcome);
        for family in FAMILIES {
            assert!(doc.get_path(&["rules", family]).is_some(), "{family}");
        }
        assert_eq!(doc.get_path(&["rules", "exhaustive"]).and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get_path(&["rules", "safety"]).and_then(Json::as_u64), Some(0));
        // Every diagnostic's rule is a listed family — a new rule
        // string must be added to FAMILIES or it vanishes from the
        // breakdown.
        for d in &outcome.diagnostics {
            assert!(FAMILIES.contains(&d.rule), "unlisted family {}", d.rule);
        }
    }
}
