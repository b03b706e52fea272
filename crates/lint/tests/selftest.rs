//! Self-test: the deliberately-violating fixture workspace under
//! `fixtures/bad_ws` must light up every rule class, the decoys
//! (comments, strings, `#[cfg(test)]` code, setup-path exemptions)
//! must stay dark — and the real workspace we ship must be clean.

use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad_ws")
}

fn fixture_outcome() -> gw_lint::Outcome {
    gw_lint::run(&fixture_root()).expect("fixture workspace scans")
}

fn has(outcome: &gw_lint::Outcome, rule: &str, needle: &str) -> bool {
    outcome
        .diagnostics
        .iter()
        .any(|d| d.rule == rule && (d.message.contains(needle) || d.file.contains(needle)))
}

#[test]
fn hot_path_rule_fires_on_each_banned_construct() {
    let out = fixture_outcome();
    for needle in ["`.unwrap(`", "`HashMap`", "`Vec::new`", "`.clone(`"] {
        assert!(has(&out, "hot-path", needle), "missing hot-path finding for {needle}: {out:#?}");
    }
}

#[test]
fn layering_rule_fires_on_wire_depending_on_mgmt() {
    let out = fixture_outcome();
    assert!(has(&out, "layering", "must not depend on `gw-mgmt`"), "{out:#?}");
    assert!(has(&out, "layering", "reaches `gw-mgmt`"), "{out:#?}");
}

#[test]
fn layering_rule_fires_on_sar_reaching_a_transport() {
    let out = fixture_outcome();
    assert!(has(&out, "layering", "reaches `gw-phy`"), "{out:#?}");
    // The transport fixture crate itself is hygienic and contributes
    // no findings of its own.
    assert!(!out.diagnostics.iter().any(|d| d.file.contains("crates/phy/")), "{out:#?}");
}

#[test]
fn layering_rule_fires_on_scene_leaving_leaf_position() {
    let out = fixture_outcome();
    // The fixture gw-scene carries an internal dependency: leaf break.
    assert!(has(&out, "layering", "`gw-scene` must not depend on `gw-phy`"), "{out:#?}");
    // And the fixture gw-wire reaches it: wire formats must never see
    // the scenario language.
    assert!(has(&out, "layering", "reaches `gw-scene`"), "{out:#?}");
    // The crate's source is hygienic — every scene finding is from
    // manifests, none from crates/scene source files.
    assert!(!out.diagnostics.iter().any(|d| d.file.contains("crates/scene/src")), "{out:#?}");
}

#[test]
fn hygiene_rule_fires_on_missing_root_attributes() {
    let out = fixture_outcome();
    assert!(has(&out, "hygiene", "forbid(unsafe_code)"), "{out:#?}");
    assert!(has(&out, "hygiene", "deny(missing_docs)"), "{out:#?}");
    // The hygienic fixture crate contributes no hygiene findings.
    assert!(
        !out.diagnostics.iter().any(|d| d.rule == "hygiene" && d.file.contains("mgmt")),
        "{out:#?}"
    );
}

#[test]
fn hygiene_rule_fires_on_a_root_that_downgrades_its_own_lint() {
    let out = fixture_outcome();
    let root = "crates/atm/src/lib.rs";
    let found: Vec<_> =
        out.diagnostics.iter().filter(|d| d.rule == "hygiene" && d.file == root).collect();
    assert_eq!(found.len(), 1, "{out:#?}");
    assert!(found[0].message.contains("`#![warn(missing_docs)]` lowers `missing_docs`"));
    let src = std::fs::read_to_string(fixture_root().join(root)).unwrap();
    assert_eq!(src.lines().nth(found[0].line - 1), Some("#![warn(missing_docs)]"));
    // A `deny` root that lacks `forbid` is reported once, as missing
    // `forbid`, not again as a downgrade.
    let fddi = out.diagnostics.iter().filter(|d| d.file == "crates/fddi/src/lib.rs").count();
    assert_eq!(fddi, 1, "{out:#?}");
}

#[test]
fn hygiene_rule_holds_the_unsafe_exemption_to_one_file() {
    let out = fixture_outcome();
    let fires = |file: &str, needle: &str| {
        out.diagnostics
            .iter()
            .any(|d| d.rule == "hygiene" && d.file == file && d.message.contains(needle))
    };
    // A second `allow(unsafe_code)` in gw-wire, in a file that is not
    // the listed kernel file.
    assert!(
        fires("crates/wire/src/fast.rs", "`allow(unsafe_code)` in gw-wire outside"),
        "{out:#?}"
    );
    // `unsafe` itself anywhere else in gw-wire, justified or not.
    assert!(fires("crates/wire/src/lib.rs", "`unsafe` in gw-wire outside"), "{out:#?}");
    // A `deny` root in a crate the exemption does not list is a root
    // without `forbid`.
    assert!(fires("crates/fddi/src/lib.rs", "forbid(unsafe_code)"), "{out:#?}");
    assert!(!fires("crates/fddi/src/lib.rs", "deny(missing_docs)"), "{out:#?}");
}

#[test]
fn no_lock_rule_fires_on_locks_in_critical_code() {
    let out = fixture_outcome();
    assert!(has(&out, "no-lock", "`Mutex`"), "{out:#?}");
    assert!(has(&out, "no-lock", "`.lock(`"), "{out:#?}");
}

#[test]
fn safety_rule_fires_on_unjustified_unsafe() {
    let out = fixture_outcome();
    // Every unsafe operation must carry its SAFETY argument, `unsafe
    // impl` included. The comment/string decoys stayed dark: exactly
    // two un-justified unsafe tokens exist in the fixture (the pointer
    // read and the `unsafe impl Send`).
    assert!(has(&out, "safety", "SAFETY:"), "{out:#?}");
    let safety_findings = out.diagnostics.iter().filter(|d| d.rule == "safety").count();
    assert_eq!(safety_findings, 2, "{out:#?}");
}

#[test]
fn exhaustive_rule_fires_on_wildcard_over_wire_enum() {
    let out = fixture_outcome();
    assert!(has(&out, "exhaustive", "FrameControl"), "{out:#?}");
}

#[test]
fn marker_rule_fires_on_unmarked_critical_file() {
    let out = fixture_outcome();
    assert!(has(&out, "marker", "critical-path"), "{out:#?}");
}

#[test]
fn decoys_and_exemptions_stay_dark() {
    let out = fixture_outcome();
    // Comment/string decoys: nothing points at the `decoys` fn's lines.
    let src = std::fs::read_to_string(fixture_root().join("crates/wire/src/lib.rs")).unwrap();
    let decoy_start = src.lines().position(|l| l.contains("fn decoys")).unwrap() + 1;
    let cfg_test_start = src.lines().position(|l| l.contains("#[cfg(test)]")).unwrap() + 1;
    for d in &out.diagnostics {
        if d.file.ends_with("wire/src/lib.rs") {
            assert!(
                d.line < decoy_start || (d.line > decoy_start + 5 && d.line < cfg_test_start),
                "decoy or test-only code produced a finding: {d:?}"
            );
        }
    }
    // The setup-path-exempted allocation produced nothing.
    assert!(!out.diagnostics.iter().any(|d| d.message.contains("Vec::with_capacity")), "{out:#?}");
    // Non-critical crates are free to use maps.
    assert!(
        !out.diagnostics.iter().any(|d| d.rule == "hot-path" && d.file.contains("mgmt")),
        "{out:#?}"
    );
}

#[test]
fn diagnostics_carry_file_and_line() {
    let out = fixture_outcome();
    let unwrap_diag = out
        .diagnostics
        .iter()
        .find(|d| d.message.contains("`.unwrap(`"))
        .expect("unwrap finding exists");
    assert!(unwrap_diag.file.ends_with("crates/wire/src/lib.rs"));
    assert!(unwrap_diag.line > 0);
    assert!(unwrap_diag.render().contains(&format!(":{}:", unwrap_diag.line)));
}

#[test]
fn json_report_round_trips_the_outcome() {
    use gw_sim::json::Json;
    let out = fixture_outcome();
    let doc = Json::parse(&gw_lint::report::to_json(&out).pretty()).expect("report parses");
    assert_eq!(doc.get("format").and_then(Json::as_str), Some("gw-lint/2"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    let listed = doc.get("diagnostics").and_then(Json::as_arr).expect("diagnostics array");
    assert_eq!(listed.len(), out.diagnostics.len());
    // The per-rule breakdown carries live counts.
    let safety = out.diagnostics.iter().filter(|d| d.rule == "safety").count();
    assert!(safety >= 2, "{out:#?}");
    assert_eq!(doc.get_path(&["rules", "safety"]).and_then(Json::as_u64), Some(safety as u64));
}

#[test]
fn the_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = gw_lint::run(&root).expect("workspace scans");
    let rendered: Vec<String> = out.diagnostics.iter().map(|d| d.render()).collect();
    assert!(out.ok(), "the workspace must lint clean:\n{}", rendered.join("\n"));
}
