//! Self-test: the deliberately-violating fixture workspace under
//! `fixtures/bad_ws` must light up every gw-lint rule class while its
//! decoys (comments, strings, `#[cfg(test)]` code, callers the dead-pub
//! rule must see) stay dark; the one under `fixtures/clippy_ws` must
//! draw from `cargo clippy` exactly the compiler lints its `//~`
//! comments name (the rules gw-lint handed to rustc and clippy); and
//! the real workspace we ship must be clean.

use gw_sim::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

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
fn exhaustive_rule_fires_on_wildcard_over_wire_enum() {
    let out = fixture_outcome();
    assert!(has(&out, "exhaustive", "FrameControl"), "{out:#?}");
}

#[test]
fn dead_pub_rule_fires_on_items_no_outside_caller_names() {
    let out = fixture_outcome();
    let dead: Vec<_> = out.diagnostics.iter().filter(|d| d.rule == "dead-pub").collect();
    // Named only in its own source and unit test; named outside only in
    // a comment and a string; a constant nothing outside reads.
    for needle in
        ["`pub fn only_self_tested`", "`pub fn only_mentioned`", "`pub const UNREAD_LIMIT`"]
    {
        assert!(dead.iter().any(|d| d.message.contains(needle)), "missing {needle}: {out:#?}");
    }
    // A sibling crate, the fixture's `benchmark/src` and the crate's own
    // `tests/` are callers; every other fixture item has one of them.
    assert_eq!(dead.len(), 3, "{out:#?}");
    let src = std::fs::read_to_string(fixture_root().join("crates/sim/src/lib.rs")).unwrap();
    let d = dead.iter().find(|d| d.message.contains("only_self_tested")).unwrap();
    assert_eq!(
        (d.file.as_str(), src.lines().nth(d.line - 1)),
        ("crates/sim/src/lib.rs", Some("pub fn only_self_tested() -> u8 {"))
    );
}

#[test]
fn marker_rule_fires_on_unmarked_critical_file() {
    let out = fixture_outcome();
    let marker = |file: &str| -> Vec<&gw_lint::Diagnostic> {
        out.diagnostics.iter().filter(|d| d.rule == "marker" && d.file == file).collect()
    };
    // Missing: the wire root carries no hot-lint block. Altered: the
    // SAR root's has lost `clippy::panic`. Commented out: the VCI
    // index's.
    for file in ["crates/wire/src/lib.rs", "crates/sar/src/lib.rs", "crates/sim/src/index.rs"] {
        let found = marker(file);
        assert_eq!(found.len(), 1, "{file}: {out:#?}");
        assert!(found[0].message.contains("hot-lint block"), "{found:?}");
    }
    // A designated file the workspace does not have is reported, not
    // skipped: a rename would otherwise drop the block unnoticed.
    assert!(marker("crates/core/src/gateway.rs")[0].message.contains("not found"), "{out:#?}");
}

#[test]
fn marker_rule_fires_on_a_module_level_expect_of_a_hot_lint() {
    let out = fixture_outcome();
    let found: Vec<_> = out
        .diagnostics
        .iter()
        .filter(|d| d.rule == "marker" && d.file == "crates/wire/src/fast.rs")
        .collect();
    // One: the decoys (a lint sharing a hot one's prefix, an opt-out on
    // one function) stay dark.
    assert_eq!(found.len(), 1, "{out:#?}");
    assert!(found[0].message.contains("`clippy::unwrap_used`"), "{found:?}");
    let src = std::fs::read_to_string(fixture_root().join(&found[0].file)).unwrap();
    assert!(src
        .lines()
        .nth(found[0].line - 1)
        .unwrap()
        .starts_with("#![expect(clippy::unwrap_used"));
}

#[test]
fn marker_rule_fires_on_a_member_off_the_workspace_lint_table() {
    let out = fixture_outcome();
    let manifests: Vec<_> = out
        .diagnostics
        .iter()
        .filter(|d| d.rule == "marker" && d.file.ends_with(".toml"))
        .collect();
    assert_eq!(manifests.len(), 1, "{out:#?}");
    assert_eq!(
        (manifests[0].rule, manifests[0].file.as_str()),
        ("marker", "crates/atm/Cargo.toml")
    );
    assert!(manifests[0].message.contains("`[lints] workspace = true`"));
}

#[test]
fn decoys_and_exemptions_stay_dark() {
    let out = fixture_outcome();
    // Comment/string decoys and test-only code: nothing points at the
    // lines from the `decoys` fn on.
    let src = std::fs::read_to_string(fixture_root().join("crates/wire/src/lib.rs")).unwrap();
    let decoy_start = src.lines().position(|l| l.contains("fn decoys")).unwrap() + 1;
    for d in out.diagnostics.iter().filter(|d| d.file == "crates/wire/src/lib.rs") {
        assert!(d.line < decoy_start, "decoy or test-only code produced a finding: {d:?}");
    }
    // Non-critical crates are free to use maps and allocate, and to
    // lower a hot lint for a whole module.
    assert!(!out.diagnostics.iter().any(|d| d.file.contains("mgmt/src")), "{out:#?}");
}

#[test]
fn diagnostics_carry_file_and_line() {
    let out = fixture_outcome();
    let wildcard =
        out.diagnostics.iter().find(|d| d.rule == "exhaustive").expect("exhaustive finding exists");
    assert_eq!(wildcard.file, "crates/wire/src/lib.rs");
    let src = std::fs::read_to_string(fixture_root().join(&wildcard.file)).unwrap();
    assert_eq!(src.lines().nth(wildcard.line - 1).map(str::trim), Some("_ => 0,"));
    assert!(wildcard.render().contains(&format!(":{}:", wildcard.line)));
}

#[test]
fn json_report_round_trips_the_outcome() {
    let out = fixture_outcome();
    let doc = Json::parse(&gw_lint::report::to_json(&out).pretty()).expect("report parses");
    assert_eq!(doc.get("format").and_then(Json::as_str), Some("gw-lint/3"));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
    let listed = doc.get("diagnostics").and_then(Json::as_arr).expect("diagnostics array");
    assert_eq!(listed.len(), out.diagnostics.len());
    // The per-rule breakdown carries live counts.
    let marker = out.diagnostics.iter().filter(|d| d.rule == "marker").count();
    assert!(marker >= 4, "{out:#?}");
    assert_eq!(doc.get_path(&["rules", "marker"]).and_then(Json::as_u64), Some(marker as u64));
}

// ---------------------------------------------------------------------
// The compiler's half. `fixtures/clippy_ws` plants what the retired
// `hot-path`, `no-lock`, `hygiene` and `safety` rules planted, each
// violation with the lint expected on its line in a `//~ lint` comment,
// and `cargo clippy` must report exactly those.

/// A `(file, line, lint)` triple, `file` relative to the fixture root.
type Fired = (String, usize, String);

/// What the fixture plants and what clippy reports, both sorted.
struct Clippy {
    planted: Vec<Fired>,
    fired: Vec<Fired>,
}

fn clippy_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clippy_ws")
}

/// Run `cargo clippy` over the fixture, once per test binary.
fn clippy_fixture() -> &'static Clippy {
    static RUN: OnceLock<Clippy> = OnceLock::new();
    RUN.get_or_init(|| {
        let out = Command::new(env!("CARGO"))
            .current_dir(clippy_root())
            .args(["clippy", "--offline", "--quiet", "--keep-going", "--message-format=json"])
            .arg("--target-dir")
            .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy_ws"))
            .output()
            .expect("cargo runs");
        let mut fired: Vec<Fired> =
            String::from_utf8_lossy(&out.stdout).lines().filter_map(compiler_message).collect();
        fired.sort();
        assert!(
            !fired.is_empty(),
            "clippy reported nothing:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut planted = Vec::new();
        for krate in ["hot", "lowered", "roots", "wire"] {
            let mut files = Vec::new();
            gw_lint::manifest::walk_rs(&clippy_root().join(krate).join("src"), &mut files).unwrap();
            for path in files {
                let rel = path.strip_prefix(clippy_root()).unwrap().to_string_lossy().into_owned();
                let text = std::fs::read_to_string(&path).unwrap();
                for (i, line) in text.lines().enumerate() {
                    let lints = line.split_once("//~ ").map_or("", |(_, lints)| lints);
                    planted
                        .extend(lints.split_whitespace().map(|l| (rel.clone(), i + 1, l.into())));
                }
            }
        }
        planted.sort();
        Clippy { planted, fired }
    })
}

/// The `(file, line, lint)` of one `cargo --message-format=json` line,
/// when it is a diagnostic with a code and a primary span.
fn compiler_message(line: &str) -> Option<Fired> {
    let doc = Json::parse(line).ok()?;
    let message = doc.get("message")?;
    let lint = message.get_path(&["code", "code"])?.as_str()?;
    let spans = message.get("spans")?.as_arr()?;
    let span = spans.iter().find(|s| s.get("is_primary") == Some(&Json::Bool(true)))?;
    let file = span.get("file_name")?.as_str()?;
    Some((file.to_string(), span.get("line_start")?.as_u64()? as usize, lint.to_string()))
}

/// Under `prefix`, each of `lints` is planted at least once, and fires
/// at exactly the planted lines.
fn fires_where_planted(prefix: &str, lints: &[&str]) {
    let run = clippy_fixture();
    let share = |all: &[Fired]| -> Vec<Fired> {
        all.iter()
            .filter(|(f, _, l)| f.starts_with(prefix) && lints.contains(&l.as_str()))
            .cloned()
            .collect()
    };
    let planted = share(&run.planted);
    for lint in lints {
        assert!(planted.iter().any(|(_, _, l)| l == lint), "{prefix}: nothing plants {lint}");
    }
    assert_fires_as_planted(&share(&run.fired), &planted);
}

/// Every planted lint fired at its line, and nothing else fired.
fn assert_fires_as_planted(fired: &[Fired], planted: &[Fired]) {
    let missing: Vec<_> = planted.iter().filter(|p| !fired.contains(p)).collect();
    let extra: Vec<_> = fired.iter().filter(|f| !planted.contains(f)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "planted, not fired: {missing:?}\nfired, not planted: {extra:?}"
    );
    assert_eq!(fired, planted, "a lint fired more or fewer times on a line than planted");
}

#[test]
fn clippy_fixture_fires_exactly_where_planted() {
    // Everything planted fires, and nothing else does: the decoys (a
    // cold module, comments and strings, test code, opted-out
    // functions, a derived `Clone`) stay dark.
    let run = clippy_fixture();
    assert_fires_as_planted(&run.fired, &run.planted);
}

#[test]
fn clippy_fixture_holds_the_workspace_lint_levels() {
    let manifest = |dir: &Path| std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let table = gw_lint::manifest::lint_table(&manifest(&root), "workspace.");
    assert!(table.contains(&"rust.unsafe_code = \"forbid\"".to_string()), "{table:?}");
    assert_eq!(gw_lint::manifest::lint_table(&manifest(&clippy_root()), "workspace."), table);
    let hot = std::fs::read_to_string(clippy_root().join("hot/src/hot.rs")).unwrap();
    assert!(hot.contains(gw_lint::rules::marker::HOT_BLOCK));
}

#[test]
fn hot_path_rule_fires_on_each_banned_construct() {
    let lints = [
        "clippy::disallowed_methods",
        "clippy::disallowed_macros",
        "clippy::disallowed_types",
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::unreachable",
        // A per-connection opt-out that no longer excuses anything.
        "unfulfilled_lint_expectations",
    ];
    fires_where_planted("hot/src/hot.rs", &lints);
}

#[test]
fn no_lock_rule_fires_on_locks_in_critical_code() {
    fires_where_planted(
        "hot/src/hot/locks.rs",
        &["clippy::disallowed_types", "clippy::disallowed_methods"],
    );
}

#[test]
fn hygiene_rule_fires_on_missing_root_attributes() {
    // A crate with neither crate docs nor item docs, and `unsafe`: the
    // workspace table forbids both.
    fires_where_planted("roots/", &["missing_docs", "unsafe_code"]);
}

#[test]
fn hygiene_rule_fires_on_a_root_that_downgrades_its_own_lint() {
    // `warn(missing_docs)` and `allow(unsafe_code)` under the
    // workspace's `forbid`: E0453, a hard error.
    fires_where_planted("lowered/", &["E0453"]);
}

#[test]
fn hygiene_rule_holds_the_unsafe_exemption_to_one_file() {
    // In a crate at `deny`, `unsafe` without an opt-in is an error. (Which
    // files may opt in, and how often, is CI's grep over gw-wire.)
    fires_where_planted("wire/", &["unsafe_code", "clippy::allow_attributes_without_reason"]);
}

#[test]
fn safety_rule_fires_on_unjustified_unsafe() {
    // An opted-in `unsafe` block and an `unsafe impl`, neither with its
    // `// SAFETY:` argument; the one that has it stays dark.
    fires_where_planted("wire/", &["clippy::undocumented_unsafe_blocks"]);
}

#[test]
fn the_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = gw_lint::run(&root).expect("workspace scans");
    let rendered: Vec<String> = out.diagnostics.iter().map(|d| d.render()).collect();
    assert!(out.ok(), "the workspace must lint clean:\n{}", rendered.join("\n"));
}
