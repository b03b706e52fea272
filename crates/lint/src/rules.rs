//! The rule families and the per-file dispatch.
//!
//! Rule families map one-to-one onto hardware properties of the paper's
//! gateway (§4–§6): `hot-path` models the SPP/MPP's fixed per-cell work
//! and static table memory, `layering` models the board partition
//! (wire formats below everything, management off the cell path),
//! `hygiene` keeps the crate roots' compiler-enforced guarantees,
//! `safety` keeps every `unsafe` token's soundness argument attached to
//! it, `exhaustive` models the MCHIP type field's closed code space —
//! an unknown frame type is a hardware fault, never a silent drop —
//! `no-lock` models the FIFO-only engine interconnect: each engine owns
//! its tables outright, so the cell path never arbitrates on a lock —
//! and `dead-pub` models the NPE's narrow window onto the critical path
//! (a few registers and the ICXTs): no library exports what nothing
//! outside it uses.

pub mod deadpub;
pub mod exhaustive;
pub mod hotpath;
pub mod hygiene;
pub mod layering;
pub mod nolock;
pub mod safety;

use crate::strip;
use crate::Diagnostic;

/// Every rule family a diagnostic can carry, in report order. The JSON
/// report breaks its counts down by these, so a family added without
/// being listed here would vanish from the audit trail — the report
/// module asserts against that.
pub(crate) const FAMILIES: &[&str] =
    &["hot-path", "no-lock", "layering", "hygiene", "safety", "exhaustive", "marker", "dead-pub"];

/// Files the paper's critical path maps onto, as whole-directory
/// prefixes. Every `.rs` file under these is critical-path code.
const CRITICAL_PREFIXES: &[&str] = &["crates/wire/src/", "crates/sar/src/"];

/// Individually-designated critical-path files: the per-cell and
/// per-frame machinery of the core crate. The rest of `crates/core`
/// (NPE, supervisor, snapshot…) is the software non-critical path by
/// design.
const CRITICAL_FILES: &[&str] = &[
    "crates/core/src/gateway.rs",
    "crates/core/src/mpp.rs",
    "crates/core/src/spp.rs",
    "crates/core/src/buffers.rs",
    "crates/core/src/fifo.rs",
];

/// Wire-format enums whose `match`es must stay exhaustive: the MCHIP
/// frame-type code space (congram opcodes), the decoded congram control
/// payloads, FDDI frame-control classes, and HEC correction outcomes.
pub(crate) const EXHAUSTIVE_ENUMS: &[&str] =
    &["MchipType", "ControlPayload", "FrameControl", "HecOutcome"];

/// The marker every critical-path file must carry (and by which other
/// files can opt in).
const CRITICAL_MARKER: &str = "gw-lint: critical-path";

/// Is `rel` in the built-in critical-path set?
fn is_critical_listed(rel: &str) -> bool {
    CRITICAL_PREFIXES.iter().any(|p| rel.starts_with(p)) || CRITICAL_FILES.contains(&rel)
}

/// Does the file carry the critical-path marker? Only comment lines
/// count, so a string literal mentioning the marker (this crate's own
/// config, say) does not opt a file in.
fn has_marker(text: &str) -> bool {
    text.lines().any(|l| {
        let t = l.trim_start();
        t.starts_with("//") && t.contains(CRITICAL_MARKER)
    })
}

/// Run every per-file rule over one source file.
///
/// `rel` is the workspace-relative path; `text` the raw file contents.
pub(crate) fn scan_file(rel: &str, text: &str) -> Vec<Diagnostic> {
    let stripped = strip::strip(text);
    let prepared = strip::blank_cfg_test(&stripped);
    let mut diags = Vec::new();

    let listed = is_critical_listed(rel);
    let marked = has_marker(text);
    if listed && !marked {
        diags.push(Diagnostic {
            file: rel.to_string(),
            line: 0,
            rule: "marker",
            message: format!(
                "designated critical-path file lacks its `// {CRITICAL_MARKER}` marker"
            ),
        });
    }
    if listed || marked {
        diags.extend(hotpath::check(rel, text, &prepared));
        diags.extend(nolock::check(rel, &prepared));
    }
    diags.extend(hygiene::check_file(rel, &stripped));
    diags.extend(exhaustive::check(rel, &prepared));
    diags.extend(safety::check_unsafe(rel, text, &prepared));
    diags
}
