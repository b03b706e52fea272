//! The rule families and the per-file dispatch.
//!
//! Each family maps onto a hardware property of the paper's gateway
//! (§4–§6) that rustc and clippy cannot check from the program alone:
//! `layering` models the board partition (wire formats below
//! everything, management off the cell path), `exhaustive` models the
//! MCHIP type field's closed code space — an unknown frame type is a
//! hardware fault, never a silent drop — `marker` keeps the compiler's
//! critical-path lint levels where the design puts them, and
//! `dead-pub` models the NPE's narrow window onto the critical path (a
//! few registers and the ICXTs): no library exports what nothing
//! outside it uses.

pub mod deadpub;
pub mod exhaustive;
pub mod layering;
pub mod marker;

use crate::strip;
use crate::Diagnostic;

/// Every rule family a diagnostic can carry, in report order. The JSON
/// report breaks its counts down by these, so a family added without
/// being listed here would vanish from the audit trail — the report
/// module asserts against that.
pub(crate) const FAMILIES: &[&str] = &["layering", "exhaustive", "marker", "dead-pub"];

/// Wire-format enums whose `match`es must stay exhaustive: the MCHIP
/// frame-type code space (congram opcodes), the decoded congram control
/// payloads, FDDI frame-control classes, and HEC correction outcomes.
pub(crate) const EXHAUSTIVE_ENUMS: &[&str] =
    &["MchipType", "ControlPayload", "FrameControl", "HecOutcome"];

/// Run every per-file rule over one source file.
///
/// `rel` is the workspace-relative path; `text` the raw file contents.
pub(crate) fn scan_file(rel: &str, text: &str) -> Vec<Diagnostic> {
    let stripped = strip::strip(text);
    let mut diags = marker::check_file(rel, &stripped);
    diags.extend(exhaustive::check(rel, &strip::blank_cfg_test(&stripped)));
    diags
}
