//! Layering: the crate DAG must match the paper's board partition.
//!
//! The gateway hardware stacks strictly: wire formats (cell, SAR
//! header, FDDI frame, MCHIP frame) are implemented by fixed logic
//! that knows nothing of the rest of the board; the SAR and MCHIP
//! processors use those formats but never reach back into the gateway
//! core that composes them; and the management plane observes the
//! critical path without the critical path ever depending on it
//! (PR 2's single-site `note_*` helpers keep the arrow pointing one
//! way). Port transports (`gw-phy`) sit *outside* the board: a phy may
//! depend on the wire formats and the gateway core it plugs into, but
//! the core — and everything below it — must stay transport-blind.
//! These checks pin that shape: a refactor that, say, makes `gw-sar`
//! pull in `gw-mgmt` for a counter, or the gateway core reach into a
//! transport, fails the lint before it fails review. The scenario
//! language (`gw-scene`) sits outside the board on the other side:
//! a dependency-free leaf that only the harness layer (testbed,
//! chaos, `gwd`) may consume — the board never interprets scenario
//! files.
//!
//! Only `[dependencies]` edges count — dev-dependencies are test
//! scaffolding, not product linkage.

use crate::manifest::Workspace;
use crate::Diagnostic;

/// Reachability bans: `(from, to, why)` — `from` must never reach `to`
/// through the internal dependency DAG.
pub const FORBIDDEN: &[(&str, &str, &str)] = &[
    (
        "gw-sar",
        "gw-gateway",
        "the SAR processor (SPP logic) is below the gateway core in the board stack",
    ),
    ("gw-mchip", "gw-gateway", "the MCHIP layer is below the gateway core in the board stack"),
    (
        "gw-wire",
        "gw-mgmt",
        "wire formats are fixed logic; management must never be reachable from them",
    ),
    (
        "gw-sar",
        "gw-mgmt",
        "the cell path reports into management via core's note_* helpers, never directly",
    ),
    (
        "gw-gateway",
        "gw-phy",
        "the gateway core is transport-blind: phys plug into its port interfaces, the core \
         must never reach a transport",
    ),
    (
        "gw-sar",
        "gw-phy",
        "the SAR processor is fixed board logic; transports sit outside the board entirely",
    ),
    (
        "gw-mgmt",
        "gw-phy",
        "management observes port health through the core's note_transport_* hooks, never a \
         transport directly",
    ),
    (
        "gw-wire",
        "gw-scene",
        "wire formats are fixed logic; the scenario language is harness vocabulary and must \
         never be reachable from them",
    ),
    (
        "gw-sar",
        "gw-scene",
        "the SAR processor is fixed board logic; scenario files drive harnesses, not the board",
    ),
    (
        "gw-gateway",
        "gw-scene",
        "the gateway core forwards cells and frames; only harnesses (testbed, chaos, gwd) \
         interpret scenario files",
    ),
];

/// Crates held to a closed set of internal dependencies:
/// `(crate, allowed, why)`. An empty set makes the crate a leaf.
pub const ONLY_DEPS: &[(&str, &[&str], &str)] = &[
    ("gw-wire", &[], "wire formats are the bottom of the stack; they depend on nothing internal"),
    (
        "gw-sim",
        &[],
        "the simulation substrate (time, events, JSON) sits under everything; it depends on \
         nothing internal",
    ),
    (
        "gw-lint",
        &["gw-sim"],
        "the lint must never be able to break, or be broken by, the code it checks; it may \
         use only the leaf gw-sim (for its JSON report)",
    ),
    (
        "gw-scene",
        &[],
        "the scenario language is pure vocabulary: harnesses depend on it, it depends on \
         nothing, so one `.scene` file means the same thing in every harness",
    ),
];

/// Run every layering check over the discovered workspace.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let manifest_of = |name: &str| -> String {
        match ws.get(name) {
            Some(c) if c.dir != "." => format!("{}/Cargo.toml", c.dir),
            _ => "Cargo.toml".to_string(),
        }
    };

    for &(name, allowed, why) in ONLY_DEPS {
        if let Some(krate) = ws.get(name) {
            for dep in krate.internal_deps.iter().filter(|d| !allowed.contains(&d.as_str())) {
                diags.push(Diagnostic {
                    file: manifest_of(name),
                    line: 0,
                    rule: "layering",
                    message: format!("`{name}` must not depend on `{dep}`: {why}"),
                });
            }
        }
    }

    for &(from, to, why) in FORBIDDEN {
        if ws.get(from).is_some() && ws.reaches(from, to) {
            diags.push(Diagnostic {
                file: manifest_of(from),
                line: 0,
                rule: "layering",
                message: format!("`{from}` reaches `{to}` through the dependency DAG: {why}"),
            });
        }
    }

    // Nothing may depend on the lint, and the DAG must stay acyclic.
    for krate in &ws.crates {
        if krate.internal_deps.iter().any(|d| d == "gw-lint") {
            diags.push(Diagnostic {
                file: manifest_of(&krate.name),
                line: 0,
                rule: "layering",
                message: format!(
                    "`{}` depends on `gw-lint`: the lint is a tool, not a library layer",
                    krate.name
                ),
            });
        }
        if ws.reaches(&krate.name, &krate.name) {
            diags.push(Diagnostic {
                file: manifest_of(&krate.name),
                line: 0,
                rule: "layering",
                message: format!("`{}` participates in a dependency cycle", krate.name),
            });
        }
    }
    diags
}
