//! `gw-lint` binary: run the workspace pass from anywhere inside the
//! repo, print `file:line` diagnostics, write `gw-lint-report.json` at
//! the workspace root, and exit non-zero on any finding.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gw-lint: cannot determine working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(root) = gw_lint::find_workspace_root(&cwd) else {
        eprintln!(
            "gw-lint: no workspace root (Cargo.toml with [workspace]) above {}",
            cwd.display()
        );
        return ExitCode::FAILURE;
    };
    let outcome = match gw_lint::run(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gw-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    for diag in &outcome.diagnostics {
        println!("{}", diag.render());
    }
    let report = gw_lint::report::to_json(&outcome).pretty();
    let report_path = root.join("gw-lint-report.json");
    if let Err(e) = std::fs::write(&report_path, report) {
        eprintln!("gw-lint: cannot write {}: {e}", report_path.display());
        return ExitCode::FAILURE;
    }

    println!(
        "gw-lint: {} file(s), {} crate(s): {} finding(s)",
        outcome.files_scanned,
        outcome.crates.len(),
        outcome.diagnostics.len(),
    );
    if outcome.ok() {
        println!("gw-lint: critical-path / non-critical-path split holds");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
