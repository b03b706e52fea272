//! `gw-scene` CLI: check and canonically format `.scene` files.
//!
//! ```text
//! gw-scene check [--deny-warnings] FILE...   # parse, print diagnostics
//! gw-scene fmt [--check] FILE...             # canonical formatter
//! ```
//!
//! `check` exits nonzero on any error (or, with `--deny-warnings`, on
//! any diagnostic at all) — this is the CI corpus gate. `fmt` rewrites
//! each file in place to canonical form; with `--check` it rewrites
//! nothing and exits nonzero if any file is not already canonical.

use gw_scene::{format_scene, parse, Severity};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: gw-scene check [--deny-warnings] FILE...");
    eprintln!("       gw-scene fmt [--check] FILE...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { return usage() };
    match cmd.as_str() {
        "check" => {
            let deny_warnings = rest.first().is_some_and(|a| a == "--deny-warnings");
            let files = &rest[usize::from(deny_warnings)..];
            if files.is_empty() {
                return usage();
            }
            let mut failed = false;
            for path in files {
                let src = match std::fs::read_to_string(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        failed = true;
                        continue;
                    }
                };
                let (scene, diags) = parse(&src);
                for d in &diags {
                    eprintln!("{path}:{}", d.render());
                }
                let errors = diags.iter().any(|d| d.severity == Severity::Error);
                if errors || (deny_warnings && !diags.is_empty()) {
                    failed = true;
                } else if let Some(scene) = scene {
                    println!(
                        "{path}: ok — scene `{}`, {} congrams, {} frames scheduled",
                        scene.name,
                        scene.congrams.len(),
                        scene.scheduled_frames()
                    );
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "fmt" => {
            let check_only = rest.first().is_some_and(|a| a == "--check");
            let files = &rest[usize::from(check_only)..];
            if files.is_empty() {
                return usage();
            }
            let mut failed = false;
            for path in files {
                let src = match std::fs::read_to_string(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        failed = true;
                        continue;
                    }
                };
                let (scene, diags) = parse(&src);
                let Some(scene) = scene else {
                    for d in &diags {
                        eprintln!("{path}:{}", d.render());
                    }
                    failed = true;
                    continue;
                };
                let canon = format_scene(&scene);
                if canon == src {
                    continue;
                }
                if check_only {
                    eprintln!("{path}: not in canonical form (run `gw-scene fmt`)");
                    failed = true;
                } else if let Err(e) = std::fs::write(path, &canon) {
                    eprintln!("{path}: {e}");
                    failed = true;
                } else {
                    println!("{path}: reformatted");
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
