//! `gw-benchmark` — the repository benchmark.
//!
//! ```text
//! gw-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--doc FILE] [--out DIR]
//!     Run one workload for one seed. With `--trace 0` measure the
//!     end-to-end metrics with tracing off; with `--trace 1` run the same
//!     workload again with spans and replay its recorded inputs through
//!     each layer for the per-layer metrics. The outputs are checked by
//!     the workload's oracle either way. The last line on standard
//!     output is one JSON object: correct, attempted, failed, metrics.
//!     `--workload all` runs the six in turn; `--quick` shrinks a run to
//!     2 chunks x 0.1 s (smoke test). `--doc FILE` appends the run, with
//!     host fingerprint and dispersion, to a result document.
//!
//! gw-benchmark compare A.json B.json
//!     Per workload x end-to-end metric: better, worse, indistinguishable
//!     or unresolved, from the bounds in BENCHMARK.json and the spread of
//!     A's runs; exact metrics compare by equality.
//! ```
//!
//! Everything is measured from outside, through the crates' public
//! functions; see `README.md` beside this package for the glossary.

mod alloc;
mod compare;
mod gen;
mod host;
mod layers;
mod metrics;
mod oracle;
mod report;
mod run;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1991;

/// Command-line options of a run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, or `all`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed chunks.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// 2 chunks x 0.1 s.
    pub quick: bool,
    /// Result document to append the run to.
    pub doc: Option<String>,
    /// Directory for traces and the last result.
    pub out: String,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        quick: false,
        doc: None,
        out: "benchmark/out".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => o.quick = true,
            "--doc" => o.doc = Some(value()?),
            "--out" => o.out = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload NAME (or all) is required".into());
    }
    Ok(o)
}

/// Refuse to measure a binary built differently from the shipped code:
/// the root manifest turns `overflow-checks` on for release builds, a
/// separate workspace root does not inherit that, and a debug build
/// measures nothing of interest.
fn build_parity() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("debug build: run with `cargo run --release`".into());
    }
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let probe = std::panic::catch_unwind(|| {
        std::hint::black_box(std::hint::black_box(u8::MAX) + std::hint::black_box(1))
    });
    std::panic::set_hook(hook);
    match probe {
        Err(_) => Ok(()),
        Ok(_) => Err("built without overflow-checks: the root manifest's release profile has \
                      them on, and benchmark/Cargo.toml must repeat it"
            .into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("usage: gw-benchmark compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gw-benchmark: {e}\n(see the usage at the top of benchmark/src/main.rs)");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = build_parity() {
        eprintln!("gw-benchmark: refusing to run: {e}");
        return ExitCode::from(2);
    }
    alloc::keep_heap_warm();
    let names: Vec<&str> = if options.workload == "all" {
        workloads::WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        vec![options.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        match traced::run_workload(name, &options) {
            Ok(result) => {
                report::print_human(&result);
                if let Err(e) = report::persist(&result, &options) {
                    eprintln!("gw-benchmark: could not write results: {e}");
                    ok = false;
                }
                println!("{}", report::contract_line(&result));
                ok &= result.correct;
            }
            Err(e) => {
                eprintln!("gw-benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_the_driver_command_line() {
        let args: Vec<String> = "--workload f2a_mixed --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(Into::into)
            .collect();
        let o = parse_options(&args).expect("parses");
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("f2a_mixed", 7, 10.0, true));
        assert!(parse_options(&["--seed".into()]).is_err());
        assert!(parse_options(&["--workload".into(), "x".into(), "--trace".into(), "2".into()])
            .is_err());
    }

    /// The smoke test the issue asks for: all six workloads, oracles on,
    /// end-to-end and traced, in quick mode.
    #[test]
    fn quick_mode_runs_all_six_workloads_with_their_oracles() {
        let began = std::time::Instant::now();
        for trace in [false, true] {
            for (name, _) in workloads::WORKLOADS {
                let options = Options {
                    workload: name.into(),
                    seed: 5,
                    seconds: 0.2,
                    trace,
                    quick: true,
                    doc: None,
                    out: String::new(),
                };
                let r = traced::run_workload(name, &options).expect("known workload");
                assert!(r.correct, "{name} (trace {trace}): {:?} {:?}", r.failures, r.findings);
                assert!(r.attempted >= 1 && r.failed == 0, "{name}: {} failed", r.failed);
                let want = if trace { metrics::PER_LAYER.len() } else { metrics::END_TO_END.len() };
                assert_eq!(r.metrics.len(), want, "{name} prints every metric of its run kind");
                let line = report::contract_line(&r);
                let doc =
                    atm_fddi_gateway::mgmt::json::Json::parse(&line).expect("one JSON object");
                for key in ["correct", "attempted", "failed", "metrics"] {
                    assert!(doc.get(key).is_some(), "{key} in the contract line");
                }
            }
        }
        // Debug builds are several times slower than what is measured;
        // the budget the issue names (10 s) is for the release binary.
        let budget = if cfg!(debug_assertions) { 120 } else { 10 };
        assert!(began.elapsed().as_secs() < budget, "quick mode took {:?}", began.elapsed());
    }
}
