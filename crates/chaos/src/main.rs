//! `gw-chaos` — deterministic chaos soak runner.
//!
//! ```text
//! gw-chaos run      --seed N                  the seed's scene, full report
//! gw-chaos replay   --seed N                  run twice, byte-compare snapshots
//! gw-chaos soak     --seeds N [--start S]     N consecutive seeds, artifacts on failure
//! gw-chaos phy-soak --seeds N [--start S]     each seed on loopback AND the fault-injected
//!                                             UDP phy, snapshots byte-compared
//! gw-chaos minimize --seed N                  shrink a failing seed's scene and print it
//! gw-chaos run-scene FILE                     parse a .scene and run it under the
//!                                             full chaos oracle set
//! gw-chaos emit-scene --seed N [--out FILE]   a seed's canonical .scene text
//! ```
//!
//! Exit status is non-zero whenever any invariant (conservation, zero
//! residue, payload integrity, replay determinism) does not hold.
//! A seed is run as the scene it denotes (`emit-scene` prints it), so
//! `run` and `run-scene` are one code path: a failing run writes the
//! `gw-chaos-artifact/2` JSON **and** a minimized `.scene` repro next
//! to it.

use gw_chaos::{
    artifact, emit_scene, generate, minimize_scene, run_seed, run_seed_with_phy, RunReport,
    TransportCoverage,
};
use gw_phy::{PhyMode, TransportFaultConfig};
use gw_scene::Scene;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: gw-chaos <run|replay|soak|phy-soak|minimize|run-scene|emit-scene> \
             [--seed N] [--seeds N] [--start S] [--artifact-dir D] [--out FILE] [FILE]"
        );
        return 2;
    };
    let seed = flag(&args, "--seed").unwrap_or(1);
    let seeds = flag(&args, "--seeds").unwrap_or(64);
    let start = flag(&args, "--start").unwrap_or(1);
    let artifact_dir =
        flag_str(&args, "--artifact-dir").unwrap_or_else(|| String::from("chaos-artifacts"));

    match cmd.as_str() {
        "run" => report_one(&generate(seed), &artifact_dir),
        "replay" => replay(seed),
        "soak" => soak(start, seeds, &artifact_dir),
        "phy-soak" => phy_soak(start, seeds, &artifact_dir),
        "minimize" => shrink(seed, &artifact_dir),
        "run-scene" => match positional(&args) {
            Some(path) => match atm_fddi_gateway::scene_run::load(&path) {
                Some(scene) => report_one(&scene, &artifact_dir),
                None => 2,
            },
            None => {
                eprintln!("gw-chaos run-scene: missing scene file");
                2
            }
        },
        "emit-scene" => {
            let text = emit_scene(seed);
            match flag_str(&args, "--out") {
                Some(path) => match std::fs::write(&path, &text) {
                    Ok(()) => {
                        println!("wrote {path}");
                        0
                    }
                    Err(e) => {
                        eprintln!("gw-chaos emit-scene: {path}: {e}");
                        1
                    }
                },
                None => {
                    print!("{text}");
                    0
                }
            }
        }
        other => {
            eprintln!("gw-chaos: unknown command {other:?}");
            2
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1)?.parse().ok()
}

fn flag_str(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

/// The first operand after the subcommand that is neither a flag nor a
/// flag's value.
fn positional(args: &[String]) -> Option<String> {
    let mut skip = false;
    for a in args.iter().skip(1) {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        return Some(a.clone());
    }
    None
}

/// Run one scene and print the full report. A failing run writes the
/// JSON artifact plus a minimized `.scene` any harness (or any human
/// editor) can replay directly.
fn report_one(scene: &Scene, artifact_dir: &str) -> i32 {
    let report = gw_chaos::run_scene(scene);
    println!("{}", report.summary());
    println!("  {}", report.coverage.summary());
    for v in &report.violations {
        println!("  violation: {v}");
    }
    if !report.residue.is_clean() {
        println!("  residue: {:?}", report.residue);
    }
    if let Some(trace) = &report.trace_dump {
        println!("{trace}");
    }
    if report.passed() {
        return 0;
    }
    write_artifact(artifact_dir, &report);
    write_minimized(scene, artifact_dir);
    1
}

/// Shrink a failing scene and write it next to the artifact.
fn write_minimized(scene: &Scene, artifact_dir: &str) -> Scene {
    let small = minimize_scene(scene);
    let path = format!("{artifact_dir}/{}.min.scene", scene.name);
    let written = std::fs::create_dir_all(artifact_dir)
        .and_then(|()| std::fs::write(&path, gw_scene::format_scene(&small)));
    match written {
        Ok(()) => eprintln!("  minimized scene: {path} ({} traffic lines)", small.traffic.len()),
        Err(e) => eprintln!("  minimized scene write failed: {e}"),
    }
    small
}

fn replay(seed: u64) -> i32 {
    let a = run_seed(seed);
    let b = run_seed(seed);
    if a.snapshot == b.snapshot && !a.snapshot.is_empty() {
        println!("seed {seed}: replay identical ({} snapshot bytes)", a.snapshot.len());
        0
    } else {
        println!(
            "seed {seed}: REPLAY DIVERGED ({} vs {} snapshot bytes)",
            a.snapshot.len(),
            b.snapshot.len()
        );
        1
    }
}

fn soak(start: u64, seeds: u64, artifact_dir: &str) -> i32 {
    let mut failures = Vec::new();
    let mut coverage = gw_chaos::Coverage::default();
    for seed in start..start.saturating_add(seeds) {
        let report = run_seed(seed);
        coverage.absorb(&report.coverage);
        if report.passed() {
            println!("{}", report.summary());
        } else {
            println!("{}", report.summary());
            for v in &report.violations {
                println!("  violation: {v}");
            }
            write_artifact(artifact_dir, &report);
            failures.push(seed);
        }
    }
    println!("{}", coverage.summary());
    if failures.is_empty() {
        // A clean soak that never drove the adversarial paths proves
        // nothing — gate on the fault mix having actually fired.
        let starved = coverage.shed + coverage.overflow;
        let corrupted = coverage.hec_discards + coverage.crc_drops;
        if seeds >= 32
            && (coverage.seq_errors == 0
                || corrupted == 0
                || coverage.timeouts == 0
                || starved == 0)
        {
            println!("soak: {seeds} seeds clean but fault coverage is hollow — FAILING");
            return 1;
        }
        println!("soak: {seeds} seeds clean (start {start})");
        0
    } else {
        println!(
            "soak: {}/{} seeds FAILED: {:?} — replay with `gw-chaos run --seed <N>`",
            failures.len(),
            seeds,
            failures
        );
        1
    }
}

/// The datagram fault mix a phy-soak rides: harsh enough that every
/// class fires across a 32-seed soak, mild enough that the lockstep
/// ARQ converges in a handful of seam-flush rounds.
fn phy_soak_faults(seed: u64) -> TransportFaultConfig {
    TransportFaultConfig {
        drop: 0.04,
        duplicate: 0.04,
        truncate: 0.02,
        seed: seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0x0F1A),
    }
}

/// Transport-blindness soak: every seed runs on the in-process
/// loopback AND on the UDP-encapsulation phy with datagram drop,
/// duplication, and truncation injected below the gateway — and the
/// two `gw-snapshot/1` documents must be byte-identical, because the
/// lockstep ARQ owes the gateway an in-order, exactly-once stream no
/// matter what the wire does.
fn phy_soak(start: u64, seeds: u64, artifact_dir: &str) -> i32 {
    let mut failures = Vec::new();
    let mut coverage = gw_chaos::Coverage::default();
    let mut transport = TransportCoverage::default();
    for seed in start..start.saturating_add(seeds) {
        let sim = run_seed(seed);
        let udp = run_seed_with_phy(seed, PhyMode::Udp { faults: phy_soak_faults(seed) });
        coverage.absorb(&udp.coverage);
        if let Some(t) = &udp.transport {
            transport.absorb(t);
        }
        let identical = sim.snapshot == udp.snapshot && !sim.snapshot.is_empty();
        let ok = identical && sim.passed() && udp.passed();
        println!("{}  {}", udp.summary(), if identical { "phy-identical" } else { "PHY DIVERGED" });
        if !ok {
            for v in sim.violations.iter().chain(&udp.violations) {
                println!("  violation: {v}");
            }
            write_artifact(artifact_dir, &udp);
            failures.push(seed);
        }
    }
    println!("{}", coverage.summary());
    println!("{}", transport.summary());
    if failures.is_empty() {
        // Byte-identity over a transport whose faults never fired is a
        // hollow proof — gate on every datagram fault class having
        // been injected AND absorbed.
        if seeds >= 32 && !transport.exercised() {
            println!("phy-soak: {seeds} seeds identical but transport fault coverage is hollow — FAILING");
            return 1;
        }
        println!("phy-soak: {seeds} seeds byte-identical across loopback and UDP (start {start})");
        0
    } else {
        println!(
            "phy-soak: {}/{} seeds FAILED: {:?} — replay with `gw-chaos run --seed <N>`",
            failures.len(),
            seeds,
            failures
        );
        1
    }
}

fn shrink(seed: u64, artifact_dir: &str) -> i32 {
    let full = generate(seed);
    if gw_chaos::run_scene(&full).passed() {
        println!("seed {seed}: passes; nothing to minimize");
        return 0;
    }
    let small = write_minimized(&full, artifact_dir);
    println!(
        "seed {seed}: minimized schedule {} -> {} sends; still failing:",
        full.traffic.len(),
        small.traffic.len()
    );
    print!("{}", gw_scene::format_scene(&small));
    for v in &gw_chaos::run_scene(&small).violations {
        println!("  violation: {v}");
    }
    1
}

fn write_artifact(dir: &str, report: &RunReport) {
    let doc = artifact(report);
    if std::fs::create_dir_all(dir).is_ok() {
        let path = format!("{dir}/seed-{}.json", report.seed);
        match std::fs::write(&path, doc.pretty()) {
            Ok(()) => eprintln!("  artifact: {path}"),
            Err(e) => eprintln!("  artifact write failed: {e}"),
        }
    }
}
