//! `experiments scene <file>` — a `.scene` file as a bench workload.
//!
//! The same scenario files the testbed, the chaos harness, and `gwd
//! smoke` consume double as benchmark workloads: the scene's schedule
//! is played through the co-simulation and the harness reports
//! simulated throughput plus the wall-clock cost of simulating it
//! (the sim/wall ratio is the number that regresses when the critical
//! path grows slower). The run's `expect` verdicts gate the exit
//! status, so a bench sweep cannot silently measure a broken gateway.

use atm_fddi_gateway::scene_run;
use gw_phy::PhyMode;
use gw_scene::Scene;

/// Run one `.scene` workload; false when the file does not parse or
/// the run violates a declared expectation.
pub fn run_file(path: &str) -> bool {
    scene_run::load(path).is_some_and(|scene| run_scene_workload(path, &scene))
}

fn run_scene_workload(path: &str, scene: &Scene) -> bool {
    let payload_octets: u64 = scene.schedule().iter().map(|s| u64::from(s.len)).sum();
    let wall_start = std::time::Instant::now();
    let outcome = scene_run::run_scene(scene, PhyMode::Loopback);
    let wall = wall_start.elapsed();

    let sim_s = outcome.end.as_ns() as f64 / 1e9;
    let wall_s = wall.as_secs_f64().max(1e-9);
    println!("scene workload: {} ({path})", scene.name);
    println!(
        "  frames    {} scheduled, {} delivered ({} congrams, seed {})",
        outcome.scheduled,
        outcome.delivered,
        scene.congrams.len(),
        scene.seed_or_default()
    );
    println!(
        "  offered   {payload_octets} payload octets ({:.2} Mb/s over {:.1} sim ms)",
        payload_octets as f64 * 8.0 / sim_s / 1e6,
        sim_s * 1e3
    );
    println!("  cost      {:.1} wall ms, sim/wall {:.1}x", wall_s * 1e3, sim_s / wall_s);
    if outcome.passed() {
        println!("  verdict   ok — every declared expect held");
        true
    } else {
        for v in &outcome.violations {
            println!("  violation: {v}");
        }
        false
    }
}
