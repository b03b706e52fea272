//! The seed scene corpus under `scenes/` must stay healthy: every file
//! parses without a single diagnostic (the `--deny-warnings` bar CI
//! holds it to), round-trips through the canonical formatter, and the
//! top-level scenarios run clean through the testbed with every
//! declared `expect` holding. The regression scenes are additionally
//! replayed against their seeds in `crates/chaos/tests/replay.rs`.
//!
//! Every corpus file also has the digest of its final `gw-snapshot/1`
//! pinned here, so "byte-identical before/after" — the proof a refactor
//! or a host-speed change owes — is an assertion, not a by-hand diff.

use atm_fddi_gateway::scene_run;
use atm_fddi_gateway::testbed::Testbed;
use gw_phy::PhyMode;
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenes")
}

fn scene_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "scene"))
        .collect();
    files.sort();
    files
}

fn parse_clean(path: &Path) -> gw_scene::Scene {
    let src = std::fs::read_to_string(path).unwrap();
    let (scene, diags) = gw_scene::parse(&src);
    assert!(
        diags.is_empty(),
        "{} has diagnostics: {}",
        path.display(),
        diags.iter().map(|d| d.render()).collect::<Vec<_>>().join("; ")
    );
    let scene = scene.unwrap();
    // The canonical formatter strips prose comments, so corpus files
    // are not byte-canonical — but they must survive a round trip.
    let formatted = gw_scene::format_scene(&scene);
    let (reparsed, rediags) = gw_scene::parse(&formatted);
    assert!(rediags.is_empty(), "{}: canonical form has diagnostics", path.display());
    assert_eq!(reparsed.unwrap(), scene, "{}: round trip changed the AST", path.display());
    scene
}

#[test]
fn corpus_parses_clean_and_canonical() {
    let top = scene_files(&corpus_dir());
    let regressions = scene_files(&corpus_dir().join("regressions"));
    assert!(top.len() >= 5, "seed corpus shrank: {} top-level scenes", top.len());
    assert!(regressions.len() >= 4, "regression corpus shrank: {} scenes", regressions.len());
    for path in top.iter().chain(&regressions) {
        parse_clean(path);
    }
}

#[test]
fn corpus_scenes_run_clean_through_testbed() {
    for path in scene_files(&corpus_dir()) {
        let scene = parse_clean(&path);
        let outcome = scene_run::run_scene(&scene, PhyMode::Loopback);
        assert!(
            outcome.passed(),
            "{}: expects violated: {:?} ({} of {} frames delivered)",
            path.display(),
            outcome.violations,
            outcome.delivered,
            outcome.scheduled
        );
    }
}

/// `(file, snapshot octets, FNV-1a 64 of the snapshot, frames delivered
/// to the FDDI stations, frames delivered to the ATM host)` for every
/// corpus file run through the testbed (loopback seams) and drained,
/// recorded at e708c11. A change that moves a row changed what the
/// simulation computes: simulated times, drop decisions, tie-breaks or
/// counters. Re-record a row only when that is the point of the change
/// (run the test; the failure prints the table as it is now).
const RECORDED: &[(&str, usize, u64, usize, usize)] = &[
    ("fault_storm.scene", 5543, 0x0466_0f15_97cc_d754, 6, 31),
    ("policing_sweep.scene", 5616, 0x79a2_32ea_dfc5_a586, 10, 8),
    ("quickstart.scene", 5014, 0x0770_f062_e1d8_26b2, 18, 5),
    ("starvation_wave.scene", 5451, 0xdbf7_a4f3_46fe_313e, 46, 0),
    ("ttrt_mix.scene", 5572, 0x2be5_4934_d751_ea6d, 69, 64),
    ("regressions/seed-1.scene", 5122, 0xf12f_462b_a767_124c, 6, 26),
    ("regressions/seed-12.scene", 6119, 0x1c67_a50a_836e_7aa4, 28, 23),
    ("regressions/seed-13.scene", 5610, 0xd9ab_a23d_4e4c_63a5, 22, 38),
    ("regressions/seed-17.scene", 5104, 0x3518_671b_e630_70c7, 51, 40),
    ("regressions/seed-4.scene", 6052, 0xdf13_8582_ec4e_a187, 11, 40),
    ("regressions/seed-42.scene", 6038, 0x901a_9b69_88f8_fa3c, 9, 24),
    ("regressions/seed-5.scene", 5588, 0x2b0e_2a56_8264_fede, 38, 20),
    ("regressions/seed-8.scene", 5585, 0x1d33_8e27_fb8a_2d30, 10, 41),
];

#[test]
fn corpus_snapshots_match_the_recorded_digests() {
    let dir = corpus_dir();
    let mut files = scene_files(&dir);
    files.extend(scene_files(&dir.join("regressions")));
    let mut rows = Vec::new();
    for path in &files {
        let scene = parse_clean(path);
        let (mut tb, handles) = Testbed::from_scene(&scene, PhyMode::Loopback);
        scene_run::play_schedule(&mut tb, &handles, &scene);
        scene_run::drain(&mut tb);
        let to_fddi: usize = (0..tb.ring.len()).map(|s| tb.fddi_rx(s).len()).sum();
        let to_atm = tb.atm_host_rx.len();
        let snapshot = tb.gw.snapshot(tb.now()).render();
        let fnv = snapshot.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let name = path.strip_prefix(&dir).unwrap().to_str().unwrap();
        rows.push((name, snapshot.len(), fnv, to_fddi, to_atm));
    }
    let table: String = rows
        .iter()
        .map(|(n, l, f, a, b)| format!("    ({n:?}, {l}, {f:#018x}, {a}, {b}),\n"))
        .collect();
    assert!(rows == RECORDED, "corpus snapshots moved; the table as it is now:\n{table}");
}
