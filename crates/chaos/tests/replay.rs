//! Replay determinism and the regression-seed corpus.
//!
//! These are the checked-in guarantees behind the soak job: a seed is
//! a complete, stable bug report (bit-for-bit replay), and every seed
//! that ever exposed a bug keeps passing after the fix.

use gw_chaos::{emit_scene, generate, minimize_scene, run_scene, run_seed, run_seed_with_phy};
use gw_phy::{PhyMode, TransportFaultConfig};

/// Seeds in `regression_seeds.txt`, in file order.
fn regression_seeds() -> Vec<u64> {
    include_str!("../regression_seeds.txt")
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter(|line| !line.is_empty())
        .map(|line| line.parse().unwrap_or_else(|_| panic!("bad corpus line {line:?}")))
        .collect()
}

/// Same seed, two runs, byte-identical snapshot documents — the
/// property that makes a failing soak seed reproducible forever.
#[test]
fn seed_replay_is_bit_for_bit() {
    for seed in [3, 17] {
        let a = run_seed(seed);
        let b = run_seed(seed);
        assert!(!a.snapshot.is_empty(), "seed {seed} rendered no snapshot");
        assert_eq!(a.snapshot, b.snapshot, "seed {seed} replay diverged");
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.violations, b.violations);
    }
}

/// Transport-blindness: the same seed through the UDP-encapsulation
/// phy — datagrams dropped, duplicated, and truncated below the
/// gateway — renders the byte-identical snapshot the loopback run
/// does, because the lockstep ARQ owes the gateway an in-order,
/// exactly-once stream no matter what the wire does.
#[test]
fn udp_phy_replay_matches_loopback_bit_for_bit() {
    for seed in [3, 17] {
        let sim = run_seed(seed);
        let faults = TransportFaultConfig {
            drop: 0.05,
            duplicate: 0.05,
            truncate: 0.03,
            seed: seed ^ 0x0F1A,
        };
        let udp = run_seed_with_phy(seed, PhyMode::Udp { faults });
        assert!(!sim.snapshot.is_empty(), "seed {seed} rendered no snapshot");
        assert_eq!(sim.snapshot, udp.snapshot, "seed {seed} diverged across transports");
        assert_eq!(sim.delivered, udp.delivered);
        assert_eq!(sim.violations, udp.violations);
        let t = udp.transport.expect("UDP run records transport coverage");
        assert!(t.0.datagrams_tx > 0 && t.0.datagrams_rx > 0, "seed {seed} never hit the sockets");
    }
}

/// Scene materialization is a pure function of the seed.
#[test]
fn scene_generation_is_stable() {
    assert_eq!(generate(42), generate(42));
    assert_ne!(generate(42).traffic, generate(43).traffic);
}

/// Every seed that ever exposed a bug, replayed against the fixed
/// gateway: conservation holds, residue is zero, payloads are intact.
#[test]
fn regression_corpus_replays_clean() {
    let seeds = regression_seeds();
    assert!(seeds.len() >= 4, "corpus unexpectedly small ({} seeds)", seeds.len());
    for seed in seeds {
        let report = run_seed(seed);
        assert!(
            report.passed(),
            "regression seed {seed} failed again: {:?} residue {:?}",
            report.violations,
            report.residue
        );
    }
}

/// The shrinker never "fixes" a passing scene and always returns a
/// schedule no larger than its input.
#[test]
fn minimizer_is_sound_on_passing_scenes() {
    let scene = generate(3);
    let small = minimize_scene(&scene);
    assert_eq!(small.traffic.len(), scene.traffic.len(), "passing scene must not shrink");
    assert!(run_scene(&small).passed());
}

/// A seed is run by running the scene it denotes. Until that was the
/// only path, seeds were lowered straight onto the testbed
/// configuration; these are the `(length, FNV-1a 64)` of the
/// `gw-snapshot/1` documents that direct path rendered (recorded at
/// b85e223), and the scene path must render the same bytes.
#[test]
fn scene_path_renders_the_snapshots_the_direct_seed_path_did() {
    const RECORDED: &[(u64, usize, u64)] = &[
        (3, 6076, 0x1c79_32c3_eb68_8990),
        (17, 5104, 0x3518_671b_e630_70c7),
        (1, 5122, 0xf12f_462b_a767_124c),
        (4, 6052, 0xdf13_8582_ec4e_a187),
        (5, 5588, 0x2b0e_2a56_8264_fede),
        (8, 5585, 0x1d33_8e27_fb8a_2d30),
        (12, 6119, 0x1c67_a50a_836e_7aa4),
        (13, 5610, 0xd9ab_a23d_4e4c_63a5),
        (42, 6038, 0x901a_9b69_88f8_fa3c),
    ];
    for seed in regression_seeds() {
        assert!(RECORDED.iter().any(|r| r.0 == seed), "no recorded digest for seed {seed}");
    }
    for &(seed, len, digest) in RECORDED {
        let snapshot = run_seed(seed).snapshot;
        let fnv = snapshot.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((snapshot.len(), fnv), (len, digest), "seed {seed} snapshot changed");
    }
}

/// The checked-in `scenes/regressions/` corpus is exactly the canonical
/// emission of `regression_seeds.txt` (so neither can drift without the
/// other), and every scene replays clean through the scene path.
#[test]
fn regression_scene_corpus_matches_seeds_and_replays_clean() {
    let corpus = include_str!("../regression_seeds.txt");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenes/regressions");
    let mut checked = 0;
    for line in corpus.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let seed: u64 = line.parse().unwrap_or_else(|_| panic!("bad corpus line {line:?}"));
        let path = format!("{dir}/seed-{seed}.scene");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} — regenerate with `gw-chaos emit-scene`"));
        assert_eq!(
            text,
            emit_scene(seed),
            "{path} is stale — regenerate with `gw-chaos emit-scene --seed {seed} --out {path}`"
        );
        let (scene, diags) = gw_scene::parse(&text);
        assert!(diags.is_empty(), "{path} drew diagnostics: {diags:?}");
        let report = run_scene(&scene.unwrap());
        assert!(
            report.passed(),
            "regression scene {path} failed: {:?} residue {:?}",
            report.violations,
            report.residue
        );
        checked += 1;
    }
    assert!(checked >= 4, "scene corpus unexpectedly small ({checked})");
}

/// A chaos-minimized failure emitted as canonical `.scene` text still
/// parses and still fails the same way — the acceptance contract for
/// shipping repros as scenes.
#[test]
fn minimized_scene_reproduces_through_canonical_text() {
    // A scene that genuinely fails: half the cells dropped, but the
    // scene demands total delivery.
    let src = "\
# gw-scene/1
scene doomed
seed 9
congram a station 1 class async
congram b station 2 class async
burst from_us 0 to_us 8000 every_us 500 vc a dir atm len 900 fill 0x5a
burst from_us 250 to_us 8000 every_us 750 vc b dir atm len 400 fill 0xa7
send at_us 9000 vc a dir fddi len 700 fill 0x33
fault drops 0.5
expect conservation
expect residue_clean
expect delivered_all
";
    let (scene, diags) = gw_scene::parse(src);
    assert!(diags.is_empty(), "{diags:?}");
    let scene = scene.unwrap();
    assert!(!run_scene(&scene).passed(), "the doomed scene must fail");

    let small = minimize_scene(&scene);
    assert!(small.traffic.len() <= scene.traffic.len());
    // Round the minimized scene through canonical text, as the CLI
    // artifact does, and replay it.
    let text = gw_scene::format_scene(&small);
    let (reparsed, diags) = gw_scene::parse(&text);
    let errors = diags.iter().filter(|d| d.severity == gw_scene::Severity::Error).count();
    assert_eq!(errors, 0, "minimized scene text drew errors: {diags:?}\n{text}");
    let report = run_scene(&reparsed.unwrap());
    assert!(!report.passed(), "minimized scene no longer reproduces:\n{text}");
}
