//! AST → format → parse round-trip property tests.
//!
//! The canonical-formatter contract: for every valid AST,
//! `parse(format_scene(ast)) == Some(ast)` with no errors, and
//! formatting is idempotent. Scenes are generated structurally (every
//! optional knob flips independently, probabilities are arbitrary
//! `f64`s in `[0, 1)`) so the float-printing path is exercised on
//! non-round numbers.

use gw_scene::ast::*;
use gw_scene::{format_scene, parse, Severity};
use proptest::{proptest, ProptestConfig, TestRng};

fn arb_name(rng: &mut TestRng, prefix: &str, i: usize) -> String {
    let tail = rng.below(1000);
    format!("{prefix}{i}x{tail}")
}

fn arb_scene(rng: &mut TestRng) -> Scene {
    let mut scene = Scene { name: arb_name(rng, "s", 0), ..Scene::default() };
    if rng.below(2) == 0 {
        scene.seed = Some(rng.next_u64());
    }
    if rng.below(2) == 0 {
        scene.stations = Some(2 + rng.below(31) as u32);
    }
    if rng.below(4) == 0 {
        scene.slice_us = Some(1 + rng.below(100));
    }
    if rng.below(2) == 0 {
        scene.reassembly_timeout_us = Some(1 + rng.below(20_000));
    }
    if rng.below(3) == 0 {
        scene.liveness_us = Some(1 + rng.below(20_000));
    }
    if rng.below(3) == 0 {
        scene.starve = Some(Starve {
            tx_octets: 1 + rng.below(1 << 20) as u32,
            rx_octets: 1 + rng.below(1 << 20) as u32,
        });
    }
    scene.shedding = rng.below(2) == 0;

    let max_station = scene.stations.unwrap_or(DEFAULT_STATIONS) - 1;
    let n_congrams = 1 + rng.below(4) as usize;
    for i in 0..n_congrams {
        let police = if rng.below(3) == 0 {
            Some(PoliceDecl {
                pcr_bps: 1 + rng.below(100_000_000),
                tolerance_us: rng.below(1000),
                action: if rng.below(2) == 0 { PoliceAction::Drop } else { PoliceAction::Tag },
            })
        } else {
            None
        };
        scene.congrams.push(CongramDecl {
            name: arb_name(rng, "c", i),
            station: 1 + rng.below(u64::from(max_station)) as u32,
            sync: rng.below(2) == 0,
            police,
        });
    }

    let n_traffic = 1 + rng.below(8) as usize;
    for _ in 0..n_traffic {
        let congram = rng.below(n_congrams as u64) as usize;
        let dir = if rng.below(2) == 0 { Dir::Atm } else { Dir::Fddi };
        let len = 1 + rng.below(4000) as u32;
        let fill = rng.below(256) as u8;
        // `clp` on an fddi send draws W004 but must still round-trip.
        let clp = rng.below(4) == 0;
        if rng.below(3) == 0 {
            let from_us = rng.below(40_000);
            scene.traffic.push(Traffic::Burst(BurstDecl {
                from_us,
                to_us: from_us + 1 + rng.below(20_000),
                every_us: 1 + rng.below(5_000),
                congram,
                dir,
                len,
                fill,
                clp,
            }));
        } else {
            scene.traffic.push(Traffic::Send(SendDecl {
                at_us: rng.below(40_000),
                congram,
                dir,
                len,
                fill,
                clp,
            }));
        }
    }

    if rng.below(3) == 0 {
        scene.faults.drops = Some(rng.uniform());
    }
    if rng.below(4) == 0 {
        scene.faults.corruption = Some(rng.uniform());
    }
    if rng.below(4) == 0 {
        scene.faults.duplication = Some((rng.uniform(), 2 + rng.below(15) as u32));
    }
    if rng.below(4) == 0 {
        scene.faults.reordering = Some(rng.uniform());
    }
    if rng.below(4) == 0 {
        scene.faults.misinsertion = Some(rng.uniform());
    }
    if rng.below(4) == 0 {
        scene.faults.delay_skew = Some((1 + rng.below(10_000), rng.below(1_000)));
    }
    if rng.below(4) == 0 {
        scene.faults.burst_loss = Some((rng.uniform(), rng.uniform()));
    }
    if rng.below(5) == 0 {
        let down = rng.below(30_000);
        scene.faults.flap = Some((down, down + 1 + rng.below(10_000)));
    }

    if rng.below(2) == 0 {
        scene.expects.push(Expect::Conservation);
    }
    if rng.below(2) == 0 {
        scene.expects.push(Expect::ResidueClean);
    }
    match rng.below(4) {
        0 => scene.expects.push(Expect::DeliveredAll),
        1 => scene.expects.push(Expect::DeliveredAtLeast(rng.below(1000))),
        2 => scene.expects.push(Expect::MaxLostFrames(rng.below(1000))),
        _ => {}
    }
    scene
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn format_then_parse_is_identity(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed, 0);
        let scene = arb_scene(&mut rng);
        let canon = format_scene(&scene);
        let (parsed, diags) = parse(&canon);
        let errors: Vec<_> =
            diags.iter().filter(|d| d.severity == Severity::Error).collect();
        assert!(errors.is_empty(), "canonical text drew errors: {errors:?}\n{canon}");
        let parsed = parsed.expect("canonical text must parse");
        assert_eq!(parsed, scene, "round-trip changed the AST:\n{canon}");
    }

    #[test]
    fn format_is_idempotent(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed, 1);
        let scene = arb_scene(&mut rng);
        let once = format_scene(&scene);
        let again = format_scene(&parse(&once).0.expect("canonical text must parse"));
        assert_eq!(once, again);
    }

    #[test]
    fn schedule_is_stable_under_roundtrip(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::for_case(seed, 2);
        let scene = arb_scene(&mut rng);
        let reparsed = parse(&format_scene(&scene)).0.unwrap();
        assert_eq!(scene.schedule(), reparsed.schedule());
        assert_eq!(scene.scheduled_frames(), scene.schedule().len());
    }
}
