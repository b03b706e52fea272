//! Cross-crate integration: data traverses ATM network → gateway →
//! FDDI ring and back, intact and in order.

use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};

#[test]
fn payload_integrity_across_sizes() {
    let mut tb = Testbed::build(TestbedConfig::default());
    let congram = tb.install_data_congram(1);
    // One frame of every interesting size: sub-cell, one cell, cell
    // boundary, multi-cell, and the 4088-octet maximum (91 cells).
    let sizes = [1usize, 44, 45, 46, 90, 100, 1000, 4000, 4088 - 8];
    for (i, &size) in sizes.iter().enumerate() {
        let payload: Vec<u8> = (0..size).map(|b| (b as u8).wrapping_add(i as u8)).collect();
        tb.send_from_atm_host_at(SimTime::from_ms(i as u64 * 5), congram, payload);
    }
    tb.run_until(SimTime::from_ms(200));
    let rx = tb.fddi_rx(1);
    assert_eq!(rx.len(), sizes.len());
    for (i, (&size, frame)) in sizes.iter().zip(rx.iter()).enumerate() {
        assert_eq!(frame.len(), size, "frame {i} size");
        let expect: Vec<u8> = (0..size).map(|b| (b as u8).wrapping_add(i as u8)).collect();
        assert_eq!(frame, &expect, "frame {i} content");
    }
}

#[test]
fn frames_arrive_in_order_per_congram() {
    let mut tb = Testbed::build(TestbedConfig::default());
    let congram = tb.install_data_congram(2);
    for i in 0..50u8 {
        tb.send_from_atm_host(congram, vec![i; 200]);
    }
    tb.run_until(SimTime::from_ms(100));
    let rx = tb.fddi_rx(2);
    assert_eq!(rx.len(), 50);
    for (i, f) in rx.iter().enumerate() {
        assert_eq!(f[0] as usize, i, "order preserved");
    }
}

#[test]
fn concurrent_congrams_do_not_interfere() {
    let mut tb = Testbed::build(TestbedConfig { fddi_stations: 5, ..Default::default() });
    let congrams: Vec<_> = (1..5).map(|s| tb.install_data_congram(s)).collect();
    // Rounds are staggered so four congrams do not jointly oversubscribe
    // the 155 Mb/s access link (which would cause real, intended cell
    // loss at the first switch — covered by the fault tests instead).
    for round in 0..10u8 {
        for (k, &c) in congrams.iter().enumerate() {
            tb.send_from_atm_host_at(
                SimTime::from_ms(round as u64 * 2),
                c,
                vec![round * 4 + k as u8; 300 + k * 100],
            );
        }
    }
    tb.run_until(SimTime::from_ms(200));
    for (k, &c) in congrams.iter().enumerate() {
        let rx = tb.fddi_rx(c.station);
        assert_eq!(rx.len(), 10, "station {}", c.station);
        for (round, f) in rx.iter().enumerate() {
            assert_eq!(f.len(), 300 + k * 100);
            assert_eq!(f[0], round as u8 * 4 + k as u8);
        }
    }
}

#[test]
fn reverse_direction_integrity() {
    let mut tb = Testbed::build(TestbedConfig::default());
    let congram = tb.install_data_congram(3);
    let payloads: Vec<Vec<u8>> =
        (0..20).map(|i| (0..97 * (i + 1)).map(|b| (b % 251) as u8).collect()).collect();
    for p in &payloads {
        tb.send_from_fddi_station(3, congram, p.clone());
    }
    tb.run_until(SimTime::from_ms(200));
    assert_eq!(tb.atm_host_rx.len(), payloads.len());
    for (got, want) in tb.atm_host_rx.iter().zip(&payloads) {
        assert_eq!(got, want);
    }
}

#[test]
fn full_duplex_simultaneous_traffic() {
    let mut tb = Testbed::build(TestbedConfig::default());
    let c = tb.install_data_congram(1);
    for i in 0..30u8 {
        tb.send_from_atm_host(c, vec![i; 600]);
        tb.send_from_fddi_station(1, c, vec![i ^ 0xFF; 400]);
    }
    tb.run_until(SimTime::from_ms(300));
    assert_eq!(tb.fddi_rx(1).len(), 30);
    assert_eq!(tb.atm_host_rx.len(), 30);
}

#[test]
fn gateway_critical_path_latency_is_hardware_scale() {
    // A single-cell frame's gateway-internal latency (measured by the
    // cycle model) stays within a few microseconds — the "minimal
    // latency" claim of §7, far below any software path.
    let mut tb = Testbed::build(TestbedConfig::default());
    let c = tb.install_data_congram(1);
    tb.send_from_atm_host(c, vec![1; 30]); // single cell
    tb.run_until(SimTime::from_ms(20));
    assert_eq!(tb.fddi_rx(1).len(), 1);
    let lat = tb.gw.stats().atm_to_fddi_ns.max();
    assert!(lat < 10_000, "critical path took {lat} ns");
    // And it includes exactly the documented stages: AIC alignment,
    // SPP 10+45 cycles, MPP 15 cycles, DMA.
    assert!(lat >= (10 + 45 + 15) * 40, "stages unaccounted: {lat} ns");
}

#[test]
fn identical_seeds_identical_worlds() {
    let run = |seed: u64| {
        let mut tb = Testbed::build(TestbedConfig { seed, ..Default::default() });
        let c = tb.install_data_congram(2);
        for i in 0..25u8 {
            tb.send_from_atm_host(c, vec![i; 777]);
            tb.send_from_fddi_station(2, c, vec![i; 333]);
        }
        tb.run_until(SimTime::from_ms(150));
        (
            tb.fddi_rx(2),
            tb.atm_host_rx.clone(),
            tb.gw.spp().stats(),
            tb.gw.mpp().stats(),
            tb.ring.station_stats(0),
        )
    };
    assert_eq!(run(9), run(9));
}

/// Scenes are outside input: a scene with one congram more than the
/// ICXT has ICNs for is refused at parse (`E010`), and the largest
/// legal one builds a testbed whose every ICN fits the table.
#[test]
fn scene_congram_bound_is_the_icxt_bound() {
    use atm_fddi_gateway::gateway::config::MAX_CONGRAMS;
    use atm_fddi_gateway::phy::PhyMode;
    use atm_fddi_gateway::scene::{parse, wire_ids, MAX_SCENE_CONGRAMS};
    let (_, _, last_fddi_icn) = wire_ids(MAX_SCENE_CONGRAMS - 1);
    assert!(usize::from(last_fddi_icn) < MAX_CONGRAMS);
    assert!(usize::from(wire_ids(MAX_SCENE_CONGRAMS).2) >= MAX_CONGRAMS, "the bound is tight");

    let mut src = String::from("scene full\n");
    for i in 0..MAX_SCENE_CONGRAMS {
        src += &format!("congram c{i} station 1 class async\n");
    }
    let (scene, _) = parse(&src);
    let (_, handles) = Testbed::from_scene(&scene.expect("511 congrams parse"), PhyMode::Loopback);
    assert_eq!(handles.len(), MAX_SCENE_CONGRAMS);
    assert!(handles.iter().all(|h| usize::from(h.fddi_icn.0.max(h.atm_icn.0)) < MAX_CONGRAMS));

    src += "congram overflow station 1 class async\n";
    let (scene, diags) = parse(&src);
    assert!(scene.is_none());
    assert!(diags.iter().any(|d| d.code == "E010"), "{diags:?}");
}
