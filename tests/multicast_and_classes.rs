//! Multipoint congrams and synchronous/asynchronous service classes
//! across the gateway (§2.4, §3, §6.1).

use atm_fddi_gateway::fddi::ring::Ring;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{self, Testbed, TestbedConfig};
use atm_fddi_gateway::wire::fddi::FddiAddr;

fn testbed_with_group(members: &[usize], stations: usize) -> (Testbed, FddiAddr) {
    let group = FddiAddr::group(3);
    let mut tb = Testbed::build(TestbedConfig { fddi_stations: stations, ..Default::default() });
    let mut ring_cfg = testbed::ring_config(stations);
    for &m in members {
        ring_cfg.stations[m].groups.push(group);
    }
    tb.ring = Ring::new(ring_cfg);
    (tb, group)
}

#[test]
fn multicast_congram_reaches_all_members_once() {
    let (mut tb, group) = testbed_with_group(&[1, 2, 4], 6);
    let c = tb.install_multicast_congram(group, 1, false);
    for i in 0..8u8 {
        tb.send_from_atm_host(c, vec![i; 256]);
    }
    tb.run_until(SimTime::from_ms(100));
    for member in [1usize, 2, 4] {
        let rx = tb.fddi_rx(member);
        assert_eq!(rx.len(), 8, "member {member}");
    }
    for nonmember in [3usize, 5] {
        assert!(tb.fddi_rx(nonmember).is_empty(), "station {nonmember}");
    }
    // One ring transmission per frame regardless of fan-out.
    let st0 = tb.ring.station_stats(0);
    assert_eq!(st0.sync_frames_tx + st0.async_frames_tx, 8);
}

#[test]
fn broadcast_congram() {
    let (mut tb, _) = testbed_with_group(&[], 4);
    let c = tb.install_multicast_congram(FddiAddr::BROADCAST, 1, false);
    tb.send_from_atm_host(c, b"to everyone".to_vec());
    tb.run_until(SimTime::from_ms(50));
    for s in 1..4 {
        assert_eq!(tb.fddi_rx(s).len(), 1, "station {s}");
    }
}

#[test]
fn synchronous_congram_rides_sync_class() {
    let mut tb = Testbed::build(TestbedConfig::default());
    let c = tb.install_multicast_congram(FddiAddr::station(1), 1, true);
    for i in 0..5u8 {
        tb.send_from_atm_host(c, vec![i; 300]);
    }
    tb.run_until(SimTime::from_ms(50));
    assert_eq!(tb.fddi_rx(1).len(), 5);
    let st0 = tb.ring.station_stats(0);
    assert_eq!(st0.sync_frames_tx, 5, "frames used the synchronous MAC class");
    assert_eq!(st0.async_frames_tx, 0);
}

#[test]
fn sync_class_beats_async_under_ring_congestion() {
    // Saturate the ring with async traffic from other stations, then
    // push one synchronous congram through the gateway: its frames keep
    // flowing within the gateway's synchronous allocation.
    let mut tb = Testbed::build(TestbedConfig { fddi_stations: 4, ..Default::default() });
    let mut ring_cfg = testbed::ring_config(4);
    for s in 1..4 {
        ring_cfg.stations[s].async_queue_frames = 100_000;
        ring_cfg.stations[s].t_req = SimTime::from_ms(4);
    }
    ring_cfg.stations[0].t_req = SimTime::from_ms(4);
    tb.ring = Ring::new(ring_cfg);
    // Background async flood between stations 1<->3 (bypasses gateway).
    use atm_fddi_gateway::wire::fddi::{FrameControl, FrameRepr};
    for _ in 0..3000 {
        let f = FrameRepr {
            fc: FrameControl::LlcAsync { priority: 0 },
            dst: FddiAddr::station(3),
            src: FddiAddr::station(1),
            info: vec![0; 4000],
        }
        .emit()
        .unwrap();
        let _ = tb.ring.push_async(1, f);
    }
    let c = tb.install_multicast_congram(FddiAddr::station(2), 2, true);
    let n = 40;
    for i in 0..n {
        tb.send_from_atm_host_at(SimTime::from_ms(i as u64), c, vec![i as u8; 500]);
    }
    tb.run_until(SimTime::from_ms(100));
    let delivered = tb.fddi_rx(2).len();
    assert!(
        delivered >= (n as usize) * 9 / 10,
        "sync congram starved: {delivered}/{n} under async flood"
    );
}
