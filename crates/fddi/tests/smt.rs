//! Station management on a live ring (§4.3: SMT runs in software on the
//! NPE): every active station broadcasts its neighbor-information frame,
//! and a monitor assembles the ring map from what its receive queue
//! delivers, as a station leaves the ring and rejoins it.

use gw_fddi::ring::{Ring, RingConfig};
use gw_fddi::smt::{Nif, SmtMonitor};
use gw_sim::time::SimTime;
use gw_wire::fddi::{Frame, FrameControl};

/// One NIF round: every active station queues its NIF, the ring runs
/// 10 ms, and station 0's monitor observes what arrives.
fn nif_round(ring: &mut Ring, monitor: &mut SmtMonitor) {
    for i in 0..ring.len() {
        if ring.is_active(i) {
            let f = ring.nif_frame(i);
            let _ = ring.push_async(i, f);
        }
    }
    // The monitor's own NIF never loops back (source stripping); SMT
    // observes it locally.
    let own = Nif::decode(Frame::new_unchecked(&ring.nif_frame(0)[..]).info()).unwrap();
    let now = ring.now();
    monitor.observe(now, &own);
    ring.run_until(now + SimTime::from_ms(10));
    for d in ring.take_rx(0) {
        let frame = Frame::new_unchecked(&d.frame[..]);
        if frame.frame_control() == Ok(FrameControl::Smt) {
            monitor.observe(d.time, &Nif::decode(frame.info()).unwrap());
        }
    }
}

#[test]
fn ring_map_shrinks_on_bypass_and_regrows_on_reinsertion() {
    let mut config = RingConfig::uniform(4, 10);
    config.stations[2].sync_alloc = SimTime::from_us(100);
    let mut ring = Ring::new(config);
    let mut monitor = SmtMonitor::new(ring.address(0));
    monitor.freshness = SimTime::from_ms(15);
    let all: Vec<_> = (0..4).map(|i| ring.address(i)).collect();

    nif_round(&mut ring, &mut monitor);
    assert_eq!(monitor.ring_map(), Some(all.clone()));
    assert_eq!(monitor.sync_capable(ring.address(2)), Some(true));

    // Station 2's relay opens: its NIF stops, and once its last one is
    // stale the map closes around the gap.
    ring.bypass_station(2);
    nif_round(&mut ring, &mut monitor);
    monitor.expire(ring.now());
    assert_eq!(monitor.ring_map(), Some(vec![all[0], all[1], all[3]]));
    assert_eq!(monitor.sync_capable(ring.address(2)), None, "forgotten once stale");

    // Reinserted, it announces itself again and the full map returns.
    ring.reinsert_station(2);
    nif_round(&mut ring, &mut monitor);
    monitor.expire(ring.now());
    assert_eq!(monitor.ring_map(), Some(all));
    assert_eq!(monitor.sync_capable(ring.address(2)), Some(true));
}
