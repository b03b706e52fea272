//! Multipoint video distribution: one ATM video source, many FDDI
//! receivers.
//!
//! The paper motivates both networks with "full motion video" (§1) and
//! gives FDDI "group or multicast" addressing (§3) plus multipoint
//! congrams (§2.4). Here a bursty video source on the ATM side feeds
//! one congram whose ICXT-F entry carries a **group** destination
//! address; the gateway transmits each frame once and stations 1–3 all
//! copy it off the ring — the multicast economy the design buys by
//! storing a full 6-octet FDDI destination (which may be a group
//! address) in the ICXT-F (§6.1).
//!
//! Run with: `cargo run --example video_multicast`

use atm_fddi_gateway::sim::rng::SimRng;
use atm_fddi_gateway::sim::traffic::{OnOffSource, Source};
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{self, Testbed, TestbedConfig};
use atm_fddi_gateway::wire::fddi::FddiAddr;

fn main() {
    // Build a testbed whose stations 1..=3 joined group 7.
    let group = FddiAddr::group(7);
    let stations = 5;
    let mut tb =
        Testbed::build(TestbedConfig { fddi_stations: stations, ..TestbedConfig::default() });
    // Rebuild the ring with group memberships.
    let mut ring_cfg = testbed::ring_config(stations);
    for s in 1..=3 {
        ring_cfg.stations[s].groups.push(group);
    }
    tb.ring = atm_fddi_gateway::fddi::ring::Ring::new(ring_cfg);

    // A synchronous-class multicast congram to the group.
    let congram = tb.install_multicast_congram(group, 1, true);

    // A 6 Mb/s-peak on-off video source drives it for 200 ms.
    let mut video = OnOffSource::video(SimTime::ZERO);
    let mut rng = SimRng::new(7);
    let horizon = SimTime::from_ms(200);
    let mut frames_sent = 0u32;
    let mut octets_sent = 0u64;
    while let Some(arrival) = video.next_arrival(&mut rng) {
        if arrival.at >= horizon {
            break;
        }
        let payload = vec![0x56u8; arrival.octets];
        octets_sent += arrival.octets as u64;
        tb.send_from_atm_host_at(arrival.at, congram, payload);
        frames_sent += 1;
    }
    tb.run_until(horizon + SimTime::from_ms(50));

    println!(
        "video source: {frames_sent} frames, {octets_sent} octets (~{:.2} Mb/s mean)",
        octets_sent as f64 * 8.0 / 0.2 / 1e6
    );
    let mut all_ok = true;
    for s in 1..=3 {
        let rx = tb.fddi_rx(s);
        println!("station {s} (group member):  {} frames received", rx.len());
        all_ok &= rx.len() == frames_sent as usize;
    }
    let rx4 = tb.fddi_rx(4);
    println!("station 4 (not a member): {} frames received", rx4.len());

    // The gateway transmitted each frame ONCE; the ring replicated.
    let gw_tx = tb.ring.station_stats(0).sync_frames_tx + tb.ring.station_stats(0).async_frames_tx;
    println!("gateway ring transmissions: {gw_tx} (one per frame — multicast does not multiply gateway work)");

    assert!(all_ok, "every group member must receive every frame");
    assert!(rx4.is_empty(), "non-members must not receive");
    assert_eq!(gw_tx, frames_sent as u64);
    println!("\nvideo_multicast OK");
}
