//! Survivability demo: a fibre cut in the ATM network and a station
//! failure on the FDDI ring, both recovered without tearing anything
//! down — the congram's plesio-reliability (§2.4) and the ring's
//! station-management recovery in one run.
//!
//! Run with: `cargo run --example fault_recovery`

use atm_fddi_gateway::atm::network::{AtmNetwork, EndpointEvent, LinkParams, SwitchId};
use atm_fddi_gateway::atm::signaling::{ConnState, SignalIndication, TrafficContract};
use atm_fddi_gateway::fddi::ring::{Ring, RingConfig};
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::wire::fddi::{FddiAddr, FrameControl, FrameRepr};

fn main() {
    atm_reroute_demo();
    println!();
    ring_bypass_demo();
    println!("\nfault_recovery OK");
}

/// Part 1: a congram's VC survives a fibre cut by re-signaling over the
/// surviving path.
fn cells(evs: Vec<EndpointEvent>) -> usize {
    evs.into_iter().filter(|e| matches!(e, EndpointEvent::CellRx { .. })).count()
}

fn atm_reroute_demo() {
    println!("== ATM fibre cut and reroute ==");
    let mut net = AtmNetwork::new();
    let s0 = net.add_switch(4);
    let s1 = net.add_switch(4);
    let s2 = net.add_switch(4);
    net.link(s0, 0, s1, 0, LinkParams::default());
    net.link(s0, 1, s2, 0, LinkParams::default());
    net.link(s2, 1, s1, 1, LinkParams::default());
    let e0 = net.attach_endpoint(s0, 3);
    let e1 = net.attach_endpoint(s1, 3);

    let conn = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(2_000_000));
    net.run_until(SimTime::from_ms(10));
    assert_eq!(net.conn_state(conn), Some(ConnState::Established));
    let vci = net
        .poll(e0)
        .into_iter()
        .find_map(|e| match e {
            EndpointEvent::Signal {
                signal: SignalIndication::ConnectionUp { tx_vci, .. }, ..
            } => Some(tx_vci),
            _ => None,
        })
        .unwrap();
    println!("congram up on {vci} over the direct path s0-s1");

    net.inject_on_vci(e0, vci, &[1; 48]);
    net.run_until(SimTime::from_ms(12));
    println!("pre-cut delivery: {} cell(s)", cells(net.poll(e1)));

    println!("cutting fibre s0-s1 …");
    net.fail_link(SwitchId(0), 0);
    net.inject_on_vci(e0, vci, &[2; 48]);
    net.run_until(SimTime::from_ms(14));
    println!(
        "during outage:    {} cell(s), {} lost in the cut",
        cells(net.poll(e1)),
        net.link_stats(s0, 0).down_drops
    );

    // Reconfigure: new VC over s0-s2-s1.
    let conn2 = net.connect(net.now(), e0, &[e1], TrafficContract::cbr(2_000_000));
    net.run_until(SimTime::from_ms(25));
    assert_eq!(net.conn_state(conn2), Some(ConnState::Established));
    let vci2 = net
        .poll(e0)
        .into_iter()
        .find_map(|e| match e {
            EndpointEvent::Signal {
                signal: SignalIndication::ConnectionUp { tx_vci, .. }, ..
            } => Some(tx_vci),
            _ => None,
        })
        .unwrap();
    net.inject_on_vci(e0, vci2, &[3; 48]);
    net.run_until(SimTime::from_ms(30));
    let delivered = cells(net.poll(e1));
    println!("after reconfiguration onto {vci2} (detour s0-s2-s1): {delivered} cell(s)");
    assert_eq!(delivered, 1);
}

/// Part 2: a ring station fails; its bypass relay engages, the ring
/// re-claims, and traffic continues among the survivors.
fn ring_bypass_demo() {
    println!("== FDDI station failure and bypass ==");
    let mut cfg = RingConfig::uniform(5, 20);
    cfg.stations[3].t_req = SimTime::from_ms(4); // station 3 holds the low bid
    let mut ring = Ring::new(cfg);
    println!("ring up: TTRT {} (claim won by station {})", ring.ttrt(), ring.stats().claim.winner);
    let frame = |src: usize, dst: usize| {
        FrameRepr {
            fc: FrameControl::LlcAsync { priority: 0 },
            dst: FddiAddr::station(dst as u32),
            src: FddiAddr::station(src as u32),
            info: vec![0; 500],
        }
        .emit()
        .unwrap()
    };
    ring.push_async(0, frame(0, 2)).unwrap();
    ring.run_until(SimTime::from_ms(5));
    println!("station 2 received {} frame(s) before the failure", ring.take_rx(2).len());

    println!("station 3 fails; optical bypass engages, ring re-claims …");
    ring.bypass_station(3);
    println!(
        "recovered: TTRT now {} ({} recovery events); station 3 active: {}",
        ring.ttrt(),
        ring.stats().recoveries,
        ring.is_active(3)
    );
    ring.push_async(0, frame(0, 2)).unwrap();
    ring.push_async(2, frame(2, 4)).unwrap();
    ring.run_until(SimTime::from_ms(15));
    println!(
        "post-failure traffic: station 2 got {}, station 4 got {}",
        ring.take_rx(2).len(),
        ring.take_rx(4).len()
    );

    println!("station 3 repaired and reinserted …");
    ring.reinsert_station(3);
    ring.push_async(0, frame(0, 3)).unwrap();
    ring.run_until(SimTime::from_ms(25));
    println!(
        "station 3 receives again: {} frame(s); TTRT back to {}",
        ring.take_rx(3).len(),
        ring.ttrt()
    );
    assert_eq!(ring.ttrt(), SimTime::from_ms(4));
}
