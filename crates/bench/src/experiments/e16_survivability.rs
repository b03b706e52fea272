//! E16 — §2.4: plesio-reliability. "A congram only implies a
//! predetermined path… appropriate low overhead mechanisms are provided
//! to allow establishment and reconfiguration of the congram path…
//! reconfigurability is important to ensure survivability in the event
//! of network failures."
//!
//! A congram runs over the BPN's direct path; the fibre is cut; the
//! MCHIP entity detects the outage, reconfigures the congram onto the
//! surviving path (new VC via signaling, new outbound ICN), and data
//! resumes — the application-visible damage is a bounded gap, not a
//! torn-down connection. The gap is measured for several detection
//! timers.

use crate::report::Table;
use gw_atm::network::{AtmNetwork, EndpointEvent, EndpointId, LinkParams, SwitchId};
use gw_atm::signaling::{ConnState, SignalIndication, TrafficContract};
use gw_mchip::congram::{
    CongramId, CongramKind, CongramManager, CongramState, FlowSpec, Requester,
};
use gw_sim::time::SimTime;
use gw_wire::atm::Vci;
use gw_wire::fddi::FddiAddr;

struct Net {
    net: AtmNetwork,
    e0: EndpointId,
    e1: EndpointId,
}

/// Triangle: s0—s1 direct (the short path), s0—s2—s1 detour.
fn triangle() -> Net {
    let mut net = AtmNetwork::new();
    let s0 = net.add_switch(4);
    let s1 = net.add_switch(4);
    let s2 = net.add_switch(4);
    net.link(s0, 0, s1, 0, LinkParams::default());
    net.link(s0, 1, s2, 0, LinkParams::default());
    net.link(s2, 1, s1, 1, LinkParams::default());
    let e0 = net.attach_endpoint(s0, 3);
    let e1 = net.attach_endpoint(s1, 3);
    Net { net, e0, e1 }
}

fn establish(n: &mut Net) -> Vci {
    let conn = n.net.connect(n.net.now(), n.e0, &[n.e1], TrafficContract::cbr(5_000_000));
    n.net.run_until(n.net.now() + SimTime::from_ms(20));
    assert_eq!(n.net.conn_state(conn), Some(ConnState::Established));
    n.net
        .poll(n.e0)
        .into_iter()
        .find_map(|e| match e {
            EndpointEvent::Signal {
                signal: SignalIndication::ConnectionUp { tx_vci, .. }, ..
            } => Some(tx_vci),
            _ => None,
        })
        .expect("connected")
}

/// Run one fail-and-reconfigure scenario; returns (frames sent, frames
/// delivered, outage gap in ms).
fn scenario(detection: SimTime) -> (usize, usize, f64) {
    let mut n = triangle();
    let mut mchip = CongramManager::default();
    // The entity behind e0 set the congram up, so it owns the VC.
    let station = FddiAddr::station(1);
    let congram = mchip
        .begin_setup(
            CongramKind::UCon,
            FlowSpec::cbr(5_000_000),
            Requester::Fddi(station),
            CongramId(1),
            station,
            SimTime::ZERO,
        )
        .unwrap();
    let mut vci = establish(&mut n);
    mchip.confirm(congram, vci).unwrap();

    // CBR frames every 1 ms (one cell each for simplicity).
    let horizon = SimTime::from_ms(400);
    let fail_at = SimTime::from_ms(100);
    let gap = SimTime::from_ms(1);
    let mut t = n.net.now();
    let mut sent = 0usize;
    let mut reconfigured_at: Option<SimTime> = None;
    let mut reconf_pending: Option<gw_atm::signaling::ConnId> = None;
    let mut failed = false;
    let mut rx_times: Vec<SimTime> = Vec::new();

    while t < horizon {
        t += gap;
        if !failed && t >= fail_at {
            n.net.fail_link(SwitchId(0), 0);
            failed = true;
        }
        // The MCHIP entity notices silence `detection` after the cut
        // and reconfigures: a new VC over the surviving path.
        if failed
            && reconfigured_at.is_none()
            && reconf_pending.is_none()
            && t >= fail_at + detection
        {
            mchip.begin_reconfigure(congram).unwrap();
            reconf_pending =
                Some(n.net.connect(n.net.now(), n.e0, &[n.e1], TrafficContract::cbr(5_000_000)));
        }
        n.net.inject_on_vci_at(n.e0, t, vci, &[0x42; 48]);
        sent += 1;
        n.net.run_until(t);
        for ev in n.net.poll(n.e0) {
            if let EndpointEvent::Signal {
                signal: SignalIndication::ConnectionUp { conn, tx_vci },
                time,
            } = ev
            {
                if reconf_pending == Some(conn) {
                    vci = tx_vci;
                    mchip.complete_reconfigure(congram, vci).unwrap();
                    reconfigured_at = Some(time);
                    reconf_pending = None;
                }
            }
        }
        for ev in n.net.poll(n.e1) {
            if let EndpointEvent::CellRx { time, .. } = ev {
                rx_times.push(time);
            }
        }
    }
    assert_eq!(mchip.get(congram).unwrap().state, CongramState::Established);
    // The service gap: the largest inter-delivery silence that starts
    // at or after the cut.
    let outage_ms = rx_times
        .windows(2)
        .filter(|w| w[1] > fail_at)
        .map(|w| (w[1].saturating_sub(w[0])).as_ns())
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    (sent, rx_times.len(), outage_ms)
}

/// Run E16.
pub fn run() {
    let mut t = Table::new(&[
        "detection timer",
        "frames sent",
        "delivered",
        "lost in outage",
        "measured service gap",
    ]);
    for &det_ms in &[5u64, 20, 50] {
        let (sent, delivered, outage) = scenario(SimTime::from_ms(det_ms));
        t.row(&[
            format!("{det_ms} ms"),
            sent.to_string(),
            delivered.to_string(),
            (sent - delivered).to_string(),
            format!("{outage:.1} ms"),
        ]);
        let lost = sent - delivered;
        // The loss is bounded by the outage: detection + signaling, at
        // one frame per ms.
        assert!(lost > 0, "a cut must cost something");
        assert!(
            (lost as f64) < det_ms as f64 + 10.0,
            "loss {lost} exceeds detection window + signaling"
        );
    }
    t.print();
    println!("\nreading: the congram survives the fibre cut — the path moves, the");
    println!("connection abstraction does not tear down, and the application-visible");
    println!("damage is proportional to the failure-detection timer plus one");
    println!("signaling round trip. That proportionality is exactly the congram's");
    println!("plesio-reliability bargain (§2.4): no hop-by-hop error control, but");
    println!("low-overhead reconfiguration bounds the damage.");
}
