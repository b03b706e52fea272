//! A three-network VHSI internet: two ATM networks joined by an FDDI
//! backbone through **two** gateways.
//!
//! ```text
//!  host A ── ATM network A ── GW-A ═╗
//!                                   ║  FDDI ring (backbone)
//!  host B ── ATM network B ── GW-B ═╝
//! ```
//!
//! This is the internet of Figure 1 made concrete: an MCHIP frame from
//! host A carries ICN₁ across network A; GW-A's ICXT-F maps ICN₁→ICN₂
//! and forwards the frame to GW-B's station address on the ring; GW-B's
//! ICXT-A maps ICN₂→ICN₃ and yields the ATM header for network B; host
//! B reassembles. "At each hop the input ICN is mapped to an output
//! ICN" (§6.1) — here observed across two gateways, which is the whole
//! point of hop-by-hop channel numbers: neither network sees the
//! other's identifier space.
//!
//! The co-simulation strategy matches [`crate::testbed`]: fixed time
//! slices, traffic ferried across the seams each slice.

use gw_atm::network::{AtmNetwork, EndpointEvent, EndpointId};
use gw_fddi::ring::{Ring, RingConfig};
use gw_gateway::gateway::{Gateway, Output};
use gw_gateway::GatewayConfig;
use gw_sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Cell, Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, parse_frame, Icn, MchipType};

/// A congram spanning all three networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitCongram {
    /// Host A's VC on network A.
    pub vci_a: Vci,
    /// ICN on the A-side internet hop (host A → GW-A).
    pub icn_a: Icn,
    /// ICN on the FDDI backbone hop (GW-A → GW-B).
    pub icn_ring: Icn,
    /// ICN on the B-side hop (GW-B → host B).
    pub icn_b: Icn,
    /// Host B's VC on network B.
    pub vci_b: Vci,
}

/// The two-gateway transit testbed.
pub struct TransitTestbed {
    /// Network A (host A's side).
    pub atm_a: AtmNetwork,
    /// Network B (host B's side).
    pub atm_b: AtmNetwork,
    /// The FDDI backbone.
    pub ring: Ring,
    /// Gateway A — ring station 0.
    pub gw_a: Gateway,
    /// Gateway B — ring station 1.
    pub gw_b: Gateway,
    host_a: EndpointId,
    host_b: EndpointId,
    gw_a_ep: EndpointId,
    gw_b_ep: EndpointId,
    now: SimTime,
    slice: SimTime,
    next_vci: u16,
    next_icn: u16,
    reasm_a: Reassembler,
    reasm_b: Reassembler,
    /// MCHIP payloads delivered to host A / host B.
    pub host_a_rx: Vec<Vec<u8>>,
    /// Payloads delivered to host B.
    pub host_b_rx: Vec<Vec<u8>>,
    outbox_a: Vec<(SimTime, EndpointId, [u8; CELL_SIZE])>,
    outbox_b: Vec<(SimTime, EndpointId, [u8; CELL_SIZE])>,
}

fn small_atm() -> (AtmNetwork, EndpointId, EndpointId) {
    let mut net = AtmNetwork::new();
    let s0 = net.add_switch(4);
    let host = net.attach_endpoint(s0, 0);
    let gw = net.attach_endpoint(s0, 1);
    (net, host, gw)
}

impl Default for TransitTestbed {
    fn default() -> Self {
        Self::new()
    }
}

impl TransitTestbed {
    /// Build the three-network internet with default parameters.
    pub fn new() -> TransitTestbed {
        let (atm_a, host_a, gw_a_ep) = small_atm();
        let (atm_b, host_b, gw_b_ep) = small_atm();
        let mut ring_cfg = RingConfig::uniform(4, 10);
        for s in ring_cfg.stations.iter_mut().take(2) {
            s.async_queue_frames = 4096;
        }
        let ring = Ring::new(ring_cfg);
        let gw_a = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 80_000_000);
        let gw_b = Gateway::new(GatewayConfig::default(), FddiAddr::station(1), 80_000_000);
        TransitTestbed {
            atm_a,
            atm_b,
            ring,
            gw_a,
            gw_b,
            host_a,
            host_b,
            gw_a_ep,
            gw_b_ep,
            now: SimTime::ZERO,
            slice: SimTime::from_us(10),
            next_vci: 64,
            next_icn: 1,
            reasm_a: Reassembler::new(ReassemblyConfig::default()),
            reasm_b: Reassembler::new(ReassemblyConfig::default()),
            host_a_rx: Vec::new(),
            host_b_rx: Vec::new(),
            outbox_a: Vec::new(),
            outbox_b: Vec::new(),
        }
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Install a bidirectional transit congram host A ⇄ host B.
    ///
    /// The three-hop ICN chain is programmed exactly as two NPEs would:
    /// GW-A's ICXT-F maps `icn_a → icn_ring` toward GW-B's station;
    /// GW-B's ICXT-A maps `icn_ring → icn_b` onto host B's VC — and the
    /// mirrored entries serve the reverse direction.
    pub fn install_transit_congram(&mut self) -> TransitCongram {
        let vci_a = Vci(self.next_vci);
        let vci_b = Vci(self.next_vci + 1);
        self.next_vci += 2;
        let icn_a = Icn(self.next_icn);
        let icn_ring = Icn(self.next_icn + 1);
        let icn_b = Icn(self.next_icn + 2);
        self.next_icn += 3;

        // ATM data planes: host <-> gateway through one switch each.
        for (net, host, gwep, vci) in [
            (&mut self.atm_a, self.host_a, self.gw_a_ep, vci_a),
            (&mut self.atm_b, self.host_b, self.gw_b_ep, vci_b),
        ] {
            let (hs, hp) = net.endpoint_attachment(host);
            let (gs, gp) = net.endpoint_attachment(gwep);
            assert_eq!(hs, gs, "single-switch access network");
            net.install_vc(hs, hp, vci, vec![(gp, vci)]);
            net.install_vc(gs, gp, vci, vec![(hp, vci)]);
        }

        // GW-A: A-side hop <-> ring hop, toward GW-B (station 1).
        self.gw_a.install_congram(vci_a, icn_a, icn_ring, FddiAddr::station(1), false);
        // GW-B: ring hop <-> B-side hop, reverse frames head to GW-A
        // (station 0). `install_congram(vci, atm_icn, fddi_icn, dst)`
        // programs F[atm_icn]=(fddi_icn,dst) and A[fddi_icn]=(atm_icn,
        // header(vci)) — exactly the two entries GW-B needs with
        // atm_icn = icn_b.
        self.gw_b.install_congram(vci_b, icn_b, icn_ring, FddiAddr::station(0), false);

        self.reasm_a.open_vc(vci_a);
        self.reasm_b.open_vc(vci_b);
        TransitCongram { vci_a, icn_a, icn_ring, icn_b, vci_b }
    }

    /// Send a payload from host A toward host B.
    pub fn send_from_a(&mut self, congram: TransitCongram, payload: Vec<u8>) {
        let mchip = build_data_frame(congram.icn_a, &payload).expect("fits");
        let header = AtmHeader::data(Default::default(), congram.vci_a);
        let mut t = self.now;
        for cell in segment_cells(&header, &mchip, false).expect("fits") {
            self.outbox_a.push((t, self.host_a, cell.into_inner()));
            t += SimTime::from_us(3);
        }
    }

    /// Send a payload from host B toward host A. Host B stamps the
    /// B-side hop's ICN; GW-B translates it onto the ring hop and GW-A
    /// onto the A-side hop.
    pub fn send_from_b(&mut self, congram: TransitCongram, payload: Vec<u8>) {
        let mchip = build_data_frame(congram.icn_b, &payload).expect("fits");
        let header = AtmHeader::data(Default::default(), congram.vci_b);
        let mut t = self.now;
        for cell in segment_cells(&header, &mchip, false).expect("fits") {
            self.outbox_b.push((t, self.host_b, cell.into_inner()));
            t += SimTime::from_us(3);
        }
    }

    fn host_deliver(
        reasm: &mut Reassembler,
        sink: &mut Vec<Vec<u8>>,
        time: SimTime,
        cell: [u8; CELL_SIZE],
    ) {
        let Ok(view) = Cell::new_checked(&cell[..]) else { return };
        let vci = view.header().vci;
        if !reasm.is_open(vci) {
            reasm.open_vc(vci);
        }
        if let ReassemblyEvent::Complete(frame) = reasm.push(time, vci, view.payload()) {
            reasm.release(vci);
            if let Ok((header, payload)) = parse_frame(&frame.data) {
                if header.mtype == MchipType::Data {
                    sink.push(payload.to_vec());
                }
            }
        }
    }

    /// Advance the whole internet to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        let mut out = Vec::new();
        while self.now < until {
            let next = SimTime::from_ns((self.now + self.slice).as_ns().min(until.as_ns()));

            // Inject due cells into both access networks.
            for (outbox, net) in
                [(&mut self.outbox_a, &mut self.atm_a), (&mut self.outbox_b, &mut self.atm_b)]
            {
                outbox.sort_by_key(|&(t, _, _)| t);
                let mut rest = Vec::new();
                for (t, ep, cell) in outbox.drain(..) {
                    if t <= next {
                        net.inject_at(ep, t, cell);
                    } else {
                        rest.push((t, ep, cell));
                    }
                }
                *outbox = rest;
            }
            self.atm_a.run_until(next);
            self.atm_b.run_until(next);

            // Cells at the gateways' ATM endpoints -> AIC/SPP/MPP.
            for ev in self.atm_a.poll(self.gw_a_ep) {
                if let EndpointEvent::CellRx { time, cell } = ev {
                    self.gw_a.deliver_cells(time, std::slice::from_ref(&cell), &mut out);
                    for o in out.drain(..) {
                        if let Output::AtmCell { at, cell } = o {
                            self.outbox_a.push((at, self.gw_a_ep, cell));
                        }
                    }
                }
            }
            for ev in self.atm_b.poll(self.gw_b_ep) {
                if let EndpointEvent::CellRx { time, cell } = ev {
                    self.gw_b.deliver_cells(time, std::slice::from_ref(&cell), &mut out);
                    for o in out.drain(..) {
                        if let Output::AtmCell { at, cell } = o {
                            self.outbox_b.push((at, self.gw_b_ep, cell));
                        }
                    }
                }
            }

            // Cells at the hosts: reassemble to payloads.
            for ev in self.atm_a.poll(self.host_a) {
                if let EndpointEvent::CellRx { time, cell } = ev {
                    Self::host_deliver(&mut self.reasm_a, &mut self.host_a_rx, time, cell);
                }
            }
            for ev in self.atm_b.poll(self.host_b) {
                if let EndpointEvent::CellRx { time, cell } = ev {
                    Self::host_deliver(&mut self.reasm_b, &mut self.host_b_rx, time, cell);
                }
            }

            // Housekeeping.
            self.gw_a.advance_into(next, &mut out);
            self.gw_b.advance_into(next, &mut out);
            out.clear();

            // Gateways' transmit buffers -> their ring stations.
            for (gw, station) in [(&mut self.gw_a, 0usize), (&mut self.gw_b, 1)] {
                loop {
                    let (sq, aq) = self.ring.queue_depths(station);
                    if sq + aq >= 4000 {
                        break;
                    }
                    let Some((frame, sync)) = gw.pop_fddi_tx(next) else { break };
                    let r = if sync {
                        self.ring.push_sync(station, frame)
                    } else {
                        self.ring.push_async(station, frame)
                    };
                    if r.is_err() {
                        break;
                    }
                }
            }

            // The ring moves; deliveries feed the gateways' FDDI sides.
            self.ring.run_until(next);
            for station in 0..self.ring.len() {
                for delivery in self.ring.take_rx(station) {
                    match station {
                        0 => {
                            for o in self.gw_a.fddi_frame_in(delivery.time, &delivery.frame) {
                                if let Output::AtmCell { at, cell } = o {
                                    self.outbox_a.push((at, self.gw_a_ep, cell));
                                }
                            }
                        }
                        1 => {
                            for o in self.gw_b.fddi_frame_in(delivery.time, &delivery.frame) {
                                if let Output::AtmCell { at, cell } = o {
                                    self.outbox_b.push((at, self.gw_b_ep, cell));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }

            self.now = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_to_b_across_three_networks() {
        let mut tt = TransitTestbed::new();
        let c = tt.install_transit_congram();
        tt.send_from_a(c, b"across the VHSI internet".to_vec());
        tt.run_until(SimTime::from_ms(60));
        assert_eq!(tt.host_b_rx.len(), 1);
        assert_eq!(tt.host_b_rx[0], b"across the VHSI internet");
        // Both gateways did one data translation each.
        assert_eq!(tt.gw_a.mpp().stats().data_up, 1, "GW-A: ATM->FDDI");
        assert_eq!(tt.gw_b.mpp().stats().data_down, 1, "GW-B: FDDI->ATM");
    }

    #[test]
    fn b_to_a_reverse_path() {
        let mut tt = TransitTestbed::new();
        let c = tt.install_transit_congram();
        tt.send_from_b(c, b"reply".to_vec());
        tt.run_until(SimTime::from_ms(60));
        assert_eq!(tt.host_a_rx.len(), 1);
        assert_eq!(tt.host_a_rx[0], b"reply");
    }

    #[test]
    fn full_duplex_transit() {
        let mut tt = TransitTestbed::new();
        let c = tt.install_transit_congram();
        for i in 0..15u8 {
            tt.send_from_a(c, vec![i; 400]);
            tt.send_from_b(c, vec![i ^ 0xFF; 300]);
            tt.run_until(tt.now() + SimTime::from_ms(2));
        }
        tt.run_until(tt.now() + SimTime::from_ms(100));
        assert_eq!(tt.host_b_rx.len(), 15);
        assert_eq!(tt.host_a_rx.len(), 15);
        for (i, f) in tt.host_b_rx.iter().enumerate() {
            assert_eq!(f, &vec![i as u8; 400]);
        }
    }

    #[test]
    fn icn_spaces_are_independent_per_hop() {
        // Two congrams: their ring-hop ICNs differ from their edge-hop
        // ICNs, and frames never leak between congrams.
        let mut tt = TransitTestbed::new();
        let c1 = tt.install_transit_congram();
        let c2 = tt.install_transit_congram();
        assert_ne!(c1.icn_ring, c2.icn_ring);
        assert_ne!(c1.icn_a, c1.icn_ring);
        tt.send_from_a(c1, b"one".to_vec());
        tt.send_from_a(c2, b"two".to_vec());
        tt.run_until(SimTime::from_ms(60));
        assert_eq!(tt.host_b_rx.len(), 2);
        assert!(tt.host_b_rx.contains(&b"one".to_vec()));
        assert!(tt.host_b_rx.contains(&b"two".to_vec()));
    }

    #[test]
    fn transit_is_deterministic() {
        let run = || {
            let mut tt = TransitTestbed::new();
            let c = tt.install_transit_congram();
            for i in 0..10u8 {
                tt.send_from_a(c, vec![i; 600]);
            }
            tt.run_until(SimTime::from_ms(100));
            tt.host_b_rx
        };
        assert_eq!(run(), run());
    }
}
