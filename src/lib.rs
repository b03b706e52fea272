//! # atm-fddi-gateway
//!
//! A simulation-backed reproduction of *"Design of an ATM-FDDI
//! Gateway"* (Kapoor & Parulkar, Washington University WUCS-91-11,
//! ACM SIGCOMM '91).
//!
//! The paper designs a two-port gateway between an ATM network (the
//! Broadcast Packet Network) and an FDDI ring, partitioning gateway
//! functionality into a hardware **critical path** (per-packet
//! processing: AIC, SPP, MPP) and a software **non-critical path**
//! (connection/resource/route management: NPE). This workspace
//! implements the gateway cycle-accurately at its 25 MHz clock plus
//! every substrate it depends on — the FDDI timed-token MAC, the ATM
//! cell-switching network with signaling, the SAR protocol, and MCHIP
//! congram management — and reproduces every quantitative claim of the
//! paper as a measured experiment (see `EXPERIMENTS.md`).
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Contents |
//! |---|---|---|
//! | [`wire`] | `gw-wire` | ATM cell, SAR header, FDDI frame, MCHIP frame formats and CRCs |
//! | [`sim`] | `gw-sim` | Deterministic discrete-event engine, RNG, statistics, fault injection, workload generators |
//! | [`sar`] | `gw-sar` | Segmentation and per-VC reassembly engines |
//! | [`fddi`] | `gw-fddi` | Timed-token ring MAC (claim, TRT/THT, sync/async classes) |
//! | [`atm`] | `gw-atm` | BPN: output-queued cell switches, multipoint VCs, signaling with CAC |
//! | [`mchip`] | `gw-mchip` | Congram lifecycles, resource manager, route server, control codecs |
//! | [`gateway`] | `gw-gateway` | **The paper's contribution**: AIC + SPP + MPP + NPE + buffers |
//! | [`phy`] | `gw-phy` | Port transports: loopback and UDP-encapsulation phys, appliance driver |
//! | [`testbed`] | (here) | Co-simulation harness: ATM network ⇄ gateway ⇄ FDDI ring |
//!
//! ## Quickstart
//!
//! ```
//! use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};
//! use atm_fddi_gateway::sim::SimTime;
//!
//! // An ATM host, two switches, the gateway, and a 4-station ring.
//! let mut tb = Testbed::build(TestbedConfig::default());
//!
//! // Install a congram and push a frame from the ATM host to FDDI
//! // station 2.
//! let congram = tb.install_data_congram(2);
//! tb.send_from_atm_host(congram, b"hello, ring".to_vec());
//! tb.run_until(SimTime::from_ms(50));
//!
//! let delivered = tb.fddi_rx(2);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(&delivered[0], b"hello, ring");
//! ```

pub use gw_atm as atm;
pub use gw_fddi as fddi;
pub use gw_gateway as gateway;
pub use gw_mchip as mchip;
pub use gw_mgmt as mgmt;
pub use gw_phy as phy;
pub use gw_sar as sar;
pub use gw_scene as scene;
pub use gw_wire as wire;

/// Re-exports of the simulation engine with its common types at the top.
pub mod sim {
    pub use gw_sim::time::SimTime;
    pub use gw_sim::*;
}

pub mod scene_run;
pub mod testbed;

/// Figure 1's internet: two ATM networks joined through two gateways on
/// one FDDI ring, GW-A at station 0 and GW-B at station 1. "At each hop
/// the input ICN is mapped to an output ICN" (§6.1): GW-A maps the
/// A-side ICN ⇄ the ring ICN, GW-B the ring ICN ⇄ the B-side ICN, and
/// every frame between them crosses the timed-token ring.
#[cfg(test)]
mod transit {
    mod tests {
        use gw_fddi::ring::{Delivery, Ring, RingConfig};
        use gw_gateway::gateway::{Gateway, Output};
        use gw_gateway::GatewayConfig;
        use gw_sar::segment::segment_cells;
        use gw_sim::time::SimTime;
        use gw_wire::atm::{AtmHeader, Cell, Vci};
        use gw_wire::fddi::{self, FddiAddr, Frame};
        use gw_wire::mchip::{build_data_frame, parse_frame, Icn};
        use gw_wire::sar::SarCell;

        const A: usize = 0;
        const B: usize = 1;

        /// One congram's identifiers; `vci` and `icn` are indexed by side.
        #[derive(Debug, Clone, Copy)]
        struct Congram {
            vci: [Vci; 2],
            icn: [Icn; 2],
            icn_ring: Icn,
        }

        /// A frame a host received: the ICN it carried on the ring, then
        /// the VCI, ICN and payload it arrived with.
        type Received = (Icn, Vci, Icn, Vec<u8>);

        struct Internet {
            gws: [Gateway; 2],
            ring: Ring,
            now: SimTime,
            /// When each gateway last took a cell from its host.
            host_clock: [SimTime; 2],
            congrams: u16,
            rx: [Vec<Received>; 2],
        }

        impl Internet {
            fn new() -> Internet {
                let gw =
                    |s| Gateway::new(GatewayConfig::default(), FddiAddr::station(s), 80_000_000);
                Internet {
                    gws: [gw(0), gw(1)],
                    ring: Ring::new(RingConfig::uniform(4, 10)),
                    now: SimTime::ZERO,
                    host_clock: [SimTime::ZERO; 2],
                    congrams: 0,
                    rx: [Vec::new(), Vec::new()],
                }
            }

            /// Program both gateways as their NPEs would: each maps its
            /// side's ICN ⇄ the ring ICN and sends ring frames to the
            /// other gateway's station.
            fn install(&mut self) -> Congram {
                let k = self.congrams;
                self.congrams += 1;
                let c = Congram {
                    vci: [Vci(64 + 2 * k), Vci(65 + 2 * k)],
                    icn: [Icn(1 + 3 * k), Icn(3 + 3 * k)],
                    icn_ring: Icn(2 + 3 * k),
                };
                for (side, far) in [(A, B), (B, A)] {
                    let to = FddiAddr::station(far as u32);
                    self.gws[side].install_congram(c.vci[side], c.icn[side], c.icn_ring, to, false);
                }
                c
            }

            /// The host on side `from` sends `payload`: its cells enter
            /// that side's gateway and the translated frame is queued on
            /// the ring at the gateway's station.
            fn send(&mut self, c: Congram, from: usize, payload: &[u8]) {
                let mchip = build_data_frame(c.icn[from], payload).unwrap();
                let header = AtmHeader::data(Default::default(), c.vci[from]);
                let mut t = self.now.max(self.host_clock[from]);
                let mut out = Vec::new();
                for cell in segment_cells(&header, &mchip, false).unwrap() {
                    self.gws[from].deliver_cells(t, &[cell.into_inner()], &mut out);
                    t += SimTime::from_us(3);
                }
                self.host_clock[from] = t;
                let [Output::FddiFrameQueued { at, .. }] = out[..] else { panic!("{out:?}") };
                let (frame, sync) = self.gws[from].pop_fddi_tx(at).expect("frame in tx buffer");
                assert!(!sync, "asynchronous congram");
                self.ring.run_until(at);
                self.ring.push_async(from, frame).expect("ring queue has room");
            }

            /// Run the ring for `dt`; frames it delivers to a gateway's
            /// station go through that gateway to its side's host.
            fn run(&mut self, dt: SimTime) {
                self.now += dt;
                self.ring.run_until(self.now);
                for to in [A, B] {
                    for delivery in self.ring.take_rx(to) {
                        let received = self.deliver(to, delivery);
                        self.rx[to].push(received);
                    }
                }
            }

            fn deliver(&mut self, to: usize, delivery: Delivery) -> Received {
                let f = Frame::new_checked(&delivery.frame[..]).expect("valid FDDI frame");
                assert_eq!(f.dst(), FddiAddr::station(to as u32));
                let (ring, _) = parse_frame(fddi::strip_llc_snap(f.info()).unwrap()).unwrap();

                let mut vci = None;
                let mut sar = Vec::new();
                for o in self.gws[to].fddi_frame_in(delivery.time, &delivery.frame) {
                    let Output::AtmCell { cell, .. } = o else { continue };
                    let cell = Cell::new_checked(&cell[..]).expect("HEC valid");
                    let v = cell.header().vci;
                    assert_eq!(*vci.get_or_insert(v), v, "one frame, one VC");
                    let mut info = [0u8; 48];
                    info.copy_from_slice(cell.payload());
                    sar.extend_from_slice(SarCell::new_checked(info).expect("CRC valid").payload());
                }
                let (h, p) = parse_frame(&sar).unwrap();
                (ring.icn, vci.expect("cells out"), h.icn, p.to_vec())
            }
        }

        #[test]
        fn a_to_b_across_three_networks() {
            let mut net = Internet::new();
            let c = net.install();
            net.send(c, A, b"across the VHSI internet");
            net.run(SimTime::from_ms(5));
            let expected = (c.icn_ring, c.vci[B], c.icn[B], b"across the VHSI internet".to_vec());
            assert_eq!(net.rx[B], [expected]);
            assert!(net.rx[A].is_empty());
            // Both gateways did one data translation each.
            assert_eq!(net.gws[A].mpp().stats().data_up, 1, "GW-A: ATM->FDDI");
            assert_eq!(net.gws[B].mpp().stats().data_down, 1, "GW-B: FDDI->ATM");
        }

        #[test]
        fn b_to_a_reverse_path() {
            let mut net = Internet::new();
            let c = net.install();
            net.send(c, B, b"reply");
            net.run(SimTime::from_ms(5));
            assert_eq!(net.rx[A], [(c.icn_ring, c.vci[A], c.icn[A], b"reply".to_vec())]);
            assert!(net.rx[B].is_empty());
            assert_eq!(net.gws[B].mpp().stats().data_up, 1, "GW-B: ATM->FDDI");
            assert_eq!(net.gws[A].mpp().stats().data_down, 1, "GW-A: FDDI->ATM");
        }

        #[test]
        fn full_duplex_transit() {
            // Each round both hosts send at once, so the two directions'
            // frames share the ring.
            let mut net = Internet::new();
            let c = net.install();
            for i in 0..15u8 {
                net.send(c, A, &[i; 400]);
                net.send(c, B, &[!i; 300]);
                net.run(SimTime::from_ms(2));
            }
            net.run(SimTime::from_ms(10));
            assert_eq!((net.rx[A].len(), net.rx[B].len()), (15, 15));
            for (i, (to_b, to_a)) in net.rx[B].iter().zip(&net.rx[A]).enumerate() {
                assert_eq!(to_b, &(c.icn_ring, c.vci[B], c.icn[B], vec![i as u8; 400]));
                assert_eq!(to_a, &(c.icn_ring, c.vci[A], c.icn[A], vec![!(i as u8); 300]));
            }
            for gw in &net.gws {
                assert_eq!((gw.mpp().stats().data_up, gw.mpp().stats().data_down), (15, 15));
            }
        }

        #[test]
        fn icn_spaces_are_independent_per_hop() {
            // Two congrams: their ring-hop ICNs differ from their edge-hop
            // ICNs, and frames never leak between congrams.
            let mut net = Internet::new();
            let c1 = net.install();
            let c2 = net.install();
            assert_ne!(c1.icn_ring, c2.icn_ring);
            assert_ne!(c1.icn[A], c1.icn_ring);
            assert_ne!(c1.icn_ring, c1.icn[B]);
            net.send(c1, A, b"one");
            net.send(c2, A, b"two");
            net.run(SimTime::from_ms(5));
            assert_eq!(
                net.rx[B],
                [
                    (c1.icn_ring, c1.vci[B], c1.icn[B], b"one".to_vec()),
                    (c2.icn_ring, c2.vci[B], c2.icn[B], b"two".to_vec()),
                ]
            );
        }
    }
}
