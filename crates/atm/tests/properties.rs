//! Property tests for the cell-switching network: conservation, order,
//! and admission-control invariants over random topologies and loads.

use gw_atm::network::{AtmNetwork, EndpointEvent, LinkParams, SwitchId};
use gw_atm::signaling::TrafficContract;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE, HEADER_SIZE};
use proptest::prelude::*;

/// A chain of `n` switches with one endpoint at each end and a VC
/// threaded through.
fn chain(n: usize) -> (AtmNetwork, gw_atm::network::EndpointId, gw_atm::network::EndpointId) {
    chain_with(n, LinkParams::default())
}

/// [`chain`] with the inter-switch links' parameters chosen.
fn chain_with(
    n: usize,
    params: LinkParams,
) -> (AtmNetwork, gw_atm::network::EndpointId, gw_atm::network::EndpointId) {
    let mut net = AtmNetwork::new();
    let switches: Vec<_> = (0..n).map(|_| net.add_switch(4)).collect();
    for w in switches.windows(2) {
        net.link(w[0], 1, w[1], 0, params);
    }
    let e0 = net.attach_endpoint(switches[0], 2);
    let e1 = net.attach_endpoint(switches[n - 1], 2);
    // Thread VCI 100 end to end (ingress port differs at the first hop).
    let (hs, hp) = net.endpoint_attachment(e0);
    net.install_vc(hs, hp, Vci(100), vec![(1, Vci(100))]);
    for sw in switches.iter().skip(1).take(n - 2) {
        net.install_vc(*sw, 0, Vci(100), vec![(1, Vci(100))]);
    }
    net.install_vc(switches[n - 1], 0, Vci(100), vec![(2, Vci(100))]);
    (net, e0, e1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cells delivered + cells dropped (queue overflow) == cells sent;
    /// delivered cells arrive in send order.
    #[test]
    fn conservation_and_order_through_chain(
        hops in 2usize..6,
        cells in 1usize..120,
        gap_us in 1u64..30,
    ) {
        let (mut net, e0, e1) = chain(hops);
        for i in 0..cells {
            let mut payload = [0u8; 48];
            payload[0] = (i % 256) as u8;
            payload[1] = (i / 256) as u8;
            net.inject_on_vci_at(
                e0,
                SimTime::from_ns(i as u64 * gap_us * 1000),
                Vci(100),
                &payload,
            );
        }
        net.run_to_idle();
        let received: Vec<usize> = net
            .poll(e1)
            .into_iter()
            .filter_map(|e| match e {
                EndpointEvent::CellRx { cell, .. } => {
                    Some(cell[5] as usize + cell[6] as usize * 256)
                }
                _ => None,
            })
            .collect();
        let dropped: u64 = (0..hops)
            .flat_map(|s| (0..4).map(move |p| (s, p)))
            .map(|(s, p)| net.link_stats(SwitchId(s), p).full_drops)
            .sum();
        prop_assert_eq!(received.len() as u64 + dropped, cells as u64);
        // Order preserved among the delivered.
        for w in received.windows(2) {
            prop_assert!(w[0] < w[1], "reordering: {:?}", received);
        }
    }

    /// Slab conservation: whatever mix of deliveries, overflow drops,
    /// CLP drops, cut-link drops and unroutable cells a run produces,
    /// an idle network holds no cell, and the slab never grew past the
    /// most cells that were in flight at once (a leaked or needlessly
    /// fresh slot is unbounded memory in a long co-simulation).
    #[test]
    fn slab_drains_and_never_outgrows_the_peak_in_flight(
        hops in 2usize..6,
        batches in proptest::collection::vec((1usize..40, 0u64..4_000, 0usize..60), 1..8),
        queue_cells in 1usize..10,
        cut_at_batch in 0usize..16, // 8 and up: the link is never cut
    ) {
        let narrow = LinkParams {
            queue_cells,
            clp_threshold: queue_cells / 2,
            ..LinkParams::default()
        };
        let (mut net, e0, e1) = chain_with(hops, narrow);
        let (mut sent, mut peak) = (0u64, 0usize);
        for (b, &(cells, gap_ns, steps)) in batches.iter().enumerate() {
            if b == cut_at_batch {
                net.fail_link(SwitchId(0), 1);
            } else if b == cut_at_batch + 2 {
                net.restore_link(SwitchId(0), 1);
            }
            for i in 0..cells {
                // Every fifth cell carries CLP, every seventh a VCI
                // nobody routes.
                let vci = if sent % 7 == 6 { Vci(999) } else { Vci(100) };
                let header = AtmHeader { clp: sent % 5 == 4, ..AtmHeader::data(Default::default(), vci) };
                let mut cell = [0u8; CELL_SIZE];
                cell[..HEADER_SIZE].copy_from_slice(&header.to_bytes());
                let at = net.now() + SimTime::from_ns(i as u64 * gap_ns);
                prop_assert!(net.inject_at(e0, at, cell));
                sent += 1;
                peak = peak.max(net.cells_in_flight());
            }
            // On a chain a step never adds a cell, so sampling after
            // every injection sees the true peak.
            for _ in 0..steps {
                let before = net.cells_in_flight();
                net.step();
                prop_assert!(net.cells_in_flight() <= before);
            }
        }
        net.run_to_idle();
        let delivered = net.poll(e1).len() as u64;
        prop_assert!(net.poll(e0).is_empty());
        let (mut dropped, mut unroutable) = (0u64, 0u64);
        for s in 0..hops {
            unroutable += net.unroutable_cells(SwitchId(s));
            for p in 0..4 {
                let st = net.link_stats(SwitchId(s), p);
                dropped += st.full_drops + st.clp_drops + st.down_drops;
            }
        }
        prop_assert_eq!(delivered + dropped + unroutable, sent);
        prop_assert_eq!(net.cells_in_flight(), 0);
        prop_assert!(net.cell_slots() <= peak, "slab {} > peak {}", net.cell_slots(), peak);
    }

    /// CAC safety: however many connections are requested, the sum of
    /// reservations on any link never exceeds its reservable capacity.
    #[test]
    fn cac_never_overcommits(
        demands in proptest::collection::vec(1u64..120, 1..20),
    ) {
        let (mut net, e0, e1) = chain(3);
        for mbps in demands {
            net.connect(net.now(), e0, &[e1], TrafficContract::cbr(mbps * 1_000_000));
        }
        net.run_until(SimTime::from_ms(200));
        let reservable = (gw_atm::DEFAULT_LINK_RATE as f64 * 0.95) as u64;
        for s in 0..3 {
            for p in 0..4 {
                prop_assert!(
                    net.reserved_bps(SwitchId(s), p) <= reservable,
                    "link s{s}p{p} overcommitted"
                );
            }
        }
    }

    /// Releasing everything returns every link to zero reservation.
    #[test]
    fn release_restores_zero(
        demands in proptest::collection::vec(1u64..60, 1..10),
    ) {
        let (mut net, e0, e1) = chain(3);
        let conns: Vec<_> = demands
            .iter()
            .map(|&mbps| net.connect(net.now(), e0, &[e1], TrafficContract::cbr(mbps * 1_000_000)))
            .collect();
        net.run_until(SimTime::from_ms(100));
        for c in conns {
            net.release(c);
        }
        net.run_until(SimTime::from_ms(200));
        for s in 0..3 {
            for p in 0..4 {
                prop_assert_eq!(net.reserved_bps(SwitchId(s), p), 0);
            }
        }
    }
}
