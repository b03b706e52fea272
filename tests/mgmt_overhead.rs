//! Allocation guard for the management plane (separate test binary: it
//! installs a counting global allocator). The count is per thread, so
//! each test sees only its own allocations however many run at once.
//!
//! The tentpole's performance contract: instrumentation must keep the
//! per-cell critical path allocation-free. Mid-frame cells — the 25 MHz
//! hot loop — are fed through a warmed-up gateway while a counting
//! allocator watches; the management-disabled path must make zero
//! allocations, and the management-enabled path must match it exactly
//! (pre-resolved handles and a pre-reserved trace ring, no per-cell
//! heap traffic). The UDP cell port in front of the gateway and the ATM
//! network model behind it are held to the same rule here, because
//! this is the binary with the allocator.
//!
//! The allocator also keeps a live-byte count, which guards memory per
//! system: an idle gateway or reassembler holds per-VC memory only for
//! the VCIs in use and the frames in progress, not for the whole VCI
//! space or for every buffer §5.3 models.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without
    /// a destructor, so touching it from inside the allocator never
    /// allocates or registers anything itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread has allocated and not yet freed (freeing
    /// another thread's block moves this thread's count).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation against the calling thread (a no-op during
/// thread teardown, when the slot is already gone).
fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Move the calling thread's live-byte count by `delta`.
fn count_live(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: pure pass-through to the `System` allocator — every method
// forwards its arguments unchanged, so `System`'s own contract is what
// the caller gets; the counter touches no allocator state.
#[expect(unsafe_code, reason = "a global allocator is an `unsafe impl`")]
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates to `System::alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_live(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: delegates to `System::dealloc` with the caller's block.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        // SAFETY: `ptr`/`layout` came from the matching alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegates to `System::realloc` with the caller's block.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout`/`new_size` pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the calling thread made while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.get();
    let r = f();
    (ALLOCS.get() - before, r)
}

/// Heap bytes the calling thread still holds of what `f` allocated —
/// for a constructor, the memory of the value it returns.
fn live_bytes_after<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE.get();
    let r = f();
    (LIVE.get() - before, r)
}

use atm_fddi_gateway::gateway::{Gateway, GatewayConfig};
use atm_fddi_gateway::sar::segment::segment_cells;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::wire::atm::{AtmHeader, Vci, CELL_SIZE};
use atm_fddi_gateway::wire::fddi::FddiAddr;
use atm_fddi_gateway::wire::mchip::{build_data_frame, Icn};

const VCI: Vci = Vci(77);
const ICN: Icn = Icn(5);

fn gateway(managed: bool) -> Gateway {
    let config = GatewayConfig {
        management: managed.then(gw_mgmt::MgmtConfig::default),
        ..GatewayConfig::default()
    };
    let mut gw = Gateway::new(config, FddiAddr::station(0), 80_000_000);
    gw.install_congram(VCI, ICN, Icn(6), FddiAddr::station(3), false);
    gw
}

fn frame_cells(payload_octets: usize) -> Vec<[u8; CELL_SIZE]> {
    let mchip = build_data_frame(ICN, &vec![0xEE; payload_octets]).unwrap();
    segment_cells(&AtmHeader::data(Default::default(), VCI), &mchip, false)
        .unwrap()
        .into_iter()
        .map(|c| c.into_inner())
        .collect()
}

/// Run `frames` full frames through the gateway, returning allocations
/// counted ONLY over the mid-frame cells (every cell but the last of
/// each frame) — the steady-state hot loop. Completion cells and
/// transmit-buffer drains run outside the measured window.
fn hot_loop_allocations(gw: &mut Gateway, cells: &[[u8; CELL_SIZE]], frames: usize) -> u64 {
    let mut t = SimTime::ZERO;
    let mut total = 0;
    let mut out = Vec::new();
    for _ in 0..frames {
        let (mid, last) = cells.split_at(cells.len() - 1);
        let (allocs, _) = allocations_during(|| {
            for c in mid {
                gw.deliver_cells(t, std::slice::from_ref(c), &mut out);
                assert!(out.is_empty(), "mid-frame cells produce no output");
                t += SimTime::from_ns(40);
            }
        });
        total += allocs;
        // Frame completion (allocates: frame assembly, buffer store) is
        // deliberately outside the measured window.
        gw.deliver_cells(t, last, &mut out);
        out.clear();
        t += SimTime::from_ns(40);
        while gw.pop_fddi_tx(t).is_some() {}
    }
    total
}

/// Run `frames` full frames — completion cell, transmit-buffer drain,
/// and frame-buffer recycle all INSIDE the measured window — one
/// [`Gateway::deliver_cells`] call per frame. With the dense slot
/// tables and buffer pools this entire cycle must be allocation-free:
/// reassembly buffers come from the SPP pool, rebuilt FDDI frames from
/// the MPP pool, and both are returned before the next frame starts.
fn full_frame_allocations(
    gw: &mut Gateway,
    cells: &[[u8; CELL_SIZE]],
    frames: usize,
    out: &mut Vec<atm_fddi_gateway::gateway::Output>,
) -> u64 {
    let mut t = SimTime::from_ns(1_000_000);
    let mut total = 0;
    for _ in 0..frames {
        let (allocs, _) = allocations_during(|| {
            out.clear();
            gw.deliver_cells(t, cells, out);
            t += SimTime::from_ns(40 * cells.len() as u64);
            while let Some((frame, _sync)) = gw.pop_fddi_tx(t) {
                gw.recycle_frame(frame);
            }
        });
        total += allocs;
    }
    total
}

#[test]
fn per_cell_hot_loop_is_allocation_free_with_and_without_management() {
    let cells = frame_cells(400); // ~10 cells per frame
    assert!(cells.len() >= 8, "need a real mid-frame run, got {}", cells.len());

    let mut plain = gateway(false);
    let mut managed = gateway(true);

    // Warm-up: first frames populate the timer/origin maps and any
    // lazily-grown internal state on both gateways.
    hot_loop_allocations(&mut plain, &cells, 3);
    hot_loop_allocations(&mut managed, &cells, 3);

    // Steady state, 32 frames each.
    let plain_allocs = hot_loop_allocations(&mut plain, &cells, 32);
    let managed_allocs = hot_loop_allocations(&mut managed, &cells, 32);

    assert_eq!(
        plain_allocs, 0,
        "management-disabled per-cell path must not allocate in steady state"
    );
    assert_eq!(
        managed_allocs, plain_allocs,
        "enabling the management plane must add zero allocations to the hot loop"
    );

    // Sanity: the instrumentation did observe the traffic.
    let m = managed.mgmt().expect("management enabled");
    let counted = m.registry.vc(VCI.0).unwrap().cells_in.count();
    assert_eq!(counted as usize, cells.len() * 35, "every cell of every frame counted");
}

#[test]
fn full_frame_cycle_is_allocation_free_with_and_without_management() {
    let cells = frame_cells(400);

    let mut plain = gateway(false);
    let mut managed = gateway(true);
    let mut out = Vec::new();

    // Warm-up: grows the pools (reassembly + frame staging), the output
    // scratch, and the transmit ring to steady-state capacity.
    full_frame_allocations(&mut plain, &cells, 4, &mut out);
    full_frame_allocations(&mut managed, &cells, 4, &mut out);

    let plain_allocs = full_frame_allocations(&mut plain, &cells, 32, &mut out);
    let managed_allocs = full_frame_allocations(&mut managed, &cells, 32, &mut out);

    assert_eq!(
        plain_allocs, 0,
        "cell ingest, frame completion, FDDI rebuild, and recycle must not allocate"
    );
    assert_eq!(
        managed_allocs, 0,
        "the management plane must add zero allocations to the full frame cycle"
    );

    // Both pools really are cycling (hits, not steady misses).
    let spp = plain.spp_pool_stats();
    assert!(spp.hits >= 32, "reassembly buffers recycled through the pool: {spp:?}");
}

#[test]
fn fddi_to_atm_frame_costs_exactly_one_allocation() {
    use atm_fddi_gateway::sar::segment::cells_for_len;
    use atm_fddi_gateway::wire::fddi::{llc_snap_header, FrameControl, FrameRepr};
    use atm_fddi_gateway::wire::mchip::MCHIP_HEADER_SIZE;

    // Frames as the ring delivers them: LLC/SNAP around an MCHIP data
    // frame on `icn` (6 is the congram's FDDI-side ICN).
    let frame = |icn: u16, payload_octets: usize| {
        let mut info = llc_snap_header().to_vec();
        info.extend_from_slice(&build_data_frame(Icn(icn), &vec![0xA7; payload_octets]).unwrap());
        FrameRepr {
            fc: FrameControl::LlcAsync { priority: 0 },
            dst: FddiAddr::station(0),
            src: FddiAddr::station(3),
            info,
        }
        .emit()
        .unwrap()
    };
    const PAYLOADS: [usize; 4] = [64, 461, 1_500, 4_000];
    let good: Vec<Vec<u8>> = PAYLOADS.iter().map(|&n| frame(6, n)).collect();
    let mut bad_fcs = frame(6, 461);
    *bad_fcs.last_mut().unwrap() ^= 1;
    let unknown_icn = frame(900, 461);

    for managed in [false, true] {
        let mut gw = gateway(managed);
        let mut housekeeping = Vec::new();
        let mut t = SimTime::from_us(100);
        // One frame in, its wire time, housekeeping: what a harness does
        // per frame. Returns the allocations of the cycle and the cells.
        let mut cycle = |gw: &mut Gateway, bytes: &[u8]| {
            allocations_during(|| {
                let out = gw.fddi_frame_in(t, bytes);
                t += SimTime::from_ns(bytes.len() as u64 * 80);
                housekeeping.clear();
                gw.advance_into(t, &mut housekeeping);
                out
            })
        };
        // Warm-up: the receive-staging and MPP pools reach the largest
        // frame's size, the trace ring and histograms their working set.
        for bytes in good.iter().chain([&bad_fcs, &unknown_icn]) {
            cycle(&mut gw, bytes);
        }
        for _ in 0..8 {
            for (bytes, &octets) in good.iter().zip(&PAYLOADS) {
                let (allocs, out) = cycle(&mut gw, bytes);
                let cells = cells_for_len(MCHIP_HEADER_SIZE + octets);
                assert_eq!(allocs, 1, "managed {managed}, {octets} octets: the returned Vec");
                assert_eq!((out.len(), out.capacity()), (cells, cells), "sized once, exactly");
            }
            for (bytes, why) in [(&bad_fcs, "bad FCS"), (&unknown_icn, "unknown ICN")] {
                let (allocs, out) = cycle(&mut gw, bytes);
                assert_eq!(allocs, 0, "managed {managed}: a frame dropped for {why}");
                assert_eq!(out.capacity(), 0);
            }
        }
        let cons = gw.conservation();
        assert_eq!((cons.fddi_fragmented, cons.fddi_mpp_drops), (36, 9));
        assert_eq!(gw.stats().fddi_fcs_drops, 9);
    }
}

#[test]
fn idle_advance_is_allocation_free() {
    // Regression test: `advance` used to collect-and-sort an `expired`
    // Vec from every timer map on every call. With the timer wheel an
    // idle advance must be O(expired) == O(0) and allocation-free.
    let cells = frame_cells(400);
    let mut gw = gateway(true);
    let mut out = Vec::new();
    full_frame_allocations(&mut gw, &cells, 4, &mut out);

    let mut t = SimTime::from_ns(2_000_000);
    out.clear();
    gw.advance_into(t, &mut out); // warm the advance path itself
    let (allocs, _) = allocations_during(|| {
        for _ in 0..1_000 {
            t += SimTime::from_ns(1_000);
            out.clear();
            gw.advance_into(t, &mut out);
        }
    });
    assert_eq!(allocs, 0, "idle advance must not allocate (was: Vec collect + sort per call)");
}

#[test]
fn advance_with_a_setup_in_flight_is_allocation_free() {
    // A setup the NPE signals for from the FDDI side waits out its
    // watchdog, then its backoff. No event is due on these advances, so
    // they must not allocate (was: the supervisor's keys collected into
    // a fresh Vec and sorted on every advance while a setup was pending).
    use atm_fddi_gateway::gateway::Output;
    use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
    use atm_fddi_gateway::mchip::messages::ControlPayload;
    use atm_fddi_gateway::wire::fddi::{llc_snap_header, FrameControl, FrameRepr};
    let mut gw = gateway(true);
    let setup = ControlPayload::SetupRequest {
        congram: CongramId(5),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(1_000_000),
        dest: [7; 8],
    }
    .to_frame(Icn(0));
    let mut info = llc_snap_header().to_vec();
    info.extend_from_slice(&setup);
    let fc = FrameControl::LlcAsync { priority: 0 };
    let (dst, src) = (FddiAddr::station(0), FddiAddr::station(3));
    let frame = FrameRepr { fc, dst, src, info }.emit().unwrap();
    let mut t = SimTime::from_us(10);
    let mut out = gw.fddi_frame_in(t, &frame);
    gw.advance_into(t, &mut out);
    let (congram, attempt) = out
        .iter()
        .find_map(|o| match o {
            Output::AtmConnectionRequest { congram, attempt, .. } => Some((*congram, *attempt)),
            _ => None,
        })
        .expect("the NPE requests a VC");
    // 1 000 advances of 1 µs each, inside the 5 ms watchdog, and then
    // inside the 2 ms backoff after a rejection.
    let mut quiet_advances = |gw: &mut Gateway, t: &mut SimTime| {
        allocations_during(|| {
            for _ in 0..1_000 {
                *t += SimTime::from_ns(1_000);
                out.clear();
                gw.advance_into(*t, &mut out);
                assert!(out.is_empty(), "{out:?}");
            }
        })
        .0
    };
    assert_eq!(quiet_advances(&mut gw, &mut t), 0, "waiting out the watchdog");
    gw.atm_connection_failed(t, congram, attempt, &mut Vec::new());
    assert_eq!(quiet_advances(&mut gw, &mut t), 0, "waiting out the backoff");
}

#[test]
fn udp_cell_port_steady_state_is_allocation_free() {
    use atm_fddi_gateway::phy::{udp_cell_pair, CellPhy, TransportFaultConfig};

    // A frame's worth of cells out, both ends pumped until everything is
    // across and acknowledged, picked up, next frame — what the
    // appliance's ATM port does all day. 87 cells: three full datagrams
    // and a part, so the staged flush, the free list and the
    // acknowledgement are all on the path.
    let (mut tx, mut rx) = udp_cell_pair(&TransportFaultConfig::none()).unwrap();
    let cells = frame_cells(3_900);
    assert_eq!(cells.len(), 87);
    let at = SimTime::from_us(100);
    let mut got = Vec::new();
    let mut frame_across = || {
        for c in &cells {
            tx.send_cell(at, c).unwrap();
        }
        got.clear();
        while got.len() < cells.len() || tx.in_flight() > 0 {
            rx.pump(at).unwrap();
            tx.pump(at).unwrap();
            rx.poll_cells(&mut got).unwrap();
        }
    };
    frame_across(); // buffers, queues and `got` reach their working size
    let (allocs, ()) = allocations_during(|| (0..32).for_each(|_| frame_across()));
    assert_eq!(allocs, 0, "send_cell, pump and poll_cells must not allocate once warm");
    assert_eq!(tx.stats().retransmits, 0);
}

#[test]
fn atm_network_cell_hops_are_allocation_free_plain_and_policed() {
    use atm_fddi_gateway::atm::{AtmNetwork, EndpointEvent, Gcra, GcraParams, LinkParams};
    use atm_fddi_gateway::atm::{PolicingAction, SwitchId};

    // The testbed's ATM side: host — s0 — s1 — gateway, one VC each
    // way, driven the way `Testbed::run_until` drives it: inject what
    // is due, advance one 10 µs slice, drain both endpoints. Once the
    // slab, the event queue's heap and lanes, and the port queues have
    // reached their working size a cell costs no allocation on any hop
    // — with and without a `Tag` policer rewriting headers at the
    // ingress.
    for policed in [false, true] {
        let mut net = AtmNetwork::new();
        let (s0, s1) = (net.add_switch(4), net.add_switch(4));
        net.link(s0, 0, s1, 0, LinkParams::default());
        let host = net.attach_endpoint(s0, 1);
        let gw = net.attach_endpoint(s1, 1);
        net.install_vc(s0, 1, VCI, vec![(0, VCI)]);
        net.install_vc(s1, 0, VCI, vec![(1, VCI)]);
        net.install_vc(s1, 1, VCI, vec![(0, VCI)]);
        net.install_vc(s0, 0, VCI, vec![(1, VCI)]);
        if policed {
            let contract =
                GcraParams { increment: SimTime::from_us(5), tolerance: SimTime::from_us(1) };
            net.install_policer(s0, 1, VCI, Gcra::new(contract, PolicingAction::Tag));
        }
        let cell = frame_cells(40)[0];

        let (mut t, mut cells_rx, mut tagged_rx) = (SimTime::ZERO, 0u64, 0u64);
        let mut slices = |net: &mut AtmNetwork, n: u64| {
            for _ in 0..n {
                // Three cells toward the gateway (≈ 127 of the link's
                // 155 Mb/s) and one back, per slice.
                for k in 0..3 {
                    net.inject_at(host, t + SimTime::from_ns(k * 3_000), cell);
                }
                net.inject_at(gw, t, cell);
                t += SimTime::from_us(10);
                net.run_until(t);
                for ep in [gw, host] {
                    while let Some(ev) = net.next_event(ep) {
                        let EndpointEvent::CellRx { cell, .. } = ev else { panic!("{ev:?}") };
                        cells_rx += 1;
                        tagged_rx += u64::from(cell[3] & 1);
                    }
                }
            }
        };
        slices(&mut net, 200); // slab, heap and queues reach their working size
        let (allocs, ()) = allocations_during(|| slices(&mut net, 2_500));
        assert_eq!(allocs, 0, "policed {policed}: 10 000 cells, four hops' worth of events each");
        net.run_to_idle();
        assert_eq!(net.cells_in_flight(), 0);
        assert!(cells_rx >= 10_000, "the cells did cross: {cells_rx}");
        assert_eq!(tagged_rx > 0, policed, "the policer did tag: {tagged_rx}");
        assert_eq!(net.unroutable_cells(SwitchId(0)) + net.unroutable_cells(SwitchId(1)), 0);
    }
}

#[test]
fn warm_idle_testbed_slice_is_allocation_free() {
    use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};

    // A testbed that has carried frames both ways and drained them. A
    // slice in which nothing arrives anywhere still runs every step of
    // `run_until` — the outbox check, the network model, both endpoint
    // drains, gateway housekeeping, the transmit-buffer drain, the
    // ring's token rotation and every station's receive queue — and none of
    // it may allocate.
    let mut tb = Testbed::build(TestbedConfig::default());
    let c = tb.install_data_congram(2);
    for i in 0..8u8 {
        tb.send_from_atm_host(c, vec![i; 500]);
        tb.send_from_fddi_station(2, c, vec![i; 700]);
    }
    tb.run_until(SimTime::from_ms(50));
    assert_eq!((tb.fddi_rx(2).len(), tb.atm_host_rx.len()), (8, 8), "the traffic did cross");
    let until = tb.now() + SimTime::from_ms(5);
    let (allocs, ()) = allocations_during(|| tb.run_until(until));
    assert_eq!(allocs, 0, "500 idle slices");
    assert_eq!(tb.atm.cells_in_flight(), 0);
}

/// Memory per system: a gateway or a reassembler holds per-VC memory
/// for the VCIs in use and the frames in progress only. A full-width
/// VCI index (256 KiB each) or two 91-cell buffers pinned per open VC
/// (8 KiB each) would break these bounds.
#[test]
fn per_vc_memory_follows_the_vcs_in_use() {
    use atm_fddi_gateway::sar::reassemble::{Reassembler, ReassemblyConfig};
    const BOUND: i64 = 256 * 1024;

    let (gateway_bytes, gw) = live_bytes_after(|| {
        let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 80_000_000);
        for k in 0..8u16 {
            gw.install_congram(
                Vci(100 + k),
                Icn(1 + k),
                Icn(200 + k),
                FddiAddr::station(1 + u32::from(k)),
                false,
            );
        }
        gw
    });
    assert!(gateway_bytes < BOUND, "Gateway::new and 8 congrams hold {gateway_bytes} bytes");
    drop(gw);

    let (reassembler_bytes, r) = live_bytes_after(|| {
        let mut r = Reassembler::new(ReassemblyConfig::default());
        for vci in 1..=1_000 {
            r.open_vc(Vci(vci));
        }
        r
    });
    assert!(reassembler_bytes < BOUND, "1 000 open, idle VCs hold {reassembler_bytes} bytes");
    assert_eq!(r.resident_buffers(), 0);
}

/// Control-plane memory follows the live congrams, not every setup
/// ever made: with one live PICon holding 90 of the ring's 100 Mb/s,
/// each 50 Mb/s setup from the ATM side is refused by admission, and
/// once warm the gateway holds no more bytes after 99 000 more
/// refusals than before them (a record kept per refused setup holds
/// over 10 MB).
#[test]
fn refused_setups_leave_no_memory_behind() {
    use atm_fddi_gateway::gateway::npe::NpeInput;
    use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
    use atm_fddi_gateway::mchip::messages::ControlPayload;
    const DEST: [u8; 8] = [7; 8];
    let mut gw = Gateway::new(GatewayConfig::default(), FddiAddr::station(0), 100_000_000);
    gw.npe_mut().add_host(DEST, FddiAddr::station(3));
    let setup = |peer: u32, kind, mbps: u64| {
        let flow = FlowSpec::cbr(mbps * 1_000_000);
        let frame =
            ControlPayload::SetupRequest { congram: CongramId(peer), kind, flow, dest: DEST }
                .to_frame(Icn(0));
        NpeInput::ControlFromAtm { frame, arrival_vci: Vci(40) }
    };
    let t = SimTime::from_us(10);
    gw.npe_mut().handle(t, setup(0, CongramKind::PICon, 90));
    assert_eq!(gw.npe().resource_manager().active(), 1, "the PICon is admitted");
    let refuse = |gw: &mut Gateway, peers: std::ops::Range<u32>| {
        for peer in peers {
            gw.npe_mut().handle(t, setup(peer, CongramKind::UCon, 50));
        }
    };
    refuse(&mut gw, 1..1_001);
    let (held, ()) = live_bytes_after(|| refuse(&mut gw, 1_001..100_001));
    assert_eq!(gw.npe().stats().setups_rejected, 100_000);
    assert_eq!(gw.npe().resource_manager().active(), 1);
    assert!(held < 1024, "99 000 refused setups left {held} bytes behind");
}

/// Congram install runs at call rate and on every config load. A VC's
/// management row holds its counts and no name, so an install formats,
/// copies and hashes nothing, and a reassembly slot holds its two
/// buffer records inline: after a managed `Gateway::new`, 64 installs
/// make at most one allocation per congram, amortised (the tables they
/// share grow by doubling). Retiring a row and creating it again reuses
/// the row and allocates nothing.
#[test]
fn congram_install_makes_at_most_one_allocation_per_congram() {
    use gw_mgmt::MetricsRegistry;
    const CONGRAMS: u16 = 64;

    let config = GatewayConfig { management: Some(gw_mgmt::MgmtConfig), ..Default::default() };
    let (new_allocs, mut gw) =
        allocations_during(|| Gateway::new(config, FddiAddr::station(0), 80_000_000));
    let (install_allocs, ()) = allocations_during(|| {
        for k in 0..CONGRAMS {
            let station = FddiAddr::station(1 + u32::from(k % 8));
            gw.install_congram(Vci(100 + k), Icn(1 + k), Icn(200 + k), station, false);
        }
    });
    assert!(
        install_allocs <= u64::from(CONGRAMS),
        "{CONGRAMS} installs made {install_allocs} allocations (Gateway::new: {new_allocs})"
    );
    assert_eq!(gw.mgmt().unwrap().registry.vc_rows().len(), usize::from(CONGRAMS));

    let mut registry = MetricsRegistry::new(1);
    for vci in 100..100 + CONGRAMS {
        registry.create_vc(vci);
    }
    let (allocs, ()) = allocations_during(|| {
        for vci in 100..100 + CONGRAMS {
            registry.retire_vc(vci);
            registry.create_vc(vci);
        }
    });
    assert_eq!(allocs, 0, "a re-created row reuses its slot");
    assert_eq!(registry.vcs_retired(), u64::from(CONGRAMS));
}

/// A lookup of a VCI with no entry reads "no slot" and never grows the
/// reassembler's or the registry's VCI index. An index cannot grow
/// without allocating, so the lookups of all 65 536 VCIs allocate
/// nothing and leave the live bytes where they were.
#[test]
fn lookups_of_unknown_vcis_do_not_grow_the_indexes() {
    use atm_fddi_gateway::sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
    use gw_mgmt::MetricsRegistry;

    let mut r = Reassembler::new(ReassemblyConfig::default());
    let mut registry = MetricsRegistry::new(1);
    for vci in 1..=8 {
        r.open_vc(Vci(vci));
        registry.create_vc(vci);
    }
    let cell = frame_cells(40)[0];
    let info = &cell[5..];
    let (live, (allocs, ())) = live_bytes_after(|| {
        allocations_during(|| {
            for vci in (0..=u16::MAX).filter(|v| !(1..=8).contains(v)) {
                assert_eq!(r.push(SimTime::ZERO, Vci(vci), info), ReassemblyEvent::UnknownVc);
                assert!(!r.is_open(Vci(vci)));
                r.release(Vci(vci));
                r.close_vc(Vci(vci));
                assert!(registry.vc(vci).is_none());
            }
        })
    });
    assert_eq!((allocs, live), (0, 0), "a lookup past the index's end must not grow it");
    assert_eq!(r.stats().unknown_vc_drops, (1 << 16) - 8);
    assert_eq!(r.open_count(), 8);
}

/// VC churn leaves no buffer memory behind: 1 000 opens and closes,
/// some with a frame in progress at the close, end with no resident
/// buffer and a balanced pool census.
#[test]
fn vc_churn_leaves_no_resident_buffers() {
    use atm_fddi_gateway::sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
    use atm_fddi_gateway::sar::segment::segment;

    let mut r = Reassembler::new(ReassemblyConfig::default());
    let cells = segment(&[0x3C; 3 * 45], false).unwrap();
    for i in 0..1_000u16 {
        let vci = Vci(1 + i % 300);
        r.open_vc(vci);
        // Every third VC closes mid-frame; the others complete a frame.
        let upto = if i % 3 == 0 { 1 } else { cells.len() };
        for c in &cells[..upto] {
            if let ReassemblyEvent::Complete(f) = r.push(SimTime::ZERO, vci, c.as_bytes()) {
                r.recycle(f.data);
            }
        }
        assert!(r.resident_buffers() <= 1);
        r.close_vc(vci);
    }
    assert_eq!(r.open_count(), 0);
    assert_eq!(r.resident_buffers(), 0, "no closed VC keeps buffer memory");
    assert_eq!(r.pool_stats().outstanding(), 0, "the pool census balances");
    assert_eq!(r.stats().frames_complete, 666);
}

/// A histogram holds its bins up to the highest one recorded into.
/// Once a bin is held, recording into it — or into any lower bin, or
/// past the top into the overflow count — allocates nothing.
#[test]
fn histogram_records_into_held_bins_without_allocating() {
    use atm_fddi_gateway::sim::Histogram;

    let mut h = Histogram::new(40, 4096);
    let (allocs, ()) = allocations_during(|| h.record(1_000_000));
    assert_eq!(allocs, 0, "an overflow sample holds no bins");
    h.record(40 * 2_000);
    let (allocs, ()) = allocations_during(|| {
        for v in (0..=40 * 2_000).step_by(7) {
            h.record(v);
        }
        h.record(40 * 4096);
    });
    assert_eq!(allocs, 0, "samples into held bins and past the top");
    assert_eq!(h.count(), 2 + 11_429 + 1);
}

/// What each model holds at construction: no histogram bin is held
/// until a sample lands in it. A 65 536-bin rotation histogram held up
/// front is 512 KiB per ring, and the gateway's five 4 096-bin latency
/// histograms 160 KiB.
#[test]
fn models_hold_no_histogram_bins_at_construction() {
    use atm_fddi_gateway::fddi::ring::Ring;
    use atm_fddi_gateway::testbed::{ring_config, Testbed};

    let (ring_bytes, ring) = live_bytes_after(|| Ring::new(ring_config(5)));
    assert!(ring_bytes <= 8 * 1024, "Ring::new, 5 stations, holds {ring_bytes} bytes");
    drop(ring);

    let config =
        GatewayConfig { management: Some(gw_mgmt::MgmtConfig), ..GatewayConfig::default() };
    let (gateway_bytes, gw) =
        live_bytes_after(|| Gateway::new(config, FddiAddr::station(0), 80_000_000));
    assert!(gateway_bytes <= 128 * 1024, "managed Gateway::new holds {gateway_bytes} bytes");
    drop(gw);

    let (scene, diags) = atm_fddi_gateway::scene::parse(
        "# gw-scene/1\nscene one\nstations 5\ncongram a station 1 class async\n\
         send at_us 100 vc a dir atm len 200 fill 0x11\nexpect conservation\n",
    );
    assert!(diags.is_empty(), "{diags:?}");
    let scene = scene.expect("the scene parses");
    let (testbed_bytes, tb) = live_bytes_after(|| Testbed::from_scene(&scene, Default::default()));
    assert!(testbed_bytes <= 192 * 1024, "Testbed::from_scene holds {testbed_bytes} bytes");
    drop(tb);
}

/// A scene of `testbed_mix`'s shape: 33 lines, about 1 700 octets —
/// eight congrams over four stations, sixteen bursts both ways, two
/// seam faults and two expectations.
const TESTBED_MIX_SCENE: &str = "\
# gw-scene/1
# the shape of gw-benchmark's testbed_mix scene, with fixed phases
scene testbed-mix
seed 1991
stations 5
congram c0 station 1 class sync
congram c1 station 2 class sync
congram c2 station 3 class async
congram c3 station 4 class async
congram c4 station 1 class async
congram c5 station 2 class async
congram c6 station 3 class async
congram c7 station 4 class async
burst from_us 17 to_us 100000 every_us 1250 vc c0 dir atm len 180 fill 0x20
burst from_us 1003 to_us 100000 every_us 1250 vc c0 dir fddi len 180 fill 0x21
burst from_us 411 to_us 100000 every_us 1250 vc c1 dir atm len 180 fill 0x22
burst from_us 862 to_us 100000 every_us 1250 vc c1 dir fddi len 180 fill 0x23
burst from_us 530 to_us 100000 every_us 900 vc c2 dir atm len 900 fill 0x24
burst from_us 2209 to_us 100000 every_us 6400 vc c2 dir fddi len 4000 fill 0x25
burst from_us 77 to_us 100000 every_us 1400 vc c3 dir atm len 1400 fill 0x26
burst from_us 4120 to_us 100000 every_us 4800 vc c3 dir fddi len 3000 fill 0x27
burst from_us 1290 to_us 100000 every_us 1800 vc c4 dir atm len 1800 fill 0x28
burst from_us 305 to_us 100000 every_us 3200 vc c4 dir fddi len 2000 fill 0x29
burst from_us 1768 to_us 100000 every_us 2400 vc c5 dir atm len 2400 fill 0x2a
burst from_us 943 to_us 100000 every_us 2400 vc c5 dir fddi len 1500 fill 0x2b
burst from_us 2650 to_us 100000 every_us 3200 vc c6 dir atm len 3200 fill 0x2c
burst from_us 1111 to_us 100000 every_us 1600 vc c6 dir fddi len 1000 fill 0x2d
burst from_us 3999 to_us 100000 every_us 4000 vc c7 dir atm len 4000 fill 0x2e
burst from_us 58 to_us 100000 every_us 737 vc c7 dir fddi len 461 fill 0x2f
fault drops 0.005
fault corruption 0.002
expect conservation
expect residue_clean
";

/// The testbed_mix-shaped scene, parsed clean.
fn testbed_mix_scene() -> atm_fddi_gateway::scene::Scene {
    let (scene, diags) = atm_fddi_gateway::scene::parse(TESTBED_MIX_SCENE);
    assert!(diags.is_empty(), "{diags:?}");
    let scene = scene.expect("the scene parses");
    assert_eq!((scene.congrams.len(), scene.traffic.len()), (8, 16));
    scene
}

/// Scene-to-testbed set-up is part of the budget (`setup_s`). The
/// parser builds a diagnostic's message only when it emits one and
/// tokenizes every line into one buffer, so a clean parse allocates
/// for what the scene holds — names and tables — and not per token or
/// per keyword (221 allocations when it did both).
#[test]
fn scene_parse_stays_within_its_allocation_budget() {
    let (allocs, scene) = allocations_during(testbed_mix_scene);
    assert!(allocs <= 25, "parsing the scene made {allocs} allocations");
    drop(scene);
}

/// `Testbed::from_scene` installs four switch entries per congram, each
/// adopting the caller's output list (137 allocations when each install
/// copied it into a list of its own).
#[test]
fn testbed_from_scene_stays_within_its_allocation_budget() {
    use atm_fddi_gateway::testbed::Testbed;

    let scene = testbed_mix_scene();
    let (allocs, (tb, handles)) =
        allocations_during(|| Testbed::from_scene(&scene, Default::default()));
    assert!(allocs <= 105, "Testbed::from_scene made {allocs} allocations");
    assert_eq!(handles.len(), 8);
    drop(tb);
}

/// A new switch entry adopts the caller's output list: once the port's
/// VCI index covers the VCI and the entry table has room, a one-output
/// install makes one allocation, the caller's `vec!` (two when the
/// entry copied it into a list of its own).
#[test]
fn vc_install_allocates_only_the_callers_output_list() {
    use atm_fddi_gateway::atm::{AtmNetwork, EndpointEvent, LinkParams};

    let mut net = AtmNetwork::new();
    let (s0, s1) = (net.add_switch(4), net.add_switch(4));
    net.link(s0, 0, s1, 0, LinkParams::default());
    let host = net.attach_endpoint(s0, 1);
    let gw = net.attach_endpoint(s1, 1);
    net.install_vc(s1, 0, VCI, vec![(1, VCI)]);
    for vci in [Vci(VCI.0 + 1), Vci(VCI.0 + 2)] {
        net.install_vc(s0, 1, vci, vec![(0, vci)]);
    }
    // Port 1's index already covers `VCI`, and the entry table has room.
    let (allocs, ()) = allocations_during(|| net.install_vc(s0, 1, VCI, vec![(0, VCI)]));
    assert_eq!(allocs, 1, "the caller's Vec and nothing else");

    // The adopted list routes: a cell from the host reaches the gateway.
    net.inject_at(host, SimTime::ZERO, frame_cells(40)[0]);
    net.run_to_idle();
    assert!(matches!(net.next_event(gw), Some(EndpointEvent::CellRx { .. })));
}
