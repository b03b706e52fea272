//! Buffer-pool exhaustion and census: the chaos-harness invariants
//! (conservation, zero residue) exercised directly against the
//! gateway under transmit-memory starvation and mid-burst
//! reassembly-timer expiry.

use gw_gateway::config::ShedConfig;
use gw_gateway::gateway::Gateway;
use gw_gateway::GatewayConfig;
use gw_sar::segment::segment_cells;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Vci, CELL_SIZE};
use gw_wire::fddi::FddiAddr;
use gw_wire::mchip::{build_data_frame, Icn};

fn gateway(config: GatewayConfig, vcs: usize) -> Gateway {
    let mut gw = Gateway::new(config, FddiAddr::station(0), 100_000_000);
    for k in 0..vcs {
        gw.install_congram(
            Vci(100 + k as u16),
            Icn(1 + k as u16),
            Icn(200 + k as u16),
            FddiAddr::station(1 + k as u32),
            false,
        );
    }
    gw
}

fn cells_for(vci: Vci, icn: Icn, payload: &[u8]) -> Vec<[u8; CELL_SIZE]> {
    let mchip = build_data_frame(icn, payload).unwrap();
    segment_cells(&AtmHeader::data(Default::default(), vci), &mchip, false)
        .unwrap()
        .into_iter()
        .map(|c| c.into_inner())
        .collect()
}

/// Starve the transmit memory so simultaneous frame completions hit
/// both exhaustion arms — shed at the watermark, hard overflow past
/// capacity — while conservation stays balanced and, once the buffer
/// drains, the residue audit is clean.
#[test]
fn tx_starvation_sheds_and_overflows_with_balanced_census() {
    // 2048 octets: one 1800-octet frame fits and already crosses the
    // 85% watermark, so the next completion is shed; without shedding
    // it would overflow.
    let mut config = GatewayConfig { tx_buffer_octets: 2048, ..GatewayConfig::default() };
    config.overload_shedding = Some(ShedConfig::default());
    let mut gw = gateway(config, 3);

    // Three frames completing at the same instant: the first is
    // stored, the rest meet a starved buffer.
    let t = SimTime::from_us(100);
    let mut out = Vec::new();
    for k in 0..3u16 {
        gw.deliver_cells(t, &cells_for(Vci(100 + k), Icn(1 + k), &[0x5A; 1800]), &mut out);
    }
    let cons = gw.conservation();
    assert_eq!(cons.atm_frames_forwarded, 1, "one frame fits the starved memory");
    assert!(
        cons.atm_tx_shed + cons.atm_tx_overflow == 2,
        "the other completions must shed or overflow: {cons:?}"
    );
    assert!(cons.atm_tx_shed >= 1, "the watermark must engage before capacity: {cons:?}");
    assert_eq!(gw.check_conservation(), Vec::<String>::new());

    // Shed frames were returned to the MPP pool at the store site; the
    // stored frame leaves through the transmit port. After the drain
    // the full residue audit — pools included — is clean.
    let mut popped = 0;
    while let Some((frame, _sync)) = gw.pop_fddi_tx(t) {
        popped += 1;
        gw.recycle_frame(frame);
    }
    assert_eq!(popped, 1);
    let residue = gw.residue();
    assert!(residue.is_clean(), "post-drain residue: {residue:?}");
}

/// A reassembly timer expiring mid-burst flushes the stalled frame and
/// hands its buffer back: cell occupancy returns to zero, the timer
/// disarms, and the SPP pool census balances — the buffer is reusable,
/// not leaked.
#[test]
fn reassembly_timer_expiry_mid_burst_returns_buffers() {
    let config =
        GatewayConfig { reassembly_timeout: SimTime::from_ms(5), ..GatewayConfig::default() };
    let mut gw = gateway(config, 2);
    let baseline = gw.spp_pool_stats();

    // First half of a frame on each VC, then silence: both
    // reassemblies stall mid-burst with their timers armed.
    let t = SimTime::from_us(50);
    let mut out = Vec::new();
    for k in 0..2u16 {
        let cells = cells_for(Vci(100 + k), Icn(1 + k), &[0xC3; 900]);
        gw.deliver_cells(t, &cells[..cells.len() / 2], &mut out);
    }
    let mid = gw.residue();
    assert!(mid.reassembly_cells > 0, "stalled cells must be held: {mid:?}");
    assert!(mid.reassembly_timers_armed, "stalled reassemblies arm their timers");
    assert_eq!(mid.spp_pool_leak, 0, "held buffers are resident, not leaked");

    // Past the timeout: both frames flushed, everything released.
    gw.advance_into(SimTime::from_ms(20), &mut out);
    let reasm = gw.spp().reassembly_stats();
    assert_eq!(reasm.timeouts, 2, "both stalled reassemblies must time out");
    let after = gw.residue();
    assert!(after.is_clean(), "post-expiry residue: {after:?}");
    let stats = gw.spp_pool_stats();
    assert_eq!(
        stats.outstanding(),
        baseline.outstanding(),
        "timer expiry must return buffers to the pool census"
    );
    assert_eq!(gw.check_conservation(), Vec::<String>::new());
}
