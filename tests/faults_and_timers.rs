//! Loss, corruption, and reassembly-timer behaviour through the whole
//! stack (paper §5.2's failure policies, observed end to end), plus the
//! congram-lifecycle robustness suite: link flaps, burst loss, setup
//! retry/backoff, VC quarantine, and overload shedding.

use atm_fddi_gateway::sim::fault::{FaultConfig, GilbertElliott};
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{CongramHandle, Testbed, TestbedConfig};

#[test]
fn cell_drops_discard_whole_frames_never_corrupt() {
    let mut tb = Testbed::build(TestbedConfig {
        atm_faults: FaultConfig::drops(0.02),
        seed: 5,
        ..Default::default()
    });
    let c = tb.install_data_congram(1);
    let n = 200;
    for i in 0..n {
        tb.send_from_atm_host(c, vec![(i % 251) as u8; 450]); // 11 cells
    }
    tb.run_until(SimTime::from_secs(1));
    let rx = tb.fddi_rx(1);
    let discarded = tb.gw.spp().reassembly_stats().frames_discarded as usize
        + tb.gw.spp().reassembly_stats().timeouts as usize;
    assert!(rx.len() < n, "2% cell loss on 11-cell frames must lose frames");
    assert!(discarded > 0);
    // Delivered frames are bit-exact.
    for f in &rx {
        assert_eq!(f.len(), 450);
        assert!(f.iter().all(|&b| b == f[0]));
    }
}

#[test]
fn cell_corruption_caught_by_crc10() {
    let mut tb = Testbed::build(TestbedConfig {
        atm_faults: FaultConfig::corruption(0.02),
        seed: 6,
        ..Default::default()
    });
    let c = tb.install_data_congram(1);
    for i in 0..200u32 {
        tb.send_from_atm_host(c, vec![(i % 251) as u8; 450]);
    }
    tb.run_until(SimTime::from_secs(1));
    let stats = tb.gw.spp().reassembly_stats();
    let aic = tb.gw.aic().stats();
    // Corruption lands in the header (HEC catches it at the AIC) or in
    // the information field (CRC-10 catches it at the SPP); a bit flip
    // never reaches the ring undetected.
    assert!(stats.crc_drops + aic.hec_discards > 0, "some corrupted cells must have been caught");
    for f in tb.fddi_rx(1) {
        assert!(f.iter().all(|&b| b == f[0]), "corrupted payload leaked to FDDI");
    }
}

#[test]
fn frame_loss_rate_grows_with_cell_loss_rate() {
    // The shape behind experiment E10: P(frame lost) ≈ 1-(1-p)^cells.
    let mut measured = Vec::new();
    for &p in &[0.001f64, 0.01, 0.05] {
        let mut tb = Testbed::build(TestbedConfig {
            atm_faults: FaultConfig::drops(p),
            seed: 7,
            ..Default::default()
        });
        let c = tb.install_data_congram(1);
        let n = 300;
        for i in 0..n {
            tb.send_from_atm_host(c, vec![(i % 256) as u8; 450]);
        }
        tb.run_until(SimTime::from_secs(2));
        let delivered = tb.fddi_rx(1).len();
        measured.push(1.0 - delivered as f64 / n as f64);
    }
    assert!(measured[0] < measured[1] && measured[1] < measured[2], "{measured:?}");
    // 11 cells/frame at p=0.05: expected loss ≈ 43%.
    let expect = 1.0 - 0.95f64.powi(11);
    assert!((measured[2] - expect).abs() < 0.15, "measured {} vs {expect}", measured[2]);
}

#[test]
fn reassembly_timer_frees_stalled_connections() {
    let mut tb = Testbed::build(TestbedConfig {
        atm_faults: FaultConfig::drops(0.3), // heavy loss: frames stall often
        seed: 8,
        ..Default::default()
    });
    let c = tb.install_data_congram(1);
    for i in 0..50u8 {
        tb.send_from_atm_host_at(SimTime::from_ms(i as u64 * 15), c, vec![i; 900]);
    }
    tb.run_until(SimTime::from_secs(2));
    let stats = tb.gw.spp().reassembly_stats();
    // With 30% loss, final cells go missing regularly; the only way the
    // VC keeps making progress is the reassembly timer.
    assert!(stats.timeouts > 0, "reassembly timer must have fired: {stats:?}");
    assert!(
        tb.gw.stats().partial_discards == stats.timeouts,
        "every flushed partial is discarded at the MPP (current design, §5.2)"
    );
    // And the connection is not wedged: a clean tail still delivers.
    let before = tb.fddi_rx(1).len();
    let mut tb2_faultless_tail = tb;
    tb2_faultless_tail.run_until(SimTime::from_secs(2) + SimTime::from_ms(1));
    let _ = before;
}

#[test]
fn fddi_side_corruption_dropped_by_fcs() {
    use atm_fddi_gateway::wire::fddi::{FddiAddr, FrameControl, FrameRepr};
    let mut tb = Testbed::build(TestbedConfig::default());
    let _c = tb.install_data_congram(1);
    // A frame with a broken FCS pushed straight onto the ring toward
    // the gateway.
    let mut frame = FrameRepr {
        fc: FrameControl::LlcAsync { priority: 0 },
        dst: FddiAddr::station(0),
        src: FddiAddr::station(1),
        info: vec![0xAA; 100],
    }
    .emit()
    .unwrap();
    let n = frame.len();
    frame[n - 2] ^= 0xFF;
    let _ = tb.ring.push_async(1, frame);
    tb.run_until(SimTime::from_ms(20));
    assert_eq!(tb.gw.stats().fddi_fcs_drops, 1);
    assert!(tb.atm_host_rx.is_empty());
}

/// The tentpole scenario: a signaled data congram survives burst loss
/// plus a link flap. While the link is down the VC goes quiet, the
/// liveness monitor quarantines it, and the NPE re-signals; the request
/// issued into the downed link is lost, the setup watchdog catches
/// that, and a backed-off retry after the link returns re-establishes
/// the congram on a fresh VC — within the retry budget, with a bounded
/// application-visible gap.
#[test]
fn link_flap_quarantines_and_reestablishes_congram() {
    use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
    use atm_fddi_gateway::mchip::messages::ControlPayload;
    use atm_fddi_gateway::wire::atm::Vci;
    use atm_fddi_gateway::wire::fddi::FddiAddr;
    use atm_fddi_gateway::wire::mchip::Icn;

    let mut cfg = TestbedConfig::default();
    cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(8));
    cfg.atm_faults = FaultConfig::builder()
        .burst(GilbertElliott::bursty(0.05, 0.3))
        .link_flap(SimTime::from_ms(20), SimTime::from_ms(32))
        .build();
    cfg.seed = 21;
    let mut tb = Testbed::build(cfg);

    // A harness-installed congram provides ATM→FDDI traffic for the
    // burst channel to chew on.
    let c_atm = tb.install_data_congram(1);

    // Set up a data congram from FDDI station 2 through real signaling.
    tb.send_control_from_fddi(
        2,
        &ControlPayload::SetupRequest {
            congram: CongramId(9),
            kind: CongramKind::UCon,
            flow: FlowSpec::cbr(1_000_000),
            dest: [5; 8],
        },
    );
    tb.run_until(SimTime::from_ms(2));
    let confirms = tb.fddi_control_rx(2);
    let assigned_icn = confirms
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram, assigned_icn } if *congram == CongramId(9) => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("setup must confirm before the flap");
    let c_data = CongramHandle {
        vci: Vci(0), // ATM-side VC is the gateway's business
        atm_icn: Icn(0),
        fddi_icn: assigned_icn,
        station: 2,
    };

    // Pre-flap traffic in both directions, ending at 18 ms.
    let mut sent_to_atm = 0;
    for ms in (2..=18u64).step_by(2) {
        tb.send_from_atm_host_at(SimTime::from_ms(ms), c_atm, vec![ms as u8; 450]);
    }
    tb.run_until(SimTime::from_ms(3));
    for ms in (4..=18u64).step_by(2) {
        tb.run_until(SimTime::from_ms(ms));
        tb.send_from_fddi_station(2, c_data, vec![ms as u8; 300]);
        sent_to_atm += 1;
    }

    // Through the flap and the recovery window.
    tb.run_until(SimTime::from_ms(40));
    let gs = tb.gw.stats();
    assert!(gs.vcs_quarantined >= 1, "idle VC must be quarantined during the flap: {gs:?}");
    let ns = tb.gw.npe().stats();
    assert!(ns.setup_retries >= 1, "the request lost to the flap must be retried: {ns:?}");
    assert_eq!(ns.setups_failed, 0, "recovery must fit the retry budget: {ns:?}");
    assert_eq!(ns.reestablishments, 1, "the congram must come back once, on a fresh VC: {ns:?}");

    // Post-flap traffic flows again on the re-established congram: the
    // application-visible gap is bounded by the flap plus the recovery.
    for ms in [40u64, 42, 44] {
        tb.run_until(SimTime::from_ms(ms));
        tb.send_from_fddi_station(2, c_data, vec![ms as u8; 300]);
        sent_to_atm += 1;
    }
    tb.run_until(SimTime::from_ms(50));
    assert_eq!(
        tb.atm_host_rx.len(),
        sent_to_atm,
        "every FDDI→ATM frame outside the outage window must arrive"
    );
    for f in &tb.atm_host_rx {
        assert_eq!(f.len(), 300, "no torn frames");
    }

    // The ATM host now sets up a congram of its own through the control
    // path, and frames on both congrams reach their own far ends.
    tb.gw.npe_mut().add_host([3; 8], FddiAddr::station(3));
    let host_vci = tb.send_control_from_atm_host(&ControlPayload::SetupRequest {
        congram: CongramId(5),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(1_000_000),
        dest: [3; 8],
    });
    tb.run_until(SimTime::from_ms(52));
    let assigned_icn = tb
        .atm_host_control_rx
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { congram, assigned_icn } if *congram == CongramId(5) => {
                Some(*assigned_icn)
            }
            _ => None,
        })
        .expect("the host's setup must confirm");
    let c_host =
        CongramHandle { vci: host_vci, atm_icn: assigned_icn, fddi_icn: Icn(0), station: 3 };
    for ms in [52u64, 54, 56] {
        tb.run_until(SimTime::from_ms(ms));
        tb.send_from_fddi_station(2, c_data, vec![ms as u8; 300]);
        sent_to_atm += 1;
        // Single-cell frames: the burst channel still eats some.
        tb.send_from_atm_host(c_host, vec![ms as u8; 20]);
        tb.send_from_atm_host(c_host, vec![ms as u8 + 1; 20]);
    }
    tb.run_until(SimTime::from_ms(60));
    assert_eq!(tb.atm_host_rx.len(), sent_to_atm, "the station's frames reach the ATM host");
    let to_station = tb.fddi_rx(3);
    assert!(!to_station.is_empty(), "the host's frames reach station 3");
    assert!(to_station.iter().all(|f| f.len() == 20));
    assert!(tb.fddi_rx(2).is_empty(), "nothing strays to the station's end");

    // Burst loss really happened on the ATM→FDDI path, and every frame
    // that did get through is intact.
    let reasm = tb.gw.spp().reassembly_stats();
    assert!(
        reasm.frames_discarded + reasm.timeouts > 0,
        "burst loss must have killed at least one 11-cell frame: {reasm:?}"
    );
    for f in tb.fddi_rx(1) {
        assert_eq!(f.len(), 450);
        assert!(f.iter().all(|&b| b == f[0]));
    }
    // No reassembly leaks: everything pending was either delivered,
    // discarded, or freed by quarantine.
    assert_eq!(tb.gw.spp().occupancy_cells(), 0, "reassembly occupancy back to baseline");
}

/// A congram re-established on a fresh VC gets a new ATM-side ICN. A
/// congram the ATM host sets up afterwards must still land in ICXT
/// slots of its own, so tearing it down leaves the first one carrying
/// data.
#[test]
fn reestablished_congram_and_a_later_host_congram_keep_their_own_icns() {
    use atm_fddi_gateway::mchip::congram::{CongramId, CongramKind, FlowSpec};
    use atm_fddi_gateway::mchip::messages::ControlPayload;
    use atm_fddi_gateway::wire::atm::Vci;
    use atm_fddi_gateway::wire::fddi::FddiAddr;
    use atm_fddi_gateway::wire::mchip::Icn;

    let setup = |congram: u32, dest: [u8; 8]| ControlPayload::SetupRequest {
        congram: CongramId(congram),
        kind: CongramKind::UCon,
        flow: FlowSpec::cbr(1_000_000),
        dest,
    };
    let mut cfg = TestbedConfig::default();
    cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(8));
    let mut tb = Testbed::build(cfg);
    tb.gw.npe_mut().add_host([3; 8], FddiAddr::station(3));

    // Station 2's congram toward the ATM host idles past the liveness
    // timeout and comes back once, on a fresh VC.
    tb.send_control_from_fddi(2, &setup(9, [5; 8]));
    tb.run_until(SimTime::from_ms(2));
    let fddi_icn = tb
        .fddi_control_rx(2)
        .iter()
        .find_map(|c| match c {
            ControlPayload::SetupConfirm { assigned_icn, .. } => Some(*assigned_icn),
            _ => None,
        })
        .expect("the station's setup confirms");
    let c_station = CongramHandle { vci: Vci(0), atm_icn: Icn(0), fddi_icn, station: 2 };
    let mut t = SimTime::from_ms(2);
    while tb.gw.npe().stats().reestablishments == 0 {
        assert!(t < SimTime::from_ms(20), "the idle VC must be quarantined and replaced");
        t += SimTime::from_us(250);
        tb.run_until(t);
    }

    // From here station 2 sends every 2 ms, keeping its new VC alive.
    // The ATM host sets up a congram to station 3 through the control
    // path, sends on it, and tears it down.
    let host_vci = tb.send_control_from_atm_host(&setup(5, [3; 8]));
    let mut sent = 0;
    let mut c_host = None;
    for step in 0..10u64 {
        tb.run_until(t + SimTime::from_ms(2 * step));
        tb.send_from_fddi_station(2, c_station, vec![step as u8; 300]);
        sent += 1;
        c_host = c_host.or_else(|| {
            tb.atm_host_control_rx.iter().find_map(|c| match c {
                ControlPayload::SetupConfirm { congram: CongramId(5), assigned_icn } => {
                    Some(CongramHandle {
                        vci: host_vci,
                        atm_icn: *assigned_icn,
                        fddi_icn: Icn(0),
                        station: 3,
                    })
                }
                _ => None,
            })
        });
        match step {
            1 | 2 => tb.send_from_atm_host(c_host.expect("confirmed"), vec![step as u8; 200]),
            3 => {
                tb.send_control_from_atm_host(&ControlPayload::Teardown { congram: CongramId(5) });
            }
            _ => {}
        }
    }
    tb.run_until(t + SimTime::from_ms(24));
    assert!(tb
        .atm_host_control_rx
        .iter()
        .any(|c| matches!(c, ControlPayload::TeardownAck { congram: CongramId(5) })));
    assert_eq!(tb.fddi_rx(3).len(), 2, "the host's frames reach station 3");
    assert!(tb.fddi_rx(2).is_empty(), "nothing strays to station 2");
    assert_eq!(tb.atm_host_rx.len(), sent, "station 2's frames reach the host throughout");
    assert_eq!(tb.gw.npe().stats().reestablishments, 1);
}

/// A VC that times out mid-frame during a link flap must neither leak
/// its reassembly buffer nor deliver the torn frame.
#[test]
fn mid_frame_flap_leaks_nothing_and_delivers_nothing_torn() {
    let mut cfg = TestbedConfig::default();
    cfg.gateway.vc_liveness_timeout = Some(SimTime::from_ms(6));
    cfg.atm_faults =
        FaultConfig::builder().link_flap(SimTime::from_ms(10), SimTime::from_ms(22)).build();
    let mut tb = Testbed::build(cfg);
    let c = tb.install_data_congram(1);

    // One complete frame before the flap (close enough that the VC is
    // still live when the straddling frame starts)…
    tb.send_from_atm_host_at(SimTime::from_ms(5), c, vec![1u8; 900]);
    // …and one 21-cell frame straddling the flap edge: its head arrives
    // (host→gateway latency is ~23 us, so cells sent 50 us early land
    // just before the flap), its tail is lost to the downed link.
    tb.send_from_atm_host_at(SimTime::from_ms(10) - SimTime::from_us(50), c, vec![2u8; 900]);
    tb.run_until(SimTime::from_ms(12));
    assert!(tb.gw.spp().occupancy_cells() > 0, "head of the straddling frame is buffered");

    // The VC goes quiet under the flap; liveness quarantines it and the
    // reassembly state is freed — before the reassembly timer would
    // have flushed the partial to the MPP.
    tb.run_until(SimTime::from_ms(20));
    assert_eq!(tb.gw.stats().vcs_quarantined, 1);
    assert_eq!(tb.gw.spp().occupancy_cells(), 0, "no reassembly buffer leak");

    tb.run_until(SimTime::from_ms(30));
    let rx = tb.fddi_rx(1);
    assert_eq!(rx.len(), 1, "only the pre-flap frame is delivered");
    assert!(rx[0].iter().all(|&b| b == 1), "and it is the intact one");
}

/// Overload shedding at the SUPERNET transmit buffer: with watermarks
/// armed and a deliberately tiny buffer, bursts of frames are shed
/// (counted, not silently lost) instead of hitting hard overflow.
#[test]
fn overload_sheds_frames_with_watermarks_armed() {
    let mut cfg = TestbedConfig::default();
    cfg.gateway.tx_buffer_octets = 300;
    cfg.gateway.overload_shedding = Some(atm_fddi_gateway::gateway::config::ShedConfig {
        high_fraction: 0.5,
        low_fraction: 0.3,
    });
    let mut tb = Testbed::build(cfg);
    // Three parallel VCs: each paces its cells at the access-link rate,
    // so together they complete frames faster than the per-slice drain
    // and the tiny buffer repeatedly crosses its high watermark.
    let congrams =
        [tb.install_data_congram(1), tb.install_data_congram(1), tb.install_data_congram(1)];
    for i in 0..30u8 {
        tb.send_from_atm_host(congrams[(i % 3) as usize], vec![i; 45]);
    }
    tb.run_until(SimTime::from_ms(20));
    let delivered = tb.fddi_rx(1).len();
    let gs = tb.gw.stats();
    let tx = tb.gw.tx_buffer_stats();
    assert!(gs.cells_shed >= 1, "shedding must engage: {gs:?}");
    assert!(tx.frames_shed >= 1 && gs.cells_shed >= tx.frames_shed);
    assert_eq!(tx.overflow_drops, 0, "watermarks act before hard overflow");
    assert!(delivered >= 1, "traffic still flows under shedding");
    assert_eq!(delivered + tx.frames_shed as usize, 30, "every frame is accounted for");
}

#[test]
fn forward_errored_frames_mode_delivers_partials_upward() {
    // §5.2: "In future, this decision will be left to the MCHIP layer."
    // With the switch flipped, errored frames survive to the MPP — and
    // are then dropped there only if their MCHIP header is damaged.
    let mut cfg = TestbedConfig::default();
    cfg.gateway.forward_errored_frames = true;
    cfg.atm_faults = FaultConfig::drops(0.05);
    cfg.seed = 11;
    let mut tb = Testbed::build(cfg);
    let c = tb.install_data_congram(1);
    for i in 0..200u32 {
        tb.send_from_atm_host(c, vec![(i % 251) as u8; 900]);
    }
    tb.run_until(SimTime::from_secs(2));
    assert_eq!(
        tb.gw.spp().reassembly_stats().frames_discarded,
        0,
        "forwarding mode discards nothing at the SPP"
    );
    // More frames reach the ring than the strict mode would deliver —
    // some with holes (their length is preserved by MCHIP's own length
    // field only when the tail survived; we only assert the mode works).
    assert!(!tb.fddi_rx(1).is_empty());
}

/// Misinserted cells — VCI rewritten onto a live foreign VC with the
/// HEC restamped (the header-error pattern the HEC cannot catch) —
/// must never merge into the foreign VC's reassembly: the SAR
/// sequence/CRC-10 checks reject the intruder, every delivered frame
/// is byte-exact, and the discard books under its own named reason.
#[test]
fn misinserted_cells_never_merge_into_foreign_vc() {
    let mut tb = Testbed::build(TestbedConfig {
        atm_faults: FaultConfig::builder().misinsertion(0.03).build(),
        seed: 11,
        ..Default::default()
    });
    let a = tb.install_data_congram(1);
    let b = tb.install_data_congram(2);
    for i in 0..60u8 {
        // Interleaved multi-cell frames on both VCs, deliberately
        // desynchronized (different sizes and phases): an intruding
        // cell then lands far from the victim's expected sequence, the
        // compound backward-jump signature the classifier convicts on.
        // (Lockstep VCs land within ±1 and book as plain loss — the
        // conservative side of the no-MID ambiguity, see DESIGN.md.)
        tb.send_from_atm_host_at(SimTime::from_ms(i as u64), a, vec![i; 450]);
        tb.send_from_atm_host_at(SimTime::from_us(i as u64 * 1700), b, vec![i ^ 0xFF; 1800]);
    }
    tb.run_until(SimTime::from_ms(200));

    let stats = tb.gw.spp().reassembly_stats();
    assert!(stats.seq_errors > 0, "misinsertion must trip the sequence check: {stats:?}");
    assert!(
        stats.seq_misinserts > 0,
        "the backward-jump-plus-resumption signature must convict at least once: {stats:?}"
    );
    assert!(
        tb.gw.conservation().misinserted_frames > 0,
        "convicted discards book under their own reason"
    );

    // The victim VC discards the invaded frame whole; everything that
    // does get delivered is byte-exact — with the one provable
    // exception. When a VC's cell is misrouted away and a foreign cell
    // carrying the *same* sequence number is misrouted in before the
    // gap is noticed, the replacement passes the sequence check and
    // its own per-cell CRC-10: with no MID field and no frame-level
    // checksum the SAR format cannot catch the swap (end-to-end
    // integrity belongs to the MCHIP layer, §5.2). Such a frame shows
    // exactly one signature: whole 45-octet SAR chunks, chunk-aligned
    // (37 octets after the MCHIP header in cell 0), uniformly filled
    // with the *other* VC's fill byte. Anything less aligned is a
    // reassembly-merge bug.
    for f in tb.fddi_rx(1).iter().chain(tb.fddi_rx(2).iter()) {
        assert!(f.len() == 450 || f.len() == 1800, "unexpected length {}", f.len());
        let mut counts = [0u32; 256];
        for &b in f.iter() {
            counts[b as usize] += 1;
        }
        let fill = (0u16..256).max_by_key(|&i| counts[i as usize]).unwrap() as u8;
        let mut start = 0usize;
        while start < f.len() {
            let end = if start == 0 { 37 } else { start + 45 }.min(f.len());
            let chunk = &f[start..end];
            assert!(
                chunk.iter().all(|&x| x == chunk[0]),
                "mixed bytes inside the SAR chunk at {start}: a partial foreign cell leaked"
            );
            // The swapped-in chunk carries whichever frame was in
            // flight at that instant, on either VC (a sends i < 60,
            // b sends i ^ 0xFF >= 196). Length does not pin the VC: a
            // misinserted BOM cell carries its own MCHIP header and
            // legitimately opens a foreign-length frame on the victim.
            assert!(
                chunk[0] == fill || chunk[0] < 60 || chunk[0] ^ 0xFF < 60,
                "chunk at {start} holds {:#04x}, neither this VC's fill {fill:#04x} nor any \
                 scheduled fill — not a same-sequence swap",
                chunk[0]
            );
            start = end;
        }
    }

    // Every cell and frame is still accounted for.
    assert_eq!(tb.gw.check_conservation(), Vec::<String>::new());
}
