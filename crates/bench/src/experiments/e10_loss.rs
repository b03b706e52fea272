//! E10 — §5.2: the lost-cell policy. The SPP detects losses by
//! sequence number and the current design discards the whole frame;
//! the paper leaves forwarding errored frames to "the MCHIP layer" as
//! future work. Both policies are measured against cell-loss rate and
//! compared with the analytic expectation 1−(1−p)^cells.

use crate::report::Table;
use atm_fddi_gateway::sar::reassemble::ReassemblyStats;
use atm_fddi_gateway::sim::fault::FaultConfig;
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::testbed::{Testbed, TestbedConfig};

/// Frames delivered, and the SPP's reassembly registers after the run.
fn run_policy(
    p: f64,
    forward_errored: bool,
    frames: usize,
    payload: usize,
) -> (usize, ReassemblyStats) {
    let mut cfg =
        TestbedConfig { atm_faults: FaultConfig::drops(p), seed: 0xE10, ..Default::default() };
    cfg.gateway.forward_errored_frames = forward_errored;
    let mut tb = Testbed::build(cfg);
    let c = tb.install_data_congram(1);
    for i in 0..frames {
        tb.send_from_atm_host_at(
            SimTime::from_us(i as u64 * 400),
            c,
            vec![(i % 251) as u8; payload],
        );
    }
    tb.run_until(SimTime::from_us(frames as u64 * 400) + SimTime::from_ms(100));
    let delivered = tb.fddi_rx(1).len();
    (delivered, tb.gw.spp().reassembly_stats())
}

/// Run E10.
pub fn run() {
    let frames = 400usize;
    let payload = 892; // 20 cells/frame
    let cells_per_frame = 20u32;
    let mut t = Table::new(&[
        "cell loss p",
        "analytic frame loss",
        "measured (discard policy)",
        "seq errors",
        "discarded",
        "timer flushes",
    ]);
    for &p in &[0.0001f64, 0.001, 0.005, 0.02, 0.05] {
        let (delivered, stats) = run_policy(p, false, frames, payload);
        let analytic = 1.0 - (1.0 - p).powi(cells_per_frame as i32);
        t.row(&[
            format!("{p}"),
            format!("{:.3}%", analytic * 100.0),
            format!("{:.3}%", (frames - delivered) as f64 / frames as f64 * 100.0),
            stats.seq_errors.to_string(),
            stats.frames_discarded.to_string(),
            stats.timeouts.to_string(),
        ]);
    }
    t.print();

    println!();
    let mut t = Table::new(&[
        "policy (§5.2)",
        "cell loss",
        "frames delivered intact",
        "frames reaching FDDI (any)",
    ]);
    let p = 0.02;
    let (d_strict, _) = run_policy(p, false, frames, payload);
    let (d_forward, _) = run_policy(p, true, frames, payload);
    t.row(&[
        "discard errored frames (current design)".into(),
        format!("{p}"),
        d_strict.to_string(),
        d_strict.to_string(),
    ]);
    t.row(&[
        "forward errored frames (future: MCHIP decides)".into(),
        format!("{p}"),
        "(only intact ones verifiable)".into(),
        d_forward.to_string(),
    ]);
    t.print();
    assert!(d_forward >= d_strict, "forwarding can only deliver more frames");
    println!("\nreading: measured loss tracks 1-(1-p)^20; the discard policy trades");
    println!("goodput for a hard no-corrupted-delivery guarantee, exactly §5.2.");
}
