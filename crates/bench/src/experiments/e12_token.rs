//! E12 — §3 / references \[6\], \[13\]: the timed-token properties the
//! gateway's FDDI port depends on. Johnson proved token rotation never
//! exceeds 2×TTRT; Sevcik & Johnson analyzed cycle times. Both shapes
//! are measured on the implemented MAC under saturation.

use crate::report::Table;
use gw_fddi::ring::{Ring, RingConfig};
use gw_sim::time::SimTime;
use gw_wire::fddi::{FddiAddr, FrameControl, FrameRepr};

fn data_frame(src: usize, dst: usize, len: usize, sync: bool) -> Vec<u8> {
    FrameRepr {
        fc: if sync { FrameControl::LlcSync } else { FrameControl::LlcAsync { priority: 0 } },
        dst: FddiAddr::station(dst as u32),
        src: FddiAddr::station(src as u32),
        info: vec![0; len],
    }
    .emit()
    .unwrap()
}

/// Run E12.
pub fn run() {
    // Part 1: rotation bound under asynchronous saturation.
    let mut t =
        Table::new(&["TTRT", "stations", "mean rotation", "max rotation", "bound 2xTTRT", "holds"]);
    for &ttrt_ms in &[4u64, 8, 16] {
        let n = 16usize;
        let mut cfg = RingConfig::uniform(n, 40);
        for s in &mut cfg.stations {
            s.t_req = SimTime::from_ms(ttrt_ms);
            s.async_queue_frames = 100_000;
        }
        let mut ring = Ring::new(cfg);
        for i in 0..n {
            for _ in 0..400 {
                ring.push_async(i, data_frame(i, (i + 1) % n, 4400, false)).unwrap();
            }
        }
        ring.run_until(SimTime::from_ms(400));
        let stats = ring.stats();
        let mean_us = stats.rotation_us.mean();
        let max_us = stats.rotation_us.max();
        let bound_us = 2 * ttrt_ms * 1000;
        t.row(&[
            format!("{ttrt_ms} ms"),
            n.to_string(),
            format!("{:.0} us", mean_us),
            format!("{max_us} us"),
            format!("{bound_us} us"),
            (max_us <= bound_us).to_string(),
        ]);
        assert!(max_us <= bound_us, "Johnson bound violated");
        assert!(
            mean_us <= ttrt_ms as f64 * 1000.0 * 1.05,
            "mean rotation should hover near/below TTRT"
        );
    }
    t.print();

    // Part 2: synchronous guarantee under asynchronous overload — the
    // property that lets the gateway promise congram bandwidth (§2.3).
    println!();
    let mut t = Table::new(&[
        "scenario",
        "sync offered",
        "sync carried",
        "async carried (aggregate)",
        "sync guarantee held",
    ]);
    for &(overload, name) in &[(false, "no async"), (true, "saturating async")] {
        let n = 8usize;
        let mut cfg = RingConfig::uniform(n, 20);
        for s in &mut cfg.stations {
            s.t_req = SimTime::from_ms(8);
            s.async_queue_frames = 100_000;
        }
        // Station 0 (the gateway) gets a 1 ms sync allocation: at
        // TTRT=8 ms that guarantees ~12.5% of 100 Mb/s.
        cfg.stations[0].sync_alloc = SimTime::from_ms(1);
        cfg.stations[0].sync_queue_frames = 100_000;
        let mut ring = Ring::new(cfg);
        let horizon = SimTime::from_ms(400);
        // Sync load: 10 Mb/s of 1500-octet frames.
        let sync_frames = (10_000_000.0 * 0.4 / (1500.0 * 8.0)) as usize;
        for _ in 0..sync_frames {
            ring.push_sync(0, data_frame(0, 1, 1500, true)).unwrap();
        }
        if overload {
            for i in 1..n {
                for _ in 0..2000 {
                    ring.push_async(i, data_frame(i, (i + 1) % n, 4400, false)).unwrap();
                }
            }
        }
        ring.run_until(horizon);
        let sync_carried = ring.station_stats(0).sync_frames_tx as usize;
        let async_carried: u64 = (0..n).map(|i| ring.station_stats(i).async_frames_tx).sum();
        let held = sync_carried >= sync_frames * 95 / 100;
        t.row(&[
            name.into(),
            format!("{sync_frames} frames (10 Mb/s)"),
            format!("{sync_carried} frames"),
            format!("{async_carried} frames"),
            held.to_string(),
        ]);
        assert!(held, "synchronous class starved under {name}");
    }
    t.print();
    println!("\nreading: rotation stays under 2xTTRT exactly as Johnson's proof ([6])");
    println!("requires, and the synchronous class is insensitive to asynchronous");
    println!("overload — the substrate property the gateway's FDDI-side resource");
    println!("management (E11) builds on.");
}
