//! The canonical `.scene` formatter.
//!
//! [`format_scene`] renders a [`Scene`] into the one normative
//! spelling of itself: fixed directive order, single spaces, hex fill
//! bytes, probabilities in Rust's shortest round-trip `Display`. The
//! round-trip contract (enforced by `tests/roundtrip.rs`) is:
//!
//! * `parse(format_scene(ast)) == ast` for every valid AST, and
//! * `format_scene` is idempotent: formatting a formatted scene is a
//!   byte-level no-op.
//!
//! This is what lets a chaos-minimized failure be *written down* — the
//! emitted `.scene` artifact is canonical text, diffs cleanly in a
//! regression corpus, and re-parses to the exact scenario that failed.

use crate::ast::*;
use std::fmt::Write as _;

/// Render the canonical text of a scene (ends with a newline).
pub fn format_scene(scene: &Scene) -> String {
    let mut out = String::new();
    out.push_str("# gw-scene/1\n");
    let _ = writeln!(out, "scene {}", scene.name);
    if let Some(seed) = scene.seed {
        let _ = writeln!(out, "seed {seed}");
    }
    if let Some(stations) = scene.stations {
        let _ = writeln!(out, "stations {stations}");
    }
    if let Some(t) = scene.reassembly_timeout_us {
        let _ = writeln!(out, "reassembly_timeout_us {t}");
    }
    if let Some(t) = scene.liveness_us {
        let _ = writeln!(out, "liveness_us {t}");
    }
    if let Some(s) = scene.starve {
        let _ = writeln!(out, "starve tx {} rx {}", s.tx_octets, s.rx_octets);
    }
    if scene.shedding {
        out.push_str("shedding\n");
    }
    for d in &scene.congrams {
        let class = if d.sync { "sync" } else { "async" };
        let _ = write!(out, "congram {} station {} class {class}", d.name, d.station);
        if let Some(p) = d.police {
            let _ = write!(
                out,
                " police pcr_bps {} tolerance_us {} action {}",
                p.pcr_bps,
                p.tolerance_us,
                p.action.keyword()
            );
        }
        out.push('\n');
    }
    for t in &scene.traffic {
        match t {
            Traffic::Send(s) => {
                let _ = write!(
                    out,
                    "send at_us {} vc {} dir {} len {} fill 0x{:02x}",
                    s.at_us,
                    scene.congrams[s.congram].name,
                    s.dir.keyword(),
                    s.len,
                    s.fill
                );
                if s.clp {
                    out.push_str(" clp");
                }
                out.push('\n');
            }
            Traffic::Burst(b) => {
                let _ = write!(
                    out,
                    "burst from_us {} to_us {} every_us {} vc {} dir {} len {} fill 0x{:02x}",
                    b.from_us,
                    b.to_us,
                    b.every_us,
                    scene.congrams[b.congram].name,
                    b.dir.keyword(),
                    b.len,
                    b.fill
                );
                if b.clp {
                    out.push_str(" clp");
                }
                out.push('\n');
            }
        }
    }
    let f = &scene.faults;
    if let Some(p) = f.drops {
        let _ = writeln!(out, "fault drops {p}");
    }
    if let Some(p) = f.corruption {
        let _ = writeln!(out, "fault corruption {p}");
    }
    if let Some((p, copies)) = f.duplication {
        let _ = writeln!(out, "fault duplication {p} copies {copies}");
    }
    if let Some(p) = f.reordering {
        let _ = writeln!(out, "fault reordering {p}");
    }
    if let Some(p) = f.misinsertion {
        let _ = writeln!(out, "fault misinsertion {p}");
    }
    if let Some((period, mag)) = f.delay_skew {
        let _ = writeln!(out, "fault delay_skew period_us {period} magnitude_us {mag}");
    }
    if let Some((p_gb, p_bg)) = f.burst_loss {
        let _ = writeln!(out, "fault burst p_gb {p_gb} p_bg {p_bg}");
    }
    if let Some((down, up)) = f.flap {
        let _ = writeln!(out, "fault flap down_us {down} up_us {up}");
    }
    for e in &scene.expects {
        match e {
            Expect::Conservation => out.push_str("expect conservation\n"),
            Expect::ResidueClean => out.push_str("expect residue_clean\n"),
            Expect::DeliveredAll => out.push_str("expect delivered_all\n"),
            Expect::DeliveredAtLeast(n) => {
                let _ = writeln!(out, "expect delivered_at_least {n}");
            }
            Expect::MaxLostFrames(n) => {
                let _ = writeln!(out, "expect max_lost_frames {n}");
            }
        }
    }
    out
}
