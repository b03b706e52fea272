//! Seed → scene materialization.
//!
//! A chaos seed *is* a scene: everything a run does — how many
//! congrams, which frames fly when, which faults are armed and how
//! hard — is derived from the seed through independent [`SimRng`] fork
//! streams and written down as a [`Scene`], so changing one axis of
//! the generator never perturbs the others and a seed printed by a
//! failing soak reconstructs the exact same `.scene` text forever
//! (`scenes/regressions/` pins it byte for byte).

use gw_scene::{
    format_scene, CongramDecl, Dir, Expect, Faults, PoliceAction, PoliceDecl, Scene, SendDecl,
    Starve, Traffic,
};
use gw_sim::rng::SimRng;

/// Materialize the scene a seed denotes.
pub fn generate(seed: u64) -> Scene {
    let mut root = SimRng::new(seed);
    let mut shape = root.fork(1);
    let mut traffic = root.fork(2);
    let mut fault = root.fork(3);

    let vcs = 2 + shape.below(3) as usize; // 2..=4
    let liveness = shape.chance(0.3);
    let starve_buffers = shape.chance(0.25);
    let shedding = starve_buffers && shape.chance(0.5);
    let police = shape.chance(0.3);
    let reassembly_timeout_us = 1_000 * (4 + shape.below(7)); // 4..=10 ms

    // Congrams round-robin over stations 1..4 (the default 4-station
    // ring). A tight contract on the first congram so GCRA
    // non-conformance (and its conservation arm) gets exercised.
    let congrams = (0..vcs)
        .map(|i| CongramDecl {
            name: format!("c{i}"),
            station: (1 + i % 3) as u32,
            sync: false,
            police: (i == 0 && police).then_some(PoliceDecl {
                pcr_bps: 2_000_000,
                tolerance_us: 20,
                action: PoliceAction::Drop,
            }),
        })
        .collect();

    let n_sends = 40 + traffic.below(81) as usize; // 40..=120
    let mut sends = Vec::with_capacity(n_sends);
    for _ in 0..n_sends {
        sends.push(SendDecl {
            at_us: traffic.below(40_000),
            congram: traffic.below(vcs as u64) as usize,
            dir: if traffic.chance(0.6) { Dir::Atm } else { Dir::Fddi },
            len: 16 + traffic.below(1785) as u32, // 16..=1800
            fill: traffic.below(256) as u8,
            clp: false,
        });
    }
    if starve_buffers {
        // Starved buffer memories only overflow when several VCs
        // complete large frames inside one co-simulation slice, so
        // synchronized waves of max-size frames ride along: every
        // VC starts an 1800-octet frame at the same instant. One
        // frame per VC per wave — the cells interleave on the
        // shared access link and the frames' last cells arrive
        // back to back, without overrunning the 128-cell switch
        // queue the way a deeper burst would (lost cells there
        // never reach the buffer under test). The FDDI-side wave
        // exceeds the starved receive memory outright (the RBC
        // path drains per frame, so only a single oversized frame
        // can overflow it).
        for wave in 0..3u64 {
            for congram in 0..vcs {
                for (dir, fill) in [(Dir::Atm, 0xB5), (Dir::Fddi, 0x4A)] {
                    sends.push(SendDecl {
                        at_us: 1_000 * (10 + wave * 10),
                        congram,
                        dir,
                        len: 1800,
                        fill,
                        clp: false,
                    });
                }
            }
        }
    }
    // Stable sort: same-instant sends keep generation order, so the
    // schedule (and the run) is a pure function of the seed.
    sends.sort_by_key(|s| s.at_us);

    // A knob is armed only when its draw came out nonzero. Every draw
    // below happens in this order whatever came before it.
    let armed = |p: f64| (p > 0.0).then_some(p);
    let drops = if fault.chance(0.5) { fault.uniform() * 0.03 } else { 0.0 };
    let corruption = if fault.chance(0.4) { fault.uniform() * 0.02 } else { 0.0 };
    let duplication = if fault.chance(0.5) { fault.uniform() * 0.04 } else { 0.0 };
    let dup_copies = 2 + fault.below(3) as u32; // 2..=4
    let reordering = if fault.chance(0.5) { fault.uniform() * 0.04 } else { 0.0 };
    let misinsertion = if fault.chance(0.5) { fault.uniform() * 0.02 } else { 0.0 };
    let delay_skew = fault.chance(0.3).then(|| (1_000 * (2 + fault.below(6)), fault.below(400)));
    let burst_loss = fault.chance(0.25).then(|| (0.02 + fault.uniform() * 0.05, 0.3));

    Scene {
        name: format!("seed-{seed}"),
        seed: Some(seed),
        reassembly_timeout_us: Some(reassembly_timeout_us),
        liveness_us: liveness.then_some(8_000),
        // Transmit: barely over one max-size frame, with the shedding
        // watermark (85% = 1740) *below* one 1800-octet frame — one
        // stored frame is enough to enter the shedding state, so both
        // the shed and the hard-overflow arms run when a synchronized
        // wave lands. Receive: below one max-size frame outright,
        // because the RBC store-then-drain runs per frame and only a
        // single oversized frame can ever overflow the receive memory.
        starve: starve_buffers.then_some(Starve { tx_octets: 2048, rx_octets: 1024 }),
        shedding,
        congrams,
        traffic: sends.into_iter().map(Traffic::Send).collect(),
        faults: Faults {
            drops: armed(drops),
            corruption: armed(corruption),
            duplication: armed(duplication).map(|p| (p, dup_copies)),
            reordering: armed(reordering),
            misinsertion: armed(misinsertion),
            delay_skew,
            burst_loss,
            flap: None,
        },
        expects: vec![Expect::Conservation, Expect::ResidueClean],
        ..Scene::default()
    }
}

/// A seed's canonical `.scene` text — what `gw-chaos emit-scene`
/// prints and what the regression corpus under `scenes/regressions/`
/// is generated from.
pub fn emit_scene(seed: u64) -> String {
    format_scene(&generate(seed))
}
