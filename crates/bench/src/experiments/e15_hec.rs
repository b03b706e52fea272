//! E15 — AIC header-error handling ablation. The paper's AIC simply
//! discards cells with header errors (§4.3); the ITU-T I.432 standard
//! the paper tracks prescribes single-bit *correction* with a
//! burst-protection state machine. Both modes run against the same
//! corrupted cell stream; correction recovers most isolated bit errors
//! without ever validating a damaged header.

use crate::report::Table;
use gw_gateway::aic::Aic;
use gw_sim::rng::SimRng;
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, OwnedCell, Vci, Vpi, CELL_SIZE};

fn corrupted_stream(error_prob: f64, n: usize, seed: u64) -> Vec<[u8; CELL_SIZE]> {
    let mut rng = SimRng::new(seed);
    let base =
        OwnedCell::build(&AtmHeader::data(Vpi(1), Vci(77)), &[0x33; 48]).unwrap().into_inner();
    (0..n)
        .map(|_| {
            let mut b = base;
            if rng.chance(error_prob) {
                // Isolated single-bit header error (the dominant fibre
                // error mode the correction mode is designed for).
                let bit = rng.below(40);
                b[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
            }
            b
        })
        .collect()
}

fn run_mode(correction: bool, cells: &[[u8; CELL_SIZE]]) -> (u64, u64, u64, u64) {
    let mut aic = if correction { Aic::with_correction() } else { Aic::new() };
    let mut bad_passed = 0u64;
    let mut t = SimTime::ZERO;
    for cell in cells {
        let mut c = *cell;
        if aic.receive(t, &mut c).is_some() {
            // Whatever passed must now carry a valid, original header.
            let h = AtmHeader::parse(&c).unwrap();
            if h.vci != Vci(77) || !gw_wire::crc::hec_valid(&c[..5]) {
                bad_passed += 1;
            }
        }
        t += SimTime::from_us(3);
    }
    let s = aic.stats();
    (s.cells_in, s.hec_discards, s.hec_corrections, bad_passed)
}

/// Run E15.
pub fn run() {
    let mut t = Table::new(&[
        "header bit-error prob",
        "AIC mode",
        "cells passed",
        "discarded",
        "corrected",
        "damaged headers passed",
    ]);
    for &p in &[1e-4f64, 1e-3, 1e-2] {
        let cells = corrupted_stream(p, 100_000, 0xE15);
        for &(correction, name) in &[(false, "discard (paper §4.3)"), (true, "I.432 correction")] {
            let (passed, discarded, corrected, bad) = run_mode(correction, &cells);
            t.row(&[
                format!("{p}"),
                name.into(),
                passed.to_string(),
                discarded.to_string(),
                corrected.to_string(),
                bad.to_string(),
            ]);
            assert_eq!(bad, 0, "no damaged header may ever pass the AIC");
            if correction {
                assert!(corrected > 0 || p < 1e-3);
            }
        }
    }
    t.print();
    println!("\nreading: with isolated bit errors, correction mode converts nearly");
    println!("every would-be cell loss into a repaired delivery (each lost cell");
    println!("costs a whole reassembled frame at the SPP, so the leverage is large),");
    println!("while the detection-mode fallback keeps error bursts from slipping");
    println!("mis-corrected headers through — the standard behaviour the paper's");
    println!("simple-discard AIC would eventually adopt.");
}
