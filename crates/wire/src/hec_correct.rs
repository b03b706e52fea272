//! ITU-T I.432 HEC error handling: single-bit correction.
//!
//! The paper's AIC "performs an error check on the 5-byte ATM header"
//! and discards errored cells (§4.3). The emerging standard the paper
//! tracks (ITU-T I.432) additionally allows the receiver to *correct*
//! single-bit header errors using the CRC-8 syndrome, operating a
//! two-state machine:
//!
//! * **Correction mode** (initial): a zero syndrome passes the cell; a
//!   syndrome matching a single-bit error corrects that bit and drops
//!   to detection mode; any other syndrome discards the cell and drops
//!   to detection mode.
//! * **Detection mode**: any nonzero syndrome discards the cell; a
//!   valid header returns the receiver to correction mode.
//!
//! The mode switch exists because consecutive errors on fibre are
//! usually bursts: after one error, "correcting" further errors would
//! likely mis-correct.
//!
//! The syndrome of a single-bit error at bit `i` of the 40-bit header
//! is constant, so a 40-entry table inverts it in O(1) — exactly the
//! hardware realization.

use crate::crc::hec;

/// The receiver state of the I.432 HEC state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HecMode {
    /// Single-bit errors are corrected.
    #[default]
    Correction,
    /// All errored cells are discarded.
    Detection,
}

/// Outcome of processing one 5-octet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HecOutcome {
    /// Header valid; cell passes.
    Valid,
    /// A single-bit error was corrected in place (bit index reported).
    Corrected {
        /// Bit position within the 40-bit header (0 = MSB of octet 0).
        bit: u8,
    },
    /// Header errored beyond repair (or repair disabled); discard.
    Discard,
}

/// Syndrome of a single-bit error at header bit `i` (40 entries).
fn syndrome_table() -> [u8; 40] {
    let mut table = [0u8; 40];
    // The syndrome is hec(header') XOR stored_hec. For a reference
    // all-zero header with correct HEC, flipping bit i of the first
    // four octets gives syndrome hec(flipped) XOR hec(zero); flipping a
    // bit of the HEC octet itself gives a single-bit syndrome.
    let zero4 = [0u8; 4];
    let good = hec(&zero4);
    let mut i = 0;
    while i < 32 {
        let mut h = zero4;
        h[i / 8] ^= 0x80 >> (i % 8);
        table[i] = hec(&h) ^ good;
        i += 1;
    }
    while i < 40 {
        // Error in the HEC octet: syndrome is that bit itself.
        table[i] = 0x80 >> (i - 32);
        i += 1;
    }
    table
}

/// A stateful HEC receiver.
#[derive(Debug, Default)]
pub struct HecReceiver {
    mode: HecMode,
    table: Option<[u8; 40]>,
    corrected: u64,
    discarded: u64,
}

impl HecReceiver {
    /// A receiver starting in correction mode.
    pub fn new() -> HecReceiver {
        HecReceiver {
            mode: HecMode::Correction,
            table: Some(syndrome_table()),
            corrected: 0,
            discarded: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> HecMode {
        self.mode
    }

    /// Headers corrected so far.
    pub fn corrected(&self) -> u64 {
        self.corrected
    }

    /// Headers discarded so far.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Process (and possibly repair) a 5-octet header in place.
    pub fn receive(&mut self, header: &mut [u8]) -> HecOutcome {
        debug_assert!(header.len() >= 5);
        let syndrome = hec(&header[..4]) ^ header[4];
        if syndrome == 0 {
            self.mode = HecMode::Correction;
            return HecOutcome::Valid;
        }
        match self.mode {
            HecMode::Detection => {
                self.discarded += 1;
                HecOutcome::Discard
            }
            HecMode::Correction => {
                self.mode = HecMode::Detection;
                let table = self.table.get_or_insert_with(syndrome_table);
                if let Some(bit) = table.iter().position(|&s| s == syndrome) {
                    header[bit / 8] ^= 0x80 >> (bit % 8);
                    self.corrected += 1;
                    HecOutcome::Corrected { bit: bit as u8 }
                } else {
                    self.discarded += 1;
                    HecOutcome::Discard
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atm::{AtmHeader, Vci, Vpi};
    use crate::crc::hec_valid;

    fn good_header() -> [u8; 5] {
        AtmHeader { gfc: 2, vpi: Vpi(7), vci: Vci(0x321), pti: 1, clp: false }.to_bytes()
    }

    #[test]
    fn valid_header_passes_and_stays_correcting() {
        let mut rx = HecReceiver::new();
        let mut h = good_header();
        assert_eq!(rx.receive(&mut h), HecOutcome::Valid);
        assert_eq!(rx.mode(), HecMode::Correction);
        assert_eq!(h, good_header());
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        for bit in 0..40usize {
            let mut rx = HecReceiver::new();
            let mut h = good_header();
            h[bit / 8] ^= 0x80 >> (bit % 8);
            match rx.receive(&mut h) {
                HecOutcome::Corrected { bit: b } => assert_eq!(b as usize, bit),
                other => panic!("bit {bit}: {other:?}"),
            }
            assert_eq!(h, good_header(), "bit {bit} repaired");
            assert!(hec_valid(&h));
            assert_eq!(rx.mode(), HecMode::Detection, "drops to detection after repair");
        }
    }

    #[test]
    fn double_bit_errors_discarded_mostly() {
        // Two-bit errors must never be "validated"; they are either
        // discarded or (rarely, if their syndrome matches a single-bit
        // pattern) mis-corrected into a *different* header — the known
        // limitation that motivates detection mode. Count outcomes.
        let mut discards = 0;
        let mut miscorrections = 0;
        for b1 in 0..40usize {
            for b2 in (b1 + 1)..40 {
                let mut rx = HecReceiver::new();
                let mut h = good_header();
                h[b1 / 8] ^= 0x80 >> (b1 % 8);
                h[b2 / 8] ^= 0x80 >> (b2 % 8);
                match rx.receive(&mut h) {
                    HecOutcome::Discard => discards += 1,
                    HecOutcome::Corrected { .. } => miscorrections += 1,
                    HecOutcome::Valid => panic!("two-bit error validated"),
                }
            }
        }
        assert!(discards > 0);
        // CRC-8 x^8+x^2+x+1 leaves some 2-bit syndromes aliasing
        // single-bit ones; the standard accepts this.
        assert!(discards + miscorrections == 40 * 39 / 2);
    }

    #[test]
    fn detection_mode_discards_correctable_errors() {
        let mut rx = HecReceiver::new();
        // First error: corrected, switch to detection.
        let mut h = good_header();
        h[0] ^= 0x80;
        rx.receive(&mut h);
        // Second consecutive error: discarded even though single-bit.
        let mut h2 = good_header();
        h2[1] ^= 0x01;
        assert_eq!(rx.receive(&mut h2), HecOutcome::Discard);
        assert_eq!(rx.discarded(), 1);
        // A clean header restores correction mode.
        let mut h3 = good_header();
        assert_eq!(rx.receive(&mut h3), HecOutcome::Valid);
        assert_eq!(rx.mode(), HecMode::Correction);
        let mut h4 = good_header();
        h4[2] ^= 0x10;
        assert!(matches!(rx.receive(&mut h4), HecOutcome::Corrected { .. }));
        assert_eq!(rx.corrected(), 2);
    }

    #[test]
    fn syndrome_table_is_injective_enough() {
        // All 40 single-bit syndromes must be distinct and nonzero, or
        // correction would be ambiguous.
        let t = syndrome_table();
        let mut seen = std::collections::HashSet::new();
        for &s in &t {
            assert_ne!(s, 0);
            assert!(seen.insert(s), "duplicate syndrome {s:#x}");
        }
    }
}
