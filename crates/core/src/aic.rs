//! The ATM Interface Chip (§4.3 "ATM Interface Chip (AIC)").
//!
//! The AIC (the BPN's Packet Processor 1, \[14\]) implements the ATM PHY:
//! it "synchronizes the incoming ATM cells to the gateway's internal
//! clock (packet cycle)", performs the header error check — "any cells
//! with an error in the header are simply discarded" — and "generates a
//! CRC for the ATM headers on outbound cells".
//!
//! Beyond the paper's plain discard behaviour, the AIC can run the
//! ITU-T I.432 HEC state machine ([`gw_wire::hec_correct`]) that
//! *corrects* single-bit header errors — the mode the emerging ATM
//! standard the paper tracks prescribes. Disabled by default to match
//! the paper text; enabled via [`Aic::with_correction`].

use gw_sim::time::SimTime;
use gw_wire::atm::{CELL_SIZE, HEADER_SIZE};
use gw_wire::crc;
use gw_wire::hec_correct::{HecOutcome, HecReceiver};

/// AIC counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AicStats {
    /// Cells passed inbound.
    pub cells_in: u64,
    /// Cells discarded for HEC failure.
    pub hec_discards: u64,
    /// Cells whose header was repaired (correction mode only).
    pub hec_corrections: u64,
    /// Cells emitted outbound (HEC stamped).
    pub cells_out: u64,
}

/// The AIC model.
#[derive(Debug, Default)]
pub struct Aic {
    stats: AicStats,
    receiver: Option<HecReceiver>,
}

impl Aic {
    /// An AIC with the paper's behaviour: discard on any header error.
    pub fn new() -> Aic {
        Aic::default()
    }

    /// An AIC running the I.432 correction-mode state machine.
    pub fn with_correction() -> Aic {
        Aic { stats: AicStats::default(), receiver: Some(HecReceiver::new()) }
    }

    /// Synchronize an arriving cell to the internal 40 ns packet cycle
    /// and check (and possibly repair, in place) its header. Returns
    /// the aligned presentation time, or `None` when discarded.
    #[inline]
    pub fn receive(&mut self, now: SimTime, cell: &mut [u8; CELL_SIZE]) -> Option<SimTime> {
        match &mut self.receiver {
            None => {
                if !crc::hec_valid(&cell[..HEADER_SIZE]) {
                    self.stats.hec_discards += 1;
                    return None;
                }
            }
            Some(rx) => match rx.receive(&mut cell[..HEADER_SIZE]) {
                HecOutcome::Valid => {}
                HecOutcome::Corrected { .. } => self.stats.hec_corrections += 1,
                HecOutcome::Discard => {
                    self.stats.hec_discards += 1;
                    return None;
                }
            },
        }
        self.stats.cells_in += 1;
        Some(now.ceil_to_cycle())
    }

    /// Stamp the HEC on an outbound cell (over its first four header
    /// octets) and count it.
    pub fn transmit(&mut self, cell: &mut [u8; CELL_SIZE]) {
        cell[4] = crc::hec(&cell[..4]);
        self.stats.cells_out += 1;
    }

    /// An outbound frame's cells all carry the same five header octets:
    /// stamp the HEC on them once, before the Fragmentation Logic copies
    /// them onto each of the frame's `cells` cells, and count those.
    pub(crate) fn transmit_frame(&mut self, header: &mut [u8; HEADER_SIZE], cells: usize) {
        header[4] = crc::hec(&header[..4]);
        self.stats.cells_out += cells as u64;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AicStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_wire::atm::{AtmHeader, OwnedCell, Vci, Vpi};

    fn good_cell() -> [u8; CELL_SIZE] {
        OwnedCell::build(&AtmHeader::data(Vpi(0), Vci(7)), &[1; 48]).unwrap().into_inner()
    }

    #[test]
    fn good_cell_accepted_and_aligned() {
        let mut aic = Aic::new();
        let mut cell = good_cell();
        let t = aic.receive(SimTime::from_ns(95), &mut cell).unwrap();
        assert_eq!(t, SimTime::from_ns(120), "aligned up to the packet cycle");
        assert_eq!(aic.stats().cells_in, 1);
    }

    #[test]
    fn corrupted_header_discarded_without_correction() {
        let mut aic = Aic::new();
        let mut cell = good_cell();
        cell[2] ^= 0x04;
        assert_eq!(aic.receive(SimTime::ZERO, &mut cell), None);
        assert_eq!(aic.stats().hec_discards, 1);
        assert_eq!(aic.stats().cells_in, 0);
        assert!(aic.receiver.is_none());
    }

    #[test]
    fn single_bit_error_corrected_in_correction_mode() {
        let mut aic = Aic::with_correction();
        let mut cell = good_cell();
        cell[2] ^= 0x04;
        let t = aic.receive(SimTime::ZERO, &mut cell);
        assert!(t.is_some(), "single-bit error repaired, cell passes");
        assert_eq!(aic.stats().hec_corrections, 1);
        assert_eq!(&cell[..5], &good_cell()[..5], "header restored");
        assert_eq!(
            gw_wire::atm::AtmHeader::parse(&cell).unwrap().vci,
            Vci(7),
            "repaired header parses to the original VCI"
        );
    }

    #[test]
    fn burst_errors_still_discarded_in_correction_mode() {
        let mut aic = Aic::with_correction();
        // Two errored cells back to back: the second is discarded even
        // if single-bit (detection mode), preventing mis-correction
        // during bursts.
        let mut c1 = good_cell();
        c1[0] ^= 0x80;
        assert!(aic.receive(SimTime::ZERO, &mut c1).is_some());
        let mut c2 = good_cell();
        c2[1] ^= 0x01;
        assert!(aic.receive(SimTime::from_us(3), &mut c2).is_none());
        assert_eq!(aic.stats().hec_discards, 1);
        // A clean cell re-arms correction.
        let mut c3 = good_cell();
        assert!(aic.receive(SimTime::from_us(6), &mut c3).is_some());
        let mut c4 = good_cell();
        c4[3] ^= 0x40;
        assert!(aic.receive(SimTime::from_us(9), &mut c4).is_some());
        assert_eq!(aic.stats().hec_corrections, 2);
    }

    #[test]
    fn corrupted_payload_passes_aic() {
        // The AIC only guards the header; payload errors are the SPP
        // CRC Logic's job (§5.2).
        let mut aic = Aic::new();
        let mut cell = good_cell();
        cell[20] ^= 0xFF;
        assert!(aic.receive(SimTime::ZERO, &mut cell).is_some());
    }

    #[test]
    fn transmit_stamps_valid_hec() {
        let mut aic = Aic::new();
        let mut cell = good_cell();
        cell[4] = 0; // ruin the HEC
        aic.transmit(&mut cell);
        assert!(crc::hec_valid(&cell[..5]));
        assert_eq!(aic.stats().cells_out, 1);
    }

    #[test]
    fn frame_stamp_equals_per_cell_stamps() {
        let (mut per_cell, mut per_frame) = (Aic::new(), Aic::new());
        let mut cell = good_cell();
        cell[4] = 0;
        let mut header = [0u8; HEADER_SIZE];
        header.copy_from_slice(&cell[..HEADER_SIZE]);
        for _ in 0..7 {
            per_cell.transmit(&mut cell);
        }
        per_frame.transmit_frame(&mut header, 7);
        assert_eq!(header, cell[..HEADER_SIZE]);
        assert_eq!(per_frame.stats(), per_cell.stats());
    }

    #[test]
    fn already_aligned_time_unchanged() {
        let mut aic = Aic::new();
        let mut cell = good_cell();
        let t = aic.receive(SimTime::from_ns(400), &mut cell).unwrap();
        assert_eq!(t, SimTime::from_ns(400));
    }
}
