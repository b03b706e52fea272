//! The correctness oracle: what a workload's far side must receive.
//!
//! A frame *fails* unless it arrives byte-identical where it was sent:
//! an ATM→FDDI frame as a valid FDDI MAC frame (FCS good) addressed to
//! the congram's station, LLC/SNAP + MCHIP with the ICN translated and
//! the payload untouched; an FDDI→ATM frame as HEC- and CRC-10-clean
//! cells on the congram's VC that an independent [`Reassembler`] puts
//! back together into the translated MCHIP frame.

use crate::gen::{CellBytes, Congram};
use atm_fddi_gateway::sar::reassemble::{Reassembler, ReassemblyConfig, ReassemblyEvent};
use atm_fddi_gateway::sim::SimTime;
use atm_fddi_gateway::wire::atm::{Cell, Vci};
use atm_fddi_gateway::wire::fddi::{self, FddiAddr, Frame};
use atm_fddi_gateway::wire::mchip::{parse_frame, MchipType};

/// Check one frame the gateway emitted toward FDDI against what the ATM
/// side sent on `congram`. The addressing, encapsulation and payload
/// compare always run; `verify_fcs` adds the CRC-32 over the whole frame
/// (as costly as building it, so timed chunks sample it).
pub fn check_fddi_out(
    bytes: &[u8],
    congram: &Congram,
    payload: &[u8],
    verify_fcs: bool,
) -> Result<(), String> {
    if bytes.len() < fddi::FIXED_FIELDS {
        return Err(format!("runt FDDI frame of {} octets", bytes.len()));
    }
    let frame = Frame::new_unchecked(bytes);
    if verify_fcs && !frame.check_fcs() {
        return Err("FDDI frame check sequence is wrong".into());
    }
    if frame.dst() != FddiAddr::station(congram.station) {
        return Err(format!("wrong station {:?}, want {}", frame.dst(), congram.station));
    }
    let encap = fddi::strip_llc_snap(frame.info()).map_err(|e| format!("bad LLC/SNAP: {e:?}"))?;
    let (header, got) = parse_frame(encap).map_err(|e| format!("bad MCHIP frame: {e:?}"))?;
    if header.mtype != MchipType::Data || header.icn != congram.fddi_icn {
        return Err(format!("MCHIP header {header:?}, want data on {:?}", congram.fddi_icn));
    }
    if got != payload {
        return Err(format!("payload differs ({} octets, want {})", got.len(), payload.len()));
    }
    Ok(())
}

/// Check one reassembled MCHIP frame that left the ATM port against what
/// the FDDI side sent on `congram`.
pub fn check_atm_out(mchip: &[u8], congram: &Congram, payload: &[u8]) -> Result<(), String> {
    let (header, got) = parse_frame(mchip).map_err(|e| format!("bad MCHIP frame: {e:?}"))?;
    if header.mtype != MchipType::Data || header.icn != congram.atm_icn {
        return Err(format!("MCHIP header {header:?}, want data on {:?}", congram.atm_icn));
    }
    if got != payload {
        return Err(format!("payload differs ({} octets, want {})", got.len(), payload.len()));
    }
    Ok(())
}

/// The far end of the ATM port: re-reassembles the cells the gateway
/// emits, independently of the gateway's own SAR state.
pub struct CellSink {
    reasm: Reassembler,
    t: SimTime,
}

impl CellSink {
    /// A sink with every congram's VC open.
    pub fn new(table: &[Congram]) -> CellSink {
        let mut reasm = Reassembler::new(ReassemblyConfig::default());
        for c in table {
            reasm.open_vc(c.vci);
        }
        CellSink { reasm, t: SimTime::ZERO }
    }

    /// Offer one cell. `Ok(Some((vci, mchip)))` when it completes a
    /// frame; `Err` when the cell is not clean (HEC, CRC-10, sequence).
    /// Hand the buffer back with [`CellSink::recycle`].
    pub fn push(&mut self, cell: &CellBytes) -> Result<Option<(Vci, Vec<u8>)>, String> {
        let view = Cell::new_checked(&cell[..]).map_err(|e| format!("bad cell header: {e:?}"))?;
        let vci = view.header().vci;
        // The sink's clock only has to move forward; reassembly timeouts
        // never fire because every frame completes within one call burst.
        self.t += SimTime::from_ns(40);
        match self.reasm.push(self.t, vci, view.payload()) {
            ReassemblyEvent::Stored => Ok(None),
            ReassemblyEvent::Complete(frame) => {
                self.reasm.release(vci);
                Ok(Some((vci, frame.data)))
            }
            other => Err(format!("cell refused at the far end: {other:?}")),
        }
    }

    /// Return a completed frame's buffer to the sink's pool.
    pub fn recycle(&mut self, data: Vec<u8>) {
        self.reasm.recycle(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{atm_frame, congrams, fddi_frame};

    #[test]
    fn sink_reassembles_what_the_segmenter_cut() {
        let table = congrams(2, 2);
        // Cells cut on the ATM-side ICN stand in for gateway output.
        let f = atm_frame(&table[1], 1, (0..200u8).collect());
        let mut sink = CellSink::new(&table);
        let mut done = None;
        for c in &f.cells {
            if let Some(got) = sink.push(c).expect("clean cell") {
                done = Some(got);
            }
        }
        let (vci, mchip) = done.expect("frame completes on its last cell");
        assert_eq!(vci, table[1].vci);
        check_atm_out(&mchip, &table[1], &f.payload).expect("identical");
        assert!(check_atm_out(&mchip, &table[0], &f.payload).is_err(), "wrong ICN is a failure");
        let mut bad = f.cells[0];
        bad[10] ^= 1;
        assert!(CellSink::new(&table).push(&bad).is_err(), "CRC-10 damage is a failure");
    }

    #[test]
    fn fddi_check_rejects_damage_and_misdelivery() {
        let table = congrams(2, 2);
        // A station-originated frame is addressed to the gateway, so it
        // must fail the "delivered to the congram's station" check.
        let f = fddi_frame(&table[0], 0, vec![9; 100]);
        assert!(check_fddi_out(&f.bytes, &table[0], &f.payload, true).is_err());
        // Readdressed to the station it passes; one flipped payload bit
        // fails the compare, one flipped FCS bit only the FCS check.
        let mut ok = f.bytes.clone();
        ok[1..7].copy_from_slice(&FddiAddr::station(table[0].station).0);
        check_fddi_out(&ok, &table[0], &f.payload, false).expect("addressed to the station");
        assert!(check_fddi_out(&ok, &table[0], &f.payload, true).is_err(), "FCS now stale");
        let mut damaged = ok.clone();
        damaged[40] ^= 0x80;
        assert!(check_fddi_out(&damaged, &table[0], &f.payload, false).is_err());
    }
}
