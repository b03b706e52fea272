//! Segmentation: the algorithm of the SPP's Fragmentation Logic (§5.4).
//!
//! The Fragmentation Logic reads the 5-octet ATM header the MPP
//! prepended, copies it onto every cell, slices the frame into 45-octet
//! SAR payloads, stamps each with a SAR header carrying an increasing
//! 10-bit sequence number, marks the final cell's F bit from the frame
//! descriptor, and lets the CRC Generator append the CRC-10 — all on
//! the fly, with no per-cell stall (§5.5).
//!
//! One walk, [`sar_fields`], is where a frame is cut; the SPP drives it
//! cell by cell into the gateway's output, and [`segment`] and
//! [`segment_cells`] collect it for everyone else.

use gw_wire::atm::{AtmHeader, Cell, OwnedCell, CELL_SIZE};
use gw_wire::sar::{OwnedSarCell, SAR_PAYLOAD_SIZE};
use gw_wire::{Error, Result};

/// Maximum number of cells a single frame may occupy: bounded by the
/// 10-bit sequence number space.
pub const MAX_FRAME_CELLS: usize = 1 << 10;

/// Number of cells a frame of `len` octets segments into.
pub fn cells_for_len(len: usize) -> usize {
    len.div_ceil(SAR_PAYLOAD_SIZE).max(1)
}

/// The one place a frame is cut: a walk over `frame` that yields its
/// finished 48-octet SAR information fields in order — 45-octet slices
/// under increasing sequence numbers, F on the last, C on all of them,
/// CRC-10 appended — without staging anything. Its length is known
/// before the first field ([`ExactSizeIterator::len`]), so a caller can
/// size its output once.
#[derive(Debug)]
pub struct SarFields<'a> {
    rest: &'a [u8],
    control: bool,
    seq: usize,
    total: usize,
}

/// Start the walk over `frame`.
///
/// `control` sets the C bit on every cell of the frame (§5.2). An empty
/// frame still produces one (all-padding) cell so the F bit has a
/// carrier. Frames longer than `MAX_FRAME_CELLS × 45` octets exceed the
/// sequence space and are rejected here, before the first field.
pub fn sar_fields(frame: &[u8], control: bool) -> Result<SarFields<'_>> {
    let total = cells_for_len(frame.len());
    if total > MAX_FRAME_CELLS {
        return Err(Error::TooLong);
    }
    Ok(SarFields { rest: frame, control, seq: 0, total })
}

impl Iterator for SarFields<'_> {
    type Item = OwnedSarCell;

    #[inline]
    fn next(&mut self) -> Option<OwnedSarCell> {
        if self.seq == self.total {
            return None;
        }
        let (slice, rest) = self.rest.split_at(self.rest.len().min(SAR_PAYLOAD_SIZE));
        let seq = self.seq;
        self.rest = rest;
        self.seq += 1;
        // `sar_fields` bounded the sequence space and the slice is at
        // most 45 octets, so `build` has nothing left to refuse.
        OwnedSarCell::build(seq as u16, self.seq == self.total, self.control, slice).ok()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.seq;
        (left, Some(left))
    }
}

impl ExactSizeIterator for SarFields<'_> {}

/// Segment a frame into SAR information fields (48 octets each),
/// collected; see [`sar_fields`] for the rules.
#[expect(
    clippy::disallowed_methods,
    reason = "collector over `sar_fields` for hosts and tests: one exact-capacity Vec per frame; the gateway drives the walk itself"
)]
pub fn segment(frame: &[u8], control: bool) -> Result<Vec<OwnedSarCell>> {
    let fields = sar_fields(frame, control)?;
    let mut cells = Vec::with_capacity(fields.len());
    cells.extend(fields);
    Ok(cells)
}

/// Segment a frame into complete 53-octet ATM cells under `header`
/// (the header the MPP fetched from the ICXT-A, §6.2), collected. The
/// header is range-checked and its five octets (HEC included) emitted
/// once for the whole frame; each information field is then written
/// into its cell in place.
#[expect(
    clippy::disallowed_macros,
    reason = "collector over `sar_fields` for hosts and tests: one exact-capacity Vec per frame; the gateway drives the walk itself"
)]
pub fn segment_cells(header: &AtmHeader, frame: &[u8], control: bool) -> Result<Vec<OwnedCell>> {
    let fields = sar_fields(frame, control)?;
    let mut blank = [0u8; CELL_SIZE];
    header.emit(&mut blank)?;
    let mut cells = vec![Cell::new_unchecked(blank); fields.len()];
    for (cell, field) in cells.iter_mut().zip(fields) {
        cell.payload_mut().copy_from_slice(field.as_bytes());
    }
    Ok(cells)
}

/// Octets put on the ATM wire for a frame of `len` octets.
#[cfg(test)]
fn wire_octets_for_len(len: usize) -> usize {
    cells_for_len(len) * CELL_SIZE
}

/// Reconstruct frame bytes (multiple of 45, zero-padded) from an ordered
/// run of SAR cells — the tests' oracle, not the hardware path.
#[cfg(test)]
fn reassemble_oracle(cells: &[OwnedSarCell]) -> Vec<u8> {
    cells.iter().flat_map(|c| c.payload().iter().copied()).collect()
}

/// Wrap SAR information fields from existing ATM cells for inspection.
#[cfg(test)]
fn sar_views(cells: &[OwnedCell]) -> Vec<OwnedSarCell> {
    cells
        .iter()
        .map(|c| {
            let mut buf = [0u8; 48];
            buf.copy_from_slice(c.payload());
            gw_wire::sar::SarCell::new_unchecked(buf)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_wire::atm::{Vci, Vpi};

    #[test]
    fn exact_multiple_of_45() {
        let frame = vec![7u8; 90];
        let cells = segment(&frame, false).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].header().seq, 0);
        assert!(!cells[0].header().final_cell);
        assert_eq!(cells[1].header().seq, 1);
        assert!(cells[1].header().final_cell);
        assert_eq!(reassemble_oracle(&cells), frame);
    }

    #[test]
    fn partial_final_cell_padded() {
        let frame: Vec<u8> = (0..100u8).collect();
        let cells = segment(&frame, false).unwrap();
        assert_eq!(cells.len(), 3);
        let out = reassemble_oracle(&cells);
        assert_eq!(out.len(), 135);
        assert_eq!(&out[..100], &frame[..]);
        assert!(out[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn single_cell_frame() {
        let cells = segment(&[1, 2, 3], false).unwrap();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].header().final_cell);
        assert_eq!(cells[0].header().seq, 0);
    }

    #[test]
    fn empty_frame_yields_one_final_cell() {
        let cells = segment(&[], false).unwrap();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].header().final_cell);
    }

    #[test]
    fn control_bit_on_every_cell() {
        let frame = vec![0u8; 200];
        let cells = segment(&frame, true).unwrap();
        assert!(cells.iter().all(|c| c.header().control));
        let cells = segment(&frame, false).unwrap();
        assert!(cells.iter().all(|c| !c.header().control));
    }

    #[test]
    fn sequence_numbers_strictly_increase() {
        let frame = vec![0u8; 45 * 20];
        let cells = segment(&frame, false).unwrap();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.header().seq as usize, i);
        }
    }

    #[test]
    fn all_cells_pass_crc() {
        let frame: Vec<u8> = (0..255u8).cycle().take(1000).collect();
        for c in segment(&frame, false).unwrap() {
            assert!(c.check_crc());
        }
    }

    #[test]
    fn max_frame_accepted_and_bound_enforced() {
        let max = MAX_FRAME_CELLS * SAR_PAYLOAD_SIZE;
        assert_eq!(segment(&vec![0u8; max], false).unwrap().len(), MAX_FRAME_CELLS);
        assert_eq!(segment(&vec![0u8; max + 1], false).err(), Some(Error::TooLong));
    }

    #[test]
    fn paper_sized_frame_is_91_cells() {
        // A maximum MCHIP frame over FDDI internet encapsulation:
        // 4096-octet data segment minus the 8-octet LLC/SNAP header.
        let cells = segment(&vec![0u8; 4096 - 8], false).unwrap();
        assert_eq!(cells.len(), 91); // §5.3
    }

    #[test]
    fn segment_cells_carry_header_and_hec() {
        let hdr = AtmHeader::data(Vpi(1), Vci(99));
        let frame = vec![0xAB; 120];
        let cells = segment_cells(&hdr, &frame, false).unwrap();
        assert_eq!(cells.len(), 3);
        for c in &cells {
            assert_eq!(c.header().vci, Vci(99));
            assert!(c.check_hec());
        }
        // Payload content survives the trip through full cells.
        let views = sar_views(&cells);
        assert_eq!(&reassemble_oracle(&views)[..120], &frame[..]);
    }

    /// The cut, written out longhand: what the walk must reproduce.
    fn reference(frame: &[u8], control: bool) -> Vec<OwnedSarCell> {
        let n = cells_for_len(frame.len());
        (0..n)
            .map(|i| {
                let slice = &frame[i * 45..frame.len().min((i + 1) * 45)];
                OwnedSarCell::build(i as u16, i == n - 1, control, slice).unwrap()
            })
            .collect()
    }

    #[test]
    fn walk_knows_its_length_up_front_and_cuts_every_frame_like_the_reference() {
        let octets: Vec<u8> =
            (0..4600u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for len in 0..=octets.len() {
            for control in [false, true] {
                let frame = &octets[..len];
                let mut walk = sar_fields(frame, control).unwrap();
                assert_eq!(walk.len(), cells_for_len(len), "len {len}");
                let want = reference(frame, control);
                for (i, cell) in want.iter().enumerate() {
                    assert_eq!(walk.next().as_ref(), Some(cell), "len {len} cell {i}");
                    assert_eq!(walk.len(), want.len() - i - 1);
                    assert_eq!(cell.header().final_cell, i == want.len() - 1);
                }
                assert_eq!(walk.next(), None);
                assert_eq!(walk.next(), None, "and stays finished");
            }
        }
    }

    #[test]
    fn empty_frame_walks_to_one_all_padding_final_cell() {
        let mut walk = sar_fields(&[], true).unwrap();
        assert_eq!(walk.len(), 1);
        let cell = walk.next().unwrap();
        let h = cell.header();
        assert_eq!((h.seq, h.final_cell, h.control), (0, true, true));
        assert_eq!(cell.payload(), &[0u8; 45]);
        assert!(cell.check_crc());
        assert_eq!(walk.next(), None);
    }

    #[test]
    fn refusals_come_before_the_first_field() {
        let too_long = vec![0u8; MAX_FRAME_CELLS * SAR_PAYLOAD_SIZE + 1];
        assert_eq!(sar_fields(&too_long, false).err(), Some(Error::TooLong));
        let hdr = AtmHeader::data(Vpi(1), Vci(99));
        assert_eq!(segment_cells(&hdr, &too_long, false).err(), Some(Error::TooLong));
        for bad in [AtmHeader { gfc: 0x10, ..hdr }, AtmHeader { pti: 8, ..hdr }] {
            assert_eq!(segment_cells(&bad, &[1, 2, 3], false).err(), Some(Error::Malformed));
        }
    }

    #[test]
    fn collected_cells_are_the_reference_fields_under_one_header() {
        let hdr = AtmHeader { gfc: 3, vpi: Vpi(0xAB), vci: Vci(0x1234), pti: 2, clp: true };
        for len in [0usize, 1, 44, 45, 46, 90, 461, 1500, 4000] {
            let frame: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let want: Vec<OwnedCell> = reference(&frame, true)
                .iter()
                .map(|f| OwnedCell::build(&hdr, f.as_bytes()).unwrap())
                .collect();
            let got = segment_cells(&hdr, &frame, true).unwrap();
            assert_eq!(got, want, "len {len}");
            assert_eq!(got.capacity(), got.len(), "one exact allocation");
            assert_eq!(segment(&frame, true).unwrap(), reference(&frame, true));
        }
    }

    #[test]
    fn helpers_agree() {
        for len in [0usize, 1, 44, 45, 46, 90, 4088] {
            let cells = segment(&vec![0u8; len], false).unwrap();
            assert_eq!(cells.len(), cells_for_len(len), "len {len}");
            assert_eq!(wire_octets_for_len(len), cells.len() * CELL_SIZE);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn segment_oracle_roundtrip(frame in proptest::collection::vec(any::<u8>(), 0..4096), control: bool) {
            let cells = segment(&frame, control).unwrap();
            prop_assert_eq!(cells.len(), cells_for_len(frame.len()));
            // Last cell carries F; no other does.
            for (i, c) in cells.iter().enumerate() {
                prop_assert_eq!(c.header().final_cell, i == cells.len() - 1);
                prop_assert_eq!(c.header().control, control);
                prop_assert!(c.check_crc());
            }
            let out = reassemble_oracle(&cells);
            prop_assert_eq!(&out[..frame.len()], &frame[..]);
            prop_assert!(out[frame.len()..].iter().all(|&b| b == 0));
        }
    }
}
