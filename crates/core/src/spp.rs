//! The SAR Protocol Processor (§5), cycle-accurate at 25 MHz.
//!
//! Two independent packet-processing pipelines (Figure 6):
//!
//! * **ATM→FDDI**: Header Decoder → Reassembly Logic → CRC Logic →
//!   Interface Logic → Reassembly Buffer. Latching and decoding a cell
//!   header and starting write-address generation takes 10 cycles
//!   (400 ns); the 45-octet payload then writes in 45 cycles (§5.5).
//!   The reassembly semantics (per-VC dual buffers, sequence check,
//!   CRC-10, timers) live in [`gw_sar::Reassembler`]; this module adds
//!   the pipeline's timing.
//! * **FDDI→ATM**: FIFO Interface → Fragmentation Logic → CRC
//!   Generator. The Fragmentation Logic reads the MPP-prepended 5-octet
//!   ATM header, stamps it on every 45-octet payload, adds SAR headers
//!   with increasing sequence numbers, and the CRC Generator appends
//!   the CRC-10 — "on the fly as the cell is forwarded to the AIC"
//!   (§5.5), i.e. with no per-cell stall beyond the forwarding itself.
//!
//! The SPP also receives **initialization frames** carrying reassembly
//! timeout values from the NPE (§5.4); their payload codec is
//! `encode_init` / `decode_init`.

// The critical path's discipline (DESIGN.md §8): none of clippy.toml's
// allocations, maps or locks, and no panics. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::disallowed_macros,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

use crate::{SPP_DECODE_CYCLES, SPP_WRITE_CYCLES};
use gw_sar::reassemble::{ReassembledFrame, Reassembler, ReassemblyConfig, ReassemblyEvent};
use gw_sar::segment::{sar_fields, SarFields};
use gw_sim::time::SimTime;
use gw_wire::atm::{AtmHeader, Cell, OwnedCell, Vci, CELL_SIZE, HEADER_SIZE};
use gw_wire::{Error, Result};

/// Cycles to forward one 48-octet information field through the
/// fragmentation path (one octet per cycle).
pub const FRAG_FORWARD_CYCLES: u64 = 48;
/// Cycles to read the 5-octet ATM header at the head of a frame in the
/// SPP FIFO (§5.4 "reads the first five bytes of the frame").
pub const FRAG_HEADER_CYCLES: u64 = 5;

/// Timing of one cell through the reassembly pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestTiming {
    /// When the cell entered the pipeline (aligned, possibly queued
    /// behind the previous cell).
    pub start: SimTime,
    /// Header latched/decoded, write addresses generating (+10 cycles).
    pub decode_done: SimTime,
    /// Payload fully written to the reassembly buffer (+45 cycles).
    pub write_done: SimTime,
}

/// Result of offering one cell to the ATM→FDDI pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub struct IngestResult {
    /// Pipeline timing for this cell.
    pub timing: IngestTiming,
    /// What the Reassembly Logic did.
    pub event: ReassemblyEvent,
}

/// Result of fragmenting one frame through the FDDI→ATM pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub struct FragmentResult {
    /// Each cell with its emission-complete time toward the AIC.
    pub cells: Vec<(SimTime, OwnedCell)>,
    /// When the pipeline becomes free again.
    pub done: SimTime,
}

/// One frame inside the Fragmentation Logic, leaving cell by cell into
/// storage the caller supplies (`Fragments::next_into`), so a finished
/// cell is written once, where it is going. The five header octets were
/// read once, when the frame entered (`Spp::fragment_cells`); every
/// cell carries them as they stand when it is written, which is where
/// the AIC stamps its HEC once per frame (`Fragments::header_mut`).
#[derive(Debug)]
pub struct Fragments<'a> {
    fields: SarFields<'a>,
    header: [u8; HEADER_SIZE],
    at: SimTime,
}

impl Fragments<'_> {
    /// Cells still to be written.
    pub fn remaining(&self) -> usize {
        self.fields.len()
    }

    /// When the last cell has left and the pipeline is free again.
    pub fn done(&self) -> SimTime {
        self.at + SimTime::from_cycles(FRAG_FORWARD_CYCLES * self.fields.len() as u64)
    }

    /// The header octets the cells still to come will carry.
    pub(crate) fn header_mut(&mut self) -> &mut [u8; HEADER_SIZE] {
        &mut self.header
    }

    /// Write the frame's next cell into `cell` — the header octets, then
    /// the information field, cut on the spot — and return when it has
    /// left toward the AIC. Past the last cell nothing is written and
    /// the time stays at [`Fragments::done`].
    #[inline]
    pub(crate) fn next_into(&mut self, cell: &mut [u8; CELL_SIZE]) -> SimTime {
        if let Some(field) = self.fields.next() {
            cell[..HEADER_SIZE].copy_from_slice(&self.header);
            cell[HEADER_SIZE..].copy_from_slice(field.as_bytes());
            self.at += SimTime::from_cycles(FRAG_FORWARD_CYCLES);
        }
        self.at
    }
}

/// SPP counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SppStats {
    /// Cells offered to the reassembly pipeline.
    pub cells_in: u64,
    /// Frames completed toward the MPP.
    pub frames_up: u64,
    /// Frames fragmented toward the AIC.
    pub frames_down: u64,
    /// Cells emitted toward the AIC.
    pub cells_out: u64,
    /// Initialization frames handled.
    pub init_frames: u64,
}

/// The SPP.
///
/// ```
/// use gw_gateway::spp::Spp;
/// use gw_sar::reassemble::ReassemblyConfig;
/// use gw_sim::time::SimTime;
/// use gw_wire::atm::{AtmHeader, Vci, Vpi};
///
/// let mut spp = Spp::new(ReassemblyConfig::default());
/// // Fragment a frame into cells, SAR headers stamped on the fly.
/// let r = spp
///     .fragment(SimTime::ZERO, &AtmHeader::data(Vpi(0), Vci(7)), &[0u8; 90], false)
///     .unwrap();
/// assert_eq!(r.cells.len(), 2);
/// // §5.5: the second cell follows 48 cycles (1920 ns) after the first.
/// assert_eq!((r.cells[1].0 - r.cells[0].0).as_ns(), 1920);
/// ```
#[derive(Debug)]
pub struct Spp {
    reassembler: Reassembler,
    pipeline_free: SimTime,
    frag_free: SimTime,
    stats: SppStats,
}

impl Spp {
    /// An SPP with the given reassembly configuration.
    pub fn new(config: ReassemblyConfig) -> Spp {
        Spp {
            reassembler: Reassembler::new(config),
            pipeline_free: SimTime::ZERO,
            frag_free: SimTime::ZERO,
            stats: SppStats::default(),
        }
    }

    /// Open a connection (NPE initialization, §5.3).
    pub fn open_vc(&mut self, vci: Vci, timeout: SimTime) {
        self.reassembler.open_vc_with_timeout(vci, timeout);
    }

    /// Close a connection.
    pub fn close_vc(&mut self, vci: Vci) {
        self.reassembler.close_vc(vci);
    }

    /// Offer one cell's information field to the reassembly pipeline.
    #[inline]
    pub fn ingest_cell(&mut self, now: SimTime, vci: Vci, info: &[u8]) -> IngestResult {
        let start = if now > self.pipeline_free { now } else { self.pipeline_free }.ceil_to_cycle();
        let decode_done = start + SimTime::from_cycles(SPP_DECODE_CYCLES);
        let write_done = decode_done + SimTime::from_cycles(SPP_WRITE_CYCLES);
        self.pipeline_free = write_done;
        self.stats.cells_in += 1;
        let event = self.reassembler.push(decode_done, vci, info);
        if matches!(event, ReassemblyEvent::Complete(_)) {
            self.stats.frames_up += 1;
        }
        IngestResult { timing: IngestTiming { start, decode_done, write_done }, event }
    }

    /// The MPP finished reading a reassembled frame out of the buffer:
    /// free it for the next frame (dual-buffer hand-off, §5.3).
    pub fn release(&mut self, vci: Vci) {
        self.reassembler.release(vci);
    }

    /// Scan reassembly timers; expired partial frames flush to the MPP.
    pub fn check_timeouts(&mut self, now: SimTime) -> Vec<ReassembledFrame> {
        self.reassembler.check_timeouts(now)
    }

    /// Return a reassembled frame's data buffer
    /// ([`ReassembledFrame::data`]) to the reassembly pool once the MPP
    /// has consumed it, keeping the steady-state cell loop
    /// allocation-free.
    pub fn recycle(&mut self, data: Vec<u8>) {
        self.reassembler.recycle(data);
    }

    /// Reassembly buffer-pool counters, for the allocation guards.
    pub fn pool_stats(&self) -> gw_wire::pool::PoolStats {
        self.reassembler.pool_stats()
    }

    /// Earliest pending reassembly deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.reassembler.next_deadline()
    }

    /// Take a frame (with its MPP-chosen ATM header) into the
    /// Fragmentation Logic and hand back its cells with their on-the-fly
    /// timing (§5.5): the pipeline starts at the next clock edge it is
    /// free, reads the five header octets once, then forwards one
    /// 48-octet information field every 48 cycles — cell `i` is complete
    /// `5 + 48·(i+1)` cycles after the start. A frame too long for the
    /// sequence space or a header field out of range is refused before
    /// the first cell, leaving the pipeline and its counters untouched.
    /// The frame is accounted for (pipeline busy until
    /// [`Fragments::done`], counters) when this returns; the cells are
    /// cut as the caller has them written.
    pub(crate) fn fragment_cells<'a>(
        &mut self,
        now: SimTime,
        header: &AtmHeader,
        frame: &'a [u8],
        control: bool,
    ) -> Result<Fragments<'a>> {
        let fields = sar_fields(frame, control)?;
        let mut octets = [0u8; HEADER_SIZE];
        header.emit(&mut octets)?;
        let start = if now > self.frag_free { now } else { self.frag_free }.ceil_to_cycle();
        let fragments = Fragments {
            fields,
            header: octets,
            at: start + SimTime::from_cycles(FRAG_HEADER_CYCLES),
        };
        self.frag_free = fragments.done();
        self.stats.frames_down += 1;
        self.stats.cells_out += fragments.remaining() as u64;
        Ok(fragments)
    }

    /// Fragment a frame into cells, collected; see
    /// `Spp::fragment_cells`.
    #[expect(
        clippy::disallowed_methods,
        reason = "collector over `fragment_cells` for hosts and tests: one exact-capacity Vec per frame; the gateway has the cells written straight into its output"
    )]
    pub fn fragment(
        &mut self,
        now: SimTime,
        header: &AtmHeader,
        frame: &[u8],
        control: bool,
    ) -> Result<FragmentResult> {
        let mut fragments = self.fragment_cells(now, header, frame, control)?;
        let done = fragments.done();
        let mut cells = Vec::with_capacity(fragments.remaining());
        let mut cell = [0u8; CELL_SIZE];
        while fragments.remaining() > 0 {
            let at = fragments.next_into(&mut cell);
            cells.push((at, Cell::new_unchecked(cell)));
        }
        Ok(FragmentResult { cells, done })
    }

    /// Handle an initialization frame payload: program per-VC reassembly
    /// timeouts (§5.4 "An initialization frame containing reassembly
    /// timeout values is sent to the Reassembly Logic").
    pub(crate) fn handle_init(&mut self, payload: &[u8]) -> Result<usize> {
        let entries = decode_init(payload)?;
        let n = entries.len();
        for (vci, timeout) in entries {
            self.open_vc(vci, timeout);
        }
        self.stats.init_frames += 1;
        Ok(n)
    }

    /// Cells currently held in reassembly buffers.
    pub fn occupancy_cells(&self) -> usize {
        self.reassembler.occupancy_cells()
    }

    /// Reassembly buffers holding pool memory, one per frame in
    /// progress — the figure the pool census compares outstanding draws
    /// against.
    pub fn resident_buffers(&self) -> usize {
        self.reassembler.resident_buffers()
    }

    /// SPP counters.
    pub fn stats(&self) -> SppStats {
        self.stats
    }

    /// Reassembly-layer counters.
    pub fn reassembly_stats(&self) -> gw_sar::reassemble::ReassemblyStats {
        self.reassembler.stats()
    }
}

/// Encode SPP initialization entries: `(VCI, reassembly timeout)` pairs.
#[expect(
    clippy::disallowed_methods,
    reason = "Init-frame codec; reassembly-timeout programming runs per connection, not per cell"
)]
pub(crate) fn encode_init(entries: &[(Vci, SimTime)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 10);
    for (vci, timeout) in entries {
        out.extend_from_slice(&vci.0.to_be_bytes());
        out.extend_from_slice(&timeout.as_ns().to_be_bytes());
    }
    out
}

/// Decode SPP initialization entries.
#[expect(
    clippy::expect_used,
    reason = "Init-frame codec; reassembly-timeout programming runs per connection, not per cell"
)]
pub(crate) fn decode_init(payload: &[u8]) -> Result<Vec<(Vci, SimTime)>> {
    if !payload.len().is_multiple_of(10) {
        return Err(Error::Malformed);
    }
    Ok(payload
        .chunks_exact(10)
        .map(|c| {
            let vci = Vci(u16::from_be_bytes([c[0], c[1]]));
            let ns = u64::from_be_bytes(c[2..10].try_into().expect("8 bytes"));
            (vci, SimTime::from_ns(ns))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CYCLE_NS;
    use gw_sar::segment::segment;
    use gw_wire::atm::Vpi;

    const VC: Vci = Vci(5);

    fn spp() -> Spp {
        let mut s = Spp::new(ReassemblyConfig::default());
        s.open_vc(VC, SimTime::from_ms(10));
        s
    }

    #[test]
    fn decode_takes_exactly_10_cycles_400ns() {
        let mut s = spp();
        let cells = segment(&[1u8; 45], false).unwrap();
        let r = s.ingest_cell(SimTime::ZERO, VC, cells[0].as_bytes());
        assert_eq!(r.timing.start, SimTime::ZERO);
        assert_eq!(r.timing.decode_done, SimTime::from_ns(400), "§5.5: 10 cycles = 400 ns");
        assert_eq!(
            r.timing.write_done,
            SimTime::from_ns(400 + 45 * CYCLE_NS),
            "§5.5: 45 payload-write cycles"
        );
    }

    #[test]
    fn unaligned_arrival_waits_for_clock_edge() {
        let mut s = spp();
        let cells = segment(&[1u8; 45], false).unwrap();
        let r = s.ingest_cell(SimTime::from_ns(101), VC, cells[0].as_bytes());
        assert_eq!(r.timing.start, SimTime::from_ns(120));
    }

    #[test]
    fn back_to_back_cells_queue_in_pipeline() {
        let mut s = spp();
        let cells = segment(&[1u8; 90], false).unwrap();
        let r0 = s.ingest_cell(SimTime::ZERO, VC, cells[0].as_bytes());
        // Second cell arrives while the first still writes.
        let r1 = s.ingest_cell(SimTime::from_ns(100), VC, cells[1].as_bytes());
        assert_eq!(r1.timing.start, r0.timing.write_done);
        match r1.event {
            ReassemblyEvent::Complete(ref f) => {
                assert_eq!(&f.data[..90], &[1u8; 90][..]);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_frame_reassembles_with_correct_stats() {
        let mut s = spp();
        let frame: Vec<u8> = (0..200u8).collect();
        let cells = segment(&frame, false).unwrap();
        let mut complete = None;
        let mut t = SimTime::ZERO;
        for c in &cells {
            let r = s.ingest_cell(t, VC, c.as_bytes());
            t = r.timing.write_done;
            if let ReassemblyEvent::Complete(f) = r.event {
                complete = Some(f);
            }
        }
        let f = complete.expect("frame completes");
        assert_eq!(&f.data[..200], &frame[..]);
        assert_eq!(s.stats().cells_in, 5);
        assert_eq!(s.stats().frames_up, 1);
    }

    #[test]
    fn fragmentation_timing_on_the_fly() {
        let mut s = spp();
        let hdr = AtmHeader::data(Vpi(0), Vci(9));
        let frame = vec![7u8; 90]; // 2 cells
        let r = s.fragment(SimTime::ZERO, &hdr, &frame, false).unwrap();
        assert_eq!(r.cells.len(), 2);
        // First cell: 5 header-read cycles + 48 forwarding cycles.
        assert_eq!(r.cells[0].0, SimTime::from_cycles(FRAG_HEADER_CYCLES + FRAG_FORWARD_CYCLES));
        // Second follows with no stall: +48 cycles.
        assert_eq!(
            r.cells[1].0 - r.cells[0].0,
            SimTime::from_cycles(FRAG_FORWARD_CYCLES),
            "§5.5: headers appended on the fly, no per-cell stall"
        );
        assert_eq!(r.done, r.cells[1].0);
        assert_eq!(s.stats().cells_out, 2);
    }

    #[test]
    fn fragmentation_keeps_line_rate() {
        // 48 octets per 48 cycles = 1 octet/cycle = 200 Mb/s of payload
        // forwarding — comfortably above both networks' rates, which is
        // why the SPP "can process packets at the full FDDI rate" (§7).
        let rate_bps = 48.0 * 8.0 / (FRAG_FORWARD_CYCLES as f64 * CYCLE_NS as f64 * 1e-9);
        assert!(rate_bps > 155.52e6, "fragmentation rate {rate_bps:.0} bps");
    }

    #[test]
    fn sequential_fragments_share_pipeline() {
        let mut s = spp();
        let hdr = AtmHeader::data(Vpi(0), Vci(9));
        let r1 = s.fragment(SimTime::ZERO, &hdr, &[0u8; 45], false).unwrap();
        let r2 = s.fragment(SimTime::ZERO, &hdr, &[0u8; 45], false).unwrap();
        assert!(r2.cells[0].0 > r1.done - SimTime::from_cycles(1), "second frame queues");
    }

    #[test]
    fn fragment_cells_carry_valid_headers_and_crcs() {
        let mut s = spp();
        let hdr = AtmHeader::data(Vpi(2), Vci(77));
        let frame: Vec<u8> = (0..255u8).cycle().take(500).collect();
        let r = s.fragment(SimTime::ZERO, &hdr, &frame, true).unwrap();
        for (_, cell) in &r.cells {
            assert!(cell.check_hec());
            assert_eq!(cell.header().vci, Vci(77));
            let mut info = [0u8; 48];
            info.copy_from_slice(cell.payload());
            let sar = gw_wire::sar::SarCell::new_checked(info).expect("CRC-10 valid");
            assert!(sar.header().control);
        }
    }

    #[test]
    fn cells_written_in_place_equal_the_staged_construction_for_every_length() {
        use crate::aic::Aic;
        use gw_wire::sar::OwnedSarCell;
        let hdr = AtmHeader { gfc: 3, vpi: Vpi(0xAB), vci: Vci(0x1234), pti: 2, clp: true };
        let octets: Vec<u8> =
            (0..4600u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        let (mut s, mut aic, mut reference_aic) = (spp(), Aic::new(), Aic::new());
        let (mut frames, mut cells) = (0u64, 0u64);
        for len in 0..=octets.len() {
            for control in [false, true] {
                let frame = &octets[..len];
                // Unaligned arrivals, sometimes while the pipeline is
                // still busy with the previous frame.
                let now = SimTime::from_ns(len as u64 * 997 + control as u64 * 13);
                let busy_until = s.frag_free;
                let start = if now > busy_until { now } else { busy_until }.ceil_to_cycle();
                let mut fragments = s.fragment_cells(now, &hdr, frame, control).unwrap();
                let n = fragments.remaining();
                assert_eq!(n, gw_sar::segment::cells_for_len(len));
                let done = fragments.done();
                assert_eq!(done, start + SimTime::from_cycles(5 + 48 * n as u64));
                aic.transmit_frame(fragments.header_mut(), n);
                for i in 0..n {
                    let mut cell = [0xEEu8; CELL_SIZE];
                    let at = fragments.next_into(&mut cell);
                    assert_eq!(at, start + SimTime::from_cycles(5 + 48 * (i as u64 + 1)));
                    // The staged path: SAR field, then cell, then the
                    // AIC's per-cell stamp.
                    let slice = &frame[i * 45..len.min((i + 1) * 45)];
                    let field = OwnedSarCell::build(i as u16, i == n - 1, control, slice).unwrap();
                    let mut want = OwnedCell::build(&hdr, field.as_bytes()).unwrap().into_inner();
                    reference_aic.transmit(&mut want);
                    assert_eq!(cell, want, "len {len} control {control} cell {i}");
                    let sar = gw_wire::sar::SarHeader::parse(&cell[HEADER_SIZE..]).unwrap();
                    assert_eq!((sar.final_cell, sar.control), (i == n - 1, control));
                    assert_eq!(fragments.remaining(), n - i - 1);
                }
                // Exhausted: nothing more is written, the time stays.
                let mut untouched = [0xEEu8; CELL_SIZE];
                assert_eq!(fragments.next_into(&mut untouched), done);
                assert_eq!(untouched, [0xEEu8; CELL_SIZE]);
                assert_eq!(s.frag_free, done);
                frames += 1;
                cells += n as u64;
            }
        }
        assert_eq!((s.stats().frames_down, s.stats().cells_out), (frames, cells));
        assert_eq!(aic.stats(), reference_aic.stats());
    }

    #[test]
    fn refused_frames_leave_pipeline_and_counters_untouched() {
        let mut s = spp();
        let hdr = AtmHeader::data(Vpi(0), Vci(9));
        s.fragment(SimTime::ZERO, &hdr, &[1u8; 100], false).unwrap();
        let (free, stats) = (s.frag_free, s.stats());
        let too_long = vec![0u8; gw_sar::MAX_FRAME_CELLS * 45 + 1];
        assert_eq!(s.fragment_cells(free, &hdr, &too_long, false).err(), Some(Error::TooLong));
        for bad in [AtmHeader { gfc: 0x10, ..hdr }, AtmHeader { pti: 8, ..hdr }] {
            assert_eq!(
                s.fragment_cells(free, &bad, &[1, 2, 3], true).err(),
                Some(Error::Malformed)
            );
            assert_eq!(s.fragment(free, &bad, &[1, 2, 3], true).err(), Some(Error::Malformed));
        }
        assert_eq!((s.frag_free, s.stats()), (free, stats));
    }

    #[test]
    fn collected_fragments_are_the_cells_written_in_place() {
        let hdr = AtmHeader::data(Vpi(2), Vci(77));
        let frame: Vec<u8> = (0..255u8).cycle().take(1500).collect();
        let (mut a, mut b) = (spp(), spp());
        let r = a.fragment(SimTime::from_ns(101), &hdr, &frame, false).unwrap();
        let mut fragments = b.fragment_cells(SimTime::from_ns(101), &hdr, &frame, false).unwrap();
        assert_eq!((r.cells.len(), r.cells.capacity()), (34, 34), "one exact allocation");
        assert_eq!(r.done, fragments.done());
        for (at, cell) in &r.cells {
            let mut want = [0u8; CELL_SIZE];
            assert_eq!(*at, fragments.next_into(&mut want));
            assert_eq!(cell.as_bytes(), want);
        }
        assert_eq!(fragments.remaining(), 0);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn init_frames_program_timeouts() {
        let mut s = Spp::new(ReassemblyConfig::default());
        let payload =
            encode_init(&[(Vci(1), SimTime::from_us(100)), (Vci(2), SimTime::from_ms(5))]);
        assert_eq!(s.handle_init(&payload).unwrap(), 2);
        assert_eq!(s.stats().init_frames, 1);
        // VC 1 times out at 100 us, VC 2 does not.
        let cells = segment(&[0u8; 90], false).unwrap();
        s.ingest_cell(SimTime::ZERO, Vci(1), cells[0].as_bytes());
        s.ingest_cell(SimTime::ZERO, Vci(2), cells[0].as_bytes());
        let flushed = s.check_timeouts(SimTime::from_us(200));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].vci, Vci(1));
    }

    #[test]
    fn init_codec_roundtrip_and_errors() {
        let entries = vec![(Vci(0), SimTime::ZERO), (Vci(65535), SimTime::from_secs(10))];
        assert_eq!(decode_init(&encode_init(&entries)).unwrap(), entries);
        assert_eq!(decode_init(&[0u8; 9]), Err(Error::Malformed));
        assert_eq!(decode_init(&[]).unwrap(), vec![]);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut s = spp();
        let hdr = AtmHeader::data(Vpi(0), Vci(1));
        let too_big = vec![0u8; 1024 * 45 + 1];
        assert_eq!(s.fragment(SimTime::ZERO, &hdr, &too_big, false).err(), Some(Error::TooLong));
    }
}
