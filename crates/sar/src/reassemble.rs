//! Reassembly: the algorithm of the SPP's Reassembly Logic (§5.2–§5.3).
//!
//! The Reassembly Logic keeps, per open VCI, "the start and end
//! addresses of each reassembly buffer, status (idle or busy) of the
//! reassembly buffer, the write pointer, expected next sequence number,
//! and reassembly timer" (§5.3). Two buffers per connection allow a
//! completed frame to be queued toward the FDDI side while the next
//! frame's cells already accumulate.
//!
//! Like the hardware's table memory — the SPP indexes connection state
//! directly by VCI, it does not search for it — the software table here
//! is dense: a VCI→slot [`SlotIndex`], grown to the largest VCI opened,
//! points into a compact slab of per-connection slots, so the per-cell
//! lookup is two array reads with no hashing. Slots are generation-tagged
//! so a VCI retired and reused (congram teardown, then a new connection
//! on the same VCI) can never be confused with its predecessor by
//! in-flight timer entries. Reassembly deadlines live in a
//! [`TimerWheel`], making [`Reassembler::check_timeouts`] O(expired)
//! instead of O(open VCs).
//!
//! The §5.3 buffers are modelled by state, not by memory: each VC has
//! [`ReassemblyConfig::buffers_per_vc`] buffers of [`BUFFER_CELLS`]
//! cells, and that bounds it exactly as the hardware's would (a frame
//! with no idle buffer gets [`ReassemblyEvent::NoBuffer`], a 92nd cell
//! [`ReassemblyEvent::Overflow`]). A buffer holds host memory only while
//! a frame is assembled in it: it draws an allocation from the
//! reassembler's [`BufPool`] when it leaves idle for a new frame, and
//! gives it up with the frame — to the [`ReassembledFrame`] on
//! completion or timeout, back to the pool on an errored discard or
//! [`Reassembler::close_vc`]. An open VC with no frame in progress holds
//! no buffer memory.
//!
//! Failure handling follows the paper exactly:
//!
//! * **CRC failure** — "the cell is dropped, and the buffer memory is
//!   overwritten" (§5.2): the write pointer does not advance.
//! * **Lost cell** — detected as an expected/actual sequence mismatch;
//!   "sets an error flag for the corresponding reassembled frame. In the
//!   current version of the gateway design, all such frames are
//!   discarded" (§5.2). The alternative ("this decision will be left to
//!   the MCHIP layer") is available behind
//!   [`ReassemblyConfig::forward_errored_frames`].
//! * **Timeout** — "if the timer for a particular active connection
//!   times out and the last fragment has not arrived, the partially
//!   reassembled frame is forwarded to the MPP" (§5.3).

use gw_sim::index::SlotIndex;
use gw_sim::time::SimTime;
use gw_sim::timer::{TimerId, TimerWheel};
use gw_wire::atm::Vci;
use gw_wire::pool::{BufPool, PoolStats};
use gw_wire::sar::{SarCell, SAR_PAYLOAD_SIZE};

/// Reassembly-buffer capacity in cells: a maximum internet frame
/// (4096-octet FDDI data segment less the 8-octet LLC/SNAP header)
/// occupies 91 cells (§5.3).
pub const BUFFER_CELLS: usize = 91;

/// Per-reassembler configuration, programmed by the NPE through
/// initialization frames (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReassemblyConfig {
    /// Reassembly buffers per connection: the paper's design uses 2
    /// (§5.3), and 1 is the ablation E8 measures. Nothing else is valid.
    pub buffers_per_vc: usize,
    /// Reassembly timeout measured from a frame's first cell.
    pub timeout: SimTime,
    /// Forward frames whose error flag is set instead of discarding
    /// them — the future behaviour §5.2 sketches. Default `false`.
    pub forward_errored_frames: bool,
}

impl Default for ReassemblyConfig {
    fn default() -> Self {
        ReassemblyConfig {
            buffers_per_vc: 2,
            timeout: SimTime::from_ms(10),
            forward_errored_frames: false,
        }
    }
}

/// A frame handed to the MPP.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub struct ReassembledFrame {
    /// Connection it arrived on.
    pub vci: Vci,
    /// True when every cell carried the C bit (control frame).
    pub control: bool,
    /// Frame octets — a multiple of 45; the MCHIP length field trims.
    /// Drawn from the reassembler's buffer pool: hand it back with
    /// [`Reassembler::recycle`] once consumed to keep the fast path
    /// allocation-free.
    pub data: Vec<u8>,
    /// Number of cells assembled.
    pub cells: u16,
    /// True when the frame was flushed by the reassembly timer before
    /// its final cell arrived.
    pub partial: bool,
    /// True when a lost or out-of-sequence cell was detected.
    pub errored: bool,
    /// Arrival time of the first cell.
    pub started_at: SimTime,
    /// Completion (or flush) time.
    pub completed_at: SimTime,
}

/// Outcome of offering one cell to the reassembler.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub enum ReassemblyEvent {
    /// Cell stored; frame still accumulating.
    Stored,
    /// Final cell arrived; the frame is complete and its buffer is held
    /// (busy) until [`Reassembler::release`].
    Complete(ReassembledFrame),
    /// Final cell arrived but the frame had its error flag set and the
    /// configuration discards such frames (§5.2 current design).
    DiscardedErrored {
        /// Cells the discarded frame had accumulated.
        cells: u16,
        /// True when the sequence errors included a backward jump — the
        /// signature of a misinserted (or replayed) cell rather than a
        /// lost one.
        misinserted: bool,
    },
    /// Cell failed the CRC-10; dropped, buffer overwritten (§5.2).
    CrcDropped,
    /// Cell arrived for a VCI that is not open; dropped.
    UnknownVc,
    /// No idle buffer for a new frame (all still queued toward FDDI);
    /// the cell is dropped and the frame it begins is lost.
    NoBuffer,
    /// Cell would overflow the reassembly buffer; dropped, error flagged.
    Overflow,
}

/// Running totals the SUPERNET-style status registers expose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Cells accepted and stored.
    pub cells_stored: u64,
    /// Frames completed and forwarded.
    pub frames_complete: u64,
    /// Cells dropped for CRC failure.
    pub crc_drops: u64,
    /// Sequence-mismatch (lost cell) detections.
    pub seq_errors: u64,
    /// Sequence mismatches that jumped backward — a cell from the past,
    /// i.e. a misinserted cell from a foreign VC (the classic AAL
    /// hazard: a header bit-flip pattern the HEC cannot catch) or a
    /// duplicated cell replayed on its own VC. Counted within
    /// [`ReassemblyStats::seq_errors`].
    pub seq_misinserts: u64,
    /// Frames discarded because their error flag was set.
    pub frames_discarded: u64,
    /// Frames flushed by the reassembly timer.
    pub timeouts: u64,
    /// Cells dropped because no buffer was idle.
    pub no_buffer_drops: u64,
    /// Cells dropped for buffer overflow.
    pub overflow_drops: u64,
    /// Cells dropped for unknown VCI.
    pub unknown_vc_drops: u64,
    /// Cells leaving in completed frames — conservation disposition of
    /// [`ReassemblyStats::cells_stored`], together with the three
    /// counters below and the live occupancy.
    pub cells_completed: u64,
    /// Cells freed when an errored frame was discarded.
    pub cells_discarded: u64,
    /// Cells leaving in timer-flushed partial frames.
    pub cells_flushed: u64,
    /// Cells freed by [`Reassembler::close_vc`] (teardown/quarantine).
    pub cells_closed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufState {
    Idle,
    Assembling,
    /// Complete frame awaiting release (queued toward the FDDI side).
    Queued,
}

#[derive(Debug)]
struct Buffer {
    state: BufState,
    /// Pool memory while `state == Assembling`; empty (no allocation)
    /// otherwise.
    data: Vec<u8>,
    expected_seq: u16,
    control: bool,
    errored: bool,
    /// A sequence error on this frame carried the misinsertion
    /// signature: the expected sequence resumed after a jump.
    misinserted: bool,
    /// After a sequence jump, the number this frame's own stream would
    /// resume at if the jumped cell was a foreign intruder. Loss never
    /// comes back to it; a misinserted cell's victim stream does.
    resume_seq: Option<u16>,
    started_at: SimTime,
    deadline: SimTime,
    /// Armed while `state == Assembling`.
    timer: Option<TimerId>,
}

impl Buffer {
    /// An idle buffer. `data` is its memory: none until a frame starts,
    /// then a pool buffer of [`BUFFER_CELLS`] cells, which the per-cell
    /// write path never grows.
    fn new(data: Vec<u8>) -> Buffer {
        Buffer {
            state: BufState::Idle,
            data,
            expected_seq: 0,
            control: false,
            errored: false,
            misinserted: false,
            resume_seq: None,
            started_at: SimTime::ZERO,
            deadline: SimTime::ZERO,
            timer: None,
        }
    }

    fn reset(&mut self) {
        self.state = BufState::Idle;
        self.data.clear();
        self.expected_seq = 0;
        self.control = false;
        self.errored = false;
        self.misinserted = false;
        self.resume_seq = None;
        self.timer = None;
    }

    fn cells(&self) -> u16 {
        (self.data.len() / SAR_PAYLOAD_SIZE) as u16
    }
}

/// One connection's reassembly state in the dense slot slab.
#[derive(Debug)]
struct VcSlot {
    /// Owning VCI while open (for reverse lookup on timer expiry).
    vci: Vci,
    /// Bumped every time the slot is retired, so references from a
    /// previous tenancy (timer entries, external handles) are
    /// recognisably stale.
    generation: u32,
    open: bool,
    timeout: SimTime,
    /// §5.3's two buffers; only the first `buffers_per_vc` are used.
    buffers: [Buffer; 2],
    /// Index of the buffer currently assembling, if any.
    current: Option<u8>,
}

/// Identifies one buffer of one slot tenancy in the timer wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerKey {
    slot: u32,
    generation: u32,
    buf: u8,
}

/// The per-VC reassembly engine of the SPP (§5.3).
///
/// ```
/// use gw_sar::{segment, Reassembler, ReassemblyConfig, ReassemblyEvent};
/// use gw_sim::time::SimTime;
/// use gw_wire::atm::Vci;
///
/// let mut r = Reassembler::new(ReassemblyConfig::default());
/// r.open_vc(Vci(1));
/// let frame = vec![0xAB; 100];
/// let mut out = None;
/// for cell in segment(&frame, false).unwrap() {
///     if let ReassemblyEvent::Complete(f) = r.push(SimTime::ZERO, Vci(1), cell.as_bytes()) {
///         out = Some(f);
///     }
/// }
/// assert_eq!(&out.unwrap().data[..100], &frame[..]);
/// ```
#[derive(Debug)]
pub struct Reassembler {
    config: ReassemblyConfig,
    /// Direct VCI→slot index of the open connections, grown to the
    /// largest VCI opened — the software shape of the hardware's
    /// VCI-indexed table memory.
    vci_index: SlotIndex,
    slots: Vec<VcSlot>,
    free_slots: Vec<u32>,
    open: usize,
    /// Running cell occupancy across all buffers, maintained inline so
    /// gauges never scan the table.
    occupancy: usize,
    timers: TimerWheel<TimerKey>,
    /// Scratch for [`TimerWheel::poll`], reused across calls.
    expired: Vec<(SimTime, TimerKey)>,
    /// Frame-data buffers: drawn when a frame starts, recycled when
    /// its data has been consumed.
    pool: BufPool,
    stats: ReassemblyStats,
}

impl Reassembler {
    /// Create with the given configuration.
    #[expect(
        clippy::disallowed_methods,
        reason = "builds the empty VCI index and slab and sizes the buffer pool once at construction"
    )]
    pub fn new(config: ReassemblyConfig) -> Reassembler {
        assert!((1..=2).contains(&config.buffers_per_vc), "one or two buffers per VC (§5.3)");
        let capacity = BUFFER_CELLS * SAR_PAYLOAD_SIZE;
        Reassembler {
            config,
            vci_index: SlotIndex::default(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            open: 0,
            occupancy: 0,
            timers: TimerWheel::new(),
            expired: Vec::new(),
            pool: BufPool::new(1024, capacity),
            stats: ReassemblyStats::default(),
        }
    }

    /// Open a connection with the reassembler-wide default timeout.
    pub fn open_vc(&mut self, vci: Vci) {
        self.open_vc_with_timeout(vci, self.config.timeout);
    }

    /// Open a connection with a per-connection timeout (the NPE
    /// initializes timers per active connection, §5.3). A no-op when the
    /// connection is already open. The connection's buffers start idle
    /// and hold no memory.
    #[expect(
        clippy::disallowed_methods,
        reason = "runs once per congram, not per cell: a new slot's idle buffers hold no memory"
    )]
    pub fn open_vc_with_timeout(&mut self, vci: Vci, timeout: SimTime) {
        if self.vci_index.get(vci.0).is_some() {
            return;
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(!s.open);
                s.vci = vci;
                s.open = true;
                s.timeout = timeout;
                s.current = None;
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                let buffers = [Buffer::new(Vec::new()), Buffer::new(Vec::new())];
                self.slots.push(VcSlot {
                    vci,
                    generation: 0,
                    open: true,
                    timeout,
                    buffers,
                    current: None,
                });
                slot
            }
        };
        self.vci_index.insert(vci.0, slot);
        self.open += 1;
    }

    /// Close a connection, dropping any partial state; a partial
    /// frame's memory goes back to the pool. The slot is retired — its
    /// generation is bumped, so timer entries or handles from this
    /// tenancy go stale — and recycled for future opens.
    pub fn close_vc(&mut self, vci: Vci) {
        let Some(slot) = self.vci_index.remove(vci.0) else { return };
        let s = &mut self.slots[slot as usize];
        for buf in &mut s.buffers {
            if let Some(id) = buf.timer.take() {
                self.timers.cancel(id);
            }
            self.occupancy -= buf.cells() as usize;
            self.stats.cells_closed += u64::from(buf.cells());
            if buf.data.capacity() != 0 {
                self.pool.put(std::mem::take(&mut buf.data));
            }
            buf.reset();
        }
        s.open = false;
        s.current = None;
        s.generation = s.generation.wrapping_add(1);
        self.free_slots.push(slot);
        self.open -= 1;
    }

    /// True when the connection is open.
    pub fn is_open(&self, vci: Vci) -> bool {
        self.vci_index.get(vci.0).is_some()
    }

    /// Number of open connections.
    pub fn open_count(&self) -> usize {
        self.open
    }

    /// Return a frame-data buffer (from [`ReassembledFrame::data`]) to
    /// the pool once its contents have been consumed downstream.
    pub fn recycle(&mut self, data: Vec<u8>) {
        self.pool.put(data);
    }

    /// Buffer-pool hit/miss counters, for the allocation guards.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Offer one cell's 48-octet information field, as it emerges from
    /// the Header Decoder and CRC Logic.
    #[inline]
    pub fn push(&mut self, now: SimTime, vci: Vci, info: &[u8]) -> ReassemblyEvent {
        let Some(slot) = self.vci_index.get(vci.0) else {
            self.stats.unknown_vc_drops += 1;
            return ReassemblyEvent::UnknownVc;
        };

        // CRC Logic: an errored cell is dropped and its slot overwritten.
        let Ok(cell) = SarCell::new_checked(info) else {
            self.stats.crc_drops += 1;
            return ReassemblyEvent::CrcDropped;
        };
        let hdr = cell.header();

        let generation = self.slots[slot as usize].generation;
        let vc = &mut self.slots[slot as usize];

        // Bind to a buffer: continue the current frame, or claim an
        // idle buffer, and memory from the pool, for a new one.
        let idx = match vc.current {
            Some(i) => i,
            None => match vc.buffers[..self.config.buffers_per_vc]
                .iter()
                .position(|b| b.state == BufState::Idle)
            {
                Some(i) => {
                    let deadline = now + vc.timeout;
                    let b = &mut vc.buffers[i];
                    debug_assert_eq!(b.data.capacity(), 0, "an idle buffer holds no memory");
                    b.data = self.pool.get();
                    b.state = BufState::Assembling;
                    b.started_at = now;
                    b.deadline = deadline;
                    b.control = hdr.control;
                    vc.current = Some(i as u8);
                    let key = TimerKey { slot, generation, buf: i as u8 };
                    let id = self.timers.insert(deadline, key);
                    self.slots[slot as usize].buffers[i].timer = Some(id);
                    i as u8
                }
                None => {
                    self.stats.no_buffer_drops += 1;
                    return ReassemblyEvent::NoBuffer;
                }
            },
        };
        let vc = &mut self.slots[slot as usize];
        let buf = &mut vc.buffers[idx as usize];

        // Sequenced delivery check (§5.2): mismatch flags the frame.
        //
        // Classification: loss and misinsertion both show up as jumps,
        // and the per-frame sequence restart makes any single jump
        // ambiguous (a burst spanning a frame boundary produces backward
        // jumps too). Misinsertion is convicted only on the compound
        // signature loss cannot produce: a *backward* jump (loss only
        // ever moves a frame's sequence forward; going backward means a
        // cell from the past) immediately followed by the stream
        // *resuming* at exactly the expectation the jump abandoned (a
        // dropped cell is gone — the stream never comes back to the
        // number it skipped, whereas a misinserted cell's victim stream
        // was never really diverted). The window is one cell: an
        // in-sequence cell or a forward jump clears the pending target,
        // and a jump back to seq 0 is the next frame's first cell after
        // tail loss, not an intruder. A misinserted cell whose foreign
        // sequence number happens to run *ahead* of the victim's is
        // booked as loss — indistinguishable at this layer, and the
        // frame dies errored either way. The distinction survives to
        // the drop reason so loss is never booked as misinsertion.
        if hdr.seq != buf.expected_seq {
            buf.errored = true;
            self.stats.seq_errors += 1;
            let forward = hdr.seq.wrapping_sub(buf.expected_seq) & 0x3FF;
            if buf.resume_seq == Some(hdr.seq) && hdr.seq != 0 {
                buf.misinserted = true;
                self.stats.seq_misinserts += 1;
                buf.resume_seq = None;
            } else if forward > 512 && hdr.seq != 0 {
                buf.resume_seq = Some(buf.expected_seq);
            } else {
                buf.resume_seq = None;
            }
        } else {
            buf.resume_seq = None;
        }
        buf.expected_seq = hdr.seq.wrapping_add(1) & 0x3FF;

        if buf.cells() as usize >= BUFFER_CELLS {
            // Write would run past the buffer's end address.
            buf.errored = true;
            self.stats.overflow_drops += 1;
            if !hdr.final_cell {
                return ReassemblyEvent::Overflow;
            }
            // Fall through on F so the frame terminates (and is almost
            // certainly discarded as errored below).
        } else {
            buf.data.extend_from_slice(cell.payload());
            self.stats.cells_stored += 1;
            self.occupancy += 1;
        }

        if !hdr.final_cell {
            return ReassemblyEvent::Stored;
        }

        // F bit: frame ends; the reassembly timer disarms.
        if let Some(id) = buf.timer.take() {
            self.timers.cancel(id);
        }

        // Decide forward vs discard.
        let errored = buf.errored;
        if errored && !self.config.forward_errored_frames {
            let cells = buf.cells();
            let misinserted = buf.misinserted;
            self.occupancy -= cells as usize;
            self.stats.cells_discarded += u64::from(cells);
            self.pool.put(std::mem::take(&mut buf.data));
            buf.reset();
            vc.current = None;
            self.stats.frames_discarded += 1;
            return ReassemblyEvent::DiscardedErrored { cells, misinserted };
        }
        // The frame takes the buffer's memory with it; the buffer stays
        // queued, holding none, until released.
        let data = std::mem::take(&mut buf.data);
        let cells = (data.len() / SAR_PAYLOAD_SIZE) as u16;
        self.occupancy -= cells as usize;
        self.stats.cells_completed += u64::from(cells);
        let frame = ReassembledFrame {
            vci,
            control: buf.control,
            data,
            cells,
            partial: false,
            errored,
            started_at: buf.started_at,
            completed_at: now,
        };
        buf.state = BufState::Queued;
        buf.expected_seq = 0;
        buf.errored = false;
        buf.misinserted = false;
        buf.resume_seq = None;
        vc.current = None;
        self.stats.frames_complete += 1;
        ReassemblyEvent::Complete(frame)
    }

    /// Release one queued buffer on `vci` — the MPP has read the frame
    /// out of the reassembly buffer, freeing it for the next frame.
    pub fn release(&mut self, vci: Vci) {
        let Some(slot) = self.vci_index.get(vci.0) else { return };
        let vc = &mut self.slots[slot as usize];
        if let Some(b) = vc.buffers.iter_mut().find(|b| b.state == BufState::Queued) {
            self.occupancy -= b.cells() as usize;
            b.reset();
        }
    }

    /// Fire expired reassembly timers (§5.3): frames whose deadline
    /// passed without a final cell are flushed, partial, to the MPP.
    /// Cost is O(expired), not O(open connections).
    #[expect(
        clippy::disallowed_methods,
        reason = "timeout flush is the paper's exception path (§5.3), O(expired) housekeeping off the per-cell path"
    )]
    pub fn check_timeouts(&mut self, now: SimTime) -> Vec<ReassembledFrame> {
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        self.timers.poll(now, &mut expired);
        if expired.is_empty() {
            self.expired = expired;
            return Vec::new();
        }
        let mut flushed = Vec::new();
        for &(deadline, key) in &expired {
            let Some(s) = self.slots.get_mut(key.slot as usize) else { continue };
            // A retired-and-reused slot, or a buffer re-armed for a newer
            // frame, never matches: cancel discipline plus the generation
            // tag and exact-deadline check make stale fires inert.
            if !s.open || s.generation != key.generation {
                continue;
            }
            let buf = &mut s.buffers[key.buf as usize];
            if buf.state != BufState::Assembling || buf.deadline != deadline {
                continue;
            }
            buf.timer = None;
            let data = std::mem::take(&mut buf.data);
            let cells = (data.len() / SAR_PAYLOAD_SIZE) as u16;
            self.occupancy -= cells as usize;
            self.stats.cells_flushed += u64::from(cells);
            let frame = ReassembledFrame {
                vci: s.vci,
                control: buf.control,
                data,
                cells,
                partial: true,
                errored: buf.errored,
                started_at: buf.started_at,
                completed_at: now,
            };
            buf.reset();
            s.current = None;
            self.stats.timeouts += 1;
            flushed.push(frame);
        }
        self.expired = expired;
        flushed.sort_by_key(|f| f.vci);
        flushed
    }

    /// Earliest pending reassembly deadline, for event scheduling.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.next_deadline()
    }

    /// Cells currently held across all buffers (occupancy, for E6).
    pub fn occupancy_cells(&self) -> usize {
        self.occupancy
    }

    /// Buffers holding pool memory: those with a frame in progress. An
    /// idle, queued or retired buffer holds none. The pool census
    /// invariant: pool gets − puts == residents + frames handed out and
    /// not yet recycled, so after a full drain the outstanding count
    /// equals exactly this.
    pub fn resident_buffers(&self) -> usize {
        self.slots.iter().flat_map(|s| &s.buffers).filter(|b| b.data.capacity() != 0).count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReassemblyConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment;

    const VC: Vci = Vci(42);

    fn reassembler() -> Reassembler {
        let mut r = Reassembler::new(ReassemblyConfig::default());
        r.open_vc(VC);
        r
    }

    fn push_all(r: &mut Reassembler, frame: &[u8], control: bool) -> Vec<ReassemblyEvent> {
        segment(frame, control)
            .unwrap()
            .iter()
            .map(|c| r.push(SimTime::ZERO, VC, c.as_bytes()))
            .collect()
    }

    #[test]
    fn close_vc_mid_frame_frees_buffers_without_leak() {
        let mut r = reassembler();
        let cells = segment(&vec![5u8; 300], false).unwrap();
        // Half a frame arrives, then the VC is closed (quarantined).
        for c in &cells[..cells.len() / 2] {
            r.push(SimTime::ZERO, VC, c.as_bytes());
        }
        assert!(r.occupancy_cells() > 0, "partial frame held");
        r.close_vc(VC);
        assert_eq!(r.occupancy_cells(), 0, "close must free all buffers");
        assert!(!r.is_open(VC));
        assert_eq!(r.next_deadline(), None, "no timer survives the close");
        // The rest of the torn frame is now unknown-VC noise.
        let before = r.stats().frames_complete;
        for c in &cells[cells.len() / 2..] {
            assert_eq!(r.push(SimTime::ZERO, VC, c.as_bytes()), ReassemblyEvent::UnknownVc);
        }
        assert_eq!(r.stats().frames_complete, before, "no torn frame delivered");
    }

    #[test]
    fn reopened_vc_does_not_resurrect_torn_frame() {
        let mut r = reassembler();
        let cells = segment(&vec![6u8; 300], false).unwrap();
        for c in &cells[..2] {
            r.push(SimTime::ZERO, VC, c.as_bytes());
        }
        r.close_vc(VC);
        r.open_vc(VC);
        assert_eq!(r.occupancy_cells(), 0, "reopen starts clean");
        // The tail of the old frame ends with an F cell mid-sequence:
        // the sequence check must flag it, and the frame is discarded
        // rather than delivered torn.
        let mut last = ReassemblyEvent::Stored;
        for c in &cells[2..] {
            last = r.push(SimTime::from_us(1), VC, c.as_bytes());
        }
        assert!(
            matches!(last, ReassemblyEvent::DiscardedErrored { .. }),
            "tail of a torn frame must be discarded, got {last:?}"
        );
        // A fresh, whole frame then flows normally.
        let events = push_all(&mut r, &[7u8; 120], false);
        assert!(matches!(events.last().unwrap(), ReassemblyEvent::Complete(_)));
    }

    #[test]
    fn single_frame_roundtrip() {
        let mut r = reassembler();
        let frame: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let events = push_all(&mut r, &frame, false);
        let last = events.last().unwrap();
        match last {
            ReassemblyEvent::Complete(f) => {
                assert_eq!(&f.data[..200], &frame[..]);
                assert_eq!(f.cells, 5);
                assert!(!f.partial && !f.errored && !f.control);
            }
            other => panic!("expected Complete, got {other:?}"),
        }
        assert_eq!(r.stats().frames_complete, 1);
    }

    #[test]
    fn control_frames_marked() {
        let mut r = reassembler();
        let events = push_all(&mut r, &[1u8; 50], true);
        match events.last().unwrap() {
            ReassemblyEvent::Complete(f) => assert!(f.control),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_vc_dropped() {
        let mut r = Reassembler::new(ReassemblyConfig::default());
        let cell = segment(&[0u8; 10], false).unwrap().remove(0);
        assert_eq!(r.push(SimTime::ZERO, Vci(9), cell.as_bytes()), ReassemblyEvent::UnknownVc);
        assert_eq!(r.stats().unknown_vc_drops, 1);
    }

    #[test]
    fn crc_error_drops_cell_without_advancing() {
        let mut r = reassembler();
        let cells = segment(&[3u8; 90], false).unwrap();
        // Corrupt the first cell.
        let mut bad = [0u8; 48];
        bad.copy_from_slice(cells[0].as_bytes());
        bad[10] ^= 0x01;
        assert_eq!(r.push(SimTime::ZERO, VC, &bad), ReassemblyEvent::CrcDropped);
        assert_eq!(r.stats().crc_drops, 1);
        // Retransmit (or, in hardware terms: the good copy) still builds
        // a clean frame — the buffer slot was overwritten, not advanced.
        for c in &cells {
            r.push(SimTime::ZERO, VC, c.as_bytes());
        }
        assert_eq!(r.stats().frames_complete, 1);
    }

    #[test]
    fn lost_cell_discards_frame() {
        let mut r = reassembler();
        let cells = segment(&[9u8; 45 * 4], false).unwrap();
        // Deliver all but cell 2.
        let mut last_event = ReassemblyEvent::Stored;
        for (i, c) in cells.iter().enumerate() {
            if i == 2 {
                continue;
            }
            last_event = r.push(SimTime::ZERO, VC, c.as_bytes());
        }
        assert_eq!(last_event, ReassemblyEvent::DiscardedErrored { cells: 3, misinserted: false });
        assert_eq!(r.stats().seq_errors, 1);
        assert_eq!(r.stats().seq_misinserts, 0, "a forward skip is plain loss");
        assert_eq!(r.stats().frames_discarded, 1);
        assert_eq!(r.stats().frames_complete, 0);
        assert_eq!(r.stats().cells_discarded, 3);
    }

    #[test]
    fn foreign_cell_intrusion_classified_as_misinsertion() {
        let mut r = reassembler();
        let cells = segment(&[5u8; 45 * 4], false).unwrap();
        // A foreign cell (a misinserted cell from another VC, carrying
        // that stream's lagging sequence number) intrudes mid-frame:
        // the backward jump, immediately followed by the victim's own
        // stream resuming exactly where it left off, is the compound
        // signature loss can never produce.
        let foreign = gw_wire::sar::OwnedSarCell::build(1, false, false, &[0xEE; 45]).unwrap();
        let mut last_event = ReassemblyEvent::Stored;
        for (i, c) in cells.iter().enumerate() {
            if i == 3 {
                last_event = r.push(SimTime::ZERO, VC, foreign.as_bytes());
                assert!(matches!(last_event, ReassemblyEvent::Stored));
            }
            last_event = r.push(SimTime::ZERO, VC, c.as_bytes());
        }
        assert!(
            matches!(last_event, ReassemblyEvent::DiscardedErrored { misinserted: true, .. }),
            "sequence resumption after a backward jump must carry the misinsertion mark, got {last_event:?}"
        );
        assert_eq!(r.stats().seq_misinserts, 1);
        assert!(r.stats().seq_errors >= 2, "the intruder and the resumption both mismatch");
        assert_eq!(r.stats().frames_discarded, 1);
    }

    #[test]
    fn duplicated_cell_discards_without_misinsertion_mark() {
        let mut r = reassembler();
        let cells = segment(&[5u8; 45 * 4], false).unwrap();
        // Cell 1 arrives twice. The duplicate rewinds `expected_seq` to
        // 2, which the very next real cell satisfies — no resumption
        // mismatch ever fires, so the frame is discarded as ordinary
        // sequence error, not misinsertion (the duplicate is
        // indistinguishable from boundary loss at this layer).
        let mut last_event = ReassemblyEvent::Stored;
        for (i, c) in cells.iter().enumerate() {
            last_event = r.push(SimTime::ZERO, VC, c.as_bytes());
            if i == 1 {
                last_event = r.push(SimTime::ZERO, VC, c.as_bytes());
            }
        }
        assert!(
            matches!(last_event, ReassemblyEvent::DiscardedErrored { misinserted: false, .. }),
            "duplicate must still kill the frame, got {last_event:?}"
        );
        assert_eq!(r.stats().seq_misinserts, 0);
        assert!(r.stats().seq_errors >= 1);
        assert_eq!(r.stats().frames_discarded, 1);
    }

    #[test]
    fn tail_loss_then_next_frame_is_not_misinsertion() {
        // Frame A loses its final cells; the first cell of frame B (seq
        // 0) then jumps the sequence backward. That backward jump is the
        // ordinary tail-loss signature, not misinsertion — regression
        // for the classifier booking it as a foreign cell.
        let mut r = reassembler();
        let a = segment(&[7u8; 45 * 4], false).unwrap();
        for c in &a[..3] {
            assert_eq!(r.push(SimTime::ZERO, VC, c.as_bytes()), ReassemblyEvent::Stored);
        }
        let b = segment(&[8u8; 45 * 2], false).unwrap();
        assert_eq!(r.push(SimTime::ZERO, VC, b[0].as_bytes()), ReassemblyEvent::Stored);
        let ev = r.push(SimTime::ZERO, VC, b[1].as_bytes());
        assert!(
            matches!(ev, ReassemblyEvent::DiscardedErrored { misinserted: false, .. }),
            "tail loss must stay classified as loss, got {ev:?}"
        );
        assert_eq!(r.stats().seq_misinserts, 0);
        assert!(r.stats().seq_errors >= 1);
    }

    #[test]
    fn cell_disposition_counters_balance() {
        let mut r = reassembler();
        // One completed frame (3 cells)…
        push_all(&mut r, &[1u8; 45 * 3], false);
        // …one timer-flushed partial (2 cells stored, no F)…
        let cells = segment(&[2u8; 45 * 4], false).unwrap();
        r.push(SimTime::from_us(1), Vci(8), cells[0].as_bytes());
        assert_eq!(r.stats().unknown_vc_drops, 1);
        r.open_vc(Vci(8));
        r.push(SimTime::from_us(1), Vci(8), cells[0].as_bytes());
        r.push(SimTime::from_us(1), Vci(8), cells[1].as_bytes());
        let flushed = r.check_timeouts(SimTime::from_ms(100));
        assert_eq!(flushed.len(), 1);
        for f in flushed {
            r.recycle(f.data);
        }
        // …and one frame torn down mid-assembly (1 cell held at close).
        r.open_vc(Vci(9));
        r.push(SimTime::from_ms(100), Vci(9), cells[0].as_bytes());
        r.close_vc(Vci(9));
        let s = r.stats();
        assert_eq!(s.cells_completed, 3);
        assert_eq!(s.cells_flushed, 2);
        assert_eq!(s.cells_closed, 1);
        assert_eq!(
            s.cells_stored,
            s.cells_completed
                + s.cells_discarded
                + s.cells_flushed
                + s.cells_closed
                + r.occupancy_cells() as u64,
            "every stored cell must be accounted for"
        );
        assert_eq!(r.occupancy_cells(), 0);
    }

    #[test]
    fn errored_frames_forwarded_when_configured() {
        let mut r = Reassembler::new(ReassemblyConfig {
            forward_errored_frames: true,
            ..Default::default()
        });
        r.open_vc(VC);
        let cells = segment(&[9u8; 45 * 4], false).unwrap();
        let mut completes = 0;
        for (i, c) in cells.iter().enumerate() {
            if i == 1 {
                continue;
            }
            if let ReassemblyEvent::Complete(f) = r.push(SimTime::ZERO, VC, c.as_bytes()) {
                assert!(f.errored);
                completes += 1;
            }
        }
        assert_eq!(completes, 1);
    }

    #[test]
    fn two_buffers_pipeline_without_release() {
        let mut r = reassembler();
        // Frame 1 completes and its buffer stays queued.
        push_all(&mut r, &[1u8; 45], false);
        // Frame 2 can still assemble in the second buffer.
        let ev = push_all(&mut r, &[2u8; 45], false);
        assert!(matches!(ev.last().unwrap(), ReassemblyEvent::Complete(_)));
        // Frame 3 has no idle buffer: both are queued.
        let cells = segment(&[3u8; 45], false).unwrap();
        assert_eq!(r.push(SimTime::ZERO, VC, cells[0].as_bytes()), ReassemblyEvent::NoBuffer);
        assert_eq!(r.stats().no_buffer_drops, 1);
        // Releasing one lets frame 4 through.
        r.release(VC);
        let ev = push_all(&mut r, &[4u8; 45], false);
        assert!(matches!(ev.last().unwrap(), ReassemblyEvent::Complete(_)));
    }

    #[test]
    fn single_buffer_stalls_immediately() {
        let mut r = Reassembler::new(ReassemblyConfig { buffers_per_vc: 1, ..Default::default() });
        r.open_vc(VC);
        push_all(&mut r, &[1u8; 45], false);
        let cells = segment(&[2u8; 45], false).unwrap();
        assert_eq!(r.push(SimTime::ZERO, VC, cells[0].as_bytes()), ReassemblyEvent::NoBuffer);
        r.release(VC);
        let ev = push_all(&mut r, &[2u8; 45], false);
        assert!(matches!(ev.last().unwrap(), ReassemblyEvent::Complete(_)));
    }

    #[test]
    #[should_panic(expected = "one or two buffers per VC")]
    fn three_buffers_per_vc_are_rejected() {
        Reassembler::new(ReassemblyConfig { buffers_per_vc: 3, ..Default::default() });
    }

    #[test]
    fn timeout_flushes_partial_frame() {
        let mut r = Reassembler::new(ReassemblyConfig {
            timeout: SimTime::from_us(100),
            ..Default::default()
        });
        r.open_vc(VC);
        let cells = segment(&[7u8; 45 * 3], false).unwrap();
        r.push(SimTime::from_ns(0), VC, cells[0].as_bytes());
        r.push(SimTime::from_ns(10), VC, cells[1].as_bytes());
        // Final cell never arrives.
        assert!(r.check_timeouts(SimTime::from_us(99)).is_empty());
        let flushed = r.check_timeouts(SimTime::from_us(100));
        assert_eq!(flushed.len(), 1);
        let f = &flushed[0];
        assert!(f.partial);
        assert_eq!(f.cells, 2);
        assert_eq!(f.started_at, SimTime::ZERO);
        assert_eq!(r.stats().timeouts, 1);
        // VC is reusable after the flush.
        let ev: Vec<_> =
            cells.iter().map(|c| r.push(SimTime::from_us(200), VC, c.as_bytes())).collect();
        assert!(matches!(ev.last().unwrap(), ReassemblyEvent::Complete(_)));
    }

    #[test]
    fn per_vc_timeouts_differ() {
        let mut r = Reassembler::new(ReassemblyConfig::default());
        r.open_vc_with_timeout(Vci(1), SimTime::from_us(10));
        r.open_vc_with_timeout(Vci(2), SimTime::from_us(1000));
        let cells = segment(&[0u8; 90], false).unwrap();
        r.push(SimTime::ZERO, Vci(1), cells[0].as_bytes());
        r.push(SimTime::ZERO, Vci(2), cells[0].as_bytes());
        let flushed = r.check_timeouts(SimTime::from_us(10));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].vci, Vci(1));
    }

    #[test]
    fn next_deadline_tracks_earliest() {
        let mut r = Reassembler::new(ReassemblyConfig::default());
        r.open_vc_with_timeout(Vci(1), SimTime::from_us(50));
        r.open_vc_with_timeout(Vci(2), SimTime::from_us(20));
        assert_eq!(r.next_deadline(), None);
        let cells = segment(&[0u8; 90], false).unwrap();
        r.push(SimTime::ZERO, Vci(1), cells[0].as_bytes());
        assert_eq!(r.next_deadline(), Some(SimTime::from_us(50)));
        r.push(SimTime::ZERO, Vci(2), cells[0].as_bytes());
        assert_eq!(r.next_deadline(), Some(SimTime::from_us(20)));
    }

    #[test]
    fn overflow_detected() {
        // Two cells more than the 91-cell buffer holds (§5.3).
        let mut r = reassembler();
        let cells = segment(&[1u8; 45 * (BUFFER_CELLS + 2)], false).unwrap();
        let mut events = Vec::new();
        for c in &cells {
            events.push(r.push(SimTime::ZERO, VC, c.as_bytes()));
        }
        assert_eq!(events[BUFFER_CELLS], ReassemblyEvent::Overflow);
        // Frame terminates errored on F.
        assert!(matches!(events.last().unwrap(), ReassemblyEvent::DiscardedErrored { .. }));
        assert_eq!(r.stats().overflow_drops, 2);
    }

    #[test]
    fn concurrent_reassembly_across_vcs() {
        let mut r = Reassembler::new(ReassemblyConfig::default());
        let n = 32u16;
        let frames: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 45 * 3]).collect();
        let cellsets: Vec<_> = frames.iter().map(|f| segment(f, false).unwrap()).collect();
        for i in 0..n {
            r.open_vc(Vci(i));
        }
        // Interleave: cell 0 of every VC, then cell 1 of every VC, ...
        let mut complete = 0;
        for ci in 0..3 {
            for (vi, cells) in cellsets.iter().enumerate() {
                if let ReassemblyEvent::Complete(f) =
                    r.push(SimTime::ZERO, Vci(vi as u16), cells[ci].as_bytes())
                {
                    assert_eq!(f.data, frames[vi]);
                    complete += 1;
                }
            }
        }
        assert_eq!(complete, n as usize);
        assert_eq!(r.stats().frames_complete, n as u64);
    }

    #[test]
    fn occupancy_tracks_cells() {
        let mut r = reassembler();
        assert_eq!(r.occupancy_cells(), 0);
        let cells = segment(&[0u8; 45 * 3], false).unwrap();
        r.push(SimTime::ZERO, VC, cells[0].as_bytes());
        r.push(SimTime::ZERO, VC, cells[1].as_bytes());
        assert_eq!(r.occupancy_cells(), 2);
    }

    #[test]
    fn close_vc_discards_state() {
        let mut r = reassembler();
        let cells = segment(&[0u8; 90], false).unwrap();
        r.push(SimTime::ZERO, VC, cells[0].as_bytes());
        r.close_vc(VC);
        assert!(!r.is_open(VC));
        assert_eq!(r.push(SimTime::ZERO, VC, cells[1].as_bytes()), ReassemblyEvent::UnknownVc);
        assert_eq!(r.open_count(), 0);
    }

    #[test]
    fn sequence_number_wraps_mod_1024() {
        // A frame cannot exceed 1024 cells, but back-to-back frames reuse
        // seq 0; ensure expected_seq resets between frames.
        let mut r = reassembler();
        for _ in 0..3 {
            let ev = push_all(&mut r, &[1u8; 45 * 2], false);
            assert!(matches!(ev.last().unwrap(), ReassemblyEvent::Complete(_)));
            r.release(VC);
        }
        assert_eq!(r.stats().seq_errors, 0);
    }

    #[test]
    fn retired_slot_timer_cannot_fire_into_new_tenancy() {
        // Arm a reassembly timer, retire the VC, reuse the slot (same
        // VCI), and start a fresh frame: the old tenancy's deadline must
        // not flush the new frame.
        let mut r = Reassembler::new(ReassemblyConfig {
            timeout: SimTime::from_us(100),
            ..Default::default()
        });
        r.open_vc(VC);
        let cells = segment(&[7u8; 45 * 3], false).unwrap();
        r.push(SimTime::ZERO, VC, cells[0].as_bytes());
        r.close_vc(VC);
        r.open_vc(VC); // recycles the same dense slot, new generation
        r.push(SimTime::from_us(50), VC, cells[0].as_bytes());
        // The old tenancy's deadline (100 us) passes; the new frame's own
        // deadline is 150 us and must be the only one armed.
        assert!(r.check_timeouts(SimTime::from_us(100)).is_empty());
        assert_eq!(r.next_deadline(), Some(SimTime::from_us(150)));
        let flushed = r.check_timeouts(SimTime::from_us(150));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].cells, 1);
    }

    #[test]
    fn recycled_frames_keep_the_pool_warm() {
        let mut r = reassembler();
        // Warm-up: the first completions draw fresh buffers.
        for _ in 0..3 {
            for ev in push_all(&mut r, &[1u8; 45 * 2], false) {
                if let ReassemblyEvent::Complete(f) = ev {
                    r.recycle(f.data);
                }
            }
            r.release(VC);
        }
        let misses_before = r.pool_stats().misses;
        for _ in 0..16 {
            for ev in push_all(&mut r, &[2u8; 45 * 2], false) {
                if let ReassemblyEvent::Complete(f) = ev {
                    r.recycle(f.data);
                }
            }
            r.release(VC);
        }
        assert_eq!(
            r.pool_stats().misses,
            misses_before,
            "steady-state completions must be served entirely from the pool"
        );
    }

    #[test]
    fn dense_index_isolates_vcis() {
        // Extremes of the 16-bit VCI space resolve to distinct slots.
        let mut r = Reassembler::new(ReassemblyConfig::default());
        r.open_vc(Vci(0));
        r.open_vc(Vci(u16::MAX));
        let cells = segment(&[3u8; 45], false).unwrap();
        assert!(matches!(
            r.push(SimTime::ZERO, Vci(0), cells[0].as_bytes()),
            ReassemblyEvent::Complete(_)
        ));
        assert!(matches!(
            r.push(SimTime::ZERO, Vci(u16::MAX), cells[0].as_bytes()),
            ReassemblyEvent::Complete(_)
        ));
        assert_eq!(r.open_count(), 2);
        r.close_vc(Vci(0));
        assert!(r.is_open(Vci(u16::MAX)));
        assert!(!r.is_open(Vci(0)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::segment::segment;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any frame delivered in order, intact, reassembles to its
        /// padded self with no errors.
        #[test]
        fn lossless_roundtrip(frame in proptest::collection::vec(any::<u8>(), 1..2048), control: bool) {
            let mut r = Reassembler::new(ReassemblyConfig::default());
            r.open_vc(Vci(1));
            let mut out = None;
            for c in segment(&frame, control).unwrap() {
                if let ReassemblyEvent::Complete(f) = r.push(SimTime::ZERO, Vci(1), c.as_bytes()) {
                    out = Some(f);
                }
            }
            let f = out.expect("frame must complete");
            prop_assert_eq!(&f.data[..frame.len()], &frame[..]);
            prop_assert!(!f.errored);
            prop_assert_eq!(f.control, control);
        }

        /// Dropping any single non-final cell of a multi-cell frame causes
        /// discard, never a corrupted Complete.
        #[test]
        fn any_single_loss_discards(ncells in 2usize..30, drop_at_frac in 0.0f64..1.0) {
            let frame = vec![0xA5u8; ncells * 45];
            let cells = segment(&frame, false).unwrap();
            let drop_at = ((ncells - 1) as f64 * drop_at_frac) as usize; // never the final cell
            let mut r = Reassembler::new(ReassemblyConfig::default());
            r.open_vc(Vci(1));
            let mut outcome = None;
            for (i, c) in cells.iter().enumerate() {
                if i == drop_at { continue; }
                outcome = Some(r.push(SimTime::ZERO, Vci(1), c.as_bytes()));
            }
            let discarded = matches!(outcome.unwrap(), ReassemblyEvent::DiscardedErrored { .. });
            prop_assert!(discarded);
            prop_assert_eq!(r.stats().frames_complete, 0);
        }

        /// Interleaved multi-VC delivery with per-round VCI retire/reuse:
        /// every frame round-trips byte-identically through the dense
        /// generation-tagged tables and the recycled pool buffers.
        #[test]
        fn interleaved_multi_vc_roundtrip_with_retire_reuse(
            nvcs in 2usize..12,
            rounds in 1usize..4,
            seed in any::<u8>(),
            retire_mask in any::<u16>(),
        ) {
            let mut r = Reassembler::new(ReassemblyConfig::default());
            for v in 0..nvcs {
                r.open_vc(Vci(v as u16));
            }
            for round in 0..rounds {
                // Distinct payload per (vc, round) so cross-VC or
                // cross-tenancy mixups corrupt bytes detectably.
                let frames: Vec<Vec<u8>> = (0..nvcs)
                    .map(|v| vec![seed ^ (v as u8) ^ (round as u8).wrapping_mul(31); 45 * (1 + v % 4)])
                    .collect();
                let cellsets: Vec<_> =
                    frames.iter().map(|f| segment(f, false).unwrap()).collect();
                let depth = cellsets.iter().map(|c| c.len()).max().unwrap();
                let mut completed = vec![false; nvcs];
                // Interleave: cell i of every VC, then cell i+1 of every VC.
                for ci in 0..depth {
                    for (v, cells) in cellsets.iter().enumerate() {
                        let Some(c) = cells.get(ci) else { continue };
                        match r.push(SimTime::ZERO, Vci(v as u16), c.as_bytes()) {
                            ReassemblyEvent::Complete(f) => {
                                prop_assert_eq!(f.vci, Vci(v as u16));
                                prop_assert_eq!(&f.data[..frames[v].len()], &frames[v][..]);
                                prop_assert!(!f.errored);
                                completed[v] = true;
                                r.recycle(f.data);
                                r.release(Vci(v as u16));
                            }
                            ReassemblyEvent::Stored => {}
                            other => prop_assert!(false, "unexpected event {:?}", other),
                        }
                    }
                }
                prop_assert!(completed.iter().all(|&c| c), "every VC's frame completes");
                // Retire and immediately reuse a subset of VCIs: their
                // dense slots recycle with a fresh generation.
                for v in 0..nvcs {
                    if retire_mask & (1 << (v % 16)) != 0 {
                        r.close_vc(Vci(v as u16));
                        r.open_vc(Vci(v as u16));
                    }
                }
            }
            prop_assert_eq!(r.stats().seq_errors, 0);
            prop_assert_eq!(r.stats().frames_complete as usize, nvcs * rounds);
        }
    }
}
