//! The port driver: the one loop between a gateway and its two ports.
//!
//! [`PortDriver`] owns the gateway side of the ATM cell port and of the
//! SUPERNET frame port, each under its own [`TransportSupervisor`], and
//! works on a borrowed [`Gateway`]. `gwd`'s [`crate::Appliance`] and the
//! co-sim testbed both reach the gateway through it (DESIGN.md §11).
//! Each cell and frame enters the gateway at its line stamp, clamped
//! into [that port's last admission, `now`] and raised to the latest
//! time the gateway was advanced to before `now`; a cell the gateway
//! emits goes to the cell port; and what neither port carries goes
//! back to the caller's [`HandBack`]. An I/O error takes its port
//! down through the supervisor and the mgmt port health
//! (`Reconnecting`, a retry count per backoff attempt, recovery
//! through `Degraded`, all in `gw-snapshot/1`); what the gateway emits
//! toward a downed port is lost, like traffic into a severed link.

use crate::supervisor::TransportSupervisor;
use crate::{CellPhy, FramePhy, PhyStats};
use gw_gateway::gateway::Output;
use gw_gateway::Gateway;
use gw_mgmt::Port;
use gw_sim::time::SimTime;
use gw_wire::atm::CELL_SIZE;

/// The caller's half of a gateway call. It takes each connection
/// request or release, in emission order, before the driver sends the
/// same call's cells: the cell port then carries every cell earlier
/// calls emitted and none of this call's, and the driver and gateway
/// passed along let the caller move those onto its line first.
pub type HandBack<'a> = dyn FnMut(&mut PortDriver, &mut Gateway, Output) + 'a;

/// The gateway side of both ports, their supervisors and scratch.
pub struct PortDriver {
    cell: Box<dyn CellPhy>,
    frame: Box<dyn FramePhy>,
    atm_sup: TransportSupervisor,
    fddi_sup: TransportSupervisor,
    /// The latest admission on the cell port, and on the frame port.
    cell_floor: SimTime,
    frame_floor: SimTime,
    /// The latest `advance` time, and the one before it that was
    /// earlier: together they give the latest advance before any `now`.
    advanced: SimTime,
    advanced_before: SimTime,
    cells: Vec<(SimTime, [u8; CELL_SIZE])>,
    frames: Vec<(SimTime, Vec<u8>, bool)>,
    out: Vec<Output>,
}

impl PortDriver {
    /// Drive `cell` and `frame`. Both supervisors pace reconnects by
    /// the gateway's setup backoff schedule.
    pub fn new(cell: Box<dyn CellPhy>, frame: Box<dyn FramePhy>) -> PortDriver {
        PortDriver {
            cell,
            frame,
            atm_sup: TransportSupervisor::default(),
            fddi_sup: TransportSupervisor::default(),
            cell_floor: SimTime::ZERO,
            frame_floor: SimTime::ZERO,
            advanced: SimTime::ZERO,
            advanced_before: SimTime::ZERO,
            cells: Vec::new(),
            frames: Vec::new(),
            out: Vec::new(),
        }
    }

    fn sup(&mut self, port: Port) -> &mut TransportSupervisor {
        match port {
            Port::Atm => &mut self.atm_sup,
            Port::Fddi => &mut self.fddi_sup,
        }
    }

    /// Where a stamp admitted at `now` enters: clamped into [the
    /// port's last admission, `now`], and never before the latest time
    /// the gateway was advanced to before `now`, so a peer whose clock
    /// lags the gateway's cannot start a frame behind timers that have
    /// already run.
    fn admission(&self, stamp: SimTime, now: SimTime, port_floor: SimTime) -> SimTime {
        let tick = if now > self.advanced { self.advanced } else { self.advanced_before };
        stamp.min(now).max(port_floor).max(tick)
    }

    fn fail(&mut self, gw: &mut Gateway, now: SimTime, port: Port) {
        self.sup(port).error(now);
        gw.note_transport_down(now, port);
    }

    /// Move `port`'s transport; a downed port instead retries when its
    /// backoff is due.
    pub fn pump(&mut self, gw: &mut Gateway, now: SimTime, port: Port) {
        if self.sup(port).is_up() {
            let res = match port {
                Port::Atm => self.cell.pump(now),
                Port::Fddi => self.frame.pump(now),
            };
            if res.is_err() {
                self.fail(gw, now, port);
            }
        } else if self.sup(port).poll(now) {
            gw.note_transport_retry(now, port);
            let res = match port {
                Port::Atm => self.cell.reconnect().and_then(|()| self.cell.pump(now)),
                Port::Fddi => self.frame.reconnect().and_then(|()| self.frame.pump(now)),
            };
            if res.is_ok() {
                self.sup(port).recovered();
                gw.note_transport_up(now, port);
            }
        }
    }

    /// Admit every cell the cell port has delivered, one gateway call
    /// each; true if there was any.
    pub fn admit_cells(&mut self, gw: &mut Gateway, now: SimTime, back: &mut HandBack) -> bool {
        if !self.atm_sup.is_up() {
            return false;
        }
        let mut cells = std::mem::take(&mut self.cells);
        if self.cell.poll_cells(&mut cells).is_err() {
            self.fail(gw, now, Port::Atm);
        }
        let any = !cells.is_empty();
        // By reference: each cell reaches the AIC from where the port
        // put it (DESIGN.md §15).
        for &(stamp, ref cell) in &cells {
            let at = self.admission(stamp, now, self.cell_floor);
            self.cell_floor = at;
            let cell = std::slice::from_ref(cell);
            self.call(gw, now, |gw, out| gw.deliver_cells(at, cell, out), back);
        }
        cells.clear();
        self.cells = cells;
        any
    }

    /// Admit every frame the frame port has delivered; true if there
    /// was any.
    pub fn admit_frames(&mut self, gw: &mut Gateway, now: SimTime, back: &mut HandBack) -> bool {
        if !self.fddi_sup.is_up() {
            return false;
        }
        let mut frames = std::mem::take(&mut self.frames);
        if self.frame.poll_frames(&mut frames).is_err() {
            self.fail(gw, now, Port::Fddi);
        }
        let any = !frames.is_empty();
        for (stamp, frame, _) in frames.drain(..) {
            let at = self.admission(stamp, now, self.frame_floor);
            self.frame_floor = at;
            self.call(gw, now, |gw, out| *out = gw.fddi_frame_in(at, &frame), back);
        }
        self.frames = frames;
        any
    }

    /// Run the gateway's timers to `now`; true if they emitted anything.
    pub fn advance(&mut self, gw: &mut Gateway, now: SimTime, back: &mut HandBack) -> bool {
        if now > self.advanced {
            self.advanced_before = std::mem::replace(&mut self.advanced, now);
        }
        self.call(gw, now, |gw, out| gw.advance_into(now, out), back)
    }

    /// Make one gateway call that appends to `out` (a signalling answer,
    /// say) and route what it emitted; true if it emitted anything.
    pub fn call(
        &mut self,
        gw: &mut Gateway,
        now: SimTime,
        call: impl FnOnce(&mut Gateway, &mut Vec<Output>),
        back: &mut HandBack,
    ) -> bool {
        let mut out = std::mem::take(&mut self.out);
        call(gw, &mut out);
        let emitted = !out.is_empty();
        for o in &out {
            if !matches!(o, Output::AtmCell { .. } | Output::FddiFrameQueued { .. }) {
                back(self, gw, o.clone());
            }
        }
        for o in &out {
            if let &Output::AtmCell { at, ref cell } = o {
                if self.atm_sup.is_up() && self.cell.send_cell(at, cell).is_err() {
                    self.fail(gw, now, Port::Atm);
                }
            }
        }
        out.clear();
        self.out = out;
        emitted
    }

    /// Send one staged frame toward the ring. False when none is staged
    /// or the frame port is down: a downed port leaves frames staged,
    /// under the transmit buffer's own shedding and overflow accounting,
    /// as a stalled ring would.
    pub fn send_frame(&mut self, gw: &mut Gateway, now: SimTime) -> bool {
        if !self.fddi_sup.is_up() {
            return false;
        }
        let Some((frame, sync)) = gw.pop_fddi_tx(now) else { return false };
        match self.frame.send_frame(now, frame, sync) {
            // A copying transport hands the pool buffer back at the send
            // seam; a pass-through one surfaces it at the far end.
            Ok(Some(buf)) => gw.recycle_frame(buf),
            Ok(None) => {}
            Err(_) => {
                self.fail(gw, now, Port::Fddi);
                return false;
            }
        }
        true
    }

    /// Send what the cell port holds back, so that what a tick emitted
    /// has left when the tick returns.
    pub(crate) fn flush(&mut self, gw: &mut Gateway, now: SimTime) {
        if self.atm_sup.is_up() && self.cell.flush().is_err() {
            self.fail(gw, now, Port::Atm);
        }
    }

    /// Transmissions `port` has not had acknowledged (or holds unsent).
    pub fn in_flight(&self, port: Port) -> usize {
        match port {
            Port::Atm => self.cell.in_flight(),
            Port::Fddi => self.frame.in_flight(),
        }
    }

    /// Transport counters summed over both ports.
    pub fn stats(&self) -> PhyStats {
        let mut s = self.cell.stats();
        s.merge(&self.frame.stats());
        s
    }
}
