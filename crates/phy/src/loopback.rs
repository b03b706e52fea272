//! In-process loopback transport: a pair of endpoints sharing two
//! queues.
//!
//! Delivery is immediate and lossless — `send` on one endpoint makes
//! the item pollable on the other. The frame side passes buffer
//! ownership straight through ([`crate::FramePhy::send_frame`] returns
//! `None`), so a frame drawn from the gateway's MPP pool crosses the
//! seam without copying and the pool census balances when the consumer
//! recycles it. This is the transport the co-sim testbed runs on.

use crate::{CellPhy, FramePhy, PhyError, PhyStats};
use gw_sim::time::SimTime;
use gw_wire::atm::CELL_SIZE;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

type CellQueue = Rc<RefCell<VecDeque<(SimTime, [u8; CELL_SIZE])>>>;
type FrameQueue = Rc<RefCell<VecDeque<(SimTime, Vec<u8>, bool)>>>;

/// One endpoint of a loopback cell pair.
#[derive(Debug)]
pub struct LoopbackCellPhy {
    tx: CellQueue,
    rx: CellQueue,
    stats: PhyStats,
}

/// Two connected cell endpoints: what one sends, the other polls.
pub fn loopback_cell_pair() -> (LoopbackCellPhy, LoopbackCellPhy) {
    let ab: CellQueue = Rc::new(RefCell::new(VecDeque::new()));
    let ba: CellQueue = Rc::new(RefCell::new(VecDeque::new()));
    (
        LoopbackCellPhy { tx: Rc::clone(&ab), rx: Rc::clone(&ba), stats: PhyStats::default() },
        LoopbackCellPhy { tx: ba, rx: ab, stats: PhyStats::default() },
    )
}

impl CellPhy for LoopbackCellPhy {
    fn send_cell(&mut self, at: SimTime, cell: &[u8; CELL_SIZE]) -> Result<(), PhyError> {
        self.tx.borrow_mut().push_back((at, *cell));
        self.stats.datagrams_tx += 1;
        Ok(())
    }

    fn poll_cells(&mut self, out: &mut Vec<(SimTime, [u8; CELL_SIZE])>) -> Result<(), PhyError> {
        let mut rx = self.rx.borrow_mut();
        self.stats.datagrams_rx += rx.len() as u64;
        // Two block copies: extending from a drain goes cell by cell.
        let (front, back) = rx.as_slices();
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        rx.clear();
        Ok(())
    }

    fn pump(&mut self, _now: SimTime) -> Result<(), PhyError> {
        Ok(())
    }

    fn stats(&self) -> PhyStats {
        self.stats
    }
}

/// One endpoint of a loopback frame pair.
#[derive(Debug)]
pub struct LoopbackFramePhy {
    tx: FrameQueue,
    rx: FrameQueue,
    stats: PhyStats,
}

/// Two connected frame endpoints: what one sends, the other polls.
pub fn loopback_frame_pair() -> (LoopbackFramePhy, LoopbackFramePhy) {
    let ab: FrameQueue = Rc::new(RefCell::new(VecDeque::new()));
    let ba: FrameQueue = Rc::new(RefCell::new(VecDeque::new()));
    (
        LoopbackFramePhy { tx: Rc::clone(&ab), rx: Rc::clone(&ba), stats: PhyStats::default() },
        LoopbackFramePhy { tx: ba, rx: ab, stats: PhyStats::default() },
    )
}

impl FramePhy for LoopbackFramePhy {
    fn send_frame(
        &mut self,
        at: SimTime,
        frame: Vec<u8>,
        synchronous: bool,
    ) -> Result<Option<Vec<u8>>, PhyError> {
        self.tx.borrow_mut().push_back((at, frame, synchronous));
        self.stats.datagrams_tx += 1;
        // Ownership moved: the buffer surfaces at the peer's poll.
        Ok(None)
    }

    fn poll_frames(&mut self, out: &mut Vec<(SimTime, Vec<u8>, bool)>) -> Result<(), PhyError> {
        let mut rx = self.rx.borrow_mut();
        self.stats.datagrams_rx += rx.len() as u64;
        out.extend(rx.drain(..));
        Ok(())
    }

    fn pump(&mut self, _now: SimTime) -> Result<(), PhyError> {
        Ok(())
    }

    fn stats(&self) -> PhyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cross_in_order_with_timestamps() {
        let (mut a, mut b) = loopback_cell_pair();
        a.send_cell(SimTime::from_ns(40), &[1; CELL_SIZE]).unwrap();
        a.send_cell(SimTime::from_ns(80), &[2; CELL_SIZE]).unwrap();
        let mut got = Vec::new();
        b.poll_cells(&mut got).unwrap();
        assert_eq!(
            got,
            vec![(SimTime::from_ns(40), [1; CELL_SIZE]), (SimTime::from_ns(80), [2; CELL_SIZE])]
        );
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.stats().datagrams_tx, 2);
        assert_eq!(b.stats().datagrams_rx, 2);
    }

    #[test]
    fn frames_move_ownership_both_directions() {
        let (mut a, mut b) = loopback_frame_pair();
        assert_eq!(a.send_frame(SimTime::ZERO, vec![9; 100], true).unwrap(), None);
        assert_eq!(b.send_frame(SimTime::ZERO, vec![7; 50], false).unwrap(), None);
        let mut got = Vec::new();
        b.poll_frames(&mut got).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, vec![9; 100]);
        assert!(got[0].2);
        got.clear();
        a.poll_frames(&mut got).unwrap();
        assert_eq!(got[0].1, vec![7; 50]);
        assert!(!got[0].2);
    }
}
