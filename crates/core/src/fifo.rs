//! The gateway's FIFOs (Figure 4).
//!
//! "There are also three sets of FIFOs used in the gateway… Two sets…
//! between the MPP and NPE to exchange ATM and MCHIP control frames.
//! The third… between the MPP and SPP" (§4.3). All are bounded frame
//! queues; overflow is counted, because an undersized NPE FIFO is one
//! of the failure modes the buffer-sizing study must expose.

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

use std::collections::VecDeque;

/// A bounded FIFO of frames with occupancy statistics.
#[derive(Debug)]
pub struct FrameFifo<T> {
    name: &'static str,
    capacity: usize,
    queue: VecDeque<T>,
    drops: u64,
    peak: usize,
}

impl<T> FrameFifo<T> {
    /// A FIFO holding at most `capacity` frames.
    pub fn new(name: &'static str, capacity: usize) -> FrameFifo<T> {
        FrameFifo { name, capacity, queue: VecDeque::new(), drops: 0, peak: 0 }
    }

    /// The FIFO's name (for traces and reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Push a frame; returns it back on overflow (counted).
    pub fn push(&mut self, frame: T) -> Result<(), T> {
        if self.queue.len() >= self.capacity {
            self.drops += 1;
            return Err(frame);
        }
        self.queue.push_back(frame);
        self.peak = self.peak.max(self.queue.len());
        Ok(())
    }

    /// Pop the oldest frame.
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Frames rejected at a full queue.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Highest occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut f = FrameFifo::new("t", 10);
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.push(3).unwrap();
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn overflow_returns_frame_and_counts() {
        let mut f = FrameFifo::new("t", 2);
        f.push("a").unwrap();
        f.push("b").unwrap();
        assert_eq!(f.push("c"), Err("c"));
        assert_eq!(f.drops(), 1);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn stats_track() {
        let mut f = FrameFifo::new("npe", 4);
        for i in 0..3 {
            f.push(i).unwrap();
        }
        f.pop();
        f.push(9).unwrap();
        assert_eq!(f.peak(), 3);
        assert_eq!(f.name(), "npe");
        assert!(!f.is_empty());
    }
}
