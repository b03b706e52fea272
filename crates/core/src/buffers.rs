//! The transmit and receive buffer memories (§4.3 "Buffer Memories").
//!
//! The SUPERNET's RAM buffer controller (RBC) DMAs frames between these
//! memories and the MAC. The NPE configures synchronous and
//! asynchronous queues within them (§4.3 "NPE"); both classes share the
//! memory's octet capacity. Occupancy is tracked as a time-weighted
//! gauge so the buffer-sizing study (E6) can report time-averaged and
//! peak usage, not just instantaneous depth.

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

use gw_sim::stats::TimeWeighted;
use gw_sim::time::SimTime;
use std::collections::VecDeque;

/// Transmission class within a buffer memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Synchronous (time-critical) queue.
    Sync,
    /// Asynchronous queue.
    Async,
}

/// Counters for one buffer memory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BufferStats {
    /// Frames accepted.
    pub frames_in: u64,
    /// Frames drained.
    pub frames_out: u64,
    /// Frames rejected because the memory was full.
    pub overflow_drops: u64,
    /// Octets in the frames counted by [`BufferStats::overflow_drops`].
    pub overflow_octets: u64,
    /// Peak occupancy, octets.
    pub peak_octets: usize,
    /// Frames rejected by the overload-shedding policy (watermark
    /// pressure, not hard overflow).
    pub frames_shed: u64,
    /// Octets in the frames counted by [`BufferStats::frames_shed`].
    pub octets_shed: u64,
    /// Times the occupancy crossed the high watermark into shedding.
    pub shed_entries: u64,
}

/// Result of offering a frame to [`BufferMemory::store_tagged`].
/// Rejections hand the frame back so the caller can recycle its buffer
/// instead of dropping it on the floor.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(
    clippy::disallowed_methods,
    reason = "derived `Clone`; a `.clone()` call in this module is still denied"
)]
pub enum StoreOutcome {
    /// Accepted into its class queue.
    Stored,
    /// Rejected by the shedding policy; the frame is returned.
    Shed(Vec<u8>),
    /// Rejected because it cannot fit; the frame is returned.
    Overflow(Vec<u8>),
}

/// A frame buffer memory with sync/async queues sharing octet capacity.
#[derive(Debug)]
pub struct BufferMemory {
    capacity_octets: usize,
    used_octets: usize,
    sync_q: VecDeque<Vec<u8>>,
    async_q: VecDeque<Vec<u8>>,
    stats: BufferStats,
    occupancy: TimeWeighted,
    /// Monotone clock for the occupancy gauge: hardware-side stores and
    /// MAC-side drains arrive from different simulation seams whose
    /// timestamps may disagree by less than one co-simulation slice;
    /// the gauge sees the monotone envelope.
    last_seen: SimTime,
    /// Overload-shedding watermarks `(low, high)` in octets, if set.
    watermarks: Option<(usize, usize)>,
    /// True between crossing the high watermark and falling back to low.
    shedding: bool,
}

impl BufferMemory {
    /// A memory of `capacity_octets`.
    pub fn new(capacity_octets: usize) -> BufferMemory {
        BufferMemory {
            capacity_octets,
            used_octets: 0,
            sync_q: VecDeque::new(),
            async_q: VecDeque::new(),
            stats: BufferStats::default(),
            occupancy: TimeWeighted::new(),
            last_seen: SimTime::ZERO,
            watermarks: None,
            shedding: false,
        }
    }

    /// Arm overload shedding with `low`/`high` watermarks in octets.
    /// `low` is clamped to at most `high`.
    pub(crate) fn set_watermarks(&mut self, low: usize, high: usize) {
        self.watermarks = Some((low.min(high), high));
    }

    /// True while the memory is in the shedding state (occupancy
    /// crossed the high watermark and has not yet fallen back to low).
    pub(crate) fn is_shedding(&self) -> bool {
        self.shedding
    }

    fn monotone(&mut self, now: SimTime) -> SimTime {
        if now > self.last_seen {
            self.last_seen = now;
        }
        self.last_seen
    }

    /// Store a frame into the given class queue. Returns the frame back
    /// when it does not fit. Bypasses the shedding policy — used for
    /// traffic that must only fail on hard overflow (control frames).
    pub fn store(&mut self, now: SimTime, class: Class, frame: Vec<u8>) -> Result<(), Vec<u8>> {
        if self.used_octets + frame.len() > self.capacity_octets {
            self.stats.overflow_drops += 1;
            self.stats.overflow_octets += frame.len() as u64;
            return Err(frame);
        }
        self.used_octets += frame.len();
        self.stats.frames_in += 1;
        self.stats.peak_octets = self.stats.peak_octets.max(self.used_octets);
        let t = self.monotone(now);
        self.occupancy.set(t, self.used_octets as f64);
        match class {
            Class::Sync => self.sync_q.push_back(frame),
            Class::Async => self.async_q.push_back(frame),
        }
        Ok(())
    }

    /// Store a frame under the overload-shedding policy.
    ///
    /// With watermarks armed (see `BufferMemory::set_watermarks`):
    ///
    /// * crossing the high watermark enters the shedding state, cleared
    ///   once occupancy falls back to the low watermark (hysteresis);
    /// * in the shedding state every asynchronous frame is shed;
    /// * `discard_eligible` (CLP-tagged) asynchronous frames are shed
    ///   already at the low watermark — they go first;
    /// * synchronous frames never shed; they only fail on hard
    ///   overflow, preserving the time-critical class (§2.2).
    pub fn store_tagged(
        &mut self,
        now: SimTime,
        class: Class,
        frame: Vec<u8>,
        discard_eligible: bool,
    ) -> StoreOutcome {
        if let Some((low, high)) = self.watermarks {
            if self.used_octets >= high {
                if !self.shedding {
                    self.stats.shed_entries += 1;
                }
                self.shedding = true;
            } else if self.used_octets <= low {
                self.shedding = false;
            }
            let shed = class == Class::Async
                && (self.shedding || (discard_eligible && self.used_octets >= low));
            if shed {
                self.stats.frames_shed += 1;
                self.stats.octets_shed += frame.len() as u64;
                return StoreOutcome::Shed(frame);
            }
        }
        match self.store(now, class, frame) {
            Ok(()) => StoreOutcome::Stored,
            Err(frame) => StoreOutcome::Overflow(frame),
        }
    }

    /// Drain the oldest frame of `class`.
    pub fn drain(&mut self, now: SimTime, class: Class) -> Option<Vec<u8>> {
        let frame = match class {
            Class::Sync => self.sync_q.pop_front(),
            Class::Async => self.async_q.pop_front(),
        }?;
        self.used_octets -= frame.len();
        self.stats.frames_out += 1;
        if let Some((low, _)) = self.watermarks {
            if self.used_octets <= low {
                self.shedding = false;
            }
        }
        let t = self.monotone(now);
        self.occupancy.set(t, self.used_octets as f64);
        Some(frame)
    }

    /// Frames queued in `class`.
    pub fn depth(&self, class: Class) -> usize {
        match class {
            Class::Sync => self.sync_q.len(),
            Class::Async => self.async_q.len(),
        }
    }

    /// Octets currently stored.
    pub(crate) fn used_octets(&self) -> usize {
        self.used_octets
    }

    /// The memory's capacity.
    pub(crate) fn capacity_octets(&self) -> usize {
        self.capacity_octets
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Time-averaged occupancy in octets over `[start, t_end]`.
    pub(crate) fn mean_occupancy(&self, t_end: SimTime) -> f64 {
        self.occupancy.mean(t_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_drain_fifo_per_class() {
        let mut m = BufferMemory::new(1000);
        m.store(SimTime::ZERO, Class::Async, vec![1; 10]).unwrap();
        m.store(SimTime::ZERO, Class::Async, vec![2; 10]).unwrap();
        m.store(SimTime::ZERO, Class::Sync, vec![3; 10]).unwrap();
        assert_eq!(m.drain(SimTime::ZERO, Class::Async).unwrap()[0], 1);
        assert_eq!(m.drain(SimTime::ZERO, Class::Sync).unwrap()[0], 3);
        assert_eq!(m.drain(SimTime::ZERO, Class::Async).unwrap()[0], 2);
        assert!(m.drain(SimTime::ZERO, Class::Async).is_none());
    }

    #[test]
    fn capacity_shared_between_classes() {
        let mut m = BufferMemory::new(100);
        m.store(SimTime::ZERO, Class::Sync, vec![0; 60]).unwrap();
        assert!(m.store(SimTime::ZERO, Class::Async, vec![0; 50]).is_err());
        assert_eq!((m.stats().overflow_drops, m.stats().overflow_octets), (1, 50));
        m.store(SimTime::ZERO, Class::Async, vec![0; 40]).unwrap();
        assert_eq!(m.used_octets(), 100);
    }

    #[test]
    fn drain_frees_space() {
        let mut m = BufferMemory::new(50);
        m.store(SimTime::ZERO, Class::Async, vec![0; 50]).unwrap();
        assert!(m.store(SimTime::ZERO, Class::Async, vec![0; 1]).is_err());
        m.drain(SimTime::ZERO, Class::Async);
        assert!(m.store(SimTime::ZERO, Class::Async, vec![0; 50]).is_ok());
    }

    #[test]
    fn occupancy_statistics() {
        let mut m = BufferMemory::new(1000);
        m.store(SimTime::from_ns(0), Class::Async, vec![0; 100]).unwrap();
        m.drain(SimTime::from_ns(100), Class::Async);
        // 100 octets for 100 ns, then 0 for 100 ns -> mean 50 at t=200.
        assert!((m.mean_occupancy(SimTime::from_ns(200)) - 50.0).abs() < 1e-9);
        assert_eq!(m.stats().peak_octets, 100);
        assert_eq!(m.stats().frames_in, 1);
        assert_eq!(m.stats().frames_out, 1);
    }

    #[test]
    fn shedding_hysteresis_between_watermarks() {
        let mut m = BufferMemory::new(1000);
        m.set_watermarks(200, 600);
        // Fill to above the high watermark with sync frames (never shed).
        for _ in 0..7 {
            assert_eq!(
                m.store_tagged(SimTime::ZERO, Class::Sync, vec![0; 100], false),
                StoreOutcome::Stored
            );
        }
        // 700 ≥ high: async traffic sheds now.
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Async, vec![0; 50], false),
            StoreOutcome::Shed(vec![0; 50])
        );
        assert!(m.is_shedding());
        assert_eq!(m.stats().shed_entries, 1);
        // Drain down to 300 — still above low, shedding persists.
        for _ in 0..4 {
            m.drain(SimTime::ZERO, Class::Sync);
        }
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Async, vec![0; 50], false),
            StoreOutcome::Shed(vec![0; 50])
        );
        // Drain to 200 = low: shedding clears.
        m.drain(SimTime::ZERO, Class::Sync);
        assert!(!m.is_shedding());
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Async, vec![0; 50], false),
            StoreOutcome::Stored
        );
        assert_eq!(m.stats().frames_shed, 2);
        assert_eq!(m.stats().octets_shed, 100);
    }

    #[test]
    fn discard_eligible_frames_shed_first() {
        let mut m = BufferMemory::new(1000);
        m.set_watermarks(200, 600);
        for _ in 0..3 {
            m.store(SimTime::ZERO, Class::Async, vec![0; 100]).unwrap();
        }
        // 300 octets: between low and high. CLP-tagged sheds, plain
        // async does not.
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Async, vec![0; 50], true),
            StoreOutcome::Shed(vec![0; 50])
        );
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Async, vec![0; 50], false),
            StoreOutcome::Stored
        );
        assert!(!m.is_shedding(), "low-watermark CLP shedding is not the shedding state");
    }

    #[test]
    fn sync_frames_never_shed_only_overflow() {
        let mut m = BufferMemory::new(500);
        m.set_watermarks(100, 300);
        for _ in 0..4 {
            assert_eq!(
                m.store_tagged(SimTime::ZERO, Class::Sync, vec![0; 100], true),
                StoreOutcome::Stored
            );
        }
        // 400 ≥ high: sync still stores (capacity permitting)…
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Sync, vec![0; 100], false),
            StoreOutcome::Stored
        );
        // …until hard overflow.
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Sync, vec![0; 100], false),
            StoreOutcome::Overflow(vec![0; 100])
        );
        assert_eq!(m.stats().frames_shed, 0);
        assert_eq!(m.stats().overflow_drops, 1);
    }

    #[test]
    fn store_tagged_without_watermarks_matches_store() {
        let mut m = BufferMemory::new(100);
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Async, vec![0; 60], true),
            StoreOutcome::Stored
        );
        assert_eq!(
            m.store_tagged(SimTime::ZERO, Class::Async, vec![0; 60], true),
            StoreOutcome::Overflow(vec![0; 60])
        );
        assert_eq!(m.stats().frames_shed, 0);
    }

    #[test]
    fn depths_tracked() {
        let mut m = BufferMemory::new(1000);
        m.store(SimTime::ZERO, Class::Sync, vec![0; 5]).unwrap();
        m.store(SimTime::ZERO, Class::Sync, vec![0; 5]).unwrap();
        assert_eq!(m.depth(Class::Sync), 2);
        assert_eq!(m.depth(Class::Async), 0);
        assert_eq!(m.capacity_octets(), 1000);
    }
}
