//! Hierarchical timer wheel: O(1) arm/cancel, O(expired) expiry.
//!
//! The gateway's control path needs two kinds of deadlines — per-frame
//! reassembly timeouts in the SPP (§5.2's reassembly timer) and per-VC
//! liveness windows in the NPE — and the paper's hardware charges a
//! fixed, bounded cost per cell regardless of how many connections are
//! programmed. Scanning every VC's deadline on every `advance` violates
//! that contract; this wheel restores it. Deadlines hash into one of
//! six levels of 64 slots (level-0 slot = 64 ns, one level-5 slot ≈
//! 69 s, total span ≈ 73 min), entries live in a slab of doubly-linked
//! nodes so `cancel` is O(1) without allocation, and [`TimerWheel::poll`]
//! touches only slots that actually expired. Deadlines beyond the wheel's
//! span park in an overflow list and migrate inward as time advances.
//! A poll of an empty wheel — a reassembly wheel with no frame in
//! progress, polled by every housekeeping call — walks nothing: it moves
//! the cursor to `now`'s tick, which is the state the walk would have
//! left.
//!
//! Entries carry their exact [`SimTime`] deadline: expiry fires an entry
//! only once `now >= deadline` (never early, even mid-tick), and
//! [`TimerWheel::next_deadline`] reports the exact earliest deadline, so
//! callers that previously scanned a map for the minimum see identical
//! values.

use crate::time::SimTime;

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels. Spans `64^6` ticks ≈ 73 minutes of simulated time.
const LEVELS: usize = 6;
/// log2 of the level-0 tick in nanoseconds (64 ns — fine enough that a
/// 40 ns cycle deadline lands at most one tick away, coarse enough that
/// millisecond timeouts stay in the low levels).
const TICK_SHIFT: u32 = 6;
/// Null link in the entry slab.
const NIL: u32 = u32::MAX;

/// `home` tag: entry is on the free list.
const HOME_FREE: u16 = u16::MAX;
/// `home` tag: entry is on the overflow list.
const HOME_OVERFLOW: u16 = u16::MAX - 1;

/// Handle to an armed timer, returned by [`TimerWheel::insert`].
///
/// Generation-tagged: after the entry fires or is cancelled its slab
/// slot may be reused, and a stale `TimerId` is then recognised and
/// rejected by [`TimerWheel::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId {
    index: u32,
    generation: u32,
}

#[derive(Debug)]
struct Entry<T> {
    deadline: SimTime,
    item: Option<T>,
    generation: u32,
    next: u32,
    prev: u32,
    /// Which list the entry is on: `level * SLOTS + slot`,
    /// [`HOME_OVERFLOW`], or [`HOME_FREE`].
    home: u16,
}

/// A hierarchical timer wheel over [`SimTime`] deadlines.
///
/// Steady state performs no heap allocation: the slab grows only when
/// more timers are simultaneously armed than ever before, expired and
/// cancelled entries recycle through an intrusive free list, and
/// [`TimerWheel::poll`] writes into a caller-owned scratch vector.
#[derive(Debug)]
pub struct TimerWheel<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level bitmap of occupied slots.
    occupied: [u64; LEVELS],
    overflow_head: u32,
    /// Last tick the wheel has advanced to; never decreases.
    current_tick: u64,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

fn tick_of(t: SimTime) -> u64 {
    t.as_ns() >> TICK_SHIFT
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            entries: Vec::new(),
            free_head: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            overflow_head: NIL,
            current_tick: 0,
            len: 0,
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arm a timer for `deadline`. A deadline at or before the wheel's
    /// current position fires on the next [`TimerWheel::poll`] whose
    /// `now` reaches it.
    pub fn insert(&mut self, deadline: SimTime, item: T) -> TimerId {
        let index = self.alloc(deadline, item);
        self.place(index);
        self.len += 1;
        TimerId { index, generation: self.entries[index as usize].generation }
    }

    /// Disarm `id`, returning its item, or `None` when the timer has
    /// already fired, was already cancelled, or the id is stale.
    pub fn cancel(&mut self, id: TimerId) -> Option<T> {
        let entry = self.entries.get(id.index as usize)?;
        if entry.generation != id.generation || entry.home == HOME_FREE {
            return None;
        }
        self.unlink(id.index);
        let item = self.release(id.index);
        self.len -= 1;
        Some(item)
    }

    /// The exact deadline `id` is armed for, or `None` when stale.
    pub fn deadline(&self, id: TimerId) -> Option<SimTime> {
        let entry = self.entries.get(id.index as usize)?;
        if entry.generation != id.generation || entry.home == HOME_FREE {
            return None;
        }
        Some(entry.deadline)
    }

    /// The exact earliest armed deadline, or `None` when empty.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for level in 0..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            let cur_pos = ((self.current_tick >> shift) & (SLOTS as u64 - 1)) as u32;
            let masked = self.occupied[level] & !((1u64 << cur_pos) - 1);
            debug_assert_eq!(masked, self.occupied[level], "no slot may lag the cursor");
            if masked == 0 {
                continue;
            }
            let slot = masked.trailing_zeros() as usize;
            // Slot ranges within a level are disjoint and ordered, so the
            // first occupied slot holds the level's earliest entry.
            let mut idx = self.heads[level][slot];
            while idx != NIL {
                let dl = self.entries[idx as usize].deadline;
                if best.is_none_or(|b| dl < b) {
                    best = Some(dl);
                }
                idx = self.entries[idx as usize].next;
            }
        }
        let mut idx = self.overflow_head;
        while idx != NIL {
            let dl = self.entries[idx as usize].deadline;
            if best.is_none_or(|b| dl < b) {
                best = Some(dl);
            }
            idx = self.entries[idx as usize].next;
        }
        best
    }

    /// Advance the wheel to `now`, appending every entry whose deadline
    /// is `<= now` to `expired` as `(deadline, item)` pairs, in no
    /// particular order. Cost is proportional to the number of expired
    /// entries plus the slots they occupied — independent of how many
    /// timers remain armed. On an empty wheel it only moves the cursor.
    pub fn poll(&mut self, now: SimTime, expired: &mut Vec<(SimTime, T)>) {
        let target = tick_of(now).max(self.current_tick);
        if self.len == 0 {
            // No slot or overflow entry to visit: the walk below would
            // only move the cursor.
            self.current_tick = target;
            return;
        }
        while let Some((level, slot, start)) = self.earliest_slot() {
            if start > target {
                break;
            }
            self.current_tick = start;
            if level == 0 {
                // Every entry in a level-0 slot shares the tick `start`;
                // when `start < target` the whole tick is past, and when
                // `start == target` only sub-tick stragglers may remain.
                let mut idx = self.heads[0][slot];
                while idx != NIL {
                    let next = self.entries[idx as usize].next;
                    if self.entries[idx as usize].deadline <= now {
                        self.unlink(idx);
                        let deadline = self.entries[idx as usize].deadline;
                        let item = self.release(idx);
                        self.len -= 1;
                        expired.push((deadline, item));
                    }
                    idx = next;
                }
                if start == target {
                    break;
                }
                self.current_tick = start + 1;
            } else {
                // Cascade: redistribute the slot's entries downward. Each
                // lands at a strictly lower level, so this terminates.
                let mut idx = self.heads[level][slot];
                while idx != NIL {
                    let next = self.entries[idx as usize].next;
                    self.unlink(idx);
                    self.place(idx);
                    idx = next;
                }
            }
        }
        self.current_tick = self.current_tick.max(target);
        // Overflow entries migrate inward (or fire) once in range.
        let mut idx = self.overflow_head;
        while idx != NIL {
            let next = self.entries[idx as usize].next;
            let deadline = self.entries[idx as usize].deadline;
            if deadline <= now {
                self.unlink(idx);
                let item = self.release(idx);
                self.len -= 1;
                expired.push((deadline, item));
            } else if self.level_slot(tick_of(deadline)).is_some() {
                self.unlink(idx);
                self.place(idx);
            }
            idx = next;
        }
    }

    /// Earliest occupied wheel slot as `(level, slot, start_tick)`.
    fn earliest_slot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in 0..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            let cur_pos = ((self.current_tick >> shift) & (SLOTS as u64 - 1)) as u32;
            let masked = self.occupied[level] & !((1u64 << cur_pos) - 1);
            debug_assert_eq!(masked, self.occupied[level], "no slot may lag the cursor");
            if masked == 0 {
                continue;
            }
            let slot = masked.trailing_zeros() as usize;
            let lap_mask = !((1u64 << (shift + LEVEL_BITS)) - 1);
            let start = (self.current_tick & lap_mask) | ((slot as u64) << shift);
            if best.is_none_or(|(_, _, s)| start < s) {
                best = Some((level, slot, start));
            }
        }
        best
    }

    /// Level and slot for a deadline tick, or `None` when it lies beyond
    /// the wheel's span (→ overflow list). Uses the highest bit-group in
    /// which the deadline differs from the cursor, which guarantees the
    /// chosen slot is never behind the cursor at its level.
    fn level_slot(&self, deadline_tick: u64) -> Option<(usize, usize)> {
        let tick = deadline_tick.max(self.current_tick);
        let diff = tick ^ self.current_tick;
        if diff == 0 {
            return Some((0, (tick & (SLOTS as u64 - 1)) as usize));
        }
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            return None;
        }
        let slot = ((tick >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        Some((level, slot))
    }

    fn place(&mut self, index: u32) {
        let deadline_tick = tick_of(self.entries[index as usize].deadline);
        match self.level_slot(deadline_tick) {
            Some((level, slot)) => self.link_slot(index, level, slot),
            None => self.link_overflow(index),
        }
    }

    fn alloc(&mut self, deadline: SimTime, item: T) -> u32 {
        if self.free_head != NIL {
            let index = self.free_head;
            let entry = &mut self.entries[index as usize];
            self.free_head = entry.next;
            entry.deadline = deadline;
            entry.item = Some(item);
            entry.next = NIL;
            entry.prev = NIL;
            index
        } else {
            let index = self.entries.len() as u32;
            self.entries.push(Entry {
                deadline,
                item: Some(item),
                generation: 0,
                next: NIL,
                prev: NIL,
                home: HOME_FREE,
            });
            index
        }
    }

    /// Return an unlinked entry's item and recycle its slab slot.
    fn release(&mut self, index: u32) -> T {
        let entry = &mut self.entries[index as usize];
        let item = entry.item.take().expect("armed entry holds an item");
        entry.generation = entry.generation.wrapping_add(1);
        entry.home = HOME_FREE;
        entry.prev = NIL;
        entry.next = self.free_head;
        self.free_head = index;
        item
    }

    fn link_slot(&mut self, index: u32, level: usize, slot: usize) {
        let head = self.heads[level][slot];
        {
            let entry = &mut self.entries[index as usize];
            entry.home = (level * SLOTS + slot) as u16;
            entry.prev = NIL;
            entry.next = head;
        }
        if head != NIL {
            self.entries[head as usize].prev = index;
        }
        self.heads[level][slot] = index;
        self.occupied[level] |= 1u64 << slot;
    }

    fn link_overflow(&mut self, index: u32) {
        let head = self.overflow_head;
        {
            let entry = &mut self.entries[index as usize];
            entry.home = HOME_OVERFLOW;
            entry.prev = NIL;
            entry.next = head;
        }
        if head != NIL {
            self.entries[head as usize].prev = index;
        }
        self.overflow_head = index;
    }

    /// Remove an entry from its slot or overflow list (not the free list).
    fn unlink(&mut self, index: u32) {
        let (home, prev, next) = {
            let entry = &self.entries[index as usize];
            (entry.home, entry.prev, entry.next)
        };
        debug_assert_ne!(home, HOME_FREE, "cannot unlink a free entry");
        if prev != NIL {
            self.entries[prev as usize].next = next;
        } else if home == HOME_OVERFLOW {
            self.overflow_head = next;
        } else {
            let (level, slot) = ((home as usize) / SLOTS, (home as usize) % SLOTS);
            self.heads[level][slot] = next;
            if next == NIL {
                self.occupied[level] &= !(1u64 << slot);
            }
        }
        if next != NIL {
            self.entries[next as usize].prev = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(wheel: &mut TimerWheel<T>, now: SimTime) -> Vec<(SimTime, T)> {
        let mut out = Vec::new();
        wheel.poll(now, &mut out);
        out
    }

    #[test]
    fn fires_at_exact_deadline_never_early() {
        let mut w = TimerWheel::new();
        w.insert(SimTime::from_ns(100), "a");
        // 99 ns: same 64 ns tick as the deadline, but still early.
        assert!(drain(&mut w, SimTime::from_ns(99)).is_empty());
        let fired = drain(&mut w, SimTime::from_ns(100));
        assert_eq!(fired, vec![(SimTime::from_ns(100), "a")]);
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_is_exact() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.insert(SimTime::from_us(50), 1u32);
        w.insert(SimTime::from_us(20), 2u32);
        w.insert(SimTime::from_ms(10), 3u32);
        assert_eq!(w.next_deadline(), Some(SimTime::from_us(20)));
        drain(&mut w, SimTime::from_us(20));
        assert_eq!(w.next_deadline(), Some(SimTime::from_us(50)));
        drain(&mut w, SimTime::from_us(50));
        assert_eq!(w.next_deadline(), Some(SimTime::from_ms(10)));
    }

    #[test]
    fn cancel_disarms_and_stale_ids_are_rejected() {
        let mut w = TimerWheel::new();
        let a = w.insert(SimTime::from_us(10), "a");
        let b = w.insert(SimTime::from_us(20), "b");
        assert_eq!(w.cancel(a), Some("a"));
        assert_eq!(w.cancel(a), None, "double cancel");
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_deadline(), Some(SimTime::from_us(20)));
        // The slab slot is recycled; the old id must not cancel the new
        // tenant.
        let c = w.insert(SimTime::from_us(5), "c");
        assert_eq!(w.cancel(a), None, "stale generation");
        assert_eq!(w.deadline(a), None);
        assert_eq!(w.deadline(c), Some(SimTime::from_us(5)));
        let mut fired = drain(&mut w, SimTime::from_ms(1));
        fired.sort_by_key(|(t, _)| *t);
        assert_eq!(fired, vec![(SimTime::from_us(5), "c"), (SimTime::from_us(20), "b")]);
        assert_eq!(w.cancel(b), None, "already fired");
    }

    #[test]
    fn long_deadlines_cascade_down_levels() {
        let mut w = TimerWheel::new();
        // Spread deadlines across every level: 64 ns tick ⇒ level k
        // covers up to 64^(k+1) ticks.
        let deadlines = [
            SimTime::from_ns(640),     // level 0
            SimTime::from_us(100),     // level 1
            SimTime::from_ms(5),       // level 2
            SimTime::from_ms(400),     // level 3
            SimTime::from_secs(30),    // level 4
            SimTime::from_secs(2_000), // level 5
        ];
        for (i, dl) in deadlines.iter().enumerate() {
            w.insert(*dl, i);
        }
        assert_eq!(w.next_deadline(), Some(deadlines[0]));
        for (i, dl) in deadlines.iter().enumerate() {
            // Step to just before, then exactly at, each deadline.
            assert!(drain(&mut w, dl.saturating_sub(SimTime::from_ns(1))).is_empty());
            assert_eq!(drain(&mut w, *dl), vec![(*dl, i)]);
        }
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn big_jump_fires_everything_once() {
        let mut w = TimerWheel::new();
        for i in 0..1000u64 {
            w.insert(SimTime::from_us(i * 7 + 1), i);
        }
        let mut fired = drain(&mut w, SimTime::from_secs(1));
        assert_eq!(fired.len(), 1000);
        fired.sort_by_key(|(_, i)| *i);
        for (i, (dl, item)) in fired.iter().enumerate() {
            assert_eq!(*item, i as u64);
            assert_eq!(*dl, SimTime::from_us(i as u64 * 7 + 1));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_deadlines_park_and_migrate() {
        let mut w = TimerWheel::new();
        // Beyond 64^6 ticks × 64 ns ≈ 78 min: parks in overflow.
        let far = SimTime::from_secs(10_000);
        w.insert(far, "far");
        w.insert(SimTime::from_us(1), "near");
        assert_eq!(w.next_deadline(), Some(SimTime::from_us(1)));
        assert_eq!(drain(&mut w, SimTime::from_us(1)).len(), 1);
        assert_eq!(w.next_deadline(), Some(far));
        // Advance to within wheel range of `far`: still armed, exact.
        assert!(drain(&mut w, SimTime::from_secs(9_999)).is_empty());
        assert_eq!(w.next_deadline(), Some(far));
        assert_eq!(drain(&mut w, far), vec![(far, "far")]);
    }

    #[test]
    fn same_tick_entries_fire_together() {
        let mut w = TimerWheel::new();
        // 64–127 ns share tick 1.
        w.insert(SimTime::from_ns(80), "a");
        w.insert(SimTime::from_ns(100), "b");
        let fired = drain(&mut w, SimTime::from_ns(90));
        assert_eq!(fired, vec![(SimTime::from_ns(80), "a")]);
        assert_eq!(w.next_deadline(), Some(SimTime::from_ns(100)));
        let fired = drain(&mut w, SimTime::from_ns(100));
        assert_eq!(fired, vec![(SimTime::from_ns(100), "b")]);
    }

    #[test]
    fn late_insert_fires_on_next_poll() {
        let mut w = TimerWheel::new();
        w.insert(SimTime::from_us(1), "x");
        drain(&mut w, SimTime::from_ms(1));
        // Deadline already in the past relative to the wheel cursor.
        w.insert(SimTime::from_us(500), "late");
        assert_eq!(w.next_deadline(), Some(SimTime::from_us(500)));
        assert_eq!(drain(&mut w, SimTime::from_ms(1)), vec![(SimTime::from_us(500), "late")]);
    }

    #[test]
    fn slab_recycles_without_growth() {
        let mut w = TimerWheel::new();
        // Steady state: arm/fire churn reuses the same slab entries.
        for round in 0..100u64 {
            for k in 0..8u64 {
                w.insert(SimTime::from_us(round * 10 + k + 1), k);
            }
            let fired = drain(&mut w, SimTime::from_us(round * 10 + 9));
            assert_eq!(fired.len(), 8);
        }
        assert!(w.entries.len() <= 16, "slab grew to {}", w.entries.len());
    }
}
