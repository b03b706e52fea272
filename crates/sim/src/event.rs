//! A generic, deterministic discrete-event queue.
//!
//! Events are ordered by timestamp; events bearing the same timestamp
//! pop in the order they were pushed (a monotone sequence number breaks
//! ties), which keeps simulations reproducible regardless of heap
//! internals.
//!
//! # Lanes
//!
//! Most events of a busy model are pushed in time order by their own
//! push site: a link's arrivals are each a fixed delay after the cell
//! before, an endpoint's injections follow its clock. Sifting such an
//! event through a binary heap pays a chain of dependent loads per
//! level for an order the caller already knows. So beside the heap the
//! queue keeps [`LANES`] FIFO lanes. [`EventQueue::push_lane`] names
//! one: the entry joins the lane's tail when that keeps the lane in
//! time order, and goes to the heap otherwise, so a lane is always
//! sorted by `(time, sequence number)`. `pop` and `peek_time` take the
//! smallest `(time, sequence number)` over the lane heads and the heap
//! top. Which structure holds an entry is therefore invisible: the pop
//! order, [`EventQueue::now`] and every tie-break are exactly what one
//! heap of all the entries gives. A lane is a hint about cost, never
//! about order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// How many in-order lanes an [`EventQueue`] keeps beside its heap.
pub const LANES: usize = 4;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Where the earliest pending entry sits: lane `i < LANES`, or the heap
/// (`LANES`).
const HEAP: usize = LANES;

/// A discrete-event queue over event type `E`.
///
/// ```
/// # use gw_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(200), "late");
/// q.push(SimTime::from_ns(100), "early");
/// q.push_lane(0, SimTime::from_ns(150), "middle");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(100), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(150), "middle")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(200), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    lanes: [VecDeque<Entry<E>>; LANES],
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Stamp `event` with the next sequence number.
    ///
    /// # Panics
    /// Panics if `time` is before the current simulation time: the past
    /// is immutable in a causal simulation, and silently reordering
    /// would corrupt results.
    fn entry(&mut self, time: SimTime, event: E) -> Entry<E> {
        assert!(
            time >= self.now,
            "event scheduled in the past: {} < now {}",
            time.as_ns(),
            self.now.as_ns()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        Entry { time, seq, event }
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is before the current simulation time.
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        self.heap.push(entry);
    }

    /// Schedule `event` at absolute time `time` through lane `lane`: a
    /// push site whose times do not go backwards names a lane of its
    /// own, and its events then skip the heap. A push earlier than the
    /// lane's last entry goes to the heap instead, so the result is
    /// always the order [`EventQueue::push`] would give.
    ///
    /// # Panics
    /// Panics if `time` is before the current simulation time, or if
    /// `lane >= LANES`.
    pub fn push_lane(&mut self, lane: usize, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        let fifo = &mut self.lanes[lane];
        if fifo.back().is_none_or(|last| last.time <= time) {
            fifo.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// The structure holding the earliest pending entry, and its key.
    fn earliest(&self) -> Option<(usize, (SimTime, u64))> {
        let mut best = self.heap.peek().map(|e| (HEAP, e.key()));
        for (lane, fifo) in self.lanes.iter().enumerate() {
            if let Some(head) = fifo.front() {
                if best.is_none_or(|(_, key)| head.key() < key) {
                    best = Some((lane, head.key()));
                }
            }
        }
        best
    }

    /// Remove and return the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (from, _) = self.earliest()?;
        let e = if from == HEAP { self.heap.pop() } else { self.lanes[from].pop_front() }?;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|(_, (time, _))| time)
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(100);
        for i in 0..50 {
            q.push(t, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(500), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(500));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(100), ());
        q.pop();
        q.push(SimTime::from_ns(50), ());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_through_a_lane_panics() {
        let mut q = EventQueue::new();
        q.push_lane(1, SimTime::from_ns(100), ());
        q.pop();
        q.push_lane(1, SimTime::from_ns(50), ());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(7), ());
        q.push(SimTime::from_ns(3), ());
        q.push_lane(2, SimTime::from_ns(5), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(30), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    /// Ties across a lane and the heap resolve by push order, and a
    /// lane push that would go backwards lands in the heap, keeping its
    /// place in the order.
    #[test]
    fn lanes_keep_push_order_at_ties_and_fall_back_when_going_backwards() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(100);
        q.push_lane(0, t, "lane first");
        q.push(t, "heap second");
        q.push_lane(1, t, "other lane third");
        q.push_lane(0, t, "lane fourth");
        q.push_lane(0, SimTime::from_ns(90), "backwards, to the heap");
        assert_eq!(q.lanes[0].len(), 2);
        assert_eq!(q.heap.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            [
                "backwards, to the heap",
                "lane first",
                "heap second",
                "other lane third",
                "lane fourth"
            ]
        );
    }

    /// A lane that drained takes any time at or after `now` again.
    #[test]
    fn a_drained_lane_refills_from_any_time() {
        let mut q = EventQueue::new();
        q.push_lane(3, SimTime::from_ns(500), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(500), 1)));
        q.push_lane(3, SimTime::from_ns(900), 2);
        q.push_lane(3, SimTime::from_ns(600), 3); // behind 900: heap
        assert_eq!(q.lanes[3].len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(600), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(900), 2)));
        assert!(q.is_empty());
        q.push_lane(3, SimTime::from_ns(900), 4);
        assert_eq!(q.lanes[3].len(), 1, "empty again, so any time >= now joins the lane");
    }
}
