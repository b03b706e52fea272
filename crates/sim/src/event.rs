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
//! sorted by `(time, sequence number)`. Which structure holds an entry
//! is invisible: the pop order, [`EventQueue::now`] and every tie-break
//! are exactly what one heap of all the entries gives. A lane is a hint
//! about cost, never about order.
//!
//! # Head keys
//!
//! The queue keeps the `(time, sequence number)` key of each lane head
//! and of the heap top packed into one `u128` each, in one array of
//! `LANES + 1` words, with the index of the smallest. A sequence number
//! is unique, so no two keys are equal and the smallest word is the
//! entry one heap would pop next. [`EventQueue::peek_time`] and
//! [`EventQueue::is_empty`] read that word. A push touches the array
//! only when its entry becomes the head of its structure — the first
//! entry of an empty lane, or a heap entry earlier than the heap top —
//! and then compares it once more, with the smallest.
//! [`EventQueue::pop`] takes from the structure the index names,
//! reloads that structure's word and rescans the `LANES + 1` words for
//! the smallest. An empty structure's word is `u128::MAX`, later than
//! every real key.
//!
//! # Keys taken without a push
//!
//! A model may keep some of its entries outside the queue, in a FIFO of
//! its own that it releases in order, and still order them exactly
//! against the queue's: [`EventQueue::take_seq`] hands out the next
//! sequence number as a push would, without queueing anything, and
//! [`EventQueue::now_seq`] reads the sequence number of the entry popped
//! last. An outside entry keyed `(time, take_seq(time))` then sorts
//! against every queued entry where the same push would have, and
//! [`EventQueue::push_keyed`] queues it under that key if the model
//! hands it back.

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

/// The key `(time, seq)` packed into one word, time in the high half.
#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_ns()) << 64) | u128::from(seq)
}

impl<E> Entry<E> {
    fn key(&self) -> u128 {
        pack(self.time, self.seq)
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

/// Index of the heap top's key in the head array; lanes are
/// `0..LANES`.
const HEAP: usize = LANES;

/// The head key of an empty structure: later than every real key,
/// whose sequence number never reaches `u64::MAX`.
const EMPTY: u128 = u128::MAX;

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
    /// The packed key of each lane's head, then of the heap top
    /// ([`EMPTY`] for an empty structure).
    heads: [u128; LANES + 1],
    /// Index into `heads` of the smallest key.
    min: usize,
    next_seq: u64,
    now: SimTime,
    /// The sequence number of the entry popped last.
    now_seq: u64,
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
            heads: [EMPTY; LANES + 1],
            min: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            now_seq: 0,
        }
    }

    /// Stamp `event` with the next sequence number.
    ///
    /// # Panics
    /// Panics if `time` is before the current simulation time: the past
    /// is immutable in a causal simulation, and silently reordering
    /// would corrupt results.
    fn entry(&mut self, time: SimTime, event: E) -> Entry<E> {
        let seq = self.take_seq(time);
        Entry { time, seq, event }
    }

    /// Take the sequence number a push at `time` would take, and queue
    /// nothing: the caller keeps the entry, keyed `(time, sequence
    /// number)`, outside the queue.
    ///
    /// # Panics
    /// Panics if `time` is before the current simulation time.
    #[inline]
    pub fn take_seq(&mut self, time: SimTime) -> u64 {
        assert!(
            time >= self.now,
            "event scheduled in the past: {} < now {}",
            time.as_ns(),
            self.now.as_ns()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Record `key` as the new head of structure `at`.
    #[inline]
    fn new_head(&mut self, at: usize, key: u128) {
        self.heads[at] = key;
        if key < self.heads[self.min] {
            self.min = at;
        }
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is before the current simulation time.
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        self.push_heap(entry);
    }

    fn push_heap(&mut self, entry: Entry<E>) {
        let key = entry.key();
        self.heap.push(entry);
        if key < self.heads[HEAP] {
            self.new_head(HEAP, key);
        }
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
    ///
    /// Always inlined, and the entry always goes to the lane first: a
    /// push site's event is then written once, into the lane, from
    /// registers — not stored field by field on the stack for an
    /// out-of-line push to load back whole (DESIGN.md §15). The rare
    /// entry that lands behind the lane's tail moves on to the heap.
    #[inline(always)]
    pub fn push_lane(&mut self, lane: usize, time: SimTime, event: E) {
        let seq = self.take_seq(time);
        let fifo = &mut self.lanes[lane];
        let (first, behind) = match fifo.back() {
            None => (true, false),
            Some(last) => (false, last.time > time),
        };
        // Room first, so that the push itself never grows the lane: the
        // entry is built after the only call, straight into the lane.
        if fifo.len() == fifo.capacity() {
            fifo.reserve(1);
        }
        fifo.push_back(Entry { time, seq, event });
        if first {
            self.new_head(lane, pack(time, seq));
        } else if behind {
            if let Some(entry) = fifo.pop_back() {
                self.push_heap(entry);
            }
        }
    }

    /// Queue `event` under a key the caller took with
    /// [`EventQueue::take_seq`] and has kept outside the queue since: it
    /// pops where the push made when the key was taken would have.
    ///
    /// # Panics
    /// Panics if `time` is before the current simulation time, or if
    /// `seq` was never handed out.
    pub fn push_keyed(&mut self, time: SimTime, seq: u64, event: E) {
        assert!(time >= self.now && seq < self.next_seq, "a key taken earlier is pushed");
        self.push_heap(Entry { time, seq, event });
    }

    /// Remove and return the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from = self.min;
        if self.heads[from] == EMPTY {
            return None;
        }
        let e = if from == HEAP {
            let e = self.heap.pop()?;
            self.heads[HEAP] = self.heap.peek().map_or(EMPTY, Entry::key);
            e
        } else {
            let fifo = &mut self.lanes[from];
            let e = fifo.pop_front()?;
            self.heads[from] = fifo.front().map_or(EMPTY, Entry::key);
            e
        };
        // The running smallest key stays in registers, so no load waits
        // on the comparison before it.
        let (mut min, mut best) = (0, self.heads[0]);
        for at in 1..=LANES {
            let key = self.heads[at];
            if key < best {
                (min, best) = (at, key);
            }
        }
        self.min = min;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        self.now_seq = e.seq;
        Some((e.time, e.event))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = self.heads[self.min];
        (key != EMPTY).then(|| SimTime::from_ns((key >> 64) as u64))
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The sequence number of the last popped event: with
    /// [`EventQueue::now`], its key.
    pub fn now_seq(&self) -> u64 {
        self.now_seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heads[self.min] == EMPTY
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
