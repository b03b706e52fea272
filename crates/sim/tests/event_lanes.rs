//! The event queue against a reference: random interleavings of heap
//! pushes, lane pushes, sequence numbers taken without a push and pops
//! must give exactly the `(time, event)` sequence, `peek_time`, `len`,
//! clock and popped sequence number of one list kept sorted by `(time,
//! push order)` — the order a single heap gives.

use gw_sim::event::{EventQueue, LANES};
use gw_sim::time::SimTime;
use proptest::prelude::*;

/// Far enough ahead that the other deltas never reach it: a wake-up
/// parked behind everything else.
const FAR: u64 = 1 << 50;

/// The plain model: every pending event with its push index.
#[derive(Default)]
struct Reference {
    pending: Vec<(SimTime, u64)>,
    pushed: u64,
}

impl Reference {
    fn push(&mut self, time: SimTime) -> u64 {
        let id = self.pushed;
        self.pushed += 1;
        self.pending.push((time, id));
        id
    }

    /// A sequence number taken without a push: it counts, but nothing
    /// is pending under it.
    fn take(&mut self) -> u64 {
        let id = self.pushed;
        self.pushed += 1;
        id
    }

    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| self.pending[i])
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.earliest().map(|i| self.pending.swap_remove(i))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|i| self.pending[i].0)
    }
}

/// Counts of the cases a run must reach to mean anything. The last
/// four are the cases in which a head key the queue failed to keep up
/// to date would give a wrong answer.
#[derive(Default)]
struct Coverage {
    ties: u64,
    backwards_lane_pushes: u64,
    far_future: u64,
    refills: u64,
    heap_push_ahead_of_lane_head: u64,
    empty_lane_push_ahead_of_heap_top: u64,
    pop_empties_head_structure: u64,
    ties_across_structures: u64,
    taken_without_push: u64,
}

/// One op: `kind` 0–1 heap push, 2–4 lane push, 5–7 pop, 8 a sequence
/// number taken without a push; `scale` picks
/// the delay — 0 a tie at `now`, 1 a few ns, 2 a few µs, 3 far ahead.
type Op = (u8, usize, u64, u8);

/// Where the documented rule puts each pending entry (join the lane's
/// tail if that keeps time order, else the heap): for coverage only.
#[derive(Default)]
struct Placement {
    lanes: [Vec<(SimTime, u64)>; LANES],
    heap: Vec<(SimTime, u64)>,
    /// Lanes a pop emptied that have not taken an entry since.
    drained: [bool; LANES],
}

impl Placement {
    fn heap_top(&self) -> Option<(SimTime, u64)> {
        self.heap.iter().min().copied()
    }

    /// Place a push of `key` through `lane` (`None`: the heap).
    fn push(&mut self, lane: Option<usize>, key: (SimTime, u64), cov: &mut Coverage) {
        let lane = lane.filter(|&i| self.lanes[i].last().is_none_or(|&tail| tail.0 <= key.0));
        let Some(i) = lane else {
            let mut lane_heads = self.lanes.iter().filter_map(|fifo| fifo.first());
            cov.heap_push_ahead_of_lane_head += u64::from(lane_heads.any(|&head| key < head));
            self.heap.push(key);
            return;
        };
        if self.lanes[i].is_empty() {
            cov.refills += u64::from(std::mem::take(&mut self.drained[i]));
            cov.empty_lane_push_ahead_of_heap_top +=
                u64::from(self.heap_top().is_some_and(|top| key < top));
        }
        self.lanes[i].push(key);
    }

    /// Remove the popped entry `key`, counting a tie with another
    /// structure's head and a pop that empties its structure while
    /// entries remain elsewhere.
    fn pop(&mut self, key: (SimTime, u64), cov: &mut Coverage) {
        let lane = self.lanes.iter().position(|fifo| fifo.first() == Some(&key));
        let mut other_heads = (0..LANES)
            .filter(|&i| Some(i) != lane)
            .filter_map(|i| self.lanes[i].first().copied())
            .chain(lane.and_then(|_| self.heap_top()));
        cov.ties_across_structures += u64::from(other_heads.any(|(t, _)| t == key.0));
        let emptied = match lane {
            Some(i) => {
                self.lanes[i].remove(0);
                self.drained[i] = self.lanes[i].is_empty();
                self.drained[i]
            }
            None => {
                let i = self.heap.iter().position(|&e| e == key).expect("popped from the heap");
                self.heap.swap_remove(i);
                self.heap.is_empty()
            }
        };
        let pending = self.heap.len() + self.lanes.iter().map(Vec::len).sum::<usize>();
        cov.pop_empties_head_structure += u64::from(emptied && pending > 0);
    }
}

fn run(ops: &[Op], cov: &mut Coverage) {
    let mut q = EventQueue::new();
    let mut r = Reference::default();
    let mut placed = Placement::default();
    for &(kind, lane, small, scale) in ops {
        let delay = match scale {
            0 => 0,
            1 => small,
            2 => small * 1_000,
            _ => FAR + small,
        };
        let time = q.now() + SimTime::from_ns(delay);
        match kind {
            0..=4 => {
                cov.ties += u64::from(r.pending.iter().any(|&(t, _)| t == time));
                cov.far_future += u64::from(scale == 3);
                let id = r.push(time);
                if kind <= 1 {
                    placed.push(None, (time, id), cov);
                    q.push(time, id);
                } else {
                    let heap_before = placed.heap.len();
                    placed.push(Some(lane), (time, id), cov);
                    cov.backwards_lane_pushes += (placed.heap.len() - heap_before) as u64;
                    q.push_lane(lane, time, id);
                }
            }
            5..=7 => {
                let got = q.pop();
                assert_eq!(got, r.pop());
                if let Some((t, id)) = got {
                    assert_eq!(q.now(), t, "the clock is the last popped time");
                    assert_eq!(q.now_seq(), id, "the popped key's sequence number");
                    placed.pop((t, id), cov);
                }
            }
            _ => {
                cov.taken_without_push += 1;
                assert_eq!(q.take_seq(time), r.take(), "the number a push would have taken");
            }
        }
        assert_eq!(q.peek_time(), r.peek_time());
        assert_eq!(q.len(), r.pending.len());
        assert_eq!(q.is_empty(), r.pending.is_empty());
    }
    while let Some(expected) = r.pop() {
        assert_eq!(q.pop(), Some(expected));
        assert_eq!(q.now_seq(), expected.1);
        assert_eq!(q.peek_time(), r.peek_time());
        assert_eq!(q.len(), r.pending.len());
    }
    assert_eq!(q.pop(), None);
    assert_eq!(q.peek_time(), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lanes_pop_exactly_what_one_sorted_list_gives(
        ops in proptest::collection::vec((0u8..9, 0usize..LANES, 0u64..8, 0u8..4), 1..160),
    ) {
        run(&ops, &mut Coverage::default());
    }
}

/// The same property over many short seeded runs, asserting that they
/// really reach ties, backwards lane pushes, far-future times, lanes
/// that drain and refill, sequence numbers taken without a push, and
/// each case a stale head key would get
/// wrong: a heap push ahead of a lane head, a push into an empty lane
/// ahead of the heap top, a pop that empties the structure holding the
/// head, and a tie across structures that the sequence number decides —
/// a reference check that never met them would prove nothing about
/// them.
#[test]
fn the_reference_check_reaches_every_case() {
    let mut state = 0x1991_u64;
    let mut next = |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let ops: Vec<Op> = (0..20_000)
        .map(|_| (next(9) as u8, next(LANES as u64) as usize, next(8), next(4) as u8))
        .collect();
    let mut cov = Coverage::default();
    for run_ops in ops.chunks(100) {
        run(run_ops, &mut cov);
    }
    assert!(cov.ties > 100, "ties {}", cov.ties);
    assert!(cov.backwards_lane_pushes > 100, "backwards {}", cov.backwards_lane_pushes);
    assert!(cov.far_future > 100, "far future {}", cov.far_future);
    assert!(cov.refills > 100, "refills {}", cov.refills);
    assert!(cov.taken_without_push > 100, "taken {}", cov.taken_without_push);
    let stale_head_cases = [
        ("heap push ahead of a lane head", cov.heap_push_ahead_of_lane_head),
        ("empty-lane push ahead of the heap top", cov.empty_lane_push_ahead_of_heap_top),
        ("pop that empties the head's structure", cov.pop_empties_head_structure),
        ("tie across structures", cov.ties_across_structures),
    ];
    for (case, count) in stale_head_cases {
        assert!(count > 100, "{case}: {count}");
    }
}
