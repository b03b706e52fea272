//! The timer wheel against a reference: random interleavings of
//! `insert`, `cancel` and `poll` must expire exactly the `(deadline,
//! item)` pairs a plain list of armed timers says are due, and `len`,
//! `is_empty` and `next_deadline` must agree with that list after every
//! operation — polls of an empty wheel and polls with nothing due
//! included.

use gw_sim::time::SimTime;
use gw_sim::timer::{TimerId, TimerWheel};
use proptest::prelude::*;

/// Past the wheel's span (2^36 ticks of 64 ns): such a deadline parks
/// in the overflow list.
const BEYOND_SPAN_NS: u64 = 1 << 42;

/// The plain model: every armed timer.
#[derive(Default)]
struct Reference {
    armed: Vec<(SimTime, u32, TimerId)>,
}

impl Reference {
    fn next_deadline(&self) -> Option<SimTime> {
        self.armed.iter().map(|&(deadline, _, _)| deadline).min()
    }

    fn cancel(&mut self, id: TimerId) -> Option<u32> {
        let i = self.armed.iter().position(|&(_, _, armed)| armed == id)?;
        Some(self.armed.swap_remove(i).1)
    }

    /// Remove and return, sorted, every timer due at `now`.
    fn poll(&mut self, now: SimTime) -> Vec<(SimTime, u32)> {
        let mut due: Vec<_> = self
            .armed
            .iter()
            .filter(|&&(deadline, _, _)| deadline <= now)
            .map(|&(deadline, item, _)| (deadline, item))
            .collect();
        self.armed.retain(|&(deadline, _, _)| deadline > now);
        due.sort_unstable();
        due
    }
}

/// Counts of the cases a run must reach to mean anything.
#[derive(Default)]
struct Coverage {
    empty_polls: u64,
    idle_polls: u64,
    firing_polls: u64,
    overflow_inserts: u64,
    past_inserts: u64,
    live_cancels: u64,
    stale_cancels: u64,
}

/// How far ahead of (or, for an insert, behind) the clock an op
/// reaches: 0 nothing, 1 under one 64 ns tick, 2 µs, 3 ms, 4 s, 5 past
/// the wheel's span.
fn delay(scale: u8, small: u64) -> u64 {
    match scale {
        0 => 0,
        1 => small,
        2 => small * 1_000,
        3 => small * 1_000_000,
        4 => small * 1_000_000_000,
        _ => BEYOND_SPAN_NS + small,
    }
}

/// One op: `kind` 0–2 insert ahead, 3 insert behind the clock, 4–5
/// cancel, 6–7 poll; `pick` chooses which id (live or stale) to cancel.
type Op = (u8, u8, u64, usize);

fn run(ops: &[Op], cov: &mut Coverage) {
    let mut w = TimerWheel::new();
    let mut r = Reference::default();
    let mut ids: Vec<TimerId> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut fired = Vec::new();
    for (item, &(kind, scale, small, pick)) in (0u32..).zip(ops) {
        match kind {
            0..=3 => {
                let d = delay(scale, small);
                let deadline = if kind == 3 {
                    cov.past_inserts += 1;
                    SimTime::from_ns(now.as_ns().saturating_sub(d))
                } else {
                    cov.overflow_inserts += u64::from(scale == 5);
                    now + SimTime::from_ns(d)
                };
                let id = w.insert(deadline, item);
                assert_eq!(w.deadline(id), Some(deadline));
                r.armed.push((deadline, item, id));
                ids.push(id);
            }
            4..=5 => {
                let Some(&id) = ids.get(pick % ids.len().max(1)) else { continue };
                let expected = r.cancel(id);
                match expected {
                    Some(_) => cov.live_cancels += 1,
                    None => cov.stale_cancels += 1,
                }
                assert_eq!(w.cancel(id), expected);
                assert_eq!(w.deadline(id), None, "a cancelled or stale id has no deadline");
            }
            _ => {
                now += SimTime::from_ns(delay(scale, small));
                let was_empty = r.armed.is_empty();
                let expected = r.poll(now);
                if was_empty {
                    cov.empty_polls += 1;
                } else if expected.is_empty() {
                    cov.idle_polls += 1;
                } else {
                    cov.firing_polls += 1;
                }
                fired.clear();
                w.poll(now, &mut fired);
                fired.sort_unstable();
                assert_eq!(fired, expected, "poll at {} ns", now.as_ns());
            }
        }
        assert_eq!(w.len(), r.armed.len());
        assert_eq!(w.is_empty(), r.armed.is_empty());
        assert_eq!(w.next_deadline(), r.next_deadline());
    }
    // Everything still armed fires, exactly once, by the end of time.
    let end = now + SimTime::from_ns(4 * BEYOND_SPAN_NS);
    fired.clear();
    w.poll(end, &mut fired);
    fired.sort_unstable();
    assert_eq!(fired, r.poll(end));
    assert!(w.is_empty());
    assert_eq!(w.next_deadline(), None);
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0u8..6, 0u64..64, 0usize..1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_wheel_expires_exactly_what_a_sorted_list_says_is_due(
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        run(&ops, &mut Coverage::default());
    }
}

/// The same property over many short seeded runs, asserting that they
/// really reach polls of an empty wheel, polls with nothing due, polls
/// that fire, overflow and past deadlines, and live and stale cancels.
#[test]
fn the_timer_reference_check_reaches_every_case() {
    let mut state = 0x2026_u64;
    let mut next = |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let ops: Vec<Op> = (0..20_000)
        .map(|_| (next(8) as u8, next(6) as u8, next(64), next(1024) as usize))
        .collect();
    let mut cov = Coverage::default();
    for run_ops in ops.chunks(100) {
        run(run_ops, &mut cov);
    }
    assert!(cov.empty_polls > 100, "empty-wheel polls {}", cov.empty_polls);
    assert!(cov.idle_polls > 100, "nothing-due polls {}", cov.idle_polls);
    assert!(cov.firing_polls > 100, "firing polls {}", cov.firing_polls);
    assert!(cov.overflow_inserts > 100, "overflow inserts {}", cov.overflow_inserts);
    assert!(cov.past_inserts > 100, "past inserts {}", cov.past_inserts);
    assert!(cov.live_cancels > 100, "live cancels {}", cov.live_cancels);
    assert!(cov.stale_cancels > 100, "stale cancels {}", cov.stale_cancels);
}
