//! A bounded event ring.
//!
//! Component models record interesting moments (cell discarded, timer
//! expired, token captured…) into an [`EventRing`]: cheap, and never
//! growing without bound. The management plane's causal trace is one,
//! over structured (non-`String`) events.

/// A bounded ring of typed events: retains the most recent `capacity`
/// entries and counts evictions exactly.
///
/// Storage is reserved up front, so a ring at steady state (full and
/// evicting) performs no allocation per event — a requirement for
/// tracing on a critical path.
#[derive(Debug, Clone)]
pub struct EventRing<E> {
    capacity: usize,
    events: std::collections::VecDeque<E>,
    dropped: u64,
}

impl<E> EventRing<E> {
    /// A ring retaining the most recent `capacity` events (at least
    /// one).
    pub fn bounded(capacity: usize) -> EventRing<E> {
        EventRing {
            capacity,
            events: std::collections::VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Record an event. When the ring is full the oldest event is
    /// evicted and counted in [`EventRing::dropped`].
    pub fn push(&mut self, event: E) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &E> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_keeps_most_recent() {
        let mut t = EventRing::bounded(3);
        for i in 0..5u64 {
            t.push(format!("e{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let details: Vec<&str> = t.events().map(String::as_str).collect();
        assert_eq!(details, ["e2", "e3", "e4"]);
    }

    #[test]
    fn overflow_dropped_count_stays_exact() {
        // Push far past capacity: `dropped` must equal exactly the
        // number of evictions, and the retained window must be the most
        // recent `capacity` events in order.
        let capacity = 7;
        let total = 1000u64;
        let mut t = EventRing::bounded(capacity);
        for i in 0..total {
            t.push(i);
        }
        assert_eq!(t.len(), capacity);
        assert_eq!(t.dropped(), total - capacity as u64);
        let retained: Vec<u64> = t.events().copied().collect();
        let expected: Vec<u64> = (total - capacity as u64..total).collect();
        assert_eq!(retained, expected, "retained window is the most recent {capacity} events");
    }

    #[test]
    fn overflow_window_slides_one_event_at_a_time() {
        let mut t = EventRing::bounded(3);
        for i in 0..3u64 {
            t.push(i);
        }
        assert_eq!(t.dropped(), 0, "no drop until the first eviction");
        for i in 3..6u64 {
            t.push(i);
            assert_eq!(t.dropped(), i - 2, "one eviction per overflowing push");
            assert_eq!(t.len(), 3, "length pinned at capacity");
        }
    }

    #[test]
    fn event_ring_matches_trace_semantics() {
        let mut r: EventRing<u64> = EventRing::bounded(4);
        assert!(r.is_empty());
        for i in 0..10u64 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.events().copied().collect::<Vec<_>>(), [6, 7, 8, 9]);
    }
}
