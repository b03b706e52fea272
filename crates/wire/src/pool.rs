//! Recyclable byte-buffer pool for the fixed-memory fast path.
//!
//! The paper's SPP owns two dedicated 91-cell reassembly buffers per VC
//! and the MPP stages frames in fixed table memory (§5.2, §6) — nothing
//! on the cell path asks an allocator for memory. The software does not
//! dedicate memory per VC: the reassembler models its two buffers by
//! state and backs one with host memory only while a frame is assembled
//! in it. [`BufPool`] keeps that memory off the allocator: components
//! draw `Vec<u8>` staging/frame buffers from a free list with
//! [`BufPool::get`] and hand them back with [`BufPool::put`] once the
//! payload has left the component, so a warmed-up forwarding loop
//! recycles the same backing stores indefinitely instead of allocating
//! per frame.
//!
//! The pool is deliberately simple: a bounded LIFO free list (LIFO keeps
//! the hottest buffer in cache), buffers retain whatever capacity they
//! grew to, and misses fall back to a fresh allocation — so correctness
//! never depends on the pool being primed, only steady-state allocation
//! behaviour does. [`BufPool::stats`] exposes hit/miss counters so tests
//! and benches can prove the fast path runs entirely out of the pool.

/// Hit/miss/occupancy counters for a [`BufPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `get` calls served from the free list.
    pub hits: u64,
    /// `get` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned and retained.
    pub returns: u64,
    /// Buffers returned but dropped because the pool was full.
    pub discards: u64,
}

impl PoolStats {
    /// Buffers clients have drawn and not yet handed back — the pool
    /// census figure conservation checks compare against the number of
    /// buffers legitimately resident in component tables. A client that
    /// `put`s buffers it did not `get` makes this go negative, which is
    /// itself an accounting bug worth surfacing.
    pub fn outstanding(&self) -> i64 {
        (self.hits + self.misses) as i64 - (self.returns + self.discards) as i64
    }
}

/// A bounded free list of recycled `Vec<u8>` buffers.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    /// Maximum buffers retained on the free list.
    max_retained: usize,
    /// Capacity reserved in buffers the pool allocates on a miss.
    default_capacity: usize,
    stats: PoolStats,
}

impl BufPool {
    /// A pool retaining at most `max_retained` buffers, allocating
    /// `default_capacity`-byte buffers on a miss.
    #[expect(clippy::disallowed_methods, reason = "sizes the free list once at pool construction")]
    pub fn new(max_retained: usize, default_capacity: usize) -> BufPool {
        BufPool {
            free: Vec::with_capacity(max_retained.min(4096)),
            max_retained,
            default_capacity,
            stats: PoolStats::default(),
        }
    }

    /// An empty buffer, recycled when one is available.
    #[expect(
        clippy::disallowed_methods,
        reason = "the miss arm grows the pool toward steady state; a warm pool recycles and never allocates"
    )]
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.stats.hits += 1;
                debug_assert!(buf.is_empty());
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::with_capacity(self.default_capacity)
            }
        }
    }

    /// Return a buffer to the pool. The contents are cleared; the
    /// capacity is kept. Buffers beyond the retention bound are dropped.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() >= self.max_retained || buf.capacity() == 0 {
            self.stats.discards += 1;
            return;
        }
        buf.clear();
        self.stats.returns += 1;
        self.free.push(buf);
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_recycles_capacity() {
        let mut pool = BufPool::new(8, 64);
        let mut a = pool.get();
        assert_eq!(pool.stats().misses, 1);
        a.extend_from_slice(&[1; 500]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool = BufPool::new(2, 16);
        for _ in 0..4 {
            pool.put(Vec::with_capacity(16));
        }
        assert_eq!(pool.free.len(), 2);
        assert_eq!(pool.stats().discards, 2);
    }

    #[test]
    fn zero_capacity_buffers_are_not_retained() {
        let mut pool = BufPool::new(8, 16);
        pool.put(Vec::new());
        assert_eq!(pool.free.len(), 0, "an unallocated Vec is useless to recycle");
    }
}
