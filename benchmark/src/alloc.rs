//! Per-thread counting allocator.
//!
//! A process-global counter would also count whatever other threads
//! allocate while a chunk is being timed (the lesson of ROADMAP item 0:
//! `tests/mgmt_overhead.rs` counted its sibling tests' allocations).
//! Here the counter and its gate are thread-local: only allocations made
//! by the thread that opened the gate, while the gate is open, count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Gate and counter of the current thread. `const`-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// can never allocate or run during thread teardown.
    static GATE: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The benchmark binary's global allocator: `System`, plus the count.
pub struct CountingAllocator;

fn note() {
    // `try_with` so an allocation made while the thread's locals are
    // being torn down is passed through uncounted, not a panic.
    let _ = GATE.try_with(|g| {
        if g.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller gets exactly `System`'s contract; `note` touches only two
// thread-local `Cell`s and never allocates, so it cannot re-enter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from the matching alloc above,
        // which returned `System`'s block untouched.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`, `layout` and `new_size` pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep glibc from asking the kernel for memory more than once.
///
/// Left alone, glibc maps a large block (a gateway's tables and buffer
/// memories are that) afresh and unmaps it when freed — until the first
/// such free raises its threshold, after which blocks of that size are
/// served from the heap, which it trims back to the kernel when the top
/// is free. A construction that faults in fresh zero pages costs 2–3× one
/// that recycles warm heap, *when* a process switches depends on its
/// heap layout (one build's `setup_s` read 0.23 ms under one seed and
/// 0.38 ms under another), and page faults in a virtual machine are the
/// hypervisor's time, not the program's (the floor of `a2f_bulk`'s
/// construction moved between 244 and 381 µs from process to process).
/// With mapping off and trimming off, memory comes from the heap, is
/// faulted in once and recycled from then on: `setup_s` times the
/// constructor's own work, which is what a later change can move.
/// Elsewhere than glibc this does nothing.
pub fn keep_heap_warm() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` takes two plain integers, touches only the
        // allocator's own tunables, and is called once from `main`
        // before any other thread exists.
        let ok = unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 };
        assert!(ok, "mallopt refused M_MMAP_MAX / M_TRIM_THRESHOLD");
    }
}

/// Run `f` with this thread's gate open and return how many heap
/// allocations (alloc, alloc_zeroed, realloc) it made. Nests: an inner
/// call counts into its own total and the outer one still sees it.
pub fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let was_open = GATE.with(|g| g.replace(true));
    let before = COUNT.with(Cell::get);
    let r = f();
    let after = COUNT.with(Cell::get);
    GATE.with(|g| g.set(was_open));
    (after - before, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_the_gate_and_only_this_thread() {
        let noisy = std::thread::spawn(|| {
            for _ in 0..1000 {
                std::hint::black_box(vec![0u8; 64]);
            }
        });
        let (n, v) = counted(|| {
            let v: Vec<u64> = Vec::with_capacity(8);
            std::hint::black_box(v)
        });
        noisy.join().expect("helper thread");
        drop(v);
        assert_eq!(n, 1, "exactly the one Vec, whatever the other thread did");
        let (n, ()) = counted(|| {});
        assert_eq!(n, 0);
        std::hint::black_box(vec![1u8; 16]);
        let (n, ()) = counted(|| {});
        assert_eq!(n, 0, "allocations outside the gate are not carried in");
    }
}
