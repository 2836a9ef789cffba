//! Allocation budget of the Traffic Reflection hot path.
//!
//! A counting global allocator tallies heap allocations made on the
//! test's own thread (other test threads run concurrently and are not
//! counted). The 25-flow Fig. 4 scenario reflects 10,000 frames through
//! sources, a learning switch, a tap and the XDP host; a steady stream
//! must recycle its arrival boxes, staging slots and payload buffers
//! instead of allocating per frame. steelcheck's `hot-path-alloc` rule
//! cannot see these sites (a device callback's per-event loop lives in
//! its caller), so this test is the guard.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use steelworks_core::prelude::*;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-locals are gone.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, ALLOCS.with(Cell::get))
}

#[test]
fn reflection_allocates_less_than_once_per_twenty_frames() {
    let (out, allocs) = count_allocs(|| fig4_right_one(25, 0x57EE1, 400));
    let reflected = out.stats.tx;
    assert_eq!(reflected, 25 * 400, "every frame reflected");
    let per_frame = allocs as f64 / reflected as f64;
    eprintln!("{allocs} allocations for {reflected} reflected frames ({per_frame:.4} per frame)");
    assert!(
        per_frame < 0.05,
        "{allocs} allocations over {reflected} reflected frames = {per_frame:.3} per frame"
    );
}

#[test]
fn counter_sees_this_threads_allocations() {
    let (v, allocs) = count_allocs(|| vec![0u8; 64]);
    assert_eq!(v.len(), 64);
    assert_eq!(allocs, 1);
}
