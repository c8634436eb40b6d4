//! Proves `ResponseStats::record` allocates only for a request type it
//! has not seen before.
//!
//! A counting global allocator brackets repeated records on known keys
//! and asserts the allocation counter did not move. This binary installs
//! its own `#[global_allocator]`, so it holds only this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use metrics::ResponseStats;
use simcore::Nanos;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn recording_known_request_types_does_not_allocate() {
    const KEYS: [&str; 4] = ["ViewItem", "PutBid", "StoreBid", "AboutMe"];
    let mut stats = ResponseStats::new();
    let before_first = ALLOCS.load(Ordering::SeqCst);
    for key in KEYS {
        stats.record(key, Nanos::from_millis(3));
    }
    assert!(
        ALLOCS.load(Ordering::SeqCst) > before_first,
        "a type's first record stores its name"
    );

    // Other threads can only inflate the process-global count, so the
    // minimum over a few attempts is `record`'s own cost.
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::SeqCst);
        for i in 0..10_000u64 {
            stats.record(KEYS[(i % 4) as usize], Nanos::from_micros(500 + i));
        }
        best = best.min(ALLOCS.load(Ordering::SeqCst) - before);
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "10000 records on known types allocated {best} time(s)"
    );
    assert_eq!(stats.types(), KEYS.len());
    assert!(stats.total() >= 10_004);
}
