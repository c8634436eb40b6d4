//! Proves the credit scheduler's steady-state call path allocates nothing.
//!
//! A counting global allocator brackets a stretch of simulated time in
//! which a RUBiS-shaped scheduler (Dom0 with 2 VCPUs plus three 1-VCPU
//! guests on 2 pCPUs) is driven through `submit`, `on_timer`,
//! `boost_front`, `notify` and `grant_credit` at about 80% load across
//! dozens of 30 ms accounting passes, and asserts the allocation counter
//! did not move. This binary installs its own `#[global_allocator]`, so
//! it holds only this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use simcore::Nanos;
use xsched::{Burst, CreditScheduler, DomId, SchedConfig, SchedEvent, WakeMode};

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

/// Simulated time per step; 2 000 steps span 26 accounting passes.
const STEP: Nanos = Nanos::from_micros(400);
const STEPS: u64 = 2_000;

/// Drives one 400 µs step per `k`: catch the scheduler up through every
/// internal boundary the way the platform's master loop does, then feed
/// it a burst and, on some steps, a coordination call. Every input lands
/// at the scheduler's own `now`, so the `Vec`s they return stay empty.
/// Returns the number of bursts that completed.
fn drive(
    s: &mut CreditScheduler,
    doms: &[DomId],
    now: &mut Nanos,
    steps: Range<u64>,
    out: &mut Vec<SchedEvent>,
) -> usize {
    let mut completed = 0;
    for k in steps {
        let t = *now + STEP;
        while let Some(h) = s.next_event_time().filter(|&h| h <= t) {
            s.on_timer(h, out);
        }
        s.on_timer(t, out);
        completed += out.len();
        out.clear();
        *now = t;

        let dom = doms[(k % doms.len() as u64) as usize];
        let demand = Nanos::from_micros(200 + k * 37 % 900);
        let (burst, wake) = if k % 3 == 0 {
            (Burst::system(demand, k), WakeMode::Boost)
        } else {
            (Burst::user(demand, k), WakeMode::Plain)
        };
        assert!(s.submit(t, dom, burst, wake).unwrap().is_empty());
        match k % 10 {
            3 => assert!(s.boost_front(t, dom).unwrap().is_empty()),
            5 => assert!(s.notify(t, dom).unwrap().is_empty()),
            7 => s.grant_credit(dom, 50).unwrap(),
            _ => {}
        }
    }
    completed
}

#[test]
fn steady_state_scheduling_does_not_allocate() {
    let mut s = CreditScheduler::new(SchedConfig::new(2));
    let doms = [
        s.create_domain("dom0", 256, 2),
        s.create_domain("web", 256, 1),
        s.create_domain("app", 256, 1),
        s.create_domain("db", 256, 1),
    ];
    let mut now = Nanos::ZERO;
    let mut out = Vec::new();
    // Warm-up: let the burst queues, runqueues and completion buffer grow
    // to their working size.
    assert!(drive(&mut s, &doms, &mut now, 0..STEPS, &mut out) > 0);

    // The counter is process-global, so the libtest harness thread can
    // allocate inside the bracket. Other threads can only inflate the
    // count, never hide a scheduler allocation — so the minimum over a
    // few attempts is the scheduler's own cost.
    let mut best = u64::MAX;
    for attempt in 1..=5 {
        let before = ALLOCS.load(Ordering::SeqCst);
        let steps = attempt * STEPS..(attempt + 1) * STEPS;
        let completed = drive(&mut s, &doms, &mut now, steps, &mut out);
        best = best.min(ALLOCS.load(Ordering::SeqCst) - before);
        assert!(completed > 1_000, "only {completed} bursts completed");
        if best == 0 {
            break;
        }
    }
    assert_eq!(
        best, 0,
        "{STEPS} scheduler steps allocated {best} time(s) on the cleanest of 5 attempts",
    );
    assert!(s.context_switches() > 0 && s.preemptions() > 0);
}
