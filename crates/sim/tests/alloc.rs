//! The steady-state event loop allocates nothing: a long ideal run
//! allocates well under once per 100 events under every protocol, so
//! what it does allocate is set-up plus the amortized growth of its
//! per-instance records.
//!
//! A counting global allocator tallies the allocations (reallocations
//! included) made by the test's own thread, so the harness's other
//! threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtsync_core::examples::{example1, example2};
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_sim::engine::{simulate, SimConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialized thread-local without a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations and events of one ideal run of `instances` per task.
fn measure(set: &TaskSet, protocol: Protocol, instances: u64) -> (u64, u64) {
    let cfg = SimConfig::new(protocol).with_instances(instances);
    let before = allocs();
    let outcome = simulate(set, &cfg).unwrap();
    let spent = allocs() - before;
    assert!(outcome.reached_target, "{protocol:?}");
    (spent, outcome.events)
}

#[test]
fn long_ideal_runs_allocate_under_one_in_a_hundred_events() {
    for (name, set) in [("example 1", example1()), ("example 2", example2())] {
        for protocol in Protocol::ALL {
            let (spent, events) = measure(&set, protocol, 20_000);
            assert!(events > 50_000, "{name} {protocol:?}: only {events} events");
            assert!(
                spent * 100 < events,
                "{name} {protocol:?}: {spent} allocations over {events} events"
            );
        }
    }
}
