//! Verifies the flight recorder's bounded-overhead contract: once a
//! thread's ring exists, recording an event, alone or in a burst,
//! performs no heap allocation. Lives in its own test binary (single
//! test) because it swaps in a counting global allocator. The counter
//! is per-thread — the libtest harness's main thread occasionally
//! allocates while the test body runs, and those allocations are not
//! the recorder's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

// Const-initialized Cell<u64> TLS: the access itself never allocates
// and registers no destructor, so it is safe inside the allocator.
std::thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn recording_allocates_nothing_after_ring_warmup() {
    let flight = everest_telemetry::flight();
    // First event creates this thread's preallocated ring.
    flight.marker("warmup", 0.0);

    let before = ALLOCATIONS.with(Cell::get);
    // More events than the ring holds, so both the fill and the
    // overwrite paths are exercised.
    for i in 0..4096 {
        flight.record(everest_telemetry::EventKind::Observe, "hot.value", i as f64);
    }
    // Bursts queue on the stack and flush into the same ring.
    for i in 0..512 {
        let mut burst = flight.burst();
        burst.record(everest_telemetry::EventKind::SpanBegin, "hot.burst", i as f64);
        for j in 0..everest_telemetry::BURST_SLOTS {
            burst.marker("hot.burst", j as f64);
        }
        burst.record(everest_telemetry::EventKind::SpanEnd, "hot.burst", i as f64);
    }
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(after - before, 0, "flight recording must not allocate per event");

    // The events really are there (ring capacity's worth, newest last).
    let dump = flight.dump("check");
    let hot = dump.events.iter().filter(|e| e.name.starts_with("hot.")).count();
    assert_eq!(hot, everest_telemetry::recorder::DEFAULT_RING_CAPACITY);
    assert_eq!(dump.events.last().map(|e| e.kind), Some(everest_telemetry::EventKind::SpanEnd));
}
