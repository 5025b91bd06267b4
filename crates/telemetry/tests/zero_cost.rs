//! Zero-cost-when-disabled audit: with telemetry off, span creation and
//! counter recording must not allocate. The disabled path is a single
//! relaxed load and a branch — this test pins the "no allocation"
//! half of that contract with a counting global allocator (the cycle
//! cost is pinned separately by the telemetry on/off guardrail in
//! `BENCH_hw_exec.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Counting per thread keeps the test
    /// harness and concurrently running tests out of the count; the `const`
    /// initializer means the counter itself never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local cell with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: never panic inside the allocator.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from the matching alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

#[test]
fn disabled_spans_and_counters_do_not_allocate() {
    inca_telemetry::set_enabled(false);
    // Warm thread-locals (shard slot, span stack) outside the measured
    // region: first-use initialization may allocate once per thread,
    // which is not the steady-state path this audit pins.
    {
        let _warm = inca_telemetry::span("warmup");
        inca_telemetry::incr(inca_telemetry::Event::XbarReadPulse);
    }

    let n = allocations_during(|| {
        for _ in 0..10_000 {
            let _span = inca_telemetry::span("serve.request");
            inca_telemetry::record(inca_telemetry::Event::XbarReadPulse, 7);
            inca_telemetry::incr(inca_telemetry::Event::AdcConversion);
        }
    });
    assert_eq!(n, 0, "disabled telemetry path allocated {n} times");
}

#[test]
fn disabled_histogram_construction_is_cheap() {
    // The histogram itself allocates lazily: an empty histogram holds no
    // buckets, so observability scaffolding that is constructed but
    // never fed stays allocation-free too.
    let n = allocations_during(|| {
        let h = inca_telemetry::LogLinearHist::default_ns();
        assert!(h.is_empty());
    });
    assert_eq!(n, 0, "empty histogram allocated {n} times");
}
