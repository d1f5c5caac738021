//! The disabled sink's contract: every call is a single enum-tag check
//! and performs **zero heap allocations**, so leaving instrumentation in
//! hot paths costs nothing when telemetry is off.
//!
//! Verified with a counting global allocator: the delta across a tight
//! loop of sink calls must be exactly zero. That includes string fields
//! and tags built from static labels (`"exact".into()`): they borrow
//! the label, so the caller's argument list allocates nothing before
//! the sink decides not to record it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use sea_telemetry::{TelemetrySink, TraceContext};

#[test]
fn noop_sink_allocates_nothing() {
    let sink = TelemetrySink::noop();
    let parent = TraceContext::NONE;

    // Warm up any lazily-initialized test-harness state outside the
    // measured window.
    sink.incr("warmup", 1);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        sink.incr("storage.node.blocks_read", i);
        sink.observe("bench.query_sim_us", i as f64);
        sink.gauge_set("agent.quanta", i as f64);
        sink.begin_query(i);
        let span = sink.span_child_of(&parent, "query.executor.node");
        span.record_sim_us(1.0);
        span.tag("node", i);
        span.tag("branch", "predicted");
        sink.event("agent.predicted", &[("est_error", 0.01.into())]);
        sink.event("cache.hit", &[("class", "exact".into())]);
        let counter = sink.counter("geo.wan_bytes");
        counter.add(i);
        drop(span);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "noop telemetry path must not allocate (got {} allocations)",
        after - before
    );
}
