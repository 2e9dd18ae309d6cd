//! Proof that the steady-state simulation hot path stays off the heap
//! — including every telemetry hook site.
//!
//! The telemetry hooks are always compiled in. With no hub enabled on
//! the thread each hook is one thread-local flag check; with a hub
//! armed but lifecycle sampling off, counters and flight-recorder
//! events land in storage reserved at enable time. This one test pins
//! both states: after a warmup that grows every table to steady
//! state, a measurement window of the full BDR pipeline (arrivals,
//! lookups, VOQs, iSLIP, reassembly, delivery accounting) must perform
//! essentially zero heap allocations per event.
//!
//! Lives in its own integration-test binary because
//! `#[global_allocator]` is per-binary (same pattern as
//! `dra-net/tests/lookup_batch_noalloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dra_router::bdr::{BdrConfig, BdrRouter};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations and events over a steady-state window of a warmed-up
/// BDR router, plus the bytes it delivered.
fn measure_window() -> (u64, u64, u64) {
    let cfg = BdrConfig {
        n_lcs: 6,
        load: 0.5,
        ..BdrConfig::default()
    };
    let mut sim = BdrRouter::simulation(cfg, 0xA110C);

    // Warmup: let the calendar queue, VOQ rings, reassembly slot
    // table, and in-flight map grow to their steady-state footprint.
    sim.run_until(5e-3);

    let events_before = sim.events_processed();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_until(15e-3);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let events = sim.events_processed() - events_before;
    (
        after - before,
        events,
        sim.model().metrics.total_delivered_bytes(),
    )
}

#[test]
fn steady_state_simulation_is_allocation_free() {
    let off = measure_window();
    dra_telemetry::enable(dra_telemetry::Config {
        sample_every: 0,
        ..dra_telemetry::Config::default()
    });
    let armed = measure_window();
    dra_telemetry::disable();

    for ((allocs, events, delivered), state) in [(off, "off"), (armed, "armed")] {
        assert!(events > 100_000, "window too small to be meaningful");
        // Rare residual growth (a hash-map rehash, a calendar bucket
        // that first fills in this window) is tolerated; per-event
        // allocation is not. Observed: 0 allocations over ~500k events.
        assert!(
            (allocs as f64) < (events as f64) / 10_000.0,
            "steady-state hot path (telemetry {state}) allocated {allocs} times \
             over {events} events"
        );
        assert!(delivered > 0, "window delivered nothing");
    }
}
