//! Proof that the DRA router's steady-state hot path stays off the
//! heap, with telemetry off and armed — the DRA counterpart of
//! `dra-router/tests/hotpath_noalloc.rs`.
//!
//! Two windows: a healthy router (every packet takes BDR's path
//! through the coverage planner), and one with a failed SRU, so
//! packets to and from that card detour over the EIB data lines and
//! the logical-path handshake rides the control lines. After a warmup
//! that grows every table to steady state, each window must perform
//! essentially zero heap allocations per event.
//!
//! Lives in its own integration-test binary because
//! `#[global_allocator]` is per-binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dra_core::sim::{DraConfig, DraRouter};
use dra_router::bdr::BdrConfig;
use dra_router::components::ComponentKind;

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

/// Allocations, events and EIB packets over a steady-state window of a
/// warmed-up DRA router, plus the bytes it delivered. With `failed_sru`
/// set, linecard 1's SRU fails during the warmup.
fn measure_window(failed_sru: bool) -> (u64, u64, u64, u64) {
    let cfg = DraConfig {
        router: BdrConfig {
            n_lcs: 6,
            load: 0.5,
            ..BdrConfig::default()
        },
        ..DraConfig::default()
    };
    let mut sim = DraRouter::simulation(cfg, 0xA110C);
    sim.run_until(1e-3);
    if failed_sru {
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(1, ComponentKind::Sru, now);
    }
    // Warmup: the calendar, VOQ rings, reassembly tables, in-fabric map
    // and the EIB's per-flow tables grow to their steady-state size.
    sim.run_until(5e-3);

    let events_before = sim.events_processed();
    let eib_before = sim.model().metrics.eib_packets;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_until(15e-3);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let m = &sim.model().metrics;
    (
        after - before,
        sim.events_processed() - events_before,
        m.eib_packets - eib_before,
        m.total_delivered_bytes(),
    )
}

#[test]
fn steady_state_dra_simulation_is_allocation_free() {
    let mut windows = Vec::new();
    for armed in [false, true] {
        if armed {
            dra_telemetry::enable(dra_telemetry::Config {
                sample_every: 0,
                ..dra_telemetry::Config::default()
            });
        }
        for failed_sru in [false, true] {
            windows.push((measure_window(failed_sru), armed, failed_sru));
        }
        dra_telemetry::disable();
    }

    for ((allocs, events, eib, delivered), armed, failed_sru) in windows {
        let label = format!("telemetry armed: {armed}, failed SRU: {failed_sru}");
        assert!(
            events > 100_000,
            "{label}: window too small to be meaningful"
        );
        assert!(delivered > 0, "{label}: window delivered nothing");
        assert_eq!(eib > 0, failed_sru, "{label}: {eib} EIB packets");
        // As in the BDR test: rare residual growth is tolerated,
        // per-event allocation is not.
        assert!(
            (allocs as f64) < (events as f64) / 10_000.0,
            "{label}: steady-state hot path allocated {allocs} times over {events} events"
        );
    }
}
