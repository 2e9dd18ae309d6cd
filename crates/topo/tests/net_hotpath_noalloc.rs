//! Proof that the network engine's steady-state per-hop event path
//! stays off the heap, with telemetry collection off and on.
//!
//! The engine builds and tears down its run inside one call, so it is
//! measured by *run-length difference*: the allocations of a long run
//! minus those of a half-length run are (construction and teardown
//! cancelling) the cost of the extra steady-state simulated time —
//! which must be essentially zero per hop. Arrival scheduling and the
//! calendar queue's event churn both live inside that window.
//!
//! Everything shares one `#[test]`: `#[global_allocator]` is
//! per-binary and the counter is global, so concurrent tests would
//! pollute each other's windows (same pattern as
//! `dra-router/tests/hotpath_noalloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dra_core::health::ArchKind;
use dra_topo::topology::{Topology, TopologyKind};
use dra_topo::{Flow, NetConfig, NetworkSim};

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

fn mesh_net(traffic_stop_s: f64) -> NetworkSim {
    let topo = Topology::build(TopologyKind::Mesh2D { rows: 4, cols: 4 });
    let cfg = NetConfig {
        traffic_stop_s,
        ..NetConfig::default()
    };
    let flows = vec![
        Flow {
            src: 0,
            dst: 15,
            rate_pps: 60_000.0,
        },
        Flow {
            src: 12,
            dst: 3,
            rate_pps: 60_000.0,
        },
        Flow {
            src: 5,
            dst: 10,
            rate_pps: 40_000.0,
        },
        Flow {
            src: 2,
            dst: 13,
            rate_pps: 40_000.0,
        },
    ];
    NetworkSim::new(topo, ArchKind::Dra, cfg, flows)
}

/// Total hop count a finished run observed (delivered packets only —
/// an undercount of hop events, which makes the per-hop bound
/// stricter, not looser).
fn total_hops(net: &NetworkSim) -> f64 {
    net.stats.hops.count() as f64 * net.stats.hops.mean()
}

/// Assert the extra allocations of a 35 ms run over a 20 ms run stay
/// far below one per hop, with the network-scope collector installed
/// when `telemetry` is set.
fn assert_steady_state_allocation_free(telemetry: bool) {
    let run = |horizon: f64| {
        let mut net = mesh_net(horizon - 5e-3);
        if telemetry {
            net.enable_net_telemetry(0);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let done = net.run(7, horizon);
        (
            ALLOCATIONS.load(Ordering::Relaxed) - before,
            total_hops(&done),
        )
    };
    // Construction and the final ledger count are identical between
    // the two measured runs; the difference isolates the extra
    // steady-state events. The short run goes first, twice, so any
    // first-run set-up is out of the way before anything is measured.
    run(20e-3);
    let (short_allocs, short_hops) = run(20e-3);
    let (long_allocs, long_hops) = run(35e-3);
    let extra_hops = long_hops - short_hops;
    let ctx = format!("telemetry {telemetry}");
    assert!(
        extra_hops > 10_000.0,
        "{ctx}: window too small ({extra_hops} extra hops)"
    );
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    // The longer run may legitimately allocate a handful more times —
    // doubling of the queue, arena and outcome vectors — but nothing
    // proportional to hops. One alloc per ~100 hops would already be a
    // regression; the bound leaves an order of magnitude of headroom
    // below the old clone-per-hop behavior (≥ 2 allocs per hop).
    assert!(
        (extra_allocs as f64) < extra_hops / 100.0,
        "{ctx}: hot path allocated {extra_allocs} extra times over {extra_hops} extra hops \
         (short run: {short_allocs} allocs / {short_hops} hops)"
    );
}

#[test]
fn steady_state_network_simulation_is_allocation_free() {
    assert_steady_state_allocation_free(false);
    // Hub armed + collector on, sampling off: the hot path still never
    // allocates. Counters increment in place, ring events overwrite a
    // preallocated buffer, and outcome points land in storage reserved
    // at enable time; per-packet span collection is the only sampled
    // (and allocating) part, and sampling 0 turns it off.
    dra_telemetry::enable(dra_telemetry::Config {
        sample_every: 0,
        ..dra_telemetry::Config::default()
    });
    assert_steady_state_allocation_free(true);
    dra_telemetry::disable();
}
