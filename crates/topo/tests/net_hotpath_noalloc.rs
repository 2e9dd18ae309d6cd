//! Proof that the network engine's steady-state per-hop event path
//! stays off the heap — in both the serial kernel and the parallel
//! (windowed) engine.
//!
//! The serial measurement is direct: warm a mesh-4x4 up to steady
//! state, then count allocations across a long measurement window.
//! The parallel engine builds and tears down its run inside one call,
//! so it is measured by *run-length difference*: the allocations of a
//! long run minus those of a half-length run are (construction and
//! teardown cancelling) the cost of the extra steady-state simulated
//! time — which must be essentially zero per hop. Provenance-chain
//! interning, cross-LP staging, payload sidecars, and arena recycling
//! all live inside that window.
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

fn mesh_net(sim_threads: usize, traffic_stop_s: f64) -> NetworkSim {
    let topo = Topology::build(TopologyKind::Mesh2D { rows: 4, cols: 4 });
    let cfg = NetConfig {
        traffic_stop_s,
        sim_threads,
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

#[test]
fn steady_state_network_simulation_is_allocation_free() {
    // --- Serial kernel: direct warmup-then-measure. ---
    let mut sim = mesh_net(1, 40e-3).simulation(7);
    sim.run_until(5e-3); // warm the calendar queue and link tables
    let events_before = sim.events_processed();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_until(35e-3);
    let serial_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let serial_events = sim.events_processed() - events_before;
    assert!(
        serial_events > 50_000,
        "serial window too small ({serial_events} events)"
    );
    // Rare residual growth (a Welford table, a calendar bucket first
    // touched in the window) is tolerated; per-event allocation is
    // not. Observed: 0 over ~190k events.
    assert!(
        (serial_allocs as f64) < (serial_events as f64) / 10_000.0,
        "serial hot path allocated {serial_allocs} times over {serial_events} events"
    );

    // --- Parallel engine (sim-threads = 2): run-length difference. ---
    // Construction, precompute, thread spawn, and the final merge are
    // identical between the two runs; the difference isolates the
    // extra steady-state windows. The short run is itself run twice
    // first so the thread-local arrival-precompute pool reaches its
    // high-water capacity before anything is measured.
    let short_horizon = 20e-3;
    let long_horizon = 35e-3;
    let run = |horizon: f64| {
        let net = mesh_net(2, horizon - 5e-3);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let done = net.run(7, horizon);
        (
            ALLOCATIONS.load(Ordering::Relaxed) - before,
            total_hops(&done),
        )
    };
    run(short_horizon); // pool warmup, unmeasured
    let (short_allocs, short_hops) = run(short_horizon);
    let (long_allocs, long_hops) = run(long_horizon);
    let extra_hops = long_hops - short_hops;
    assert!(
        extra_hops > 10_000.0,
        "parallel window too small ({extra_hops} extra hops)"
    );
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    // The longer run may legitimately allocate a handful more times —
    // doubling of the per-LP delivery ledgers and chain stores, a
    // larger merge-sort scratch buffer — but nothing proportional to
    // hops. One alloc per ~100 hops would already be a regression;
    // the bound leaves an order of magnitude of headroom below the
    // old clone-per-hop behavior (which costs ≥ 2 allocs per hop).
    assert!(
        (extra_allocs as f64) < extra_hops / 100.0,
        "parallel hot path allocated {extra_allocs} extra times over {extra_hops} extra hops \
         (short run: {short_allocs} allocs / {short_hops} hops)"
    );

    // --- Hub armed + collector on, sampling off: the hot path still
    // never allocates. (The sections above measured collection off,
    // where every hook is one thread-local flag check.) Counters increment in place,
    // ring events overwrite a preallocated buffer, and outcome points
    // land in storage reserved at enable time; per-packet span
    // collection is the only sampled (and allocating) part, and
    // sampling 0 turns it off.
    {
        dra_telemetry::enable(dra_telemetry::Config {
            sample_every: 0,
            ..dra_telemetry::Config::default()
        });

        // Serial kernel, direct warmup-then-measure.
        let mut net = mesh_net(1, 40e-3);
        net.enable_net_telemetry(0);
        let mut sim = net.simulation(7);
        sim.run_until(5e-3);
        let events_before = sim.events_processed();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        sim.run_until(35e-3);
        let tele_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let tele_events = sim.events_processed() - events_before;
        assert!(
            tele_events > 50_000,
            "telemetry serial window too small ({tele_events} events)"
        );
        assert!(
            (tele_allocs as f64) < (tele_events as f64) / 10_000.0,
            "serial hot path with telemetry enabled allocated {tele_allocs} times \
             over {tele_events} events"
        );

        // Parallel engine (profiled run included), run-length diff.
        let run_tele = |horizon: f64| {
            let mut net = mesh_net(2, horizon - 5e-3);
            net.enable_net_telemetry(0);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let done = net.run(7, horizon);
            (
                ALLOCATIONS.load(Ordering::Relaxed) - before,
                total_hops(&done),
            )
        };
        run_tele(short_horizon); // warmup, unmeasured
        let (short_allocs, short_hops) = run_tele(short_horizon);
        let (long_allocs, long_hops) = run_tele(long_horizon);
        let extra_hops = long_hops - short_hops;
        assert!(
            extra_hops > 10_000.0,
            "telemetry parallel window too small ({extra_hops} extra hops)"
        );
        let extra_allocs = long_allocs.saturating_sub(short_allocs);
        assert!(
            (extra_allocs as f64) < extra_hops / 100.0,
            "parallel hot path with telemetry enabled allocated {extra_allocs} extra times \
             over {extra_hops} extra hops \
             (short run: {short_allocs} allocs / {short_hops} hops)"
        );
        dra_telemetry::disable();
    }
}
