//! Guard on the memory a router chassis requests: the linecards share
//! one DIR-24-8 forwarding table (a 64 MiB base array), not one table
//! per card.
//!
//! Every byte the heap is asked for while a simulation is built counts,
//! whether or not the kernel ever backs it with a page: per-card FIBs
//! cost mostly address space (N × 64 MiB of zero pages), which a
//! resident-set reading would not show. One `#[test]` only, because
//! the counter is global to the binary (the `forwarding_footprint`
//! pattern of `dra-topo`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dra::core::sim::{DraConfig, DraRouter};
use dra::router::bdr::{BdrConfig, BdrRouter};

struct ByteCountingAllocator;

/// Bytes requested so far: every allocation's size, and a
/// reallocation's new size.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAllocator = ByteCountingAllocator;

const MIB: u64 = 1 << 20;

/// Bytes requested while `build` runs (its result dropped after).
fn requested_by<T>(build: impl FnOnce() -> T) -> u64 {
    let before = REQUESTED.load(Ordering::Relaxed);
    let built = build();
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    drop(built);
    requested
}

#[test]
fn a_16_card_chassis_requests_one_fib_not_one_per_card() {
    let base = BdrConfig {
        n_lcs: 16,
        ..BdrConfig::default()
    };
    let bdr = requested_by(|| BdrRouter::simulation(base.clone(), 1));
    let dra = requested_by(|| {
        DraRouter::simulation(
            DraConfig {
                router: base.clone(),
                ..DraConfig::default()
            },
            1,
        )
    });
    // One 64 MiB base array plus slack for the crossbar, the cell
    // arena and the per-card state; sixteen tables would be 1 GiB.
    for (arch, requested) in [("BDR", bdr), ("DRA", dra)] {
        assert!(
            requested <= 128 * MIB,
            "{arch} with 16 linecards requested {} MiB, more than 128 MiB",
            requested / MIB
        );
    }
}
