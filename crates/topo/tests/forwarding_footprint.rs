//! Guard on the memory a network's forwarding state requests: a
//! topology holds one destination DIR-24-8 FIB (a 64 MiB base array)
//! and a next-hop table of N² × 2 bytes, not one 64 MiB FIB per node.
//!
//! Every byte the heap is asked for while `build_network` runs counts,
//! whether or not the kernel ever backs it with a page: per-node FIBs
//! cost mostly address space (N × 64 MiB of zero pages), which a
//! resident-set reading would not show. One `#[test]` only, because
//! the counter is global to the binary (the `net_hotpath_noalloc`
//! pattern).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dra_topo::build_network;
use dra_topo::registry::scale2;

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

#[test]
fn a_mesh_32x32_network_requests_one_fib_not_one_per_node() {
    let spec = scale2(false);
    let cell = spec
        .cells
        .iter()
        .find(|c| c.topology.label() == "mesh-32x32")
        .expect("scale2 has a mesh-32x32 cell");
    let before = REQUESTED.load(Ordering::Relaxed);
    let net = build_network(cell, spec.master_seed, 0);
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(net.topo.n_nodes(), 1024);
    drop(net);
    // One 64 MiB base array, a 2 MiB next-hop table (1,024² × 2
    // bytes), and slack for the topology, routers and links.
    assert!(
        requested <= 128 * MIB,
        "build_network requested {} MiB, more than 128 MiB",
        requested / MIB
    );
}
