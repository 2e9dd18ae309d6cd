//! Process-wide allocation counter for the traced run's
//! `allocs_per_hop` / `allocs_per_event` rows.
//!
//! Counts every heap allocation (alloc, zeroed, and growth realloc) on
//! every thread, the same convention as the repository's no-alloc
//! tests and `bench-hotpath`. One relaxed increment per allocator call
//! is noise next to the call itself, and the untraced end-to-end runs
//! pay it on both sides of any A/B comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark binary's global allocator.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the caller's obligations under the `GlobalAlloc` contract are
// exactly `System`'s; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; see the impl-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the process so far (all threads).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
