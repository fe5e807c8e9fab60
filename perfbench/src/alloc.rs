//! A counting global allocator built on `std` alone.
//!
//! Installed in the benchmark binary only. Counting is off until
//! [`start`] is called, so untraced runs pay one relaxed atomic load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`], counting allocations while enabled.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count() {
    if ENABLED.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Start counting (from zero).
pub fn start() {
    ALLOCATIONS.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Pause counting; the total so far is kept.
pub fn pause() {
    ENABLED.store(false, Relaxed);
}

/// Resume counting after [`pause`].
pub fn resume() {
    ENABLED.store(true, Relaxed);
}

/// Allocations counted since [`start`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}
