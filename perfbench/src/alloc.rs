//! Counting global allocator. While counting is on, every allocation in
//! the process bumps one counter and the live-byte balance follows alloc,
//! realloc and dealloc sizes; a difference of two readings taken while it
//! stays on is exact. Counting is off by default because its shared
//! counters, hit from the query executor's worker threads, would slow
//! and jitter the timed phases.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn count(allocs: u64, bytes: i64) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(allocs, Relaxed);
        LIVE_BYTES.fetch_add(bytes, Relaxed);
    }
}

/// Forwards to [`System`] and counts.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the pointers and layouts keep `System`'s guarantees. The counters are
// statistics only (relaxed atomics publish no other data) and never
// change what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(1, layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(1, layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(0, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(1, new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocations (including reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Balance of bytes allocated less bytes freed while counting was on.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Relaxed)
}
