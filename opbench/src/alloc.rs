//! A counting wrapper around the system allocator.
//!
//! The library keeps its query scratch in a thread-local pipeline that no
//! public call exposes; the bytes a fresh thread still holds after its
//! queries have returned and their results have been dropped are that
//! scratch. The counters only move while counting is switched on (around
//! the scratch probe of a traced run); otherwise each allocation pays one
//! relaxed load, so the timed phases share no counter cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// [`System`] plus live-byte and allocation-count statistics.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count(grown: usize, freed: usize, allocations: u64) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE_BYTES.fetch_add(grown as i64 - freed as i64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(allocations, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only observe.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size(), 0, 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size(), 0, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(0, layout.size(), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size, layout.size(), 1);
        }
        p
    }
}

/// Switches counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Net bytes allocated by the whole process while counting was on.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocations (including reallocations) made by the whole process while
/// counting was on.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_retained_allocation_only_while_counting() {
        // Other tests may allocate concurrently, so only bounds on the
        // growth are certain; the buffer dwarfs any test noise.
        let before = (live_bytes(), allocations());
        let held = vec![0u8; 1 << 24];
        assert!(live_bytes() - before.0 < 1 << 24);
        drop(held);

        set_counting(true);
        let before = (live_bytes(), allocations());
        let held = vec![0u8; 1 << 24];
        assert!(live_bytes() - before.0 >= 1 << 24);
        assert!(allocations() > before.1);
        drop(held);
        set_counting(false);
    }
}
