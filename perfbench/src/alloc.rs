//! A counting global allocator: live heap bytes and a resettable peak.
//! Heap use is exact and repeatable where resident-set size is not (it
//! depends on allocator history), so the memory metric is taken from here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Heap bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Runs `f` and returns its result with the peak live heap bytes seen
/// while it ran.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed))
}

/// Median of per-operation peaks above `baseline` bytes, in MiB.
pub fn median_mb(peaks: &[usize], baseline: usize) -> f64 {
    let mb: Vec<f64> = peaks
        .iter()
        .map(|&p| p.saturating_sub(baseline) as f64 / (1u64 << 20) as f64)
        .collect();
    crate::common::median(&mb)
}
