//! A counting global allocator: the peak of live heap bytes.
//!
//! `VmHWM` does not repeat on this host — the same seed of `serve_mixed`
//! peaked at 97, 103, 110 and 119 MB in four runs, because which glibc
//! arena a thread's buffers land in, and whether a freed one is trimmed,
//! depends on how the threads happened to interleave. The bytes the
//! program *asked for* do repeat, so the gated memory metric is the peak
//! of live heap bytes, counted here; peak RSS is still reported, ungated,
//! by the traced run. The binary installs this allocator; the cost is two
//! relaxed atomic operations per allocation, the same on both sides of
//! any comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live and peak bytes.
pub struct CountingAlloc;

// Statistics only: the counters publish no other data, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, that
        // is, from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`, and the caller guarantees `new_size` is
        // valid for the layout's alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Forget the peak so far: what follows is measured from the bytes live
/// now. Called once the seeded fixture exists, so that generating it
/// (the benchmark's work, not the program's) is not in the metric.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak of live heap bytes so far, in MB; 0 when [`CountingAlloc`] is not
/// the global allocator (the library's own tests).
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_live_and_peak_bytes_through_every_entry_point() {
        // Not installed globally in tests, so drive it directly; other
        // tests cannot move the counters.
        let a = CountingAlloc;
        let layout = Layout::from_size_align(1 << 20, 8).unwrap();
        let live_before = LIVE.load(Ordering::Relaxed);
        // SAFETY: the layout is non-zero-sized; every pointer is freed
        // below with the layout it currently has.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(LIVE.load(Ordering::Relaxed), live_before + (1 << 20));
            let p = a.realloc(p, layout, 3 << 20);
            assert!(!p.is_null());
            assert_eq!(LIVE.load(Ordering::Relaxed), live_before + (3 << 20));
            let grown = Layout::from_size_align(3 << 20, 8).unwrap();
            let p = a.realloc(p, grown, 1 << 19);
            let shrunk = Layout::from_size_align(1 << 19, 8).unwrap();
            assert_eq!(LIVE.load(Ordering::Relaxed), live_before + (1 << 19));
            let z = a.alloc_zeroed(layout);
            assert_eq!(*z.add((1 << 20) - 1), 0);
            a.dealloc(z, layout);
            a.dealloc(p, shrunk);
        }
        assert_eq!(LIVE.load(Ordering::Relaxed), live_before);
        assert!(peak_heap_mb() >= 3.0);
    }
}
