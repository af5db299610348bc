//! A counting global allocator for integration tests that pin allocation
//! counts and the high-water mark of live heap bytes. A test binary
//! installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: common::CountingAlloc = common::CountingAlloc;
//! ```
//!
//! and is best a binary of its own: the counters are process-wide, so any
//! test running beside the counted code lands in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Size class `k` holds the requests of `2ᵏ ..< 2ᵏ⁺¹` bytes (class 0 also
/// the empty ones).
const CLASSES: usize = usize::BITS as usize;

// Statistics only: the counters publish no other data, so `Relaxed`.
static CALLS: [AtomicU64; CLASSES] = [const { AtomicU64::new(0) }; CLASSES];
static BYTES: [AtomicU64; CLASSES] = [const { AtomicU64::new(0) }; CLASSES];
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Count one request for `size` bytes (a `realloc` counts as a request for
/// its new size).
fn count(size: usize) {
    let class = size.checked_ilog2().unwrap_or(0) as usize;
    CALLS[class].fetch_add(1, Ordering::Relaxed);
    BYTES[class].fetch_add(size as u64, Ordering::Relaxed);
}

/// `bytes` more are live.
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// `bytes` fewer are live.
fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// The system allocator, counting calls and bytes by size class, and live
/// bytes with their peak. It never allocates itself.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, that is,
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Allocation calls and bytes requested, by size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    calls: [u64; CLASSES],
    bytes: [u64; CLASSES],
}

impl Counts {
    /// The counts of the process so far.
    fn now() -> Counts {
        Counts {
            calls: CALLS.each_ref().map(|c| c.load(Ordering::Relaxed)),
            bytes: BYTES.each_ref().map(|b| b.load(Ordering::Relaxed)),
        }
    }

    /// Calls for at least `2ᵏ` bytes.
    pub fn calls_from(&self, k: u32) -> u64 {
        self.calls[k as usize..].iter().sum()
    }

    /// Bytes requested by the calls for at least `2ᵏ` bytes.
    pub fn bytes_from(&self, k: u32) -> u64 {
        self.bytes[k as usize..].iter().sum()
    }
}

/// Run `f` and count the allocations the process made meanwhile.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = Counts::now();
    let result = f();
    let after = Counts::now();
    let delta = |a: [u64; CLASSES], b: [u64; CLASSES]| std::array::from_fn(|k| a[k] - b[k]);
    (
        result,
        Counts { calls: delta(after.calls, before.calls), bytes: delta(after.bytes, before.bytes) },
    )
}

/// Heap bytes live in the process now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Run `f` and return, beside its result, the most heap bytes the process
/// held live at once meanwhile.
pub fn peak_live<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let result = f();
    (result, PEAK.load(Ordering::Relaxed))
}
