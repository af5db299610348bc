//! A counting global allocator for integration tests that pin allocation
//! counts. A test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: common::CountingAlloc = common::CountingAlloc;
//! ```
//!
//! and is best a binary of its own: the counters are process-wide, so any
//! test running beside the counted code lands in its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Size class `k` holds the requests of `2ᵏ ..< 2ᵏ⁺¹` bytes (class 0 also
/// the empty ones).
const CLASSES: usize = usize::BITS as usize;

// Statistics only: the counters publish no other data, so `Relaxed`.
static CALLS: [AtomicU64; CLASSES] = [const { AtomicU64::new(0) }; CLASSES];
static BYTES: [AtomicU64; CLASSES] = [const { AtomicU64::new(0) }; CLASSES];

/// Count one request for `size` bytes (a `realloc` counts as a request for
/// its new size).
fn count(size: usize) {
    let class = size.checked_ilog2().unwrap_or(0) as usize;
    CALLS[class].fetch_add(1, Ordering::Relaxed);
    BYTES[class].fetch_add(size as u64, Ordering::Relaxed);
}

/// The system allocator, counting calls and bytes by size class. It never
/// allocates itself.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, that is,
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as `dealloc`, and the caller guarantees `new_size` is
        // valid for the layout's alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
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
