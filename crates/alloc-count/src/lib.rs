//! # udc-alloc-count — a counting global allocator for tests
//!
//! Pins allocation counts and live bytes, not times, in the workspace's
//! footprint and no-allocation tests. A test binary installs it with its
//! `#[global_allocator]` line and reads [`allocations`] and
//! [`live_bytes`] around the code under test:
//!
//! ```
//! #[global_allocator]
//! static A: udc_alloc_count::CountingAlloc = udc_alloc_count::CountingAlloc;
//!
//! let before = udc_alloc_count::live_bytes();
//! let n = udc_alloc_count::allocs_during(|| {
//!     std::hint::black_box(Vec::<u64>::with_capacity(4));
//! });
//! assert_eq!(n, 1);
//! assert_eq!(udc_alloc_count::live_bytes(), before, "the Vec was freed");
//! ```
//!
//! The counts are per thread, because the test harness runs tests
//! (and allocates) on threads of its own; a process-wide counter would
//! charge each test with its siblings' work. Nothing outside tests
//! depends on this crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting on the calling thread.
pub struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation (when `new_block`) that changed the bytes held
/// by `delta`. `try_with`: a thread being torn down may still allocate.
fn count(new_block: bool, delta: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + new_block as u64));
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + delta));
}

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is bumping thread-local `Cell`s, which cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and reallocations made on this thread so far.
pub fn allocations() -> u64 {
    ALLOCS.get()
}

/// Bytes this thread has allocated and not freed so far (negative when
/// it freed more than it allocated).
pub fn live_bytes() -> i64 {
    LIVE_BYTES.get()
}

/// Allocations and reallocations `f` makes on this thread.
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}
