//! Counting allocator: heap allocations and bytes requested, per thread.
//!
//! The benchmark binary installs [`Counting`] as its `#[global_allocator]`
//! (the library and the repository's crates never do), so `allocs/op` and
//! `bytes/op` sit next to `ns/op` for every window and kernel. Counters
//! are thread-local `Cell`s with constant initialisers — no lazy
//! initialisation and no destructor, so reading them inside the allocator
//! cannot itself allocate — and every workload runs on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocation counters at one instant; subtract two for a window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `realloc` calls so far on this thread.
    pub allocs: u64,
    /// Bytes requested by those calls (a `realloc` counts its new size).
    pub bytes: u64,
}

impl AllocSnapshot {
    /// This thread's counters now. All zero unless the running binary
    /// installed [`Counting`].
    pub fn now() -> Self {
        AllocSnapshot {
            allocs: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl std::ops::AddAssign for AllocSnapshot {
    fn add_assign(&mut self, rhs: AllocSnapshot) {
        self.allocs += rhs.allocs;
        self.bytes += rhs.bytes;
    }
}

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
}

/// The system allocator plus the two counters above.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is two
// thread-local `Cell<u64>` updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`,
        // i.e. by `System` (the caller's contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from
        // `System`; `new_size` is the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
