//! The benchmark's global allocator.
//!
//! Untraced runs forward every call straight to the system allocator
//! behind one relaxed load. A traced run switches counting on: calls then
//! go through [`tfb_obs::alloc::CountingAllocator`] (process totals) and
//! also bump a per-thread tally, so a job running on one worker thread
//! can be charged its own allocations while another worker runs beside
//! it. Load-generator threads exclude themselves, so per-request counts
//! are the server's alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use tfb_obs::alloc::CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized and without destructors, so reading them never
    // allocates and never fails during thread teardown.
    static THREAD_TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// The allocator installed in `main.rs`.
pub struct GatedAlloc;

fn counted(size: usize) -> bool {
    if !COUNTING.load(Ordering::Relaxed) || EXCLUDED.try_with(Cell::get).unwrap_or(true) {
        return false;
    }
    let _ = THREAD_TALLY.try_with(|t| {
        let (calls, bytes) = t.get();
        t.set((calls + 1, bytes + size as u64));
    });
    true
}

// SAFETY: every method forwards to `System` or to `CountingAllocator`,
// which itself forwards to `System`, with the caller's arguments
// unchanged; memory from either is released by `System.dealloc`, which
// is the allocator that produced it.
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted(layout.size()) {
            CountingAllocator.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted(layout.size()) {
            CountingAllocator.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are not counted: the benchmark reads calls and bytes
        // requested, never live bytes.
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted(new_size) {
            CountingAllocator.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

/// Switches allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Keeps the calling thread's allocations out of every count.
pub fn exclude_this_thread() {
    EXCLUDED.with(|e| e.set(true));
}

/// Allocation calls and bytes counted on the calling thread so far.
pub fn thread_tally() -> (u64, u64) {
    THREAD_TALLY.with(Cell::get)
}

/// Allocation calls and bytes counted process-wide so far.
pub fn process_tally() -> (u64, u64) {
    let s = tfb_obs::alloc::stats();
    (s.calls, s.bytes)
}
