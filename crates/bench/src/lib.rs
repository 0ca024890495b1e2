//! # fedopt-bench
//!
//! Criterion bench targets live under `benches/`; run them with
//! `cargo bench -p fedopt-bench` (or a single harness, e.g.
//! `cargo bench -p fedopt-bench --bench engine_scaling`).
//!
//! The library itself hosts two things: [`CountingAllocator`], the instrumented global
//! allocator behind the zero-allocation proof (`tests/alloc_free.rs`) and the
//! `perf_capture` bench, and [`write_capture`], where the `perf_capture` and `round_sim`
//! benches write their machine-readable captures (`target/bench-capture/`).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

std::thread_local! {
    /// Per-thread allocation count. Thread-local (const-initialized, so reading it never
    /// allocates) because the test harness runs other tests — and the sweep engine other
    /// workers — concurrently; a process-global counter would attribute their allocations
    /// to the measuring thread.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`]-backed global allocator that counts every allocation — and every
/// reallocation, growing *or* shrinking (deliberately conservative: any `realloc` may move
/// the block, so the zero-allocation proof treats it as heap traffic) — made by the
/// *current thread*.
///
/// Install it in a test or bench binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;` and read the
/// counter with [`thread_allocation_count`]; the difference across a code region is the
/// number of heap allocations that region performed on this thread. Deallocations are not
/// counted — the zero-allocation contract is about not *requesting* memory in steady
/// state.
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn record() {
        // `try_with`: during thread teardown the TLS slot may already be destroyed; those
        // few allocations are simply not counted rather than panicking inside the
        // allocator.
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards verbatim to `System`; the only addition is a thread-local
// counter bump, which performs no allocation (const-initialized `Cell<u64>`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Number of heap allocations the current thread has performed so far (see
/// [`CountingAllocator`]). Monotone; measure a region by differencing.
pub fn thread_allocation_count() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Writes a bench's machine-readable capture to `target/bench-capture/<name>` under the
/// workspace root, creating the directory, and returns the path written.
///
/// # Panics
///
/// Panics if the directory or the file cannot be written.
pub fn write_capture(name: &str, json: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench-capture"));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let out = dir.join(name);
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    out
}
