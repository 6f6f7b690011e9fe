//! `masim-des`: discrete-event simulation engines.
//!
//! Two engines are provided:
//!
//! * [`engine::Engine`] — the sequential pending-event-set simulator the
//!   network models in `masim-sim` run on: typed events interpreted by a
//!   [`engine::Handler`] over a shared state, payloads slab-allocated in
//!   a generation-tagged arena ([`arena`]), pending set kept in a
//!   ladder queue ([`queue`]); deterministic (time, sequence)
//!   ordering, O(1) cancellation.
//! * [`pdes::WindowedPdes`] — a conservative window-synchronized
//!   parallel executor (the PDES style SST/Macro uses), for models
//!   partitioned into logical processes with positive lookahead.

#![warn(missing_docs)]

pub mod arena;
pub mod engine;
pub mod error;
pub mod pdes;
pub mod queue;

pub use arena::{EventId, MAX_INLINE_PAYLOAD_BYTES};
pub use engine::{Engine, Handler};
pub use error::{ClockOverflow, PdesError};
pub use pdes::{LogicalProcess, Outbox, PdesLimits, WindowedPdes};
pub use queue::LadderQueue;

/// Test-only counting allocator so hot-path tests can assert "zero
/// allocations in steady state" (same pattern as `masim-sim`'s flow
/// solver test). Counts allocation events per thread; frees are free.
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) struct Counting;

    // SAFETY: defers all allocation to `System`; the per-thread counter
    // bump is allocation-free and panic-free (`try_with` tolerates TLS
    // teardown).
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    /// Allocation events on this thread so far.
    pub(crate) fn count() -> u64 {
        ALLOCS.with(|c| c.get())
    }
}
