//! `masim-trace`: the DUMPI-like MPI trace substrate shared by every
//! other crate in the workspace.
//!
//! The paper's tools (MFACT and SST/Macro) are both *trace-driven*: they
//! replay a recorded stream of MPI calls per rank. This crate provides
//! that common substrate:
//!
//! * [`Time`] — integer picosecond simulated time;
//! * [`Bandwidth`] — link rates and exact serialization times;
//! * [`Rank`] / [`NodeId`] / [`ReqId`] newtypes;
//! * [`Event`] — the MPI event model (point-to-point, nonblocking
//!   requests, collectives, compute gaps) with measured durations;
//! * [`Trace`] — the per-rank trace container, a builder, and structural
//!   validation (send/recv matching, request lifecycle, collective
//!   agreement);
//! * [`io`] — the binary trace format (MASS v1), and [`StreamedTrace`] — its
//!   one-rank-at-a-time reader;
//! * [`Features`] — the 34 measurable Table III features;
//! * [`Mailbox`] — per-rank (source, tag) matching, and [`Requests`] —
//!   per-rank request rules, both shared by the simulator and MFACT.
//!
//! # Example
//!
//! ```
//! use masim_trace::{Rank, RankBuilder, Time, Trace, TraceMeta};
//!
//! let meta = TraceMeta {
//!     app: "pingpong".into(),
//!     machine: "demo".into(),
//!     ranks: 2,
//!     ranks_per_node: 1,
//!     problem_size: 1,
//!     seed: 0,
//! };
//! let mut trace = Trace::empty(meta);
//!
//! let mut r0 = RankBuilder::new(Rank(0));
//! r0.compute(Time::from_us(10));
//! r0.send(Rank(1), 4096, 0, Time::from_us(2));
//! trace.events[0] = r0.finish();
//!
//! let mut r1 = RankBuilder::new(Rank(1));
//! r1.recv(Rank(0), 4096, 0, Time::from_us(2));
//! trace.events[1] = r1.finish();
//!
//! assert_eq!(trace.validate(), Ok(()));
//! assert_eq!(trace.measured_time(), Time::from_us(12));
//!
//! // Round-trip through the binary format.
//! let bytes = masim_trace::io::encode(&trace);
//! assert_eq!(masim_trace::io::decode(&bytes).unwrap(), trace);
//! ```

#![warn(missing_docs)]

mod event;
mod features;
mod ids;
pub mod io;
mod mailbox;
mod stream;
mod time;
mod trace;
mod units;

pub use event::{CollKind, Event, EventKind};
pub use features::{Features, FEATURE_NAMES, NUM_FEATURES};
pub use ids::{NodeId, Rank, ReqId};
pub use mailbox::{check_peer, Mailbox, Requests};
pub use stream::{
    write_stream, RankCursor, SegmentWriter, StreamError, StreamedTrace, TraceSource,
};
pub use time::Time;
pub use trace::{RankBuilder, Trace, TraceError, TraceMeta};
pub use units::Bandwidth;

/// Unit-test-only counting allocator: counts allocation events per
/// thread, so [`Mailbox`] can assert steady-state matching allocates
/// nothing.
#[cfg(test)]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct Counting;

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
