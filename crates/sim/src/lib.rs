//! `masim-sim`: a trace-driven MPI application simulator in the style of
//! SST/Macro.
//!
//! Ranks replay their DUMPI event streams as processes on a
//! discrete-event engine; collectives are lowered to the concrete
//! point-to-point rounds of the standard MPICH algorithms
//! ([`lower`]); and all traffic is routed over the target machine's
//! topology through one of three contention-aware network models
//! ([`net`]): packet, flow, or hybrid packet-flow.
//!
//! The algorithm shapes match `masim-mfact`'s analytic formulas, so in
//! the uncongested limit the simulator and the modeler agree; every
//! disagreement the study measures is contention — the effect the paper
//! quantifies.
//!
//! [`run`] is the one entry point: source (in-memory or streamed
//! trace), limits, and an optional telemetry sink are its arguments.
//!
//! # Example
//!
//! ```
//! use masim_sim::{run, ModelKind, SimConfig, SimLimits};
//! use masim_topo::Machine;
//! use masim_workloads::{generate, App, GenConfig};
//!
//! let trace = generate(&GenConfig::test_default(App::Lulesh, 8));
//! let machine = Machine::cielito();
//! for model in ModelKind::study_models() {
//!     let cfg = SimConfig::new(machine.clone(), model, &trace);
//!     let result = run(&trace, &cfg, SimLimits::unlimited(), None).expect("LULESH(8) completes");
//!     println!("{}: {}", model.name(), result.total);
//!     assert!(result.total > masim_trace::Time::ZERO);
//! }
//! ```

#![warn(missing_docs)]

pub mod error;
pub(crate) mod hash;
pub mod lower;
pub mod msg;
pub mod net;
pub mod runner;
pub mod util_report;

pub use error::SimError;
pub use net::ModelKind;
pub use runner::{
    run, simulate_budgeted, simulate_streamed_limited, SimConfig, SimLimits, SimResult,
};
pub use util_report::UtilReport;

/// Default packet size for the packet model (SST/Macro recommends
/// 1–8 KiB; 1 KiB is the high-fidelity end, which is what makes the packet model the slowest tool).
pub const DEFAULT_PACKET_BYTES: u64 = 1024;

/// Default coarse-packet size for the hybrid packet-flow model.
pub const DEFAULT_PFLOW_BYTES: u64 = 8 * 1024;

impl ModelKind {
    /// The paper's three simulator configurations with default packet
    /// sizes.
    pub fn study_models() -> [ModelKind; 3] {
        [
            ModelKind::Packet { packet_bytes: DEFAULT_PACKET_BYTES },
            ModelKind::Flow,
            ModelKind::PacketFlow { packet_bytes: DEFAULT_PFLOW_BYTES },
        ]
    }
}

/// Unit-test-only counting allocator: wraps the system allocator and
/// counts allocation events and live bytes per thread, so hot-path
/// routines (the flow re-solve, most prominently) can assert they are
/// allocation-free in steady state, and whole runs that their peak heap
/// does not grow with the number of messages.
#[cfg(test)]
pub(crate) mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::{Cell, RefCell};

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static LIVE: Cell<i64> = const { Cell::new(0) };
        static PEAK: Cell<i64> = const { Cell::new(0) };
        static RESOLVE_DELTAS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    }

    /// Move this thread's live-byte count by `grow - shrink`, raising
    /// its peak. Signed: a block freed on another thread than the one
    /// that allocated it takes that thread's count below zero, and
    /// differences between two readings stay exact.
    fn track(grow: usize, shrink: usize) {
        let _ = LIVE.try_with(|live| {
            let now = live.get() + grow as i64 - shrink as i64;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
    }

    pub(crate) struct Counting;

    // SAFETY: defers all allocation to `System`; the per-thread counter
    // updates are allocation-free and panic-free (`try_with` tolerates
    // TLS teardown).
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            track(layout.size(), 0);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            track(0, layout.size());
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            track(new_size, layout.size());
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    /// Allocation events on this thread so far.
    pub(crate) fn count() -> u64 {
        ALLOCS.with(|c| c.get())
    }

    /// Restart this thread's peak at its current live bytes; returns them.
    pub(crate) fn reset_peak() -> i64 {
        let live = LIVE.with(Cell::get);
        PEAK.with(|p| p.set(live));
        live
    }

    /// Most live bytes on this thread since the last [`reset_peak`].
    pub(crate) fn peak() -> i64 {
        PEAK.with(Cell::get)
    }

    /// Log one re-solve's allocation delta (called by `flow_resolve`
    /// after the delta is snapshotted, so the log's own growth lands in
    /// the *next* window — and `reset` pre-reserves it away anyway).
    pub(crate) fn record_resolve(delta: u64) {
        RESOLVE_DELTAS.with(|v| v.borrow_mut().push(delta));
    }

    pub(crate) fn reset() {
        RESOLVE_DELTAS.with(|v| {
            let mut v = v.borrow_mut();
            v.clear();
            v.reserve(1 << 16);
        });
    }

    pub(crate) fn take() -> Vec<u64> {
        RESOLVE_DELTAS.with(|v| std::mem::take(&mut *v.borrow_mut()))
    }
}
