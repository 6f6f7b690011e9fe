//! `masim-mfact`: the MPI Fast Application Classification Tool.
//!
//! A from-scratch implementation of MFACT (Tong et al., IPDPS'16), the
//! modeling side of the paper's trade-off study:
//!
//! * [`cost`] — Hockney point-to-point and Thakur–Gropp collective cost
//!   models, split into latency and bandwidth parts;
//! * [`replay()`] — the single-pass, multi-configuration logical-clock
//!   trace replay with the four counters (wait, latency, bandwidth,
//!   computation);
//! * [`try_classify`] — the sensitivity-sweep classifier (computation-bound,
//!   load-imbalance-bound, bandwidth-, latency-, communication-bound)
//!   and the paper's "communication-sensitive" rollup.
//!
//! MFACT deliberately ignores network contention — that is the modeling
//! side of the paper's accuracy trade-off. The contention-aware
//! counterpart lives in `masim-sim`.
//!
//! # Example
//!
//! ```
//! use masim_mfact::{replay, try_classify, ModelConfig};
//! use masim_topo::NetworkConfig;
//! use masim_workloads::{generate, App, GenConfig};
//!
//! let trace = generate(&GenConfig::test_default(App::Cg, 16));
//! let net = NetworkConfig::new(10.0, 2_500); // 10 Gb/s, 2.5 us
//!
//! // One replay, three what-if networks.
//! let results = replay(
//!     &trace,
//!     &[
//!         ModelConfig::base(net),
//!         ModelConfig::base(net.scaled(8.0, 1.0)),  // 8x bandwidth
//!         ModelConfig::base(net.scaled(1.0, 0.25)), // 4x lower latency
//!     ],
//! );
//! assert!(results[1].total <= results[0].total);
//!
//! let class = try_classify(&trace, net).expect("CG(16) replays");
//! println!("CG is {}", class.class);
//! ```

#![warn(missing_docs)]

mod classify;
pub mod cost;
mod error;
mod replay;

pub use classify::{probe_configs, try_classify, AppClass, Classification, SENSITIVITY_THRESHOLD};
pub use cost::{collective, p2p, CommCost};
pub use error::ReplayError;
pub use replay::{replay, try_replay, ConfigResult, Counters, ModelConfig};

/// Unit-test-only counting allocator: counts allocation events per
/// thread, so the replay can assert its allocations do not grow with the
/// number of messages.
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
