//! Typed replay failures.
//!
//! Malformed traces are data under the fault-contained study runner —
//! the study records the trace as failed with a cause — so the replay
//! core returns a [`ReplayError`] through [`crate::try_replay`]. A trace
//! that breaks an MPI peer, root or request rule fails with the same
//! [`TraceError`] that [`masim_trace::Trace::validate`] and the
//! simulator report, as all three walk it through
//! [`masim_trace::Walker`]. The
//! panicking [`crate::replay()`] wrapper stays because
//! `benchmark/src/adapter.rs` binds it.

use masim_trace::{Stall, TraceError};
use std::fmt;

/// Why a logical-clock replay could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The replay drained its ready queue with ranks still blocked: the
    /// trace deadlocks (e.g. mutually blocking receives). A matched wait
    /// cycle passes [`masim_trace::Trace::validate`] and stalls here.
    Deadlock(Stall),
    /// An event broke an MPI rule: a request id reused while
    /// outstanding, a wait on a request that is not, or an out-of-range
    /// peer or root.
    Malformed(TraceError),
    /// The replay was invoked with an empty configuration list.
    NoConfigs,
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> ReplayError {
        ReplayError::Malformed(e)
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Deadlock(stall) => write!(f, "replay deadlocked: {stall}"),
            ReplayError::Malformed(e) => write!(f, "malformed trace: {e}"),
            ReplayError::NoConfigs => write!(f, "need at least one configuration"),
        }
    }
}

impl std::error::Error for ReplayError {}
