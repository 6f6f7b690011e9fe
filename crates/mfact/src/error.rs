//! Typed replay failures.
//!
//! Malformed traces (deadlocks, dangling or reused request ids,
//! out-of-range peers) are data under the fault-contained study runner —
//! the study records the trace as failed with a cause — so the replay
//! core returns a [`ReplayError`] through
//! [`crate::try_replay`]. The panicking [`crate::replay()`] wrapper
//! stays because `benchmark/src/adapter.rs` binds it.

use std::fmt;

/// Why a logical-clock replay could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The replay drained its ready queue with ranks still blocked: the
    /// trace deadlocks (e.g. mutually blocking receives), which
    /// [`masim_trace::Trace::validate`] would have reported first.
    Deadlock {
        /// Ranks that finished.
        finished: u32,
        /// Total ranks in the trace.
        total: u32,
    },
    /// A `Wait`/`WaitAll` referenced a request id that was never issued
    /// (or was already retired) — a malformed trace.
    UnknownRequest {
        /// The waiting rank.
        rank: u32,
        /// The dangling request id.
        req: u32,
    },
    /// An `Isend`/`Irecv` reused a request id that is still outstanding
    /// (or `u32::MAX`, which the replay reserves for blocking receives).
    RequestReuse {
        /// The issuing rank.
        rank: u32,
        /// The reused request id.
        req: u32,
    },
    /// A point-to-point event names a peer outside the trace's ranks.
    PeerOutOfRange {
        /// The rank that sends or receives.
        rank: u32,
        /// The out-of-range peer.
        peer: u32,
    },
    /// The replay was invoked with an empty configuration list.
    NoConfigs,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Deadlock { finished, total } => {
                write!(f, "replay deadlocked: {finished}/{total} ranks finished (invalid trace?)")
            }
            ReplayError::UnknownRequest { rank, req } => {
                write!(f, "rank {rank} waits on unknown request {req}")
            }
            ReplayError::RequestReuse { rank, req } => {
                write!(f, "rank {rank} reuses outstanding request {req}")
            }
            ReplayError::PeerOutOfRange { rank, peer } => {
                write!(f, "rank {rank} addresses out-of-range peer {peer}")
            }
            ReplayError::NoConfigs => write!(f, "need at least one configuration"),
        }
    }
}

impl std::error::Error for ReplayError {}
