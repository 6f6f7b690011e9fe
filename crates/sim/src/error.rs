//! Simulation failure modes.
//!
//! The paper's study treats tool failure as data, not as a crash:
//! SST/Macro's packet and flow models completed only 216 and 162 of the
//! 235 corpus traces. This repo mirrors that — a run that cannot finish
//! returns a [`SimError`] from [`crate::run`] and the study marks the
//! trace incomplete, instead of a panic taking down the whole study
//! thread pool. Deadlocks, invalid configurations, malformed traces and
//! memory-budget trips travel the same path.

use masim_des::ClockOverflow;
use masim_trace::TraceError;
use std::fmt;

/// How many blocked ranks a [`SimError::Deadlock`] lists explicitly
/// before summarizing (large traces can strand hundreds of ranks; the
/// error stays small and cheap to clone).
pub const DEADLOCK_RANK_SAMPLE: usize = 16;

/// Why a simulation did not produce a prediction.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The run exceeded its work budget (DES events + model work units),
    /// the analogue of the paper's wall-clock-limited tool failures.
    BudgetExhausted {
        /// Work consumed when the run was cut off.
        consumed: u64,
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The simulation clock overflowed its u64 picosecond range — a
    /// pathological compute duration or retry loop pushed `now + delay`
    /// past ~213 simulated days.
    ClockOverflow {
        /// Network model that was running.
        model: &'static str,
        /// Where the clock arithmetic failed.
        overflow: ClockOverflow,
    },
    /// The event queue drained with ranks still blocked: the trace
    /// deadlocks (e.g. mutually blocking receives or an unmatched
    /// receive that validation would have flagged).
    Deadlock {
        /// Network model that was running.
        model: &'static str,
        /// Ranks that finished.
        finished: u32,
        /// Total ranks in the trace.
        total: u32,
        /// A sample of the blocked ranks (at most
        /// `DEADLOCK_RANK_SAMPLE`, in rank order).
        waiting_ranks: Vec<u32>,
    },
    /// The configuration cannot be simulated at all: the mapping does
    /// not match the trace or fit the machine.
    InvalidConfig {
        /// Human-readable description of the rejected configuration.
        reason: String,
    },
    /// An event broke an MPI rule: a request id reused while
    /// outstanding, a wait on a request that is not, or an out-of-range
    /// peer. The rank is parked at that event. On a trace with one such
    /// defect, [`masim_trace::Trace::validate`] and MFACT's replay report
    /// the same error.
    Malformed(TraceError),
    /// The route arena hit a structural limit — more distinct routes
    /// than the `u32` route-id space, or a route longer than `u16` hops.
    /// At mega scale this used to be an `expect` panic deep in `intern`.
    /// Its resident bytes are bounded by [`crate::SimLimits::max_bytes`].
    RouteArenaExhausted {
        /// Distinct routes interned when the arena gave up.
        routes: u64,
        /// Resident bytes in the arena at that point.
        bytes: u64,
        /// Which limit was hit, human-readable.
        limit: String,
    },
    /// A single message would split into more packets than the `u32`
    /// sequence space can number — previously an `assert!` (and, worse,
    /// a silent `as u32` truncation of the sequence counter).
    OversizedMessage {
        /// Message payload size.
        bytes: u64,
        /// Packets the payload would split into.
        packets: u64,
    },
    /// A collective's lowered rounds would not fit the tag space that
    /// keeps them apart from application traffic: more than
    /// [`crate::lower::MAX_COLL_ROUNDS`] rounds (a pairwise all-to-all
    /// over more than 2 049 ranks), or a rank's
    /// [`crate::lower::MAX_COLL_ORDINALS`]-th collective. Checked when
    /// the rank enters the collective, before it issues a round.
    CollectiveTagOverflow {
        /// The rank entering the collective.
        rank: u32,
        /// The collective's ordinal on that rank.
        ordinal: u32,
        /// Rounds the collective lowers to.
        rounds: u32,
    },
    /// Estimated resident memory exceeded the configured budget
    /// ([`crate::SimLimits::max_bytes`]) — the typed replacement for an
    /// allocator abort when a mega-scale run outgrows its container.
    MemoryBudget {
        /// Estimated resident bytes when the run was cut off.
        resident: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BudgetExhausted { consumed, budget } => {
                write!(f, "simulation budget exhausted: {consumed} work units > budget {budget}")
            }
            SimError::ClockOverflow { model, overflow } => {
                write!(f, "{model} model aborted, trace incomplete: {overflow}")
            }
            SimError::Deadlock { model, finished, total, waiting_ranks } => {
                write!(
                    f,
                    "simulation deadlocked: {finished}/{total} ranks finished ({model} model; \
                     blocked ranks {waiting_ranks:?}{})",
                    if (total - finished) as usize > waiting_ranks.len() { ", ..." } else { "" }
                )
            }
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid simulation configuration: {reason}")
            }
            SimError::Malformed(e) => write!(f, "malformed trace: {e}"),
            SimError::RouteArenaExhausted { routes, bytes, limit } => {
                write!(
                    f,
                    "route arena exhausted after {routes} routes ({bytes} B resident): {limit}"
                )
            }
            SimError::OversizedMessage { bytes, packets } => {
                write!(
                    f,
                    "message of {bytes} bytes splits into {packets} packets, exceeding the u32 \
                     packet sequence space"
                )
            }
            SimError::CollectiveTagOverflow { rank, ordinal, rounds } => {
                write!(
                    f,
                    "rank {rank}'s collective #{ordinal} lowers to {rounds} rounds; lowered \
                     collective tags number at most {} rounds and {} collectives per rank",
                    crate::lower::MAX_COLL_ROUNDS,
                    crate::lower::MAX_COLL_ORDINALS
                )
            }
            SimError::MemoryBudget { resident, budget } => {
                write!(
                    f,
                    "simulation memory budget exceeded: {resident} B resident > {budget} B budget"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> SimError {
        SimError::Malformed(e)
    }
}
