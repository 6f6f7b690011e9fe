//! The DUMPI-like MPI event model.
//!
//! A trace records, per rank, the sequence of MPI calls the application
//! made plus the computation gaps between them. Mirroring the DUMPI
//! format the paper uses, each record carries the *measured* duration the
//! call took in the original execution; replay tools are free to keep
//! (MFACT scales computation from these) or recompute (both tools model
//! communication from message metadata) those durations.

use crate::ids::{Rank, ReqId};
use crate::time::Time;
use std::fmt;

/// The collective operations the workloads in this study use.
///
/// The set matches what SST/Macro's trace replay and MFACT's
/// Thakur–Gropp cost models support, which covers every NAS and DOE
/// application in the corpus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CollKind {
    /// `MPI_Barrier`: pure synchronization, no payload.
    Barrier,
    /// `MPI_Bcast` from `root`.
    Bcast,
    /// `MPI_Reduce` to `root`.
    Reduce,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Gather` to `root`.
    Gather,
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Scatter` from `root`.
    Scatter,
    /// `MPI_Alltoall` (uniform per-peer payload).
    Alltoall,
    /// `MPI_Alltoallv`; `bytes` is this rank's total send volume.
    Alltoallv,
    /// `MPI_Reduce_scatter`.
    ReduceScatter,
}

/// Message-size threshold between the short- and long-message collective
/// algorithms (MPICH's defaults sit in the 8–64 KiB range; we follow the
/// common 12 KiB switch point for tree vs. pipeline algorithms). MFACT's
/// cost formulas, the simulator's lowering and the generator's stamps all
/// switch here.
pub const LONG_MSG_SWITCH: u64 = 12 * 1024;

/// Bruck-vs-pairwise switch for `Alltoall` (small payloads use Bruck's
/// log-round algorithm; large payloads use pairwise exchange).
pub const A2A_BRUCK_SWITCH: u64 = 1024;

impl CollKind {
    /// All collective kinds, for exhaustive tests and table generation.
    pub const ALL: [CollKind; 10] = [
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
        CollKind::Gather,
        CollKind::Allgather,
        CollKind::Scatter,
        CollKind::Alltoall,
        CollKind::Alltoallv,
        CollKind::ReduceScatter,
    ];

    /// Whether the operation is rooted (has a distinguished root rank).
    pub fn is_rooted(self) -> bool {
        matches!(self, CollKind::Bcast | CollKind::Reduce | CollKind::Gather | CollKind::Scatter)
    }

    /// Whether every rank exchanges data with every other rank
    /// ("first all-to-all collective" in Table III counts these).
    pub fn is_all_to_all(self) -> bool {
        matches!(self, CollKind::Alltoall | CollKind::Alltoallv)
    }

    /// Stable numeric tag for serialization.
    pub(crate) fn code(self) -> u8 {
        match self {
            CollKind::Barrier => 0,
            CollKind::Bcast => 1,
            CollKind::Reduce => 2,
            CollKind::Allreduce => 3,
            CollKind::Gather => 4,
            CollKind::Allgather => 5,
            CollKind::Scatter => 6,
            CollKind::Alltoall => 7,
            CollKind::Alltoallv => 8,
            CollKind::ReduceScatter => 9,
        }
    }

    /// Inverse of [`CollKind::code`].
    pub(crate) fn from_code(code: u8) -> Option<CollKind> {
        CollKind::ALL.get(code as usize).copied()
    }
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollKind::Barrier => "Barrier",
            CollKind::Bcast => "Bcast",
            CollKind::Reduce => "Reduce",
            CollKind::Allreduce => "Allreduce",
            CollKind::Gather => "Gather",
            CollKind::Allgather => "Allgather",
            CollKind::Scatter => "Scatter",
            CollKind::Alltoall => "Alltoall",
            CollKind::Alltoallv => "Alltoallv",
            CollKind::ReduceScatter => "ReduceScatter",
        };
        f.write_str(s)
    }
}

/// One recorded event in a rank's stream.
///
/// Field meanings are uniform across variants: `peer` is the remote rank,
/// `bytes` the payload size, `tag` the MPI message tag, and `req` the
/// nonblocking request handle.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field meanings documented on the enum
pub enum EventKind {
    /// Local computation between MPI calls.
    Compute,
    /// Blocking standard-mode send of `bytes` to `peer` with `tag`.
    Send { peer: Rank, bytes: u64, tag: u32 },
    /// Nonblocking send; completion is observed by a later `Wait*` on `req`.
    Isend { peer: Rank, bytes: u64, tag: u32, req: ReqId },
    /// Blocking receive of `bytes` from `peer` with `tag`.
    Recv { peer: Rank, bytes: u64, tag: u32 },
    /// Nonblocking receive; completion is observed by a later `Wait*` on `req`.
    Irecv { peer: Rank, bytes: u64, tag: u32, req: ReqId },
    /// `MPI_Wait` on one request.
    Wait { req: ReqId },
    /// `MPI_Waitall` on a set of requests (issue order preserved).
    WaitAll { reqs: Vec<ReqId> },
    /// A collective over `MPI_COMM_WORLD`. `bytes` is the per-rank payload
    /// contribution (for `Alltoallv`, this rank's total send volume);
    /// `root` is meaningful only for rooted kinds.
    Coll { kind: CollKind, bytes: u64, root: Rank },
}

impl EventKind {
    /// True for computation gaps (non-MPI time).
    pub fn is_compute(&self) -> bool {
        matches!(self, EventKind::Compute)
    }

    /// Bytes this event *sends* into the network from this rank.
    ///
    /// Collectives report the per-rank contribution (what Table III's
    /// "total bytes sent" aggregates); receives and waits report 0.
    pub fn sent_bytes(&self, world: u32) -> u64 {
        match *self {
            EventKind::Send { bytes, .. } | EventKind::Isend { bytes, .. } => bytes,
            EventKind::Coll { kind, bytes, root } => match kind {
                CollKind::Barrier => 0,
                // Rooted ops: only the root (Bcast/Scatter) or every
                // non-root (Reduce/Gather) injects payload; we charge the
                // per-rank contribution uniformly as DUMPI's byte counters do.
                CollKind::Bcast | CollKind::Scatter => {
                    let _ = root;
                    bytes
                }
                CollKind::Reduce | CollKind::Gather => bytes,
                CollKind::Allreduce | CollKind::Allgather | CollKind::ReduceScatter => bytes,
                CollKind::Alltoall => bytes.saturating_mul(world.saturating_sub(1) as u64),
                CollKind::Alltoallv => bytes,
            },
            _ => 0,
        }
    }
}

/// An event paired with its measured duration from the original run.
///
/// The sum of durations along a rank's stream is that rank's measured
/// execution time; this is the "measured application time observed in the
/// traces" that Figures 3(c)/4(c) normalize against.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// What the application did.
    pub kind: EventKind,
    /// How long the call (or compute region) took in the traced run.
    pub dur: Time,
}

impl Event {
    /// Convenience constructor.
    pub fn new(kind: EventKind, dur: Time) -> Event {
        Event { kind, dur }
    }

    /// A computation gap of `dur`.
    pub fn compute(dur: Time) -> Event {
        Event { kind: EventKind::Compute, dur }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coll_code_round_trip() {
        for k in CollKind::ALL {
            assert_eq!(CollKind::from_code(k.code()), Some(k));
        }
        assert_eq!(CollKind::from_code(200), None);
    }

    #[test]
    fn rooted_and_a2a_flags() {
        assert!(CollKind::Bcast.is_rooted());
        assert!(!CollKind::Allreduce.is_rooted());
        assert!(CollKind::Alltoall.is_all_to_all());
        assert!(CollKind::Alltoallv.is_all_to_all());
        assert!(!CollKind::Barrier.is_all_to_all());
    }

    #[test]
    fn kind_predicates() {
        let send = EventKind::Send { peer: Rank(1), bytes: 8, tag: 0 };
        let irecv = EventKind::Irecv { peer: Rank(1), bytes: 8, tag: 0, req: ReqId(0) };
        let wait = EventKind::Wait { req: ReqId(0) };
        let coll = EventKind::Coll { kind: CollKind::Barrier, bytes: 0, root: Rank(0) };
        assert!([send, irecv, wait, coll].iter().all(|k| !k.is_compute()));
        assert!(EventKind::Compute.is_compute());
    }

    #[test]
    fn sent_bytes_accounting() {
        let world = 4;
        assert_eq!(EventKind::Send { peer: Rank(1), bytes: 100, tag: 0 }.sent_bytes(world), 100);
        assert_eq!(EventKind::Recv { peer: Rank(1), bytes: 100, tag: 0 }.sent_bytes(world), 0);
        let a2a = EventKind::Coll { kind: CollKind::Alltoall, bytes: 10, root: Rank(0) };
        assert_eq!(a2a.sent_bytes(world), 30); // 10 bytes to each of 3 peers
        let barrier = EventKind::Coll { kind: CollKind::Barrier, bytes: 0, root: Rank(0) };
        assert_eq!(barrier.sent_bytes(world), 0);
        let v = EventKind::Coll { kind: CollKind::Alltoallv, bytes: 123, root: Rank(0) };
        assert_eq!(v.sent_bytes(world), 123); // already a total
    }
}
