//! The trace container: per-rank event streams plus run metadata.

use crate::event::{CollKind, Event, EventKind};
use crate::ids::Rank;
use crate::stream::StreamError;
use crate::time::Time;
use crate::walk::{Action, Walker};
use std::collections::HashMap;
use std::fmt;

/// Validation ledger per (src, dst, tag) channel: the byte counts of its
/// sends and of its receives, each in program order.
type ChannelLedger = HashMap<(u32, u32, u32), [Vec<u64>; 2]>;

/// Metadata describing where a trace came from, mirroring the header of a
/// DUMPI trace set (application, machine, rank count, problem scale).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceMeta {
    /// Application name ("CG", "LULESH", …).
    pub app: String,
    /// Machine the trace was collected on ("cielito", "hopper", "edison").
    pub machine: String,
    /// World size (number of MPI ranks).
    pub ranks: u32,
    /// Ranks placed per node in the original run.
    pub ranks_per_node: u32,
    /// Problem-scale identifier (NAS class ordinal or mesh scale).
    pub problem_size: u32,
    /// Seed the synthetic generator used (0 for external traces).
    pub seed: u64,
}

impl TraceMeta {
    /// Number of nodes the run occupied (ceiling division).
    pub fn nodes(&self) -> u32 {
        assert!(self.ranks_per_node > 0, "ranks_per_node must be positive");
        self.ranks.div_ceil(self.ranks_per_node)
    }

    /// A compact "APP(ranks)@machine" label used in reports.
    pub fn label(&self) -> String {
        format!("{}({})@{}", self.app, self.ranks, self.machine)
    }
}

/// A complete application trace: one event stream per rank.
#[derive(Clone, PartialEq, Debug)]
pub struct Trace {
    /// Run metadata.
    pub meta: TraceMeta,
    /// `events[r]` is rank `r`'s stream in program order.
    pub events: Vec<Vec<Event>>,
}

/// A structural defect found by [`Trace::validate`] or, in a tool's
/// replay, by the [`crate::Walker`] it reads the trace through.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // fields carry the defect's coordinates; see Display
pub enum TraceError {
    /// `events.len()` disagrees with `meta.ranks`.
    RankCountMismatch { meta: u32, streams: usize },
    /// A rank is empty (DUMPI always records at least init/finalize gaps).
    EmptyRank(Rank),
    /// A peer rank is out of range.
    PeerOutOfRange { rank: Rank, peer: Rank },
    /// A message was sent but never received (or vice versa).
    UnmatchedMessage { src: Rank, dst: Rank, tag: u32, sends: usize, recvs: usize },
    /// Matched send/recv pair disagrees on payload size.
    ByteMismatch { src: Rank, dst: Rank, tag: u32, send_bytes: u64, recv_bytes: u64 },
    /// A wait references a request that was never issued (or already completed).
    DanglingWait { rank: Rank, req: u32 },
    /// A nonblocking request was issued but never waited on.
    UnwaitedRequest { rank: Rank, req: u32 },
    /// A request id was reused while still outstanding.
    RequestReuse { rank: Rank, req: u32 },
    /// Ranks disagree on the collective sequence.
    CollectiveMismatch { rank: Rank, index: usize },
    /// A collective's root is out of range.
    RootOutOfRange { rank: Rank, root: Rank },
    /// A streamed trace's file could not be read, or no longer decodes,
    /// at this rank's next event: it was truncated or rewritten after
    /// [`crate::StreamedTrace::open`] validated it.
    Unreadable { rank: Rank, cause: Box<StreamError> },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::RankCountMismatch { meta, streams } => {
                write!(f, "meta says {meta} ranks but trace has {streams} streams")
            }
            TraceError::EmptyRank(r) => write!(f, "rank {r} has no events"),
            TraceError::PeerOutOfRange { rank, peer } => {
                write!(f, "rank {rank} addresses out-of-range peer {peer}")
            }
            TraceError::UnmatchedMessage { src, dst, tag, sends, recvs } => {
                write!(f, "channel {src}->{dst} tag {tag}: {sends} sends vs {recvs} recvs")
            }
            TraceError::ByteMismatch { src, dst, tag, send_bytes, recv_bytes } => write!(
                f,
                "channel {src}->{dst} tag {tag}: send {send_bytes}B matched recv {recv_bytes}B"
            ),
            TraceError::DanglingWait { rank, req } => {
                write!(f, "rank {rank} waits on unknown request {req}")
            }
            TraceError::UnwaitedRequest { rank, req } => {
                write!(f, "rank {rank} never completes request {req}")
            }
            TraceError::RequestReuse { rank, req } => {
                write!(f, "rank {rank} reuses outstanding request {req}")
            }
            TraceError::CollectiveMismatch { rank, index } => {
                write!(f, "rank {rank} diverges from rank 0's collective sequence at #{index}")
            }
            TraceError::RootOutOfRange { rank, root } => {
                write!(f, "rank {rank} names out-of-range collective root {root}")
            }
            TraceError::Unreadable { rank, cause } => {
                write!(f, "rank {rank}'s events changed after the trace was opened: {cause}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Create an empty trace with `ranks` empty streams.
    pub fn empty(meta: TraceMeta) -> Trace {
        let n = meta.ranks as usize;
        Trace { meta, events: vec![Vec::new(); n] }
    }

    /// World size.
    #[inline]
    pub fn num_ranks(&self) -> u32 {
        self.meta.ranks
    }

    /// Total number of events across all ranks.
    pub fn num_events(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Measured execution time of one rank (sum of recorded durations).
    pub fn rank_time(&self, rank: Rank) -> Time {
        self.events[rank.idx()].iter().map(|e| e.dur).sum()
    }

    /// Measured application time: the longest rank (what the job took).
    pub fn measured_time(&self) -> Time {
        (0..self.events.len()).map(|r| self.rank_time(Rank(r as u32))).max().unwrap_or(Time::ZERO)
    }

    /// Measured time spent inside MPI calls, summed over all ranks.
    pub fn total_comm_time(&self) -> Time {
        self.events
            .iter()
            .flat_map(|es| es.iter())
            .filter(|e| !e.kind.is_compute())
            .map(|e| e.dur)
            .sum()
    }

    /// Measured computation time, summed over all ranks.
    pub fn total_compute_time(&self) -> Time {
        self.events
            .iter()
            .flat_map(|es| es.iter())
            .filter(|e| e.kind.is_compute())
            .map(|e| e.dur)
            .sum()
    }

    /// Fraction of total rank-time spent in communication, in [0, 1].
    ///
    /// This is the "communication intensity" statistic of Table Ib.
    pub fn comm_fraction(&self) -> f64 {
        let comm = self.total_comm_time().as_ps() as f64;
        let comp = self.total_compute_time().as_ps() as f64;
        let total = comm + comp;
        if total == 0.0 {
            0.0
        } else {
            comm / total
        }
    }

    /// Total bytes injected into the network by all ranks.
    pub fn total_bytes(&self) -> u64 {
        let world = self.num_ranks();
        self.events.iter().flat_map(|es| es.iter()).map(|e| e.kind.sent_bytes(world)).sum()
    }

    /// Check structural well-formedness; returns the first defect found.
    ///
    /// Verified properties:
    /// 1. stream count matches metadata, and no rank is empty;
    /// 2. the [`Walker`]'s rules, which MFACT and the simulator apply
    ///    too: peers and roots are in range, every nonblocking request
    ///    is waited exactly once, no dangling waits, no reuse of an
    ///    outstanding request id;
    /// 3. per (src, dst, tag) channel, sends and receives pair up FIFO
    ///    with equal byte counts;
    /// 4. every rank performs the same collective sequence (kind, root)
    ///    as rank 0 — MPI's matching rule for collectives.
    pub fn validate(&self) -> Result<(), TraceError> {
        let world = self.meta.ranks;
        if self.events.len() != world as usize {
            return Err(TraceError::RankCountMismatch { meta: world, streams: self.events.len() });
        }
        let mut walker = Walker::new(self);
        let mut channels: ChannelLedger = HashMap::new();
        // Rank 0's collective sequence, walked first.
        let mut colls: Vec<(CollKind, Rank)> = Vec::new();
        for (r, es) in self.events.iter().enumerate() {
            let rank = Rank(r as u32);
            if es.is_empty() {
                return Err(TraceError::EmptyRank(rank));
            }
            let mut coll_idx = 0usize;
            loop {
                match walker.next(rank)? {
                    Action::Compute(_) => {}
                    Action::Isend { peer, bytes, tag, key } => {
                        channels.entry((rank.0, peer.0, tag)).or_default()[0].push(bytes);
                        walker.issue(rank, key, ())?;
                    }
                    Action::Irecv { peer, bytes, tag, key } => {
                        channels.entry((peer.0, rank.0, tag)).or_default()[1].push(bytes);
                        walker.issue(rank, key, ())?;
                    }
                    Action::Wait => {
                        walker.wait(rank, |_| true, |()| {})?;
                    }
                    Action::Coll { kind, root, .. } => {
                        if r == 0 {
                            colls.push((kind, root));
                        }
                        match colls.get(coll_idx) {
                            Some(&(k0, r0)) if k0 == kind && (!kind.is_rooted() || r0 == root) => {}
                            _ => {
                                return Err(TraceError::CollectiveMismatch {
                                    rank,
                                    index: coll_idx,
                                })
                            }
                        }
                        coll_idx += 1;
                    }
                    Action::Done => break,
                }
            }
            if coll_idx != colls.len() {
                return Err(TraceError::CollectiveMismatch { rank, index: coll_idx });
            }
        }

        // MPI matches a channel's sends and receives in order: the j-th
        // send pairs with the j-th receive.
        for ((src, dst, tag), [sends, recvs]) in channels {
            let (src, dst) = (Rank(src), Rank(dst));
            if sends.len() != recvs.len() {
                let (sends, recvs) = (sends.len(), recvs.len());
                return Err(TraceError::UnmatchedMessage { src, dst, tag, sends, recvs });
            }
            if let Some((&send_bytes, &recv_bytes)) = sends.iter().zip(&recvs).find(|(s, r)| s != r)
            {
                return Err(TraceError::ByteMismatch { src, dst, tag, send_bytes, recv_bytes });
            }
        }
        Ok(())
    }
}

/// Incremental builder for a single rank's event stream.
///
/// Generators use this to keep request-id bookkeeping out of the
/// application-pattern code.
#[derive(Debug)]
pub struct RankBuilder {
    rank: Rank,
    events: Vec<Event>,
    next_req: u32,
    open_reqs: Vec<u32>,
}

impl RankBuilder {
    /// Start a stream for `rank`.
    pub fn new(rank: Rank) -> RankBuilder {
        RankBuilder { rank, events: Vec::new(), next_req: 0, open_reqs: Vec::new() }
    }

    /// The rank this builder is for.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Append a computation gap.
    pub fn compute(&mut self, dur: Time) -> &mut Self {
        self.events.push(Event::compute(dur));
        self
    }

    /// Append a blocking send.
    pub fn send(&mut self, peer: Rank, bytes: u64, tag: u32, dur: Time) -> &mut Self {
        self.events.push(Event::new(EventKind::Send { peer, bytes, tag }, dur));
        self
    }

    /// Append a blocking receive.
    pub fn recv(&mut self, peer: Rank, bytes: u64, tag: u32, dur: Time) -> &mut Self {
        self.events.push(Event::new(EventKind::Recv { peer, bytes, tag }, dur));
        self
    }

    /// Append a nonblocking send; returns the request id.
    pub fn isend(&mut self, peer: Rank, bytes: u64, tag: u32, dur: Time) -> crate::ids::ReqId {
        let req = crate::ids::ReqId(self.next_req);
        self.next_req += 1;
        self.open_reqs.push(req.0);
        self.events.push(Event::new(EventKind::Isend { peer, bytes, tag, req }, dur));
        req
    }

    /// Append a nonblocking receive; returns the request id.
    pub fn irecv(&mut self, peer: Rank, bytes: u64, tag: u32, dur: Time) -> crate::ids::ReqId {
        let req = crate::ids::ReqId(self.next_req);
        self.next_req += 1;
        self.open_reqs.push(req.0);
        self.events.push(Event::new(EventKind::Irecv { peer, bytes, tag, req }, dur));
        req
    }

    /// Append a wait for one request.
    pub fn wait(&mut self, req: crate::ids::ReqId, dur: Time) -> &mut Self {
        self.open_reqs.retain(|&r| r != req.0);
        self.events.push(Event::new(EventKind::Wait { req }, dur));
        self
    }

    /// Wait for every outstanding request (in issue order).
    pub fn wait_all(&mut self, dur: Time) -> &mut Self {
        if !self.open_reqs.is_empty() {
            let reqs = self.open_reqs.drain(..).map(crate::ids::ReqId).collect();
            self.events.push(Event::new(EventKind::WaitAll { reqs }, dur));
        }
        self
    }

    /// Append a collective.
    pub fn coll(&mut self, kind: CollKind, bytes: u64, root: Rank, dur: Time) -> &mut Self {
        self.events.push(Event::new(EventKind::Coll { kind, bytes, root }, dur));
        self
    }

    /// Append a barrier.
    pub fn barrier(&mut self, dur: Time) -> &mut Self {
        self.coll(CollKind::Barrier, 0, Rank(0), dur)
    }

    /// Number of requests still outstanding (should be 0 at finish).
    pub fn outstanding(&self) -> usize {
        self.open_reqs.len()
    }

    /// Finish the stream, asserting no request is left outstanding.
    pub fn finish(self) -> Vec<Event> {
        assert!(
            self.open_reqs.is_empty(),
            "rank {} finished with {} outstanding requests",
            self.rank,
            self.open_reqs.len()
        );
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ReqId;

    fn meta(ranks: u32) -> TraceMeta {
        TraceMeta {
            app: "test".into(),
            machine: "unit".into(),
            ranks,
            ranks_per_node: 1,
            problem_size: 1,
            seed: 0,
        }
    }

    fn ping_pong() -> Trace {
        let mut t = Trace::empty(meta(2));
        t.events[0] = vec![
            Event::compute(Time::from_us(5)),
            Event::new(EventKind::Send { peer: Rank(1), bytes: 1024, tag: 7 }, Time::from_us(1)),
            Event::new(EventKind::Recv { peer: Rank(1), bytes: 1024, tag: 8 }, Time::from_us(1)),
        ];
        t.events[1] = vec![
            Event::compute(Time::from_us(2)),
            Event::new(EventKind::Recv { peer: Rank(0), bytes: 1024, tag: 7 }, Time::from_us(1)),
            Event::new(EventKind::Send { peer: Rank(0), bytes: 1024, tag: 8 }, Time::from_us(1)),
        ];
        t
    }

    #[test]
    fn ping_pong_validates() {
        assert_eq!(ping_pong().validate(), Ok(()));
    }

    #[test]
    fn measured_times() {
        let t = ping_pong();
        assert_eq!(t.rank_time(Rank(0)), Time::from_us(7));
        assert_eq!(t.rank_time(Rank(1)), Time::from_us(4));
        assert_eq!(t.measured_time(), Time::from_us(7));
        assert_eq!(t.total_comm_time(), Time::from_us(4));
        assert_eq!(t.total_compute_time(), Time::from_us(7));
        let frac = t.comm_fraction();
        assert!((frac - 4.0 / 11.0).abs() < 1e-12);
        assert_eq!(t.total_bytes(), 2048);
    }

    #[test]
    fn unmatched_send_detected() {
        let mut t = ping_pong();
        t.events[0].push(Event::new(
            EventKind::Send { peer: Rank(1), bytes: 64, tag: 9 },
            Time::from_us(1),
        ));
        assert!(matches!(t.validate(), Err(TraceError::UnmatchedMessage { .. })));
    }

    /// A send of 2^63 B or more matched to a small receive is a byte
    /// mismatch, whatever bit pattern its size has.
    #[test]
    fn huge_send_matched_to_small_recv_detected() {
        let mut t = ping_pong();
        let huge = 1 << 63;
        t.events[0].push(Event::new(
            EventKind::Send { peer: Rank(1), bytes: huge, tag: 9 },
            Time::from_us(1),
        ));
        t.events[1].push(Event::new(
            EventKind::Recv { peer: Rank(0), bytes: 5, tag: 9 },
            Time::from_us(1),
        ));
        let (src, dst) = (Rank(0), Rank(1));
        let err = TraceError::ByteMismatch { src, dst, tag: 9, send_bytes: huge, recv_bytes: 5 };
        assert_eq!(t.validate(), Err(err));
    }

    #[test]
    fn byte_mismatch_detected() {
        let mut t = ping_pong();
        if let EventKind::Recv { bytes, .. } = &mut t.events[1][1].kind {
            *bytes = 999;
        }
        assert!(matches!(t.validate(), Err(TraceError::ByteMismatch { .. })));
    }

    #[test]
    fn peer_out_of_range_detected() {
        let mut t = ping_pong();
        if let EventKind::Send { peer, .. } = &mut t.events[0][1].kind {
            *peer = Rank(5);
        }
        assert!(matches!(t.validate(), Err(TraceError::PeerOutOfRange { .. })));
    }

    #[test]
    fn dangling_wait_detected() {
        let mut t = ping_pong();
        t.events[0].push(Event::new(EventKind::Wait { req: ReqId(3) }, Time::ZERO));
        assert!(matches!(t.validate(), Err(TraceError::DanglingWait { .. })));
    }

    #[test]
    fn unwaited_request_detected() {
        let mut t = Trace::empty(meta(2));
        t.events[0] = vec![Event::new(
            EventKind::Isend { peer: Rank(1), bytes: 8, tag: 0, req: ReqId(0) },
            Time::ZERO,
        )];
        t.events[1] =
            vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 8, tag: 0 }, Time::ZERO)];
        assert!(matches!(t.validate(), Err(TraceError::UnwaitedRequest { .. })));
    }

    #[test]
    fn request_reuse_detected() {
        let mut t = Trace::empty(meta(2));
        t.events[0] = vec![
            Event::new(
                EventKind::Isend { peer: Rank(1), bytes: 8, tag: 0, req: ReqId(0) },
                Time::ZERO,
            ),
            Event::new(
                EventKind::Isend { peer: Rank(1), bytes: 8, tag: 1, req: ReqId(0) },
                Time::ZERO,
            ),
        ];
        t.events[1] = vec![
            Event::new(EventKind::Recv { peer: Rank(0), bytes: 8, tag: 0 }, Time::ZERO),
            Event::new(EventKind::Recv { peer: Rank(0), bytes: 8, tag: 1 }, Time::ZERO),
        ];
        assert!(matches!(t.validate(), Err(TraceError::RequestReuse { .. })));
    }

    #[test]
    fn collective_mismatch_detected() {
        let mut t = Trace::empty(meta(2));
        t.events[0] = vec![Event::new(
            EventKind::Coll { kind: CollKind::Allreduce, bytes: 8, root: Rank(0) },
            Time::ZERO,
        )];
        t.events[1] = vec![Event::new(
            EventKind::Coll { kind: CollKind::Bcast, bytes: 8, root: Rank(0) },
            Time::ZERO,
        )];
        assert!(matches!(t.validate(), Err(TraceError::CollectiveMismatch { .. })));
    }

    #[test]
    fn collective_count_mismatch_detected() {
        let mut t = Trace::empty(meta(2));
        t.events[0] = vec![
            Event::new(
                EventKind::Coll { kind: CollKind::Barrier, bytes: 0, root: Rank(0) },
                Time::ZERO,
            ),
            Event::new(
                EventKind::Coll { kind: CollKind::Barrier, bytes: 0, root: Rank(0) },
                Time::ZERO,
            ),
        ];
        t.events[1] = vec![Event::new(
            EventKind::Coll { kind: CollKind::Barrier, bytes: 0, root: Rank(0) },
            Time::ZERO,
        )];
        assert!(matches!(t.validate(), Err(TraceError::CollectiveMismatch { .. })));
    }

    #[test]
    fn empty_rank_detected() {
        let mut t = ping_pong();
        t.events[1].clear();
        assert!(matches!(t.validate(), Err(TraceError::EmptyRank(_))));
    }

    #[test]
    fn rank_count_mismatch_detected() {
        let mut t = ping_pong();
        t.events.push(vec![Event::compute(Time::ZERO)]);
        assert!(matches!(t.validate(), Err(TraceError::RankCountMismatch { .. })));
    }

    #[test]
    fn builder_round_trip() {
        let mut b = RankBuilder::new(Rank(0));
        b.compute(Time::from_us(1));
        let r = b.isend(Rank(1), 128, 0, Time::from_ns(100));
        b.wait(r, Time::from_ns(50));
        let _ = b.irecv(Rank(1), 128, 1, Time::from_ns(100));
        b.wait_all(Time::from_ns(10));
        b.barrier(Time::from_ns(200));
        assert_eq!(b.outstanding(), 0);
        let es = b.finish();
        assert_eq!(es.len(), 6);
        assert!(matches!(es[1].kind, EventKind::Isend { .. }));
        assert!(matches!(es[4].kind, EventKind::WaitAll { .. }));
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn builder_rejects_unwaited_finish() {
        let mut b = RankBuilder::new(Rank(0));
        let _ = b.isend(Rank(1), 8, 0, Time::ZERO);
        let _ = b.finish();
    }

    #[test]
    fn meta_nodes_ceiling() {
        let m = TraceMeta { ranks: 65, ranks_per_node: 16, ..meta(65) };
        assert_eq!(m.nodes(), 5);
        assert_eq!(meta(2).nodes(), 2);
    }
}
