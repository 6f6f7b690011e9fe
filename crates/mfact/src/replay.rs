//! The multi-configuration logical-clock trace replay.
//!
//! MFACT's defining trick (from the IPDPS'16 paper): replay the DUMPI
//! trace **once** while maintaining one Lamport-style logical clock *per
//! target network configuration*. Timestamps — not payloads — flow
//! between ranks, so the happened-before structure is honored exactly
//! while every configuration's predicted times advance in lock-step.
//!
//! Per configuration, four counters are maintained (wait, latency,
//! bandwidth, computation); their response to network speedups and
//! slowdowns drives the classifier in [`crate::classify`].

use crate::cost::{collective, p2p, CommCost};
use crate::error::ReplayError;
use masim_obs::MetricSet;
use masim_topo::NetworkConfig;
use masim_trace::{Action, Mailbox, Rank, Time, Trace, TraceSource, Walker};
use std::collections::VecDeque;

/// One target configuration for the replay.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Network latency/bandwidth.
    pub net: NetworkConfig,
    /// Computation-time multiplier (0.125 models an 8× faster CPU).
    pub compute_scale: f64,
}

impl ModelConfig {
    /// Baseline configuration of a machine.
    pub fn base(net: NetworkConfig) -> ModelConfig {
        ModelConfig { net, compute_scale: 1.0 }
    }

    /// MFACT's standard 7-point sensitivity sweep: baseline, bandwidth
    /// ×8 and ÷8, latency ×8 and ÷8 (slower latency = larger α), and
    /// computation ×8 and ÷8.
    pub fn standard_sweep(net: NetworkConfig) -> Vec<ModelConfig> {
        vec![
            ModelConfig { net, compute_scale: 1.0 },
            ModelConfig { net: net.scaled(8.0, 1.0), compute_scale: 1.0 },
            ModelConfig { net: net.scaled(0.125, 1.0), compute_scale: 1.0 },
            ModelConfig { net: net.scaled(1.0, 0.125), compute_scale: 1.0 },
            ModelConfig { net: net.scaled(1.0, 8.0), compute_scale: 1.0 },
            ModelConfig { net, compute_scale: 0.125 },
            ModelConfig { net, compute_scale: 8.0 },
        ]
    }
}

/// MFACT's four logical time counters, aggregated across ranks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Counters {
    /// Time spent blocked on not-yet-available messages or slower peers.
    pub wait: Time,
    /// Accumulated latency (α) terms.
    pub latency: Time,
    /// Accumulated serialization (m·β) terms.
    pub bandwidth: Time,
    /// Accumulated (scaled) computation.
    pub computation: Time,
}

/// Replay outcome for one configuration.
#[derive(Clone, Debug)]
pub struct ConfigResult {
    /// The configuration replayed.
    pub config: ModelConfig,
    /// Predicted application time (slowest rank's final clock).
    pub total: Time,
    /// Final logical clock per rank.
    pub per_rank: Vec<Time>,
    /// Predicted communication time summed over ranks (final clock minus
    /// scaled computation).
    pub comm_time: Time,
    /// The four counters, aggregated across ranks.
    pub counters: Counters,
}

/// The state of a live request: a send's or a receive's, blocking ones
/// included (the [`Walker`] yields those as a request plus its wait).
#[derive(Clone, Copy)]
enum ReqState {
    /// A send: its release row, when the sender may reuse its buffer
    /// (issue + m·β).
    Send(u32),
    /// A receive: the availability row of its matched send, once matched.
    Recv(Option<u32>),
}

/// Per-configuration time rows: the availability of sends not yet
/// consumed by their receive and the release of `Isend`s not yet waited
/// on. The k-wide rows of one vector, recycled through a free list, so
/// the steady state allocates nothing per message.
struct Slab {
    k: usize,
    rows: Vec<Time>,
    free: Vec<u32>,
}

impl Slab {
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let row = self.rows.len() / self.k;
            self.rows.resize(self.rows.len() + self.k, Time::ZERO);
            row as u32
        })
    }

    fn set(&mut self, row: u32, config: usize, t: Time) {
        self.rows[row as usize * self.k + config] = t;
    }

    /// A wait consumes `row`: each configuration's clock advances to the
    /// row's time and the row is freed. A receive's gap counts as wait; a
    /// send's is part of its m·β, already counted as bandwidth.
    fn consume(&mut self, row: u32, clocks: &mut [Time], counters: &mut [Counters], recv: bool) {
        let at = row as usize * self.k;
        for ((&t, clock), c) in self.rows[at..at + self.k].iter().zip(clocks).zip(counters) {
            if t > *clock {
                if recv {
                    c.wait += t - *clock;
                }
                *clock = t;
            }
        }
        self.free.push(row);
    }
}

/// Queue a send's availability row on its channel, or hand it to the
/// oldest receive waiting there. True if that receive's rank `dst` is to
/// be woken.
fn deliver(
    mailboxes: &mut [Mailbox],
    walker: &mut Walker<ReqState>,
    src: u32,
    dst: u32,
    tag: u32,
    row: u32,
) -> bool {
    let Some(key) = mailboxes[dst as usize].deliver(Rank(src), tag, row as u64) else {
        return false;
    };
    // A waiting receive keeps its request until a wait retires it, and a
    // wait does not retire an unmatched receive.
    if let Some(state) = walker.state_mut(Rank(dst), key) {
        *state = ReqState::Recv(Some(row));
    }
    true
}

/// The collective in progress. A rank parked at a collective is not
/// woken until the collective completes, so every rank has arrived at
/// the current collective before any reaches the next: one group, its
/// buffers reused by every ordinal.
#[derive(Default)]
struct CollGroup {
    arrived: u32,
    /// Per-rank arrival clocks (rank-major, config-minor), filled as
    /// ranks arrive.
    arrivals: Vec<Time>,
    /// Per-rank payload (differs for Alltoallv).
    bytes: Vec<u64>,
}

/// Replay `trace` under every configuration simultaneously.
///
/// Panics if the trace is malformed or deadlocks; a matched wait cycle
/// passes [`Trace::validate`] and still deadlocks. [`try_replay`] is the
/// typed-error path for untrusted input. Kept, with this signature,
/// because `benchmark/src/adapter.rs` binds it.
pub fn replay(trace: &Trace, configs: &[ModelConfig]) -> Vec<ConfigResult> {
    try_replay(trace, configs, None).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible replay: malformed traces (deadlocks, dangling request ids)
/// surface as a [`ReplayError`] instead of a panic, so the study runner
/// can record *why* MFACT failed on a trace.
///
/// `src` is an in-memory [`Trace`] or a
/// [`StreamedTrace`](masim_trace::StreamedTrace); the latter is
/// replayed without materializing per-rank event vectors — the
/// [`Walker`] decodes each rank through a one-event window, so the
/// resident footprint stays at the encoded (MASS v1) size — and the
/// results are bit-identical either way.
///
/// With `obs`, the same bit-identical results plus `mfact.replay.*`
/// telemetry: events replayed, configurations swept, a wall-clock span,
/// and a log₂-bucketed histogram of per-rank logical-clock advance under
/// the first (baseline) configuration. On failure the span is still
/// closed and a `mfact.replay.failed` counter records the attempt.
pub fn try_replay<'a>(
    src: impl Into<TraceSource<'a>>,
    configs: &[ModelConfig],
    obs: Option<&MetricSet>,
) -> Result<Vec<ConfigResult>, ReplayError> {
    replay_source(src.into(), configs, obs)
}

/// The body of [`try_replay`], non-generic so it is compiled once
/// whatever the caller passed as a source.
fn replay_source(
    src: TraceSource<'_>,
    configs: &[ModelConfig],
    obs: Option<&MetricSet>,
) -> Result<Vec<ConfigResult>, ReplayError> {
    let span = obs.map(|ms| ms.span("mfact.replay.replay"));
    let results = replay_core(src, configs);
    drop(span); // records the wall time
    let Some(ms) = obs else { return results };
    let results = results.inspect_err(|_| ms.add("mfact.replay.failed", 1))?;
    ms.add("mfact.replay.events", src.num_events());
    ms.add("mfact.replay.configs", configs.len() as u64);
    if let Some(base) = results.first() {
        // Per-rank final logical clock under the baseline configuration,
        // in nanoseconds.
        let h = ms.hist("mfact.replay.clock_advance_ns");
        for &t in &base.per_rank {
            h.record(t.as_ps() / Time::PS_PER_NS);
        }
    }
    Ok(results)
}

fn replay_core(
    src: TraceSource<'_>,
    configs: &[ModelConfig],
) -> Result<Vec<ConfigResult>, ReplayError> {
    if configs.is_empty() {
        return Err(ReplayError::NoConfigs);
    }
    let n = src.num_ranks() as usize;
    let k = configs.len();

    let mut walker = Walker::new(src);
    let mut clocks = vec![Time::ZERO; n * k];
    let mut comp = vec![Time::ZERO; n * k];
    let mut counters = vec![Counters::default(); k];
    // Per destination rank: queued sends (payload: availability row) and
    // waiting receives (token: the request key) by (source, tag).
    let mut mailboxes: Vec<Mailbox> = (0..n).map(|_| Mailbox::default()).collect();
    let mut slab = Slab { k, rows: Vec::new(), free: Vec::new() };
    // Sized by the first collective.
    let mut coll = CollGroup::default();

    let mut ready: VecDeque<u32> = (0..n as u32).collect();
    let mut in_ready = vec![true; n];
    // Ranks parked at the collective in progress.
    let mut parked = vec![false; n];

    // Wake a rank blocked on a channel. A rank parked at a collective
    // stays parked: a send matching one of its earlier receives only
    // fills the request, which the rank reads after the collective. A
    // self-send fills the running rank's own receive and wakes nothing.
    macro_rules! wake {
        ($r:expr) => {
            if !in_ready[$r as usize] && !parked[$r as usize] {
                in_ready[$r as usize] = true;
                ready.push_back($r);
            }
        };
    }

    // A rank runs until it blocks in a wait (woken by the send that
    // matches it, to run the wait again), parks at a collective or ends.
    while let Some(r) = ready.pop_front() {
        in_ready[r as usize] = false;
        let rank = Rank(r);
        let base = r as usize * k;
        loop {
            match walker.next(rank)? {
                Action::Compute(d) => {
                    for (i, cfg) in configs.iter().enumerate() {
                        let d = d.scale(cfg.compute_scale);
                        clocks[base + i] += d;
                        comp[base + i] += d;
                        counters[i].computation += d;
                    }
                }
                // The payload lands at issue + α + m·β, and the sender's
                // buffer is free at issue + m·β, kept in the request until
                // its wait.
                Action::Isend { peer, bytes, tag, key } => {
                    let release = slab.alloc();
                    walker.issue(rank, key, ReqState::Send(release))?;
                    let avail = slab.alloc();
                    for (i, cfg) in configs.iter().enumerate() {
                        let c = p2p(&cfg.net, bytes);
                        counters[i].latency += c.latency;
                        counters[i].bandwidth += c.bandwidth;
                        let issued = clocks[base + i];
                        slab.set(avail, i, issued + c.total());
                        slab.set(release, i, issued + c.bandwidth);
                    }
                    if deliver(&mut mailboxes, &mut walker, r, peer.0, tag, avail) && peer.0 != r {
                        wake!(peer.0);
                    }
                }
                // Posted, and matched at once if its send already came.
                Action::Irecv { peer, tag, key, .. } => {
                    let state = walker.issue(rank, key, ReqState::Recv(None))?;
                    let row = mailboxes[r as usize].post(peer, tag, key);
                    *state = ReqState::Recv(row.map(|row| row as u32));
                }
                // The wait blocks while a receive in it is unmatched; then
                // each request's row moves the clocks, in the wait's order.
                Action::Wait => {
                    let clocks = &mut clocks[base..base + k];
                    let matched = |s: &ReqState| !matches!(s, ReqState::Recv(None));
                    let consume = |s| match s {
                        ReqState::Send(row) => slab.consume(row, clocks, &mut counters, false),
                        ReqState::Recv(Some(row)) => slab.consume(row, clocks, &mut counters, true),
                        ReqState::Recv(None) => {} // every receive is matched: checked first
                    };
                    if !walker.wait(rank, matched, consume)? {
                        break;
                    }
                }
                Action::Coll { kind, bytes, .. } => {
                    if coll.arrivals.is_empty() {
                        coll.arrivals = vec![Time::ZERO; n * k];
                        coll.bytes = vec![0; n];
                    }
                    // Every rank overwrites its arrival and payload
                    // before the group completes.
                    coll.arrived += 1;
                    coll.bytes[r as usize] = bytes;
                    coll.arrivals[base..base + k].copy_from_slice(&clocks[base..base + k]);
                    if coll.arrived < n as u32 {
                        parked[r as usize] = true;
                        break; // resumes after the collective
                    }
                    // Everyone is here: complete the collective.
                    coll.arrived = 0;
                    for (i, cfg) in configs.iter().enumerate() {
                        let max_arrival =
                            (0..n).map(|rr| coll.arrivals[rr * k + i]).max().unwrap_or(Time::ZERO);
                        // The cost is pure in the payload: a run of equal
                        // payloads reuses the last one.
                        let mut last: Option<(u64, CommCost)> = None;
                        for rr in 0..n {
                            let arr = coll.arrivals[rr * k + i];
                            counters[i].wait += max_arrival - arr;
                            let b = coll.bytes[rr];
                            let cost = match last {
                                Some((lb, cost)) if lb == b => cost,
                                _ => collective(&cfg.net, kind, b, n as u32),
                            };
                            last = Some((b, cost));
                            clocks[rr * k + i] = max_arrival + cost.total();
                            // Latency/bandwidth charged per rank.
                            counters[i].latency += cost.latency;
                            counters[i].bandwidth += cost.bandwidth;
                        }
                    }
                    // Wake the other n-1 participants.
                    for rr in 0..n {
                        if parked[rr] {
                            parked[rr] = false;
                            wake!(rr as u32);
                        }
                    }
                    // This rank continues past the collective.
                }
                Action::Done => break,
            }
        }
    }

    if let Some(stall) = walker.stall() {
        return Err(ReplayError::Deadlock(stall));
    }

    Ok(configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let per_rank: Vec<Time> = (0..n).map(|r| clocks[r * k + i]).collect();
            let total = per_rank.iter().copied().max().unwrap_or(Time::ZERO);
            let comm_time = (0..n).map(|r| clocks[r * k + i].saturating_sub(comp[r * k + i])).sum();
            ConfigResult { config: *cfg, total, per_rank, comm_time, counters: counters[i] }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use masim_trace::{
        CollKind, Event, EventKind, Rank, RankBuilder, ReqId, Stall, StreamedTrace, TraceError,
        TraceMeta,
    };
    use std::collections::HashMap;

    fn meta(ranks: u32) -> TraceMeta {
        TraceMeta {
            app: "t".into(),
            machine: "m".into(),
            ranks,
            ranks_per_node: 1,
            problem_size: 1,
            seed: 0,
        }
    }

    fn net() -> NetworkConfig {
        NetworkConfig::new(10.0, 2_500)
    }

    /// rank0 computes 10us then sends 1250B to rank1 (1us transfer).
    fn send_recv_trace() -> Trace {
        let mut t = Trace::empty(meta(2));
        let mut b0 = RankBuilder::new(Rank(0));
        b0.compute(Time::from_us(10));
        b0.send(Rank(1), 1250, 0, Time::ZERO);
        t.events[0] = b0.finish();
        let mut b1 = RankBuilder::new(Rank(1));
        b1.compute(Time::from_us(1));
        b1.recv(Rank(0), 1250, 0, Time::ZERO);
        t.events[1] = b1.finish();
        t
    }

    #[test]
    fn hockney_happened_before() {
        let t = send_recv_trace();
        let res = replay(&t, &[ModelConfig::base(net())]);
        let r = &res[0];
        // Sender: its buffer is free after 10us + 1us of serialization.
        assert_eq!(r.per_rank[0], Time::from_us(11));
        // Receiver waits from 1us until the message lands at
        // 10us + 2.5us + 1us = 13.5us.
        assert_eq!(r.per_rank[1], Time::from_ns(13_500));
        assert_eq!(r.total, Time::from_ns(13_500));
        assert_eq!(r.counters.wait, Time::from_ns(12_500));
        assert_eq!(r.counters.latency, Time::from_ns(2_500));
        assert_eq!(r.counters.bandwidth, Time::from_us(1));
        assert_eq!(r.counters.computation, Time::from_us(11));
    }

    #[test]
    fn multi_config_single_replay_matches_individual_replays() {
        let t = send_recv_trace();
        let cfgs = ModelConfig::standard_sweep(net());
        let joint = replay(&t, &cfgs);
        for (i, cfg) in cfgs.iter().enumerate() {
            let solo = replay(&t, &[*cfg]);
            assert_eq!(solo[0].total, joint[i].total, "config {i}");
            assert_eq!(solo[0].counters, joint[i].counters, "config {i}");
        }
    }

    #[test]
    fn faster_bandwidth_reduces_total() {
        let t = send_recv_trace();
        let res =
            replay(&t, &[ModelConfig::base(net()), ModelConfig::base(net().scaled(8.0, 1.0))]);
        assert!(res[1].total < res[0].total);
        // Latency term unchanged.
        assert_eq!(res[0].counters.latency, res[1].counters.latency);
    }

    #[test]
    fn compute_scale_models_faster_cpu() {
        let t = send_recv_trace();
        let res = replay(
            &t,
            &[ModelConfig::base(net()), ModelConfig { net: net(), compute_scale: 0.125 }],
        );
        assert!(res[1].total < res[0].total);
        assert_eq!(res[1].counters.computation, res[0].counters.computation.scale(0.125));
    }

    #[test]
    fn nonblocking_overlap_beats_blocking() {
        // Blocking version: send 125000B (100us), then compute.
        let mk = |nonblocking: bool| {
            let mut t = Trace::empty(meta(2));
            let mut b0 = RankBuilder::new(Rank(0));
            if nonblocking {
                let rq = b0.isend(Rank(1), 125_000, 0, Time::ZERO);
                b0.compute(Time::from_us(200));
                b0.wait(rq, Time::ZERO);
            } else {
                b0.send(Rank(1), 125_000, 0, Time::ZERO);
                b0.compute(Time::from_us(200));
            }
            t.events[0] = b0.finish();
            let mut b1 = RankBuilder::new(Rank(1));
            b1.recv(Rank(0), 125_000, 0, Time::ZERO);
            t.events[1] = b1.finish();
            t
        };
        let blocking = replay(&mk(false), &[ModelConfig::base(net())])[0].per_rank[0];
        let overlapped = replay(&mk(true), &[ModelConfig::base(net())])[0].per_rank[0];
        assert!(overlapped < blocking, "{overlapped:?} !< {blocking:?}");
    }

    #[test]
    fn collective_synchronizes_and_charges_cost() {
        let mut t = Trace::empty(meta(4));
        for r in 0..4u32 {
            let mut b = RankBuilder::new(Rank(r));
            b.compute(Time::from_us(r as u64 * 10)); // skewed arrivals
            b.coll(CollKind::Allreduce, 1024, Rank(0), Time::ZERO);
            t.events[r as usize] = b.finish();
        }
        let res = replay(&t, &[ModelConfig::base(net())]);
        let r = &res[0];
        // Everyone finishes at the same time: max arrival (30us) + cost.
        let c = collective(&net(), CollKind::Allreduce, 1024, 4);
        let expect = Time::from_us(30) + c.total();
        for rank in 0..4 {
            assert_eq!(r.per_rank[rank], expect);
        }
        // Wait = 30+20+10+0 = 60us.
        assert_eq!(r.counters.wait, Time::from_us(60));
    }

    #[test]
    fn irecv_before_isend_matches() {
        let mut t = Trace::empty(meta(2));
        let mut b0 = RankBuilder::new(Rank(0));
        let rq = b0.irecv(Rank(1), 1250, 0, Time::ZERO);
        b0.compute(Time::from_us(1));
        b0.wait(rq, Time::ZERO);
        t.events[0] = b0.finish();
        let mut b1 = RankBuilder::new(Rank(1));
        b1.compute(Time::from_us(5));
        let sq = b1.isend(Rank(0), 1250, 0, Time::ZERO);
        b1.wait(sq, Time::ZERO);
        t.events[1] = b1.finish();
        let res = replay(&t, &[ModelConfig::base(net())]);
        // Message available at 5us + 2.5us + 1us = 8.5us.
        assert_eq!(res[0].per_rank[0], Time::from_ns(8_500));
    }

    /// The streamed replay is bit-identical to the in-memory replay
    /// across the full sensitivity sweep, on traces that exercise every
    /// blocking path (channels, collectives, waitall), and reports the
    /// same telemetry.
    #[test]
    fn streamed_replay_matches_in_memory() {
        let gen = masim_workloads::GenConfig::test_default(masim_workloads::App::Cg, 8);
        let mut traces = vec![send_recv_trace(), masim_workloads::generate(&gen)];
        let mut coll = Trace::empty(meta(4));
        for r in 0..4u32 {
            let mut b = RankBuilder::new(Rank(r));
            b.compute(Time::from_us(r as u64 * 10));
            b.coll(CollKind::Allreduce, 1024, Rank(0), Time::ZERO);
            coll.events[r as usize] = b.finish();
        }
        traces.push(coll);
        let cfgs = ModelConfig::standard_sweep(net());
        for t in traces.drain(..) {
            let encoded = masim_trace::io::encode(&t);
            let stream = StreamedTrace::from_bytes(encoded).expect("round-trip");
            let (mem_ms, strm_ms) = (MetricSet::new(), MetricSet::new());
            let mem = try_replay(&t, &cfgs, Some(&mem_ms)).expect("memory replay");
            let strm = try_replay(&stream, &cfgs, Some(&strm_ms)).expect("streamed replay");
            let (m, s) = (mem_ms.snapshot(), strm_ms.snapshot());
            assert_eq!((&m.counters, &m.hists), (&s.counters, &s.hists));
            assert_eq!(mem.len(), strm.len());
            for (m, s) in mem.iter().zip(&strm) {
                assert_eq!(m.total, s.total);
                assert_eq!(m.per_rank, s.per_rank);
                assert_eq!(m.comm_time, s.comm_time);
                assert_eq!(m.counters, s.counters);
            }
        }
    }

    /// Streamed replay surfaces deadlocks as typed errors, same as the
    /// in-memory path.
    #[test]
    fn streamed_replay_reports_deadlock() {
        let mut t = Trace::empty(meta(2));
        let mut b1 = RankBuilder::new(Rank(1));
        b1.recv(Rank(0), 64, 0, Time::ZERO); // no matching send
        t.events[1] = b1.finish();
        let stream = StreamedTrace::from_bytes(masim_trace::io::encode(&t)).unwrap();
        let err = try_replay(&stream, &[ModelConfig::base(net())], None).unwrap_err();
        assert_eq!(err, ReplayError::Deadlock(Stall { finished: 1, total: 2, blocked: vec![1] }));
    }

    #[test]
    fn waitall_takes_max_availability() {
        let mut t = Trace::empty(meta(3));
        let mut b0 = RankBuilder::new(Rank(0));
        let _r1 = b0.irecv(Rank(1), 1250, 0, Time::ZERO);
        let _r2 = b0.irecv(Rank(2), 1250, 0, Time::ZERO);
        b0.wait_all(Time::ZERO);
        t.events[0] = b0.finish();
        for peer in 1..3u32 {
            let mut b = RankBuilder::new(Rank(peer));
            b.compute(Time::from_us(peer as u64 * 10));
            b.send(Rank(0), 1250, 0, Time::ZERO);
            t.events[peer as usize] = b.finish();
        }
        let res = replay(&t, &[ModelConfig::base(net())]);
        // Slower sender finishes at 20us + 3.5us.
        assert_eq!(res[0].per_rank[0], Time::from_ns(23_500));
    }

    #[test]
    fn comm_time_excludes_computation() {
        let t = send_recv_trace();
        let r = &replay(&t, &[ModelConfig::base(net())])[0];
        // Rank0: clock 11us, comp 10us -> comm 1; rank1: 13.5 - 1 = 12.5.
        assert_eq!(r.comm_time, Time::from_ns(13_500));
    }

    #[test]
    fn observed_replay_is_bit_identical_and_counts() {
        let t = send_recv_trace();
        let cfgs = ModelConfig::standard_sweep(net());
        let plain = replay(&t, &cfgs);
        let ms = MetricSet::new();
        let observed = try_replay(&t, &cfgs, Some(&ms)).unwrap();
        for (p, o) in plain.iter().zip(&observed) {
            assert_eq!(p.total, o.total);
            assert_eq!(p.per_rank, o.per_rank);
            assert_eq!(p.counters, o.counters);
        }
        let snap = ms.snapshot();
        assert_eq!(snap.counters["mfact.replay.events"], t.num_events() as u64);
        assert_eq!(snap.counters["mfact.replay.configs"], cfgs.len() as u64);
        // One histogram observation per rank of the baseline config.
        let h = &snap.hists["mfact.replay.clock_advance_ns"];
        assert_eq!(h.count(), t.num_ranks() as u64);
        // The ranks finish at 11us and 13.5us (see hockney_happened_before).
        assert_eq!(h.min, 11_000);
        assert_eq!(h.max, 13_500);
        assert_eq!(snap.spans["mfact.replay.replay"].count, 1);
    }

    #[test]
    fn clock_advance_histogram_buckets_are_log2() {
        use masim_obs::hist::bucket_of;
        let ms = MetricSet::new();
        let h = ms.hist("mfact.replay.clock_advance_ns");
        for ns in [0u64, 1, 1024, 1025] {
            h.record(ns);
        }
        let d = ms.snapshot().hists["mfact.replay.clock_advance_ns"].clone();
        assert_eq!(d.buckets[bucket_of(0)], 1);
        assert_eq!(d.buckets[bucket_of(1)], 1);
        // 1024 and 1025 share bucket 11 (values in [2^10, 2^11)).
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(d.buckets[11], 2);
    }

    #[test]
    fn deadlock_detected() {
        let mut t = Trace::empty(meta(2));
        // Both ranks blocking-recv first: classic deadlock.
        t.events[0] =
            vec![Event::new(EventKind::Recv { peer: Rank(1), bytes: 8, tag: 0 }, Time::ZERO)];
        t.events[1] =
            vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 8, tag: 0 }, Time::ZERO)];
        let err = try_replay(&t, &[ModelConfig::base(net())], None).unwrap_err();
        assert_eq!(
            err,
            ReplayError::Deadlock(Stall { finished: 0, total: 2, blocked: vec![0, 1] })
        );
    }

    #[test]
    fn empty_config_list_is_typed_error() {
        let t = send_recv_trace();
        assert_eq!(try_replay(&t, &[], None).unwrap_err(), ReplayError::NoConfigs);
    }

    /// Replay state is recycled: a trace with twice the iterations (twice
    /// the messages, requests and collective ordinals) allocates no more
    /// than the original, so allocations are O(ranks + channels), not
    /// O(messages).
    #[test]
    fn replay_allocations_do_not_grow_with_iterations() {
        use masim_workloads::{generate, App, GenConfig};
        // DT's and FB's senders run whole iterations ahead of their
        // receivers, and AMG's irregular neighbour sets deepen with more
        // iterations: their pending depth grows, so their buffers may
        // double once or twice more — a few allocations, not one per
        // message.
        const DEEPENING: [App; 3] = [App::Dt, App::FillBoundary, App::Amg];
        let cfgs = ModelConfig::standard_sweep(net());
        for app in App::ALL {
            let allocs = |iters: u32| {
                let trace = generate(&GenConfig { iters, ..GenConfig::test_default(app, 16) });
                let before = crate::alloc_counter::count();
                let res = try_replay(&trace, &cfgs, None).expect("generated traces replay");
                let allocs = crate::alloc_counter::count() - before;
                drop(res);
                allocs
            };
            let (once, twice) = (allocs(1), allocs(2));
            let slack = if DEEPENING.contains(&app) { 4 } else { 0 };
            assert!(
                twice <= once + slack,
                "{}: {once} allocations at 1 iteration, {twice} at 2",
                app.name()
            );
        }
    }

    /// Replay `t` from memory and from its MASS bytes; both must fail
    /// alike.
    fn replay_error_both_ways(t: &Trace) -> ReplayError {
        let cfgs = [ModelConfig::base(net())];
        let err = try_replay(t, &cfgs, None).unwrap_err();
        let stream = StreamedTrace::from_bytes(masim_trace::io::encode(t)).unwrap();
        assert_eq!(try_replay(&stream, &cfgs, None).unwrap_err(), err);
        err
    }

    #[test]
    fn reused_outstanding_request_is_typed_error() {
        let ev = |kind| Event::new(kind, Time::ZERO);
        let irecv = |req| ev(EventKind::Irecv { peer: Rank(1), bytes: 8, tag: 0, req: ReqId(req) });
        let send = |peer, tag| ev(EventKind::Send { peer: Rank(peer), bytes: 8, tag });
        let recv = |peer, tag| ev(EventKind::Recv { peer: Rank(peer), bytes: 8, tag });
        let mut t = Trace::empty(meta(2));
        // Request 1 is posted twice; the first send completes it and the
        // second arrives after its `Wait` retired the id.
        t.events[0] = vec![irecv(1), irecv(1), ev(EventKind::Wait { req: ReqId(1) }), send(1, 0)];
        t.events[0].push(recv(1, 1));
        t.events[1] = vec![send(0, 0), recv(0, 0), send(0, 0), send(0, 1)];
        let reuse = TraceError::RequestReuse { rank: Rank(0), req: 1 };
        assert_eq!(replay_error_both_ways(&t), ReplayError::Malformed(reuse));
    }

    /// From memory the replay rejects the peer; its MASS bytes never open.
    #[test]
    fn out_of_range_peer_is_typed_error() {
        use masim_trace::{io::DecodeError, StreamError};
        let mut t = Trace::empty(meta(2));
        for (kind, peer) in [
            (EventKind::Send { peer: Rank(5), bytes: 8, tag: 0 }, 5),
            (EventKind::Recv { peer: Rank(2), bytes: 8, tag: 0 }, 2),
        ] {
            t.events[0] = vec![Event::new(kind, Time::ZERO)];
            let err = try_replay(&t, &[ModelConfig::base(net())], None).unwrap_err();
            let out = TraceError::PeerOutOfRange { rank: Rank(0), peer: Rank(peer) };
            assert_eq!(err, ReplayError::Malformed(out));
            let opened = StreamedTrace::from_bytes(masim_trace::io::encode(&t));
            let field = DecodeError::OutOfRange { field: "peer", value: peer.into() };
            assert_eq!(opened.unwrap_err(), StreamError::Decode(field));
        }
    }

    /// The logical-clock recurrence evaluated from its definition,
    /// recursively and memoized: `clock(r, i)` is rank `r`'s clock after
    /// its first `i` events. Matching is static — the j-th receive rank
    /// `d` posts from `(s, tag)` takes the j-th send `s` issues to `d`
    /// with that tag — and a collective ends at its last arrival plus
    /// the rank's own cost. A send issued at `c` releases its sender at
    /// `c + m·β` and lands at `c + α + m·β`; a blocking call waits at
    /// once, a nonblocking one at its `Wait`.
    struct Recurrence<'t> {
        t: &'t Trace,
        cfg: ModelConfig,
        /// (rank, receive-posting event) → (sender, send event).
        matched: HashMap<(usize, usize), (usize, usize)>,
        /// Per rank, the event indices of its collectives in order.
        colls: Vec<Vec<usize>>,
        memo: HashMap<(usize, usize), Time>,
    }

    impl Recurrence<'_> {
        fn clock(&mut self, r: usize, i: usize) -> Time {
            if i == 0 {
                return Time::ZERO;
            }
            if let Some(&c) = self.memo.get(&(r, i)) {
                return c;
            }
            let (t, net, prev) = (self.t, self.cfg.net, self.clock(r, i - 1));
            let e = &t.events[r][i - 1];
            let c = match &e.kind {
                EventKind::Compute => prev + e.dur.scale(self.cfg.compute_scale),
                EventKind::Send { bytes, .. } => prev + p2p(&net, *bytes).bandwidth,
                EventKind::Isend { .. } | EventKind::Irecv { .. } => prev,
                EventKind::Recv { .. } => prev.max(self.avail(self.matched[&(r, i - 1)])),
                EventKind::Wait { req } => self.waited(r, i - 1, &[*req], prev),
                EventKind::WaitAll { reqs } => self.waited(r, i - 1, reqs, prev),
                EventKind::Coll { kind, bytes, .. } => {
                    let o = self.colls[r].iter().position(|&j| j == i - 1).unwrap();
                    let arrivals: Vec<(usize, usize)> =
                        self.colls.iter().enumerate().map(|(q, js)| (q, js[o])).collect();
                    let last = arrivals.into_iter().map(|(q, j)| self.clock(q, j)).max().unwrap();
                    last + collective(&net, *kind, *bytes, t.num_ranks()).total()
                }
            };
            self.memo.insert((r, i), c);
            c
        }

        /// The serialization m·β of send event `j` of rank `s`.
        fn ser(&self, (s, j): (usize, usize)) -> Time {
            match self.t.events[s][j].kind {
                EventKind::Send { bytes, .. } | EventKind::Isend { bytes, .. } => {
                    p2p(&self.cfg.net, bytes).bandwidth
                }
                _ => unreachable!("not a send"),
            }
        }

        /// When send event `j` of rank `s` makes its message available:
        /// its issue plus α + m·β.
        fn avail(&mut self, (s, j): (usize, usize)) -> Time {
            self.clock(s, j) + self.cfg.net.latency + self.ser((s, j))
        }

        /// A wait at event `at` on `reqs`: the latest of `prev` and each
        /// request's completion (from its most recent issue): a receive's
        /// availability, a send's release.
        fn waited(&mut self, r: usize, at: usize, reqs: &[ReqId], prev: Time) -> Time {
            let mut c = prev;
            for req in reqs {
                let issued = (0..at).rev().find(|&j| match self.t.events[r][j].kind {
                    EventKind::Isend { req: q, .. } | EventKind::Irecv { req: q, .. } => q == *req,
                    _ => false,
                });
                let Some(j) = issued else { continue };
                let done = match self.t.events[r][j].kind {
                    EventKind::Isend { .. } => self.clock(r, j) + self.ser((r, j)),
                    _ => self.avail(self.matched[&(r, j)]),
                };
                c = c.max(done);
            }
            c
        }
    }

    /// Per-rank final clocks of `t` under `cfg`, by the recurrence.
    fn recurrence(t: &Trace, cfg: ModelConfig) -> Vec<Time> {
        let mut sends: HashMap<(usize, u32, u32), VecDeque<usize>> = HashMap::new();
        for (s, evs) in t.events.iter().enumerate() {
            for (j, e) in evs.iter().enumerate() {
                if let EventKind::Send { peer, tag, .. } | EventKind::Isend { peer, tag, .. } =
                    e.kind
                {
                    sends.entry((s, peer.0, tag)).or_default().push_back(j);
                }
            }
        }
        let mut rec = Recurrence {
            t,
            cfg,
            matched: HashMap::new(),
            colls: vec![Vec::new(); t.events.len()],
            memo: HashMap::new(),
        };
        for (d, evs) in t.events.iter().enumerate() {
            for (i, e) in evs.iter().enumerate() {
                match e.kind {
                    EventKind::Recv { peer, tag, .. } | EventKind::Irecv { peer, tag, .. } => {
                        let j = sends.get_mut(&(peer.idx(), d as u32, tag)).unwrap().pop_front();
                        rec.matched.insert((d, i), (peer.idx(), j.unwrap()));
                    }
                    EventKind::Coll { .. } => rec.colls[d].push(i),
                    _ => {}
                }
            }
        }
        (0..t.events.len()).map(|r| rec.clock(r, t.events[r].len())).collect()
    }

    /// The replay's per-rank clocks equal the recurrence's, bit for bit,
    /// under every configuration of the standard sweep.
    fn assert_matches_recurrence(t: &Trace, what: &str) {
        t.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
        let cfgs = ModelConfig::standard_sweep(net());
        for (res, cfg) in replay(t, &cfgs).iter().zip(&cfgs) {
            let want: Vec<u64> = recurrence(t, *cfg).iter().map(|c| c.as_ps()).collect();
            let got: Vec<u64> = res.per_rank.iter().map(|c| c.as_ps()).collect();
            assert_eq!(got, want, "{what}: {cfg:?}");
        }
    }

    /// Shapes in which a rank parked at a collective has an earlier
    /// receive matched while it waits there. The first is the three-rank
    /// case: rank 1's send matches rank 0's irecv while rank 0 is parked
    /// at the barrier.
    fn hostile_shapes() -> Vec<Trace> {
        let b = |r| RankBuilder::new(Rank(r));
        let mut shapes = Vec::new();
        let (mut r0, mut r1, mut r2) = (b(0), b(1), b(2));
        let rq = r0.irecv(Rank(1), 720, 0, Time::ZERO);
        r0.barrier(Time::ZERO).wait(rq, Time::ZERO).compute(Time::from_us(5));
        r1.send(Rank(0), 720, 0, Time::ZERO).recv(Rank(2), 720, 0, Time::ZERO).barrier(Time::ZERO);
        r2.compute(Time::from_us(10)).send(Rank(1), 720, 0, Time::ZERO).barrier(Time::ZERO);
        shapes.push([r0, r1, r2]);
        // An isend completes the early receive; the parked rank then
        // meets two collectives back to back and a wait-all.
        let (mut r0, mut r1, mut r2) = (b(0), b(1), b(2));
        r0.irecv(Rank(1), 50_000, 3, Time::ZERO);
        r0.coll(CollKind::Allreduce, 4096, Rank(0), Time::ZERO).barrier(Time::ZERO);
        r0.wait_all(Time::ZERO).compute(Time::from_us(7));
        let sq = r1.isend(Rank(0), 50_000, 3, Time::ZERO);
        r1.recv(Rank(2), 8, 1, Time::ZERO).coll(CollKind::Allreduce, 4096, Rank(0), Time::ZERO);
        r1.wait(sq, Time::ZERO).barrier(Time::ZERO);
        r2.compute(Time::from_us(20)).send(Rank(1), 8, 1, Time::ZERO);
        r2.coll(CollKind::Allreduce, 4096, Rank(0), Time::ZERO).barrier(Time::ZERO);
        shapes.push([r0, r1, r2]);
        // A self-send matches the running rank's own irecv just before
        // it parks at the first of two collectives, which rank 1 reaches
        // only after a receive from rank 2.
        let (mut r0, mut r1, mut r2) = (b(0), b(1), b(2));
        let rq = r0.irecv(Rank(0), 720, 5, Time::ZERO);
        r0.send(Rank(0), 720, 5, Time::ZERO).barrier(Time::ZERO);
        r0.coll(CollKind::Allreduce, 4096, Rank(0), Time::ZERO);
        r0.wait(rq, Time::ZERO).compute(Time::from_us(5));
        r1.recv(Rank(2), 8, 1, Time::ZERO).barrier(Time::ZERO);
        r2.compute(Time::from_us(10)).send(Rank(1), 8, 1, Time::ZERO).barrier(Time::ZERO);
        for rb in [&mut r1, &mut r2] {
            rb.coll(CollKind::Allreduce, 4096, Rank(0), Time::ZERO);
        }
        shapes.push([r0, r1, r2]);
        shapes
            .into_iter()
            .map(|ranks| {
                let mut t = Trace::empty(meta(3));
                for (r, rb) in ranks.into_iter().enumerate() {
                    t.events[r] = rb.finish();
                }
                t
            })
            .collect()
    }

    /// A seeded random trace from the synthesizer: blocking pairs,
    /// receives posted well before their sends and waited on well after,
    /// and collectives in between. Every wait follows its send in the
    /// synthesizer's step order, so the trace cannot deadlock.
    fn synth_trace(seed: u64) -> Trace {
        use masim_workloads::{App, GenConfig, TraceSynth};
        let mut rng = masim_rng::Rng::seed_from_u64(seed);
        let ranks = rng.gen_range_u64(2, 7) as u32;
        let cfg = GenConfig { seed, ..GenConfig::test_default(App::Ep, ranks) };
        let mut s = TraceSynth::new(cfg, 1.0);
        // Posted receives not yet sent to, and sent ones not yet waited.
        let (mut posted, mut sent) = (Vec::new(), Vec::new());
        for step in 0..rng.gen_range_u64(4, 40) as u32 {
            let a = Rank(rng.gen_range_u64(0, ranks as u64) as u32);
            let b = Rank((a.0 + rng.gen_range_u64(1, ranks as u64) as u32) % ranks);
            let bytes = rng.gen_range_u64(0, 100_000);
            match rng.gen_range_u64(0, 6) {
                0 => s.compute_round(),
                1 => {
                    s.send(a, b, bytes, 0);
                    s.recv(b, a, bytes, 0);
                }
                // A unique tag per posted receive keeps matching in step order.
                2 => posted.push((a, b, bytes, step + 1, s.irecv(b, a, bytes, step + 1))),
                3 if !posted.is_empty() => {
                    let (a, b, bytes, tag, req) =
                        posted.swap_remove(rng.gen_range_usize(0, posted.len()));
                    if rng.next_f64() < 0.5 {
                        s.send(a, b, bytes, tag);
                    } else {
                        s.isend(a, b, bytes, tag);
                    }
                    sent.push((b, req));
                }
                4 if !sent.is_empty() => {
                    let (b, req) = sent.swap_remove(rng.gen_range_usize(0, sent.len()));
                    s.wait(b, req);
                }
                _ => s.coll_all(*rng.choose(&CollKind::ALL), bytes, Rank(0)),
            }
        }
        for (a, b, bytes, tag, _) in posted {
            s.send(a, b, bytes, tag);
        }
        for r in 0..ranks {
            s.wait_all(Rank(r));
        }
        s.finish()
    }

    /// The replay is its recurrence: on the hostile shapes and on 300
    /// seeded synthesized traces, every rank's clock is bit-identical.
    #[test]
    fn replay_matches_recursive_recurrence() {
        for (i, t) in hostile_shapes().iter().enumerate() {
            assert_matches_recurrence(t, &format!("hostile shape {i}"));
        }
        for seed in 0..300 {
            assert_matches_recurrence(&synth_trace(seed), &format!("synth seed {seed}"));
        }
    }

    #[test]
    fn unknown_request_is_typed_error() {
        let mut t = Trace::empty(meta(1));
        t.events[0] = vec![Event::new(EventKind::Wait { req: ReqId(42) }, Time::ZERO)];
        let err = try_replay(&t, &[ModelConfig::base(net())], None).unwrap_err();
        let dangling = TraceError::DanglingWait { rank: Rank(0), req: 42 };
        assert_eq!(err, ReplayError::Malformed(dangling));
    }
}
