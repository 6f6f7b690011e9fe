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

use crate::cost::{collective, p2p};
use crate::error::ReplayError;
use masim_obs::MetricSet;
use masim_topo::NetworkConfig;
use masim_trace::{Event, EventKind, Rank, RankCursor, Time, Trace, TraceSource};
use std::collections::{HashMap, VecDeque};

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

/// Why a rank cannot currently advance.
enum Block {
    /// Waiting for a send on this channel (blocking recv or wait).
    Channel,
    /// Waiting at collective ordinal `usize`.
    Collective,
}

struct PendingRecv {
    avail: Option<Box<[Time]>>,
    /// Channel the receive is posted on (diagnostic: shown when a
    /// deadlocked replay is debugged; the wake path does not read it).
    #[allow(dead_code)]
    channel: (u32, u32, u32),
}

enum ReqState {
    /// Send requests complete locally (buffered semantics).
    SendDone,
    Recv(PendingRecv),
}

#[derive(Default)]
struct Channel {
    /// Message availability vectors, FIFO.
    sends: VecDeque<Box<[Time]>>,
    /// Ranks that posted a receive before the send arrived: (rank, req).
    /// `req == u32::MAX` marks a blocking receive (no request object).
    waiting: VecDeque<(u32, u32)>,
}

struct CollGroup {
    arrived: u32,
    /// Per-rank arrival clocks (rank-major, config-minor), filled as
    /// ranks arrive.
    arrivals: Vec<Time>,
    /// Per-rank payload (differs for Alltoallv).
    bytes: Vec<u64>,
}

/// Event source the replay loop runs over: either the fully
/// materialized [`Trace`] or per-rank streaming cursors into a MASS v1
/// buffer. The replay's access pattern — strictly forward per rank,
/// with the *current* event re-read when a blocked rank is woken —
/// stays inside [`RankCursor`]'s decode window, so the streamed path
/// never rewinds.
trait EvSrc {
    /// Events in rank `r`'s stream.
    fn len_of(&self, r: u32) -> usize;
    /// Event `k` of rank `r`. `k` must be in range and within the
    /// streaming window (current, one back, or the next undecoded).
    fn get(&mut self, r: u32, k: usize) -> &Event;
}

struct MemSrc<'a>(&'a Trace);

impl EvSrc for MemSrc<'_> {
    fn len_of(&self, r: u32) -> usize {
        self.0.events[r as usize].len()
    }
    fn get(&mut self, r: u32, k: usize) -> &Event {
        &self.0.events[r as usize][k]
    }
}

struct StreamSrc<'a> {
    cursors: Vec<RankCursor<'a>>,
    lens: Vec<usize>,
}

impl EvSrc for StreamSrc<'_> {
    fn len_of(&self, r: u32) -> usize {
        self.lens[r as usize]
    }
    fn get(&mut self, r: u32, k: usize) -> &Event {
        self.cursors[r as usize].get(k).expect("index bounded by len_of")
    }
}

/// Replay `trace` under every configuration simultaneously.
///
/// Panics if the trace deadlocks (which [`Trace::validate`] would have
/// reported first — run it on untrusted traces). [`try_replay`] is the
/// typed-error path for untrusted input.
pub fn replay(trace: &Trace, configs: &[ModelConfig]) -> Vec<ConfigResult> {
    try_replay(trace, configs, None).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible replay: malformed traces (deadlocks, dangling request ids)
/// surface as a [`ReplayError`] instead of a panic, so the study runner
/// can record *why* MFACT failed on a trace.
///
/// `src` is an in-memory [`Trace`] or a
/// [`StreamedTrace`](masim_trace::StreamedTrace); the latter is
/// replayed without materializing per-rank event vectors — each rank
/// decodes through a [`RankCursor`], so the resident footprint stays at
/// the encoded (MASS v1) size plus one decode window per rank — and the
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
    let n = src.num_ranks();
    let results = match src {
        TraceSource::Memory(trace) => replay_core(n, MemSrc(trace), configs),
        TraceSource::Streamed(stream) => {
            let cursors = StreamSrc {
                cursors: (0..n).map(|r| stream.cursor(Rank(r))).collect(),
                lens: (0..n).map(|r| stream.rank_len(Rank(r))).collect(),
            };
            replay_core(n, cursors, configs)
        }
    };
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

fn replay_core<S: EvSrc>(
    num_ranks: u32,
    mut src: S,
    configs: &[ModelConfig],
) -> Result<Vec<ConfigResult>, ReplayError> {
    if configs.is_empty() {
        return Err(ReplayError::NoConfigs);
    }
    let n = num_ranks as usize;
    let k = configs.len();

    let mut clocks = vec![Time::ZERO; n * k];
    let mut comp = vec![Time::ZERO; n * k];
    let mut counters = vec![Counters::default(); k];
    let mut channels: HashMap<(u32, u32, u32), Channel> = HashMap::new();
    let mut reqs: Vec<HashMap<u32, ReqState>> = (0..n).map(|_| HashMap::new()).collect();
    let mut cursors = vec![0usize; n];
    let mut coll_seen = vec![0usize; n];
    let mut coll_groups: Vec<Option<CollGroup>> = Vec::new();
    let mut blocked_on_coll: Vec<Vec<u32>> = Vec::new();

    let mut ready: VecDeque<u32> = (0..n as u32).collect();
    let mut in_ready = vec![true; n];
    let mut finished = vec![false; n];

    // Wake a rank blocked on a channel or collective.
    macro_rules! wake {
        ($ready:ident, $in_ready:ident, $r:expr) => {
            if !$in_ready[$r as usize] {
                $in_ready[$r as usize] = true;
                $ready.push_back($r);
            }
        };
    }

    while let Some(r) = ready.pop_front() {
        in_ready[r as usize] = false;
        let len = src.len_of(r);
        let mut blocked: Option<Block> = None;

        'advance: while cursors[r as usize] < len {
            let ev = src.get(r, cursors[r as usize]);
            let base = r as usize * k;
            match &ev.kind {
                EventKind::Compute => {
                    for (i, cfg) in configs.iter().enumerate() {
                        let d = ev.dur.scale(cfg.compute_scale);
                        clocks[base + i] += d;
                        comp[base + i] += d;
                        counters[i].computation += d;
                    }
                }
                EventKind::Send { peer, bytes, tag } => {
                    let mut avail = Vec::with_capacity(k);
                    for (i, cfg) in configs.iter().enumerate() {
                        let c = p2p(&cfg.net, *bytes);
                        counters[i].latency += c.latency;
                        counters[i].bandwidth += c.bandwidth;
                        clocks[base + i] += c.total();
                        avail.push(clocks[base + i]);
                    }
                    deliver_send(
                        &mut channels,
                        (r, peer.0, *tag),
                        avail.into_boxed_slice(),
                        &mut reqs,
                        |wr| wake!(ready, in_ready, wr),
                    );
                }
                EventKind::Isend { peer, bytes, tag, req } => {
                    let mut avail = Vec::with_capacity(k);
                    for (i, cfg) in configs.iter().enumerate() {
                        let c = p2p(&cfg.net, *bytes);
                        counters[i].latency += c.latency;
                        counters[i].bandwidth += c.bandwidth;
                        // A nonblocking issue costs only the software
                        // injection overhead locally (a quarter of α);
                        // the full α + m·β transfer overlaps with
                        // subsequent execution and determines when the
                        // message is available at the receiver.
                        let start = clocks[base + i];
                        clocks[base + i] = start + c.latency / 4;
                        avail.push(start + c.latency + c.bandwidth);
                    }
                    reqs[r as usize].insert(req.0, ReqState::SendDone);
                    deliver_send(
                        &mut channels,
                        (r, peer.0, *tag),
                        avail.into_boxed_slice(),
                        &mut reqs,
                        |wr| wake!(ready, in_ready, wr),
                    );
                }
                EventKind::Recv { peer, tag, .. } => {
                    // A blocking receive is an implicit irecv+wait using
                    // the reserved pseudo-request id `u32::MAX`. On first
                    // execution it either matches a queued send or
                    // registers in the channel's waiting list; when the
                    // send later arrives, `deliver_send` fills the
                    // pseudo-request and this event is retried.
                    let key = (peer.0, r, *tag);
                    if let Some(ReqState::Recv(p)) = reqs[r as usize].get(&u32::MAX) {
                        // Retry after a wake-up.
                        match &p.avail {
                            Some(avail) => {
                                for i in 0..k {
                                    let a = avail[i];
                                    if a > clocks[base + i] {
                                        counters[i].wait += a - clocks[base + i];
                                        clocks[base + i] = a;
                                    }
                                }
                                reqs[r as usize].remove(&u32::MAX);
                            }
                            None => {
                                // Spurious wake; still registered in the
                                // waiting queue — just block again.
                                blocked = Some(Block::Channel);
                                break 'advance;
                            }
                        }
                    } else {
                        let ch = channels.entry(key).or_default();
                        match ch.sends.pop_front() {
                            Some(avail) => {
                                for i in 0..k {
                                    let a = avail[i];
                                    let now = clocks[base + i];
                                    if a > now {
                                        counters[i].wait += a - now;
                                        clocks[base + i] = a;
                                    }
                                }
                            }
                            None => {
                                ch.waiting.push_back((r, u32::MAX));
                                reqs[r as usize].insert(
                                    u32::MAX,
                                    ReqState::Recv(PendingRecv { avail: None, channel: key }),
                                );
                                blocked = Some(Block::Channel);
                                break 'advance;
                            }
                        }
                    }
                }
                EventKind::Irecv { peer, tag, req, .. } => {
                    let key = (peer.0, r, *tag);
                    let ch = channels.entry(key).or_default();
                    let avail = ch.sends.pop_front();
                    if avail.is_none() {
                        ch.waiting.push_back((r, req.0));
                    }
                    reqs[r as usize]
                        .insert(req.0, ReqState::Recv(PendingRecv { avail, channel: key }));
                }
                EventKind::Wait { req } => match reqs[r as usize].get(&req.0) {
                    Some(ReqState::SendDone) => {
                        reqs[r as usize].remove(&req.0);
                    }
                    Some(ReqState::Recv(p)) => match &p.avail {
                        Some(avail) => {
                            for i in 0..k {
                                let a = avail[i];
                                if a > clocks[base + i] {
                                    counters[i].wait += a - clocks[base + i];
                                    clocks[base + i] = a;
                                }
                            }
                            reqs[r as usize].remove(&req.0);
                        }
                        None => {
                            blocked = Some(Block::Channel);
                            break 'advance;
                        }
                    },
                    None => return Err(ReplayError::UnknownRequest { rank: r, req: req.0 }),
                },
                EventKind::WaitAll { reqs: ids } => {
                    // All receive requests must have matched sends.
                    for id in ids {
                        if let Some(ReqState::Recv(p)) = reqs[r as usize].get(&id.0) {
                            if p.avail.is_none() {
                                blocked = Some(Block::Channel);
                                break 'advance;
                            }
                        }
                    }
                    for id in ids {
                        match reqs[r as usize].remove(&id.0) {
                            Some(ReqState::SendDone) => {}
                            Some(ReqState::Recv(p)) => {
                                let avail = p.avail.expect("checked above");
                                for i in 0..k {
                                    if avail[i] > clocks[base + i] {
                                        counters[i].wait += avail[i] - clocks[base + i];
                                        clocks[base + i] = avail[i];
                                    }
                                }
                            }
                            None => return Err(ReplayError::UnknownRequest { rank: r, req: id.0 }),
                        }
                    }
                }
                EventKind::Coll { bytes, .. } => {
                    let ord = coll_seen[r as usize];
                    coll_seen[r as usize] += 1;
                    if coll_groups.len() <= ord {
                        coll_groups.resize_with(ord + 1, || None);
                        blocked_on_coll.resize_with(ord + 1, Vec::new);
                    }
                    let group = coll_groups[ord].get_or_insert_with(|| CollGroup {
                        arrived: 0,
                        arrivals: vec![Time::ZERO; n * k],
                        bytes: vec![0; n],
                    });
                    group.arrived += 1;
                    group.bytes[r as usize] = *bytes;
                    group.arrivals[base..base + k].copy_from_slice(&clocks[base..base + k]);
                    if group.arrived == n as u32 {
                        // Everyone is here: complete the collective.
                        let group = coll_groups[ord].take().expect("group exists");
                        let kind = match &ev.kind {
                            EventKind::Coll { kind, .. } => *kind,
                            _ => unreachable!(),
                        };
                        for i in 0..k {
                            let max_arrival = (0..n)
                                .map(|rr| group.arrivals[rr * k + i])
                                .max()
                                .unwrap_or(Time::ZERO);
                            for rr in 0..n {
                                let arr = group.arrivals[rr * k + i];
                                counters[i].wait += max_arrival - arr;
                                let cost =
                                    collective(&configs[i].net, kind, group.bytes[rr], n as u32);
                                clocks[rr * k + i] = max_arrival + cost.total();
                                // Latency/bandwidth charged per rank.
                                counters[i].latency += cost.latency;
                                counters[i].bandwidth += cost.bandwidth;
                            }
                        }
                        // Wake the other n-1 participants.
                        for wr in blocked_on_coll[ord].drain(..) {
                            wake!(ready, in_ready, wr);
                        }
                        // This rank continues past the collective.
                    } else {
                        blocked_on_coll[ord].push(r);
                        cursors[r as usize] += 1; // resume *after* the collective
                        blocked = Some(Block::Collective);
                        break 'advance;
                    }
                }
            }
            cursors[r as usize] += 1;
        }

        match blocked {
            None => {
                if cursors[r as usize] >= len {
                    finished[r as usize] = true;
                }
            }
            Some(Block::Channel) | Some(Block::Collective) => {
                // Wake-up is registered with the channel/collective.
            }
        }
    }

    let done = finished.iter().filter(|&&f| f).count();
    if done != n {
        return Err(ReplayError::Deadlock { finished: done as u32, total: n as u32 });
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

/// Deliver a send's availability vector: hand it to the oldest waiting
/// receive if one exists (waking its rank), otherwise queue it.
fn deliver_send(
    channels: &mut HashMap<(u32, u32, u32), Channel>,
    key: (u32, u32, u32),
    avail: Box<[Time]>,
    reqs: &mut [HashMap<u32, ReqState>],
    mut wake: impl FnMut(u32),
) {
    let ch = channels.entry(key).or_default();
    if let Some((wr, wreq)) = ch.waiting.pop_front() {
        // Both real irecvs and blocking receives (pseudo-request
        // u32::MAX) have a PendingRecv record to fill.
        if let Some(ReqState::Recv(p)) = reqs[wr as usize].get_mut(&wreq) {
            p.avail = Some(avail);
        } else {
            unreachable!("waiting receive lost its request record");
        }
        wake(wr);
    } else {
        ch.sends.push_back(avail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masim_trace::{CollKind, Event, Rank, RankBuilder, StreamedTrace, TraceMeta};

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
        // Sender: 10us + 2.5us + 1us = 13.5us.
        assert_eq!(r.per_rank[0], Time::from_ns(13_500));
        // Receiver waits from 1us until the message lands at 13.5us.
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
            let encoded = masim_trace::encode_stream(&t);
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
        let stream = StreamedTrace::from_bytes(masim_trace::encode_stream(&t)).unwrap();
        let err = try_replay(&stream, &[ModelConfig::base(net())], None).unwrap_err();
        assert!(matches!(err, ReplayError::Deadlock { finished: 1, total: 2 }));
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
        // Rank0: clock 13.5us, comp 10us -> comm 3.5; rank1: 13.5 - 1 = 12.5.
        assert_eq!(r.comm_time, Time::from_us(16));
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
        // Both ranks finish at 13.5us (see hockney_happened_before).
        assert_eq!(h.min, 13_500);
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
        assert_eq!(err, ReplayError::Deadlock { finished: 0, total: 2 });
    }

    #[test]
    fn empty_config_list_is_typed_error() {
        let t = send_recv_trace();
        assert_eq!(try_replay(&t, &[], None).unwrap_err(), ReplayError::NoConfigs);
    }

    #[test]
    fn unknown_request_is_typed_error() {
        use masim_trace::ReqId;
        let mut t = Trace::empty(meta(1));
        t.events[0] = vec![Event::new(EventKind::Wait { req: ReqId(42) }, Time::ZERO)];
        let err = try_replay(&t, &[ModelConfig::base(net())], None).unwrap_err();
        assert_eq!(err, ReplayError::UnknownRequest { rank: 0, req: 42 });
    }
}
