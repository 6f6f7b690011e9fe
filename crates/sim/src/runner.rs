//! The MPI replay driver: rank processes advancing through trace events
//! (and lowered collective schedules) on the discrete-event engine.

use crate::error::SimError;
use crate::hash::IntMap;
use crate::lower::{coll_tag, lower, Schedule};
use crate::msg::{Message, MsgSlab};
use crate::net::{
    flow_complete, inject, on_flow_resolve, packet_hop, LinkTable, ModelKind, NetState, Packet,
    RouteArena,
};
use masim_des::{Engine, Handler};
use masim_obs::MetricSet;
use masim_topo::{LinkId, Machine, Mapping};
use masim_trace::{
    Event, EventKind, Mailbox, Rank, RankCursor, StreamedTrace, Time, Trace, TraceSource,
};
use std::time::{Duration, Instant};

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Target machine (topology + network scalars).
    pub machine: Machine,
    /// Rank→node placement.
    pub mapping: Mapping,
    /// Which network model to run.
    pub model: ModelKind,
    /// Computation-time multiplier.
    pub compute_scale: f64,
    /// Resident-byte cap on the interned-route arena; interning past it
    /// is a typed [`SimError::RouteArenaExhausted`]. `u64::MAX` (the
    /// default) leaves only the arena's structural limits (u32 route
    /// ids, u16 hops) in force.
    pub route_arena_cap_bytes: u64,
}

impl SimConfig {
    /// Default configuration: block mapping (as the original runs used)
    /// at the trace's recorded ranks-per-node, unit compute scale.
    pub fn new(machine: Machine, model: ModelKind, trace: &Trace) -> SimConfig {
        SimConfig::for_ranks(machine, model, trace.num_ranks(), trace.meta.ranks_per_node)
    }

    /// Like [`SimConfig::new`] for a trace that stays on disk: the block
    /// mapping comes from the stream's recorded metadata, so the full
    /// event vectors never need materializing just to build a config.
    pub fn for_streamed(machine: Machine, model: ModelKind, stream: &StreamedTrace) -> SimConfig {
        SimConfig::for_ranks(machine, model, stream.num_ranks(), stream.meta().ranks_per_node)
    }

    fn for_ranks(machine: Machine, model: ModelKind, ranks: u32, per_node: u32) -> SimConfig {
        SimConfig {
            machine,
            mapping: Mapping::block(ranks, per_node),
            model,
            compute_scale: 1.0,
            route_arena_cap_bytes: u64::MAX,
        }
    }
}

/// Resource limits for one simulation run: a deterministic work budget
/// and an optional wall-clock deadline, both checked at the same cadence
/// in the run loop. The budget is what makes study results reproducible
/// (it counts simulated work); the deadline is a host-level safety net
/// for interactive and CI use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimLimits {
    /// Work budget (DES events + model work units). `u64::MAX` for
    /// unlimited.
    pub max_work: u64,
    /// Optional wall-clock deadline on this host.
    pub deadline: Option<Duration>,
    /// Memory budget: estimated resident bytes of the simulation state
    /// (trace, route arena, link tables, message slab, model state),
    /// checked before the run and then at the same cadence as the work
    /// budget. Exceeding it is a typed [`SimError::MemoryBudget`] instead of an
    /// allocator abort. `u64::MAX` for unlimited.
    pub max_bytes: u64,
}

impl SimLimits {
    /// A pure work budget, no deadline or memory cap.
    pub fn budget(max_work: u64) -> SimLimits {
        SimLimits { max_work, deadline: None, max_bytes: u64::MAX }
    }

    /// No limits at all.
    pub fn unlimited() -> SimLimits {
        SimLimits { max_work: u64::MAX, deadline: None, max_bytes: u64::MAX }
    }

    /// This limit set with a memory budget of `max_bytes`.
    pub fn with_memory_budget(self, max_bytes: u64) -> SimLimits {
        SimLimits { max_bytes, ..self }
    }
}

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Model that produced this result.
    pub model: ModelKind,
    /// Predicted application time (slowest rank).
    pub total: Time,
    /// Per-rank finish times.
    pub per_rank: Vec<Time>,
    /// Predicted communication time summed over ranks (finish − scaled
    /// computation).
    pub comm_time: Time,
    /// DES events executed.
    pub events: u64,
    /// Point-to-point messages injected (including lowered collectives).
    pub messages: u64,
    /// Model work units (packets routed, or flow-rate re-solves).
    pub work_units: u64,
    /// Busiest directed link's total bytes (contention indicator).
    pub max_link_bytes: u64,
    /// Total bytes charged to every directed link, in link-table order
    /// (fabric links, then one injection and one ejection link per
    /// rank) — the input of [`UtilReport`](crate::UtilReport).
    pub link_bytes: Vec<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PStatus {
    Idle,
    Computing,
    BlockedSend,
    BlockedRecv,
    Waiting,
    CollRound,
    Done,
}

struct CollExec {
    /// Index into [`SimState::coll_scheds`] (schedules are cached and
    /// shared across identical collective invocations).
    sched_idx: u32,
    round: usize,
    ordinal: u32,
}

/// Outstanding nonblocking requests for one rank: (id, completed).
/// A rank keeps at most a handful in flight, so an unsorted vec with
/// linear scans beats a hash map — no hashing, no per-request
/// allocation once the buffer has warmed, and removal is a tail swap
/// (order is irrelevant; every access is keyed).
#[derive(Default, Debug)]
struct ReqSet {
    reqs: Vec<(u32, bool)>,
}

impl ReqSet {
    /// Completion state of `id`, if issued.
    fn get(&self, id: u32) -> Option<bool> {
        self.reqs.iter().find(|(rid, _)| *rid == id).map(|&(_, done)| done)
    }

    /// Record `id` as issued (overwriting a stale duplicate).
    fn insert(&mut self, id: u32, done: bool) {
        match self.reqs.iter_mut().find(|(rid, _)| *rid == id) {
            Some(slot) => slot.1 = done,
            None => self.reqs.push((id, done)),
        }
    }

    /// Mark `id` complete if it is still outstanding.
    fn set_done(&mut self, id: u32) {
        if let Some(slot) = self.reqs.iter_mut().find(|(rid, _)| *rid == id) {
            slot.1 = true;
        }
    }

    /// Retire `id`, returning its completion state.
    fn remove(&mut self, id: u32) -> Option<bool> {
        let idx = self.reqs.iter().position(|(rid, _)| *rid == id)?;
        Some(self.reqs.swap_remove(idx).1)
    }
}

struct Proc {
    cursor: usize,
    status: PStatus,
    /// Application nonblocking requests: id → completed?
    reqs: ReqSet,
    /// Requests a `Wait`/`WaitAll` is currently blocked on.
    wait_set: Vec<u32>,
    coll: Option<CollExec>,
    coll_count: u32,
    /// Outstanding receives + send releases in the current collective
    /// round.
    round_pending: u32,
    compute_total: Time,
    finish: Time,
    blocked_send_msg: u32,
}

impl Proc {
    fn new() -> Proc {
        Proc {
            cursor: 0,
            status: PStatus::Idle,
            reqs: ReqSet::default(),
            wait_set: Vec::new(),
            coll: None,
            coll_count: 0,
            round_pending: 0,
            compute_total: Time::ZERO,
            finish: Time::ZERO,
            blocked_send_msg: 0,
        }
    }
}

/// What a sender-release event means for the source rank.
enum RelPurpose {
    BlockingSend(Rank),
    AppReq(Rank, u32),
    CollRound(Rank),
}

/// The typed DES event vocabulary of the replay (the engine's
/// `S::Event`). One variant per closure shape the old engine boxed; the
/// payloads are small `Copy` values — message ids into the
/// [`MsgSlab`], [`RouteRef`](crate::net::RouteRef)s into the route
/// arena — slab-allocated inline in the engine's event arena with no
/// `Drop` glue (asserted by `sim_event_is_copy_and_small`).
#[derive(Clone, Copy)]
pub enum SimEvent {
    /// (Re)start rank `r`'s replay loop (initial seed).
    Advance(Rank),
    /// Rank `r` finished a compute burst.
    ComputeDone(Rank),
    /// Sender may reuse its buffer (message fully injected / drained).
    Release {
        /// Source rank (for symmetry with `Deliver`; the release table
        /// is keyed by message id).
        src: Rank,
        /// Message slab id.
        msg: u32,
    },
    /// A message's payload reached its destination rank.
    Deliver {
        /// Destination rank.
        dst: Rank,
        /// Source rank.
        src: Rank,
        /// Matching tag.
        tag: u32,
        /// Message slab id.
        msg: u32,
    },
    /// A packet crosses its next route link (packet model only).
    PacketHop(Packet),
    /// Batched max-min rate re-solve (flow model only).
    FlowResolve,
    /// A fluid flow drained (flow model only); the message id guards
    /// against stale completions for a recycled slab slot.
    FlowComplete {
        /// Flow slab slot.
        slot: u32,
        /// Message slab id occupying the slot when scheduled.
        msg: u32,
    },
}

impl<'a> Handler for SimState<'a> {
    type Event = SimEvent;

    fn handle(eng: &mut Engine<Self>, st: &mut Self, ev: SimEvent) {
        match ev {
            SimEvent::Advance(r) => advance(eng, st, r),
            SimEvent::ComputeDone(r) => {
                st.procs[r.idx()].status = PStatus::Idle;
                advance(eng, st, r);
            }
            SimEvent::Release { src, msg } => on_release(eng, st, src, msg),
            SimEvent::Deliver { dst, src, tag, msg } => on_deliver(eng, st, dst, src, tag, msg),
            SimEvent::PacketHop(pkt) => packet_hop(eng, st, pkt),
            SimEvent::FlowResolve => on_flow_resolve(eng, st),
            SimEvent::FlowComplete { slot, msg } => flow_complete(eng, st, slot, msg),
        }
    }
}

/// A fetched trace event: borrowed straight from an in-memory trace, or
/// moved out of a streamed rank's decode window (the window is `&mut`,
/// so a borrow cannot be held across the replay's re-entrant match
/// arms). `Deref`s to [`Event`] so the replay reads both identically.
pub(crate) enum Ev<'e> {
    /// Borrowed from an in-memory trace.
    Ref(&'e Event),
    /// Taken from a streamed decode window.
    Owned(Event),
}

impl std::ops::Deref for Ev<'_> {
    type Target = Event;

    fn deref(&self) -> &Event {
        match self {
            Ev::Ref(e) => e,
            Ev::Owned(e) => e,
        }
    }
}

/// The shared simulation state (the DES engine's `S`).
pub struct SimState<'a> {
    pub(crate) machine: Machine,
    pub(crate) mapping: Mapping,
    pub(crate) net: NetState,
    pub(crate) links: LinkTable,
    /// Interned (src rank, dst rank) → virtual-link routes; in-flight
    /// packets and flows hold `RouteRef`s into this arena.
    pub(crate) routes: RouteArena,
    /// Where a rank pair's route is built before it is interned, so a
    /// cold intern allocates nothing of its own.
    pub(crate) route_scratch: Vec<LinkId>,
    /// Id-indexed message table; event payloads carry `u32` ids into it.
    pub(crate) msgs: MsgSlab,
    trace: TraceSource<'a>,
    /// Per-rank streaming decode windows (empty for a memory trace).
    cursors: Vec<RankCursor<'a>>,
    /// Event-data resident bytes, cached at build time (constant for
    /// the run; summing per-rank capacities at 100k ranks is not free).
    trace_bytes: u64,
    procs: Vec<Proc>,
    mailboxes: Vec<Mailbox>,
    /// Release purposes indexed by message id (ids are sequential).
    releases: Vec<Option<RelPurpose>>,
    compute_scale: f64,
    messages: u64,
    done: usize,
    /// Lowered collective schedules, interned by
    /// `(kind, rank, bytes, root)`: iterative apps re-issue identical
    /// collectives every iteration, so each unique signature lowers
    /// once and replays from the cache.
    coll_scheds: Vec<Schedule>,
    /// Signature → index into `coll_scheds`.
    coll_cache: IntMap<(u8, u32, u64, u32), u32>,
    /// Reusable copy-out buffers for the collective round being
    /// executed (the cached schedule cannot stay borrowed across
    /// `send_message`, which needs `&mut self`).
    scr_recvs: Vec<(Rank, u64)>,
    scr_sends: Vec<(Rank, u64)>,
    /// Nanoseconds spent lowering collectives (profiled only when
    /// telemetry is attached; stays zero — and syscall-free — otherwise).
    /// With the schedule cache, this times unique lowerings, not every
    /// collective event.
    lower_ns: u64,
    /// Gate for the lowering profile above.
    profile_lower: bool,
    /// First typed error latched mid-run (e.g. a wait on an unknown
    /// request); reported by [`run`] once the engine stops.
    error: Option<SimError>,
}

// Receive-token encoding: rank in the high 32 bits, purpose below.
const TOKEN_BLOCKING: u32 = u32::MAX;
const TOKEN_COLL: u32 = 0x8000_0000;

fn token(rank: Rank, code: u32) -> u64 {
    ((rank.0 as u64) << 32) | code as u64
}

impl<'a> SimState<'a> {
    /// Validate `cfg` against the trace and build the empty state;
    /// `profile_lower` (an observed run) times collective lowering.
    pub(crate) fn new(
        trace: TraceSource<'a>,
        cfg: &SimConfig,
        profile_lower: bool,
    ) -> Result<SimState<'a>, SimError> {
        let ranks = trace.num_ranks();
        let n = ranks as usize;
        if cfg.mapping.ranks() != ranks {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "mapping/trace rank mismatch: mapping has {} ranks, trace has {}",
                    cfg.mapping.ranks(),
                    ranks
                ),
            });
        }
        if let Err(e) = cfg.mapping.validate_for(&cfg.machine) {
            return Err(SimError::InvalidConfig {
                reason: format!("mapping does not fit machine {}: {e}", cfg.machine.name),
            });
        }
        let links = LinkTable::new(&cfg.machine, ranks);
        let net = NetState::new(cfg.model, links.len());
        let mut routes = RouteArena::new(ranks);
        routes.set_cap_bytes(cfg.route_arena_cap_bytes);
        let cursors = match trace {
            TraceSource::Memory(_) => Vec::new(),
            TraceSource::Streamed(s) => (0..ranks).map(|r| s.cursor(Rank(r))).collect(),
        };
        Ok(SimState {
            machine: cfg.machine.clone(),
            mapping: cfg.mapping.clone(),
            net,
            links,
            routes,
            route_scratch: Vec::new(),
            msgs: MsgSlab::default(),
            trace_bytes: trace.resident_bytes(),
            trace,
            cursors,
            procs: (0..n).map(|_| Proc::new()).collect(),
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            releases: Vec::new(),
            compute_scale: cfg.compute_scale,
            messages: 0,
            done: 0,
            coll_scheds: Vec::new(),
            coll_cache: IntMap::default(),
            scr_recvs: Vec::new(),
            scr_sends: Vec::new(),
            lower_ns: 0,
            profile_lower,
            error: None,
        })
    }

    fn send_message(
        &mut self,
        eng: &mut Engine<SimState<'a>>,
        src: Rank,
        dst: Rank,
        bytes: u64,
        tag: u32,
        purpose: RelPurpose,
    ) -> u32 {
        self.messages += 1;
        // Zero-byte MPI messages still cross the wire as a header.
        let id = self.msgs.push(Message { src, dst, bytes: bytes.max(1), tag });
        debug_assert_eq!(id as usize, self.releases.len());
        self.releases.push(Some(purpose));
        inject(eng, self, id);
        id
    }

    /// Latch the first typed mid-run error; [`run`] reports it with
    /// priority over the deadlock the stalled rank would otherwise
    /// surface as. Later errors are dropped — the first cause wins.
    pub(crate) fn latch_error(&mut self, e: SimError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Event `k` of rank `r`'s trace, if it exists. Borrowed directly
    /// from a memory trace; taken out of the rank's streaming decode
    /// window otherwise — [`advance`] bumps the rank's cursor right
    /// after the fetch and never asks for index `k` again.
    fn fetch_event(&mut self, r: Rank, k: usize) -> Option<Ev<'a>> {
        match self.trace {
            TraceSource::Memory(t) => t.events[r.idx()].get(k).map(Ev::Ref),
            TraceSource::Streamed(_) => self.cursors[r.idx()].take(k).map(Ev::Owned),
        }
    }

    /// Estimated resident bytes of the simulation state: event data,
    /// interned routes, link tables, message slab, and network-model
    /// vectors. An estimate of the dominant allocations, not an
    /// allocator census — it is what [`SimLimits::max_bytes`] meters.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.trace_bytes
            + self.routes.bytes()
            + self.links.resident_bytes()
            + (self.msgs.len() * std::mem::size_of::<Message>()) as u64
            + self.net.resident_bytes()
    }
}

/// Advance rank `r` until it blocks or finishes.
fn advance<'a>(eng: &mut Engine<SimState<'a>>, st: &mut SimState<'a>, r: Rank) {
    loop {
        debug_assert_eq!(st.procs[r.idx()].status, PStatus::Idle);

        // Inside a collective: run its rounds first.
        if st.procs[r.idx()].coll.is_some() && enter_coll_rounds(eng, st, r) {
            return; // blocked inside the collective
        }
        // Collective finished; fall through to trace events.

        let cursor = st.procs[r.idx()].cursor;
        let Some(ev) = st.fetch_event(r, cursor) else {
            let p = &mut st.procs[r.idx()];
            p.status = PStatus::Done;
            p.finish = eng.now();
            st.done += 1;
            return;
        };
        st.procs[r.idx()].cursor += 1;

        match &ev.kind {
            EventKind::Compute => {
                let d = ev.dur.scale(st.compute_scale);
                let p = &mut st.procs[r.idx()];
                // Saturate: a pathological duration must surface as the
                // engine's typed clock overflow, not an accounting abort.
                p.compute_total = p.compute_total.saturating_add(d);
                p.status = PStatus::Computing;
                eng.schedule_in(d, SimEvent::ComputeDone(r));
                return;
            }
            EventKind::Send { peer, bytes, tag } => {
                let id = st.send_message(eng, r, *peer, *bytes, *tag, RelPurpose::BlockingSend(r));
                let p = &mut st.procs[r.idx()];
                p.status = PStatus::BlockedSend;
                p.blocked_send_msg = id;
                return;
            }
            EventKind::Isend { peer, bytes, tag, req } => {
                st.procs[r.idx()].reqs.insert(req.0, false);
                st.send_message(eng, r, *peer, *bytes, *tag, RelPurpose::AppReq(r, req.0));
            }
            EventKind::Recv { peer, tag, .. } => {
                let tok = token(r, TOKEN_BLOCKING);
                if st.mailboxes[r.idx()].post(*peer, *tag, tok).is_none() {
                    st.procs[r.idx()].status = PStatus::BlockedRecv;
                    return;
                }
            }
            EventKind::Irecv { peer, tag, req, .. } => {
                let done = st.mailboxes[r.idx()].post(*peer, *tag, token(r, req.0)).is_some();
                st.procs[r.idx()].reqs.insert(req.0, done);
            }
            EventKind::Wait { req } => {
                if st.procs[r.idx()].reqs.get(req.0).is_none() {
                    // Malformed trace: the request was never issued.
                    // Latch the typed cause and let the rank block on a
                    // request that can never complete; `run` reports
                    // the latched error instead of a bare deadlock.
                    st.procs[r.idx()].reqs.insert(req.0, false);
                    if st.error.is_none() {
                        st.error = Some(SimError::UnknownRequest { rank: r.0, req: req.0 });
                    }
                }
                let p = &mut st.procs[r.idx()];
                if p.reqs.remove(req.0).unwrap_or(false) {
                    // Already complete.
                } else {
                    p.reqs.insert(req.0, false);
                    p.wait_set.clear();
                    p.wait_set.push(req.0);
                    p.status = PStatus::Waiting;
                    return;
                }
            }
            EventKind::WaitAll { reqs } => {
                for id in reqs {
                    if st.procs[r.idx()].reqs.get(id.0).is_none() {
                        // Same malformed-trace handling as Wait above.
                        st.procs[r.idx()].reqs.insert(id.0, false);
                        if st.error.is_none() {
                            st.error = Some(SimError::UnknownRequest { rank: r.0, req: id.0 });
                        }
                    }
                }
                let p = &mut st.procs[r.idx()];
                p.wait_set.clear();
                for id in reqs {
                    if !p.reqs.get(id.0).unwrap_or(false) {
                        p.wait_set.push(id.0);
                    }
                }
                if p.wait_set.is_empty() {
                    for id in reqs {
                        p.reqs.remove(id.0);
                    }
                } else {
                    for id in reqs {
                        if p.reqs.get(id.0) == Some(true) {
                            p.reqs.remove(id.0);
                        }
                    }
                    p.status = PStatus::Waiting;
                    return;
                }
            }
            EventKind::Coll { kind, bytes, root } => {
                let ordinal = st.procs[r.idx()].coll_count;
                st.procs[r.idx()].coll_count += 1;
                let key = (*kind as u8, r.0, *bytes, root.0);
                let sched_idx = match st.coll_cache.get(&key) {
                    Some(&idx) => idx,
                    None => {
                        let sched = if st.profile_lower {
                            let t0 = Instant::now();
                            let sched = lower(*kind, r, st.trace.num_ranks(), *bytes, *root);
                            st.lower_ns += t0.elapsed().as_nanos() as u64;
                            sched
                        } else {
                            lower(*kind, r, st.trace.num_ranks(), *bytes, *root)
                        };
                        let idx = st.coll_scheds.len() as u32;
                        st.coll_scheds.push(sched);
                        st.coll_cache.insert(key, idx);
                        idx
                    }
                };
                st.procs[r.idx()].coll = Some(CollExec { sched_idx, round: 0, ordinal });
                // Loop continues into enter_coll_rounds.
            }
        }
    }
}

/// Execute collective rounds until blocked (true) or done (false).
fn enter_coll_rounds<'a>(eng: &mut Engine<SimState<'a>>, st: &mut SimState<'a>, r: Rank) -> bool {
    loop {
        let (round_idx, ordinal, sched_idx) = {
            let p = &st.procs[r.idx()];
            let c = p.coll.as_ref().expect("in collective");
            (c.round, c.ordinal, c.sched_idx as usize)
        };
        if round_idx >= st.coll_scheds[sched_idx].rounds.len() {
            st.procs[r.idx()].coll = None;
            return false;
        }
        // Copy this round out of the shared cached schedule (the sends
        // below need `st` mutably); the scratch buffers are reused
        // across rounds, so steady state copies without allocating.
        let mut recvs = std::mem::take(&mut st.scr_recvs);
        let mut sends = std::mem::take(&mut st.scr_sends);
        let round = &st.coll_scheds[sched_idx].rounds[round_idx];
        recvs.clear();
        recvs.extend_from_slice(&round.recvs);
        sends.clear();
        sends.extend_from_slice(&round.sends);
        let tag = coll_tag(ordinal, round_idx as u32);
        let mut pending = 0u32;
        // Post receives first (they may already be unexpected-matched).
        for &(peer, _bytes) in &recvs {
            if st.mailboxes[r.idx()].post(peer, tag, token(r, TOKEN_COLL)).is_none() {
                pending += 1;
            }
        }
        // Issue sends.
        for &(peer, bytes) in &sends {
            st.send_message(eng, r, peer, bytes, tag, RelPurpose::CollRound(r));
            pending += 1;
        }
        st.scr_recvs = recvs;
        st.scr_sends = sends;
        let p = &mut st.procs[r.idx()];
        p.coll.as_mut().unwrap().round = round_idx + 1;
        if pending > 0 {
            p.round_pending = pending;
            p.status = PStatus::CollRound;
            return true;
        }
        // Empty (or fully satisfied) round: continue to the next.
    }
}

/// A message reached its destination rank.
fn on_deliver<'a>(
    eng: &mut Engine<SimState<'a>>,
    st: &mut SimState<'a>,
    dst: Rank,
    src: Rank,
    tag: u32,
    _msg_id: u32,
) {
    let Some(tok) = st.mailboxes[dst.idx()].deliver(src, tag, eng.now().as_ps()) else {
        return; // queued as unexpected
    };
    recv_complete(eng, st, tok);
}

/// A posted receive just matched.
fn recv_complete<'a>(eng: &mut Engine<SimState<'a>>, st: &mut SimState<'a>, tok: u64) {
    let r = Rank((tok >> 32) as u32);
    let code = (tok & 0xFFFF_FFFF) as u32;
    let p = &mut st.procs[r.idx()];
    if code == TOKEN_BLOCKING {
        debug_assert_eq!(p.status, PStatus::BlockedRecv);
        p.status = PStatus::Idle;
        advance(eng, st, r);
    } else if code == TOKEN_COLL {
        debug_assert!(p.round_pending > 0);
        p.round_pending -= 1;
        if p.round_pending == 0 && p.status == PStatus::CollRound {
            p.status = PStatus::Idle;
            advance(eng, st, r);
        }
    } else {
        // Application request completion.
        p.reqs.set_done(code);
        try_finish_wait(eng, st, r);
    }
}

/// A sender may reuse its buffer (message fully injected / drained).
fn on_release<'a>(eng: &mut Engine<SimState<'a>>, st: &mut SimState<'a>, _src: Rank, msg_id: u32) {
    let Some(purpose) = st.releases.get_mut(msg_id as usize).and_then(Option::take) else {
        return;
    };
    match purpose {
        RelPurpose::BlockingSend(r) => {
            let p = &mut st.procs[r.idx()];
            debug_assert_eq!(p.status, PStatus::BlockedSend);
            debug_assert_eq!(p.blocked_send_msg, msg_id);
            p.status = PStatus::Idle;
            advance(eng, st, r);
        }
        RelPurpose::AppReq(r, req) => {
            st.procs[r.idx()].reqs.set_done(req);
            try_finish_wait(eng, st, r);
        }
        RelPurpose::CollRound(r) => {
            let p = &mut st.procs[r.idx()];
            debug_assert!(p.round_pending > 0);
            p.round_pending -= 1;
            if p.round_pending == 0 && p.status == PStatus::CollRound {
                p.status = PStatus::Idle;
                advance(eng, st, r);
            }
        }
    }
}

/// If rank `r` is blocked in `Wait`/`WaitAll` and everything it waits on
/// completed, resume it.
fn try_finish_wait<'a>(eng: &mut Engine<SimState<'a>>, st: &mut SimState<'a>, r: Rank) {
    let p = &mut st.procs[r.idx()];
    if p.status != PStatus::Waiting {
        return;
    }
    if p.wait_set.iter().all(|&id| p.reqs.get(id).unwrap_or(false)) {
        // Drain in place so the wait-set buffer keeps its capacity.
        for i in 0..p.wait_set.len() {
            let id = p.wait_set[i];
            p.reqs.remove(id);
        }
        p.wait_set.clear();
        p.status = PStatus::Idle;
        advance(eng, st, r);
    }
}

/// Run one simulation: the single `Result`-returning entry point. The
/// `simulate*` functions below are one-line wrappers over it.
///
/// What varies is all in the arguments: `src` is an in-memory
/// [`Trace`] or an on-disk [`StreamedTrace`] (decoded through per-rank
/// sliding windows, so the per-rank `Vec<Event>`s are never
/// materialized; predictions are bit-identical either way), `limits`
/// is the work budget / wall deadline / memory budget checked every
/// 1024 events, and `obs`, when given, receives the `sim.*` and
/// `des.*` telemetry once after the run — the hot loop itself carries
/// no instrumentation, so results do not depend on it.
///
/// An exhausted budget is the analogue of the paper's tool failures
/// (SST/Macro's packet and flow models completed 216 and 162 of the 235
/// traces); it, a deadlock, a clock overflow and every malformed-input
/// cause come back as a typed [`SimError`], never a panic.
pub fn run<'a>(
    src: impl Into<TraceSource<'a>>,
    cfg: &SimConfig,
    limits: SimLimits,
    obs: Option<&MetricSet>,
) -> Result<SimResult, SimError> {
    sim_core(src.into(), cfg, limits, obs)
}

/// [`run`] without limits or telemetry, for examples and benches.
///
/// Panics if the replay deadlocks (validate traces first), the mapping
/// does not fit the machine, or the simulated clock overflows.
pub fn simulate(trace: &Trace, cfg: &SimConfig) -> SimResult {
    run(trace, cfg, SimLimits::unlimited(), None)
        .unwrap_or_else(|e| panic!("simulation failed: {e}"))
}

/// [`run`] on an in-memory trace under a pure work budget. Kept, with
/// this signature, because `benchmark/src/adapter.rs` binds it.
pub fn simulate_budgeted(
    trace: &Trace,
    cfg: &SimConfig,
    max_work: u64,
) -> Result<SimResult, SimError> {
    run(trace, cfg, SimLimits::budget(max_work), None)
}

/// [`run`] on a streamed trace. Kept, with this signature, because
/// `benchmark/src/adapter.rs` binds it.
pub fn simulate_streamed_limited(
    stream: &StreamedTrace,
    cfg: &SimConfig,
    limits: SimLimits,
) -> Result<SimResult, SimError> {
    run(stream, cfg, limits, None)
}

/// What the drain loop does per event beyond stepping the engine. The
/// plain run instantiates the loop with the zero-sized [`NoDetail`],
/// whose empty hooks monomorphize away — no per-event branch, `Option`
/// test or indirect call — so attaching the timeline costs nothing when
/// it is not attached.
trait DrainDetail {
    /// After every event, with the engine's clock.
    fn event(&mut self, now: Time);
    /// At the 1024-event limit-check cadence.
    fn cadence(&mut self, eng: &Engine<SimState<'_>>);
}

struct NoDetail;

impl DrainDetail for NoDetail {
    #[inline(always)]
    fn event(&mut self, _now: Time) {}
    #[inline(always)]
    fn cadence(&mut self, _eng: &Engine<SimState<'_>>) {}
}

/// Simulated-time-per-event histogram plus periodic queue telemetry
/// into the installed trace log.
struct TimelineDetail {
    tl: &'static masim_obs::tracelog::TraceLog,
    dt_hist: masim_obs::Histogram,
    last_ps: u64,
}

impl DrainDetail for TimelineDetail {
    fn event(&mut self, now: Time) {
        let now_ps = now.as_ps();
        self.dt_hist.record(now_ps.saturating_sub(self.last_ps));
        self.last_ps = now_ps;
    }

    fn cadence(&mut self, eng: &Engine<SimState<'_>>) {
        self.tl.counter("des.queue.depth", eng.pending() as u64);
        self.tl.counter("des.queue.migrations", eng.queue_overflow_migrations());
    }
}

/// Step the engine dry, checking the limits every 1024 events (work
/// counters are monotone).
fn drain<'a, D: DrainDetail>(
    eng: &mut Engine<SimState<'a>>,
    st: &mut SimState<'a>,
    limits: &SimLimits,
    started: Option<Instant>,
    obs: Option<&MetricSet>,
    mut detail: D,
) -> Result<(), SimError> {
    let mut check = 0u32;
    while eng.step(st) {
        detail.event(eng.now());
        check += 1;
        if check == 1024 {
            check = 0;
            detail.cadence(eng);
            let consumed = eng.processed().saturating_add(st.net.work_units());
            check_limits(consumed, st.resident_bytes(), limits, started, obs)?;
        }
    }
    Ok(())
}

/// The body of [`run`], non-generic so it is compiled once whatever the
/// caller passed as a source.
fn sim_core(
    src: TraceSource<'_>,
    cfg: &SimConfig,
    limits: SimLimits,
    obs: Option<&MetricSet>,
) -> Result<SimResult, SimError> {
    let span = obs.map(|ms| ms.span("sim.runner.simulate"));
    let mut eng: Engine<SimState<'_>> = Engine::new();
    let mut st = match SimState::new(src, cfg, obs.is_some()) {
        Ok(st) => st,
        Err(e) => return Err(observe_fail(obs, span, e)),
    };
    for r in 0..src.num_ranks() {
        eng.schedule_at(Time::ZERO, SimEvent::Advance(Rank(r)));
    }
    // Wall clock is only consulted when a deadline is armed, so the
    // budget-only path stays free of syscalls.
    let started = limits.deadline.map(|_| Instant::now());
    // A state that is already over the memory budget (e.g. the trace
    // itself) fails fast, before any events run.
    if let Err(err) = check_limits(0, st.resident_bytes(), &limits, started, obs) {
        return Err(observe_fail(obs, span, err));
    }
    // The per-event detail is selected up front, only for an observed
    // run with a trace log installed.
    let drained = match (obs, masim_obs::tracelog::current()) {
        (Some(ms), Some(tl)) => {
            let _drain = tl.span("des.engine.drain");
            let detail = TimelineDetail { tl, dt_hist: ms.hist("sim.engine.dt_ps"), last_ps: 0 };
            drain(&mut eng, &mut st, &limits, started, obs, detail)
        }
        _ => drain(&mut eng, &mut st, &limits, started, obs, NoDetail),
    };
    if let Err(err) = drained {
        return Err(observe_fail(obs, span, err));
    }
    // A malformed-trace cause latched mid-run outranks the engine's clock
    // overflow (which stopped the run with the prediction incomplete),
    // and both outrank the generic deadlock the stalled rank would
    // otherwise be reported as.
    let overflow =
        eng.error().map(|overflow| SimError::ClockOverflow { model: cfg.model.name(), overflow });
    if let Some(err) = st.error.take().or(overflow) {
        return Err(observe_fail(obs, span, err));
    }
    let n = st.procs.len();
    if st.done != n {
        let waiting_ranks: Vec<u32> = (0..n)
            .filter(|&r| st.procs[r].status != PStatus::Done)
            .map(|r| r as u32)
            .take(crate::error::DEADLOCK_RANK_SAMPLE)
            .collect();
        let err = SimError::Deadlock {
            model: cfg.model.name(),
            finished: st.done as u32,
            total: n as u32,
            waiting_ranks,
        };
        return Err(observe_fail(obs, span, err));
    }
    let per_rank: Vec<Time> = st.procs.iter().map(|p| p.finish).collect();
    let total = per_rank.iter().copied().max().unwrap_or(Time::ZERO);
    let comm_time = st.procs.iter().map(|p| p.finish.saturating_sub(p.compute_total)).sum();
    let processed = eng.processed();
    let work_units = st.net.work_units();
    if let Some(ms) = obs {
        if let Some(s) = span {
            s.stop();
        }
        ms.add("sim.runner.messages", st.messages);
        ms.add("sim.budget.consumed", processed.saturating_add(work_units));
        // Resident interned-route footprint (flat storage + index).
        ms.gauge_max("sim.route.arena_bytes", st.routes.bytes());
        // With the schedule cache this times unique lowerings only.
        if st.lower_ns > 0 {
            ms.record_span("sim.runner.lower", st.lower_ns);
        }
        // Message-size distribution, filled once from the slab after the
        // run — O(messages) plain integer updates here, nothing on the
        // injection path — and folded into the shared atomic cells once
        // per bucket.
        if !st.msgs.is_empty() {
            let mut sizes = masim_obs::HistData::default();
            for i in 0..st.msgs.len() {
                sizes.record(st.msgs.get(i as u32).bytes);
            }
            let mh = ms.hist("sim.msg.bytes");
            for (b, n) in sizes.buckets.iter().enumerate() {
                if *n > 0 {
                    mh.add_bucket(b, *n);
                }
            }
            mh.fold_exact(sizes.sum, sizes.min, sizes.max);
        }
        // Peak pending-event occupancy: the quantity lazy packet
        // injection bounds to O(in-flight messages).
        ms.gauge_max("sim.queue.peak_occupancy", eng.max_pending() as u64);
        eng.export_metrics(ms);
        st.net.export_metrics(ms);
    }
    let link_bytes = st.net.into_link_bytes();
    Ok(SimResult {
        model: cfg.model,
        total,
        per_rank,
        comm_time,
        events: processed,
        messages: st.messages,
        work_units,
        max_link_bytes: link_bytes.iter().copied().max().unwrap_or(0),
        link_bytes,
    })
}

/// The 1024-event-cadence limit check of the drain loop:
/// deterministic work budget first, then the memory budget, then the
/// optional wall deadline.
fn check_limits(
    consumed: u64,
    resident: u64,
    limits: &SimLimits,
    started: Option<Instant>,
    obs: Option<&MetricSet>,
) -> Result<(), SimError> {
    if consumed > limits.max_work {
        if let Some(ms) = obs {
            ms.add("sim.budget.consumed", consumed);
        }
        return Err(SimError::BudgetExhausted { consumed, budget: limits.max_work });
    }
    if resident > limits.max_bytes {
        return Err(SimError::MemoryBudget { resident, budget: limits.max_bytes });
    }
    if let (Some(deadline), Some(started)) = (limits.deadline, started) {
        let elapsed = started.elapsed();
        if elapsed > deadline {
            return Err(SimError::DeadlineExceeded { elapsed, deadline });
        }
    }
    Ok(())
}

/// Close out telemetry on a failing run: stop the wall span and bump the
/// per-cause failure counter. Returns the error unchanged.
fn observe_fail(
    obs: Option<&MetricSet>,
    span: Option<masim_obs::SpanGuard>,
    err: SimError,
) -> SimError {
    if let Some(ms) = obs {
        if let Some(s) = span {
            s.stop();
        }
        let counter = match &err {
            SimError::BudgetExhausted { .. } => "sim.budget.exhausted",
            SimError::DeadlineExceeded { .. } => "sim.deadline.exceeded",
            SimError::ClockOverflow { .. } => "sim.clock.overflow",
            SimError::Deadlock { .. } => "sim.deadlock.detected",
            SimError::InvalidConfig { .. } => "sim.config.invalid",
            SimError::UnknownRequest { .. } => "sim.trace.unknown-request",
            SimError::RouteArenaExhausted { .. } => "sim.route.exhausted",
            SimError::OversizedMessage { .. } => "sim.msg.oversized",
            SimError::MemoryBudget { .. } => "sim.memory.exceeded",
        };
        ms.add(counter, 1);
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine slab stores one `SimEvent` inline per pending event:
    /// it must stay `Copy` (no `Drop` glue on the cancel/recycle paths)
    /// and within the arena's inline-payload budget. CI runs this test
    /// by name as the payload-size gate.
    #[test]
    fn sim_event_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<SimEvent>();
        let size = std::mem::size_of::<SimEvent>();
        assert!(
            size <= masim_des::MAX_INLINE_PAYLOAD_BYTES,
            "SimEvent grew to {size} bytes; keep event payloads within the arena budget"
        );
        assert!(!std::mem::needs_drop::<SimEvent>());
    }
}
