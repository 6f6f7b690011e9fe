//! The MPI replay driver: rank processes running the [`Walker`]'s actions
//! (and the rounds of lowered collectives) on the discrete-event engine.

use crate::error::SimError;
use crate::lower::{coll_tag, round, rounds, Round, MAX_COLL_ORDINALS, MAX_COLL_ROUNDS};
use crate::msg::{Message, MsgSlab};
use crate::net::{
    flow_complete, inject, on_flow_resolve, packet_hop, LinkTable, ModelKind, NetState, Packet,
    RouteArena,
};
use masim_des::{Engine, Handler};
use masim_obs::MetricSet;
use masim_topo::{Machine, Mapping};
use masim_trace::{
    Action, CollKind, Mailbox, Rank, StreamedTrace, Time, Trace, TraceSource, Walker, TOOL_RECV,
    TOOL_SEND,
};

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Target machine (topology + network scalars).
    pub machine: Machine,
    /// Rank→node placement.
    pub mapping: Mapping,
    /// Which network model to run.
    pub model: ModelKind,
}

impl SimConfig {
    /// Default configuration: block mapping (as the original runs used)
    /// at the trace's recorded ranks-per-node.
    pub fn new(machine: Machine, model: ModelKind, trace: &Trace) -> SimConfig {
        SimConfig::for_ranks(machine, model, trace.num_ranks(), trace.meta.ranks_per_node)
    }

    /// Like [`SimConfig::new`] for a trace that stays on disk: the block
    /// mapping comes from the stream's recorded metadata, so the full
    /// event vectors never need materializing just to build a config.
    /// Kept, with this signature, because `benchmark/src/adapter.rs`
    /// binds it.
    pub fn for_streamed(machine: Machine, model: ModelKind, stream: &StreamedTrace) -> SimConfig {
        SimConfig::for_ranks(machine, model, stream.num_ranks(), stream.meta().ranks_per_node)
    }

    fn for_ranks(machine: Machine, model: ModelKind, ranks: u32, per_node: u32) -> SimConfig {
        SimConfig { machine, mapping: Mapping::block(ranks, per_node), model }
    }
}

/// Resource limits for one simulation run: a deterministic work budget
/// and a memory budget, both checked at the same cadence in the run
/// loop. Both count simulated state, not host time, so a run's outcome
/// does not depend on the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimLimits {
    /// Work budget (DES events + model work units). `u64::MAX` for
    /// unlimited.
    pub max_work: u64,
    /// Memory budget: estimated resident bytes of the simulation state
    /// (the trace's events — for a streamed trace its index and decode
    /// windows, see `StreamedTrace::resident_bytes` — route arena, link
    /// tables, the messages in flight, model state), checked before the run and then at the same cadence as
    /// the work budget. It charges what is in flight, not what the run
    /// has sent: a message's slab slot counts from its injection until
    /// both its release and its delivery have been handled. Collective
    /// state is O(ranks) and left out of the estimate: a rank in a
    /// collective holds only its round index, each round is computed in
    /// place, and no lowered schedule is resident. Exceeding the budget
    /// is a typed [`SimError::MemoryBudget`] instead of an allocator
    /// abort. `u64::MAX` for unlimited.
    pub max_bytes: u64,
}

impl SimLimits {
    /// A pure work budget, no memory cap.
    pub fn budget(max_work: u64) -> SimLimits {
        SimLimits { max_work, max_bytes: u64::MAX }
    }

    /// No limits at all.
    pub fn unlimited() -> SimLimits {
        SimLimits::budget(u64::MAX)
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
    /// rank).
    pub link_bytes: Vec<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PStatus {
    Idle,
    Computing,
    /// In a wait on requests that have not completed: a `Wait`/`WaitAll`,
    /// a blocking `Send`/`Recv` (its nonblocking twin plus a wait) or a
    /// collective round (its receive and send plus a wait).
    Waiting,
    /// Its last event could not run (it breaks a peer, root or request
    /// rule, or its collective outgrows the tag space); [`run`] reports
    /// the latched cause.
    Parked,
}

/// A rank's place in a collective: its arguments and the next round,
/// which [`round`] computes when the rank reaches it.
#[derive(Clone, Copy)]
struct CollExec {
    kind: CollKind,
    bytes: u64,
    root: Rank,
    round: u32,
    ordinal: u32,
}

struct Proc {
    status: PStatus,
    /// Requests the wait the rank is blocked in has retired (or a
    /// collective round issued) but that have not completed yet. Each
    /// request completes once, so a completion of a key that is no longer
    /// live is one of these.
    waiting: u32,
    coll: Option<CollExec>,
    coll_count: u32,
    compute_total: Time,
    finish: Time,
}

impl Proc {
    fn new() -> Proc {
        Proc {
            status: PStatus::Idle,
            waiting: 0,
            coll: None,
            coll_count: 0,
            compute_total: Time::ZERO,
            finish: Time::ZERO,
        }
    }
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
        /// Source rank, whose send request the release completes (the
        /// request's key is kept in the message's slab slot).
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

/// The shared simulation state (the DES engine's `S`).
pub struct SimState<'a> {
    pub(crate) machine: Machine,
    pub(crate) mapping: Mapping,
    pub(crate) net: NetState,
    pub(crate) links: LinkTable,
    /// Interned (src node, dst node) → fabric-hop routes; in-flight
    /// packets and flows hold `RouteRef`s into this arena and their
    /// ranks' NIC links.
    pub(crate) routes: RouteArena,
    /// The messages in flight; event payloads carry `u32` ids into it.
    pub(crate) msgs: MsgSlab,
    /// Size distribution of every message injected (`sim.msg.bytes`).
    msg_sizes: masim_obs::HistData,
    /// Every rank's events and live requests: key → completed?
    walker: Walker<'a, bool>,
    /// Event-data resident bytes, cached at build time (constant for
    /// the run; summing per-rank capacities at 100k ranks is not free).
    trace_bytes: u64,
    procs: Vec<Proc>,
    mailboxes: Vec<Mailbox>,
    messages: u64,
    /// First typed error latched mid-run (e.g. a wait on an unknown
    /// request); reported by [`run`] once the engine stops.
    error: Option<SimError>,
}

impl<'a> SimState<'a> {
    /// Validate `cfg` against the trace and build the empty state.
    pub(crate) fn new(trace: TraceSource<'a>, cfg: &SimConfig) -> Result<SimState<'a>, SimError> {
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
        Ok(SimState {
            machine: cfg.machine.clone(),
            mapping: cfg.mapping.clone(),
            net,
            links,
            routes: RouteArena::default(),
            msgs: MsgSlab::default(),
            msg_sizes: masim_obs::HistData::default(),
            trace_bytes: trace.resident_bytes(),
            walker: Walker::new(trace),
            procs: (0..ranks).map(|_| Proc::new()).collect(),
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            messages: 0,
            error: None,
        })
    }

    /// Inject the message of rank `src`'s send request `key`; the
    /// message's `Release` completes the request.
    fn send(
        &mut self,
        eng: &mut Engine<SimState<'a>>,
        src: Rank,
        dst: Rank,
        bytes: u64,
        tag: u32,
        key: u64,
    ) {
        self.messages += 1;
        // Zero-byte MPI messages still cross the wire as a header.
        let bytes = bytes.max(1);
        self.msg_sizes.record(bytes);
        let id = self.msgs.insert(Message { src, dst, bytes, tag }, key);
        inject(eng, self, id);
    }

    /// Latch the first typed mid-run error; [`run`] reports it with
    /// priority over the deadlock the stalled rank would otherwise
    /// surface as. Later errors are dropped — the first cause wins.
    pub(crate) fn latch_error(&mut self, e: SimError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Rank `r`'s last event cannot run: park the rank for good and latch
    /// why.
    fn park(&mut self, r: Rank, e: SimError) {
        self.procs[r.idx()].status = PStatus::Parked;
        self.latch_error(e);
    }

    /// Estimated resident bytes of the simulation state: event data,
    /// interned routes, link tables, the messages in flight, and
    /// network-model vectors. An estimate of the dominant allocations,
    /// not an allocator census — it is what [`SimLimits::max_bytes`]
    /// meters.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.trace_bytes
            + self.routes.bytes()
            + self.links.resident_bytes()
            + self.msgs.resident_bytes()
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
        let step =
            st.walker.next(r).map_err(SimError::from).and_then(|a| run_action(eng, st, r, a));
        match step {
            Ok(true) => {}
            Ok(false) => return,
            Err(e) => return st.park(r, e),
        }
    }
}

/// Run rank `r`'s next action: true if the rank runs on, false if it
/// blocked or ended, an error if the action breaks a rule.
fn run_action<'a>(
    eng: &mut Engine<SimState<'a>>,
    st: &mut SimState<'a>,
    r: Rank,
    action: Action,
) -> Result<bool, SimError> {
    match action {
        Action::Compute(d) => {
            let p = &mut st.procs[r.idx()];
            // Saturate: a pathological duration must surface as the
            // engine's typed clock overflow, not an accounting abort.
            p.compute_total = p.compute_total.saturating_add(d);
            p.status = PStatus::Computing;
            eng.schedule_in(d, SimEvent::ComputeDone(r));
            return Ok(false);
        }
        Action::Isend { peer, bytes, tag, key } => {
            st.walker.issue(r, key, false)?;
            st.send(eng, r, peer, bytes, tag, key);
        }
        // Done at once if its message already arrived, else when it is
        // delivered.
        Action::Irecv { peer, tag, key, .. } => {
            let done = st.walker.issue(r, key, false)?;
            *done = st.mailboxes[r.idx()].post(peer, tag, key).is_some();
        }
        // The wait retires its requests and blocks until the rest of
        // them have completed.
        Action::Wait => {
            let p = &mut st.procs[r.idx()];
            st.walker.wait(r, |_| true, |done| p.waiting += u32::from(!done))?;
            return Ok(runs_on(p));
        }
        Action::Coll { kind, bytes, root } => {
            let world = st.procs.len() as u32;
            let p = &mut st.procs[r.idx()];
            let ordinal = p.coll_count;
            p.coll_count += 1;
            let n = rounds(kind, world, bytes);
            if n > MAX_COLL_ROUNDS || (n > 0 && ordinal >= MAX_COLL_ORDINALS) {
                // Its rounds' tags would not fit `coll_tag`'s space.
                return Err(SimError::CollectiveTagOverflow { rank: r.0, ordinal, rounds: n });
            }
            p.coll = Some(CollExec { kind, bytes, root, round: 0, ordinal });
            // `advance` goes on into enter_coll_rounds.
        }
        Action::Done => {
            st.procs[r.idx()].finish = eng.now();
            return Ok(false);
        }
    }
    Ok(true)
}

/// True if nothing the rank waits for is left; else the rank blocks.
fn runs_on(p: &mut Proc) -> bool {
    if p.waiting == 0 {
        return true;
    }
    p.status = PStatus::Waiting;
    false
}

/// Execute collective rounds until blocked (true) or done (false). A
/// round is a receive and a send under the tool tokens, then a wait on
/// both. Neither is a trace request, so no request table holds them: the
/// wait counts the ones not yet complete.
fn enter_coll_rounds<'a>(eng: &mut Engine<SimState<'a>>, st: &mut SimState<'a>, r: Rank) -> bool {
    let world = st.procs.len() as u32;
    loop {
        // Invariant: `advance` only calls this for a rank in a collective.
        let c = st.procs[r.idx()].coll.expect("in collective");
        if c.round >= rounds(c.kind, world, c.bytes) {
            st.procs[r.idx()].coll = None;
            return false;
        }
        let Round { recv, send } = round(c.kind, r, world, c.bytes, c.root, c.round);
        let tag = coll_tag(c.ordinal, c.round);
        let mut pending = 0;
        // Post the receive first (it may already be unexpected-matched).
        if let Some((peer, _bytes)) = recv {
            pending += u32::from(st.mailboxes[r.idx()].post(peer, tag, TOOL_RECV).is_none());
        }
        if let Some((peer, bytes)) = send {
            st.send(eng, r, peer, bytes, tag, TOOL_SEND);
            pending += 1;
        }
        let p = &mut st.procs[r.idx()];
        p.coll.as_mut().expect("in collective").round = c.round + 1;
        p.waiting += pending;
        if !runs_on(p) {
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
    msg_id: u32,
) {
    st.msgs.deliver(msg_id);
    // The mailbox is `dst`'s, so a token it hands back names a receive
    // request that `dst` issued.
    if let Some(key) = st.mailboxes[dst.idx()].deliver(src, tag, eng.now().as_ps()) {
        req_done(eng, st, dst, key);
    }
}

/// A sender may reuse its buffer (message fully injected / drained): its
/// send request completes.
fn on_release<'a>(eng: &mut Engine<SimState<'a>>, st: &mut SimState<'a>, src: Rank, msg_id: u32) {
    let key = st.msgs.release(msg_id);
    req_done(eng, st, src, key);
}

/// Request `key` of rank `r` completed. If the wait the rank is blocked
/// in retired it and nothing else is left, resume the rank.
fn req_done<'a>(eng: &mut Engine<SimState<'a>>, st: &mut SimState<'a>, r: Rank, key: u64) {
    if let Some(done) = st.walker.state_mut(r, key) {
        *done = true;
        return;
    }
    let p = &mut st.procs[r.idx()];
    p.waiting -= 1;
    if p.waiting == 0 && p.status == PStatus::Waiting {
        p.status = PStatus::Idle;
        advance(eng, st, r);
    }
}

/// Run one simulation: the single entry point. The two `simulate_*`
/// functions below are one-line wrappers over it, kept for a binding.
///
/// What varies is all in the arguments: `src` is an in-memory
/// [`Trace`] or an on-disk [`StreamedTrace`] (read from its file through
/// a small window per rank, so neither the per-rank `Vec<Event>`s nor
/// the encoded bytes are held; predictions are bit-identical either
/// way), `limits`
/// is the work and memory budget checked every 1024 events, and `obs`,
/// when given, receives the `sim.*` and `des.*` telemetry once after
/// the run — the hot loop itself carries no instrumentation, so
/// results do not depend on it.
///
/// An exhausted budget is the analogue of the paper's tool failures
/// (SST/Macro's packet and flow models completed 216 and 162 of the 235
/// traces); it, a deadlock, a clock overflow and every malformed-input
/// cause (a streamed trace's file changed after it was opened too) come
/// back as a typed [`SimError`], never a panic.
pub fn run<'a>(
    src: impl Into<TraceSource<'a>>,
    cfg: &SimConfig,
    limits: SimLimits,
    obs: Option<&MetricSet>,
) -> Result<SimResult, SimError> {
    sim_core(src.into(), cfg, limits, obs)
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
            check_limits(consumed, st.resident_bytes(), limits, obs)?;
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
    let mut st = match SimState::new(src, cfg) {
        Ok(st) => st,
        Err(e) => return Err(observe_fail(obs, span, e)),
    };
    for r in 0..src.num_ranks() {
        eng.schedule_at(Time::ZERO, SimEvent::Advance(Rank(r)));
    }
    // A state that is already over the memory budget (e.g. the trace
    // itself) fails fast, before any events run.
    if let Err(err) = check_limits(0, st.resident_bytes(), &limits, obs) {
        return Err(observe_fail(obs, span, err));
    }
    // The per-event detail is selected up front, only for an observed
    // run with a trace log installed.
    let drained = match (obs, masim_obs::tracelog::current()) {
        (Some(ms), Some(tl)) => {
            let _drain = tl.span("des.engine.drain");
            let detail = TimelineDetail { tl, dt_hist: ms.hist("sim.engine.dt_ps"), last_ps: 0 };
            drain(&mut eng, &mut st, &limits, obs, detail)
        }
        _ => drain(&mut eng, &mut st, &limits, obs, NoDetail),
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
    if let Some(stall) = st.walker.stall() {
        let err = SimError::Deadlock { model: cfg.model.name(), stall };
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
        // Message-size distribution, recorded into plain integers at
        // injection and folded into the shared atomic cells once per
        // bucket.
        if st.messages > 0 {
            let sizes = &st.msg_sizes;
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

/// The 1024-event-cadence limit check of the drain loop: work budget
/// first, then the memory budget.
fn check_limits(
    consumed: u64,
    resident: u64,
    limits: &SimLimits,
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
            SimError::ClockOverflow { .. } => "sim.clock.overflow",
            SimError::Deadlock { .. } => "sim.deadlock.detected",
            SimError::InvalidConfig { .. } => "sim.config.invalid",
            SimError::Malformed(_) => "sim.trace.malformed",
            SimError::RouteArenaExhausted { .. } => "sim.route.exhausted",
            SimError::OversizedMessage { .. } => "sim.msg.oversized",
            SimError::CollectiveTagOverflow { .. } => "sim.coll.tag-overflow",
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

    /// Simulator memory follows what is in flight, not how far the run
    /// has gone: four times the iterations must not raise a run's peak
    /// heap by more than a fixed slack, on every app and model. The
    /// slack allows a scratch buffer to double once more when a later
    /// iteration holds a few more flows or pending events; it is far
    /// below what one record per message sent would add.
    #[test]
    fn sim_heap_does_not_grow_with_iterations() {
        use masim_workloads::{generate, App, GenConfig};
        const SLACK: i64 = 128 << 10;
        for app in App::ALL {
            for model in crate::ModelKind::study_models() {
                let peak = |iters: u32| {
                    let trace = generate(&GenConfig { iters, ..GenConfig::test_default(app, 16) });
                    let cfg = SimConfig::new(masim_topo::Machine::cielito(), model, &trace);
                    let base = crate::alloc_counter::reset_peak();
                    crate::run(&trace, &cfg, crate::SimLimits::unlimited(), None)
                        .expect("simulation completes");
                    crate::alloc_counter::peak() - base
                };
                let (short, long) = (peak(2), peak(8));
                assert!(
                    long <= short + SLACK,
                    "{} {}: peak heap {short} B at 2 iterations, {long} B at 8",
                    app.name(),
                    model.name()
                );
            }
        }
    }
}
