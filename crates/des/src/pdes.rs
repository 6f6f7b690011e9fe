//! Conservative window-synchronized parallel DES (YAWNS-style).
//!
//! SST/Macro runs on a conservative PDES engine; this module provides the
//! equivalent capability for models partitioned into logical processes
//! (LPs). The protocol exploits *lookahead*: if every cross-LP message
//! carries at least `lookahead` of delay (in a network model, the minimum
//! link latency), then all events in the window `[now, now + lookahead)`
//! are causally independent across LPs and can execute concurrently.
//! A barrier exchanges the messages generated in the window, the global
//! clock advances, and the next window begins.
//!
//! Determinism: each LP drains a private [`LadderQueue`], whose
//! insertion-order tiebreak depends only on the order events were pushed
//! into *that* queue — seeding, an LP's own follow-ups, and the barrier
//! delivery (emitted messages sorted by (arrival time, source LP) before
//! the push) are all thread-count-independent, so the execution is
//! bit-identical regardless of worker count. The single-worker path runs
//! the exact same per-window drain/exchange protocol inline; it defines
//! the canonical order the parallel path must reproduce.
//!
//! Performance: windows are short (one link latency), so a run crosses
//! many of them — the executor keeps a persistent worker pool alive for
//! the whole run and synchronizes on a sense-reversing spin barrier
//! (three phases per window: local minima published → horizon published
//! → outboxes ready). Parking-lot barriers cost microseconds per wait;
//! at hundreds of thousands of windows that would dominate the run.
//! Handlers emit follow-ups through a reusable [`Outbox`] rather than
//! returning a fresh `Vec`, so the steady state allocates nothing.

use crate::error::{ClockOverflow, PdesError};
use crate::queue::LadderQueue;
use masim_obs::{tracelog, Histogram, MetricSet};
use masim_trace::Time;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Staging buffer a [`LogicalProcess`] writes its follow-up events into.
///
/// The executor hands the same outbox to every `handle` call on a
/// worker, draining it after each event, so a model in steady state
/// performs zero allocations. Destinations equal to the executing LP's
/// own index are local events and may use any delay; cross-LP sends
/// must respect the executor's lookahead (checked at drain time).
pub struct Outbox<E> {
    now: Time,
    src: usize,
    buf: Vec<(Time, usize, E)>,
    overflow: Option<ClockOverflow>,
}

impl<E> Outbox<E> {
    fn new() -> Outbox<E> {
        Outbox { now: Time::ZERO, src: 0, buf: Vec::new(), overflow: None }
    }

    /// The LP index the executor is currently running.
    #[inline]
    pub fn src(&self) -> usize {
        self.src
    }

    /// Schedule `event` on LP `dst` after `delay`. A clock overflow in
    /// `now + delay` latches an error that aborts the run after this
    /// handler returns (the event is dropped).
    #[inline]
    pub fn send(&mut self, delay: Time, dst: usize, event: E) {
        match self.now.checked_add(delay) {
            Some(at) => self.buf.push((at, dst, event)),
            None => {
                self.overflow.get_or_insert(ClockOverflow { now: self.now, delay });
            }
        }
    }

    /// Schedule `event` on LP `dst` at absolute time `at` (≥ now).
    #[inline]
    pub fn send_at(&mut self, at: Time, dst: usize, event: E) {
        debug_assert!(at >= self.now, "cannot schedule at {at:?} before now {:?}", self.now);
        self.buf.push((at, dst, event));
    }
}

/// A logical process: an independent sub-model owning private state.
pub trait LogicalProcess: Send {
    /// The event/message type exchanged between LPs. `Copy` keeps the
    /// barrier exchange a flat memcpy of plain records.
    type Event: Copy + Send;

    /// Execute `event` at `now`, emitting follow-ups into `out`.
    fn handle(&mut self, now: Time, event: Self::Event, out: &mut Outbox<Self::Event>);

    /// Model-side work units for budget accounting, added to events
    /// processed when checking [`PdesLimits::max_work`]. Mirrors how the
    /// sequential simulator charges network work on top of engine events.
    fn work_units(&self) -> u64 {
        0
    }
}

/// Budget/deadline limits for a windowed run, checked at window
/// granularity (budget every window, wall-clock every 64 windows — the
/// deadline read costs a syscall-ish `Instant::now`, the budget check is
/// a handful of relaxed loads).
#[derive(Clone, Copy, Debug)]
pub struct PdesLimits {
    /// Maximum events + work units before [`PdesError::Budget`].
    pub max_work: u64,
    /// Wall-clock allowance before [`PdesError::Deadline`].
    pub deadline: Option<Duration>,
}

impl PdesLimits {
    /// No limits.
    pub const NONE: PdesLimits = PdesLimits { max_work: u64::MAX, deadline: None };
}

/// Worker lane offset for trace-log tracks, clear of the study runner's
/// own worker numbering so PDES workers render as separate threads.
const TRACE_LANE_BASE: u16 = 32;

/// Emit executor counter tracks every this many windows when tracing.
const TRACE_EVERY_WINDOWS: u64 = 1024;

/// Sample barrier-wait time on every Nth window (`Instant::now` twice a
/// phase is too hot for every window).
const WAIT_SAMPLE_MASK: u64 = 63;

/// Cross-LP messages staged for the barrier: (deliver-at, source LP,
/// destination LP, event). Kept sorted by (at, src) at delivery so the
/// per-destination push order is independent of worker count.
type CrossMsg<E> = (Time, usize, usize, E);

/// The window-synchronized executor.
pub struct WindowedPdes<P: LogicalProcess> {
    lps: Vec<P>,
    queues: Vec<LadderQueue<P::Event>>,
    lookahead: Time,
    now: Time,
    processed: u64,
    threads: usize,
    windows: u64,
    window_events_max: u64,
    crossings: u64,
    barrier_wait_ns: Vec<u64>,
    observe: bool,
    hist: Option<Histogram>,
}

impl<P: LogicalProcess> WindowedPdes<P> {
    /// Create an executor over `lps` with the given `lookahead` (must be
    /// positive — zero lookahead admits no parallelism) using up to
    /// `threads` worker threads.
    pub fn new(lps: Vec<P>, lookahead: Time, threads: usize) -> WindowedPdes<P> {
        assert!(lookahead > Time::ZERO, "lookahead must be positive");
        assert!(!lps.is_empty(), "need at least one LP");
        let n = lps.len();
        WindowedPdes {
            lps,
            queues: (0..n).map(|_| LadderQueue::new()).collect(),
            lookahead,
            now: Time::ZERO,
            processed: 0,
            threads: threads.clamp(1, n),
            windows: 0,
            window_events_max: 0,
            crossings: 0,
            barrier_wait_ns: Vec::new(),
            observe: false,
            hist: None,
        }
    }

    /// Inject an initial event for LP `lp` at absolute time `at`.
    pub fn seed(&mut self, at: Time, lp: usize, event: P::Event) {
        assert!(at >= self.now);
        self.queues[lp].push(at, event);
    }

    /// Current global clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events executed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Windows executed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cross-LP messages exchanged so far.
    pub fn crossings(&self) -> u64 {
        self.crossings
    }

    /// Enable per-window observation: the window-events histogram
    /// records into `ms` live, and barrier waits are sampled.
    pub fn observe_into(&mut self, ms: &MetricSet) {
        self.observe = true;
        self.hist = Some(ms.hist("des.pdes.window_events"));
    }

    /// Copy per-run PDES statistics into `ms` under `des.pdes.*`.
    pub fn export_metrics(&self, ms: &MetricSet) {
        ms.add("des.pdes.windows", self.windows);
        ms.add("des.pdes.processed", self.processed);
        ms.add("des.pdes.crossings", self.crossings);
        ms.gauge_max("des.pdes.window_events_max", self.window_events_max);
        for &ns in &self.barrier_wait_ns {
            if ns > 0 {
                ms.record_span("des.pdes.barrier_wait", ns);
            }
        }
    }

    /// Borrow the LPs back after a run.
    pub fn into_lps(self) -> Vec<P> {
        self.lps
    }

    /// Run to completion (all queues empty) with no limits.
    pub fn run(&mut self) -> Result<(), PdesError> {
        self.run_limited(PdesLimits::NONE)
    }

    /// Run to completion or until a limit trips. Clock overflows, budget
    /// exhaustion, and deadline misses all land as typed errors instead
    /// of panicking the worker pool. The budget trip point is window-
    /// aligned, so budget errors are identical at any worker count;
    /// deadline errors are inherently wall-clock dependent.
    pub fn run_limited(&mut self, limits: PdesLimits) -> Result<(), PdesError> {
        if self.threads == 1 {
            self.run_sequential(limits)
        } else {
            self.run_parallel(limits)
        }
    }

    /// Budget/deadline check shared by both paths; `windows` counts
    /// completed windows and gates how often the wall clock is read.
    fn check_limits(
        limits: &PdesLimits,
        start: Instant,
        consumed: u64,
        windows: u64,
    ) -> Result<(), PdesError> {
        if consumed > limits.max_work {
            return Err(PdesError::Budget { consumed, budget: limits.max_work });
        }
        if let Some(deadline) = limits.deadline {
            if windows & WAIT_SAMPLE_MASK == 0 {
                let elapsed = start.elapsed();
                if elapsed > deadline {
                    return Err(PdesError::Deadline { elapsed, deadline });
                }
            }
        }
        Ok(())
    }

    /// The canonical inline executor: one worker drains every LP, window
    /// by window, with the same per-window exchange the parallel path
    /// performs at its barrier.
    fn run_sequential(&mut self, limits: PdesLimits) -> Result<(), PdesError> {
        let start = Instant::now();
        let tl = tracelog::current();
        let mut out = Outbox::new();
        let mut cross: Vec<CrossMsg<P::Event>> = Vec::new();
        loop {
            let next = self.queues.iter_mut().filter_map(|q| q.peek_key().map(|(t, _)| t)).min();
            let Some(next) = next else { break };
            let work: u64 = self.lps.iter().map(|l| l.work_units()).sum();
            Self::check_limits(&limits, start, self.processed + work, self.windows)?;
            self.now = next;
            let horizon = next
                .checked_add(self.lookahead)
                .ok_or(PdesError::Clock(ClockOverflow { now: next, delay: self.lookahead }))?;
            let mut window_events = 0u64;
            for (i, (lp, q)) in self.lps.iter_mut().zip(self.queues.iter_mut()).enumerate() {
                window_events += drain_lp(lp, q, i, horizon, self.lookahead, &mut out, &mut cross)
                    .map_err(PdesError::Clock)?;
            }
            self.processed += window_events;
            self.windows += 1;
            if window_events > self.window_events_max {
                self.window_events_max = window_events;
            }
            if let Some(h) = &self.hist {
                h.record(window_events);
            }
            cross.sort_by_key(|m| (m.0, m.1));
            self.crossings += cross.len() as u64;
            for &(at, _src, dst, ev) in &cross {
                self.queues[dst].push(at, ev);
            }
            cross.clear();
            if let Some(tl) = tl {
                if self.windows.is_multiple_of(TRACE_EVERY_WINDOWS) {
                    tl.counter("des.pdes.windows", self.windows);
                    tl.counter("des.pdes.crossings", self.crossings);
                }
            }
        }
        // Final totals, unconditionally: short runs never reach the
        // periodic cadence, and the traced-run test of masim-bench's
        // `cli.rs` requires these names in the export.
        if let Some(tl) = tl {
            tl.counter("des.pdes.windows", self.windows);
            tl.counter("des.pdes.crossings", self.crossings);
            tl.counter("des.pdes.window_events_max", self.window_events_max);
        }
        Ok(())
    }

    fn run_parallel(&mut self, limits: PdesLimits) -> Result<(), PdesError> {
        let n = self.lps.len();
        let chunk = n.div_ceil(self.threads);
        let workers = n.div_ceil(chunk);
        let lookahead = self.lookahead;
        let observe = self.observe;
        let hist = self.hist.clone();
        let shared: Shared<P::Event> = Shared::new(workers);

        std::thread::scope(|scope| {
            for (w, (lp_chunk, q_chunk)) in
                self.lps.chunks_mut(chunk).zip(self.queues.chunks_mut(chunk)).enumerate()
            {
                let shared = &shared;
                let limits = &limits;
                let hist = hist.as_ref();
                scope.spawn(move || {
                    worker_loop::<P>(WorkerCtx {
                        w,
                        base: w * chunk,
                        lps: lp_chunk,
                        queues: q_chunk,
                        lookahead,
                        observe,
                        hist,
                        shared,
                        limits,
                    });
                });
            }
        });

        if let Some(msg) = shared.panic_msg.into_inner().expect("pdes panic slot poisoned") {
            panic!("PDES worker panicked: {msg}");
        }
        self.processed +=
            shared.slots.iter().map(|s| s.processed.load(Ordering::Relaxed)).sum::<u64>();
        self.crossings +=
            shared.slots.iter().map(|s| s.crossings.load(Ordering::Relaxed)).sum::<u64>();
        self.windows += shared.windows.load(Ordering::Relaxed);
        let wmax = shared.window_events_max.load(Ordering::Relaxed);
        if wmax > self.window_events_max {
            self.window_events_max = wmax;
        }
        self.now = Time::from_ps(shared.now_ps.load(Ordering::Relaxed));
        self.barrier_wait_ns =
            shared.slots.iter().map(|s| s.barrier_wait.load(Ordering::Relaxed)).collect();
        match shared.error.into_inner().expect("pdes error slot poisoned") {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Drain one LP's queue up to `horizon`, re-entering local follow-ups
/// into the same window and staging cross-LP sends (lookahead-checked)
/// into `cross`. Returns events processed.
fn drain_lp<P: LogicalProcess>(
    lp: &mut P,
    q: &mut LadderQueue<P::Event>,
    lp_idx: usize,
    horizon: Time,
    lookahead: Time,
    out: &mut Outbox<P::Event>,
    cross: &mut Vec<CrossMsg<P::Event>>,
) -> Result<u64, ClockOverflow> {
    let mut events = 0u64;
    loop {
        match q.peek_key() {
            Some((t, _)) if t < horizon => {}
            _ => break,
        }
        let (t, _seq, ev) = q.pop().expect("peeked event vanished");
        events += 1;
        out.now = t;
        out.src = lp_idx;
        lp.handle(t, ev, out);
        if let Some(overflow) = out.overflow.take() {
            return Err(overflow);
        }
        for (at, dst, ev2) in out.buf.drain(..) {
            if dst == lp_idx {
                // Local events may re-enter this window.
                q.push(at, ev2);
            } else {
                let delay = at.saturating_sub(t);
                assert!(
                    delay >= lookahead,
                    "cross-LP message with delay {delay:?} < lookahead {lookahead:?}"
                );
                cross.push((at, lp_idx, dst, ev2));
            }
        }
    }
    Ok(events)
}

// ---------------------------------------------------------------------
// Parallel path: persistent workers, spin barrier, shared outboxes.
// ---------------------------------------------------------------------

/// Sense-reversing centralized spin barrier. `wait` is ~100 ns on a few
/// cores; after a bounded spin it yields so oversubscribed hosts still
/// make progress.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier { count: AtomicUsize::new(0), generation: AtomicUsize::new(0), total }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            // Release publishes the count reset and, via the release
            // sequence on `count`, every arriving worker's prior writes.
            self.generation.store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 4096 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Per-worker shared slot. Aligned out to its own cache lines so the
/// per-window atomic updates of one worker don't false-share with its
/// neighbors'.
#[repr(align(128))]
struct WorkerSlot<E> {
    /// This worker's staged cross-LP messages for the current window.
    /// Written only by the owner between the horizon barrier and the
    /// outbox barrier; read by everyone after the outbox barrier.
    outbox: UnsafeCell<Vec<CrossMsg<E>>>,
    /// Earliest pending event time in this worker's queues (ps;
    /// `u64::MAX` = none).
    min_ps: AtomicU64,
    /// Cumulative events processed by this worker.
    processed: AtomicU64,
    /// Latest sum of this worker's LPs' `work_units()`.
    work: AtomicU64,
    /// Cumulative cross-LP messages this worker received.
    crossings: AtomicU64,
    /// Sampled nanoseconds spent waiting at barriers.
    barrier_wait: AtomicU64,
}

impl<E> WorkerSlot<E> {
    fn new() -> WorkerSlot<E> {
        WorkerSlot {
            outbox: UnsafeCell::new(Vec::new()),
            min_ps: AtomicU64::new(u64::MAX),
            processed: AtomicU64::new(0),
            work: AtomicU64::new(0),
            crossings: AtomicU64::new(0),
            barrier_wait: AtomicU64::new(0),
        }
    }
}

/// Leader decision broadcast through `Shared::control`.
const RUN: u64 = 0;
const DONE: u64 = 1;
const HALT: u64 = 2;

struct Shared<E> {
    slots: Vec<WorkerSlot<E>>,
    barrier: SpinBarrier,
    control: AtomicU64,
    horizon_ps: AtomicU64,
    now_ps: AtomicU64,
    windows: AtomicU64,
    window_events_max: AtomicU64,
    /// Raised by any worker that latched an error or panicked; checked
    /// by the leader each window without taking the mutexes below.
    fault: AtomicBool,
    error: Mutex<Option<PdesError>>,
    panic_msg: Mutex<Option<String>>,
}

// SAFETY: the `UnsafeCell` outboxes are mutated only by their owning
// worker between the horizon and outbox barriers and read by all
// workers between the outbox barrier and the next minima barrier; the
// barrier's acquire/release pair orders both transitions. Everything
// else is atomics and mutexes.
unsafe impl<E: Send> Sync for Shared<E> {}

impl<E> Shared<E> {
    fn new(workers: usize) -> Shared<E> {
        Shared {
            slots: (0..workers).map(|_| WorkerSlot::new()).collect(),
            barrier: SpinBarrier::new(workers),
            control: AtomicU64::new(RUN),
            horizon_ps: AtomicU64::new(0),
            now_ps: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            window_events_max: AtomicU64::new(0),
            fault: AtomicBool::new(false),
            error: Mutex::new(None),
            panic_msg: Mutex::new(None),
        }
    }

    fn latch_error(&self, e: PdesError) {
        self.error.lock().expect("pdes error slot poisoned").get_or_insert(e);
        self.fault.store(true, Ordering::Release);
    }

    fn latch_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        self.panic_msg.lock().expect("pdes panic slot poisoned").get_or_insert(msg);
        self.fault.store(true, Ordering::Release);
    }
}

struct WorkerCtx<'a, P: LogicalProcess> {
    w: usize,
    base: usize,
    lps: &'a mut [P],
    queues: &'a mut [LadderQueue<P::Event>],
    lookahead: Time,
    observe: bool,
    hist: Option<&'a Histogram>,
    shared: &'a Shared<P::Event>,
    limits: &'a PdesLimits,
}

/// Leader-only bookkeeping carried across windows.
struct LeaderState {
    windows: u64,
    total_prev: u64,
    window_events_max: u64,
    start: Instant,
}

fn worker_loop<P: LogicalProcess>(ctx: WorkerCtx<'_, P>) {
    let WorkerCtx { w, base, lps, queues, lookahead, observe, hist, shared, limits } = ctx;
    let leader = w == 0;
    let tl = tracelog::current();
    if let Some(tl) = tl {
        tl.set_worker(TRACE_LANE_BASE + w as u16);
    }
    let _worker_span = tl.map(|t| t.span("des.pdes.worker"));

    let mut out: Outbox<P::Event> = Outbox::new();
    let mut inbox: Vec<CrossMsg<P::Event>> = Vec::new();
    let mut poisoned = false;
    let mut iter = 0u64;
    let mut my_processed = 0u64;
    let mut my_crossings = 0u64;
    let mut wait_ns = 0u64;
    let mut lead =
        LeaderState { windows: 0, total_prev: 0, window_events_max: 0, start: Instant::now() };

    loop {
        let sample = observe && iter & WAIT_SAMPLE_MASK == 0;
        iter += 1;

        // Phase 1: publish this worker's earliest pending event.
        let min = if poisoned {
            u64::MAX
        } else {
            queues
                .iter_mut()
                .filter_map(|q| q.peek_key().map(|(t, _)| t.as_ps()))
                .min()
                .unwrap_or(u64::MAX)
        };
        shared.slots[w].min_ps.store(min, Ordering::Relaxed);
        barrier_wait(shared, sample, &mut wait_ns);

        // Phase 2: the leader reduces the minima, checks limits, and
        // publishes the window horizon (or a stop decision).
        if leader {
            leader_decide::<P>(shared, limits, lookahead, hist, &mut lead, tl);
        }
        barrier_wait(shared, sample, &mut wait_ns);
        if shared.control.load(Ordering::Acquire) != RUN {
            break;
        }
        let horizon = Time::from_ps(shared.horizon_ps.load(Ordering::Relaxed));

        // Phase 3: drain own LPs to the horizon, staging cross-LP
        // messages in the shared outbox. Panics and overflows poison
        // this worker; the leader halts everyone next window.
        if !poisoned {
            let slot = &shared.slots[w];
            // SAFETY: sole writer between the horizon and outbox
            // barriers (see `Shared`'s Sync rationale).
            let outbox = unsafe { &mut *slot.outbox.get() };
            outbox.clear();
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut events = 0u64;
                for (i, (lp, q)) in lps.iter_mut().zip(queues.iter_mut()).enumerate() {
                    events += drain_lp(lp, q, base + i, horizon, lookahead, &mut out, outbox)?;
                }
                Ok::<u64, ClockOverflow>(events)
            }));
            match result {
                Ok(Ok(events)) => {
                    my_processed += events;
                    slot.processed.store(my_processed, Ordering::Relaxed);
                    let work: u64 = lps.iter().map(|l| l.work_units()).sum();
                    slot.work.store(work, Ordering::Relaxed);
                }
                Ok(Err(overflow)) => {
                    shared.latch_error(PdesError::Clock(overflow));
                    poisoned = true;
                }
                Err(payload) => {
                    shared.latch_panic(payload);
                    poisoned = true;
                }
            }
        }
        barrier_wait(shared, sample, &mut wait_ns);

        // Delivery: read every worker's outbox in worker (= ascending
        // LP) order, keep messages for own LPs, and push them sorted by
        // (arrival, source LP) — the same order the inline path uses.
        if !poisoned {
            inbox.clear();
            let own = base..base + queues.len();
            for s in &shared.slots {
                // SAFETY: all writers passed the outbox barrier; the
                // owner won't clear until after the next horizon
                // barrier.
                let ob = unsafe { &*s.outbox.get() };
                for m in ob {
                    if own.contains(&m.2) {
                        inbox.push(*m);
                    }
                }
            }
            inbox.sort_by_key(|m| (m.0, m.1));
            for &(at, _src, dst, ev) in &inbox {
                queues[dst - base].push(at, ev);
            }
            my_crossings += inbox.len() as u64;
            shared.slots[w].crossings.store(my_crossings, Ordering::Relaxed);
        }
    }

    // Leader publishes the final totals once the pool stops — same
    // reason as the sequential path: short runs never hit the periodic
    // cadence, and the same `cli.rs` test requires the counter names.
    if leader {
        if let Some(tl) = tl {
            tl.counter("des.pdes.windows", lead.windows);
            let crossings: u64 =
                shared.slots.iter().map(|s| s.crossings.load(Ordering::Relaxed)).sum();
            tl.counter("des.pdes.crossings", crossings);
            tl.counter("des.pdes.window_events_max", lead.window_events_max);
        }
    }
    if wait_ns > 0 {
        shared.slots[w].barrier_wait.store(wait_ns, Ordering::Relaxed);
        if let Some(tl) = tl {
            let end = tl.now_ns();
            tl.record(
                masim_obs::TraceKind::Span,
                tl.intern("des.pdes.barrier_wait"),
                end.saturating_sub(wait_ns),
                wait_ns,
                0,
            );
        }
    }
}

#[inline]
fn barrier_wait<E>(shared: &Shared<E>, sample: bool, wait_ns: &mut u64) {
    if sample {
        let t0 = Instant::now();
        shared.barrier.wait();
        *wait_ns += t0.elapsed().as_nanos() as u64;
    } else {
        shared.barrier.wait();
    }
}

/// One leader turn between the minima and horizon barriers: fold the
/// previous window's stats, then decide stop/continue and publish the
/// next horizon.
fn leader_decide<P: LogicalProcess>(
    shared: &Shared<P::Event>,
    limits: &PdesLimits,
    lookahead: Time,
    hist: Option<&Histogram>,
    lead: &mut LeaderState,
    tl: Option<&tracelog::TraceLog>,
) {
    let total: u64 = shared.slots.iter().map(|s| s.processed.load(Ordering::Relaxed)).sum();
    if lead.windows > 0 {
        let delta = total - lead.total_prev;
        if delta > lead.window_events_max {
            lead.window_events_max = delta;
        }
        if let Some(h) = hist {
            h.record(delta);
        }
        if let Some(tl) = tl {
            if lead.windows.is_multiple_of(TRACE_EVERY_WINDOWS) {
                tl.counter("des.pdes.windows", lead.windows);
                let crossings: u64 =
                    shared.slots.iter().map(|s| s.crossings.load(Ordering::Relaxed)).sum();
                tl.counter("des.pdes.crossings", crossings);
            }
        }
    }
    lead.total_prev = total;

    let publish_stop = |control: u64, lead: &LeaderState| {
        shared.windows.store(lead.windows, Ordering::Relaxed);
        shared.window_events_max.store(lead.window_events_max, Ordering::Relaxed);
        shared.control.store(control, Ordering::Release);
    };

    if shared.fault.load(Ordering::Acquire) {
        publish_stop(HALT, lead);
        return;
    }
    let min = shared
        .slots
        .iter()
        .map(|s| s.min_ps.load(Ordering::Relaxed))
        .min()
        .expect("at least one worker");
    if min == u64::MAX {
        publish_stop(DONE, lead);
        return;
    }
    let work: u64 = shared.slots.iter().map(|s| s.work.load(Ordering::Relaxed)).sum();
    if let Err(e) = WindowedPdes::<P>::check_limits(limits, lead.start, total + work, lead.windows)
    {
        shared.latch_error(e);
        publish_stop(HALT, lead);
        return;
    }
    let now = Time::from_ps(min);
    let Some(horizon) = now.checked_add(lookahead) else {
        shared.latch_error(PdesError::Clock(ClockOverflow { now, delay: lookahead }));
        publish_stop(HALT, lead);
        return;
    };
    shared.now_ps.store(min, Ordering::Relaxed);
    shared.horizon_ps.store(horizon.as_ps(), Ordering::Relaxed);
    lead.windows += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of LPs passing a counter token; each hop adds the LP index.
    struct RingLp {
        index: usize,
        ring: usize,
        hops_left: u32,
        total: u64,
        log: Vec<(Time, u64)>,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Token(u64);

    impl LogicalProcess for RingLp {
        type Event = Token;
        fn handle(&mut self, now: Time, Token(v): Token, out: &mut Outbox<Token>) {
            self.log.push((now, v));
            self.total += v;
            if self.hops_left == 0 {
                return;
            }
            self.hops_left -= 1;
            out.send(Time::from_ns(100), (self.index + 1) % self.ring, Token(v + 1));
        }
    }

    fn run_ring(threads: usize) -> (u64, Vec<Vec<(Time, u64)>>) {
        let n = 8;
        let lps: Vec<RingLp> = (0..n)
            .map(|i| RingLp { index: i, ring: n, hops_left: 5, total: 0, log: Vec::new() })
            .collect();
        let mut pdes = WindowedPdes::new(lps, Time::from_ns(100), threads);
        pdes.seed(Time::ZERO, 0, Token(1));
        pdes.run().expect("ring run fits the clock");
        let processed = pdes.processed();
        let lps = pdes.into_lps();
        (processed, lps.into_iter().map(|l| l.log).collect())
    }

    #[test]
    fn ring_token_passes_deterministically() {
        let (p1, logs1) = run_ring(1);
        let (p2, logs2) = run_ring(2);
        let (p4, logs4) = run_ring(4);
        assert_eq!(p1, p2);
        assert_eq!(p1, p4);
        assert_eq!(logs1, logs2, "2-worker run must match sequential");
        assert_eq!(logs1, logs4, "4-worker run must match sequential");
        // Token visits LP0..LP? with increasing values until hops run out.
        assert_eq!(logs1[0][0], (Time::ZERO, 1));
        assert_eq!(logs1[1][0], (Time::from_ns(100), 2));
    }

    /// Every LP broadcasts once; total processed must equal seeds + messages.
    struct FanoutLp {
        n: usize,
        fired: bool,
    }

    impl LogicalProcess for FanoutLp {
        type Event = Token;
        fn handle(&mut self, _now: Time, _ev: Token, out: &mut Outbox<Token>) {
            if self.fired {
                return;
            }
            self.fired = true;
            for d in 0..self.n {
                if d == out.src() {
                    out.send_at(out.now.checked_add(Time::from_us(1)).unwrap(), d, Token(0));
                } else {
                    out.send(Time::from_us(1), d, Token(0));
                }
            }
        }
    }

    #[test]
    fn fanout_counts() {
        let n = 16;
        let lps: Vec<FanoutLp> = (0..n).map(|_| FanoutLp { n, fired: false }).collect();
        let mut pdes = WindowedPdes::new(lps, Time::from_us(1), 4);
        pdes.seed(Time::ZERO, 3, Token(0));
        pdes.run().expect("fanout run fits the clock");
        // LP3 fires on the seed and broadcasts n messages. Of the n
        // first-wave deliveries, LP3's self-copy is absorbed (already
        // fired) and the other n-1 LPs fire, broadcasting n each; all
        // second-wave deliveries are absorbed. Events processed:
        // 1 (seed) + n (first wave) + (n-1)*n (second wave).
        assert_eq!(pdes.processed(), 1 + n as u64 + ((n - 1) * n) as u64);
        assert_eq!(pdes.crossings(), (n as u64 - 1) + (n - 1) as u64 * (n as u64 - 1));
    }

    #[test]
    #[should_panic(expected = "PDES worker panicked")]
    fn cross_lp_below_lookahead_rejected() {
        // The lookahead violation is a model bug, not a data condition:
        // it still fires as an assert inside a worker thread, surfaced by
        // re-panicking on the coordinating thread.
        struct BadLp;
        impl LogicalProcess for BadLp {
            type Event = Token;
            fn handle(&mut self, _: Time, _: Token, out: &mut Outbox<Token>) {
                out.send(Time::from_ns(1), 1, Token(0)); // below lookahead
            }
        }
        let mut pdes = WindowedPdes::new(vec![BadLp, BadLp], Time::from_us(1), 2);
        pdes.seed(Time::ZERO, 0, Token(0));
        let _ = pdes.run();
    }

    #[test]
    fn self_messages_may_be_fast() {
        struct SelfLp {
            count: u32,
        }
        impl LogicalProcess for SelfLp {
            type Event = Token;
            fn handle(&mut self, _: Time, _: Token, out: &mut Outbox<Token>) {
                self.count += 1;
                if self.count < 10 {
                    out.send(Time::from_ps(1), 0, Token(0)); // sub-lookahead, self
                }
            }
        }
        let mut pdes = WindowedPdes::new(vec![SelfLp { count: 0 }], Time::from_us(1), 1);
        pdes.seed(Time::ZERO, 0, Token(0));
        pdes.run().expect("self-message run fits the clock");
        assert_eq!(pdes.processed(), 10);
        assert_eq!(pdes.into_lps()[0].count, 10);
    }

    #[test]
    fn clock_overflow_is_an_error_not_a_panic() {
        struct OverLp;
        impl LogicalProcess for OverLp {
            type Event = Token;
            fn handle(&mut self, _: Time, _: Token, out: &mut Outbox<Token>) {
                out.send(Time::MAX, 0, Token(0)); // now + MAX overflows
            }
        }
        let mut pdes = WindowedPdes::new(vec![OverLp], Time::from_us(1), 1);
        pdes.seed(Time::from_ns(1), 0, Token(0));
        let err = pdes.run().expect_err("overflow must surface as an error");
        assert_eq!(
            err,
            PdesError::Clock(ClockOverflow { now: Time::from_ns(1), delay: Time::MAX })
        );
    }

    #[test]
    fn overflow_in_parallel_worker_is_typed_too() {
        struct OverLp {
            trip: bool,
        }
        impl LogicalProcess for OverLp {
            type Event = Token;
            fn handle(&mut self, _: Time, _: Token, out: &mut Outbox<Token>) {
                if self.trip {
                    out.send(Time::MAX, 0, Token(0));
                } else {
                    out.send(Time::from_us(1), 1, Token(0));
                }
            }
        }
        let mut pdes = WindowedPdes::new(
            vec![OverLp { trip: false }, OverLp { trip: true }],
            Time::from_us(1),
            2,
        );
        pdes.seed(Time::ZERO, 0, Token(0));
        let err = pdes.run().expect_err("overflow must cross the barrier as an error");
        assert!(matches!(err, PdesError::Clock(_)), "{err:?}");
    }

    /// Self-perpetuating LP used by the limit tests: one event per
    /// window forever.
    struct TickLp {
        peer: usize,
        work: u64,
    }

    impl LogicalProcess for TickLp {
        type Event = Token;
        fn handle(&mut self, _: Time, _: Token, out: &mut Outbox<Token>) {
            self.work += 3;
            out.send(Time::from_ns(100), self.peer, Token(0));
        }
        fn work_units(&self) -> u64 {
            self.work
        }
    }

    fn tick_pair() -> Vec<TickLp> {
        vec![TickLp { peer: 1, work: 0 }, TickLp { peer: 0, work: 0 }]
    }

    #[test]
    fn budget_trips_identically_at_any_worker_count() {
        let limits = PdesLimits { max_work: 100, deadline: None };
        let mut errs = Vec::new();
        for threads in [1, 2] {
            let mut pdes = WindowedPdes::new(tick_pair(), Time::from_ns(100), threads);
            pdes.seed(Time::ZERO, 0, Token(0));
            let err = pdes.run_limited(limits).expect_err("budget must trip");
            assert!(matches!(err, PdesError::Budget { .. }), "{err:?}");
            errs.push((err, pdes.processed(), pdes.windows()));
        }
        assert_eq!(errs[0], errs[1], "budget trip must be worker-count independent");
    }

    #[test]
    fn deadline_trips_as_typed_error() {
        let limits = PdesLimits { max_work: u64::MAX, deadline: Some(Duration::from_nanos(1)) };
        for threads in [1, 2] {
            let mut pdes = WindowedPdes::new(tick_pair(), Time::from_ns(100), threads);
            pdes.seed(Time::ZERO, 0, Token(0));
            // The deadline is checked every 64 windows; a 1 ns allowance
            // must trip on the first check.
            let err = pdes.run_limited(limits).expect_err("deadline must trip");
            assert!(matches!(err, PdesError::Deadline { .. }), "{err:?}");
        }
    }

    #[test]
    fn worker_panic_reports_original_message() {
        let result = std::panic::catch_unwind(|| {
            struct PanicLp;
            impl LogicalProcess for PanicLp {
                type Event = Token;
                fn handle(&mut self, _: Time, _: Token, _: &mut Outbox<Token>) {
                    panic!("model invariant violated");
                }
            }
            let mut pdes = WindowedPdes::new(vec![PanicLp, PanicLp], Time::from_us(1), 2);
            pdes.seed(Time::ZERO, 1, Token(0));
            let _ = pdes.run();
        });
        let payload = result.expect_err("worker panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("PDES worker panicked"), "{msg}");
        assert!(msg.contains("model invariant violated"), "{msg}");
    }

    /// Satellite: the outbox out-parameter makes the executor's steady
    /// state allocation-free. Two LPs ping-pong for thousands of windows
    /// on the inline path (the drain/outbox machinery is shared with the
    /// parallel path); every allocation must land in the warmup prefix.
    #[test]
    fn steady_state_allocates_nothing() {
        const EVENTS: usize = 4_000;
        struct PingLp {
            peer: usize,
            left: u32,
            counts: Vec<u64>,
        }
        impl LogicalProcess for PingLp {
            type Event = Token;
            fn handle(&mut self, _: Time, _: Token, out: &mut Outbox<Token>) {
                self.counts.push(crate::alloc_counter::count());
                if self.left > 0 {
                    self.left -= 1;
                    out.send(Time::from_ns(100), self.peer, Token(0));
                }
            }
        }
        let lps = vec![
            PingLp { peer: 1, left: EVENTS as u32, counts: Vec::with_capacity(EVENTS + 2) },
            PingLp { peer: 0, left: EVENTS as u32, counts: Vec::with_capacity(EVENTS + 2) },
        ];
        let mut pdes = WindowedPdes::new(lps, Time::from_ns(100), 1);
        pdes.seed(Time::ZERO, 0, Token(0));
        pdes.run().expect("ping-pong fits the clock");
        let counts: Vec<u64> = pdes.into_lps().into_iter().flat_map(|l| l.counts).collect();
        assert!(counts.len() > EVENTS, "expected a long run, got {}", counts.len());
        let mid = counts[counts.len() / 2];
        let last = *counts.last().unwrap();
        assert_eq!(
            mid, last,
            "steady-state window processing must not allocate (mid {mid}, last {last})"
        );
    }
}
