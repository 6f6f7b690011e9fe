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
//! into *that* queue — seeding, an LP's own follow-ups, and the window's
//! delivery (every cross-LP message, sorted by (arrival time, source LP)
//! and pushed by one thread) are all worker-count-independent, so the
//! execution is bit-identical at any worker count. There is one window
//! loop for every worker count; a failing window reports its lowest
//! faulting LP, as draining the LPs in order would.
//!
//! Performance: a run crosses many short windows (one link latency
//! each). The calling thread drains the first chunk of LPs and a
//! persistent pool the others; two spin barriers per window (`go`,
//! `done`) are the only synchronization, since the minimum, the limits,
//! the delivery and the statistics happen once, on the calling thread,
//! while the pool is parked. Handlers emit follow-ups through a reusable
//! [`Outbox`], so the steady state allocates nothing.

use crate::error::{ClockOverflow, PdesError};
use crate::queue::LadderQueue;
use masim_obs::{tracelog, Histogram, MetricSet, TraceKind, TraceSpan};
use masim_trace::Time;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
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
/// a sum over the worker chunks).
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
/// destination LP, event). Sorted by (at, src) at delivery so the
/// per-destination push order is independent of worker count.
type CrossMsg<E> = (Time, usize, usize, E);

/// The window-synchronized executor.
pub struct WindowedPdes<P: LogicalProcess> {
    lps: Vec<P>,
    queues: Vec<LadderQueue<P::Event>>,
    w: Window<P::Event>,
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
            w: Window {
                lookahead,
                threads: threads.clamp(1, n),
                now: Time::ZERO,
                processed: 0,
                windows: 0,
                crossings: 0,
                window_events_max: 0,
                barrier_wait_ns: Vec::new(),
                hist: None,
                cross: Vec::new(),
            },
        }
    }

    /// Inject an initial event for LP `lp` at absolute time `at`.
    pub fn seed(&mut self, at: Time, lp: usize, event: P::Event) {
        assert!(at >= self.w.now);
        self.queues[lp].push(at, event);
    }

    /// Current global clock.
    pub fn now(&self) -> Time {
        self.w.now
    }

    /// Total events executed.
    pub fn processed(&self) -> u64 {
        self.w.processed
    }

    /// Windows executed so far.
    pub fn windows(&self) -> u64 {
        self.w.windows
    }

    /// Cross-LP messages exchanged so far.
    pub fn crossings(&self) -> u64 {
        self.w.crossings
    }

    /// Enable per-window observation: the window-events histogram
    /// records into `ms` live, and barrier waits are sampled.
    pub fn observe_into(&mut self, ms: &MetricSet) {
        self.w.hist = Some(ms.hist("des.pdes.window_events"));
    }

    /// Copy per-run PDES statistics into `ms` under `des.pdes.*`.
    pub fn export_metrics(&self, ms: &MetricSet) {
        ms.add("des.pdes.windows", self.w.windows);
        ms.add("des.pdes.processed", self.w.processed);
        ms.add("des.pdes.crossings", self.w.crossings);
        ms.gauge_max("des.pdes.window_events_max", self.w.window_events_max);
        for &ns in &self.w.barrier_wait_ns {
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
    /// of panicking the worker pool; a panicking LP is re-raised here as
    /// `PDES worker panicked: …`. The budget trip point is window-
    /// aligned, so budget errors are identical at any worker count;
    /// deadline errors are inherently wall-clock dependent.
    pub fn run_limited(&mut self, limits: PdesLimits) -> Result<(), PdesError> {
        let w = &mut self.w;
        let lp_count = self.lps.len();
        let size = lp_count.div_ceil(w.threads);
        let chunks: Vec<Mutex<Chunk<'_, P>>> = self
            .lps
            .chunks_mut(size)
            .zip(self.queues.chunks_mut(size))
            .enumerate()
            .map(|(c, (lps, queues))| {
                let (base, work) = (c * size, lps.iter().map(|l| l.work_units()).sum());
                let (out, cross, horizon, fault) = (Outbox::new(), Vec::new(), None, None);
                Mutex::new(Chunk { base, lps, queues, out, cross, horizon, events: 0, work, fault })
            })
            .collect();
        let pool = Pool {
            go: SpinBarrier::new(chunks.len()),
            done: SpinBarrier::new(chunks.len()),
            observe: w.hist.is_some(),
            lookahead: w.lookahead,
            lp_count,
        };
        let stopped = std::thread::scope(|s| {
            let workers: Vec<_> = (1..chunks.len())
                .map(|i| {
                    let (pool, chunk) = (&pool, &chunks[i]);
                    s.spawn(move || pool.work(i, chunk))
                })
                .collect();
            let stopped = w.lead(&pool, &chunks, &limits);
            let waits = workers.into_iter().map(|h| h.join().expect("PDES pool worker died"));
            w.barrier_wait_ns.extend(waits);
            stopped
        });
        // Final totals, unconditionally: short runs never reach the
        // periodic cadence, and the traced-run test of masim-bench's
        // `cli.rs` requires these names in the export.
        w.trace();
        match stopped {
            Ok(()) => Ok(()),
            Err(Stop::Error(e)) => Err(e),
            Err(Stop::Panic(msg)) => panic!("PDES worker panicked: {msg}"),
        }
    }
}

/// Why the window loop stopped before every queue ran dry.
enum Stop {
    Error(PdesError),
    /// An LP panicked; the payload's message.
    Panic(String),
}

/// One worker's share of the LPs and everything its drain writes. The
/// `Mutex` around it is never contended: a pool worker touches its
/// chunk only between the `go` and `done` barriers, the calling thread
/// every chunk only outside them.
struct Chunk<'a, P: LogicalProcess> {
    base: usize,
    lps: &'a mut [P],
    queues: &'a mut [LadderQueue<P::Event>],
    out: Outbox<P::Event>,
    /// Cross-LP messages this window's drain staged, in LP order.
    cross: Vec<CrossMsg<P::Event>>,
    /// The window's horizon; `None` sends a pool worker home.
    horizon: Option<Time>,
    /// Events this window's drain executed.
    events: u64,
    /// Sum of the LPs' `work_units()` after the latest drain.
    work: u64,
    /// The fault that stopped this window's drain at its LP.
    fault: Option<Stop>,
}

impl<P: LogicalProcess> Chunk<'_, P> {
    /// Drain every LP of the chunk to the horizon, in LP order,
    /// re-entering local follow-ups into the same window and staging
    /// cross-LP sends (lookahead-checked) for delivery. Model code runs
    /// only here, so this is where its panics are caught. Returns
    /// `false`, draining nothing, once the horizon says stop.
    fn drain(&mut self, lookahead: Time, lp_count: usize) -> bool {
        let Chunk { base, lps, queues, out, cross, horizon, events, work, fault } = self;
        let Some(horizon) = *horizon else { return false };
        *events = 0;
        let drained = panic::catch_unwind(AssertUnwindSafe(|| {
            for (i, (lp, q)) in lps.iter_mut().zip(queues.iter_mut()).enumerate() {
                let src = *base + i;
                while q.peek_key().is_some_and(|(t, _)| t < horizon) {
                    let (t, _seq, ev) = q.pop().expect("peeked event vanished");
                    *events += 1;
                    out.now = t;
                    out.src = src;
                    lp.handle(t, ev, out);
                    if let Some(overflow) = out.overflow.take() {
                        return Err(overflow);
                    }
                    for (at, dst, ev) in out.buf.drain(..) {
                        if dst == src {
                            q.push(at, ev); // local events may re-enter this window
                            continue;
                        }
                        assert!(dst < lp_count, "cross-LP message to LP {dst} of {lp_count}");
                        let delay = at.saturating_sub(t);
                        assert!(
                            delay >= lookahead,
                            "cross-LP message with delay {delay:?} < lookahead {lookahead:?}"
                        );
                        cross.push((at, src, dst, ev));
                    }
                }
            }
            *work = lps.iter().map(|l| l.work_units()).sum();
            Ok(())
        }));
        *fault = match drained {
            Ok(Ok(())) => None,
            Ok(Err(overflow)) => Some(Stop::Error(PdesError::Clock(overflow))),
            Err(payload) => {
                let msg = payload.downcast_ref::<&str>().map(|s| s.to_string());
                let msg = msg.or_else(|| payload.downcast_ref::<String>().cloned());
                Some(Stop::Panic(msg.unwrap_or_else(|| "non-string panic payload".into())))
            }
        };
        true
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("PDES chunk poisoned")
}

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

/// What every worker shares: the two barriers of a window and the
/// constants of the drain.
struct Pool {
    go: SpinBarrier,
    done: SpinBarrier,
    observe: bool,
    lookahead: Time,
    lp_count: usize,
}

impl Pool {
    /// Pool worker `i`: drain `chunk` between `go` and `done` until the
    /// horizon says stop. Returns its sampled barrier-wait nanoseconds.
    fn work<P: LogicalProcess>(&self, i: usize, chunk: &Mutex<Chunk<'_, P>>) -> u64 {
        let mut waits = Waits::new(i, self.observe);
        loop {
            waits.wait(&self.go);
            if !lock(chunk).drain(self.lookahead, self.lp_count) {
                break;
            }
            waits.wait(&self.done);
            waits.window += 1;
        }
        waits.finish()
    }
}

/// Everything of the executor but the LPs and their queues: the run's
/// constants, the counters the calling thread folds once per window,
/// and its delivery buffer.
struct Window<E> {
    lookahead: Time,
    threads: usize,
    now: Time,
    processed: u64,
    windows: u64,
    crossings: u64,
    window_events_max: u64,
    /// Sampled barrier-wait nanoseconds, one entry per worker.
    barrier_wait_ns: Vec<u64>,
    hist: Option<Histogram>,
    /// Every chunk's staged messages, gathered for the one sort.
    cross: Vec<CrossMsg<E>>,
}

impl<E: Copy> Window<E> {
    /// The window loop, on the calling thread: with every chunk locked
    /// (the pool parked at `go`), step to the next window; release the
    /// pool; drain chunk 0; wait for `done`.
    fn lead<P: LogicalProcess<Event = E>>(
        &mut self,
        pool: &Pool,
        chunks: &[Mutex<Chunk<'_, P>>],
        limits: &PdesLimits,
    ) -> Result<(), Stop> {
        let start = Instant::now();
        let pooled = chunks.len() > 1;
        let mut waits = Waits::new(0, pool.observe);
        let mut guards = Vec::with_capacity(chunks.len());
        let stopped = loop {
            guards.extend(chunks.iter().map(lock));
            let step = self.step(&mut guards, limits, start);
            let horizon = step.as_ref().ok().copied().flatten();
            for mut g in guards.drain(..) {
                g.horizon = horizon;
            }
            if pooled {
                waits.wait(&pool.go);
            }
            if !lock(&chunks[0]).drain(pool.lookahead, pool.lp_count) {
                break step.map(drop);
            }
            if pooled {
                waits.wait(&pool.done);
            }
            waits.window += 1;
        };
        self.barrier_wait_ns = vec![waits.finish()];
        stopped
    }

    /// Close the window the chunks just drained, if any: surface the
    /// lowest LP's fault, fold the counters, and deliver every cross-LP
    /// message in (arrival, source LP) order. Then open the next: take
    /// the minimum over the queues, check the limits, advance the clock
    /// and return the horizon — `None` once every queue is empty.
    fn step<P: LogicalProcess<Event = E>>(
        &mut self,
        chunks: &mut [MutexGuard<'_, Chunk<'_, P>>],
        limits: &PdesLimits,
        start: Instant,
    ) -> Result<Option<Time>, Stop> {
        if chunks[0].horizon.is_some() {
            if let Some(fault) = chunks.iter_mut().find_map(|c| c.fault.take()) {
                return Err(fault);
            }
            let mut events = 0u64;
            for c in chunks.iter_mut() {
                events += c.events;
                self.cross.append(&mut c.cross);
            }
            self.processed += events;
            self.windows += 1;
            self.window_events_max = self.window_events_max.max(events);
            if let Some(h) = &self.hist {
                h.record(events);
            }
            self.cross.sort_by_key(|m| (m.0, m.1));
            self.crossings += self.cross.len() as u64;
            // Chunk 0 is always full: LP `i` lives in chunk `i / size`.
            let size = chunks[0].queues.len();
            for (at, _src, dst, ev) in self.cross.drain(..) {
                chunks[dst / size].queues[dst % size].push(at, ev);
            }
            if self.windows.is_multiple_of(TRACE_EVERY_WINDOWS) {
                self.trace();
            }
        }
        let next = chunks
            .iter_mut()
            .flat_map(|c| c.queues.iter_mut())
            .filter_map(|q| q.peek_key().map(|(t, _)| t))
            .min();
        let Some(next) = next else { return Ok(None) };
        let consumed = self.processed + chunks.iter().map(|c| c.work).sum::<u64>();
        if consumed > limits.max_work {
            return Err(Stop::Error(PdesError::Budget { consumed, budget: limits.max_work }));
        }
        // The wall clock is read on every 64th window only.
        if let Some(deadline) = limits.deadline.filter(|_| self.windows & WAIT_SAMPLE_MASK == 0) {
            let elapsed = start.elapsed();
            if elapsed > deadline {
                return Err(Stop::Error(PdesError::Deadline { elapsed, deadline }));
            }
        }
        self.now = next;
        let overflow = PdesError::Clock(ClockOverflow { now: next, delay: self.lookahead });
        next.checked_add(self.lookahead).map(Some).ok_or(Stop::Error(overflow))
    }

    /// The counter tracks, when a trace log is installed.
    fn trace(&self) {
        if let Some(tl) = tracelog::current() {
            tl.counter("des.pdes.windows", self.windows);
            tl.counter("des.pdes.crossings", self.crossings);
            tl.counter("des.pdes.window_events_max", self.window_events_max);
        }
    }
}

/// One worker's `des.pdes.worker` span (a pool worker's on a trace lane
/// of its own) and barrier waits, timed on every 64th window.
struct Waits {
    observe: bool,
    window: u64,
    ns: u64,
    _span: Option<TraceSpan>,
}

impl Waits {
    fn new(worker: usize, observe: bool) -> Waits {
        let span = tracelog::current().map(|tl| {
            if worker > 0 {
                tl.set_worker(TRACE_LANE_BASE + worker as u16);
            }
            tl.span("des.pdes.worker")
        });
        Waits { observe, window: 0, ns: 0, _span: span }
    }

    #[inline]
    fn wait(&mut self, barrier: &SpinBarrier) {
        if self.observe && self.window & WAIT_SAMPLE_MASK == 0 {
            let t0 = Instant::now();
            barrier.wait();
            self.ns += t0.elapsed().as_nanos() as u64;
        } else {
            barrier.wait();
        }
    }

    /// Record the waits as a `des.pdes.barrier_wait` span ending now,
    /// inside the worker span, and return them.
    fn finish(self) -> u64 {
        if let (true, Some(tl)) = (self.ns > 0, tracelog::current()) {
            let name = tl.intern("des.pdes.barrier_wait");
            let end = tl.now_ns();
            tl.record(TraceKind::Span, name, end.saturating_sub(self.ns), self.ns, 0);
        }
        self.ns
    }
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

    #[derive(Clone, Copy)]
    enum Fail {
        Not,
        Overflow(Time),
        Panic(&'static str),
    }

    struct FailLp(Fail);

    impl LogicalProcess for FailLp {
        type Event = Token;
        fn handle(&mut self, _: Time, _: Token, out: &mut Outbox<Token>) {
            match self.0 {
                Fail::Not => {}
                Fail::Overflow(delay) => out.send(delay, 0, Token(0)),
                Fail::Panic(msg) => panic!("{msg}"),
            }
        }
    }

    /// Satellite: LPs 1 and 3 — in different chunks at 2 and 4 workers —
    /// fail in the same window. The run reports LP 1's failure, clock
    /// overflow or panic, at 1, 2 and 4 workers: the one draining the
    /// LPs in order meets first.
    #[test]
    fn lowest_failing_lp_is_reported_at_any_worker_count() {
        let over = |k: u64| Fail::Overflow(Time::from_ps(u64::MAX - k));
        let (p1, p3) = (Fail::Panic("lp 1"), Fail::Panic("lp 3"));
        for (low, high) in [(over(0), over(1)), (p1, p3), (over(0), p3), (p1, over(1))] {
            for threads in [1, 2, 4] {
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let lps = [Fail::Not, low, Fail::Not, high].map(FailLp).into();
                    let mut pdes = WindowedPdes::new(lps, Time::from_us(1), threads);
                    for lp in 0..4 {
                        pdes.seed(Time::from_ns(1), lp, Token(0));
                    }
                    pdes.run()
                }));
                match (low, run) {
                    (Fail::Overflow(delay), Ok(result)) => {
                        let now = Time::from_ns(1);
                        let want = Err(PdesError::Clock(ClockOverflow { now, delay }));
                        assert_eq!(result, want, "t{threads}");
                    }
                    (Fail::Panic(low), Err(payload)) => {
                        let msg = payload.downcast_ref::<String>().expect("string panic payload");
                        assert_eq!(*msg, format!("PDES worker panicked: {low}"), "t{threads}");
                    }
                    _ => panic!("t{threads}: LP 1's failure kind was not the one reported"),
                }
            }
        }
    }

    /// Seeded random traffic for the worker-count fuzz. Times sit on a
    /// half-lookahead grid so several sources land on one destination at
    /// one arrival time inside a window; every draw comes from the LP's
    /// own generator, so its behaviour depends only on the order its
    /// events arrive — exactly what the executor promises to keep.
    struct FuzzLp {
        index: usize,
        n: usize,
        rng: masim_rng::Rng,
        left: u32,
        work: u64,
        log: Vec<(Time, u64)>,
    }

    const FUZZ_LOOKAHEAD_NS: u64 = 100;

    impl FuzzLp {
        /// A cross-LP destination: LP 0 (the hot spot) half the time.
        fn peer(&mut self) -> usize {
            if self.n == 1 || self.rng.gen_range_u64(0, 2) == 0 {
                return 0;
            }
            (self.index + self.rng.gen_range_usize(1, self.n)) % self.n
        }
    }

    impl LogicalProcess for FuzzLp {
        type Event = Token;
        fn handle(&mut self, now: Time, Token(v): Token, out: &mut Outbox<Token>) {
            self.log.push((now, v));
            self.work += self.rng.gen_range_u64(0, 4);
            for _ in 0..self.rng.gen_range_u64(0, 3) {
                if self.left == 0 {
                    return;
                }
                self.left -= 1;
                let tag = (self.index as u64) << 32 | self.left as u64;
                let l = FUZZ_LOOKAHEAD_NS;
                match self.rng.gen_range_u64(0, 3) {
                    0 => {
                        let dst = self.peer();
                        out.send(Time::from_ns(l), dst, Token(tag));
                    }
                    1 => {
                        let (dst, k) = (self.peer(), self.rng.gen_range_u64(2, 4));
                        out.send(Time::from_ns(l * k), dst, Token(tag));
                    }
                    _ => {
                        let half = self.rng.gen_range_u64(0, 2);
                        out.send(Time::from_ns(l / 2 * half), self.index, Token(tag));
                    }
                }
            }
        }
        fn work_units(&self) -> u64 {
            self.work
        }
    }

    /// Per-LP logs, processed, windows, crossings, clock and the run's
    /// result of one fuzz case at one worker count.
    type FuzzOutcome = (Vec<Vec<(Time, u64)>>, u64, u64, u64, Time, Result<(), PdesError>);

    fn run_fuzz(seed: u64, threads: usize, limits: PdesLimits) -> FuzzOutcome {
        let mut rng = masim_rng::Rng::seed_from_u64(seed);
        let n = rng.gen_range_usize(1, 10);
        let lps: Vec<FuzzLp> = (0..n)
            .map(|index| FuzzLp {
                index,
                n,
                rng: masim_rng::Rng::seed_from_u64(seed ^ (index as u64 + 1) << 40),
                left: 32,
                work: 0,
                log: Vec::new(),
            })
            .collect();
        let mut pdes = WindowedPdes::new(lps, Time::from_ns(FUZZ_LOOKAHEAD_NS), threads);
        for lp in 0..n {
            for _ in 0..rng.gen_range_u64(0, 3) {
                let at = Time::from_ns(FUZZ_LOOKAHEAD_NS / 2 * rng.gen_range_u64(0, 3));
                pdes.seed(at, lp, Token(u64::MAX - lp as u64));
            }
        }
        pdes.seed(Time::ZERO, n - 1, Token(0));
        let result = pdes.run_limited(limits);
        let (processed, windows, crossings, now) =
            (pdes.processed(), pdes.windows(), pdes.crossings(), pdes.now());
        let logs = pdes.into_lps().into_iter().map(|l| l.log).collect();
        (logs, processed, windows, crossings, now, result)
    }

    /// The judge for any protocol edit: over 500 seeded cases of 1–9
    /// LPs mixing exact-lookahead and longer cross-LP sends, same-time
    /// arrivals from several sources, sub-lookahead self events and
    /// non-zero work units, 2, 3, 4 and 8 workers reproduce the
    /// one-worker run — every LP's handle log and every counter — and a
    /// budget at a random `max_work` trips at the same point.
    #[test]
    fn fuzz_any_worker_count_matches_one_worker() {
        for seed in 0..500u64 {
            let base = run_fuzz(seed, 1, PdesLimits::NONE);
            assert_eq!(base.5, Ok(()), "seed {seed}");
            assert!(base.1 > 0, "seed {seed}: nothing ran");
            let mut rng = masim_rng::Rng::seed_from_u64(!seed);
            let budget = PdesLimits { max_work: rng.gen_range_u64(0, 2 * base.1), deadline: None };
            let base_trip = run_fuzz(seed, 1, budget);
            for threads in [2, 3, 4, 8] {
                assert_eq!(
                    run_fuzz(seed, threads, PdesLimits::NONE),
                    base,
                    "seed {seed} t{threads}"
                );
                let trip = run_fuzz(seed, threads, budget);
                assert_eq!(
                    (&trip.5, trip.1, trip.2),
                    (&base_trip.5, base_trip.1, base_trip.2),
                    "seed {seed} t{threads}: budget {}",
                    budget.max_work
                );
            }
        }
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
