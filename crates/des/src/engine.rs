//! The sequential discrete-event engine.
//!
//! A classic pending-event-set simulator, rebuilt around typed events:
//! models describe their events as plain values (an enum, in practice)
//! and implement [`Handler`] to interpret them. Payloads live in an
//! event arena — a generation-tagged slab — and the pending set is a
//! ladder queue ([`crate::queue`]), so the common
//! schedule/pop cycle allocates nothing and compares plain integers
//! instead of chasing comparators through boxed closures.
//!
//! Ordering is `(time, insertion sequence)`, exactly as in the
//! `BinaryHeap`-of-closures engine this replaced: two events at the same
//! instant always execute in schedule order, keeping runs
//! bit-reproducible (the randomized equivalence suite in
//! `tests/equivalence.rs` holds the two designs to identical pop
//! orders).

use crate::arena::EventArena;
use crate::error::ClockOverflow;
use crate::queue::LadderQueue;
use masim_obs::MetricSet;
use masim_trace::Time;

pub use crate::arena::EventId;

/// A simulation model: the engine's shared state plus the
/// interpretation of its event payloads.
///
/// `handle` plays the role the boxed closures used to: it runs at the
/// event's timestamp with access to the engine (to schedule follow-ups)
/// and the state.
pub trait Handler: Sized {
    /// The typed event payload this model schedules.
    type Event;

    /// Execute one event at the engine's current time.
    fn handle(eng: &mut Engine<Self>, state: &mut Self, event: Self::Event);
}

/// A sequential discrete-event simulator over a model `S`.
///
/// The engine keeps its own plain-integer telemetry (scheduled /
/// processed / cancelled counts, pending-set high-water mark) so the hot
/// loop never touches an atomic; [`Engine::export_metrics`] copies them
/// into a [`MetricSet`] under `des.engine.*` after the run.
pub struct Engine<S: Handler> {
    now: Time,
    arena: EventArena<S::Event>,
    queue: LadderQueue<EventId>,
    error: Option<ClockOverflow>,
    processed: u64,
    cancelled_total: u64,
    max_pending: usize,
}

impl<S: Handler> Default for Engine<S> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<S: Handler> Engine<S> {
    /// A fresh engine at time zero.
    pub fn new() -> Engine<S> {
        Engine {
            now: Time::ZERO,
            arena: EventArena::new(),
            queue: LadderQueue::new(),
            error: None,
            processed: 0,
            cancelled_total: 0,
            max_pending: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Events executed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Events still pending (cancelled ones excluded).
    #[inline]
    pub fn pending(&self) -> usize {
        self.arena.live()
    }

    /// Total events ever scheduled (== next sequence number).
    #[inline]
    pub fn scheduled(&self) -> u64 {
        self.queue.pushes()
    }

    /// Events cancelled before execution.
    #[inline]
    pub fn cancelled(&self) -> u64 {
        self.cancelled_total
    }

    /// Largest pending-set size observed so far.
    #[inline]
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// Ladder-queue overflow→ring migrations so far (tier-3 activity).
    #[inline]
    pub fn queue_overflow_migrations(&self) -> u64 {
        self.queue.overflow_migrations()
    }

    /// The clock-overflow error, if a `schedule_in` overflowed. Once
    /// set, [`Engine::step`] refuses to run further events; the
    /// embedding simulator decides how to surface the failure.
    #[inline]
    pub fn error(&self) -> Option<ClockOverflow> {
        self.error
    }

    /// Copy the engine's counters into `ms` under `des.engine.*` /
    /// `des.queue.*`.
    pub fn export_metrics(&self, ms: &MetricSet) {
        ms.add("des.engine.scheduled", self.scheduled());
        ms.add("des.engine.processed", self.processed);
        ms.add("des.engine.cancelled", self.cancelled_total);
        ms.gauge_max("des.engine.pending_hwm", self.max_pending as u64);
        ms.add("des.queue.window_advances", self.queue.window_advances());
        ms.add("des.queue.overflow_migrations", self.queue.overflow_migrations());
        ms.add("des.queue.late_pushes", self.queue.late_pushes());
        ms.gauge_max("des.queue.bucket_len_max", self.queue.bucket_len_max() as u64);
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a causality bug in the caller.
    pub fn schedule_at(&mut self, at: Time, event: S::Event) -> EventId {
        assert!(at >= self.now, "cannot schedule at {at:?} before now {:?}", self.now);
        let id = self.arena.insert(event);
        self.queue.push(at, id);
        let live = self.arena.live();
        if live > self.max_pending {
            self.max_pending = live;
        }
        id
    }

    /// Schedule `event` after `delay` from now.
    ///
    /// On clock overflow the event is dropped, a [`ClockOverflow`] is
    /// latched (see [`Engine::error`]), the returned handle is dead, and
    /// the run stops at the next [`Engine::step`] — the caller surfaces
    /// the error instead of the engine panicking mid-study.
    pub fn schedule_in(&mut self, delay: Time, event: S::Event) -> EventId {
        match self.now.checked_add(delay) {
            Some(at) => self.schedule_at(at, event),
            None => {
                self.error.get_or_insert(ClockOverflow { now: self.now, delay });
                EventId::DEAD
            }
        }
    }

    /// Cancel a pending event: O(1), drops the payload immediately.
    /// Cancelling an already-executed (or already-cancelled) event is a
    /// no-op — the generation tag in the handle makes stale cancels
    /// harmless even after the arena slot is reused.
    pub fn cancel(&mut self, id: EventId) {
        if self.arena.take(id).is_some() {
            self.cancelled_total += 1;
        }
    }

    /// Execute one event; returns false when the queue is empty (or a
    /// clock overflow is latched).
    pub fn step(&mut self, state: &mut S) -> bool {
        if self.error.is_some() {
            return false;
        }
        while let Some((at, _seq, id)) = self.queue.pop() {
            // Stale queue entries (cancelled events) pop with a dead
            // handle and are skipped.
            let Some(event) = self.arena.take(id) else { continue };
            debug_assert!(at >= self.now, "event from the past");
            self.now = at;
            self.processed += 1;
            S::handle(self, state, event);
            return true;
        }
        false
    }

    /// Run until the queue is drained.
    pub fn run(&mut self, state: &mut S) {
        while self.step(state) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test model: a log of u32 markers; each event pushes its marker.
    struct Log(Vec<u32>);

    impl Handler for Log {
        type Event = u32;
        fn handle(_eng: &mut Engine<Self>, st: &mut Self, v: u32) {
            st.0.push(v);
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        eng.schedule_at(Time::from_ns(30), 3);
        eng.schedule_at(Time::from_ns(10), 1);
        eng.schedule_at(Time::from_ns(20), 2);
        eng.run(&mut log);
        assert_eq!(log.0, vec![1, 2, 3]);
        assert_eq!(eng.now(), Time::from_ns(30));
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        for i in 0..10 {
            eng.schedule_at(Time::from_ns(5), i);
        }
        eng.run(&mut log);
        assert_eq!(log.0, (0..10).collect::<Vec<_>>());
    }

    /// Test model: a counter whose events schedule follow-ups.
    struct Ticker(u64);

    impl Handler for Ticker {
        type Event = ();
        fn handle(eng: &mut Engine<Self>, st: &mut Self, (): ()) {
            st.0 += 1;
            if st.0 < 5 {
                eng.schedule_in(Time::from_ns(10), ());
            }
        }
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut eng: Engine<Ticker> = Engine::new();
        let mut t = Ticker(0);
        eng.schedule_at(Time::ZERO, ());
        eng.run(&mut t);
        assert_eq!(t.0, 5);
        assert_eq!(eng.now(), Time::from_ns(40));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        let _a = eng.schedule_at(Time::from_ns(10), 1);
        let b = eng.schedule_at(Time::from_ns(20), 2);
        eng.schedule_at(Time::from_ns(30), 3);
        eng.cancel(b);
        eng.run(&mut log);
        assert_eq!(log.0, vec![1, 3]);
        assert_eq!(eng.processed(), 2);
        assert_eq!(eng.cancelled(), 1);
    }

    #[test]
    fn cancel_after_execution_is_noop() {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        let a = eng.schedule_at(Time::from_ns(1), 1);
        eng.run(&mut log);
        eng.cancel(a);
        assert_eq!(eng.cancelled(), 0);
        eng.schedule_at(eng.now(), 10);
        eng.run(&mut log);
        assert_eq!(log.0, vec![1, 10]);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        eng.schedule_at(Time::from_ns(10), 1);
        eng.run(&mut log);
        eng.schedule_at(Time::from_ns(5), 2);
    }

    #[test]
    fn pending_excludes_cancelled() {
        let mut eng: Engine<Log> = Engine::new();
        let a = eng.schedule_at(Time::from_ns(1), 1);
        eng.schedule_at(Time::from_ns(2), 2);
        assert_eq!(eng.pending(), 2);
        eng.cancel(a);
        assert_eq!(eng.pending(), 1);
    }

    /// Test model: tries to schedule past the end of time.
    struct OverflowModel;

    impl Handler for OverflowModel {
        type Event = ();
        fn handle(eng: &mut Engine<Self>, _st: &mut Self, (): ()) {
            eng.schedule_in(Time::MAX, ());
        }
    }

    #[test]
    fn clock_overflow_latches_instead_of_panicking() {
        let mut eng: Engine<OverflowModel> = Engine::new();
        let mut st = OverflowModel;
        eng.schedule_at(Time::from_ns(1), ());
        eng.run(&mut st);
        let err = eng.error().expect("overflow latched");
        assert_eq!(err.now, Time::from_ns(1));
        assert_eq!(err.delay, Time::MAX);
        // The engine refuses to run further events.
        eng.schedule_at(Time::from_ns(2), ());
        assert!(!eng.step(&mut st));
    }
}
