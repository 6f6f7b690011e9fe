//! Randomized scheduler-equivalence suite.
//!
//! The arena + ladder-queue engine replaced a `BinaryHeap` of boxed
//! closures; the refactor's contract is that pop order is *identical* —
//! `(time, schedule sequence)` — so every simulation result stays
//! bit-reproducible. This suite drives the real engine and a minimal
//! reference model of the old design (binary heap + global sequence +
//! cancelled set) through the same masim-rng-seeded streams of mixed
//! schedule/cancel/pop operations and demands the exact same execution
//! trace, across delay profiles chosen to exercise every queue tier
//! (immediate lane, current bucket, ring, overflow, and idle-jumps).

use masim_des::{Engine, EventId, Handler, LadderQueue};
use masim_rng::Rng;
use masim_trace::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Reference pending-event set: the old engine's semantics in miniature.
struct RefSched {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>, // (at ps, seq, payload)
    seq: u64,
    cancelled: HashSet<u64>,
    now: u64,
}

impl RefSched {
    fn new() -> RefSched {
        RefSched { heap: BinaryHeap::new(), seq: 0, cancelled: HashSet::new(), now: 0 }
    }

    fn schedule(&mut self, at: u64, payload: u64) -> u64 {
        assert!(at >= self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        while let Some(Reverse((at, seq, payload))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.now = at;
            return Some((at, payload));
        }
        None
    }
}

/// Engine-side state: log of executed (time, payload) pairs.
struct Log(Vec<(Time, u64)>);

impl Handler for Log {
    type Event = u64;
    fn handle(_eng: &mut Engine<Self>, st: &mut Self, v: u64) {
        st.0.push((_eng.now(), v));
    }
}

/// Delay profile covering every ladder tier: 0 (immediate lane), tiny
/// (current bucket), medium (ring), and huge (overflow heap); rare giant
/// gaps force idle bucket-jumps.
fn random_delay(rng: &mut Rng) -> u64 {
    match rng.next_u64() % 100 {
        0..=24 => 0,
        25..=54 => rng.next_u64() % (1 << 18), // within a bucket or two
        55..=84 => rng.next_u64() % (1 << 28), // across the ring
        85..=97 => (1 << 30) + rng.next_u64() % (1 << 34), // overflow tier
        _ => 1 << 40,                          // idle jump (~1.1 s)
    }
}

/// Drive both schedulers through `ops` mixed operations and compare the
/// full execution trace.
fn run_equivalence(seed: u64, ops: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut eng: Engine<Log> = Engine::new();
    let mut log = Log(Vec::new());
    let mut reference = RefSched::new();
    let mut ref_log: Vec<(u64, u64)> = Vec::new();
    // Live events: (engine handle, reference seq).
    let mut live: Vec<(EventId, u64)> = Vec::new();

    for op in 0..ops {
        match rng.next_u64() % 10 {
            // 60%: schedule a fresh event.
            0..=5 => {
                let at = eng.now().as_ps() + random_delay(&mut rng);
                let payload = op as u64;
                let id = eng.schedule_at(Time::from_ps(at), payload);
                let rseq = reference.schedule(at, payload);
                live.push((id, rseq));
            }
            // 10%: cancel a random live event (maybe already fired —
            // exercising generation-tag staleness on the engine side).
            6 => {
                if !live.is_empty() {
                    let k = (rng.next_u64() % live.len() as u64) as usize;
                    let (id, rseq) = live.swap_remove(k);
                    eng.cancel(id);
                    reference.cancel(rseq);
                }
            }
            // 30%: execute one event on both sides.
            _ => {
                let stepped = eng.step(&mut log);
                let ref_popped = reference.pop();
                assert_eq!(stepped, ref_popped.is_some(), "seed {seed} op {op}: drain mismatch");
                if let Some(p) = ref_popped {
                    ref_log.push(p);
                }
            }
        }
    }
    // Drain both completely.
    while eng.step(&mut log) {}
    while let Some(p) = reference.pop() {
        ref_log.push(p);
    }

    let got: Vec<(u64, u64)> = log.0.iter().map(|&(t, v)| (t.as_ps(), v)).collect();
    assert_eq!(got.len(), ref_log.len(), "seed {seed}: executed counts differ");
    assert_eq!(got, ref_log, "seed {seed}: pop order diverged from the reference heap");
}

#[test]
fn pop_order_matches_reference_heap_over_10k_ops() {
    for seed in [1u64, 7, 42, 0xDEAD_BEEF, 0x5EED_5EED] {
        run_equivalence(seed, 10_000);
    }
}

#[test]
fn cancel_after_fire_is_inert_even_after_slot_reuse() {
    // Regression: with a plain slab index (no generation tag), a handle
    // kept after its event fired would cancel whatever event later
    // reuses the slot. The generation tag makes the stale handle inert.
    let mut eng: Engine<Log> = Engine::new();
    let mut log = Log(Vec::new());
    let stale = eng.schedule_at(Time::from_ns(1), 111);
    eng.run(&mut log); // fires; slot 0 freed
    let reused = eng.schedule_at(Time::from_ns(2), 222); // reuses slot 0
    eng.cancel(stale); // must NOT kill the new occupant
    assert_eq!(eng.cancelled(), 0, "stale cancel must not count");
    eng.run(&mut log);
    assert_eq!(
        log.0,
        vec![(Time::from_ns(1), 111), (Time::from_ns(2), 222)],
        "event in the reused slot must still fire"
    );
    // And cancelling the reused handle after it fired is equally inert.
    eng.cancel(reused);
    assert_eq!(eng.cancelled(), 0);
}

#[test]
fn cancelled_events_never_execute_and_counts_match() {
    let mut rng = Rng::seed_from_u64(99);
    let mut eng: Engine<Log> = Engine::new();
    let mut log = Log(Vec::new());
    let ids: Vec<EventId> = (0..1_000u64)
        .map(|i| eng.schedule_at(Time::from_ps(rng.next_u64() % (1 << 30)), i))
        .collect();
    let mut expect: HashSet<u64> = (0..1_000).collect();
    for (i, id) in ids.iter().enumerate() {
        if i % 3 == 0 {
            eng.cancel(*id);
            expect.remove(&(i as u64));
        }
    }
    eng.run(&mut log);
    let got: HashSet<u64> = log.0.iter().map(|&(_, v)| v).collect();
    assert_eq!(got, expect);
    assert_eq!(eng.cancelled() as usize, 1_000 - expect.len());
    assert_eq!(eng.processed() as usize, expect.len());
}

/// Raw-queue reference: a plain min-heap of `(at ps, seq, payload)`.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    seq: u64,
}

/// Both queues under one driver, compared after every operation.
struct Pair {
    q: LadderQueue<u64>,
    r: RefQueue,
    /// Timestamp of the last pop: pushes stay at or after it, as the
    /// engine's causality assert guarantees.
    now: u64,
    /// Cancelled payloads. The engine leaves a cancelled entry queued
    /// and skips it at the head (peek, then pop); [`Pair::execute`]
    /// drives the queue the same way. Payloads are never reused, so an
    /// id cancelled after it popped is inert.
    cancelled: HashSet<u64>,
}

impl Pair {
    fn push(&mut self, at: u64) {
        let payload = self.r.seq;
        let seq = self.q.push(Time::from_ps(at), payload);
        assert_eq!(seq, self.r.seq, "queue numbers pushes itself, one per push");
        self.r.heap.push(Reverse((at, seq, payload)));
        self.r.seq += 1;
        self.check();
    }

    fn pop(&mut self) -> Option<u64> {
        let got = self.q.pop().map(|(t, s, p)| (t.as_ps(), s, p));
        let want = self.r.heap.pop().map(|Reverse(e)| e);
        assert_eq!(got, want, "pop diverged from the reference heap");
        self.check();
        got.map(|(at, _, payload)| {
            self.now = at;
            payload
        })
    }

    /// Skip cancelled heads, as `Engine::step` does, then pop one live
    /// entry.
    fn execute(&mut self) {
        while self.q.peek_payload().is_some_and(|p| self.cancelled.contains(p)) {
            self.pop();
        }
        self.pop();
    }

    fn head(&self) -> Option<(u64, u64, u64)> {
        self.r.heap.peek().map(|&Reverse(e)| e)
    }

    fn check(&mut self) {
        let want = self.head();
        assert_eq!(self.q.len(), self.r.heap.len());
        assert_eq!(self.q.peek_key().map(|(t, s)| (t.as_ps(), s)), want.map(|(at, s, _)| (at, s)));
        assert_eq!(self.q.peek_payload().copied(), want.map(|(_, _, p)| p));
    }
}

#[test]
fn dense_window_with_late_arrivals_matches_reference_heap() {
    const WIDTH: u64 = masim_des::queue::BUCKET_WIDTH_PS;
    const RING: u64 = masim_des::queue::NUM_BUCKETS;
    let mut rng = Rng::seed_from_u64(0xD15E_BCC7);
    let mut p =
        Pair { q: LadderQueue::new(), r: RefQueue::default(), now: 0, cancelled: HashSet::new() };

    // 20 000 entries in one 65 ns bucket, 4 096 distinct timestamps, so
    // most share theirs with a few others.
    let base = 5 * WIDTH;
    for _ in 0..20_000 {
        p.push(base + (rng.next_u64() % 4096) * 16);
    }

    // Drain it under a stream of arrivals into the window being drained.
    for _ in 0..40_000 {
        let Some((head_at, _, _)) = p.head() else { break };
        let bucket_end = (head_at / WIDTH + 1) * WIDTH;
        match rng.next_u64() % 10 {
            0..=3 => p.execute(),
            4..=7 => {
                let at = match rng.next_u64() % 5 {
                    0 => head_at,                                           // ties with the head
                    1 => p.now + rng.next_u64() % (head_at - p.now + 1),    // at or before it
                    2 => bucket_end - 1 - rng.next_u64() % 8,               // after the tail
                    3 => head_at + rng.next_u64() % (bucket_end - head_at), // anywhere in between
                    _ => bucket_end + rng.next_u64() % (3 * WIDTH),         // the ring
                };
                p.push(at);
            }
            _ => {
                p.cancelled.insert(rng.next_u64() % p.r.seq);
            }
        }
    }
    while p.pop().is_some() {}

    // Idle jump: materializing a far head slides the window past the
    // ring; everything pushed afterwards lands *behind* the window.
    let far = p.now + (RING + 100) * WIDTH + 17;
    p.push(far);
    assert_eq!(p.q.peek_key().map(|(t, _)| t.as_ps()), Some(far));
    for i in 0..2_000u64 {
        // A few distinct buckets, plenty of same-timestamp ties.
        let at = p.now + (rng.next_u64() % 7) * WIDTH + (i % 5) * 1000;
        assert!(at < far, "stays behind the window");
        p.push(at);
        if i % 3 == 0 {
            p.pop();
        }
    }
    while p.pop().is_some() {}
    assert!(p.q.is_empty());
}
