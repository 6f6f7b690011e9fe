//! The ladder (calendar) queue behind the pending-event set.
//!
//! The pending set used to be one `BinaryHeap` whose every operation
//! chased a comparator through boxed fat pointers. This queue exploits
//! the time structure a discrete-event simulation actually has.
//! Nearest first:
//!
//! * **immediate lane** — events scheduled at exactly the current time
//!   (zero-delay cascades: packet bursts entering a NIC, same-instant
//!   releases). A plain FIFO: insertion order *is* `(time, seq)` order,
//!   because the global sequence counter is monotone. O(1) push/pop.
//! * **active window** — the bucket the clock is in. Its entries are
//!   sorted once, when the clock enters the window, and popped off the
//!   back of that sorted buffer in O(1). An event that arrives *after*
//!   the sort — scheduled into the window being drained, or behind it
//!   after an idle clock jump — is appended to the sorted buffer if it
//!   precedes everything there (appending keeps the order; a chain of
//!   one event in flight never does anything else) and otherwise goes
//!   to the **late lane**, a small min-heap beside the sorted buffer;
//!   the pop takes whichever of the two heads is earlier. A late
//!   arrival therefore costs O(log late) at worst, never a shift of
//!   the sorted buffer.
//! * **near-future ring** — a calendar of [`NUM_BUCKETS`] unsorted
//!   buckets, each [`BUCKET_WIDTH_PS`] wide (65.5 ns; the ring spans
//!   ~67 µs — sized to the per-hop latency/serialization scale of the
//!   packet model, the measured throughput optimum). Pushing is a
//!   `Vec::push` into the bucket the timestamp hashes to. With the
//!   per-link latencies and serialization delays of this study almost
//!   every event lands here.
//! * **sorted overflow** — events beyond the ring horizon (compute
//!   phases, far-future completions) sit in a plain binary heap of
//!   `(time, seq, payload)` triples and migrate into the ring as its
//!   window slides forward.
//!
//! Two measured regimes bracket the design. Over the 235-trace study
//! the largest active bucket of a run holds 65 entries at the median
//! (1 680 at most) and late arrivals are 5 % of a run's pushes at the
//! median (42 % at most, Nekbone under packet-flow). At 64 000 ranks
//! in lock-step (`repro scale`, CNS on frontier)
//! the whole 210 µs run is 811 non-empty buckets of ≈ 7 800 entries
//! each, one push in ten is a late arrival, and the overflow heap is
//! never touched — the ring and the late lane carry everything.
//! `des.queue.bucket_len_max` and `des.queue.late_pushes` report which
//! regime a run was in.
//!
//! Pops come out in exactly `(time, seq)` order — bit-identical to the
//! heap it replaced (the equivalence suite in `tests/equivalence.rs`
//! drives both against randomized schedule/cancel mixes). The queue
//! assigns sequence numbers itself, one per push, so ordering needs no
//! `Ord` on the payload.
//!
//! Memory follows what is pending, not what the run has seen. Every
//! ring bucket starts with `BUCKET_RESERVE` entries of capacity, and a
//! bucket buffer that a burst grew goes back to the ring shrunk to that
//! once the drain lane has emptied it, so idle ring capacity stays
//! `NUM_BUCKETS × BUCKET_RESERVE` entries however large the bursts
//! were. The drain lane, the late lane and the overflow heap are single
//! containers; each keeps the largest backlog it held. A burst that
//! outgrows its bucket's reserve reallocates while it fills; a run whose
//! buckets stay under the reserve schedules and pops without heap
//! allocation after warm-up.

use masim_trace::Time;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// log2 of the bucket width in picoseconds (2^16 ps ≈ 65.5 ns).
const BUCKET_SHIFT: u32 = 16;
/// Bucket width in picoseconds.
pub const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_SHIFT;
/// Number of ring buckets (power of two; the ring spans ~67 µs).
pub const NUM_BUCKETS: u64 = 1024;
/// Capacity every ring bucket and drain lane starts with, and the most a
/// drained bucket buffer keeps: a burst grows its bucket, the drain swap
/// moves that buffer to the drain lane, and once drained it goes back to
/// the ring shrunk to this. Idle ring capacity is therefore a constant
/// `NUM_BUCKETS × BUCKET_RESERVE` entries, however long the run and
/// however large its bursts.
const BUCKET_RESERVE: usize = 16;

#[inline]
fn bucket_of(at_ps: u64) -> u64 {
    at_ps >> BUCKET_SHIFT
}

struct Entry<T> {
    at: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Heap wrapper (late lane and overflow): min-heap on `(at, seq)`,
/// payload ignored.
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so BinaryHeap pops the earliest.
        other.0.key().cmp(&self.0.key())
    }
}

/// A deterministic ladder (calendar) queue over payloads `T`.
pub struct LadderQueue<T> {
    /// FIFO of events at exactly `imm_at` (the hot zero-delay lane).
    imm: VecDeque<(u64, T)>,
    /// The shared timestamp of every `imm` entry. Usually equal to
    /// `last_ps`, but kept separately: popping a *stale* (cancelled)
    /// entry can advance `last_ps` past the embedding engine's clock,
    /// after which earlier pushes are still legal and must not corrupt
    /// the lane's time.
    imm_at: u64,
    /// Timestamp of the most recent pop.
    last_ps: u64,
    /// Drain buffer for the active bucket, sorted descending by
    /// `(at, seq)` when the window opens so popping from the back yields
    /// ascending order. Afterwards it only grows at the back, by entries
    /// earlier than its last.
    current: Vec<Entry<T>>,
    /// Entries pushed into (or behind) the active window after
    /// `current` was sorted that do not precede its head; drained
    /// interleaved with it by key.
    late: BinaryHeap<HeapEntry<T>>,
    /// Absolute bucket number whose window `current` covers.
    cur_bucket: u64,
    /// Ring of unsorted buckets covering `(cur_bucket, cur_bucket + NUM_BUCKETS]`.
    ring: Vec<Vec<Entry<T>>>,
    /// Total entries across all ring buckets.
    ring_len: usize,
    /// Events beyond the ring horizon.
    overflow: BinaryHeap<HeapEntry<T>>,
    /// Monotone per-queue sequence counter (one per push).
    seq: u64,
    len: usize,
    /// Times the drain window slid forward (tier-2 activity). Plain
    /// integer telemetry, same contract as the engine's counters: the
    /// hot paths never touch an atomic, totals export after the run.
    window_advances: u64,
    /// Entries that migrated overflow-heap → ring/current as the window
    /// slid (tier-3 → tier-2 traffic).
    overflow_migrations: u64,
    /// Pushes into (or behind) the active window after it was sorted.
    late_pushes: u64,
    /// Largest bucket that became the active window.
    bucket_len_max: usize,
}

impl<T> Default for LadderQueue<T> {
    fn default() -> Self {
        LadderQueue::new()
    }
}

impl<T> LadderQueue<T> {
    /// An empty queue with its window at time zero and every lane and
    /// ring bucket reserved up front, so that what the queue holds does
    /// not depend on how much of the ring a run has reached.
    pub fn new() -> LadderQueue<T> {
        LadderQueue {
            imm: VecDeque::with_capacity(BUCKET_RESERVE),
            imm_at: 0,
            last_ps: 0,
            current: Vec::with_capacity(BUCKET_RESERVE),
            late: BinaryHeap::with_capacity(BUCKET_RESERVE),
            cur_bucket: 0,
            ring: (0..NUM_BUCKETS).map(|_| Vec::with_capacity(BUCKET_RESERVE)).collect(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
            window_advances: 0,
            overflow_migrations: 0,
            late_pushes: 0,
            bucket_len_max: 0,
        }
    }

    /// Pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total pushes so far (== the next sequence number).
    #[inline]
    pub fn pushes(&self) -> u64 {
        self.seq
    }

    /// Times the drain window slid forward (a tier-2 bucket became the
    /// active drain lane or the window jumped to the overflow head).
    #[inline]
    pub fn window_advances(&self) -> u64 {
        self.window_advances
    }

    /// Entries migrated out of the overflow heap into the ring or the
    /// active window as the horizon slid forward.
    #[inline]
    pub fn overflow_migrations(&self) -> u64 {
        self.overflow_migrations
    }

    /// Pushes that arrived in (or behind) the active window after it was
    /// sorted.
    #[inline]
    pub fn late_pushes(&self) -> u64 {
        self.late_pushes
    }

    /// Entries in the largest bucket that became the active window.
    #[inline]
    pub fn bucket_len_max(&self) -> usize {
        self.bucket_len_max
    }

    /// Insert `payload` at `at`. Returns the entry's sequence number.
    ///
    /// `at` may precede the last popped timestamp (the embedding engine
    /// is responsible for causality); such entries join the active
    /// window as late arrivals.
    #[inline]
    pub fn push(&mut self, at: Time, payload: T) -> u64 {
        let at = at.as_ps();
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        if at == self.last_ps && (self.imm.is_empty() || self.imm_at == at) {
            // Zero-delay lane: FIFO order is (time, seq) order because
            // all entries share one timestamp and seq is monotone.
            self.imm_at = at;
            self.imm.push_back((seq, payload));
            return seq;
        }
        let b = bucket_of(at);
        let entry = Entry { at, seq, payload };
        if b <= self.cur_bucket {
            // Active window (or, after an idle clock jump, behind it).
            // Earlier than everything sorted: appending keeps `current`
            // descending. Anything else must not disturb the sort.
            self.late_pushes += 1;
            if self.current.last().is_none_or(|head| entry.key() < head.key()) {
                self.current.push(entry);
            } else {
                self.late.push(HeapEntry(entry));
            }
        } else if b <= self.cur_bucket + NUM_BUCKETS {
            self.ring_push(b, entry);
        } else {
            self.overflow.push(HeapEntry(entry));
        }
        seq
    }

    /// Pop the earliest `(time, seq)` entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        // `select_head` names a non-empty lane, so the lane pop is `Some`.
        let e = match self.select_head()? {
            Head::Immediate => {
                self.imm.pop_front().map(|(seq, payload)| Entry { at: self.imm_at, seq, payload })
            }
            Head::Current => self.current.pop(),
            Head::Late => self.late.pop().map(|h| h.0),
        }?;
        self.last_ps = e.at;
        self.len -= 1;
        Some((Time::from_ps(e.at), e.seq, e.payload))
    }

    /// Key of the earliest entry without removing it. `&mut` because it
    /// may slide the ring window forward to materialize the head.
    pub fn peek_key(&mut self) -> Option<(Time, u64)> {
        let (at, seq) = match self.select_head()? {
            Head::Immediate => self.imm.front().map(|&(seq, _)| (self.imm_at, seq)),
            Head::Current => self.current.last().map(Entry::key),
            Head::Late => self.late.peek().map(|h| h.0.key()),
        }?;
        Some((Time::from_ps(at), seq))
    }

    /// Payload of the earliest entry without removing it.
    pub fn peek_payload(&mut self) -> Option<&T> {
        match self.select_head()? {
            Head::Immediate => self.imm.front().map(|(_, p)| p),
            Head::Current => self.current.last().map(|e| &e.payload),
            Head::Late => self.late.peek().map(|e| &e.0.payload),
        }
    }

    /// Identify where the head entry lives, advancing the ring window
    /// if every drain lane is empty.
    fn select_head(&mut self) -> Option<Head> {
        if self.len == 0 {
            return None;
        }
        if self.imm.is_empty() && self.late.is_empty() {
            // Only the sorted buffer can hold the head.
            if self.current.is_empty() {
                self.advance_window();
            }
            return Some(Head::Current);
        }
        // Earliest `(time, seq)` of the three lane heads. Keys are
        // unique; the immediate lane's `<=` only spells out that, on a
        // time tie, the smaller seq goes first.
        let mut head = Head::Current;
        let mut best = self.current.last().map(Entry::key);
        if let Some(l) = self.late.peek() {
            if best.is_none_or(|b| l.0.key() < b) {
                head = Head::Late;
                best = Some(l.0.key());
            }
        }
        if let Some((iseq, _)) = self.imm.front() {
            if best.is_none_or(|b| (self.imm_at, *iseq) <= b) {
                head = Head::Immediate;
            }
        }
        Some(head)
    }

    /// Slide the window forward until `current` holds the next bucket's
    /// entries, migrating overflow entries that enter the ring horizon.
    /// Precondition: `imm`, `current` and `late` are empty, `len > 0`.
    fn advance_window(&mut self) {
        self.window_advances += 1;
        loop {
            if self.ring_len == 0 {
                // Ring dry: jump the window straight to the overflow
                // head, which exists because `len > 0`.
                let Some(head) = self.overflow.peek() else { return };
                self.cur_bucket = bucket_of(head.0.at);
                self.migrate_overflow();
                debug_assert!(!self.current.is_empty());
            } else {
                self.cur_bucket += 1;
                let slot = (self.cur_bucket % NUM_BUCKETS) as usize;
                if !self.ring[slot].is_empty() {
                    std::mem::swap(&mut self.current, &mut self.ring[slot]);
                    self.ring_len -= self.current.len();
                    // The drained buffer goes back to the ring: it keeps
                    // a small capacity, not the largest burst it held.
                    self.ring[slot].shrink_to(BUCKET_RESERVE);
                }
                self.migrate_overflow();
            }
            if !self.current.is_empty() {
                self.current.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.bucket_len_max = self.bucket_len_max.max(self.current.len());
                return;
            }
        }
    }

    /// Move overflow entries whose bucket is now inside the ring horizon
    /// (or the active window) into place.
    fn migrate_overflow(&mut self) {
        loop {
            let Some(head) = self.overflow.peek_mut() else { break };
            let b = bucket_of(head.0.at);
            if b > self.cur_bucket + NUM_BUCKETS {
                break;
            }
            let HeapEntry(e) = PeekMut::pop(head);
            self.overflow_migrations += 1;
            if b <= self.cur_bucket {
                self.current.push(e);
            } else {
                self.ring_push(b, e);
            }
        }
    }

    /// Push into the ring bucket for `b`.
    #[inline]
    fn ring_push(&mut self, b: u64, entry: Entry<T>) {
        self.ring[(b % NUM_BUCKETS) as usize].push(entry);
        self.ring_len += 1;
    }
}

enum Head {
    Immediate,
    Current,
    Late,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut LadderQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, p)) = q.pop() {
            out.push((t.as_ps(), s, p));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = LadderQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(10), 2); // same time, later seq
        q.push(Time::from_ns(20), 4);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2, 4, 3]);
    }

    #[test]
    fn immediate_lane_is_fifo_but_merges_by_seq() {
        let mut q = LadderQueue::new();
        q.push(Time::ZERO, 1);
        q.push(Time::ZERO, 2);
        let (t, _, p) = q.pop().unwrap();
        assert_eq!((t, p), (Time::ZERO, 1));
        // Still at time zero: a new same-time push must pop after the
        // older seq still queued.
        q.push(Time::ZERO, 3);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![2, 3]);
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut q = LadderQueue::new();
        // Beyond the ring horizon (> NUM_BUCKETS buckets ahead).
        let far = Time::from_ps(BUCKET_WIDTH_PS * (NUM_BUCKETS + 50));
        let near = Time::from_ns(100);
        q.push(far, 2);
        q.push(near, 1);
        q.push(far + Time::from_ps(1), 3);
        let got = drain(&mut q);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].2, 1);
        assert_eq!(got[1].2, 2);
        assert_eq!(got[2].2, 3);
    }

    #[test]
    fn sparse_timeline_jumps_buckets() {
        let mut q = LadderQueue::new();
        // Events many empty ring-windows apart.
        for i in 0..5u32 {
            q.push(Time::from_ms(i as u64 * 7), i);
        }
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn push_behind_window_after_idle_jump_still_sorts() {
        let mut q = LadderQueue::new();
        let far = Time::from_ps(BUCKET_WIDTH_PS * (NUM_BUCKETS + 9) + 17);
        q.push(far, 9);
        // Materialize the head (slides the window far forward)…
        assert_eq!(q.peek_key().unwrap().0, far);
        // …then push an earlier event, as run_until + schedule_at can.
        q.push(Time::from_ns(5), 1);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 9]);
    }

    #[test]
    fn tier_migration_counters_track() {
        let mut q = LadderQueue::new();
        assert_eq!(q.window_advances(), 0);
        assert_eq!(q.overflow_migrations(), 0);
        // One near event, two past the ring horizon.
        let far = Time::from_ps(BUCKET_WIDTH_PS * (NUM_BUCKETS + 50));
        q.push(Time::from_ns(100), 1);
        q.push(far, 2);
        q.push(far + Time::from_ps(1), 3);
        drain(&mut q);
        assert!(q.window_advances() >= 2, "draining slid the window");
        assert_eq!(q.overflow_migrations(), 2, "both far events migrated");
    }

    #[test]
    fn late_lane_counters_track() {
        let mut q = LadderQueue::new();
        // Three entries in bucket 1, one in bucket 2.
        for (i, ps) in [10, 30, 20, BUCKET_WIDTH_PS + 5].into_iter().enumerate() {
            q.push(Time::from_ps(BUCKET_WIDTH_PS + ps), i as u32);
        }
        assert_eq!(q.late_pushes(), 0, "ring pushes are not late");
        assert_eq!(q.pop().unwrap().2, 0); // opens bucket 1
        assert_eq!(q.bucket_len_max(), 3);
        // Into the open window: before the sorted head, and after its tail.
        q.push(Time::from_ps(BUCKET_WIDTH_PS + 15), 10);
        q.push(Time::from_ps(BUCKET_WIDTH_PS + 40), 11);
        assert_eq!(q.late_pushes(), 2);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![10, 2, 1, 11, 3]);
        assert_eq!(q.bucket_len_max(), 3, "bucket 2 held one entry");
    }

    /// Bursts of 4 096 entries into successive buckets, each drained
    /// before the next, twice around the ring: the bucket buffers must
    /// hold about one burst, not one per bucket ever filled.
    #[test]
    fn ring_capacity_follows_pending() {
        const BURST: u64 = 4096;
        let mut q = LadderQueue::new();
        let mut peak = 0;
        for b in 1..=2 * NUM_BUCKETS {
            for i in 0..BURST {
                q.push(Time::from_ps(b * BUCKET_WIDTH_PS + i), i as u32);
            }
            peak = peak.max(q.len());
            while q.pop().is_some() {}
        }
        assert_eq!(peak, BURST as usize, "every burst went to the ring");
        let held = q.current.capacity() + q.ring.iter().map(Vec::capacity).sum::<usize>();
        let bound = 2 * peak + NUM_BUCKETS as usize * BUCKET_RESERVE;
        assert!(held <= bound, "bucket buffers hold {held} entries for a peak of {peak}");
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut q = LadderQueue::new();
        assert!(q.is_empty());
        q.push(Time::from_ns(1), 1);
        q.push(Time::from_us(900), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pushes(), 2);
    }
}
