//! Messages and per-rank mailboxes (MPI matching semantics).

use crate::hash::IntMap;
use masim_trace::{Rank, Time};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// A point-to-point message in flight (application or lowered-collective
/// traffic). Plain `Copy` data: a message's identity is its index in the
/// [`MsgSlab`], so in-flight packets and flows refer to it by a `u32`
/// id instead of carrying an `Arc` clone through the event arena.
#[derive(Clone, Copy, Debug)]
pub struct Message {
    /// Source rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Payload size (≥ 1; zero-byte MPI messages still carry a header).
    pub bytes: u64,
    /// Matching tag (application tags plus the reserved collective space).
    pub tag: u32,
}

/// Id-indexed message table. Ids are assigned sequentially at injection
/// and never retired (a run's messages are bounded by its trace), so
/// the slab is a plain `Vec` and every lookup is a bounds-checked index
/// — no hashing, no refcounts on the packet/flow hot paths.
#[derive(Default, Debug)]
pub struct MsgSlab {
    msgs: Vec<Message>,
}

impl MsgSlab {
    /// Intern a message; returns its id.
    #[inline]
    pub fn push(&mut self, msg: Message) -> u32 {
        let id = self.msgs.len();
        assert!(id < u32::MAX as usize, "message slab exhausted");
        self.msgs.push(msg);
        id as u32
    }

    /// Look up a message by id.
    #[inline]
    pub fn get(&self, id: u32) -> &Message {
        &self.msgs[id as usize]
    }

    /// Messages interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True before the first injection.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// Matching state per destination rank: MPI's posted-receive queue and
/// unexpected-message queue, keyed by (source, tag). No wildcard
/// receives — DUMPI traces record fully-resolved matches.
///
/// Channels are transient (lowered collectives tag every instance
/// uniquely), so drained channels are removed to keep the maps small —
/// but their queue buffers park in a free pool instead of dropping, so
/// steady-state matching recycles capacity instead of calling the
/// allocator once per message.
#[derive(Default, Debug)]
pub struct Mailbox {
    /// Delivered messages with no posted receive yet: packed (src, tag)
    /// → FIFO of delivery times.
    unexpected: IntMap<u64, VecDeque<Time>>,
    /// Posted receives with no delivered message yet: packed (src, tag)
    /// → FIFO of receive tokens.
    posted: IntMap<u64, VecDeque<u64>>,
    /// Parked buffers of drained `unexpected` channels.
    pool_at: Vec<VecDeque<Time>>,
    /// Parked buffers of drained `posted` channels.
    pool_tok: Vec<VecDeque<u64>>,
}

/// Channel key: one map word (hashes in a single round) instead of a
/// `(u32, u32)` pair.
#[inline]
fn chan(src: Rank, tag: u32) -> u64 {
    (src.0 as u64) << 32 | tag as u64
}

impl Mailbox {
    /// A message arrived at `at`. Returns the matching posted-receive
    /// token if one was waiting.
    pub fn deliver(&mut self, src: Rank, tag: u32, at: Time) -> Option<u64> {
        let key = chan(src, tag);
        if let Some(q) = self.posted.get_mut(&key) {
            if let Some(token) = q.pop_front() {
                if q.is_empty() {
                    let q = self.posted.remove(&key).expect("just matched");
                    self.pool_tok.push(q);
                }
                return Some(token);
            }
        }
        match self.unexpected.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().push_back(at),
            Entry::Vacant(v) => {
                let mut q = self.pool_at.pop().unwrap_or_default();
                q.push_back(at);
                v.insert(q);
            }
        }
        None
    }

    /// A receive was posted. Returns the delivery time if a matching
    /// message already arrived (the receive completes immediately).
    pub fn post(&mut self, src: Rank, tag: u32, token: u64) -> Option<Time> {
        let key = chan(src, tag);
        if let Some(q) = self.unexpected.get_mut(&key) {
            if let Some(at) = q.pop_front() {
                if q.is_empty() {
                    let q = self.unexpected.remove(&key).expect("just matched");
                    self.pool_at.push(q);
                }
                return Some(at);
            }
        }
        match self.posted.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().push_back(token),
            Entry::Vacant(v) => {
                let mut q = self.pool_tok.pop().unwrap_or_default();
                q.push_back(token);
                v.insert(q);
            }
        }
        None
    }

    /// True when no state is left (used by leak checks in tests).
    pub fn is_empty(&self) -> bool {
        self.unexpected.is_empty() && self.posted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_then_deliver_matches() {
        let mut mb = Mailbox::default();
        assert_eq!(mb.post(Rank(1), 5, 42), None);
        assert_eq!(mb.deliver(Rank(1), 5, Time::from_us(3)), Some(42));
        assert!(mb.is_empty());
    }

    #[test]
    fn deliver_then_post_matches() {
        let mut mb = Mailbox::default();
        assert_eq!(mb.deliver(Rank(1), 5, Time::from_us(3)), None);
        assert_eq!(mb.post(Rank(1), 5, 42), Some(Time::from_us(3)));
        assert!(mb.is_empty());
    }

    #[test]
    fn matching_is_fifo_per_channel() {
        let mut mb = Mailbox::default();
        mb.deliver(Rank(1), 5, Time::from_us(1));
        mb.deliver(Rank(1), 5, Time::from_us(2));
        assert_eq!(mb.post(Rank(1), 5, 1), Some(Time::from_us(1)));
        assert_eq!(mb.post(Rank(1), 5, 2), Some(Time::from_us(2)));
    }

    #[test]
    fn channels_are_independent() {
        let mut mb = Mailbox::default();
        mb.post(Rank(1), 5, 10);
        assert_eq!(mb.deliver(Rank(1), 6, Time::from_us(1)), None, "tag differs");
        assert_eq!(mb.deliver(Rank(2), 5, Time::from_us(1)), None, "src differs");
        assert_eq!(mb.deliver(Rank(1), 5, Time::from_us(1)), Some(10));
        assert!(!mb.is_empty(), "two unexpected messages remain");
    }

    /// What is still waiting in a [`LinearMailbox`].
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Pending {
        Post(u64),
        Delivery(Time),
    }

    /// Reference twin of [`Mailbox`]: every unmatched post and delivery
    /// in one list in arrival order, the first entry of the other kind on
    /// the same `(src, tag)` wins. No maps, no queues, no buffer pool.
    #[derive(Default)]
    struct LinearMailbox {
        pending: Vec<(Rank, u32, Pending)>,
    }

    impl LinearMailbox {
        /// Remove and return the first pending entry on `(src, tag)` that
        /// `pick` accepts.
        fn take<T>(&mut self, src: Rank, tag: u32, pick: fn(Pending) -> Option<T>) -> Option<T> {
            let (i, hit) = self.pending.iter().enumerate().find_map(|(i, &(s, t, p))| {
                if (s, t) == (src, tag) {
                    pick(p).map(|hit| (i, hit))
                } else {
                    None
                }
            })?;
            self.pending.remove(i);
            Some(hit)
        }

        fn deliver(&mut self, src: Rank, tag: u32, at: Time) -> Option<u64> {
            let token = self.take(src, tag, |p| match p {
                Pending::Post(token) => Some(token),
                Pending::Delivery(_) => None,
            });
            if token.is_none() {
                self.pending.push((src, tag, Pending::Delivery(at)));
            }
            token
        }

        fn post(&mut self, src: Rank, tag: u32, token: u64) -> Option<Time> {
            let at = self.take(src, tag, |p| match p {
                Pending::Delivery(at) => Some(at),
                Pending::Post(_) => None,
            });
            if at.is_none() {
                self.pending.push((src, tag, Pending::Post(token)));
            }
            at
        }

        fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }
    }

    /// Both matchers side by side; every call asserts they answer alike.
    #[derive(Default)]
    struct Twins {
        fast: Mailbox,
        slow: LinearMailbox,
        calls: u64,
    }

    impl Twins {
        fn post(&mut self, src: u32, tag: u32) -> Option<Time> {
            self.calls += 1;
            let got = self.fast.post(Rank(src), tag, self.calls);
            assert_eq!(got, self.slow.post(Rank(src), tag, self.calls), "post #{}", self.calls);
            got
        }

        fn deliver(&mut self, src: u32, tag: u32) -> Option<u64> {
            self.calls += 1;
            let at = Time::from_ps(self.calls);
            let got = self.fast.deliver(Rank(src), tag, at);
            assert_eq!(got, self.slow.deliver(Rank(src), tag, at), "deliver #{}", self.calls);
            got
        }

        fn assert_same_emptiness(&self) {
            assert_eq!(self.fast.is_empty(), self.slow.is_empty(), "after {} calls", self.calls);
        }
    }

    /// Seeded fuzz: few channels so queues build up on both sides,
    /// interleaved posts and deliveries with a drifting bias so channels
    /// fill, drain (parking their buffers) and are reused.
    #[test]
    fn mailbox_matches_linear_scan_twin() {
        for seed in 0..2_000u64 {
            let mut rng = masim_rng::Rng::seed_from_u64(seed);
            let mut tw = Twins::default();
            let (srcs, tags) = (rng.gen_range_usize(1, 4) as u32, rng.gen_range_usize(1, 4) as u32);
            for _ in 0..rng.gen_range_usize(1, 120) {
                let post_bias = rng.next_f64();
                for _ in 0..rng.gen_range_usize(1, 12) {
                    let (src, tag) = (rng.next_u32() % srcs, rng.next_u32() % tags);
                    if rng.next_f64() < post_bias {
                        tw.post(src, tag);
                    } else {
                        tw.deliver(src, tag);
                    }
                }
            }
            tw.assert_same_emptiness();
        }
    }

    #[test]
    fn mailbox_matches_twin_on_hostile_shapes() {
        // Same tag from two sources: matching is per source, FIFO each.
        let mut tw = Twins::default();
        for src in [1, 2, 1, 2] {
            tw.deliver(src, 7);
        }
        assert_eq!(tw.post(2, 7), Some(Time::from_ps(2)));
        assert_eq!(tw.post(1, 7), Some(Time::from_ps(1)));
        assert_eq!(tw.post(1, 7), Some(Time::from_ps(3)));
        assert_eq!(tw.post(2, 7), Some(Time::from_ps(4)));
        tw.assert_same_emptiness();
        assert!(tw.fast.is_empty());

        // 100 deliveries before the first post drain in arrival order.
        let mut tw = Twins::default();
        for _ in 0..100 {
            tw.deliver(3, 0);
        }
        for k in 1..=100 {
            assert_eq!(tw.post(3, 0), Some(Time::from_ps(k)));
        }
        assert_eq!(tw.post(3, 0), None, "the 101st receive waits");
        tw.assert_same_emptiness();

        // A channel drained and reused, in both directions and across
        // channels, so every queue comes out of the buffer pool.
        let mut tw = Twins::default();
        for round in 0..50u32 {
            let (src, tag) = (round % 3, round % 2);
            let first = tw.calls + 1;
            if round % 2 == 0 {
                tw.post(src, tag);
                tw.post(src, tag);
                assert_eq!(tw.deliver(src, tag), Some(first));
                assert_eq!(tw.deliver(src, tag), Some(first + 1));
            } else {
                tw.deliver(src, tag);
                tw.deliver(src, tag);
                assert_eq!(tw.post(src, tag), Some(Time::from_ps(first)));
                assert_eq!(tw.post(src, tag), Some(Time::from_ps(first + 1)));
            }
            assert!(tw.fast.is_empty() && tw.slow.is_empty(), "round {round}");
        }
        assert!(!tw.fast.pool_at.is_empty() && !tw.fast.pool_tok.is_empty(), "pool exercised");
    }
}
