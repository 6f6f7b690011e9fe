//! Per-rank MPI state, shared by both trace consumers: the [`Mailbox`]
//! matches message arrivals (the simulator's arrival times, MFACT's
//! availability rows) against posted receives, and [`Requests`] holds
//! the request rules that [`crate::Trace::validate`] checks too.

use crate::ids::Rank;
use crate::trace::TraceError;

/// A point-to-point event of `rank` may name only a peer below `world`;
/// [`TraceError::PeerOutOfRange`] otherwise.
#[inline]
pub fn check_peer(rank: Rank, peer: Rank, world: u32) -> Result<(), TraceError> {
    if peer.0 < world {
        Ok(())
    } else {
        Err(TraceError::PeerOutOfRange { rank, peer })
    }
}

/// One rank's outstanding nonblocking requests, each holding the
/// replaying tool's own state `S`: the one statement of MPI's request
/// rules. An id is live from the `Isend`/`Irecv` that issues it until the
/// `Wait`/`WaitAll` that retires it, and may be issued again after that.
/// Every `u32` is a legal id; none is reserved, so a tool keeps its own
/// receives out of this table. A rank keeps a handful live, so an
/// unsorted vector with linear scans beats hashing: no per-request
/// allocation once warm, and retiring is a tail swap.
#[derive(Debug)]
pub struct Requests<S> {
    rank: Rank,
    live: Vec<(u32, S)>,
}

impl<S> Requests<S> {
    /// No live requests on `rank`.
    pub fn new(rank: Rank) -> Requests<S> {
        Requests { rank, live: Vec::new() }
    }

    #[inline]
    fn find(&self, req: u32) -> Result<usize, TraceError> {
        let dangling = || TraceError::DanglingWait { rank: self.rank, req };
        self.live.iter().position(|(id, _)| *id == req).ok_or_else(dangling)
    }

    /// Issue `req` with `state`; [`TraceError::RequestReuse`] while `req`
    /// is live.
    #[inline]
    pub fn issue(&mut self, req: u32, state: S) -> Result<&mut S, TraceError> {
        if self.find(req).is_ok() {
            return Err(TraceError::RequestReuse { rank: self.rank, req });
        }
        let at = self.live.len();
        self.live.push((req, state));
        Ok(&mut self.live[at].1)
    }

    /// The state of live request `req`; [`TraceError::DanglingWait`] if it
    /// was never issued or is already retired.
    #[inline]
    pub fn get(&self, req: u32) -> Result<&S, TraceError> {
        self.find(req).map(|i| &self.live[i].1)
    }

    /// [`Requests::get`], mutably.
    #[inline]
    pub fn get_mut(&mut self, req: u32) -> Result<&mut S, TraceError> {
        self.find(req).map(|i| &mut self.live[i].1)
    }

    /// A wait retires `req` and takes its state;
    /// [`TraceError::DanglingWait`] if it was never issued or is already
    /// retired.
    #[inline]
    pub fn retire(&mut self, req: u32) -> Result<S, TraceError> {
        self.find(req).map(|i| self.live.swap_remove(i).1)
    }

    /// The rank's stream ended: [`TraceError::UnwaitedRequest`] for a
    /// request still live.
    pub fn finish(&self) -> Result<(), TraceError> {
        match self.live.first() {
            Some(&(req, _)) => Err(TraceError::UnwaitedRequest { rank: self.rank, req }),
            None => Ok(()),
        }
    }
}

/// Matching state per destination rank: MPI's posted-receive queue and
/// unexpected-message queue in one list, keyed by (source, tag). No
/// wildcard receives — DUMPI traces record fully-resolved matches.
///
/// A delivery carries a `u64` payload (the simulator's arrival time in
/// ps, MFACT's availability-row index); a posted receive carries a `u64`
/// token naming who waits. One vector of 24-byte slots sorted by channel
/// key, FIFO inside a key. A channel never holds both kinds at once (a
/// delivery takes a waiting receive instead of queueing behind it, and
/// vice versa), so one binary search serves both directions: no hashing,
/// no per-channel allocation. Pending depth per rank stays ≤ 31 on every
/// corpus and Table II trace; the stated worst case is O(log n) + an
/// O(n) slot memmove per match for a rank with n pending entries.
#[derive(Default, Debug)]
pub struct Mailbox {
    slots: Vec<Slot>,
}

/// One unmatched receive or delivery.
#[derive(Debug)]
struct Slot {
    /// Packed (src, tag), see [`chan`].
    key: u64,
    /// Receive token when `posted`, else the delivery's payload.
    val: u64,
    posted: bool,
}

/// Channel key: source in the high word so one `u64` compare orders
/// slots by (src, tag).
#[inline]
fn chan(src: Rank, tag: u32) -> u64 {
    (src.0 as u64) << 32 | tag as u64
}

impl Mailbox {
    /// Take the oldest pending entry on `key` if it is of the other
    /// kind; otherwise queue `val` behind the key's own entries.
    #[inline]
    fn match_or_queue(&mut self, key: u64, val: u64, posted: bool) -> Option<u64> {
        let lo = self.slots.partition_point(|s| s.key < key);
        match self.slots.get(lo) {
            Some(s) if s.key == key && s.posted != posted => Some(self.slots.remove(lo).val),
            _ => {
                let hi = lo + self.slots[lo..].partition_point(|s| s.key == key);
                self.slots.insert(hi, Slot { key, val, posted });
                None
            }
        }
    }

    /// A message with `payload` arrived. Returns the matching
    /// posted-receive token if one was waiting.
    #[inline]
    pub fn deliver(&mut self, src: Rank, tag: u32, payload: u64) -> Option<u64> {
        self.match_or_queue(chan(src, tag), payload, false)
    }

    /// A receive was posted. Returns the payload of the oldest matching
    /// message if one already arrived (the receive completes
    /// immediately).
    #[inline]
    pub fn post(&mut self, src: Rank, tag: u32, token: u64) -> Option<u64> {
        self.match_or_queue(chan(src, tag), token, true)
    }

    /// True when no state is left.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_follow_the_mpi_rules_for_every_id() {
        let rank = Rank(3);
        for req in [0, 1, 0x8000_0000, u32::MAX] {
            let mut reqs = Requests::new(rank);
            assert_eq!(reqs.retire(req), Err(TraceError::DanglingWait { rank, req }));
            *reqs.issue(req, 1).unwrap() += 1;
            assert_eq!(reqs.issue(req, 0), Err(TraceError::RequestReuse { rank, req }));
            assert_eq!(reqs.finish(), Err(TraceError::UnwaitedRequest { rank, req }));
            assert_eq!(reqs.get(req), Ok(&2));
            assert_eq!(reqs.retire(req), Ok(2));
            assert_eq!(reqs.get(req), Err(TraceError::DanglingWait { rank, req }));
            assert_eq!(reqs.finish(), Ok(()));
            assert!(reqs.issue(req, 0).is_ok(), "a retired id may be issued again");
        }
        assert_eq!(check_peer(rank, Rank(1), 2), Ok(()));
        assert_eq!(
            check_peer(rank, Rank(2), 2),
            Err(TraceError::PeerOutOfRange { rank, peer: Rank(2) })
        );
    }

    #[test]
    fn post_then_deliver_matches() {
        let mut mb = Mailbox::default();
        assert_eq!(mb.post(Rank(1), 5, 42), None);
        assert_eq!(mb.deliver(Rank(1), 5, 3), Some(42));
        assert!(mb.is_empty());
    }

    #[test]
    fn deliver_then_post_matches() {
        let mut mb = Mailbox::default();
        assert_eq!(mb.deliver(Rank(1), 5, 3), None);
        assert_eq!(mb.post(Rank(1), 5, 42), Some(3));
        assert!(mb.is_empty());
    }

    #[test]
    fn matching_is_fifo_per_channel() {
        let mut mb = Mailbox::default();
        mb.deliver(Rank(1), 5, 1);
        mb.deliver(Rank(1), 5, 2);
        assert_eq!(mb.post(Rank(1), 5, 1), Some(1));
        assert_eq!(mb.post(Rank(1), 5, 2), Some(2));
    }

    #[test]
    fn channels_are_independent() {
        let mut mb = Mailbox::default();
        mb.post(Rank(1), 5, 10);
        assert_eq!(mb.deliver(Rank(1), 6, 1), None, "tag differs");
        assert_eq!(mb.deliver(Rank(2), 5, 1), None, "src differs");
        assert_eq!(mb.deliver(Rank(1), 5, 1), Some(10));
        assert!(!mb.is_empty(), "two unexpected messages remain");
    }

    /// What is still waiting in a [`LinearMailbox`].
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Pending {
        Post(u64),
        Delivery(u64),
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

        fn deliver(&mut self, src: Rank, tag: u32, payload: u64) -> Option<u64> {
            let token = self.take(src, tag, |p| match p {
                Pending::Post(token) => Some(token),
                Pending::Delivery(_) => None,
            });
            if token.is_none() {
                self.pending.push((src, tag, Pending::Delivery(payload)));
            }
            token
        }

        fn post(&mut self, src: Rank, tag: u32, token: u64) -> Option<u64> {
            let payload = self.take(src, tag, |p| match p {
                Pending::Delivery(payload) => Some(payload),
                Pending::Post(_) => None,
            });
            if payload.is_none() {
                self.pending.push((src, tag, Pending::Post(token)));
            }
            payload
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
        fn post(&mut self, src: u32, tag: u32) -> Option<u64> {
            self.calls += 1;
            let got = self.fast.post(Rank(src), tag, self.calls);
            assert_eq!(got, self.slow.post(Rank(src), tag, self.calls), "post #{}", self.calls);
            got
        }

        fn deliver(&mut self, src: u32, tag: u32) -> Option<u64> {
            self.calls += 1;
            let payload = self.calls;
            let got = self.fast.deliver(Rank(src), tag, payload);
            assert_eq!(got, self.slow.deliver(Rank(src), tag, payload), "deliver #{}", self.calls);
            got
        }

        /// A post or a delivery on `chan`; true if it matched.
        fn call(&mut self, post: bool, (src, tag): (u32, u32)) -> bool {
            if post {
                self.post(src, tag).is_some()
            } else {
                self.deliver(src, tag).is_some()
            }
        }

        fn assert_same_emptiness(&self) {
            assert_eq!(self.fast.is_empty(), self.slow.is_empty(), "after {} calls", self.calls);
        }
    }

    /// One seeded run: bursts of interleaved posts and deliveries, each
    /// burst with its own bias so lists fill, drain and are reused.
    /// Narrow: ≤ 3 sources × ≤ 3 tags, so single keys queue deep on both
    /// sides. Wide: up to 64 sources × 8 tags in bursts long enough that
    /// the sorted list passes 4 096 slots before the bias turns and
    /// drains it. Returns the list's high-water mark.
    fn fuzz(seed: u64, wide: bool) -> usize {
        let mut rng = masim_rng::Rng::seed_from_u64(seed);
        let (max_srcs, max_tags, max_rounds, burst) =
            if wide { (64, 8, 6, 4_096..8_192) } else { (3, 3, 119, 1..12) };
        let srcs = rng.gen_range_usize(1, max_srcs + 1) as u32;
        let tags = rng.gen_range_usize(1, max_tags + 1) as u32;
        let mut tw = Twins::default();
        let mut high_water = 0;
        for _ in 0..rng.gen_range_usize(1, max_rounds + 1) {
            let post_bias = rng.next_f64();
            for _ in 0..rng.gen_range_usize(burst.start, burst.end) {
                let chan = (rng.next_u32() % srcs, rng.next_u32() % tags);
                tw.call(rng.next_f64() < post_bias, chan);
                high_water = high_water.max(tw.fast.slots.len());
            }
        }
        tw.assert_same_emptiness();
        high_water
    }

    #[test]
    fn mailbox_matches_linear_scan_twin() {
        for seed in 0..2_000 {
            fuzz(seed, false);
        }
        let deepest = (0..12).map(|seed| fuzz(seed, true)).max().unwrap();
        assert!(deepest > 4_096, "wide regime only reached {deepest} slots");
    }

    #[test]
    fn mailbox_matches_twin_on_hostile_shapes() {
        // Same tag from two sources: matching is per source, FIFO each.
        let mut tw = Twins::default();
        for src in [1, 2, 1, 2] {
            tw.deliver(src, 7);
        }
        assert_eq!(tw.post(2, 7), Some(2));
        assert_eq!(tw.post(1, 7), Some(1));
        assert_eq!(tw.post(1, 7), Some(3));
        assert_eq!(tw.post(2, 7), Some(4));
        tw.assert_same_emptiness();
        assert!(tw.fast.is_empty());

        // 100 deliveries before the first post drain in arrival order.
        let mut tw = Twins::default();
        for _ in 0..100 {
            tw.deliver(3, 0);
        }
        for k in 1..=100 {
            assert_eq!(tw.post(3, 0), Some(k));
        }
        assert_eq!(tw.post(3, 0), None, "the 101st receive waits");
        tw.assert_same_emptiness();

        // A channel drained and reused, in both directions and across
        // channels.
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
                assert_eq!(tw.post(src, tag), Some(first));
                assert_eq!(tw.post(src, tag), Some(first + 1));
            }
            assert!(tw.fast.is_empty() && tw.slow.is_empty(), "round {round}");
        }

        // 4 096 distinct sources, answered in reverse key order: every
        // removal is at the tail of what is left.
        let mut tw = Twins::default();
        for src in 0..4_096 {
            tw.deliver(src, 1);
        }
        for src in (0..4_096).rev() {
            assert_eq!(tw.post(src, 1), Some(src as u64 + 1));
        }
        assert!(tw.fast.is_empty() && tw.slow.is_empty());

        // One key 4 096 deep drained FIFO while a smaller and a larger
        // key come and go around it, as either kind.
        let mut tw = Twins::default();
        for _ in 0..4_096 {
            tw.post(5, 5);
        }
        for k in 1..=4_096u64 {
            let (below, above) = if k % 2 == 0 { ((5, 4), (5, 6)) } else { ((4, 5), (6, 5)) };
            let post_below = k % 3 == 0;
            assert!(!tw.call(post_below, below));
            assert!(!tw.call(!post_below, above));
            assert_eq!(tw.deliver(5, 5), Some(k));
            assert!(tw.call(!post_below, below));
            assert!(tw.call(post_below, above));
        }
        assert!(tw.fast.is_empty() && tw.slow.is_empty());

        // `chan` packs (src, tag) into one word: the extremes and the
        // pairs that are neighbours only after packing stay distinct.
        const M: u32 = u32::MAX;
        let edge = [(0, 0), (0, M), (1, 0), (M - 1, M), (M, 0), (M, 1), (M, M - 1), (M, M)];
        let mut tw = Twins::default();
        for (i, &chan) in edge.iter().enumerate() {
            assert!(!tw.call(i % 2 == 0, chan) && !tw.call(i % 2 == 0, chan));
        }
        assert!(tw.fast.slots.windows(2).all(|w| w[0].key <= w[1].key), "list stays sorted");
        // Interleaved kinds on adjacent keys: each second call on a
        // channel queues behind its own kind, never matches next door.
        for (i, &(src, tag)) in edge.iter().enumerate().rev() {
            let first = 2 * i as u64 + 1;
            if i % 2 == 0 {
                assert_eq!(tw.deliver(src, tag), Some(first));
                assert_eq!(tw.deliver(src, tag), Some(first + 1));
                assert_eq!(tw.deliver(src, tag), None);
            } else {
                assert_eq!(tw.post(src, tag), Some(first));
                assert_eq!(tw.post(src, tag), Some(first + 1));
                assert_eq!(tw.post(src, tag), None);
            }
        }
        for (i, &chan) in edge.iter().enumerate() {
            assert!(tw.call(i % 2 == 0, chan));
        }
        assert!(tw.fast.is_empty() && tw.slow.is_empty());

        // The whole state is one vector, and once it has reached its
        // high-water mark matching never calls the allocator again.
        assert_eq!(std::mem::size_of::<Mailbox>(), std::mem::size_of::<Vec<u8>>());
        let mut mb = Mailbox::default();
        for k in 0..64 {
            mb.post(Rank(k % 16), k % 4, k as u64);
        }
        for k in 0..64 {
            assert_eq!(mb.deliver(Rank(k % 16), k % 4, 0), Some(k as u64));
        }
        let allocs = crate::alloc_counter::count();
        for k in 0..10_000u32 {
            let (src, tag) = (Rank(k % 61), k % 7);
            if k % 2 == 0 {
                for d in 0..(k % 64) as u64 {
                    assert_eq!(mb.post(src, tag ^ d as u32, d), None);
                }
                for d in 0..(k % 64) as u64 {
                    assert_eq!(mb.deliver(src, tag ^ d as u32, 0), Some(d));
                }
            } else {
                assert_eq!(mb.deliver(src, tag, k as u64), None);
                assert_eq!(mb.post(src, tag, 0), Some(k as u64));
            }
        }
        assert!(mb.is_empty());
        assert_eq!(crate::alloc_counter::count() - allocs, 0, "steady-state matching allocated");
    }
}
