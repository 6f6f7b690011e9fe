//! Lowering collectives into point-to-point rounds.
//!
//! The simulator executes collectives as the actual message exchanges of
//! the standard MPICH algorithms, so collective traffic experiences the
//! same routing and contention as application point-to-point traffic.
//! Algorithm choices (and therefore uncongested costs) match MFACT's
//! Thakur–Gropp formulas in `masim-mfact::cost` exactly — any
//! disagreement between the tools then comes from *contention*, which is
//! the effect the study isolates.
//!
//! Each rank runs a sequence of rounds, each `{receive to post, send to
//! issue, then wait for both}`. Every algorithm here exchanges with at
//! most one peer in each direction per round, and round `k` is a closed
//! form in `(kind, r, p, bytes, root, k)`: the runner computes a round
//! with [`round`] when the rank reaches it, so an in-flight collective
//! is its round index, never a stored schedule.

use masim_mfact::cost::{A2A_BRUCK_SWITCH, LONG_MSG_SWITCH};
use masim_trace::{CollKind, Rank};

/// One round of a lowered collective for one rank.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Round {
    /// (peer, bytes) to receive this round.
    pub recv: Option<(Rank, u64)>,
    /// (peer, bytes) to send this round.
    pub send: Option<(Rank, u64)>,
}

/// A rank's rounds for one collective, collected by [`lower`]: executed
/// in order, with a wait-all barrier between rounds (matching blocking
/// per-round algorithm implementations).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schedule {
    /// The rounds, executed sequentially.
    pub rounds: Vec<Round>,
}

/// Collectives one rank can number in the lowered-collective tag space.
pub const MAX_COLL_ORDINALS: u32 = 1 << 20;

/// Rounds one collective can number in the tag space: pairwise exchange
/// needs p − 1, so up to 2 049 ranks.
pub const MAX_COLL_ROUNDS: u32 = 1 << 11;

/// Reserved tag space for lowered collective traffic: bit 31 set, then
/// the collective ordinal (20 bits) and round (11 bits) packed below.
/// The runner refuses a collective outside these bounds with a typed
/// error before it issues a round, so the asserts are invariants.
pub fn coll_tag(ordinal: u32, round: u32) -> u32 {
    assert!(ordinal < MAX_COLL_ORDINALS, "too many collectives in one trace");
    assert!(round < MAX_COLL_ROUNDS, "collective rounds overflow tag space");
    0x8000_0000 | (ordinal << 11) | round
}

fn ceil_log2(p: u32) -> u32 {
    if p <= 1 {
        0
    } else {
        32 - (p - 1).leading_zeros()
    }
}

/// ⌊log₂ p⌋: the exchange rounds of the largest power-of-two subset.
fn floor_log2(p: u32) -> u32 {
    31 - p.max(1).leading_zeros()
}

/// Minimum on-the-wire payload (headers); zero-byte barriers still
/// exchange something.
const MIN_BYTES: u64 = 8;

/// Rounds of a collective over `p` ranks with per-rank payload `bytes`;
/// the same for every rank (idle ranks run empty rounds).
pub fn rounds(kind: CollKind, p: u32, bytes: u64) -> u32 {
    let (logp, log2) = (ceil_log2(p), floor_log2(p));
    // The non-power-of-two fold (or proxy) step.
    let rem = u32::from(!p.is_power_of_two());
    let short = bytes <= LONG_MSG_SWITCH;
    match kind {
        CollKind::Barrier | CollKind::Gather | CollKind::Scatter => logp,
        CollKind::Bcast | CollKind::Reduce if short => logp,
        CollKind::Bcast => logp + log2 + rem,
        CollKind::Reduce => log2 + logp,
        CollKind::Allreduce if short => log2 + 2 * rem,
        CollKind::Allreduce => 2 * log2 + rem,
        CollKind::Allgather => log2 + rem,
        CollKind::ReduceScatter => log2,
        CollKind::Alltoall if bytes <= A2A_BRUCK_SWITCH => logp,
        CollKind::Alltoall | CollKind::Alltoallv => p.saturating_sub(1),
    }
}

/// Round `k` (`k < rounds(kind, p, bytes)`) of rank `r`'s part in a
/// collective over `p` ranks with per-rank payload `bytes` (total send
/// volume for `Alltoallv`).
pub fn round(kind: CollKind, r: Rank, p: u32, bytes: u64, root: Rank, k: u32) -> Round {
    debug_assert!(r.0 < p && k < rounds(kind, p, bytes));
    let b = bytes.max(MIN_BYTES);
    let short = bytes <= LONG_MSG_SWITCH;
    // The long-message tree phases spread the payload over log p levels.
    let tree = || b * (p as u64 - 1) / p as u64 / ceil_log2(p).max(1) as u64;
    match kind {
        CollKind::Barrier => dissemination(r, p, MIN_BYTES, k),
        CollKind::Bcast if short => binomial_down(r, p, root, b, 1, k),
        // Scatter + recursive-doubling allgather (van de Geijn): log p
        // tree rounds, then the doubling rounds.
        CollKind::Bcast => match k.checked_sub(ceil_log2(p)) {
            None => binomial_down(r, p, root, tree(), 1, k),
            Some(k) => recursive_doubling(r, p, b / p as u64, k),
        },
        CollKind::Reduce if short => binomial_up(r, p, root, b, 1, k),
        CollKind::Reduce => match k.checked_sub(floor_log2(p)) {
            None => recursive_halving(r, p, b / p as u64, k),
            Some(k) => binomial_up(r, p, root, tree(), 1, k),
        },
        // Recursive doubling: exchange full payload each round.
        CollKind::Allreduce if short => pairwise_pow2_exchange(r, p, b, k),
        // Rabenseifner: reduce-scatter + allgather, both with
        // geometrically shrinking/growing chunks.
        CollKind::Allreduce => match k.checked_sub(floor_log2(p)) {
            None => recursive_halving(r, p, b / p as u64, k),
            Some(k) => recursive_doubling(r, p, b / p as u64, k),
        },
        CollKind::Gather => binomial_up(r, p, root, b, 2, k),
        CollKind::Scatter => binomial_down(r, p, root, b, 2, k),
        CollKind::Allgather => recursive_doubling(r, p, b, k),
        CollKind::ReduceScatter => recursive_halving(r, p, b / p.max(1) as u64, k),
        // Bruck for small payloads: round k moves roughly half the
        // working set to rank r + 2^k.
        CollKind::Alltoall if bytes <= A2A_BRUCK_SWITCH => {
            dissemination(r, p, (b * p as u64 / 2).max(MIN_BYTES), k)
        }
        CollKind::Alltoall => pairwise_ring(r, p, b, k),
        CollKind::Alltoallv => {
            // Pairwise over the rank's own total volume, split evenly.
            let per = (b / (p.saturating_sub(1)).max(1) as u64).max(MIN_BYTES);
            pairwise_ring(r, p, per, k)
        }
    }
}

/// Rank `r`'s rounds for a collective, collected: [`round`] for every
/// `k` below [`rounds`].
pub fn lower(kind: CollKind, r: Rank, p: u32, bytes: u64, root: Rank) -> Schedule {
    assert!(r.0 < p);
    Schedule {
        rounds: (0..rounds(kind, p, bytes)).map(|k| round(kind, r, p, bytes, root, k)).collect(),
    }
}

fn send(to: u32, bytes: u64) -> Round {
    Round { recv: None, send: Some((Rank(to), bytes)) }
}

fn recv(from: u32, bytes: u64) -> Round {
    Round { recv: Some((Rank(from), bytes)), send: None }
}

/// Send `bytes` to `to` while receiving as many from `from`.
fn shift(to: u32, from: u32, bytes: u64) -> Round {
    Round { recv: Some((Rank(from), bytes)), send: Some((Rank(to), bytes)) }
}

/// Largest power of two ≤ p.
fn pow2_floor(p: u32) -> u32 {
    1 << floor_log2(p)
}

/// Dissemination pattern: round k, send to r+2^k, receive from r−2^k.
fn dissemination(r: Rank, p: u32, bytes: u64, k: u32) -> Round {
    let d = 1u32 << k;
    shift((r.0 + d) % p, (r.0 + p - d % p) % p, bytes)
}

/// Exchange `bytes` with partner `r ^ 2^j` inside the largest
/// power-of-two subset; ranks beyond it idle.
fn butterfly(r: Rank, p: u32, j: u32, bytes: u64) -> Round {
    if r.0 < pow2_floor(p) {
        let partner = r.0 ^ (1 << j);
        shift(partner, partner, bytes)
    } else {
        Round::default()
    }
}

/// The non-power-of-two step between rank `r ≥ p2` (p2 the largest
/// power of two ≤ p) and its proxy `r − p2`: `inward` folds the rank's
/// data into the proxy, otherwise the proxy hands the result back.
fn fold(r: Rank, p: u32, bytes: u64, inward: bool) -> Round {
    let p2 = pow2_floor(p);
    if r.0 >= p2 {
        if inward {
            send(r.0 - p2, bytes)
        } else {
            recv(r.0 - p2, bytes)
        }
    } else if r.0 < p - p2 {
        if inward {
            recv(r.0 + p2, bytes)
        } else {
            send(r.0 + p2, bytes)
        }
    } else {
        Round::default()
    }
}

/// Full-payload exchange with partner `r ^ 2^k` (recursive doubling as
/// used by short-message allreduce). Non-power-of-two remainders fold
/// into the power-of-two set first and unfold at the end.
fn pairwise_pow2_exchange(r: Rank, p: u32, bytes: u64, k: u32) -> Round {
    match k.checked_sub(u32::from(!p.is_power_of_two())) {
        None => fold(r, p, bytes, true),
        Some(j) if j < floor_log2(p) => butterfly(r, p, j, bytes),
        Some(_) => fold(r, p, bytes, false),
    }
}

/// Recursive doubling allgather shape: round k exchanges `bytes · 2^k`
/// with partner `r ^ 2^k` (power-of-two part only; remainder ranks get
/// the final result from their proxy afterwards).
fn recursive_doubling(r: Rank, p: u32, bytes: u64, k: u32) -> Round {
    if k < floor_log2(p) {
        butterfly(r, p, k, bytes.max(MIN_BYTES) << k)
    } else {
        fold(r, p, bytes.max(MIN_BYTES) * p as u64, false)
    }
}

/// Recursive halving (reduce-scatter shape): round k exchanges
/// `bytes · 2^j` with partner `r ^ 2^j`, j = log p − 1 − k.
fn recursive_halving(r: Rank, p: u32, bytes: u64, k: u32) -> Round {
    let j = floor_log2(p) - 1 - k;
    butterfly(r, p, j, bytes.max(MIN_BYTES) << j)
}

/// Binomial tree, root → leaves (bcast/scatter). `shrink == 1` sends the
/// full payload down every edge (bcast); `shrink == 2` halves the
/// payload per level (scatter).
fn binomial_down(r: Rank, p: u32, root: Rank, bytes: u64, shrink: u64, k: u32) -> Round {
    let vr = (r.0 + p - root.0 % p) % p; // virtual rank, root at 0
    let d = 1u32 << (ceil_log2(p) - 1 - k);
    let level_bytes =
        if shrink == 1 { bytes } else { ((bytes * p as u64) >> (k + 1)).max(MIN_BYTES) };
    if vr < d && vr + d < p {
        send((vr + d + root.0) % p, level_bytes)
    } else if (d..2 * d).contains(&vr) {
        recv((vr - d + root.0) % p, level_bytes)
    } else {
        Round::default()
    }
}

/// Binomial tree, leaves → root (reduce/gather): the mirror image of
/// [`binomial_down`], with payload *growing* toward the root for gather.
fn binomial_up(r: Rank, p: u32, root: Rank, bytes: u64, grow: u64, k: u32) -> Round {
    let vr = (r.0 + p - root.0 % p) % p;
    let d = 1u32 << k;
    let level_bytes = if grow == 1 { bytes } else { (bytes << k).max(MIN_BYTES) };
    if (d..2 * d).contains(&vr) {
        send((vr - d + root.0) % p, level_bytes)
    } else if vr < d && vr + d < p {
        recv((vr + d + root.0) % p, level_bytes)
    } else {
        Round::default()
    }
}

/// Pairwise-exchange all-to-all for large payloads: p−1 rounds, round k
/// sending `bytes` to `r + k + 1` and receiving from `r − k − 1`.
fn pairwise_ring(r: Rank, p: u32, bytes: u64, k: u32) -> Round {
    let i = k + 1;
    shift((r.0 + i) % p, (r.0 + p - i) % p, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Cross-rank consistency: every send in some rank's round must have
    /// a matching recv in the peer's same round, with equal bytes.
    fn check_consistency(kind: CollKind, p: u32, bytes: u64, root: Rank) {
        let scheds: Vec<Schedule> = (0..p).map(|r| lower(kind, Rank(r), p, bytes, root)).collect();
        let rounds = scheds[0].rounds.len();
        for s in &scheds {
            assert_eq!(s.rounds.len(), rounds, "{kind}: ragged round counts");
        }
        for round in 0..rounds {
            let mut sends: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
            let mut recvs: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
            for (r, s) in scheds.iter().enumerate() {
                if let Some((peer, b)) = s.rounds[round].send {
                    sends.entry((r as u32, peer.0)).or_default().push(b);
                }
                if let Some((peer, b)) = s.rounds[round].recv {
                    recvs.entry((peer.0, r as u32)).or_default().push(b);
                }
            }
            assert_eq!(sends, recvs, "{kind} p={p} round {round} mismatch");
        }
    }

    #[test]
    fn all_kinds_consistent_pow2() {
        for kind in CollKind::ALL {
            for p in [2, 4, 8, 16] {
                check_consistency(kind, p, 512, Rank(0));
                check_consistency(kind, p, 64 * 1024, Rank(0));
            }
        }
    }

    #[test]
    fn all_kinds_consistent_non_pow2() {
        for kind in CollKind::ALL {
            for p in [3, 5, 6, 7, 12] {
                check_consistency(kind, p, 512, Rank(0));
                check_consistency(kind, p, 64 * 1024, Rank(0));
            }
        }
    }

    #[test]
    fn rooted_collectives_respect_root() {
        for kind in [CollKind::Bcast, CollKind::Reduce, CollKind::Gather, CollKind::Scatter] {
            for root in [0u32, 3, 7] {
                check_consistency(kind, 8, 4096, Rank(root));
            }
        }
        // Bcast from root 3: rank 3 never receives.
        let s = lower(CollKind::Bcast, Rank(3), 8, 4096, Rank(3));
        assert!(s.rounds.iter().all(|r| r.recv.is_none()));
        // And some other rank does receive.
        let s5 = lower(CollKind::Bcast, Rank(5), 8, 4096, Rank(3));
        assert!(s5.rounds.iter().any(|r| r.recv.is_some()));
    }

    #[test]
    fn barrier_rounds_match_formula() {
        let s = lower(CollKind::Barrier, Rank(0), 64, 0, Rank(0));
        assert_eq!(s.rounds.len(), 6); // ceil(log2 64)
    }

    #[test]
    fn allreduce_small_total_volume_matches_formula() {
        // Recursive doubling: each rank sends log p × m bytes.
        let m = 1024;
        let s = lower(CollKind::Allreduce, Rank(5), 16, m, Rank(0));
        let sent: u64 = s.rounds.iter().filter_map(|r| r.send).map(|(_, b)| b).sum();
        assert_eq!(sent, 4 * m);
    }

    #[test]
    fn allreduce_large_total_volume_matches_rabenseifner() {
        // Rabenseifner: ~2·m·(p-1)/p per rank.
        let m = 1 << 20;
        let p = 16u32;
        let s = lower(CollKind::Allreduce, Rank(5), p, m, Rank(0));
        let sent: u64 = s.rounds.iter().filter_map(|r| r.send).map(|(_, b)| b).sum();
        let expect = 2 * (m / p as u64) * (p as u64 - 1);
        assert_eq!(sent, expect);
    }

    #[test]
    fn alltoall_switches_algorithms() {
        let small = lower(CollKind::Alltoall, Rank(0), 16, 256, Rank(0));
        assert_eq!(small.rounds.len(), 4, "Bruck: log p rounds");
        let large = lower(CollKind::Alltoall, Rank(0), 16, 64 * 1024, Rank(0));
        assert_eq!(large.rounds.len(), 15, "pairwise: p-1 rounds");
    }

    #[test]
    fn coll_tags_are_disjoint_from_app_tags() {
        let t = coll_tag(7, 3);
        assert!(t & 0x8000_0000 != 0);
        assert_ne!(coll_tag(7, 3), coll_tag(7, 4));
        assert_ne!(coll_tag(7, 3), coll_tag(8, 3));
    }

    #[test]
    #[should_panic(expected = "too many collectives")]
    fn tag_overflow_detected() {
        let _ = coll_tag(1 << 20, 0);
    }

    /// The lowering as it was when every round was materialized: one
    /// `Vec`-building function per algorithm. Kept verbatim as the
    /// reference [`round`] and [`rounds`] are judged against.
    mod reference {
        use super::super::{ceil_log2, MIN_BYTES};
        use masim_mfact::cost::{A2A_BRUCK_SWITCH, LONG_MSG_SWITCH};
        use masim_trace::{CollKind, Rank};

        #[derive(Clone, PartialEq, Eq, Debug, Default)]
        pub struct Round {
            pub recvs: Vec<(Rank, u64)>,
            pub sends: Vec<(Rank, u64)>,
        }

        #[derive(Clone, PartialEq, Eq, Debug, Default)]
        pub struct Schedule {
            pub rounds: Vec<Round>,
        }

        pub fn lower(kind: CollKind, r: Rank, p: u32, bytes: u64, root: Rank) -> Schedule {
            assert!(r.0 < p);
            let b = bytes.max(MIN_BYTES);
            match kind {
                CollKind::Barrier => dissemination(r, p, MIN_BYTES),
                CollKind::Bcast => {
                    if bytes <= LONG_MSG_SWITCH {
                        binomial_down(r, p, root, b, 1)
                    } else {
                        let mut s = binomial_down(
                            r,
                            p,
                            root,
                            b * (p as u64 - 1) / p as u64 / ceil_log2(p).max(1) as u64,
                            1,
                        );
                        let mut ag = recursive_doubling(r, p, b / p as u64);
                        s.rounds.append(&mut ag.rounds);
                        s
                    }
                }
                CollKind::Reduce => {
                    if bytes <= LONG_MSG_SWITCH {
                        binomial_up(r, p, root, b, 1)
                    } else {
                        let mut s = recursive_halving(r, p, b / p as u64);
                        let mut g = binomial_up(
                            r,
                            p,
                            root,
                            b * (p as u64 - 1) / p as u64 / ceil_log2(p).max(1) as u64,
                            1,
                        );
                        s.rounds.append(&mut g.rounds);
                        s
                    }
                }
                CollKind::Allreduce => {
                    if bytes <= LONG_MSG_SWITCH {
                        pairwise_pow2_exchange(r, p, b)
                    } else {
                        let mut s = recursive_halving(r, p, b / p as u64);
                        let mut ag = recursive_doubling(r, p, b / p as u64);
                        s.rounds.append(&mut ag.rounds);
                        s
                    }
                }
                CollKind::Gather => binomial_up(r, p, root, b, 2),
                CollKind::Scatter => binomial_down(r, p, root, b, 2),
                CollKind::Allgather => recursive_doubling(r, p, b),
                CollKind::ReduceScatter => recursive_halving(r, p, b / p.max(1) as u64),
                CollKind::Alltoall => {
                    if bytes <= A2A_BRUCK_SWITCH {
                        bruck(r, p, b)
                    } else {
                        pairwise_ring(r, p, b)
                    }
                }
                CollKind::Alltoallv => {
                    let per = (b / (p.saturating_sub(1)).max(1) as u64).max(MIN_BYTES);
                    pairwise_ring(r, p, per)
                }
            }
        }

        fn dissemination(r: Rank, p: u32, bytes: u64) -> Schedule {
            let mut s = Schedule::default();
            for k in 0..ceil_log2(p) {
                let d = 1u32 << k;
                s.rounds.push(Round {
                    sends: vec![(Rank((r.0 + d) % p), bytes)],
                    recvs: vec![(Rank((r.0 + p - d % p) % p), bytes)],
                });
            }
            s
        }

        fn pow2_floor(p: u32) -> u32 {
            let mut x = 1;
            while x * 2 <= p {
                x *= 2;
            }
            x
        }

        fn pairwise_pow2_exchange(r: Rank, p: u32, bytes: u64) -> Schedule {
            let p2 = pow2_floor(p);
            let mut s = Schedule::default();
            let rem = p - p2;
            if rem > 0 {
                if r.0 >= p2 {
                    s.rounds.push(Round { sends: vec![(Rank(r.0 - p2), bytes)], recvs: vec![] });
                } else if r.0 < rem {
                    s.rounds.push(Round { sends: vec![], recvs: vec![(Rank(r.0 + p2), bytes)] });
                } else {
                    s.rounds.push(Round::default());
                }
            }
            if r.0 < p2 {
                for k in 0..ceil_log2(p2) {
                    let partner = Rank(r.0 ^ (1 << k));
                    s.rounds.push(Round {
                        sends: vec![(partner, bytes)],
                        recvs: vec![(partner, bytes)],
                    });
                }
            } else {
                for _ in 0..ceil_log2(p2) {
                    s.rounds.push(Round::default());
                }
            }
            if rem > 0 {
                if r.0 >= p2 {
                    s.rounds.push(Round { sends: vec![], recvs: vec![(Rank(r.0 - p2), bytes)] });
                } else if r.0 < rem {
                    s.rounds.push(Round { sends: vec![(Rank(r.0 + p2), bytes)], recvs: vec![] });
                } else {
                    s.rounds.push(Round::default());
                }
            }
            s
        }

        fn recursive_doubling(r: Rank, p: u32, bytes: u64) -> Schedule {
            let p2 = pow2_floor(p);
            let mut s = Schedule::default();
            if r.0 < p2 {
                for k in 0..ceil_log2(p2) {
                    let partner = Rank(r.0 ^ (1 << k));
                    let chunk = bytes.max(MIN_BYTES) << k;
                    s.rounds.push(Round {
                        sends: vec![(partner, chunk)],
                        recvs: vec![(partner, chunk)],
                    });
                }
            } else {
                for _ in 0..ceil_log2(p2) {
                    s.rounds.push(Round::default());
                }
            }
            let rem = p - p2;
            if rem > 0 {
                let full = bytes.max(MIN_BYTES) * p as u64;
                if r.0 >= p2 {
                    s.rounds.push(Round { sends: vec![], recvs: vec![(Rank(r.0 - p2), full)] });
                } else if r.0 < rem {
                    s.rounds.push(Round { sends: vec![(Rank(r.0 + p2), full)], recvs: vec![] });
                } else {
                    s.rounds.push(Round::default());
                }
            }
            s
        }

        fn recursive_halving(r: Rank, p: u32, bytes: u64) -> Schedule {
            let p2 = pow2_floor(p);
            let logp = ceil_log2(p2);
            let mut s = Schedule::default();
            if r.0 < p2 {
                for k in (0..logp).rev() {
                    let partner = Rank(r.0 ^ (1 << k));
                    let chunk = (bytes.max(MIN_BYTES)) << k;
                    s.rounds.push(Round {
                        sends: vec![(partner, chunk)],
                        recvs: vec![(partner, chunk)],
                    });
                }
            } else {
                for _ in 0..logp {
                    s.rounds.push(Round::default());
                }
            }
            s
        }

        fn binomial_down(r: Rank, p: u32, root: Rank, bytes: u64, shrink: u64) -> Schedule {
            let vr = (r.0 + p - root.0 % p) % p;
            let logp = ceil_log2(p);
            let mut s = Schedule::default();
            for k in (0..logp).rev() {
                let d = 1u32 << k;
                let level = (logp - 1 - k) as u64;
                let level_bytes = if shrink == 1 {
                    bytes
                } else {
                    ((bytes * p as u64) >> (level + 1)).max(MIN_BYTES)
                };
                let mut round = Round::default();
                if vr < d && vr + d < p {
                    let peer = Rank((vr + d + root.0) % p);
                    round.sends.push((peer, level_bytes));
                } else if (d..2 * d).contains(&vr) {
                    let peer = Rank((vr - d + root.0) % p);
                    round.recvs.push((peer, level_bytes));
                }
                s.rounds.push(round);
            }
            s
        }

        fn binomial_up(r: Rank, p: u32, root: Rank, bytes: u64, grow: u64) -> Schedule {
            let vr = (r.0 + p - root.0 % p) % p;
            let logp = ceil_log2(p);
            let mut s = Schedule::default();
            for k in 0..logp {
                let d = 1u32 << k;
                let level_bytes = if grow == 1 { bytes } else { (bytes << k).max(MIN_BYTES) };
                let mut round = Round::default();
                if (d..2 * d).contains(&vr) {
                    let peer = Rank((vr - d + root.0) % p);
                    round.sends.push((peer, level_bytes));
                } else if vr < d && vr + d < p {
                    let peer = Rank((vr + d + root.0) % p);
                    round.recvs.push((peer, level_bytes));
                }
                s.rounds.push(round);
            }
            s
        }

        fn bruck(r: Rank, p: u32, bytes: u64) -> Schedule {
            let mut s = Schedule::default();
            for k in 0..ceil_log2(p) {
                let d = 1u32 << k;
                let vol = (bytes * p as u64 / 2).max(MIN_BYTES);
                s.rounds.push(Round {
                    sends: vec![(Rank((r.0 + d) % p), vol)],
                    recvs: vec![(Rank((r.0 + p - d % p) % p), vol)],
                });
            }
            s
        }

        fn pairwise_ring(r: Rank, p: u32, bytes: u64) -> Schedule {
            let mut s = Schedule::default();
            for i in 1..p {
                s.rounds.push(Round {
                    sends: vec![(Rank((r.0 + i) % p), bytes)],
                    recvs: vec![(Rank((r.0 + p - i) % p), bytes)],
                });
            }
            s
        }
    }

    /// A reference round as a [`Round`]: it must hold at most one
    /// receive and at most one send.
    fn one_each(reference: &reference::Round) -> Round {
        assert!(reference.recvs.len() <= 1 && reference.sends.len() <= 1, "{reference:?}");
        Round { recv: reference.recvs.first().copied(), send: reference.sends.first().copied() }
    }

    /// Round for round, [`round`] and [`rounds`] are the materialized
    /// reference lowering: every kind, small and boundary world sizes,
    /// payloads on both sides of every algorithm switch, three roots, and
    /// every rank (64 spread ranks past 128). CI runs this by name.
    #[test]
    fn rounds_in_place_match_the_materialized_reference() {
        let worlds = (1..=40).chain([63, 64, 65, 127, 128, 1000, 1024, 1728]);
        let payloads = [
            0,
            1,
            7,
            8,
            9,
            A2A_BRUCK_SWITCH - 1,
            A2A_BRUCK_SWITCH,
            A2A_BRUCK_SWITCH + 1,
            LONG_MSG_SWITCH - 1,
            LONG_MSG_SWITCH,
            LONG_MSG_SWITCH + 1,
            64 * 1024,
            1 << 20,
        ];
        let mut compared = 0u64;
        for p in worlds {
            let ranks: Vec<u32> = if p > 128 {
                (0..64).map(|i| i * (p - 1) / 63).collect()
            } else {
                (0..p).collect()
            };
            let mut roots = vec![0, 1 % p, p - 1];
            roots.dedup();
            for kind in CollKind::ALL {
                for bytes in payloads {
                    let n = rounds(kind, p, bytes);
                    for &root in &roots {
                        for &r in &ranks {
                            let want = reference::lower(kind, Rank(r), p, bytes, Rank(root));
                            let ctx = format!("{kind} p={p} bytes={bytes} root={root} rank={r}");
                            assert_eq!(n as usize, want.rounds.len(), "{ctx}: round count");
                            for (k, w) in want.rounds.iter().enumerate() {
                                let got = round(kind, Rank(r), p, bytes, Rank(root), k as u32);
                                assert_eq!(got, one_each(w), "{ctx} round {k}");
                            }
                            compared += n as u64;
                        }
                    }
                }
            }
        }
        assert!(compared > 1_000_000, "{compared} rounds compared");
    }
}
