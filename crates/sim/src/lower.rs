//! Lowering collectives into point-to-point rounds.
//!
//! The simulator executes collectives as the message exchanges of the
//! standard MPICH algorithms, so collective traffic sees the same routing
//! and contention as application traffic. A collective is a short list of
//! phases (binomial tree, recursive-doubling butterfly, dissemination,
//! pairwise shift), and every upward phase is a downward one run
//! backwards with send and receive swapped: `Reduce` and `Gather` are
//! `Bcast` and `Scatter` reversed, recursive halving is recursive
//! doubling reversed. When p is not a power of two, one fold wraps every
//! butterfly: rank r past the largest power of two p₂ ≤ p folds into its
//! proxy r − p₂ before it and gets the result back after it.
//!
//! Uncongested, with equal arrivals on one node, a power-of-two p costs
//! what MFACT's Thakur–Gropp formulas charge, to the ps, except where a
//! 0-byte edge crosses the wire as the simulator's 1-byte header (every
//! `Barrier` round; `ReduceScatter` and `Alltoallv` chunks under a byte).
//! For other p the trees finish early, the root's sends overlapping, and
//! each butterfly pays two fold rounds; the root oracle
//! `zero_network_collectives_cost_their_closed_forms` states each gap.
//!
//! Each rank runs a sequence of rounds, each `{receive to post, send to
//! issue, then wait for both}`, with at most one peer each way, and round
//! `k` is a closed form in `(kind, r, p, bytes, root, k)`: the runner
//! computes it with [`round`] when the rank reaches it, so an in-flight
//! collective is its round index, never a stored schedule.

use masim_trace::{CollKind, Rank, A2A_BRUCK_SWITCH, LONG_MSG_SWITCH};

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

/// ⌈log₂ p⌉, 0 for p ≤ 1: the rounds of a tree or a dissemination.
fn ceil_log2(p: u32) -> u32 {
    32 - p.saturating_sub(1).leading_zeros()
}

/// ⌊log₂ p⌋: the exchange rounds of the largest power-of-two subset.
fn floor_log2(p: u32) -> u32 {
    31 - p.max(1).leading_zeros()
}

/// The round shapes a collective is built from.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Binomial tree from the root: in round k, virtual rank v < 2^k
    /// (root at 0) sends to v + 2^k. ⌈log₂ p⌉ rounds.
    Tree,
    /// Recursive doubling over the largest power of two p₂ ≤ p: round k
    /// exchanges with r ⊕ 2^k, and ranks from p₂ on idle. ⌊log₂ p⌋ rounds.
    Doubling,
    /// Rank r ≥ p₂ sends to its proxy r − p₂: one round when p is not a
    /// power of two, none when it is.
    Fold,
    /// Round k sends to r + 2^k and receives from r − 2^k. ⌈log₂ p⌉ rounds.
    Dissemination,
    /// Round k sends to r + k + 1 and receives from r − k − 1: p − 1
    /// rounds that share the phase's bytes as evenly as whole bytes allow.
    Pairwise,
}

/// One phase of a lowered collective.
#[derive(Clone, Copy, Debug)]
struct Phase {
    shape: Shape,
    /// Bytes an edge carries, or, when `split`, bytes per contribution.
    bytes: u64,
    /// A tree edge carries its child's whole subtree and a butterfly edge
    /// every contribution its sender holds (scatter, allgather), rather
    /// than `bytes` once (bcast, allreduce).
    split: bool,
    /// Run backwards, with send and receive swapped.
    rev: bool,
}

/// Up to four phases, run in order; `None`s are skipped.
type Plan = [Option<Phase>; 4];

fn phase(shape: Shape, bytes: u64, split: bool) -> Option<Phase> {
    Some(Phase { shape, bytes, split, rev: false })
}

/// `plan` run backwards: its phases in reverse order, each reversed.
fn reversed(mut plan: Plan) -> Plan {
    plan.reverse();
    plan.map(|ph| ph.map(Phase::rev))
}

/// The phases of a collective over `p` ranks with per-rank payload
/// `bytes` (total send volume for `Alltoallv`).
fn plan(kind: CollKind, p: u32, bytes: u64) -> Plan {
    use Shape::*;
    let pw = u64::from(p.max(1));
    // The long-message algorithms move the payload as p blocks. An
    // allgather's unfold carries the p − 1 blocks its rank lacks; an
    // allreduce's, the whole vector.
    let chunk = bytes / pw;
    let fold = |bytes| phase(Fold, bytes, false);
    let unfold = |bytes| fold(bytes).map(Phase::rev);
    let short = bytes <= LONG_MSG_SWITCH;
    match kind {
        CollKind::Barrier => [phase(Dissemination, 0, false), None, None, None],
        CollKind::Bcast if short => [phase(Tree, bytes, false), None, None, None],
        // van de Geijn: scatter the blocks, then allgather them.
        CollKind::Bcast => [
            phase(Tree, chunk, true),
            fold(chunk),
            phase(Doubling, chunk, true),
            unfold((pw - 1) * chunk),
        ],
        CollKind::Scatter => [phase(Tree, bytes, true), None, None, None],
        CollKind::Reduce => reversed(plan(CollKind::Bcast, p, bytes)),
        CollKind::Gather => reversed(plan(CollKind::Scatter, p, bytes)),
        CollKind::Allgather => {
            [fold(bytes), phase(Doubling, bytes, true), unfold(bytes.saturating_mul(pw - 1)), None]
        }
        CollKind::ReduceScatter => reversed(plan(CollKind::Allgather, p, chunk)),
        CollKind::Allreduce if short => {
            [fold(bytes), phase(Doubling, bytes, false), unfold(bytes), None]
        }
        // Rabenseifner: reduce-scatter by recursive halving, then
        // allgather by recursive doubling, inside one fold.
        CollKind::Allreduce => {
            let doubling = phase(Doubling, chunk, true);
            [fold(pw * chunk), doubling.map(Phase::rev), doubling, unfold(pw * chunk)]
        }
        // Bruck below the switch: round k moves half the working set.
        CollKind::Alltoall if bytes <= A2A_BRUCK_SWITCH => {
            [phase(Dissemination, bytes * pw / 2, false), None, None, None]
        }
        CollKind::Alltoall => {
            [phase(Pairwise, bytes.saturating_mul(pw - 1), false), None, None, None]
        }
        CollKind::Alltoallv => [phase(Pairwise, bytes, false), None, None, None],
    }
}

impl Phase {
    fn rev(self) -> Phase {
        Phase { rev: !self.rev, ..self }
    }

    fn rounds(self, p: u32) -> u32 {
        match self.shape {
            Shape::Tree | Shape::Dissemination => ceil_log2(p),
            Shape::Doubling => floor_log2(p),
            Shape::Fold => u32::from(!p.is_power_of_two()),
            Shape::Pairwise => p.saturating_sub(1),
        }
    }

    /// Round `k` of rank `r`'s part, `root < p`.
    fn round(self, r: u32, p: u32, root: u32, k: u32) -> Round {
        if self.rev {
            let fwd = Phase { rev: false, ..self }.round(r, p, root, self.rounds(p) - 1 - k);
            return Round { recv: fwd.send, send: fwd.recv };
        }
        let (b, p2) = (self.bytes, 1u32 << floor_log2(p));
        // An edge carrying `n` contributions; `d` is the log-round
        // shapes' distance (k < 32 for them).
        let edge = |n: u32| if self.split { b.saturating_mul(u64::from(n)) } else { b };
        let d = || 1u32 << k;
        match self.shape {
            Shape::Tree => {
                let (v, d) = ((r + p - root) % p, d());
                // Child x, reached in round k, heads the ⌈(p − x)/2^(k+1)⌉
                // ranks x + j·2^(k+1).
                let subtree = |x: u32| edge((p - x).div_ceil(2 * d));
                if v < d && v + d < p {
                    send((v + d + root) % p, subtree(v + d))
                } else if (d..2 * d).contains(&v) {
                    recv((v - d + root) % p, subtree(v))
                } else {
                    Round::default()
                }
            }
            Shape::Doubling if r < p2 => {
                let d = d();
                let peer = r ^ d;
                // Before round k, rank v holds its aligned group of 2^k
                // ranks, plus the fold of each member below p − p₂.
                let held = |v: u32| edge(d + (p - p2).saturating_sub(v & !(d - 1)).min(d));
                Round { recv: Some((Rank(peer), held(peer))), send: Some((Rank(peer), held(r))) }
            }
            Shape::Fold if r >= p2 => send(r - p2, b),
            Shape::Fold if r < p - p2 => recv(r + p2, b),
            Shape::Doubling | Shape::Fold => Round::default(),
            Shape::Dissemination => shift((r + d()) % p, (r + p - d()) % p, b),
            Shape::Pairwise => {
                let (n, i) = (u64::from(p - 1), k + 1);
                shift((r + i) % p, (r + p - i) % p, b / n + u64::from(u64::from(k) < b % n))
            }
        }
    }
}

/// Rounds of a collective over `p` ranks with per-rank payload `bytes`;
/// the same for every rank (idle ranks run empty rounds).
pub fn rounds(kind: CollKind, p: u32, bytes: u64) -> u32 {
    plan(kind, p, bytes).into_iter().flatten().map(|ph| ph.rounds(p)).sum()
}

/// Round `k` (`k < rounds(kind, p, bytes)`) of rank `r`'s part in a
/// collective over `p` ranks with per-rank payload `bytes` (total send
/// volume for `Alltoallv`).
pub fn round(kind: CollKind, r: Rank, p: u32, bytes: u64, root: Rank, mut k: u32) -> Round {
    debug_assert!(r.0 < p && k < rounds(kind, p, bytes));
    for ph in plan(kind, p, bytes).into_iter().flatten() {
        let n = ph.rounds(p);
        if k < n {
            return ph.round(r.0, p, root.0 % p, k);
        }
        k -= n;
    }
    Round::default()
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
