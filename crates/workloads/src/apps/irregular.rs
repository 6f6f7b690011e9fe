//! Irregular-communication applications: Crystal Router, FillBoundary,
//! and NPB DT.
//!
//! These are the traces where the paper finds simulation genuinely
//! necessary: CR and FB show more than 20 % DIFFtotal because their
//! "irregular and intensive communication patterns" (Figure 4's caption
//! discussion) hit shared links in ways a contention-free model cannot
//! see.

use crate::apps::{per_rank_volume, size_mult};
use crate::config::GenConfig;
use crate::synth::TraceSynth;
use masim_trace::{CollKind, Rank};

/// Crystal Router: the Nek5000 generalized all-to-all kernel.
///
/// Messages route through `log2(P)` hypercube stages; at stage `d` every
/// rank exchanges its accumulated payload with partner `r XOR 2^d`. The
/// payloads are data-dependent and irregular (±50 % around the mean),
/// and high stages pair ranks that are far apart on any physical
/// topology — maximal link sharing.
pub fn cr(cfg: &GenConfig, s: &mut TraceSynth) {
    assert!(cfg.ranks.is_power_of_two(), "CR world must be a power of two");
    let stages = cfg.ranks.trailing_zeros();
    let base = per_rank_volume(8 * 1024 * size_mult(cfg.size).min(4), cfg.ranks);
    s.coll_all(CollKind::Bcast, 128, Rank(0));
    for round in 0..cfg.iters {
        s.compute_round();
        for d in 0..stages {
            let bit = 1u32 << d;
            let mut edges = Vec::with_capacity(cfg.ranks as usize / 2);
            for r in 0..cfg.ranks {
                let partner = r ^ bit;
                if r < partner {
                    let u: f64 = s.rng().next_f64();
                    let bytes = ((base as f64) * (0.5 + u)) as u64;
                    edges.push((r, partner, bytes.max(64)));
                }
            }
            s.symmetric_exchange(&edges, round * 32 + d);
        }
    }
    s.barrier_all();
}

/// FillBoundary: the BoxLib/AMReX ghost-cell fill.
///
/// Each rank owns a set of AMR boxes whose neighbor lists are irregular
/// in both degree (2–14 partners) and payload (two decades of spread).
/// Degree and volume also differ *per rank*, which adds the load
/// imbalance the paper observes. The box graph is fixed at setup and
/// re-exchanged every step.
pub fn fill_boundary(cfg: &GenConfig, s: &mut TraceSynth) {
    let base = per_rank_volume(2 * 1024 * size_mult(cfg.size).min(2), cfg.ranks);

    // Build the irregular box-neighbor graph once, deterministically.
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    for r in 0..cfg.ranks {
        let degree = 2 + (s.rng().next_u32() % 7);
        for _ in 0..degree {
            // Mix of near neighbors (AMR locality) and far refinement
            // partners.
            let near: bool = s.rng().next_f64() < 0.7;
            let peer = if near {
                let off = 1 + (s.rng().next_u32() % 4);
                (r + off) % cfg.ranks
            } else {
                // Refinement partners: spatially local in the AMR sense
                // (a few dozen ranks away), not uniformly random — this
                // is what keeps real FB hotspots bounded.
                let off = 5 + (s.rng().next_u32() % 64);
                (r + off) % cfg.ranks
            };
            if peer == r {
                continue;
            }
            // Payload spread over two decades.
            let mag = s.rng().next_f64();
            let bytes = ((base as f64) * 0.01f64.max(mag * mag)) as u64;
            edges.push((r.min(peer), r.max(peer), bytes.max(64)));
        }
    }
    edges.sort_unstable();
    edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    s.coll_all(CollKind::Allgather, 32, Rank(0)); // box metadata digest
    for _ in 0..cfg.iters {
        s.compute_round();
        s.symmetric_exchange(&edges, 1);
        s.compute_round();
        s.symmetric_exchange(&edges, 2);
        s.coll_all(CollKind::Reduce, 32, Rank(0));
    }
}

/// NPB DT: data traffic over a task graph.
///
/// Sources feed large messages through a binary reduction tree to a
/// sink: leaves send to their parents, inner nodes aggregate and
/// forward. Communication is blocking and bandwidth-heavy but the run is
/// short — the paper excludes DT from the timing study for exactly that
/// reason (sub-second runs).
pub fn dt(cfg: &GenConfig, s: &mut TraceSynth) {
    let msg = per_rank_volume(512 * 1024 * size_mult(cfg.size), cfg.ranks);
    s.coll_all(CollKind::Bcast, 64, Rank(0));
    let n = cfg.ranks;
    for round in 0..cfg.iters {
        s.compute_round();
        // Children send to parent ((r-1)/2), processed bottom-up so the
        // trace records parents receiving in child order.
        for r in (1..n).rev() {
            let parent = (r - 1) / 2;
            s.send(Rank(r), Rank(parent), msg, round);
        }
        for r in 0..n {
            let left = 2 * r + 1;
            let right = 2 * r + 2;
            if left < n {
                s.recv(Rank(r), Rank(left), msg, round);
            }
            if right < n {
                s.recv(Rank(r), Rank(right), msg, round);
            }
        }
    }
    s.coll_all(CollKind::Reduce, 16, Rank(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::App;
    use crate::generate;
    use masim_trace::{EventKind, Features};

    #[test]
    fn cr_hypercube_partners() {
        let cfg = GenConfig::test_default(App::Cr, 16);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        // Rank 0 exchanges with 1, 2, 4, 8 each iteration.
        let peers: std::collections::HashSet<u32> = t.events[0]
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Isend { peer, .. } => Some(peer.0),
                _ => None,
            })
            .collect();
        assert_eq!(peers, [1u32, 2, 4, 8].into_iter().collect());
    }

    #[test]
    fn cr_sizes_are_irregular() {
        let cfg = GenConfig::test_default(App::Cr, 16);
        let t = generate(&cfg);
        let sizes: Vec<u64> = t
            .events
            .iter()
            .flatten()
            .filter_map(|e| match e.kind {
                EventKind::Isend { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min > 1.5, "CR payload spread {max}/{min}");
    }

    #[test]
    fn fb_degree_is_irregular() {
        let cfg = GenConfig::test_default(App::FillBoundary, 32);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        // Per-rank distinct-peer counts must vary.
        let f = Features::extract(&t);
        assert!(f.cr > 2.0, "mean fan-out {}", f.cr);
        let degree = |r: usize| -> usize {
            t.events[r]
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Isend { peer, .. } => Some(peer.0),
                    _ => None,
                })
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        let degrees: Vec<usize> = (0..32).map(degree).collect();
        assert!(degrees.iter().max() > degrees.iter().min(), "uniform degrees {degrees:?}");
    }

    #[test]
    fn dt_tree_flows_to_root() {
        let cfg = GenConfig::test_default(App::Dt, 7);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        // Root (0) only receives; leaves only send.
        let root_sends =
            t.events[0].iter().filter(|e| matches!(e.kind, EventKind::Send { .. })).count();
        assert_eq!(root_sends, 0);
        let leaf_recvs =
            t.events[6].iter().filter(|e| matches!(e.kind, EventKind::Recv { .. })).count();
        assert_eq!(leaf_recvs, 0);
    }

    #[test]
    fn dt_messages_are_large() {
        let cfg = GenConfig::test_default(App::Dt, 7);
        let t = generate(&cfg);
        for e in t.events.iter().flatten() {
            if let EventKind::Send { bytes, .. } = e.kind {
                assert!(bytes >= 64 * 1024, "DT message small: {bytes}");
            }
        }
    }
}
