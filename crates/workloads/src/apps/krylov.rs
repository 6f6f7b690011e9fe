//! Krylov-solver applications: NPB CG and Nekbone.
//!
//! Both iterate a sparse matrix-vector product (neighbor exchange)
//! bracketed by dot-product `Allreduce`s. The reductions make them
//! latency-sensitive as rank counts grow; the exchanges keep a modest
//! bandwidth demand.

use crate::apps::{per_rank_volume, size_mult};
use crate::config::GenConfig;
use crate::synth::TraceSynth;
use masim_trace::{CollKind, Rank};

/// NPB CG: conjugate gradient on a 2-D process grid.
///
/// CG decomposes a power-of-two world into an `sx × sy` grid with
/// `sx/sy ∈ {1, 2}`. Per iteration: the `q = A·p` row reduction
/// (point-to-point with row neighbors), the transpose-fold exchange with
/// the partner half of the grid, then two 8-byte dot `Allreduce`s.
pub fn cg(cfg: &GenConfig, s: &mut TraceSynth) {
    assert!(cfg.ranks.is_power_of_two(), "CG world must be a power of two");
    let k = cfg.ranks.trailing_zeros();
    let sx = 1u32 << k.div_ceil(2);
    let sy = cfg.ranks / sx;
    let vec_bytes = per_rank_volume(8 * 1024 * size_mult(cfg.size), cfg.ranks);

    // Row-neighbor edges (reduction partner) and fold-pair edges (the
    // transpose exchange of the vector halves).
    let id = |x: u32, y: u32| x + y * sx;
    let mut row_edges = Vec::new();
    let mut transpose_edges = Vec::new();
    for y in 0..sy {
        for x in 0..sx {
            if x + 1 < sx {
                row_edges.push((id(x, y), id(x + 1, y), vec_bytes));
            }
        }
    }
    let half = cfg.ranks / 2;
    for r in 0..half {
        transpose_edges.push((r, r + half, vec_bytes));
    }
    s.coll_all(CollKind::Bcast, 128, Rank(0));
    // CG runs many short iterations: 5 per knob unit.
    for _ in 0..cfg.iters * 5 {
        s.compute_round();
        s.symmetric_exchange(&row_edges, 1);
        if !transpose_edges.is_empty() {
            s.symmetric_exchange(&transpose_edges, 2);
        }
        s.coll_all(CollKind::Allreduce, 8, Rank(0));
        s.coll_all(CollKind::Allreduce, 8, Rank(0));
    }
}

/// Nekbone: spectral-element Poisson kernel.
///
/// Per CG iteration: a gather-scatter exchange with the six face
/// neighbors of a 3-D brick (spectral element faces, small payloads)
/// and *three* dot-product `Allreduce`s — Nekbone's hallmark is its
/// reduction frequency, which turns latency into the bottleneck at
/// scale. Section VI-B lists Nekbone among the communication-sensitive,
/// sometimes mis-classified apps.
pub fn nekbone(cfg: &GenConfig, s: &mut TraceSynth) {
    let dims = crate::apps::stencil::brick_dims(cfg.ranks);
    let faces = crate::apps::stencil::face_edges(dims);
    let face_bytes = per_rank_volume(512 * size_mult(cfg.size), cfg.ranks);
    let edges: Vec<(u32, u32, u64)> = faces.iter().map(|&(a, b)| (a, b, face_bytes)).collect();
    s.coll_all(CollKind::Bcast, 64, Rank(0));
    for _ in 0..cfg.iters * 6 {
        s.compute_round();
        s.symmetric_exchange(&edges, 1);
        for _ in 0..3 {
            s.coll_all(CollKind::Allreduce, 8, Rank(0));
        }
    }
    s.coll_all(CollKind::Allreduce, 8, Rank(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::App;
    use crate::generate;
    use masim_trace::{EventKind, Features};

    #[test]
    fn cg_valid_with_transpose_pattern() {
        let cfg = GenConfig::test_default(App::Cg, 16);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        let f = Features::extract(&t);
        assert!(f.no_c > 0.0);
        // Fold partner of rank 1 in a 16-rank world is rank 9.
        let talks_to_fold = t.events[1]
            .iter()
            .any(|e| matches!(e.kind, EventKind::Isend { peer, .. } if peer == Rank(9)));
        assert!(talks_to_fold, "transpose-fold traffic missing");
    }

    #[test]
    fn nekbone_reduction_heavy() {
        let cfg = GenConfig::test_default(App::Nekbone, 24);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        let f = Features::extract(&t);
        // 3 allreduces per CG iteration: collectives outnumber exchanges.
        let allreduce_count = t.events[0]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Coll { kind: CollKind::Allreduce, .. }))
            .count();
        assert_eq!(allreduce_count as u32, cfg.iters * 6 * 3 + 1);
        // Payloads are tiny: total collective bytes far below p2p bytes.
        assert!(f.tb_p2p > 0.0);
    }

    #[test]
    fn cg_dot_product_cadence() {
        let mut cfg = GenConfig::test_default(App::Cg, 4);
        cfg.iters = 2;
        let t = generate(&cfg);
        let dots = t.events[0]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Coll { kind: CollKind::Allreduce, .. }))
            .count();
        assert_eq!(dots, 2 * 5 * 2);
    }
}
