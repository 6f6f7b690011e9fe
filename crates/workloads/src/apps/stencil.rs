//! Nearest-neighbor stencil applications: LULESH, CNS, MiniFE, BT.
//!
//! All four exchange halos with a fixed set of Cartesian neighbors every
//! iteration. Their traffic is spatially local, so on block mappings the
//! simulator sees almost no link sharing and agrees with MFACT to within
//! a percent — the paper's Figure 4(b) shows exactly this for MiniFE and
//! LULESH.

use crate::apps::{cube_side, grid_side, per_rank_volume, size_mult};
use crate::config::GenConfig;
use crate::synth::TraceSynth;
use masim_trace::{CollKind, Rank};

/// Decompose `ranks` into a near-cubic `px × py × pz` brick (exact for
/// perfect cubes; degrades gracefully to slabs for awkward counts).
pub fn brick_dims(ranks: u32) -> [u32; 3] {
    let mut best = [1, 1, ranks];
    let mut best_score = u32::MAX;
    let mut px = 1;
    while px * px * px <= ranks {
        if ranks.is_multiple_of(px) {
            let rest = ranks / px;
            let mut py = px;
            while py * py <= rest {
                if rest.is_multiple_of(py) {
                    let pz = rest / py;
                    let score = pz - px; // minimize aspect spread
                    if score < best_score {
                        best_score = score;
                        best = [px, py, pz];
                    }
                }
                py += 1;
            }
        }
        px += 1;
    }
    best
}

/// Undirected face-neighbor edges of a `dims` brick (no wraparound —
/// these are physical meshes with boundaries).
pub fn face_edges(dims: [u32; 3]) -> Vec<(u32, u32)> {
    let [px, py, pz] = dims;
    let id = |x: u32, y: u32, z: u32| x + y * px + z * px * py;
    let mut edges = Vec::new();
    for z in 0..pz {
        for y in 0..py {
            for x in 0..px {
                if x + 1 < px {
                    edges.push((id(x, y, z), id(x + 1, y, z)));
                }
                if y + 1 < py {
                    edges.push((id(x, y, z), id(x, y + 1, z)));
                }
                if z + 1 < pz {
                    edges.push((id(x, y, z), id(x, y, z + 1)));
                }
            }
        }
    }
    edges
}

fn sized_edges(edges: &[(u32, u32)], bytes: u64) -> Vec<(u32, u32, u64)> {
    edges.iter().map(|&(a, b)| (a, b, bytes)).collect()
}

/// LULESH: shock hydrodynamics on a cubic decomposition.
///
/// Per iteration: a compute round, a 6-face halo exchange (full faces),
/// a 12-edge exchange at 1/16 the payload, and the time-step-control
/// `Allreduce` — LULESH's famous `dtcourant`/`dthydro` reduction.
pub fn lulesh(cfg: &GenConfig, s: &mut TraceSynth) {
    let side = cube_side(cfg.ranks);
    assert_eq!(side * side * side, cfg.ranks, "LULESH needs a cubic rank count");
    let dims = [side, side, side];
    let faces = face_edges(dims);
    let edges12 = brick_edge_edges(dims);
    let face_bytes = per_rank_volume(2 * 1024 * size_mult(cfg.size), cfg.ranks);
    for _ in 0..cfg.iters {
        s.compute_round();
        s.symmetric_exchange(&sized_edges(&faces, face_bytes), 1);
        s.symmetric_exchange(&sized_edges(&edges12, (face_bytes / 16).max(64)), 2);
        s.coll_all(CollKind::Allreduce, 16, Rank(0));
    }
}

/// Undirected edge-neighbor (12 per interior cell) edges of a brick:
/// diagonal neighbors within each coordinate plane.
fn brick_edge_edges(dims: [u32; 3]) -> Vec<(u32, u32)> {
    let [px, py, pz] = dims;
    let id = |x: u32, y: u32, z: u32| x + y * px + z * px * py;
    let mut edges = Vec::new();
    for z in 0..pz {
        for y in 0..py {
            for x in 0..px {
                // xy-plane diagonals.
                if x + 1 < px && y + 1 < py {
                    edges.push((id(x, y, z), id(x + 1, y + 1, z)));
                }
                if x + 1 < px && y >= 1 {
                    edges.push((id(x, y, z), id(x + 1, y - 1, z)));
                }
                // xz-plane diagonals.
                if x + 1 < px && z + 1 < pz {
                    edges.push((id(x, y, z), id(x + 1, y, z + 1)));
                }
                // yz-plane diagonals.
                if y + 1 < py && z + 1 < pz {
                    edges.push((id(x, y, z), id(x, y + 1, z + 1)));
                }
            }
        }
    }
    edges
}

/// CNS: compressible Navier–Stokes mini-app.
///
/// Per iteration: two stencil sweeps (hyperbolic fluxes, then diffusion),
/// each preceded by a 6-face halo exchange; a stability `Allreduce` every
/// five steps.
pub fn cns(cfg: &GenConfig, s: &mut TraceSynth) {
    let dims = {
        let side = cube_side(cfg.ranks);
        assert_eq!(side * side * side, cfg.ranks, "CNS needs a cubic rank count");
        [side, side, side]
    };
    let faces = face_edges(dims);
    let face_bytes = per_rank_volume(2 * 1024 * size_mult(cfg.size), cfg.ranks);
    for step in 0..cfg.iters {
        s.compute_round();
        s.symmetric_exchange(&sized_edges(&faces, face_bytes), 1);
        s.compute_round();
        s.symmetric_exchange(&sized_edges(&faces, face_bytes / 2), 2);
        if step % 5 == 4 {
            s.coll_all(CollKind::Allreduce, 8, Rank(0));
        }
    }
}

/// MiniFE: implicit finite elements — assembly, then a CG solve.
///
/// Setup: an `Allgather` of row counts and a boundary-exchange warm-up.
/// Solve: per CG iteration a brick halo exchange (matrix-vector product)
/// and two 8-byte dot-product `Allreduce`s. Message sizes are small
/// relative to compute, which is why the paper measures MiniFE's
/// DIFFtotal under 1 %.
pub fn minife(cfg: &GenConfig, s: &mut TraceSynth) {
    let dims = brick_dims(cfg.ranks);
    let faces = face_edges(dims);
    let halo_bytes = per_rank_volume(512 * size_mult(cfg.size), cfg.ranks);
    // Assembly phase.
    s.compute_round();
    s.coll_all(CollKind::Allgather, 32, Rank(0));
    s.symmetric_exchange(&sized_edges(&faces, halo_bytes), 0);
    // CG iterations: 5 per "iter" knob to keep the dot-product cadence.
    for _ in 0..cfg.iters * 5 {
        s.compute_round();
        s.symmetric_exchange(&sized_edges(&faces, halo_bytes), 1);
        s.coll_all(CollKind::Allreduce, 8, Rank(0));
        s.coll_all(CollKind::Allreduce, 8, Rank(0));
    }
}

/// NPB BT: block-tridiagonal solver on a square process grid.
///
/// Per iteration, three alternating-direction sweeps; each sweep
/// exchanges faces with the four grid neighbors (wrapping — BT uses a
/// cyclic decomposition), then a residual `Allreduce` closes the
/// iteration.
pub fn bt(cfg: &GenConfig, s: &mut TraceSynth) {
    let side = grid_side(cfg.ranks);
    assert_eq!(side * side, cfg.ranks, "BT needs a square rank count");
    let id = |x: u32, y: u32| x + y * side;
    let mut edges = Vec::new();
    for y in 0..side {
        for x in 0..side {
            // Wrapping right and down neighbors, normalized then deduped
            // (the wrap edge appears from both endpoints).
            let right = id((x + 1) % side, y);
            let down = id(x, (y + 1) % side);
            let me = id(x, y);
            if me != right {
                edges.push((me.min(right), me.max(right)));
            }
            if me != down {
                edges.push((me.min(down), me.max(down)));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let face_bytes = per_rank_volume(1024 * size_mult(cfg.size), cfg.ranks);
    for _ in 0..cfg.iters {
        for sweep in 0..3u32 {
            s.compute_round();
            s.symmetric_exchange(&sized_edges(&edges, face_bytes), sweep);
        }
        s.coll_all(CollKind::Allreduce, 40, Rank(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::App;
    use crate::generate;
    use masim_trace::{EventKind, Features};

    #[test]
    fn brick_dims_factor_exactly() {
        for r in [8, 12, 16, 24, 27, 64, 97, 128, 1000] {
            let [a, b, c] = brick_dims(r);
            assert_eq!(a * b * c, r, "ranks {r}");
            assert!(a <= b && b <= c);
        }
    }

    #[test]
    fn face_edges_count() {
        // 3x3x3 brick: 3 directions × 2×3×3 internal faces = 54 edges.
        let e = face_edges([3, 3, 3]);
        assert_eq!(e.len(), 54);
        // Ring (1x1xN): N-1 edges.
        assert_eq!(face_edges([1, 1, 7]).len(), 6);
    }

    #[test]
    fn lulesh_valid_and_local() {
        let cfg = GenConfig::test_default(App::Lulesh, 27);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        let f = Features::extract(&t);
        // 26-neighborhood capped at faces+edges: fan-out must stay small
        // relative to world size (communication is local).
        assert!(f.cr <= 19.0, "fan-out {}", f.cr);
        assert!(f.no_is > 0.0 && f.no_ir > 0.0);
    }

    #[test]
    fn cns_two_exchanges_per_step() {
        let mut cfg = GenConfig::test_default(App::Cns, 8);
        cfg.iters = 5;
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        // Rank 0 (corner) has 3 face neighbors; 2 exchanges per step ×
        // 5 steps × 3 neighbors × 2 (send+recv issues) = 60 issues.
        let issues = t.events[0]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Isend { .. } | EventKind::Irecv { .. }))
            .count();
        assert_eq!(issues, 60);
    }

    #[test]
    fn minife_dot_products_dominate_call_count() {
        let cfg = GenConfig::test_default(App::MiniFe, 12);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        let f = Features::extract(&t);
        // Two allreduces per CG iteration, 5 CG iterations per knob iter.
        assert_eq!(f.no_c as u32, (cfg.iters * 5 * 2 + 1/*allgather*/) * cfg.ranks);
    }

    #[test]
    fn bt_needs_square() {
        let cfg = GenConfig::test_default(App::Bt, 16);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "cubic")]
    fn lulesh_rejects_non_cube() {
        let cfg = GenConfig {
            app: App::Lulesh,
            ranks: 26, // not a cube
            ..GenConfig::test_default(App::Ep, 26)
        };
        let mut s = TraceSynth::new(GenConfig::test_default(App::Ep, 26), 1.0);
        lulesh(&cfg, &mut s);
    }
}
