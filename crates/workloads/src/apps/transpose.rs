//! Global-transpose applications: NPB FT and the DOE BigFFT kernel.
//!
//! Distributed FFTs exchange the entire working set across the machine
//! every iteration (pencil/slab transposes). The traffic crosses every
//! bisection link, so the simulator's contention model diverges from
//! MFACT's contention-free Hockney estimate — these are the paper's
//! bandwidth-bound, simulation-worthy cases.

use crate::apps::{grid_side, per_rank_volume, size_mult};
use crate::config::GenConfig;
use crate::synth::TraceSynth;
use masim_trace::{CollKind, Rank};

/// NPB FT: 3-D FFT.
///
/// Per iteration: local FFT compute, a global `Alltoall` transpose of the
/// full per-rank volume, more local compute, and the checksum
/// `Allreduce`. An initial `Bcast` distributes the problem setup.
pub fn ft(cfg: &GenConfig, s: &mut TraceSynth) {
    let per_rank = per_rank_volume(32 * 1024 * size_mult(cfg.size).min(4), cfg.ranks);
    let per_peer = (per_rank / cfg.ranks as u64).max(64);
    s.begin_round();
    for r in 0..s.ranks() {
        s.compute(Rank(r), 0.3);
    }
    s.coll_all(CollKind::Bcast, 1024, Rank(0));
    for _ in 0..cfg.iters {
        s.compute_round();
        s.coll_all(CollKind::Alltoall, per_peer, Rank(0));
        s.compute_round();
        s.coll_all(CollKind::Allreduce, 32, Rank(0));
    }
}

/// DOE BigFFT: large distributed FFT with pencil decomposition.
///
/// Per iteration: a *row transpose* (all-pairs exchange inside each row
/// of the √P × √P pencil grid, as point-to-point traffic), local compute,
/// then a *global* `Alltoall` for the column phase. The row exchanges are
/// exactly the sub-communicator all-to-alls of the real kernel, expressed
/// as point-to-point because traces record them that way after
/// `MPI_Comm_split`.
pub fn bigfft(cfg: &GenConfig, s: &mut TraceSynth) {
    let side = grid_side(cfg.ranks);
    assert_eq!(side * side, cfg.ranks, "BigFFT needs a square (power-of-4) rank count");
    let per_rank = per_rank_volume(32 * 1024 * size_mult(cfg.size).min(4), cfg.ranks);
    let row_peer_bytes = (per_rank / side as u64).max(64);
    let a2a_peer_bytes = (per_rank / cfg.ranks as u64).max(64);

    // All-pairs edges within each row of the grid.
    let mut row_edges: Vec<(u32, u32, u64)> = Vec::new();
    for row in 0..side {
        for i in 0..side {
            for j in (i + 1)..side {
                row_edges.push((row * side + i, row * side + j, row_peer_bytes));
            }
        }
    }
    s.coll_all(CollKind::Bcast, 4096, Rank(0));
    for _ in 0..cfg.iters {
        s.compute_round();
        s.symmetric_exchange(&row_edges, 1);
        s.compute_round();
        s.coll_all(CollKind::Alltoall, a2a_peer_bytes, Rank(0));
    }
    s.coll_all(CollKind::Allreduce, 16, Rank(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::App;
    use crate::generate;
    use masim_trace::{EventKind, Features};

    #[test]
    fn ft_volume_dominated_by_alltoall() {
        let cfg = GenConfig::test_default(App::Ft, 16);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        let f = Features::extract(&t);
        // No point-to-point: FT is collective-only.
        assert_eq!(f.no_m, 0.0);
        assert!(f.no_c > 0.0);
        // Alltoall carries nearly all bytes.
        let a2a_bytes: u64 = t
            .events
            .iter()
            .flatten()
            .filter_map(|e| match e.kind {
                EventKind::Coll { kind: CollKind::Alltoall, bytes, .. } => {
                    Some(bytes * (cfg.ranks as u64 - 1))
                }
                _ => None,
            })
            .sum();
        assert!(a2a_bytes as f64 / t.total_bytes() as f64 > 0.9);
    }

    #[test]
    fn ft_alltoall_count_matches_iters() {
        let mut cfg = GenConfig::test_default(App::Ft, 8);
        cfg.iters = 7;
        let t = generate(&cfg);
        let count = t.events[0]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Coll { kind: CollKind::Alltoall, .. }))
            .count();
        assert_eq!(count, 7);
    }

    #[test]
    fn bigfft_row_exchange_is_dense_within_rows() {
        let cfg = GenConfig::test_default(App::BigFft, 16);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        let f = Features::extract(&t);
        // Each rank talks p2p to its 3 row peers.
        assert!((f.cr - 3.0).abs() < 1e-9, "fan-out {}", f.cr);
    }

    #[test]
    fn bigfft_total_traffic_is_capped() {
        // Even at the largest size, per-op traffic stays within the cap.
        let mut cfg = GenConfig::test_default(App::BigFft, 64);
        cfg.size = 4;
        let t = generate(&cfg);
        // Per iteration: row exchange + global alltoall, each bounded by
        // the 16 MiB per-operation cap.
        let per_iter = t.total_bytes() / cfg.iters as u64;
        assert!(per_iter < 2 * (16 << 20) + (1 << 20), "{per_iter}");
    }
}
