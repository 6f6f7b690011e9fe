//! NPB LU: pipelined wavefront solver.
//!
//! LU factorizes on a 2-D process grid; the SSOR sweeps propagate a
//! dependence wave from the north-west corner using many *small blocking
//! sends and receives*. The pattern is latency-dominated — the opposite
//! end of the spectrum from FT's bandwidth-bound transposes.

use crate::apps::{grid_side, size_mult, stamp_contention};
use crate::config::GenConfig;
use crate::synth::TraceSynth;
use masim_trace::{CollKind, Rank, Trace};

/// Number of pencil blocks per sweep (pipeline depth).
const BLOCKS_PER_SWEEP: u32 = 4;

/// Generate an LU trace.
///
/// Per iteration: a lower-triangular sweep (receive from north and west,
/// compute, send to south and east) followed by the mirrored
/// upper-triangular sweep, then a residual `Allreduce` every five
/// iterations. Each sweep is pipelined over `BLOCKS_PER_SWEEP` blocks
/// of small messages.
pub fn lu(cfg: &GenConfig) -> Trace {
    let side = grid_side(cfg.ranks);
    assert_eq!(side * side, cfg.ranks, "LU needs a square rank count");
    let id = |x: u32, y: u32| Rank(x + y * side);
    // Pencil faces are thin: a few KB regardless of class.
    let bytes = 1024 * size_mult(cfg.size).min(4);
    let mut s = TraceSynth::new(cfg.clone(), stamp_contention(cfg.app));
    s.coll_all(CollKind::Bcast, 256, Rank(0));

    for it in 0..cfg.iters {
        // Lower sweep: wave from (0,0) to (side-1, side-1).
        s.compute_round();
        for block in 0..BLOCKS_PER_SWEEP {
            let tag = it * 100 + block;
            for y in 0..side {
                for x in 0..side {
                    let me = id(x, y);
                    if x > 0 {
                        s.recv(me, id(x - 1, y), bytes, tag);
                    }
                    if y > 0 {
                        s.recv(me, id(x, y - 1), bytes, tag);
                    }
                    if x + 1 < side {
                        s.send(me, id(x + 1, y), bytes, tag);
                    }
                    if y + 1 < side {
                        s.send(me, id(x, y + 1), bytes, tag);
                    }
                }
            }
        }
        // Upper sweep: wave from (side-1, side-1) back to (0,0).
        s.compute_round();
        for block in 0..BLOCKS_PER_SWEEP {
            let tag = it * 100 + 50 + block;
            for y in (0..side).rev() {
                for x in (0..side).rev() {
                    let me = id(x, y);
                    if x + 1 < side {
                        s.recv(me, id(x + 1, y), bytes, tag);
                    }
                    if y + 1 < side {
                        s.recv(me, id(x, y + 1), bytes, tag);
                    }
                    if x > 0 {
                        s.send(me, id(x - 1, y), bytes, tag);
                    }
                    if y > 0 {
                        s.send(me, id(x, y - 1), bytes, tag);
                    }
                }
            }
        }
        if it % 5 == 4 {
            s.coll_all(CollKind::Allreduce, 40, Rank(0));
        }
    }
    s.coll_all(CollKind::Allreduce, 40, Rank(0));
    s.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::App;
    use masim_trace::{EventKind, Features};

    #[test]
    fn lu_valid_and_blocking() {
        let cfg = GenConfig::test_default(App::Lu, 16);
        let t = lu(&cfg);
        assert_eq!(t.validate(), Ok(()));
        let f = Features::extract(&t);
        // LU is all blocking point-to-point: no nonblocking issues.
        assert_eq!(f.no_is, 0.0);
        assert_eq!(f.no_ir, 0.0);
        assert!(f.no_s > 0.0 && f.no_r > 0.0);
        // Synchronous share of p2p time is 100%.
        assert!((f.tsyn - f.tp2p).abs() < 1e-12);
    }

    #[test]
    fn lu_messages_are_small() {
        let cfg = GenConfig::test_default(App::Lu, 16);
        let t = lu(&cfg);
        for e in t.events.iter().flatten() {
            if let EventKind::Send { bytes, .. } = e.kind {
                assert!(bytes <= 8 * 1024, "LU message unexpectedly large: {bytes}");
            }
        }
    }

    #[test]
    fn lu_corner_ranks_have_fewer_messages() {
        let cfg = GenConfig::test_default(App::Lu, 16);
        let t = lu(&cfg);
        let msgs = |r: usize| {
            t.events[r]
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Send { .. } | EventKind::Recv { .. }))
                .count()
        };
        // Corner (0,0) sends 2/receives 0 in the lower sweep; interior
        // rank 5 = (1,1) does 4 each way.
        assert!(msgs(0) < msgs(5));
    }

    #[test]
    fn lu_send_recv_counts_balance() {
        let cfg = GenConfig::test_default(App::Lu, 9);
        let t = lu(&cfg);
        let f = Features::extract(&t);
        assert_eq!(f.no_s, f.no_r, "every send has a matching recv");
    }
}
