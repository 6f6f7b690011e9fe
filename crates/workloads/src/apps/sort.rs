//! NPB IS: integer bucket sort.
//!
//! IS is the paper's most model-hostile benchmark: every iteration moves
//! the whole key array through an `Alltoallv` whose per-rank volumes are
//! data-dependent (bucket occupancy), so the traffic is both global and
//! imbalanced. Figure 3 shows IS with the largest communication- and
//! total-time gaps between the tools, and Section VI-B lists IS among
//! the frequently mis-classified, load-imbalanced apps at large rank
//! counts.

use crate::apps::{per_rank_volume, size_mult};
use crate::config::GenConfig;
use crate::synth::TraceSynth;
use masim_trace::{CollKind, Rank};

/// Generate an IS trace.
///
/// Per iteration:
/// 1. local key generation / counting (imbalanced compute round);
/// 2. `Allreduce` of the bucket-size table;
/// 3. `Alltoallv` of the keys with data-dependent per-rank volumes;
/// 4. local permutation compute and a partial-verification `Allreduce`.
pub fn is(cfg: &GenConfig, s: &mut TraceSynth) {
    let base = per_rank_volume(64 * 1024 * size_mult(cfg.size).min(4), cfg.ranks);
    let table_bytes = (cfg.ranks as u64) * 4;
    for _ in 0..cfg.iters {
        s.compute_round();
        s.coll_all(CollKind::Allreduce, table_bytes, Rank(0));
        // Bucket occupancy skew: volumes spread ±60% around the mean,
        // correlated with the compute imbalance knob.
        let spread = 0.2 + cfg.imbalance;
        let totals: Vec<u64> = (0..cfg.ranks)
            .map(|_| {
                let u: f64 = s.rng().next_f64();
                let factor = 1.0 - spread / 2.0 + spread * u;
                ((base as f64) * factor) as u64
            })
            .collect();
        s.alltoallv(&totals);
        s.begin_round();
        for r in 0..s.ranks() {
            s.compute(Rank(r), 0.4);
        }
        s.coll_all(CollKind::Allreduce, 8, Rank(0));
    }
    s.barrier_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::App;
    use crate::generate;
    use masim_trace::EventKind;

    #[test]
    fn is_valid_and_alltoallv_heavy() {
        let cfg = GenConfig::test_default(App::Is, 16);
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        let a2av_bytes: u64 = t
            .events
            .iter()
            .flatten()
            .filter_map(|e| match e.kind {
                EventKind::Coll { kind: CollKind::Alltoallv, bytes, .. } => Some(bytes),
                _ => None,
            })
            .sum();
        assert!(a2av_bytes as f64 / t.total_bytes() as f64 > 0.95);
    }

    #[test]
    fn is_volumes_are_skewed() {
        let mut cfg = GenConfig::test_default(App::Is, 16);
        cfg.imbalance = 0.5;
        let t = generate(&cfg);
        let vols: Vec<u64> = t
            .events
            .iter()
            .flatten()
            .filter_map(|e| match e.kind {
                EventKind::Coll { kind: CollKind::Alltoallv, bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        let max = *vols.iter().max().unwrap();
        let min = *vols.iter().min().unwrap();
        assert!(max > min, "alltoallv volumes should differ across ranks");
        assert!(max as f64 / min as f64 > 1.1, "skew {max}/{min}");
    }

    #[test]
    fn is_iteration_structure() {
        let mut cfg = GenConfig::test_default(App::Is, 8);
        cfg.iters = 4;
        let t = generate(&cfg);
        let allreduces = t.events[0]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Coll { kind: CollKind::Allreduce, .. }))
            .count();
        assert_eq!(allreduces, 8); // two per iteration
        let a2av = t.events[0]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Coll { kind: CollKind::Alltoallv, .. }))
            .count();
        assert_eq!(a2av, 4);
    }
}
