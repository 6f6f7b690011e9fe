//! Computation-dominated applications: EP and CMC.
//!
//! These are the paper's canonical "modeling is always sufficient" cases:
//! almost all time is local computation, so no network model — however
//! detailed — changes the predicted total.

use crate::config::GenConfig;
use crate::synth::TraceSynth;
use masim_trace::{CollKind, Rank};

/// NPB EP: embarrassingly parallel random-number generation.
///
/// Structure: `iters` pure-compute rounds, then a three-way
/// `MPI_Allreduce` of the Gaussian-pair counts (16 B each) and a closing
/// barrier — exactly the benchmark's communication footprint.
pub fn ep(cfg: &GenConfig, s: &mut TraceSynth) {
    for _ in 0..cfg.iters {
        s.compute_round();
    }
    // The verification reduction at the end.
    s.begin_round();
    for r in 0..s.ranks() {
        s.compute(Rank(r), 0.05);
    }
    for _ in 0..3 {
        s.coll_all(CollKind::Allreduce, 16, Rank(0));
    }
    s.barrier_all();
}

/// CMC: Monte Carlo particle transport mini-app.
///
/// Structure: per cycle, a strongly imbalanced compute round (particle
/// counts differ per domain), a small tally `Allreduce`, and every few
/// cycles a particle-count rebalance `Bcast`. The imbalance, not the
/// traffic, dominates — the paper classifies CMC load-imbalance- or
/// computation-bound, with sub-1 % DIFFtotal.
pub fn cmc(cfg: &GenConfig, s: &mut TraceSynth) {
    let ranks = s.ranks();
    for cycle in 0..cfg.iters {
        // Particle load per rank: lognormal-ish spread driven by the
        // imbalance knob on top of a persistent per-rank bias.
        let weights: Vec<f64> = (0..ranks)
            .map(|r| {
                let bias = 1.0 + cfg.imbalance * ((r % 7) as f64 / 7.0);
                let jitter: f64 = s.rng().next_f64() * cfg.imbalance * 0.5;
                bias + jitter
            })
            .collect();
        s.compute_round_weighted(&weights);
        s.coll_all(CollKind::Allreduce, 64, Rank(0));
        if cycle % 4 == 3 {
            s.coll_all(CollKind::Bcast, 256, Rank(0));
        }
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
    fn ep_communication_is_tiny_and_fixed() {
        let mut cfg = GenConfig::test_default(App::Ep, 16);
        cfg.comm_fraction = 0.02;
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        // Exactly 3 allreduces + 1 barrier per rank.
        let colls = t.events[0].iter().filter(|e| matches!(e.kind, EventKind::Coll { .. })).count();
        assert_eq!(colls, 4);
        // No point-to-point at all.
        let p2p = t
            .events
            .iter()
            .flatten()
            .filter(|e| !matches!(e.kind, EventKind::Compute | EventKind::Coll { .. }))
            .count();
        assert_eq!(p2p, 0);
        assert!((t.comm_fraction() - 0.02).abs() < 1e-6);
    }

    #[test]
    fn ep_bytes_match_payloads() {
        let cfg = GenConfig::test_default(App::Ep, 8);
        let t = generate(&cfg);
        // 3 allreduces × 16 B × 8 ranks.
        assert_eq!(t.total_bytes(), 3 * 16 * 8);
    }

    #[test]
    fn cmc_is_imbalanced() {
        let mut cfg = GenConfig::test_default(App::Cmc, 16);
        cfg.imbalance = 0.6;
        cfg.iters = 6;
        let t = generate(&cfg);
        assert_eq!(t.validate(), Ok(()));
        // Compute time must differ noticeably across ranks.
        let comp: Vec<u64> = (0..16)
            .map(|r| {
                t.events[r]
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Compute))
                    .map(|e| e.dur.as_ps())
                    .sum()
            })
            .collect();
        let max = *comp.iter().max().unwrap() as f64;
        let min = *comp.iter().min().unwrap() as f64;
        assert!(max / min > 1.2, "imbalance ratio {}", max / min);
    }

    #[test]
    fn cmc_has_periodic_bcast() {
        let mut cfg = GenConfig::test_default(App::Cmc, 8);
        cfg.iters = 8;
        let t = generate(&cfg);
        let bcasts = t.events[0]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Coll { kind: CollKind::Bcast, .. }))
            .count();
        assert_eq!(bcasts, 2); // cycles 3 and 7
    }
}
