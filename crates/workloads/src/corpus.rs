//! The 235-trace study corpus, reproducing Table I exactly.
//!
//! The paper's traces were collected at LANL/NERSC and are not public;
//! this module assembles an equivalent corpus from the synthetic
//! generators: the same number of traces, the same rank-count histogram
//! (Table Ia), the same communication-intensity histogram (Table Ib),
//! the same application mix (8 NAS benchmarks on Cielito, 10 DOE codes
//! on Hopper/Edison), deterministic in a single seed.

use crate::apps;
use crate::config::{App, GenConfig};
use masim_obs::MetricSet;
use masim_trace::{Time, Trace};

/// Rank-count buckets of Table Ia: (low, high, number of traces).
pub const RANK_BUCKETS: [(u32, u32, usize); 6] = [
    (64, 64, 72),
    (65, 128, 18),
    (129, 256, 80),
    (257, 512, 12),
    (513, 1024, 37),
    (1025, 1728, 16),
];

/// Communication-fraction buckets of Table Ib: (low, high, count).
pub const COMM_BUCKETS: [(f64, f64, usize); 6] = [
    (0.01, 0.05, 26),
    (0.05, 0.10, 30),
    (0.10, 0.20, 55),
    (0.20, 0.40, 54),
    (0.40, 0.60, 30),
    (0.60, 0.85, 40),
];

/// Total number of traces in the study.
pub const CORPUS_SIZE: usize = 235;

/// Applications plausible for each communication-intensity bucket.
/// Compute-dominated codes fill the low buckets; global-transpose and
/// irregular codes fill the high ones; the middle is the mixed regime.
fn bucket_apps(bucket: usize) -> &'static [App] {
    match bucket {
        0 => &[App::Ep, App::Cmc, App::Lulesh, App::Cns],
        1 => &[App::Cmc, App::Lulesh, App::Cns, App::MiniFe, App::Amg, App::Bt],
        2 => &[
            App::MiniFe,
            App::Amg,
            App::Bt,
            App::Cg,
            App::Mg,
            App::Nekbone,
            App::Lu,
            App::MultiGrid,
        ],
        3 => &[App::Cg, App::Mg, App::MultiGrid, App::Lu, App::Nekbone, App::Dt, App::Amg, App::Ft],
        4 => &[App::Ft, App::BigFft, App::Is, App::Cr, App::FillBoundary, App::Nekbone],
        5 => &[App::Is, App::Cr, App::BigFft, App::FillBoundary, App::Nekbone],
        _ => unreachable!("only six comm buckets"),
    }
}

/// One planned corpus entry: the generator configuration plus which
/// Table I buckets it was planned into.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Generator configuration (fully deterministic).
    pub cfg: GenConfig,
    /// Index into [`RANK_BUCKETS`].
    pub rank_bucket: usize,
    /// Index into [`COMM_BUCKETS`].
    pub comm_bucket: usize,
}

impl CorpusEntry {
    /// Generate this entry's trace.
    pub fn generate(&self) -> Trace {
        apps::generate(&self.cfg)
    }

    /// Generate this entry's trace, recording `workloads.corpus.*`
    /// counters (traces generated, events emitted) into `ms`.
    pub fn generate_observed(&self, ms: &MetricSet) -> Trace {
        let span = ms.span("workloads.corpus.generate");
        let trace = self.generate();
        span.stop();
        ms.add("workloads.corpus.traces", 1);
        ms.add("workloads.corpus.events", trace.num_events() as u64);
        trace
    }
}

/// Machine scalars used when stamping measured durations (matching the
/// `masim-topo` presets; kept here as plain numbers so this crate stays
/// below `masim-topo` in the dependency DAG): (Gb/s, latency, cores per
/// node, node count).
fn machine_scalars(name: &str) -> (f64, Time, u32, u32) {
    match name {
        "cielito" => (10.0, Time::from_ns(2_500), 16, 64),
        "hopper" => (35.0, Time::from_ns(2_575), 24, 192),
        "edison" => (24.0, Time::from_ns(1_300), 24, 168),
        other => panic!("unknown study machine {other}"),
    }
}

/// Ranks per node: trace-collection jobs on the study machines got a
/// dedicated partition and spread ranks across it (one per node until
/// the machine fills, then packing). This is SLURM's spread placement
/// and keeps small runs from artificially concentrating on one corner
/// of the torus.
fn ranks_per_node_for(ranks: u32, nodes: u32, cores: u32) -> u32 {
    ranks.div_ceil(nodes).min(cores).max(1)
}

/// Candidate rank counts an app can legally run at inside a rank bucket,
/// spread across the bucket.
fn rank_in_bucket(app: App, lo: u32, hi: u32, variant: usize) -> Option<u32> {
    // Walk candidate targets across the bucket, starting at a
    // variant-dependent offset, and return the first legal value.
    let span = hi - lo;
    for probe in 0..8 {
        let target = lo + (span * ((variant as u32 + probe) % 8)) / 8 + span / 16;
        let legal = app.legal_ranks(target.min(hi));
        if legal >= lo && legal <= hi {
            return Some(legal);
        }
    }
    // Direct check of the bucket's top (covers exact powers).
    let legal = app.legal_ranks(hi);
    if legal >= lo && legal <= hi {
        return Some(legal);
    }
    None
}

/// Per-app default imbalance, scaled up at large rank counts for the
/// apps the paper singles out (IS, MG, FT become load-imbalanced at
/// scale).
fn imbalance_for(app: App, ranks: u32) -> f64 {
    let scale_kick = if ranks >= 512 { 0.25 } else { 0.0 };
    match app {
        App::Ep => 0.02,
        App::Cmc => 0.55,
        App::Is | App::Mg | App::Ft => 0.15 + scale_kick * 1.6,
        App::MultiGrid => 0.25 + scale_kick,
        App::FillBoundary => 0.35,
        App::Lulesh | App::Cns => 0.12,
        App::Lu => 0.3,
        App::Bt => 0.25,
        App::Amg => 0.35,
        App::MiniFe => 0.25,
        App::Cg => 0.3,
        App::Nekbone => 0.45,
        _ => 0.1,
    }
}

/// Per-app base iteration count; scaled down with world size to bound
/// trace sizes (single-core study budget; ratios unaffected).
fn iters_for(app: App, ranks: u32) -> u32 {
    let base = match app {
        App::Ep | App::Cmc => 10,
        App::MiniFe | App::Cg | App::Nekbone => 4, // ×5-6 inner iterations
        App::Lu => 6,
        App::Dt => 3,
        App::Ft | App::BigFft | App::Is => 5,
        App::Cr => 3,
        App::FillBoundary => 4,
        _ => 6,
    };
    let scaled = (base * 256 / ranks.max(64)).max(2);
    scaled.min(base)
}

/// Build the full deterministic corpus plan.
///
/// The plan walks the communication buckets (Table Ib) and rank buckets
/// (Table Ia) simultaneously, rotating applications within each comm
/// bucket's pool and alternating DOE apps between Hopper and Edison
/// (NAS apps ran on Cielito when they fit, as in the paper).
pub fn build_corpus(seed: u64) -> Vec<CorpusEntry> {
    // Expand rank buckets into a round-robin-consumable count table.
    let mut rank_remaining: Vec<(usize, usize)> =
        RANK_BUCKETS.iter().enumerate().map(|(i, &(_, _, n))| (i, n)).collect();
    let mut entries = Vec::with_capacity(CORPUS_SIZE);
    let mut doe_flip = false;
    let mut serial = 0usize;

    for (cb, &(flo, fhi, fcount)) in COMM_BUCKETS.iter().enumerate() {
        let pool = bucket_apps(cb);
        for k in 0..fcount {
            // Spread the target fraction across the bucket.
            let frac = flo + (fhi - flo) * ((k as f64 + 0.5) / fcount as f64);

            // Pick the next rank bucket (largest remaining first keeps
            // the big buckets from starving), then the first app in the
            // pool rotation that can run at a legal size inside it.
            rank_remaining.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            let mut chosen: Option<(usize, App, u32)> = None;
            'outer: for &(rb, n) in &rank_remaining {
                if n == 0 {
                    continue;
                }
                let (lo, hi, _) = RANK_BUCKETS[rb];
                for a in 0..pool.len() {
                    let app = pool[(k + a) % pool.len()];
                    if let Some(r) = rank_in_bucket(app, lo, hi, serial) {
                        chosen = Some((rb, app, r));
                        break 'outer;
                    }
                }
            }
            let (rb, app, ranks) =
                chosen.expect("corpus plan infeasible: no app fits remaining rank buckets");
            for e in rank_remaining.iter_mut() {
                if e.0 == rb {
                    e.1 -= 1;
                }
            }

            // Machine assignment: NAS on Cielito when it fits, DOE codes
            // alternate Hopper/Edison; oversize runs go to Hopper/Edison.
            let machine = if app.is_nas() && ranks <= 1024 {
                "cielito"
            } else if doe_flip {
                doe_flip = false;
                "hopper"
            } else {
                doe_flip = true;
                "edison"
            };
            let (gbps, latency, cores, nodes) = machine_scalars(machine);

            // Problem class correlates with communication intensity:
            // low-comm runs are the small classes (latency/wait-dominated
            // communication); the heavy transpose/sort runs rotate up to
            // class 3.
            let size = match cb {
                0..=2 => 1,
                3 => 1 + (serial % 2) as u32,
                _ => 1 + (serial % 3) as u32,
            };
            let cfg = GenConfig {
                app,
                ranks,
                ranks_per_node: ranks_per_node_for(ranks, nodes, cores),
                machine: machine.to_string(),
                gbps,
                latency,
                size,
                iters: iters_for(app, ranks),
                comm_fraction: frac,
                imbalance: imbalance_for(app, ranks),
                seed: seed ^ ((serial as u64) << 20) ^ (cb as u64),
            };
            entries.push(CorpusEntry { cfg, rank_bucket: rb, comm_bucket: cb });
            serial += 1;
        }
    }
    assert_eq!(entries.len(), CORPUS_SIZE);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Histogram of planned rank buckets (should equal Table Ia's counts).
    fn rank_histogram(entries: &[CorpusEntry]) -> [usize; 6] {
        let mut h = [0; 6];
        for e in entries {
            h[e.rank_bucket] += 1;
        }
        h
    }

    /// Histogram of planned comm buckets (should equal Table Ib's counts).
    fn comm_histogram(entries: &[CorpusEntry]) -> [usize; 6] {
        let mut h = [0; 6];
        for e in entries {
            h[e.comm_bucket] += 1;
        }
        h
    }

    #[test]
    fn corpus_matches_table_1a() {
        let entries = build_corpus(7);
        let h = rank_histogram(&entries);
        let expect: Vec<usize> = RANK_BUCKETS.iter().map(|&(_, _, n)| n).collect();
        assert_eq!(h.to_vec(), expect);
        // And the actual rank counts sit inside their buckets.
        for e in &entries {
            let (lo, hi, _) = RANK_BUCKETS[e.rank_bucket];
            assert!(
                e.cfg.ranks >= lo && e.cfg.ranks <= hi,
                "{} ranks {} outside bucket {}..{}",
                e.cfg.app,
                e.cfg.ranks,
                lo,
                hi
            );
        }
    }

    #[test]
    fn corpus_matches_table_1b_plan() {
        let entries = build_corpus(7);
        let h = comm_histogram(&entries);
        let expect: Vec<usize> = COMM_BUCKETS.iter().map(|&(_, _, n)| n).collect();
        assert_eq!(h.to_vec(), expect);
        for e in &entries {
            let (lo, hi, _) = COMM_BUCKETS[e.comm_bucket];
            assert!(e.cfg.comm_fraction >= lo && e.cfg.comm_fraction <= hi);
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = build_corpus(7);
        let b = build_corpus(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{:?}", x.cfg), format!("{:?}", y.cfg));
        }
    }

    #[test]
    fn machines_are_assigned_as_in_the_paper() {
        let entries = build_corpus(7);
        for e in &entries {
            if e.cfg.app.is_nas() && e.cfg.ranks <= 1024 {
                assert_eq!(e.cfg.machine, "cielito", "{}", e.cfg.app);
            } else {
                assert!(
                    e.cfg.machine == "hopper" || e.cfg.machine == "edison",
                    "{} on {}",
                    e.cfg.app,
                    e.cfg.machine
                );
            }
            // Capacity sanity: cielito holds at most 1024 ranks.
            if e.cfg.machine == "cielito" {
                assert!(e.cfg.ranks <= 1024);
            }
        }
    }

    #[test]
    fn corpus_uses_a_broad_app_mix() {
        let entries = build_corpus(7);
        let mut seen: std::collections::HashSet<App> = Default::default();
        for e in &entries {
            seen.insert(e.cfg.app);
        }
        assert!(seen.len() >= 14, "only {} distinct apps", seen.len());
    }

    #[test]
    fn generate_observed_counts_match() {
        let entries = build_corpus(7);
        let e = entries.iter().find(|e| e.cfg.ranks <= 128).unwrap();
        let ms = MetricSet::new();
        let t = e.generate_observed(&ms);
        assert_eq!(t, e.generate(), "instrumentation must not perturb output");
        let snap = ms.snapshot();
        assert_eq!(snap.counters["workloads.corpus.traces"], 1);
        assert_eq!(snap.counters["workloads.corpus.events"], t.num_events() as u64);
        assert_eq!(snap.spans["workloads.corpus.generate"].count, 1);
    }

    /// Spot-generate a slice of the corpus (cheap entries) and confirm
    /// the generated traces land in their planned comm bucket.
    #[test]
    fn generated_fractions_land_in_buckets() {
        let entries = build_corpus(7);
        for e in entries.iter().filter(|e| e.cfg.ranks <= 128).take(12) {
            let t = e.generate();
            assert_eq!(t.validate(), Ok(()));
            let (lo, hi, _) = COMM_BUCKETS[e.comm_bucket];
            let got = t.comm_fraction();
            assert!(
                got >= lo - 1e-6 && got <= hi + 1e-6,
                "{}({}) target bucket {lo}-{hi}, got {got}",
                e.cfg.app,
                e.cfg.ranks
            );
        }
    }
}
