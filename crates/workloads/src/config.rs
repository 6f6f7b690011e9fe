//! Generator configuration and the application catalogue.

use masim_trace::Time;

/// Every application in the study corpus, as named by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum App {
    // --- NAS Parallel Benchmarks (traced on Cielito / Mustang) ---
    /// Block tridiagonal solver on a square process grid.
    Bt,
    /// Conjugate gradient with irregular row exchanges.
    Cg,
    /// Data traffic: tree-structured large-message forwarding.
    Dt,
    /// Embarrassingly parallel random-number kernel.
    Ep,
    /// 3-D FFT with global transposes (all-to-all).
    Ft,
    /// Integer bucket sort (all-to-all-v), load-imbalanced at scale.
    Is,
    /// LU factorization with pipelined wavefront point-to-point.
    Lu,
    /// NPB multigrid V-cycles.
    Mg,
    // --- DOE DesignForward extracted kernels ---
    /// Large distributed FFT (extracted kernel).
    BigFft,
    /// Crystal Router: irregular hypercube-stage message router.
    Cr,
    // --- DOE mini-apps ---
    /// Algebraic multigrid with irregular shrinking halos.
    Amg,
    /// Implicit finite elements: halo exchange + CG solve.
    MiniFe,
    /// Shock hydrodynamics on a cubic decomposition, 26-point halo.
    Lulesh,
    /// Compressible Navier–Stokes stencil mini-app.
    Cns,
    /// Monte Carlo particle transport (compute + imbalance).
    Cmc,
    /// Spectral-element Poisson kernel: gather-scatter + frequent dots.
    Nekbone,
    // --- DOE full applications ---
    /// Production multigrid solve (deeper cycles than NPB MG).
    MultiGrid,
    /// AMR ghost-cell fill with highly irregular neighbor sets.
    FillBoundary,
}

impl App {
    /// Every application, NAS first, in a stable order.
    pub const ALL: [App; 18] = [
        App::Bt,
        App::Cg,
        App::Dt,
        App::Ep,
        App::Ft,
        App::Is,
        App::Lu,
        App::Mg,
        App::BigFft,
        App::Cr,
        App::Amg,
        App::MiniFe,
        App::Lulesh,
        App::Cns,
        App::Cmc,
        App::Nekbone,
        App::MultiGrid,
        App::FillBoundary,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            App::Bt => "BT",
            App::Cg => "CG",
            App::Dt => "DT",
            App::Ep => "EP",
            App::Ft => "FT",
            App::Is => "IS",
            App::Lu => "LU",
            App::Mg => "MG",
            App::BigFft => "BigFFT",
            App::Cr => "CR",
            App::Amg => "AMG",
            App::MiniFe => "MiniFE",
            App::Lulesh => "LULESH",
            App::Cns => "CNS",
            App::Cmc => "CMC",
            App::Nekbone => "Nekbone",
            App::MultiGrid => "MultiGrid",
            App::FillBoundary => "FB",
        }
    }

    /// Inverse of [`App::name`].
    pub fn by_name(name: &str) -> Option<App> {
        App::ALL.into_iter().find(|a| a.name() == name)
    }

    /// True for the eight NAS benchmarks.
    pub fn is_nas(self) -> bool {
        matches!(
            self,
            App::Bt | App::Cg | App::Dt | App::Ep | App::Ft | App::Is | App::Lu | App::Mg
        )
    }

    /// Round a requested rank count down to the nearest count this
    /// application can run on (power of two, square grid, cube, …).
    /// Returns at least the app's minimum viable size.
    pub fn legal_ranks(self, requested: u32) -> u32 {
        // The helpers step in `u64`, so a request near `u32::MAX` neither
        // wraps nor loops; each result is ≤ its `u32` argument.
        fn pow2_below(x: u32) -> u32 {
            let mut p = 1u64;
            while p * 2 <= u64::from(x) {
                p *= 2;
            }
            p as u32
        }
        fn square_below(x: u32) -> u32 {
            let mut s = 1u64;
            while (s + 1) * (s + 1) <= u64::from(x) {
                s += 1;
            }
            (s * s) as u32
        }
        fn cube_below(x: u32) -> u32 {
            let mut c = 1u64;
            while (c + 1) * (c + 1) * (c + 1) <= u64::from(x) {
                c += 1;
            }
            (c * c * c) as u32
        }
        let r = requested.max(self.min_ranks());
        match self {
            // Power-of-two world sizes.
            App::Cg | App::Ft | App::Is | App::Mg | App::Cr | App::MultiGrid => pow2_below(r),
            // Square power-of-two pencil grid (power of four).
            App::BigFft => {
                let s = pow2_below((r as f64).sqrt() as u32);
                s * s
            }
            // Square process grids.
            App::Bt | App::Lu => square_below(r),
            // Cubic decompositions.
            App::Lulesh | App::Cns => cube_below(r),
            // Anything goes.
            App::Dt
            | App::Ep
            | App::Amg
            | App::MiniFe
            | App::Cmc
            | App::Nekbone
            | App::FillBoundary => r,
        }
    }

    /// Minimum sensible world size.
    pub fn min_ranks(self) -> u32 {
        match self {
            App::Lulesh | App::Cns => 8, // 2^3 cube
            App::Bt | App::Lu => 4,      // 2x2 grid
            App::Dt => 5,                // tree with >= 2 levels
            _ => 4,
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a generator needs to synthesize one trace.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Which application to synthesize.
    pub app: App,
    /// World size (must be legal for the app; see [`App::legal_ranks`]).
    pub ranks: u32,
    /// Ranks per node in the recorded run.
    pub ranks_per_node: u32,
    /// Machine label stored in the trace metadata.
    pub machine: String,
    /// Bandwidth of the collection machine in Gb/s (for stamping
    /// measured durations).
    pub gbps: f64,
    /// End-to-end latency of the collection machine (Hockney α).
    pub latency: Time,
    /// Problem-scale knob, 1..=4 (≈ NAS classes A–D): scales message
    /// sizes and compute volume.
    pub size: u32,
    /// Main-loop iterations.
    pub iters: u32,
    /// Target fraction of total rank-time spent in MPI, in (0, 1).
    /// The generator calibrates compute gaps to land here, which is how
    /// the corpus reproduces Table Ib exactly.
    pub comm_fraction: f64,
    /// Relative spread of per-rank compute gaps (0 = perfectly balanced;
    /// 0.5 = slowest rank does ~1.5× the mean). Skew shows up as recorded
    /// wait time at synchronization points, exactly as in a real trace.
    pub imbalance: f64,
    /// RNG seed; every byte of the trace is deterministic in this.
    pub seed: u64,
}

impl GenConfig {
    /// A small, fast configuration for unit tests.
    pub fn test_default(app: App, ranks: u32) -> GenConfig {
        GenConfig {
            app,
            ranks: app.legal_ranks(ranks),
            ranks_per_node: 4,
            machine: "testnet".into(),
            gbps: 10.0,
            latency: Time::from_ns(2_500),
            size: 1,
            iters: 3,
            comm_fraction: 0.3,
            imbalance: 0.1,
            seed: 42,
        }
    }

    /// Validate knob ranges; generators call this first.
    pub fn check(&self) {
        assert!(self.ranks >= 2, "need at least two ranks");
        assert_eq!(
            self.ranks,
            self.app.legal_ranks(self.ranks),
            "illegal rank count for {}",
            self.app
        );
        assert!(self.ranks_per_node >= 1);
        assert!((1..=4).contains(&self.size), "size must be 1..=4");
        assert!(self.iters >= 1);
        assert!(
            self.comm_fraction > 0.0 && self.comm_fraction < 1.0,
            "comm_fraction must be in (0,1), got {}",
            self.comm_fraction
        );
        assert!((0.0..=1.0).contains(&self.imbalance));
        assert!(self.gbps > 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for app in App::ALL {
            assert_eq!(App::by_name(app.name()), Some(app));
        }
        assert_eq!(App::by_name("nope"), None);
    }

    #[test]
    fn nas_doe_partition() {
        let nas = App::ALL.iter().filter(|a| a.is_nas()).count();
        let doe = App::ALL.iter().filter(|a| !a.is_nas()).count();
        assert_eq!(nas, 8);
        assert_eq!(doe, 10);
    }

    #[test]
    fn legal_ranks_shapes() {
        assert_eq!(App::Ft.legal_ranks(100), 64); // pow2
        assert_eq!(App::Ft.legal_ranks(128), 128);
        assert_eq!(App::Bt.legal_ranks(100), 100); // 10x10
        assert_eq!(App::Bt.legal_ranks(99), 81);
        assert_eq!(App::Lulesh.legal_ranks(100), 64); // 4^3
        assert_eq!(App::Lulesh.legal_ranks(27), 27);
        assert_eq!(App::Ep.legal_ranks(97), 97); // anything
    }

    #[test]
    fn legal_ranks_respects_minimum() {
        for app in App::ALL {
            let r = app.legal_ranks(1);
            assert!(r >= 2, "{app}: {r}");
            assert_eq!(r, app.legal_ranks(r), "{app} idempotent");
        }
    }

    #[test]
    fn config_check_accepts_defaults() {
        for app in App::ALL {
            GenConfig::test_default(app, 16).check();
        }
    }

    #[test]
    #[should_panic(expected = "comm_fraction")]
    fn config_check_rejects_bad_fraction() {
        let mut c = GenConfig::test_default(App::Ep, 16);
        c.comm_fraction = 1.5;
        c.check();
    }
}
