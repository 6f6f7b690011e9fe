//! Property-style tests for the MFACT replay and classifier, driven by a
//! seeded deterministic generator so every run covers the same cases.

use masim_mfact::{replay, try_classify, ModelConfig};
use masim_rng::Rng;
use masim_topo::NetworkConfig;
use masim_trace::Time;
use masim_workloads::{generate, App, GenConfig};

const CASES: u64 = 24;

fn pick_app(r: &mut Rng) -> App {
    *r.choose(&App::ALL)
}

/// Predicted totals respond monotonically to network quality: slower
/// bandwidth or higher latency never speeds an application up, and
/// the prediction never drops below the computation floor.
#[test]
fn replay_is_monotone_in_network_speed() {
    let mut r = Rng::seed_from_u64(0x3fac_0001);
    for _ in 0..CASES {
        let app = pick_app(&mut r);
        let f = r.gen_range_f64(0.05, 0.7);
        let seed = r.gen_range_u64(0, 50);
        let mut cfg = GenConfig::test_default(app, 16);
        cfg.comm_fraction = f;
        cfg.seed = seed;
        let trace = generate(&cfg);
        let net = NetworkConfig::new(10.0, 2_500);
        let res = replay(
            &trace,
            &[
                ModelConfig::base(net),
                ModelConfig::base(net.scaled(0.5, 1.0)), // half bandwidth
                ModelConfig::base(net.scaled(1.0, 2.0)), // double latency
            ],
        );
        assert!(res[1].total >= res[0].total, "slower bandwidth sped things up");
        assert!(res[2].total >= res[0].total, "higher latency sped things up");
        // Computation floor: the slowest rank's compute alone.
        let comp_floor = (0..trace.num_ranks())
            .map(|rr| {
                trace.events[rr as usize]
                    .iter()
                    .filter(|e| e.kind.is_compute())
                    .map(|e| e.dur)
                    .sum::<Time>()
            })
            .max()
            .unwrap();
        assert!(res[0].total >= comp_floor);
    }
}

/// Counters are internally consistent: non-negative by construction,
/// and the predicted total never exceeds computation + communication
/// charges + waits for the slowest rank (sanity envelope: the
/// aggregate counters bound any single rank's clock).
#[test]
fn counters_bound_the_prediction() {
    let mut rng = Rng::seed_from_u64(0x3fac_0002);
    for _ in 0..CASES {
        let app = pick_app(&mut rng);
        let seed = rng.gen_range_u64(0, 50);
        let mut cfg = GenConfig::test_default(app, 16);
        cfg.seed = seed;
        let trace = generate(&cfg);
        let net = NetworkConfig::new(24.0, 1_300);
        let r = &replay(&trace, &[ModelConfig::base(net)])[0];
        let envelope =
            r.counters.computation + r.counters.latency + r.counters.bandwidth + r.counters.wait;
        assert!(r.total <= envelope + Time::from_ps(1), "{:?} > {envelope:?}", r.total);
        assert!(r.comm_time >= Time::ZERO);
        // Per-rank clocks are each below the aggregate envelope too.
        for &t in &r.per_rank {
            assert!(t <= envelope + Time::from_ps(1));
        }
    }
}

/// Classification is deterministic and its sensitivity evidence is
/// consistent with the class it assigns.
#[test]
fn classification_consistent() {
    let mut r = Rng::seed_from_u64(0x3fac_0003);
    for _ in 0..CASES {
        let app = pick_app(&mut r);
        let f = r.gen_range_f64(0.05, 0.8);
        let mut cfg = GenConfig::test_default(app, 16);
        cfg.comm_fraction = f;
        let trace = generate(&cfg);
        let net = NetworkConfig::new(35.0, 2_575);
        let a = try_classify(&trace, net).expect("replay completes");
        let b = try_classify(&trace, net).expect("replay completes");
        assert_eq!(a.class, b.class);
        if a.is_comm_sensitive() {
            assert!(
                a.bw_sensitivity > masim_mfact::SENSITIVITY_THRESHOLD,
                "cs without bandwidth evidence: {a:?}"
            );
        }
        assert!(a.base_total > 0.0);
    }
}

/// Compute scaling: an 8x faster CPU shrinks the prediction, and
/// never below the communication-only floor.
#[test]
fn compute_scaling_shrinks_total() {
    for app in App::ALL {
        let cfg = GenConfig::test_default(app, 16);
        let trace = generate(&cfg);
        let net = NetworkConfig::new(10.0, 2_500);
        let res =
            replay(&trace, &[ModelConfig::base(net), ModelConfig { net, compute_scale: 0.125 }]);
        assert!(res[1].total <= res[0].total);
        assert!(res[1].counters.computation < res[0].counters.computation);
    }
}
