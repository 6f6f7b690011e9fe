//! Property-style tests for the simulator's collective lowering and
//! network models, driven by a seeded deterministic generator so every
//! run covers the same cases.

use masim_obs::MetricSet;
use masim_rng::Rng;
use masim_sim::lower::{lower, Schedule};
use masim_sim::{simulate, ModelKind, SimConfig, SimLimits};
use masim_topo::{Machine, NetworkConfig, Torus3d};
use masim_trace::{CollKind, Rank, RankBuilder, Time, Trace, TraceMeta};
use std::collections::HashMap;
use std::sync::Arc;

/// Cross-rank schedule consistency for arbitrary (kind, p, bytes, root).
fn check(kind: CollKind, p: u32, bytes: u64, root: u32) {
    let root = Rank(root % p);
    let scheds: Vec<Schedule> = (0..p).map(|r| lower(kind, Rank(r), p, bytes, root)).collect();
    let rounds = scheds[0].rounds.len();
    for s in &scheds {
        assert_eq!(s.rounds.len(), rounds);
    }
    for round in 0..rounds {
        let mut sends: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
        let mut recvs: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
        for (r, s) in scheds.iter().enumerate() {
            if let Some((peer, b)) = s.rounds[round].send {
                assert!(peer.0 < p);
                sends.entry((r as u32, peer.0)).or_default().push(b);
            }
            if let Some((peer, b)) = s.rounds[round].recv {
                assert!(peer.0 < p);
                recvs.entry((peer.0, r as u32)).or_default().push(b);
            }
        }
        assert_eq!(sends, recvs, "{} p={} round {}", kind, p, round);
    }
}

/// Lowered collectives pair sends and receives exactly, for any
/// world size (including non-powers-of-two), payload, and root.
#[test]
fn lowering_is_consistent() {
    let mut r = Rng::seed_from_u64(0x51a1_0001);
    const PAYLOADS: [u64; 6] = [0, 8, 512, 4096, 64 * 1024, 1 << 20];
    for _ in 0..128 {
        let kind = *r.choose(&CollKind::ALL);
        let p = r.gen_range_u64(2, 40) as u32;
        let bytes = *r.choose(&PAYLOADS);
        let root = r.gen_range_u64(0, 40) as u32;
        check(kind, p, bytes, root);
    }
}

/// Simulated random pairwise exchanges terminate and respect the
/// lower bound: no model finishes faster than the largest message's
/// uncontended Hockney time.
#[test]
fn simulation_respects_hockney_lower_bound() {
    let mut rng = Rng::seed_from_u64(0x51a1_0002);
    for _ in 0..24 {
        let pairs = rng.gen_range_usize(1, 5);
        let bytes = rng.gen_range_u64(1_000, 200_000);
        let ranks = (pairs * 2) as u32;
        let machine = Machine::new(
            "t",
            Arc::new(Torus3d::new(2, 2, 2, 2)),
            NetworkConfig::new(10.0, 2_000),
            4,
        );
        assert!(ranks <= machine.capacity());
        let meta = TraceMeta {
            app: "prop".into(),
            machine: "t".into(),
            ranks,
            ranks_per_node: 1,
            problem_size: 1,
            seed: 0,
        };
        let mut trace = Trace::empty(meta);
        for p in 0..pairs {
            let a = Rank((2 * p) as u32);
            let b = Rank((2 * p + 1) as u32);
            let mut ba = RankBuilder::new(a);
            ba.send(b, bytes, p as u32, Time::ZERO);
            let mut bb = RankBuilder::new(b);
            bb.recv(a, bytes, p as u32, Time::ZERO);
            trace.events[a.idx()] = ba.finish();
            trace.events[b.idx()] = bb.finish();
        }
        assert_eq!(trace.validate(), Ok(()));
        let floor = machine.net.bandwidth.transfer_time(bytes);
        for model in ModelKind::study_models() {
            let cfg = SimConfig {
                machine: machine.clone(),
                mapping: masim_topo::Mapping::block(ranks, 1),
                model,
                compute_scale: 1.0,
                route_arena_cap_bytes: u64::MAX,
            };
            let r = simulate(&trace, &cfg);
            assert!(
                r.total >= floor,
                "{}: {:?} beat the Hockney floor {:?}",
                model.name(),
                r.total,
                floor
            );
            // And nothing runs forever: 1000x the floor is generous.
            assert!(r.total < floor * 1000 + Time::from_ms(1));
        }
    }
}

/// Instrumented simulation is bit-identical to the uninstrumented run
/// for every network model, and its counters match the result's own
/// tallies.
#[test]
fn observed_simulation_is_bit_identical() {
    let cfg = masim_workloads::GenConfig::test_default(masim_workloads::App::Cg, 8);
    let trace = masim_workloads::generate(&cfg);
    let machine = Machine::cielito();
    for model in ModelKind::study_models() {
        let sc = SimConfig::new(machine.clone(), model, &trace);
        let plain = simulate(&trace, &sc);
        let ms = MetricSet::new();
        let observed =
            masim_sim::run(&trace, &sc, SimLimits::unlimited(), Some(&ms)).expect("unbudgeted");
        assert_eq!(plain.total, observed.total, "{}", model.name());
        assert_eq!(plain.per_rank, observed.per_rank, "{}", model.name());
        assert_eq!(plain.events, observed.events, "{}", model.name());
        assert_eq!(plain.work_units, observed.work_units, "{}", model.name());
        let snap = ms.snapshot();
        assert_eq!(snap.counters["sim.runner.messages"], observed.messages);
        assert_eq!(snap.counters["des.engine.processed"], observed.events);
        assert_eq!(snap.counters["sim.budget.consumed"], observed.events + observed.work_units);
        assert_eq!(snap.gauges["sim.link.bytes_max"], observed.max_link_bytes);
        assert_eq!(snap.spans["sim.runner.simulate"].count, 1);
    }
}

/// An exhausted budget reports how much work was burned.
#[test]
fn exhausted_budget_reports_consumption() {
    let cfg = masim_workloads::GenConfig::test_default(masim_workloads::App::Cg, 8);
    let trace = masim_workloads::generate(&cfg);
    let sc = SimConfig::new(Machine::cielito(), ModelKind::Packet { packet_bytes: 1024 }, &trace);
    let ms = MetricSet::new();
    assert!(masim_sim::run(&trace, &sc, SimLimits::budget(2_000), Some(&ms)).is_err());
    let snap = ms.snapshot();
    assert_eq!(snap.counters["sim.budget.exhausted"], 1);
    assert!(snap.counters["sim.budget.consumed"] > 2_000);
}

/// Compute scaling is monotone: a faster CPU never slows the app.
#[test]
fn compute_scale_monotone() {
    let mut r = Rng::seed_from_u64(0x51a1_0003);
    for _ in 0..8 {
        let scale = r.gen_range_f64(0.1, 1.0);
        let machine = Machine::cielito();
        let cfg = masim_workloads::GenConfig::test_default(masim_workloads::App::MiniFe, 8);
        let trace = masim_workloads::generate(&cfg);
        let base = SimConfig::new(machine.clone(), ModelKind::Flow, &trace);
        let fast = SimConfig { compute_scale: scale, ..base.clone() };
        let t_base = simulate(&trace, &base).total;
        let t_fast = simulate(&trace, &fast).total;
        assert!(t_fast <= t_base, "{t_fast:?} > {t_base:?} at scale {scale}");
    }
}
