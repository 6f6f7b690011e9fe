//! Property-style tests for the simulator's network models, driven by a
//! seeded deterministic generator so every run covers the same cases.

use masim_obs::MetricSet;
use masim_rng::Rng;
use masim_sim::{ModelKind, SimConfig, SimLimits};
use masim_topo::{Machine, NetworkConfig, Torus3d};
use masim_trace::{Rank, RankBuilder, Time, Trace, TraceMeta};
use std::sync::Arc;

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
            Arc::new(Torus3d::try_new(2, 2, 2, 2).expect("valid torus shape")),
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
            };
            let r = masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None)
                .expect("simulation completes");
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
        let plain = masim_sim::run(&trace, &sc, SimLimits::unlimited(), None)
            .expect("simulation completes");
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
