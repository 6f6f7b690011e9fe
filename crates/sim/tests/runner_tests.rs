//! Integration tests for the simulator: hand-checked timings, agreement
//! with MFACT in the uncongested limit, and contention behaviour.

use masim_mfact::{replay, ModelConfig};
use masim_sim::{ModelKind, SimConfig, SimLimits};
use masim_topo::{Machine, Mapping, NetworkConfig, Torus3d};
use masim_trace::{CollKind, Rank, RankBuilder, Time, Trace, TraceMeta};
use std::sync::Arc;

fn meta(ranks: u32, rpn: u32) -> TraceMeta {
    TraceMeta {
        app: "t".into(),
        machine: "m".into(),
        ranks,
        ranks_per_node: rpn,
        problem_size: 1,
        seed: 0,
    }
}

/// A small torus machine for tests: 8 switches, 1 node each, 4 cores.
fn tiny_machine() -> Machine {
    Machine::new(
        "tiny",
        Arc::new(Torus3d::try_new(2, 2, 2, 1).expect("valid torus shape")),
        NetworkConfig::new(10.0, 2_000),
        4,
    )
}

fn sim(trace: &Trace, model: ModelKind) -> masim_sim::SimResult {
    let cfg = SimConfig::new(tiny_machine(), model, trace);
    masim_sim::run(trace, &cfg, SimLimits::unlimited(), None).expect("simulation completes")
}

fn all_models() -> [ModelKind; 3] {
    ModelKind::study_models()
}

/// Two ranks on the same node exchange a message.
#[test]
fn intra_node_send_recv() {
    let mut t = Trace::empty(meta(2, 2));
    let mut b0 = RankBuilder::new(Rank(0));
    b0.compute(Time::from_us(10));
    b0.send(Rank(1), 1250, 0, Time::ZERO);
    t.events[0] = b0.finish();
    let mut b1 = RankBuilder::new(Rank(1));
    b1.recv(Rank(0), 1250, 0, Time::ZERO);
    t.events[1] = b1.finish();
    assert_eq!(t.validate(), Ok(()));

    for model in all_models() {
        let r = sim(&t, model);
        // Intra-node: delivery at 10us + alpha(2us) + 1us transfer.
        assert_eq!(r.per_rank[1], Time::from_us(13), "{}", model.name());
        // Sender releases after serialization (10us + 1us).
        assert_eq!(r.per_rank[0], Time::from_us(11), "{}", model.name());
        assert_eq!(r.total, Time::from_us(13));
        assert_eq!(r.messages, 1);
    }
}

/// Cross-node transfer: all three models agree with Hockney (and
/// therefore MFACT) when the network is idle — modulo the per-hop
/// latency split rounding.
#[test]
fn uncongested_models_agree_with_mfact() {
    let machine = tiny_machine();
    let mut t = Trace::empty(meta(2, 1)); // ranks on different nodes
    let mut b0 = RankBuilder::new(Rank(0));
    b0.compute(Time::from_us(5));
    b0.send(Rank(1), 125_000, 0, Time::ZERO); // 100 us at 10 Gb/s
    t.events[0] = b0.finish();
    let mut b1 = RankBuilder::new(Rank(1));
    b1.recv(Rank(0), 125_000, 0, Time::ZERO);
    t.events[1] = b1.finish();

    let model_total = replay(&t, &[ModelConfig::base(machine.net)])[0].total.as_secs_f64();
    for model in all_models() {
        let r = sim(&t, model);
        let got = r.total.as_secs_f64();
        let rel = (got - model_total).abs() / model_total;
        // Within 10%: the simulator charges per-hop latency on an actual
        // route (n0→n1 is shorter than the machine-average route MFACT's
        // α represents) and the packet model adds per-hop serialization.
        assert!(rel < 0.10, "{}: sim {got} vs model {model_total} ({rel})", model.name());
    }
}

/// Many senders sharing one destination congest its ejection link: every
/// model must predict a slowdown versus MFACT's contention-free estimate.
#[test]
fn incast_contention_slows_all_models() {
    let machine = tiny_machine();
    let n = 8u32;
    let mut t = Trace::empty(meta(n, 1));
    let bytes = 1_250_000; // 1 ms serialization each at 10 Gb/s
    for r in 1..n {
        let mut b = RankBuilder::new(Rank(r));
        b.send(Rank(0), bytes, r, Time::ZERO);
        t.events[r as usize] = b.finish();
    }
    let mut b0 = RankBuilder::new(Rank(0));
    for r in 1..n {
        b0.recv(Rank(r), bytes, r, Time::ZERO);
    }
    t.events[0] = b0.finish();
    assert_eq!(t.validate(), Ok(()));

    let mfact_total = replay(&t, &[ModelConfig::base(machine.net)])[0].total;
    for model in all_models() {
        let r = sim(&t, model);
        // 7 concurrent 1ms transfers into one 10 Gb/s ejection link need
        // at least ~7 ms of serialization; MFACT (no contention) says
        // ~1 ms. Require a clear separation.
        assert!(
            r.total > mfact_total * 3,
            "{}: {:?} !> 3x {:?}",
            model.name(),
            r.total,
            mfact_total
        );
        assert!(r.total >= Time::from_ms(6), "{}: {:?}", model.name(), r.total);
    }
}

/// The packet model overestimates serialization on multi-hop paths:
/// every link reserves the channel for a full packet time, so a
/// single-packet message pays the serialization once *per hop*, where
/// flow and packet-flow pay it once end-to-end (plus per-hop latency) —
/// the paper's stated reason for the hybrid model. (For long packet
/// trains the overestimate shrinks to the pipeline fill time.)
#[test]
fn packet_model_overestimates_multi_hop_serialization() {
    // Route 0 -> 7 in a 2x2x2 torus crosses 3 fabric links + inj/ej;
    // one 4 KiB packet.
    let mut t = Trace::empty(meta(8, 1));
    let mut b0 = RankBuilder::new(Rank(0));
    b0.send(Rank(7), 4096, 0, Time::ZERO);
    t.events[0] = b0.finish();
    let mut b7 = RankBuilder::new(Rank(7));
    b7.recv(Rank(0), 4096, 0, Time::ZERO);
    t.events[7] = b7.finish();
    for r in 1..7 {
        t.events[r] = vec![masim_trace::Event::compute(Time::from_ns(1))];
    }

    let pkt = sim(&t, ModelKind::Packet { packet_bytes: 4096 }).total;
    let pf = sim(&t, ModelKind::PacketFlow { packet_bytes: 8192 }).total;
    let flow = sim(&t, ModelKind::Flow).total;
    // Packet pays full serialization at injection and ejection plus a
    // share on each fabric link; the others pay it once end-to-end.
    let ser = tiny_machine().net.bandwidth.transfer_time(4096);
    assert!(
        pkt.saturating_sub(pf) >= ser,
        "packet {pkt:?} should exceed packet-flow {pf:?} by >= 1 serialization ({ser:?})"
    );
    assert!(pkt > flow, "packet {pkt:?} !> flow {flow:?}");
}

/// Collectives synchronize: a skewed barrier finishes together.
#[test]
fn barrier_synchronizes_ranks() {
    let n = 8u32;
    let mut t = Trace::empty(meta(n, 1));
    for r in 0..n {
        let mut b = RankBuilder::new(Rank(r));
        b.compute(Time::from_us(r as u64 * 50));
        b.barrier(Time::ZERO);
        b.compute(Time::from_us(1));
        t.events[r as usize] = b.finish();
    }
    for model in all_models() {
        let res = sim(&t, model);
        let min = res.per_rank.iter().min().unwrap();
        let max = res.per_rank.iter().max().unwrap();
        // All ranks finish within a small window after the barrier.
        let spread = max.saturating_sub(*min);
        assert!(spread < Time::from_us(40), "{}: spread {spread:?}", model.name());
        // And nobody finishes before the slowest rank's compute (350us).
        assert!(*min >= Time::from_us(350), "{}: {min:?}", model.name());
    }
}

/// Allreduce agrees across models and with MFACT on an idle network.
#[test]
fn allreduce_models_close_to_mfact() {
    let machine = tiny_machine();
    let n = 8u32;
    let mut t = Trace::empty(meta(n, 1));
    for r in 0..n {
        let mut b = RankBuilder::new(Rank(r));
        b.compute(Time::from_us(20));
        b.coll(CollKind::Allreduce, 4096, Rank(0), Time::ZERO);
        t.events[r as usize] = b.finish();
    }
    let model_total = replay(&t, &[ModelConfig::base(machine.net)])[0].total.as_secs_f64();
    for model in all_models() {
        let got = sim(&t, model).total.as_secs_f64();
        let rel = (got - model_total).abs() / model_total;
        // The packet model's per-hop serialization overestimate is the
        // documented inaccuracy of that granularity; allow it more slack.
        let tol = if matches!(model, ModelKind::Packet { .. }) { 0.8 } else { 0.25 };
        assert!(rel < tol, "{}: sim {got} vs mfact {model_total} (rel {rel})", model.name());
    }
}

/// Nonblocking overlap: isend/irecv with compute in between beats the
/// blocking equivalent.
#[test]
fn nonblocking_overlap_helps() {
    let mk = |nonblocking: bool| {
        let mut t = Trace::empty(meta(2, 1));
        let mut b0 = RankBuilder::new(Rank(0));
        if nonblocking {
            let q = b0.isend(Rank(1), 1_250_000, 0, Time::ZERO);
            b0.compute(Time::from_ms(2));
            b0.wait(q, Time::ZERO);
        } else {
            b0.send(Rank(1), 1_250_000, 0, Time::ZERO);
            b0.compute(Time::from_ms(2));
        }
        t.events[0] = b0.finish();
        let mut b1 = RankBuilder::new(Rank(1));
        let q = b1.irecv(Rank(0), 1_250_000, 0, Time::ZERO);
        b1.compute(Time::from_ms(2));
        b1.wait(q, Time::ZERO);
        t.events[1] = b1.finish();
        t
    };
    for model in all_models() {
        let blocking = sim(&mk(false), model).total;
        let overlap = sim(&mk(true), model).total;
        assert!(overlap <= blocking, "{}: {overlap:?} !<= {blocking:?}", model.name());
    }
}

/// Work-unit accounting: the packet model routes more packets for more
/// bytes; the flow model re-solves rates on every add/remove.
#[test]
fn work_units_track_model_costs() {
    let mut t = Trace::empty(meta(2, 1));
    let mut b0 = RankBuilder::new(Rank(0));
    b0.send(Rank(1), 100_000, 0, Time::ZERO);
    t.events[0] = b0.finish();
    let mut b1 = RankBuilder::new(Rank(1));
    b1.recv(Rank(0), 100_000, 0, Time::ZERO);
    t.events[1] = b1.finish();

    let pkt = sim(&t, ModelKind::Packet { packet_bytes: 4096 });
    assert_eq!(pkt.work_units, 100_000u64.div_ceil(4096));
    let flow = sim(&t, ModelKind::Flow);
    // Work counts *flow updates*: the add re-solves one active flow; the
    // removal re-solve sees an empty network and settles nothing.
    assert_eq!(flow.work_units, 1);
    let pf = sim(&t, ModelKind::PacketFlow { packet_bytes: 8192 });
    assert_eq!(pf.work_units, 100_000u64.div_ceil(8192));
}

/// Determinism: identical runs produce identical results.
#[test]
fn simulation_is_deterministic() {
    use masim_workloads::{generate, App, GenConfig};
    let cfg = GenConfig::test_default(App::Cg, 16);
    let t = generate(&cfg);
    for model in all_models() {
        let a = sim(&t, model);
        let b = sim(&t, model);
        assert_eq!(a.total, b.total, "{}", model.name());
        assert_eq!(a.per_rank, b.per_rank, "{}", model.name());
        assert_eq!(a.events, b.events, "{}", model.name());
    }
}

/// The flow model at Table II scale, pinned to the picosecond: the tiny
/// golden corpus has at most 62 re-solves per trace, these have 900 and
/// 2 700, each 26–86 bottleneck levels deep, so they are what notices a
/// solver edit that moves a rate by one ulp. Inputs are
/// `masim_core::report::table2_entries(7)` spelled out (that crate sits
/// above this one).
#[test]
fn flow_model_predictions_at_table2_scale_are_pinned() {
    use masim_workloads::{generate, App, GenConfig};
    let entry = |app, ranks, comm_fraction, imbalance| GenConfig {
        app,
        ranks,
        ranks_per_node: 24,
        machine: "hopper".into(),
        gbps: 35.0,
        latency: Time::from_ns(2_575),
        size: 3,
        iters: 6,
        comm_fraction,
        imbalance,
        seed: 7,
    };
    // (config, total ps, comm ps, events, work units)
    let pins = [
        (entry(App::Cmc, 1024, 0.08, 0.5), 13_414_340_910, 2_914_692_749_846, 198_477, 44_317),
        (entry(App::Lulesh, 512, 0.12, 0.1), 6_604_872_728, 305_486_599_363, 164_834, 184_864),
    ];
    for (gcfg, total_ps, comm_ps, events, work_units) in pins {
        let trace = generate(&gcfg);
        let cfg = SimConfig::new(Machine::hopper(), ModelKind::study_models()[1], &trace);
        let r = masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None)
            .expect("simulation completes");
        let app = gcfg.app;
        assert_eq!(r.total.as_ps(), total_ps, "{app}: total");
        assert_eq!(r.comm_time.as_ps(), comm_ps, "{app}: comm");
        assert_eq!(r.events, events, "{app}: events");
        assert_eq!(r.work_units, work_units, "{app}: work units");
    }
}

/// Every generated application runs to completion under every model on a
/// study machine, and predictions stay within sane bounds of MFACT.
#[test]
fn all_apps_simulate_on_cielito() {
    use masim_workloads::{generate, App, GenConfig};
    let machine = Machine::cielito();
    for app in App::ALL {
        let mut gcfg = GenConfig::test_default(app, 16);
        gcfg.machine = "cielito".into();
        gcfg.ranks_per_node = 16;
        let t = generate(&gcfg);
        let mfact_total = replay(&t, &[ModelConfig::base(machine.net)])[0].total;
        for model in all_models() {
            let cfg = SimConfig {
                machine: machine.clone(),
                mapping: Mapping::block(t.num_ranks(), t.meta.ranks_per_node),
                model,
            };
            let r = masim_sim::run(&t, &cfg, SimLimits::unlimited(), None)
                .expect("simulation completes");
            assert!(r.total > Time::ZERO, "{app}/{}", model.name());
            // Simulation must be within a factor 3 of the model: they
            // share cost shapes; only contention separates them.
            let ratio = r.total.as_secs_f64() / mfact_total.as_secs_f64();
            assert!((0.4..3.0).contains(&ratio), "{app}/{}: ratio {ratio}", model.name());
        }
    }
}

/// Streaming a trace from its compact on-disk encoding must be an
/// implementation detail: every generator, every model, bit-identical
/// predictions to the fully materialized replay. The streamed path
/// re-reads blocked ranks' current events through its decode window, so
/// this also pins the window semantics against the replay's access
/// pattern.
#[test]
fn streamed_replay_is_bit_identical_to_in_memory() {
    use masim_sim::{simulate_streamed_limited, SimLimits};
    use masim_trace::StreamedTrace;
    use masim_workloads::{generate, App, GenConfig};
    let machine = Machine::cielito();
    for app in App::ALL {
        let mut gcfg = GenConfig::test_default(app, 16);
        gcfg.machine = "cielito".into();
        gcfg.ranks_per_node = 16;
        let t = generate(&gcfg);
        let stream = StreamedTrace::from_bytes(masim_trace::io::encode(&t)).unwrap();
        for model in all_models() {
            let cfg = SimConfig::new(machine.clone(), model, &t);
            let a = masim_sim::run(&t, &cfg, SimLimits::unlimited(), None).unwrap();
            let scfg = SimConfig::for_streamed(machine.clone(), model, &stream);
            let b = simulate_streamed_limited(&stream, &scfg, SimLimits::unlimited()).unwrap();
            assert_eq!(a.total, b.total, "{app}/{}: total", model.name());
            assert_eq!(a.per_rank, b.per_rank, "{app}/{}: per-rank", model.name());
            assert_eq!(a.comm_time, b.comm_time, "{app}/{}: comm", model.name());
            assert_eq!(a.events, b.events, "{app}/{}: events", model.name());
            assert_eq!(a.messages, b.messages, "{app}/{}: messages", model.name());
            assert_eq!(a.work_units, b.work_units, "{app}/{}: work", model.name());
            assert_eq!(a.link_bytes, b.link_bytes, "{app}/{}: per-link bytes", model.name());
            assert_eq!(a.max_link_bytes, b.max_link_bytes, "{app}/{}: bytes", model.name());
            assert_eq!(b.link_bytes.iter().copied().max(), Some(b.max_link_bytes));
        }
    }
}

/// Routes are interned per node pair at every scale: a 2 304-rank
/// exchange, 24 ranks on each of 96 Hopper nodes, simulates
/// deterministically with an arena of its node pairs' fabric hops. It
/// measured 29 184 B; rank-pair interning measured 409 600 B here, and
/// a dense rank-pair table would be 2304² × 8 B ≈ 42 MiB.
#[test]
fn node_pair_routes_simulate_deterministically_at_2304_ranks() {
    use masim_workloads::{generate, App, GenConfig};
    let ranks = 2304u32;
    let machine = Machine::hopper_full();
    let mut gcfg = GenConfig::test_default(App::Cns, ranks);
    gcfg.machine = machine.name.clone();
    gcfg.ranks_per_node = machine.cores_per_node;
    let t = generate(&gcfg);
    let cfg = SimConfig::new(machine, ModelKind::Packet { packet_bytes: 1024 }, &t);
    let ms = masim_obs::MetricSet::new();
    let a = masim_sim::run(&t, &cfg, masim_sim::SimLimits::unlimited(), Some(&ms)).unwrap();
    let b = masim_sim::run(&t, &cfg, SimLimits::unlimited(), None).expect("simulation completes");
    assert_eq!(a.total, b.total);
    assert_eq!(a.per_rank, b.per_rank);
    assert!(a.total > Time::ZERO);
    let arena = ms.snapshot().gauges.get("sim.route.arena_bytes").copied().unwrap_or(0);
    assert!(arena > 0, "arena gauge missing");
    assert!(arena <= 32 << 10, "arena {arena} B: more than the run's node-pair routes");
}

/// A memory budget far below the simulation state's footprint is a
/// typed error, not an allocator abort.
#[test]
fn memory_budget_is_a_typed_error() {
    use masim_sim::{SimError, SimLimits};
    use masim_workloads::{generate, App, GenConfig};
    let mut gcfg = GenConfig::test_default(App::Cns, 16);
    gcfg.machine = "cielito".into();
    gcfg.ranks_per_node = 16;
    let t = generate(&gcfg);
    let cfg = SimConfig::new(Machine::cielito(), ModelKind::Flow, &t);
    let limits = SimLimits::unlimited().with_memory_budget(1024);
    match masim_sim::run(&t, &cfg, limits, None) {
        Err(SimError::MemoryBudget { resident, budget }) => {
            assert_eq!(budget, 1024);
            assert!(resident > budget);
        }
        other => panic!("expected MemoryBudget, got {other:?}"),
    }
}
