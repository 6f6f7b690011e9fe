//! Failure injection: malformed traces, degenerate configurations, and
//! boundary conditions must fail loudly and precisely — never silently
//! mis-simulate, never panic past a tool boundary.
//!
//! Every test here asserts a *typed* error (`TraceError`, `TopoError`,
//! `ReplayError`, `SimError`, or a contained `ToolFailure`); nothing in
//! this suite is allowed to rely on `should_panic`.

use std::time::Duration;

use masim_core::{contained, ToolFailure};
use masim_mfact::{replay, try_replay, ModelConfig, ReplayError};
use masim_obs::{MetricSet, Snapshot};
use masim_rng::Rng;
use masim_sim::{
    simulate, simulate_budgeted, ModelKind, SimConfig, SimError, SimLimits, SimResult,
};
use masim_topo::{Machine, Mapping, NetworkConfig, TopoError};
use masim_trace::{io, Event, EventKind, Rank, Time, Trace, TraceError, TraceMeta};
use masim_workloads::{
    corrupt_bytes, corrupt_trace, generate, App, ByteFault, GenConfig, TraceFault, TRACE_FAULTS,
};

fn meta(ranks: u32) -> TraceMeta {
    TraceMeta {
        app: "fi".into(),
        machine: "t".into(),
        ranks,
        ranks_per_node: 1,
        problem_size: 1,
        seed: 0,
    }
}

/// The two-rank mutually-blocking-receive trace used by the deadlock
/// tests.
fn deadlock_trace() -> Trace {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::new(EventKind::Recv { peer: Rank(1), bytes: 8, tag: 0 }, Time::ZERO)];
    t.events[1] = vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 8, tag: 0 }, Time::ZERO)];
    t
}

/// The FT-64 trace used to exercise work budgets and deadlines: big
/// enough that a tiny limit trips mid-run.
fn ft64_trace() -> Trace {
    let mut gcfg = GenConfig::test_default(App::Ft, 64);
    gcfg.size = 3;
    gcfg.comm_fraction = 0.6;
    generate(&gcfg)
}

const PACKET: ModelKind = ModelKind::Packet { packet_bytes: 1024 };

/// A `cfg` run observed: its outcome and the telemetry it left behind.
fn observed(
    t: &Trace,
    cfg: &SimConfig,
    limits: SimLimits,
) -> (Result<SimResult, SimError>, Snapshot) {
    let ms = MetricSet::new();
    let res = masim_sim::run(t, cfg, limits, Some(&ms));
    (res, ms.snapshot())
}

/// The failure an observed run must report: a `SimError`, with telemetry
/// in which `counter` is the one failure bumped, once.
fn one_failure(run: (Result<SimResult, SimError>, Snapshot), counter: &str) -> SimError {
    let (res, ms) = run;
    let err = res.expect_err("the run must fail");
    let bumped: Vec<_> = ms.counters.iter().filter(|(_, &v)| v > 0).collect();
    assert_eq!(bumped, [(&counter.to_string(), &1)], "{err}");
    err
}

/// A truncated binary trace is rejected at every cut point.
#[test]
fn truncated_binary_rejected() {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::compute(Time::from_us(1))];
    t.events[1] = vec![Event::new(
        EventKind::Coll { kind: masim_trace::CollKind::Barrier, bytes: 0, root: Rank(0) },
        Time::ZERO,
    )];
    let bytes = io::encode(&t);
    for cut in [1, 4, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(io::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

/// Unmatched receives are caught by validation before any tool runs.
#[test]
fn unmatched_receive_caught() {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::compute(Time::from_us(1))];
    t.events[1] =
        vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 64, tag: 0 }, Time::ZERO)];
    assert!(matches!(t.validate(), Err(TraceError::UnmatchedMessage { .. })));
}

/// Zero-byte messages flow through both tools (MPI allows empty
/// payloads; the wire still carries a header).
#[test]
fn zero_byte_messages_work() {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::new(EventKind::Send { peer: Rank(1), bytes: 0, tag: 0 }, Time::ZERO)];
    t.events[1] = vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 0, tag: 0 }, Time::ZERO)];
    assert_eq!(t.validate(), Ok(()));
    let machine = Machine::cielito();
    let m = replay(&t, &[ModelConfig::base(machine.net)]);
    assert!(m[0].total > Time::ZERO, "latency still applies");
    for model in ModelKind::study_models() {
        let r = simulate(&t, &SimConfig::new(machine.clone(), model, &t));
        assert!(r.total > Time::ZERO, "{}", model.name());
    }
}

/// A single-rank trace (no communication possible) is fine everywhere.
#[test]
fn single_rank_trace_works() {
    let mut t = Trace::empty(meta(1));
    t.events[0] = vec![
        Event::compute(Time::from_ms(1)),
        Event::new(
            EventKind::Coll { kind: masim_trace::CollKind::Barrier, bytes: 0, root: Rank(0) },
            Time::ZERO,
        ),
    ];
    assert_eq!(t.validate(), Ok(()));
    let machine = Machine::cielito();
    let m = replay(&t, &[ModelConfig::base(machine.net)]);
    assert_eq!(m[0].per_rank.len(), 1);
    for model in ModelKind::study_models() {
        let r = simulate(&t, &SimConfig::new(machine.clone(), model, &t));
        assert!(r.total >= Time::from_ms(1), "{}", model.name());
    }
}

/// Degenerate bandwidth figures are rejected at configuration time with
/// a typed error, not discovered as an infinite simulation.
#[test]
fn zero_bandwidth_rejected() {
    for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = NetworkConfig::try_new(gbps, 1_000)
            .expect_err("non-positive bandwidth must be rejected");
        assert!(
            matches!(err, TopoError::NonPositiveBandwidth { .. }),
            "gbps={gbps}: unexpected error {err}"
        );
    }
    assert!(NetworkConfig::try_new(10.0, 1_000).is_ok());
}

/// A mapping that oversubscribes node cores is rejected before the
/// simulation starts — as `SimError::InvalidConfig`, not a panic.
#[test]
fn oversubscribed_mapping_rejected() {
    let machine = Machine::cielito(); // 16 cores/node
    let mut t = Trace::empty(meta(34));
    for r in 0..34 {
        t.events[r] = vec![Event::compute(Time::from_us(1))];
    }
    let mut cfg = SimConfig {
        machine: machine.clone(),
        mapping: Mapping::block(34, 17), // 17 ranks on one 16-core node
        model: ModelKind::Flow,
        compute_scale: 1.0,
        route_arena_cap_bytes: u64::MAX,
    };
    let check = |err: SimError| match err {
        SimError::InvalidConfig { reason } => {
            assert!(reason.contains("mapping does not fit"), "reason: {reason}")
        }
        other => panic!("expected InvalidConfig, got {other}"),
    };
    check(simulate_budgeted(&t, &cfg, u64::MAX).expect_err("oversubscription must fail"));
    cfg.model = PACKET;
    check(one_failure(observed(&t, &cfg, SimLimits::unlimited()), "sim.config.invalid"));
}

/// Budget exhaustion returns a contextual error rather than a bogus
/// partial result.
#[test]
fn budget_exhaustion_is_explicit() {
    let t = ft64_trace();
    let machine = Machine::cielito();
    let cfg = SimConfig::new(machine, ModelKind::Packet { packet_bytes: 1024 }, &t);
    let err = simulate_budgeted(&t, &cfg, 2_000).expect_err("tiny budget must fail");
    assert!(
        matches!(err, SimError::BudgetExhausted { consumed, budget: 2_000 } if consumed > 2_000),
        "unexpected error: {err}"
    );
    let full = simulate_budgeted(&t, &cfg, u64::MAX).expect("unbounded run completes");
    assert!(full.events > 2_000);
}

/// A wall-clock deadline trips with a typed error carrying both the
/// elapsed time and the deadline it exceeded.
#[test]
fn deadline_exceeded_is_explicit() {
    let t = ft64_trace();
    let machine = Machine::cielito();
    let cfg = SimConfig::new(machine, ModelKind::Packet { packet_bytes: 1024 }, &t);
    let limits =
        SimLimits { max_work: u64::MAX, deadline: Some(Duration::ZERO), max_bytes: u64::MAX };
    let err = masim_sim::run(&t, &cfg, limits, None).expect_err("zero deadline must fail");
    match err {
        SimError::DeadlineExceeded { elapsed: _, deadline } => {
            assert_eq!(deadline, Duration::ZERO)
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // No deadline at all still completes.
    assert!(masim_sim::run(&t, &cfg, SimLimits::unlimited(), None).is_ok());
}

/// A route-arena cap trips as `SimError::RouteArenaExhausted` — the
/// typed replacement for the old intern-time panic at mega-scale.
#[test]
fn route_arena_cap_is_explicit() {
    let machine = Machine::cielito();
    let mut t = Trace::empty(meta(2));
    t.events[0] =
        vec![Event::new(EventKind::Send { peer: Rank(1), bytes: 64, tag: 0 }, Time::ZERO)];
    t.events[1] =
        vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 64, tag: 0 }, Time::ZERO)];
    let mut cfg = SimConfig::new(machine, ModelKind::Packet { packet_bytes: 1024 }, &t);
    // Mapping::block(2, 1) puts the ranks on different nodes, so the
    // first message needs a multi-hop route — which cannot fit in 8 B.
    cfg.mapping = Mapping::block(2, 1);
    cfg.route_arena_cap_bytes = 8;
    let err = simulate_budgeted(&t, &cfg, u64::MAX).expect_err("tiny arena cap must fail");
    match err {
        SimError::RouteArenaExhausted { bytes: _, routes, ref limit } => {
            assert_eq!(routes, 0, "the very first route must trip the cap");
            assert!(limit.contains("cap"), "limit: {limit}");
        }
        ref other => panic!("expected RouteArenaExhausted, got {other}"),
    }
    // An uncapped run of the same trace completes.
    cfg.route_arena_cap_bytes = u64::MAX;
    assert!(simulate_budgeted(&t, &cfg, u64::MAX).is_ok());
}

/// A message whose packet count exceeds the u32 sequence space is a
/// typed `SimError::OversizedMessage`, not a truncated split or a
/// debug-assert.
#[test]
fn oversized_message_is_explicit() {
    let machine = Machine::cielito();
    let mut t = Trace::empty(meta(2));
    let huge = 1u64 << 50; // 2^50 B / 1 KiB packets = 2^40 packets > u32::MAX
    t.events[0] =
        vec![Event::new(EventKind::Send { peer: Rank(1), bytes: huge, tag: 0 }, Time::ZERO)];
    t.events[1] =
        vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: huge, tag: 0 }, Time::ZERO)];
    let mut cfg = SimConfig::new(machine, ModelKind::Packet { packet_bytes: 1024 }, &t);
    cfg.mapping = Mapping::block(2, 1); // inter-node: the message hits the wire
    match one_failure(observed(&t, &cfg, SimLimits::unlimited()), "sim.msg.oversized") {
        SimError::OversizedMessage { bytes, packets } => {
            assert_eq!(bytes, huge);
            assert!(packets > u64::from(u32::MAX), "packets: {packets}");
        }
        ref other => panic!("expected OversizedMessage, got {other}"),
    }
}

/// A resident-memory budget trips as `SimError::MemoryBudget` with both
/// sides of the comparison, instead of the allocator aborting the
/// process at scale.
#[test]
fn memory_budget_is_explicit() {
    let t = ft64_trace();
    let machine = Machine::cielito();
    let cfg = SimConfig::new(machine, ModelKind::Flow, &t);
    let limits = SimLimits::unlimited().with_memory_budget(4096);
    let err = masim_sim::run(&t, &cfg, limits, None).expect_err("4 KiB budget must fail");
    match err {
        SimError::MemoryBudget { resident, budget } => {
            assert_eq!(budget, 4096);
            assert!(resident > 4096, "resident: {resident}");
        }
        ref other => panic!("expected MemoryBudget, got {other}"),
    }
    // The packet model trips the same budget before any event runs.
    let cfg = SimConfig::new(cfg.machine, PACKET, &t);
    let res = masim_sim::run(&t, &cfg, limits, None);
    assert!(matches!(res, Err(SimError::MemoryBudget { budget: 4096, .. })), "{res:?}");
    // The same failure normalizes to the study-level "memory" code.
    let failure = ToolFailure::from_sim(err);
    assert_eq!(failure.code(), "memory");
    assert!(matches!(failure, ToolFailure::MemoryBudget { .. }));
}

/// MFACT rejects replays of deadlocking traces with a typed error
/// instead of hanging or panicking.
#[test]
fn mfact_detects_deadlock() {
    let t = deadlock_trace();
    let err = try_replay(&t, &[ModelConfig::base(Machine::cielito().net)], None)
        .expect_err("deadlock must be detected");
    assert_eq!(err, ReplayError::Deadlock { finished: 0, total: 2 });
}

/// The simulator detects the same deadlock, reporting which ranks were
/// still blocked when the event queue drained.
#[test]
fn simulator_detects_deadlock() {
    let t = deadlock_trace();
    let machine = Machine::cielito();
    let check = |err: SimError| match err {
        SimError::Deadlock { finished, total, ref waiting_ranks, .. } => {
            assert_eq!((finished, total), (0, 2));
            assert_eq!(waiting_ranks, &[0, 1], "blocked ranks must be reported");
        }
        ref other => panic!("expected Deadlock, got {other}"),
    };
    let cfg = SimConfig::new(machine.clone(), ModelKind::Flow, &t);
    check(simulate_budgeted(&t, &cfg, u64::MAX).expect_err("deadlock must be detected"));
    let cfg = SimConfig::new(machine, PACKET, &t);
    check(one_failure(observed(&t, &cfg, SimLimits::unlimited()), "sim.deadlock.detected"));
}

/// Text parsing rejects hostile input with a parse error — it neither
/// panics nor quietly fabricates a trace.
#[test]
fn hostile_text_input() {
    for garbage in [
        "",
        "\n\n\n",
        "# masim trace:",
        "# masim trace: app= machine= ranks=abc rpn=1 size=1 seed=0",
        "# masim trace: app=x machine=y ranks=1 rpn=1 size=1 seed=0\nr0 -5us compute",
        "# masim trace: app=x machine=y ranks=1 rpn=1 size=1 seed=0\nr0 1us send -> r9 8B tag=0",
    ] {
        assert!(
            masim_trace::from_text(garbage).is_err(),
            "hostile input must be rejected: {garbage:?}"
        );
    }
}

/// Seeded fuzz over the binary codec: every truncation is rejected and
/// no bit flip can make `decode` (or validation of whatever it yields)
/// panic. Fixed seeds keep the sweep reproducible.
#[test]
fn decode_fuzz_survives_byte_corruption() {
    let t = generate(&GenConfig::test_default(App::Mg, 8));
    let bytes = io::encode(&t);
    assert_eq!(io::decode(&bytes).expect("healthy buffer decodes"), t);
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let cut = corrupt_bytes(&bytes, ByteFault::Truncate, &mut rng);
        assert!(
            io::decode(&cut).is_err(),
            "seed {seed}: truncation to {} of {} bytes must be rejected",
            cut.len(),
            bytes.len()
        );
        let flipped = corrupt_bytes(&bytes, ByteFault::FlipBit, &mut rng);
        // A single flipped bit may or may not be structurally fatal;
        // both outcomes are fine, unwinding is not.
        let outcome = contained(|| Ok(io::decode(&flipped).map(|t2| t2.validate().is_ok())));
        assert!(
            !matches!(outcome, Err(ToolFailure::Panicked { .. })),
            "seed {seed}: decode of flipped buffer panicked"
        );
    }
}

/// Chaos sweep: every structural corruption lands in a typed error at
/// validation, and even tools fed the corrupt trace *without* prior
/// validation either return a typed error or are contained — no panic
/// ever escapes a tool boundary.
#[test]
fn chaos_trace_faults_land_in_typed_errors() {
    let healthy = generate(&GenConfig::test_default(App::Cg, 8));
    let machine = Machine::cielito();
    let configs = [ModelConfig::base(machine.net)];
    // Derive the sim config from the healthy twin (same meta and rank
    // count): deriving it from the corrupted trace would overflow in
    // debug builds before the containment boundary is even reached.
    let cfg = SimConfig::new(machine.clone(), PACKET, &healthy);
    for fault in TRACE_FAULTS {
        for seed in 0..6u64 {
            let bad = corrupt_trace(&healthy, fault, &mut Rng::seed_from_u64(seed));

            // Stage 1: validation. Every structural fault except the
            // pathological-but-well-formed compute duration is caught
            // here with a typed TraceError.
            let verdict =
                contained(|| Ok(bad.validate())).expect("validation itself must never panic");
            match fault {
                TraceFault::HugeCompute => {
                    assert_eq!(verdict, Ok(()), "{fault:?}/{seed}: huge durations are well-formed")
                }
                _ => assert!(verdict.is_err(), "{fault:?}/{seed}: validation must object"),
            }

            // Stage 2: MFACT replay behind the containment boundary.
            // The logical clock uses unchecked adds, so HugeCompute may
            // debug-panic — `contained` must turn that into a typed
            // failure rather than an unwind.
            let mfact = contained(|| {
                try_replay(&bad, &configs, None).map(|_| ()).map_err(ToolFailure::from_replay)
            });
            match fault {
                TraceFault::RecvRecvDeadlock => assert!(
                    matches!(mfact, Err(ToolFailure::Deadlock { .. })),
                    "{fault:?}/{seed}: expected typed deadlock, got {mfact:?}"
                ),
                TraceFault::HugeCompute => { /* contained() returning at all is the contract */ }
                _ => assert!(mfact.is_err(), "{fault:?}/{seed}: replay must fail: {mfact:?}"),
            }

            // Stage 3: the discrete-event simulator, same boundary. Its
            // clock arithmetic is checked, so even the overflow fault must
            // surface as a typed SimError.
            let run = contained(|| Ok(observed(&bad, &cfg, SimLimits::unlimited())))
                .unwrap_or_else(|e| panic!("{fault:?}/{seed}: simulator panicked: {e:?}"));
            let res = &run.0;
            // The study-level code the outcome normalizes to.
            let failure = res.as_ref().map_err(|e| ToolFailure::from_sim(e.clone()));
            match fault {
                TraceFault::HugeCompute => assert!(
                    matches!(res, Err(SimError::ClockOverflow { .. }))
                        && matches!(failure, Err(ToolFailure::ClockOverflow { .. })),
                    "{fault:?}/{seed}: expected typed overflow, got {res:?} -> {failure:?}"
                ),
                TraceFault::RecvRecvDeadlock => assert!(
                    matches!(res, Err(SimError::Deadlock { .. }))
                        && matches!(failure, Err(ToolFailure::Deadlock { .. })),
                    "{fault:?}/{seed}: expected typed deadlock, got {res:?} -> {failure:?}"
                ),
                _ => { /* any typed outcome: a panic was caught above */ }
            }
            if fault == TraceFault::WildWaitRequest {
                let err = one_failure(run, "sim.trace.unknown-request");
                assert!(matches!(err, SimError::UnknownRequest { .. }), "{fault:?}/{seed}: {err}");
            }
        }
    }
}

/// The containment primitive itself: an arbitrary panic inside a tool
/// closure becomes `ToolFailure::Panicked` carrying the payload.
#[test]
fn panics_become_typed_failures() {
    let r = contained::<()>(|| panic!("injected tool crash"));
    assert_eq!(r, Err(ToolFailure::Panicked { message: "injected tool crash".into() }));
}

/// Chaos-built mixed-failure study: MFACT fails on one trace while
/// packet-flow completes (and vice versa on another) — exactly the
/// shape the old report.rs unwraps panicked on. Every report must
/// render and census the incomplete traces.
#[test]
fn chaos_mixed_failure_study_renders_all_reports() {
    use masim_core::{report, Study, StudyConfig, ToolRun};

    let mut study = Study::run_filtered(StudyConfig::default(), |i| i == 30 || i == 40);
    assert!(study.traces.iter().all(|t| t.mfact.completed() && t.pflow.completed()));

    // Derive a *real* typed MFACT failure from the chaos injectors: a
    // RecvRecvDeadlock-corrupted trace deadlocks the replay behind the
    // containment boundary.
    let healthy = generate(&GenConfig::test_default(App::Cg, 8));
    let bad = corrupt_trace(&healthy, TraceFault::RecvRecvDeadlock, &mut Rng::seed_from_u64(3));
    let chaos_failure = contained(|| {
        try_replay(&bad, &[ModelConfig::base(Machine::cielito().net)], None)
            .map(|_| ())
            .map_err(ToolFailure::from_replay)
    })
    .expect_err("deadlock fault must fail the replay");
    assert!(matches!(chaos_failure, ToolFailure::Deadlock { .. }), "{chaos_failure:?}");

    // Install it as trace 0's MFACT outcome (packet-flow still fine) and
    // as trace 1's packet-flow outcome (MFACT still fine).
    let wall = study.traces[0].mfact.wall;
    study.traces[0].mfact = ToolRun::failed(chaos_failure.clone(), wall);
    let wall = study.traces[1].pflow.wall;
    study.traces[1].pflow = ToolRun::failed(chaos_failure, wall);

    for text in [
        report::table1(&study),
        report::fig1(&study),
        report::fig2(&study),
        report::fig3(&study),
        report::fig4(&study),
        report::fig5(&study),
        report::class_census(&study),
        report::study_csv(&study),
        report::table2_text(&study.traces),
    ] {
        assert!(!text.is_empty());
        assert!(!text.contains("NaN"), "{text}");
    }
    // Censuses: fig1 reports the deadlock cause, the per-app reports and
    // Table II annotate the exclusions.
    assert!(report::fig1(&study).contains("deadlock"));
    let per_app = format!("{}{}", report::fig3(&study), report::fig4(&study));
    assert!(per_app.contains("incomplete"), "{per_app}");
    assert!(report::table2_text(&study.traces).contains("incomplete"));
}
