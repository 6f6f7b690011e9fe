//! The intra-trace PDES determinism contract: partitioning the packet
//! model onto `WindowedPdes` (`--sim-threads N > 1`) must produce
//! predictions bit-identical to the sequential engine, at every thread
//! count, because the partition count and the cross-partition message
//! order are pure functions of the topology — never of the worker
//! count. These tests pin that equivalence at three layers: the
//! `SimResult` fields, the shared telemetry schema, and typed failure
//! behaviour.

use masim_obs::run::mask_floats;
use masim_obs::MetricSet;
use masim_sim::{
    simulate, simulate_budgeted, simulate_streamed_limited, ModelKind, SimConfig, SimLimits,
    SimResult, EXECUTOR_SERIES,
};
use masim_topo::Machine;
use masim_trace::{StreamedTrace, Trace};
use masim_workloads::{generate, App, GenConfig};

const SEEDS: [u64; 3] = [7, 41, 99];
const THREADS: [usize; 3] = [1, 2, 4];

fn packet_cfg(trace: &Trace, sim_threads: usize) -> SimConfig {
    let mut cfg =
        SimConfig::new(Machine::cielito(), ModelKind::Packet { packet_bytes: 1024 }, trace);
    cfg.sim_threads = sim_threads;
    cfg
}

/// CG(64) spread two ranks per node: 32 of cielito's 64 nodes, 16 of
/// its 32 switches, so the 8-way partition sees real cross-LP traffic.
/// (At the bench density of 16 ranks/node the trace fits on 4 nodes and
/// a single partition — correct, but a vacuous determinism check.)
fn cg_trace(seed: u64) -> Trace {
    let mut gcfg = GenConfig::test_default(App::Cg, 64);
    gcfg.machine = "cielito".into();
    gcfg.ranks_per_node = 2;
    gcfg.seed = seed;
    generate(&gcfg)
}

fn assert_identical(a: &SimResult, b: &SimResult, tag: &str) {
    assert_eq!(a.total, b.total, "{tag}: total");
    assert_eq!(a.per_rank, b.per_rank, "{tag}: per_rank");
    assert_eq!(a.comm_time, b.comm_time, "{tag}: comm_time");
    assert_eq!(a.events, b.events, "{tag}: events");
    assert_eq!(a.messages, b.messages, "{tag}: messages");
    assert_eq!(a.work_units, b.work_units, "{tag}: work_units");
    assert_eq!(a.link_bytes, b.link_bytes, "{tag}: link_bytes");
    assert_eq!(a.max_link_bytes, b.max_link_bytes, "{tag}: max_link_bytes");
    assert_eq!(b.link_bytes.iter().copied().max(), Some(b.max_link_bytes), "{tag}: max of vector");
}

/// The core contract: for every app, seed, and thread count, the
/// partitioned packet model's `SimResult` equals the sequential
/// engine's, field for field.
#[test]
fn partitioned_packet_model_is_bit_identical() {
    for app in App::ALL {
        for seed in SEEDS {
            let mut gcfg = GenConfig::test_default(app, 32);
            gcfg.machine = "cielito".into();
            // Two ranks per node so even rank-snapping apps (BigFFT
            // drops 32 -> 16) still span multiple nodes and emit
            // inter-node packets; one node would mean zero packet work.
            gcfg.ranks_per_node = 2;
            gcfg.seed = seed;
            let trace = generate(&gcfg);
            let seq = simulate(&trace, &packet_cfg(&trace, 1));
            assert!(seq.events > 0 && seq.work_units > 0, "{app}/{seed}: trivial trace");
            for threads in THREADS {
                let par = simulate(&trace, &packet_cfg(&trace, threads));
                assert_identical(&seq, &par, &format!("{app}/seed{seed}/t{threads}"));
            }
        }
    }
}

/// The bench workload (packet/CG(64) on cielito, the PR's speedup
/// gate): larger trace, more partitions crossing, same bit-identity —
/// across the sequential engine, the partitioned executor at 2, 4 and 8
/// workers, and the streamed source on either executor. (The one-worker
/// windowed loop is pinned by `pdes_run.rs`'s own test.)
#[test]
fn cg64_bench_shape_is_bit_identical() {
    let trace = cg_trace(99);
    let seq = simulate(&trace, &packet_cfg(&trace, 1));
    for threads in [2, 4, 8] {
        let par = simulate(&trace, &packet_cfg(&trace, threads));
        assert_identical(&seq, &par, &format!("cg64/t{threads}"));
    }
    let stream = StreamedTrace::from_bytes(masim_trace::encode_stream(&trace)).unwrap();
    for threads in [1, 2, 4] {
        let streamed = simulate_streamed_limited(
            &stream,
            &packet_cfg(&trace, threads),
            SimLimits::unlimited(),
        )
        .expect("run completes");
        assert_identical(&seq, &streamed, &format!("cg64/streamed/t{threads}"));
    }
}

/// The telemetry both paths share must agree exactly — every counter,
/// gauge and histogram, and every span's count. Only the series an
/// executor emits about itself (`EXECUTOR_SERIES`: `des.pdes.*`, queue
/// occupancy, arena footprint) may exist on one side or differ, so a
/// series added to one result tail only fails here.
#[test]
fn shared_metrics_schema_agrees() {
    let trace = cg_trace(41);
    let run = |threads: usize| {
        let ms = MetricSet::new();
        masim_sim::run(&trace, &packet_cfg(&trace, threads), SimLimits::unlimited(), Some(&ms))
            .expect("run completes");
        ms.snapshot()
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.deterministic(&EXECUTOR_SERIES), par.deterministic(&EXECUTOR_SERIES));
    // The partitioned run must additionally surface its executor stats.
    assert!(par.counters.get("des.pdes.windows").copied().unwrap_or(0) > 0);
    assert!(par.counters.get("des.pdes.crossings").copied().unwrap_or(0) > 0);
}

/// Typed failures survive partitioning: a budget too small for the
/// trace trips `BudgetExhausted` (window-aligned, so the trip point is
/// thread-count and source independent), never a panic.
#[test]
fn budget_trips_as_typed_error_at_any_thread_count() {
    let trace = cg_trace(7);
    let stream = StreamedTrace::from_bytes(masim_trace::encode_stream(&trace)).unwrap();
    let mut trips = Vec::new();
    for threads in [2, 4] {
        let cfg = packet_cfg(&trace, threads);
        let err = simulate_budgeted(&trace, &cfg, 10_000).expect_err("tiny budget must trip");
        let streamed = simulate_streamed_limited(&stream, &cfg, SimLimits::budget(10_000));
        assert_eq!(streamed.err().as_ref(), Some(&err), "streamed source at t{threads}");
        match err {
            masim_sim::SimError::BudgetExhausted { consumed, budget } => {
                assert_eq!(budget, 10_000);
                trips.push(consumed);
            }
            other => panic!("expected BudgetExhausted, got {other}"),
        }
    }
    assert_eq!(trips[0], trips[1], "budget trip point must be worker-count independent");
}

/// Table II rendered from a partitioned run is byte-identical to the
/// sequential rendering once wall seconds are masked; integer fields
/// (app names, rank counts, failure annotations) must match exactly.
/// Table III is the static candidate catalogue — no simulation input,
/// so its bytes cannot depend on the executor; it is rendered once per
/// thread count anyway to pin that assumption.
#[test]
fn table_reports_are_byte_identical_across_sim_threads() {
    use masim_core::{Session, SessionSpec, StudyKind};
    let table2 = |sim_threads: usize| {
        let spec = SessionSpec { kind: StudyKind::Table2 { tiny: true }, seed: 7 };
        let mut session = Session::new(spec).unwrap();
        session.set_sim_threads(sim_threads);
        session.run(1, None, None, &MetricSet::new(), "table2", None, |_, _, _| {}).unwrap();
        session.report()
    };
    let seq_masked = mask_floats(&table2(1));
    let seq_table3 = masim_core::report::table3();
    for threads in [2usize, 4] {
        assert_eq!(
            seq_masked,
            mask_floats(&table2(threads)),
            "Table II bytes diverged at sim_threads={threads}"
        );
        assert_eq!(seq_table3, masim_core::report::table3());
    }
}

/// Non-packet models ignore `sim_threads` and stay on the sequential
/// engine: same results with the knob set.
#[test]
fn non_packet_models_stay_sequential() {
    let trace = cg_trace(7);
    for model in [ModelKind::Flow, ModelKind::PacketFlow { packet_bytes: 8192 }] {
        let mut a = SimConfig::new(Machine::cielito(), model, &trace);
        let mut b = a.clone();
        a.sim_threads = 1;
        b.sim_threads = 4;
        assert_identical(
            &simulate(&trace, &a),
            &simulate(&trace, &b),
            &format!("{}/threads-ignored", model.name()),
        );
    }
}
