//! Per-event cost probe for the packet model on CG(64), 16 ranks per
//! node on Cielito (the slowest tool on a communication-heavy trace).
//!
//! Reports ns/event and events/s from the engine's own processed-event
//! counter, the unit of `benchmark/`'s `sim.packet_ns_per_event` row.
//! It is a profiling driver, not a gate: run it under a profiler with
//! `cargo run --release -p masim-bench --example packet_profile`.

use masim_obs::MetricSet;
use masim_sim::{ModelKind, SimConfig, SimLimits};
use masim_topo::Machine;
use masim_trace::Time;
use masim_workloads::{generate, App, GenConfig};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let machine = Machine::cielito();
    let gen = GenConfig {
        app: App::Cg,
        ranks: App::Cg.legal_ranks(64),
        ranks_per_node: 16,
        machine: "cielito".into(),
        gbps: 10.0,
        latency: Time::from_ns(2_500),
        size: 1,
        iters: 3,
        comm_fraction: 0.25,
        imbalance: 0.1,
        seed: 99,
    };
    gen.check();
    let trace = generate(&gen);
    let [pkt, _, _] = ModelKind::study_models();
    let cfg = SimConfig::new(machine.clone(), pkt, &trace);
    // Warm up.
    for _ in 0..3 {
        let ms = MetricSet::new();
        black_box(masim_sim::run(&trace, &cfg, SimLimits::unlimited(), Some(&ms)).unwrap());
    }
    let mut best = f64::MAX;
    let mut events = 0u64;
    let mut total_ps = 0u64;
    for _ in 0..1500 {
        let ms = MetricSet::new();
        let t0 = Instant::now();
        let res = masim_sim::run(&trace, &cfg, SimLimits::unlimited(), Some(&ms)).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        events = ms.snapshot().counters["des.engine.processed"];
        total_ps = black_box(res).total.as_ps();
    }
    println!(
        "events {}  best {:.3}ms  {:.1}ns/event  {:.2}M events/s  sim total {:.3}ms ({} buckets of 65536ps, {:.1} walked/event)",
        events,
        best * 1e3,
        best * 1e9 / events as f64,
        events as f64 / best / 1e6,
        total_ps as f64 / 1e9,
        total_ps / 65536,
        (total_ps / 65536) as f64 / events as f64
    );
}
