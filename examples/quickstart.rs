//! Quickstart: generate a workload trace, model it with MFACT, simulate
//! it with all three SST/Macro-style network models, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use masim_mfact::{replay, try_classify, ModelConfig};
use masim_sim::{ModelKind, SimConfig, SimLimits};
use masim_topo::Machine;
use masim_workloads::{generate, App, GenConfig};
use std::time::Instant;

fn main() {
    // 1. Synthesize a 64-rank LULESH trace as if collected on Cielito.
    let machine = Machine::cielito();
    let cfg = GenConfig {
        app: App::Lulesh,
        ranks: 64,
        ranks_per_node: machine.cores_per_node,
        machine: machine.name.clone(),
        gbps: machine.net.bandwidth.as_gbps(),
        latency: machine.net.latency,
        size: 2,
        iters: 10,
        comm_fraction: 0.15,
        imbalance: 0.1,
        seed: 42,
    };
    let trace = generate(&cfg);
    trace.validate().expect("generated traces are well-formed");
    println!(
        "trace: {} — {} events, {:.1} MB traffic, measured time {}",
        trace.meta.label(),
        trace.num_events(),
        trace.total_bytes() as f64 / 1e6,
        trace.measured_time(),
    );

    // 2. Model it with MFACT (one replay, the baseline configuration).
    let t0 = Instant::now();
    let model = &replay(&trace, &[ModelConfig::base(machine.net)])[0];
    let mfact_wall = t0.elapsed();
    println!("\nMFACT     : predicted total {} (wall {:?})", model.total, mfact_wall);
    println!(
        "            counters: wait {} latency {} bandwidth {} compute {}",
        model.counters.wait,
        model.counters.latency,
        model.counters.bandwidth,
        model.counters.computation
    );

    // 3. Classify the application.
    let class = try_classify(&trace, machine.net).expect("replay completes");
    println!(
        "            class: {} (bw sens {:+.1}%, lat sens {:+.1}%)",
        class.class,
        class.bw_sensitivity * 100.0,
        class.lat_sensitivity * 100.0
    );

    // 4. Simulate with each network model and compare.
    for model_kind in ModelKind::study_models() {
        let sim_cfg = SimConfig::new(machine.clone(), model_kind, &trace);
        let t1 = Instant::now();
        let r = masim_sim::run(&trace, &sim_cfg, SimLimits::unlimited(), None)
            .expect("simulation completes");
        let wall = t1.elapsed();
        let diff = (r.total.as_secs_f64() / model.total.as_secs_f64() - 1.0) * 100.0;
        println!(
            "{:<11}: predicted total {} (DIFF {:+.2}%, wall {:?}, {}x MFACT)",
            model_kind.name(),
            r.total,
            diff,
            wall,
            (wall.as_secs_f64() / mfact_wall.as_secs_f64()).round() as u64
        );
    }

    println!("\nModeling agreed with simulation to within a few percent while");
    println!("running orders of magnitude faster — the paper's headline trade-off.");
}
