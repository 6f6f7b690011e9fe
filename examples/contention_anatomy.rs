//! Anatomy of a modeling blind spot: where simulation genuinely beats
//! modeling.
//!
//! Runs Crystal Router (irregular hypercube traffic) and LULESH (regular
//! nearest-neighbor halos) at the same scale on the same machine, under
//! block and random task mappings, and shows how link contention —
//! visible only to the simulator — separates the tools on one workload
//! but not the other.
//!
//! ```sh
//! cargo run --release --example contention_anatomy
//! ```

use masim_mfact::{replay, ModelConfig};
use masim_sim::{simulate, ModelKind, SimConfig};
use masim_topo::{Machine, Mapping};
use masim_trace::Time;
use masim_workloads::{generate, App, GenConfig};

fn run(app: App, mapping_name: &str, machine: &Machine) {
    let cfg = GenConfig {
        app,
        ranks: app.legal_ranks(512),
        ranks_per_node: machine.cores_per_node,
        machine: machine.name.clone(),
        gbps: machine.net.bandwidth.as_gbps(),
        latency: machine.net.latency,
        size: 2,
        iters: 3,
        comm_fraction: 0.5,
        imbalance: 0.1,
        seed: 11,
    };
    let trace = generate(&cfg);
    let mapping = match mapping_name {
        "block" => Mapping::block(trace.num_ranks(), trace.meta.ranks_per_node),
        "random" => Mapping::random(trace.num_ranks(), trace.meta.ranks_per_node, 3),
        _ => unreachable!(),
    };
    let model = &replay(&trace, &[ModelConfig::base(machine.net)])[0];
    let sim_cfg = SimConfig {
        machine: machine.clone(),
        mapping,
        model: ModelKind::PacketFlow { packet_bytes: 8192 },
        compute_scale: 1.0,
        sim_threads: 1,
        route_arena_cap_bytes: u64::MAX,
    };
    let sim = simulate(&trace, &sim_cfg);
    let diff = (sim.total.as_secs_f64() / model.total.as_secs_f64() - 1.0) * 100.0;
    println!(
        "{:<8} {:<7} mapping: MFACT {:>9}  sim {:>9}  DIFF {:>7.2}%  hottest link {:>8.2} MB",
        app.name(),
        mapping_name,
        fmt(model.total),
        fmt(sim.total),
        diff,
        sim.max_link_bytes as f64 / 1e6
    );
}

fn fmt(t: Time) -> String {
    format!("{:.3}ms", t.as_secs_f64() * 1e3)
}

fn main() {
    let machine = Machine::hopper();
    println!(
        "machine: {} ({}), {} nodes x {} cores\n",
        machine.name,
        machine.topology.name(),
        machine.topology.num_nodes(),
        machine.cores_per_node
    );
    for app in [App::Lulesh, App::Cr] {
        for mapping in ["block", "random"] {
            run(app, mapping, &machine);
        }
        println!();
    }
    println!("LULESH's halos stay near-diagonal on the torus, so contention is");
    println!("negligible and MFACT is as good as simulation. Crystal Router's");
    println!("high hypercube stages cross the whole machine; shared fabric links");
    println!("queue up, and only the simulator sees it — this is the class of");
    println!("application the paper says must be simulated.");
}
