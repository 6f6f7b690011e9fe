//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * packet size vs. simulation cost (SST's 1–8 KiB guidance);
//! * flow-model ripple cost vs. traffic burstiness;
//! * task mapping (block vs. random) vs. simulated time.

use masim_bench::bench_entries;
use masim_bench::harness::{Harness, DEFAULT_SAMPLES};
use masim_sim::{simulate, ModelKind, SimConfig};
use masim_topo::{Machine, Mapping};
use std::hint::black_box;

/// Packet-size sweep: the packet model's run time should scale inversely
/// with packet size while its prediction barely moves (the "minor cost
/// in simulation accuracy" SST's guidance trades for scalability).
fn packet_size_sweep(h: &mut Harness) {
    let machine = Machine::cielito();
    let entry = &bench_entries()[2]; // FT: bandwidth-heavy
    let trace = entry.generate();
    for kb in [1u64, 2, 4, 8, 16] {
        let cfg =
            SimConfig::new(machine.clone(), ModelKind::Packet { packet_bytes: kb * 1024 }, &trace);
        h.bench(&format!("ablation/packet_bytes/{kb}"), DEFAULT_SAMPLES, || {
            black_box(simulate(&trace, &cfg));
        });
    }
}

/// Flow ripple cost: regular nearest-neighbor traffic (few concurrent
/// flows) vs. an all-to-all burst (many concurrent flows sharing links).
fn flow_ripple(h: &mut Harness) {
    let machine = Machine::cielito();
    let entries = bench_entries();
    for entry in [&entries[0], &entries[2]] {
        let trace = entry.generate();
        let cfg = SimConfig::new(machine.clone(), ModelKind::Flow, &trace);
        h.bench(&format!("ablation/flow_ripple/{}", entry.cfg.app.name()), DEFAULT_SAMPLES, || {
            black_box(simulate(&trace, &cfg));
        });
    }
}

/// Mapping sensitivity: random placement lengthens routes and shifts
/// contention; the bench quantifies the simulation-cost side.
fn mapping_sweep(h: &mut Harness) {
    let machine = Machine::cielito();
    let entry = &bench_entries()[3]; // CR: irregular
    let trace = entry.generate();
    for (name, mapping) in [
        ("block", Mapping::block(trace.num_ranks(), trace.meta.ranks_per_node)),
        ("random", Mapping::random(trace.num_ranks(), trace.meta.ranks_per_node, 3)),
    ] {
        let cfg = SimConfig {
            machine: machine.clone(),
            mapping,
            model: ModelKind::PacketFlow { packet_bytes: 8192 },
            compute_scale: 1.0,
            sim_threads: 1,
            route_arena_cap_bytes: u64::MAX,
        };
        h.bench(&format!("ablation/mapping/{name}"), DEFAULT_SAMPLES, || {
            black_box(simulate(&trace, &cfg));
        });
    }
}

fn main() {
    let mut h = Harness::new("ablations");
    packet_size_sweep(&mut h);
    flow_ripple(&mut h);
    mapping_sweep(&mut h);
    h.finish();
}
