//! The paper's Section VI workflow, end to end: train the enhanced
//! MFACT on a corpus slice, then ask it — for fresh, unseen workloads —
//! whether detailed simulation is worth running, and check its answers
//! against the actual simulation results.
//!
//! ```sh
//! cargo run --release --example needs_simulation
//! ```

use masim_core::report;
use masim_core::{run_one_observed, Dataset, Enhanced, Study, StudyConfig, DIFF_THRESHOLD};
use masim_trace::{Features, Time};
use masim_workloads::{App, CorpusEntry, GenConfig};

fn main() {
    // 1. Train on a deterministic slice of the study corpus (every 4th
    // trace; the full 235-trace study is the `repro` harness's job).
    println!("running the study on a corpus slice (this takes a minute)...");
    let study = Study::run_filtered(StudyConfig::default(), |i| i % 4 == 0);
    let data = Dataset::from_study(&study);
    let enhanced = Enhanced::train(&data, 17);
    println!(
        "trained on {} traces: naive accuracy {:.1}%, enhanced success rate {:.1}%\n",
        data.len(),
        data.naive_accuracy() * 100.0,
        enhanced.success_rate() * 100.0
    );
    println!("{}", report::table4(&enhanced));

    // 2. Fresh workloads the model has not seen (different seeds/sizes).
    let fresh = [
        (App::Ep, 128, 0.03, 0.02),
        (App::Lulesh, 216, 0.12, 0.1),
        (App::Cmc, 300, 0.2, 0.6),
        (App::Ft, 256, 0.55, 0.15),
        (App::Cr, 512, 0.65, 0.1),
        (App::MiniFe, 180, 0.12, 0.45),
    ];
    println!("fresh workloads:");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>9}",
        "app(ranks)", "recommend?", "DIFFtotal", "actual need", "verdict"
    );
    let mut correct = 0;
    for (app, ranks, frac, imb) in fresh {
        let cfg = GenConfig {
            app,
            ranks: app.legal_ranks(ranks),
            ranks_per_node: 24,
            machine: "hopper".into(),
            gbps: 35.0,
            latency: Time::from_ns(2_575),
            size: 1,
            iters: 4,
            comm_fraction: frac,
            imbalance: imb,
            seed: 20_260_707, // unseen by training
        };
        let entry = CorpusEntry { cfg, rank_bucket: 0, comm_bucket: 0 };
        let t = run_one_observed(&entry, &StudyConfig::default()).study;

        // The enhanced MFACT sees only what MFACT produces: trace
        // features + the classification — not the simulation.
        let mut x: Vec<f64> = Features::extract(&entry.generate()).as_vec().to_vec();
        x.push(if t.classification.is_comm_sensitive() { 0.0 } else { 1.0 });
        let recommend = enhanced.recommend(&x);

        // Ground truth from actually running the simulation.
        let diff = t.diff_total_pflow().unwrap_or(f64::NAN);
        let needs = diff > DIFF_THRESHOLD;
        let ok = recommend == needs;
        correct += ok as u32;
        println!(
            "{:<14} {:>12} {:>11.2}% {:>12} {:>9}",
            format!("{}({})", entry.cfg.app, entry.cfg.ranks),
            if recommend { "simulate" } else { "model" },
            diff * 100.0,
            if needs { "simulate" } else { "model" },
            if ok { "correct" } else { "WRONG" }
        );
    }
    println!("\n{correct}/{} fresh predictions correct.", fresh.len());
    println!("A wrong 'model' verdict risks a mispredicted study; a wrong");
    println!("'simulate' verdict merely wastes simulation time.");
}
