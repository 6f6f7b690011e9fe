//! Engine micro-benchmarks: the DES event loop, trace
//! generation/serialization, and the statistical kernel behind Table IV.

use masim_bench::harness::{Harness, DEFAULT_SAMPLES};
use masim_des::{Engine, Handler};
use masim_stats::{fit, monte_carlo_cv};
use masim_trace::{io, Time};
use masim_workloads::{generate, App, GenConfig};
use std::hint::black_box;

/// Chain model: each event schedules the next until `limit` executions.
struct Chain {
    count: u64,
    limit: u64,
}

impl Handler for Chain {
    type Event = ();
    fn handle(eng: &mut Engine<Self>, st: &mut Self, (): ()) {
        st.count += 1;
        if st.count < st.limit {
            eng.schedule_in(Time::from_ns(10), ());
        }
    }
}

/// Raw pending-event-set throughput: schedule/execute chains.
fn des_throughput(h: &mut Harness) {
    h.bench("des/event_chain_100k", 20, || {
        let mut eng: Engine<Chain> = Engine::new();
        let mut chain = Chain { count: 0, limit: 100_000 };
        eng.schedule_at(Time::ZERO, ());
        eng.run(&mut chain);
        black_box(chain.count);
    });
    // The flow model's ripple: schedule completions, cancel and
    // reschedule half of them (arena slot reuse + stale queue entries).
    h.bench("des/schedule_cancel_50k", 20, || {
        let mut eng: Engine<Chain> = Engine::new();
        // limit 0: handlers never chain — this measures pure
        // schedule/cancel/drain traffic, including stale-entry skips.
        let mut chain = Chain { count: 0, limit: 0 };
        let ids: Vec<_> =
            (0..50_000u64).map(|i| eng.schedule_at(Time::from_ns(10 * i), ())).collect();
        for id in ids.iter().step_by(2) {
            eng.cancel(*id);
            eng.schedule_in(Time::from_us(600), ());
        }
        eng.run(&mut chain);
        black_box(chain.count);
    });
}

/// Corpus-generation and serialization throughput (Table I substrate).
fn trace_generation(h: &mut Harness) {
    let cfg = GenConfig::test_default(App::Lulesh, 64);
    h.bench("workloads/generate_lulesh64", DEFAULT_SAMPLES, || {
        black_box(generate(&cfg));
    });
    let trace = generate(&cfg);
    h.bench("trace/encode", DEFAULT_SAMPLES, || {
        black_box(io::encode(&trace));
    });
    let bytes = io::encode(&trace);
    h.bench("trace/decode", DEFAULT_SAMPLES, || {
        black_box(io::decode(&bytes).expect("round-trip"));
    });
}

/// The Table IV statistical kernel: logistic IRLS fit and a 10-round
/// MC-CV with step-wise selection.
fn train_model(h: &mut Harness) {
    // Synthetic 235×10 dataset shaped like the study's.
    let n = 235;
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..10)
                .map(|j| (((i * 31 + j * 17) % 97) as f64) * if j == 3 { 1e-9 } else { 1.0 })
                .collect()
        })
        .collect();
    let y: Vec<bool> = (0..n).map(|i| (i * 31 + 51) % 97 > 48).collect();
    h.bench("stats/logistic_fit_235x10", DEFAULT_SAMPLES, || {
        black_box(fit(&x, &y).expect("fit"));
    });
    h.bench("stats/mccv_10rounds", DEFAULT_SAMPLES, || {
        black_box(monte_carlo_cv(&x, &y, 10, 0.8, 5, 7));
    });
}

fn main() {
    let mut h = Harness::new("engines");
    des_throughput(&mut h);
    trace_generation(&mut h);
    train_model(&mut h);
    h.finish();
}
