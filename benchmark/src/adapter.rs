//! The only file of the benchmark that names a masim API.
//!
//! Everything the traced run and the micro rows call goes through here,
//! and it binds the narrowest surface that does the job: the calls
//! `crates/bench/benches/*.rs` and `examples/` already use, plus one
//! budgeted (`simulate_budgeted`) and one streamed
//! (`simulate_streamed_limited`) `masim-sim` entry point. A PR that
//! renames or merges one of these re-points this file — and only this
//! file — in a benchmark PR of its own first (see README.md, "Bound
//! surface").

use masim_core::report::table2_entries;
use masim_core::StudyConfig;
use masim_des::{Engine, Handler};
use masim_mfact::{replay, try_classify, ModelConfig};
use masim_rng::Rng;
use masim_sim::lower::lower;
use masim_sim::{
    simulate_budgeted, simulate_streamed_limited, ModelKind, SimConfig, SimError, SimLimits,
    SimResult,
};
use masim_stats::{fit, monte_carlo_cv};
use masim_topo::Machine as TopoMachine;
use masim_trace::{
    io, write_stream, CollKind, Features, NodeId, Rank, StreamedTrace, Time, Trace as MasimTrace,
};
use masim_workloads::{build_corpus, generate, App, CorpusEntry, GenConfig};
use std::hint::black_box;
use std::path::Path;

/// The repo's own JSON value, writer and parser (no new dependency).
pub use masim_obs::json::{parse as parse_json, Value as Json};
/// `VmHWM` of this process, for the one workload that runs in it.
pub use masim_obs::peak_rss_bytes;

/// The seed `repro table2` hard-codes for its three applications.
const TABLE2_SEED: u64 = 7;

/// The simulator models in study order; names match `study.csv` tools 1–3.
pub const MODELS: [&str; 3] = ["packet", "flow", "packet-flow"];

/// One planned trace of a workload.
pub struct Entry(CorpusEntry);

/// The 235-entry study corpus of `seed`.
pub fn corpus(seed: u64) -> Vec<Entry> {
    build_corpus(seed).into_iter().map(Entry).collect()
}

/// The three Table II heavyweights, as `repro table2` plans them.
pub fn heavy_entries() -> Vec<Entry> {
    table2_entries(TABLE2_SEED).into_iter().map(Entry).collect()
}

/// The 64 000-rank CNS stencil on frontier, planned exactly as
/// `repro scale --machine frontier --app CNS --ranks 64000` plans it.
pub fn scale_entry(machine: &Machine) -> Entry {
    let mut cfg = GenConfig::test_default(App::Cns, 64_000);
    cfg.machine = machine.0.name.clone();
    cfg.ranks_per_node = machine.0.cores_per_node;
    Entry(CorpusEntry { cfg, rank_bucket: 0, comm_bucket: 0 })
}

impl Entry {
    /// `APP(ranks)`, the label `table2.txt` uses.
    pub fn label(&self) -> String {
        format!("{}({})", self.0.cfg.app, self.0.cfg.ranks)
    }

    pub fn app(&self) -> String {
        self.0.cfg.app.to_string()
    }

    pub fn ranks(&self) -> u32 {
        self.0.cfg.ranks
    }

    pub fn machine_name(&self) -> &str {
        &self.0.cfg.machine
    }

    pub fn generate(&self) -> Trace {
        Trace(self.0.generate())
    }
}

pub struct Trace(MasimTrace);

impl Trace {
    pub fn events(&self) -> u64 {
        self.0.num_events() as u64
    }
}

pub struct Machine(TopoMachine);

/// Look a machine up by name (this builds its topology and hop latency).
pub fn machine(name: &str) -> Result<Machine, String> {
    TopoMachine::by_name(name).map(Machine).map_err(|e| e.to_string())
}

/// Packet, flow and packet-flow work budgets of the default study.
pub fn study_budgets() -> [u64; 3] {
    let cfg = StudyConfig::default();
    [cfg.packet_budget, cfg.flow_budget, cfg.pflow_budget]
}

/// Predicted application times in seconds, one per replayed configuration.
pub type Totals = Vec<f64>;

fn totals(trace: &Trace, configs: &[ModelConfig]) -> Totals {
    replay(&trace.0, configs).iter().map(|r| r.total.as_secs_f64()).collect()
}

/// MFACT as the study runs it: the baseline plus the classifier's two
/// probes in one replay. `[0]` is the baseline prediction.
pub fn mfact_study_replay(trace: &Trace, machine: &Machine) -> Totals {
    let net = machine.0.net;
    let configs = [
        ModelConfig::base(net),
        ModelConfig::base(net.scaled(0.125, 1.0)),
        ModelConfig::base(net.scaled(1.0, 8.0)),
    ];
    totals(trace, &configs)
}

/// MFACT at the base configuration only.
pub fn mfact_base(trace: &Trace, machine: &Machine) -> Totals {
    totals(trace, &[ModelConfig::base(machine.0.net)])
}

/// MFACT's standard 7-point sweep: `[0]` baseline, `[1]` bandwidth ×8,
/// `[2]` bandwidth ÷8, then latency and computation scalings.
pub fn mfact_sweep(trace: &Trace, machine: &Machine) -> Totals {
    totals(trace, &ModelConfig::standard_sweep(machine.0.net))
}

/// The study's per-trace classification (a second, 3-configuration replay).
pub fn mfact_classify(trace: &Trace, machine: &Machine) -> bool {
    try_classify(&trace.0, machine.0.net).is_ok()
}

/// The study's per-trace Table III feature extraction.
pub fn trace_features(trace: &Trace) {
    black_box(Features::extract(&trace.0));
}

/// How one simulator run ended.
pub enum SimOutcome {
    Done {
        total_s: f64,
        /// The prediction as `masim_trace::Time` prints it.
        total_text: String,
        events: u64,
    },
    /// The work budget tripped: the paper's incomplete run, not an error.
    Budget,
    Failed(String),
}

fn outcome(res: Result<SimResult, SimError>) -> SimOutcome {
    match res {
        Ok(r) => SimOutcome::Done {
            total_s: r.total.as_secs_f64(),
            total_text: r.total.to_string(),
            events: r.events,
        },
        Err(SimError::BudgetExhausted { .. }) => SimOutcome::Budget,
        Err(e) => SimOutcome::Failed(e.to_string()),
    }
}

/// Run simulator `MODELS[model]` over an in-memory trace under a work
/// budget (`u64::MAX` for none), as the study does per trace×tool.
pub fn simulate(trace: &Trace, machine: &Machine, model: usize, budget: u64) -> SimOutcome {
    let kind = ModelKind::study_models()[model];
    let cfg = SimConfig::new(machine.0.clone(), kind, &trace.0);
    outcome(simulate_budgeted(&trace.0, &cfg, budget))
}

pub struct Stream(StreamedTrace);

/// Write `trace` to `path` in the streamed MASS v1 layout.
pub fn stream_write(trace: &Trace, path: &Path) -> Result<(), String> {
    write_stream(&trace.0, path).map_err(|e| e.to_string())
}

pub fn stream_open(path: &Path) -> Result<Stream, String> {
    StreamedTrace::open(path).map(Stream).map_err(|e| e.to_string())
}

impl Stream {
    /// Encoded bytes held resident.
    pub fn bytes(&self) -> u64 {
        self.0.resident_bytes()
    }

    /// Decode every rank's stream front to back through its `RankCursor`;
    /// returns the number of events decoded.
    pub fn walk(&self) -> u64 {
        let mut events = 0u64;
        for r in 0..self.0.num_ranks() {
            let mut cursor = self.0.cursor(Rank(r));
            for k in 0..cursor.len() {
                black_box(cursor.get(k));
                events += 1;
            }
        }
        events
    }

    /// The streamed packet run of `repro scale` under its memory budget.
    pub fn simulate_packet(&self, machine: &Machine, mem_budget_bytes: u64) -> SimOutcome {
        let kind = ModelKind::study_models()[0];
        let cfg = SimConfig::for_streamed(machine.0.clone(), kind, &self.0);
        let limits = SimLimits::unlimited().with_memory_budget(mem_budget_bytes);
        outcome(simulate_streamed_limited(&self.0, &cfg, limits))
    }
}

// ---- micro rows ---------------------------------------------------------

/// `lower::lower` over every collective kind at a short and a long
/// payload, for all ranks of a 64-rank world and 64 evenly spaced ranks
/// of a 1024-rank world. Returns the number of rounds built.
pub fn lower_all() -> u64 {
    let mut rounds = 0u64;
    for p in [64u32, 1024] {
        for kind in CollKind::ALL {
            for bytes in [1024u64, 64 * 1024] {
                for r in (0..p).step_by((p / 64) as usize) {
                    let schedule = black_box(lower(kind, Rank(r), p, bytes, Rank(0)));
                    rounds += schedule.rounds.len() as u64;
                }
            }
        }
    }
    rounds
}

/// DES model for the three engine rows: every handled event re-schedules
/// itself — 10 ns later, or a seeded random gap up to `max_gap_ns` — until
/// `limit` events have run.
struct Hold {
    handled: u64,
    limit: u64,
    rng: Rng,
    max_gap_ns: Option<u64>,
}

impl Handler for Hold {
    type Event = ();
    fn handle(eng: &mut Engine<Self>, st: &mut Self, (): ()) {
        st.handled += 1;
        if st.handled < st.limit {
            let gap = st.max_gap_ns.map_or(10, |max| st.rng.gen_range_u64(1, max));
            eng.schedule_in(Time::from_ns(gap), ());
        }
    }
}

/// One event chain: the pending set never holds more than one event.
/// Returns events executed.
pub fn des_chain(events: u64) -> u64 {
    let mut eng: Engine<Hold> = Engine::new();
    let mut st = Hold { handled: 0, limit: events, rng: Rng::seed_from_u64(0), max_gap_ns: None };
    eng.schedule_at(Time::ZERO, ());
    eng.run(&mut st);
    eng.processed()
}

/// The classic hold model: `pending` events stay queued while `events`
/// more are popped and re-scheduled at seeded random increments.
/// Returns events executed (the re-scheduled ones plus the final drain).
pub fn des_hold(pending: u64, events: u64, seed: u64) -> u64 {
    let mut eng: Engine<Hold> = Engine::new();
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..pending {
        eng.schedule_at(Time::from_ns(rng.gen_range_u64(0, 1_000_000)), ());
    }
    let mut st = Hold { handled: 0, limit: events, rng, max_gap_ns: Some(1_000_000) };
    eng.run(&mut st);
    eng.processed()
}

/// The flow model's ripple: schedule `n`, cancel every other one and
/// re-schedule it later, drain. Returns queue operations (schedules +
/// cancels).
pub fn des_cancel(n: u64) -> u64 {
    let mut eng: Engine<Hold> = Engine::new();
    // limit 0: handlers never chain, so this is pure schedule/cancel/drain.
    let mut st = Hold { handled: 0, limit: 0, rng: Rng::seed_from_u64(0), max_gap_ns: None };
    let ids: Vec<_> = (0..n).map(|i| eng.schedule_at(Time::from_ns(10 * i), ())).collect();
    for id in ids.iter().step_by(2) {
        eng.cancel(*id);
        eng.schedule_in(Time::from_us(600), ());
    }
    eng.run(&mut st);
    black_box(st.handled);
    n + 2 * n.div_ceil(2)
}

impl Machine {
    /// Route `pairs` seeded random node pairs; returns the links walked.
    pub fn route_random_pairs(&self, seed: u64, pairs: u64) -> u64 {
        let topo = &self.0.topology;
        let nodes = u64::from(topo.num_nodes());
        let mut rng = Rng::seed_from_u64(seed);
        let mut path = Vec::new();
        let mut links = 0u64;
        for _ in 0..pairs {
            let src = NodeId(rng.gen_range_u64(0, nodes) as u32);
            let dst = NodeId(rng.gen_range_u64(0, nodes) as u32);
            path.clear();
            topo.route(src, dst, &mut path);
            links += path.len() as u64;
        }
        black_box(links)
    }
}

/// A 512-rank LULESH trace of `seed` for the encode / decode rows.
pub fn codec_trace(seed: u64) -> Trace {
    let mut cfg = GenConfig::test_default(App::Lulesh, 512);
    cfg.seed = seed;
    Trace(generate(&cfg))
}

pub fn encode(trace: &Trace) -> Vec<u8> {
    io::encode(&trace.0)
}

/// Decode; returns the number of events recovered.
pub fn decode(bytes: &[u8]) -> Result<u64, String> {
    io::decode(bytes).map(|t| t.num_events() as u64).map_err(|e| e.to_string())
}

/// The synthetic 235×10 data set `benches/engines.rs` trains on, shaped
/// like the study's (one candidate on a 1e-9 scale).
pub struct Dataset {
    x: Vec<Vec<f64>>,
    y: Vec<bool>,
}

pub fn stats_dataset() -> Dataset {
    let n = 235;
    let x = (0..n)
        .map(|i| {
            (0..10)
                .map(|j| (((i * 31 + j * 17) % 97) as f64) * if j == 3 { 1e-9 } else { 1.0 })
                .collect()
        })
        .collect();
    let y = (0..n).map(|i| (i * 31 + 51) % 97 > 48).collect();
    Dataset { x, y }
}

impl Dataset {
    /// One logistic IRLS fit.
    pub fn fit(&self) -> bool {
        black_box(fit(&self.x, &self.y)).is_ok()
    }

    /// The Table IV kernel: 10 rounds of MC-CV with step-wise selection.
    pub fn mccv(&self, seed: u64) -> usize {
        black_box(monte_carlo_cv(&self.x, &self.y, 10, 0.8, 5, seed)).rounds.len()
    }
}
