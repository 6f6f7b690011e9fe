//! The performance/accuracy trade-off study (Section V).
//!
//! For every trace in the corpus, run MFACT once (a multi-configuration
//! replay that also yields the classification) and the three SST/Macro
//! network models, recording predicted times and tool wall-clock times.
//! Packet and flow simulations run under a work budget and may *fail*,
//! mirroring the paper where they completed only 216 and 162 of the 235
//! traces; MFACT and packet-flow complete everything.
//!
//! Tool failure is **data** here, never a crash: every per-trace tool
//! run executes behind a panic boundary ([`contained`]) and records its
//! cause as a [`ToolFailure`] (a code plus the cause's own text) on the
//! [`ToolRun`], so a malformed trace or a pathological configuration
//! costs the study one entry, not the whole corpus. Causes surface in
//! reports ([`Study::failure_census`]) and as a `failure` label on the
//! per-tool metric sidecars.
//!
//! Tool wall-clock times are measured through `masim-obs` spans, and
//! every run returns one labeled [`RunMetrics`] sidecar per tool per
//! trace (`tool` ∈ {corpus, mfact, packet, flow, packet-flow}) carrying
//! the instrumented engines' counters.

use masim_mfact::{probe_configs, try_replay, AppClass, Classification, Counters, ReplayError};
use masim_obs::json::Value;
use masim_obs::{MetricSet, Progress, RunMetrics};
use masim_sim::{ModelKind, SimConfig, SimError, SimLimits};
use masim_topo::{Machine, TopoError};
use masim_trace::{Features, Time, Trace, NUM_FEATURES};
use masim_workloads::{build_corpus, CorpusEntry};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// The failure codes, as reports, the `*_failure` CSV columns, the
/// `failure=` sidecar labels and the result store print them: work
/// budget, deadlock, clock overflow, rejected trace or configuration,
/// contained panic, memory budget.
const CODES: [&str; 6] = ["budget", "deadlock", "overflow", "invalid-config", "panic", "memory"];

/// Why a tool failed on a trace: one of six codes plus the cause's own
/// text. A simulator's [`SimError`], a modeler's [`ReplayError`], a
/// machine lookup's [`TopoError`] and a caught panic all become this one
/// record.
#[derive(Clone, Debug, PartialEq)]
pub struct ToolFailure {
    code: &'static str,
    detail: String,
}

impl ToolFailure {
    fn new(code: &'static str, cause: &dyn Display) -> ToolFailure {
        debug_assert!(CODES.contains(&code), "unknown failure code {code:?}");
        ToolFailure { code, detail: cause.to_string() }
    }

    /// A caught panic; its payload is the detail when it is a string.
    fn panicked(payload: &(dyn Any + Send)) -> ToolFailure {
        let text = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        ToolFailure::new("panic", &text.unwrap_or("<non-string panic payload>"))
    }

    /// The failure code: `budget`, `deadlock`, `overflow`,
    /// `invalid-config`, `panic` or `memory`.
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// The cause's own `Display` text (the payload, for a panic).
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl From<SimError> for ToolFailure {
    fn from(e: SimError) -> ToolFailure {
        let code = match e {
            SimError::BudgetExhausted { .. } => "budget",
            SimError::Deadlock { .. } => "deadlock",
            SimError::ClockOverflow { .. } => "overflow",
            SimError::RouteArenaExhausted { .. } | SimError::MemoryBudget { .. } => "memory",
            SimError::InvalidConfig { .. }
            | SimError::Malformed(_)
            | SimError::OversizedMessage { .. }
            | SimError::CollectiveTagOverflow { .. } => "invalid-config",
        };
        ToolFailure::new(code, &e)
    }
}

impl From<ReplayError> for ToolFailure {
    fn from(e: ReplayError) -> ToolFailure {
        let deadlock = matches!(e, ReplayError::Deadlock { .. });
        ToolFailure::new(if deadlock { "deadlock" } else { "invalid-config" }, &e)
    }
}

impl From<TopoError> for ToolFailure {
    fn from(e: TopoError) -> ToolFailure {
        ToolFailure::new("invalid-config", &e)
    }
}

/// Run `f` behind a panic boundary: a panic becomes a `panic`
/// [`ToolFailure`] instead of unwinding into the study loop. This is the
/// containment primitive every per-trace tool run goes through.
pub fn contained<T>(f: impl FnOnce() -> Result<T, ToolFailure>) -> Result<T, ToolFailure> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(ToolFailure::panicked(payload.as_ref())),
    }
}

/// Outcome of one tool on one trace.
#[derive(Clone, Debug)]
pub struct ToolRun {
    /// Predicted application (total) time; `None` if the tool failed.
    pub total: Option<Time>,
    /// Predicted communication time (summed over ranks).
    pub comm: Option<Time>,
    /// Wall-clock time the tool took on this host.
    pub wall: Duration,
    /// Why the tool failed; `None` when it completed.
    pub failure: Option<ToolFailure>,
}

impl ToolRun {
    /// A completed run.
    pub fn ok(total: Time, comm: Time, wall: Duration) -> ToolRun {
        ToolRun { total: Some(total), comm: Some(comm), wall, failure: None }
    }

    /// A failed run with its recorded cause.
    pub fn failed(failure: ToolFailure, wall: Duration) -> ToolRun {
        ToolRun { total: None, comm: None, wall, failure: Some(failure) }
    }

    /// Did the tool produce a prediction?
    pub fn completed(&self) -> bool {
        self.total.is_some()
    }
}

/// Everything the study measures for one trace.
#[derive(Clone, Debug)]
pub struct TraceStudy {
    /// The corpus entry (configuration + bucket plan).
    pub entry: CorpusEntry,
    /// Measured application time recorded in the trace.
    pub measured_total: Time,
    /// Measured communication time (summed over ranks).
    pub measured_comm: Time,
    /// Trace size (events), for context in reports.
    pub events: usize,
    /// The 34 measurable Table III features.
    pub features: Features,
    /// MFACT's classification (and its sensitivity evidence).
    pub classification: Classification,
    /// MFACT modeling run.
    pub mfact: ToolRun,
    /// Packet-level simulation run.
    pub packet: ToolRun,
    /// Flow-level simulation run.
    pub flow: ToolRun,
    /// Hybrid packet-flow simulation run.
    pub pflow: ToolRun,
}

impl TraceStudy {
    /// `DIFFtotal` against a simulator's prediction:
    /// `|sim_total / mfact_total − 1|`; `None` if that simulator failed.
    pub fn diff_total(&self, sim: &ToolRun) -> Option<f64> {
        let s = sim.total?.as_secs_f64();
        let m = self.mfact.total?.as_secs_f64();
        if m <= 0.0 {
            return None;
        }
        Some((s / m - 1.0).abs())
    }

    /// Signed relative difference in predicted *communication* time.
    pub fn diff_comm(&self, sim: &ToolRun) -> Option<f64> {
        let s = sim.comm?.as_secs_f64();
        let m = self.mfact.comm?.as_secs_f64();
        if m <= 0.0 {
            return None;
        }
        Some(s / m - 1.0)
    }

    /// The paper's headline DIFFtotal (packet-flow vs. MFACT).
    pub fn diff_total_pflow(&self) -> Option<f64> {
        self.diff_total(&self.pflow)
    }

    /// Wall-clock ratio simulation/modeling for one simulator.
    pub fn time_ratio(&self, sim: &ToolRun) -> Option<f64> {
        if !sim.completed() {
            return None;
        }
        let m = self.mfact.wall.as_secs_f64();
        if m <= 0.0 {
            return None;
        }
        Some(sim.wall.as_secs_f64() / m)
    }

    /// True when all four tools completed (the paper's timing-study
    /// filter).
    pub fn all_completed(&self) -> bool {
        self.mfact.completed()
            && self.packet.completed()
            && self.flow.completed()
            && self.pflow.completed()
    }
}

/// Study configuration.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Corpus seed.
    pub seed: u64,
    /// Work budget (DES events + model work units) for the packet model.
    /// The heaviest traces exceed it and count as failures.
    pub packet_budget: u64,
    /// Work budget for the flow model (its ripple cost explodes on
    /// bursty many-flow traces; the paper's flow model failed 73 traces).
    pub flow_budget: u64,
    /// Work budget for packet-flow (effectively unlimited: the paper's
    /// packet-flow model completes all 235 traces).
    pub pflow_budget: u64,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            seed: 7,
            packet_budget: 1_640_000,
            flow_budget: 211_200,
            pflow_budget: u64::MAX,
        }
    }
}

/// The full study result.
#[derive(Clone, Debug)]
pub struct Study {
    /// Per-trace measurements, in corpus order.
    pub traces: Vec<TraceStudy>,
    /// The configuration used.
    pub config: StudyConfig,
}

/// One trace's study outcome plus its per-tool metric sidecars.
pub struct ObservedTrace {
    /// The measurements.
    pub study: TraceStudy,
    /// One labeled sidecar per stage, in order: trace generation
    /// (`tool=corpus`), then `mfact`, `packet`, `flow`, `packet-flow`.
    /// Failed tool runs additionally carry a `failure` label with the
    /// [`ToolFailure::code`].
    pub sidecars: Vec<RunMetrics>,
}

/// Span name under which each tool's wall time is recorded in its
/// per-tool sidecar.
pub const TOOL_WALL_SPAN: &str = "core.study.tool_wall";

/// Gauge: how many worker threads the parallel study runner actually
/// spawned (after clamping to the number of pending entries).
pub const PARALLEL_WORKERS_GAUGE: &str = "core.study.parallel.workers";

/// Counter: dynamic-scheduling events in the parallel runner — a worker
/// claimed an entry that did not follow its previously claimed one
/// (another worker took the intervening work off the shared cursor).
pub const PARALLEL_STEALS_COUNTER: &str = "core.study.parallel.steals";

/// Gauge: high-water mark of the writer's re-sequencing buffer — how
/// many out-of-order results were parked waiting for the next entry in
/// corpus order.
pub const PARALLEL_BACKLOG_GAUGE: &str = "core.study.parallel.writer_backlog_max";

/// Span: wall clock of one whole parallel study run (workers + writer).
pub const PARALLEL_WALL_SPAN: &str = "core.study.parallel.wall";

/// Label a tool sidecar, attaching the failure cause when there is one.
fn label_sidecar(
    entry: &CorpusEntry,
    ms: MetricSet,
    tool: &str,
    failure: Option<&ToolFailure>,
) -> RunMetrics {
    let mut rm = RunMetrics::with_set(ms)
        .label("tool", tool)
        .label("app", entry.cfg.app.name())
        .label("machine", &entry.cfg.machine)
        .label("ranks", &entry.cfg.ranks.to_string())
        .label("seed", &entry.cfg.seed.to_string());
    if let Some(f) = failure {
        rm = rm.label("failure", f.code());
    }
    rm
}

/// Run one tool set over one corpus entry, collecting per-tool metric
/// sidecars. Predictions do not depend on the telemetry: every
/// instrumented engine keeps its hot loop free of instrumentation and
/// exports counters after the run.
///
/// Generation runs behind [`contained`] too: a panicking generator
/// leaves no trace, and every tool records that panic.
pub fn run_one_observed(entry: &CorpusEntry, cfg: &StudyConfig) -> ObservedTrace {
    let gen_ms = MetricSet::new();
    let trace = {
        let _ts = masim_obs::trace_span!("study.generate");
        contained(|| Ok(entry.generate_observed(&gen_ms)))
    };
    observe(entry, cfg, gen_ms, trace)
}

/// The one builder of an [`ObservedTrace`]: run each tool step on
/// `trace` behind [`contained`] and write the record and its five
/// sidecars. Without a trace or a machine, each tool step records that
/// cause instead of running and times an empty [`TOOL_WALL_SPAN`], so
/// every record has one shape.
fn observe(
    entry: &CorpusEntry,
    cfg: &StudyConfig,
    gen_ms: MetricSet,
    trace: Result<Trace, ToolFailure>,
) -> ObservedTrace {
    let ready = match &trace {
        Ok(t) => Machine::by_name(&entry.cfg.machine).map(|m| (t, m)).map_err(ToolFailure::from),
        Err(cause) => Err(cause.clone()),
    };
    let mut sidecars = vec![label_sidecar(entry, gen_ms, "corpus", None)];
    type Step<'a> =
        dyn FnMut(&Trace, &Machine, &MetricSet) -> Result<(Time, Time), ToolFailure> + 'a;
    let mut step = |tool: &str, run: &mut Step| {
        let ms = MetricSet::new();
        let span = ms.span(TOOL_WALL_SPAN);
        let res = match &ready {
            Ok((trace, machine)) => contained(|| run(trace, machine, &ms)),
            Err(cause) => Err(cause.clone()),
        };
        let wall = span.stop();
        let run = match res {
            Ok((total, comm)) => ToolRun::ok(total, comm, wall),
            Err(cause) => ToolRun::failed(cause, wall),
        };
        sidecars.push(label_sidecar(entry, ms, tool, run.failure.as_ref()));
        run
    };

    // MFACT: single multi-config replay (baseline + the classifier's two
    // probes), exactly the tool's one-replay-many-configs trick. The
    // wall time measured is that single replay; the prediction and the
    // class are both read from its results.
    let mut replay = None;
    let mfact = step("mfact", &mut |trace, machine, ms| {
        let _ts = masim_obs::trace_span!("study.tool/mfact");
        let res = replay.insert(try_replay(trace, &probe_configs(machine.net), Some(ms))?);
        Ok((res[0].total, res[0].comm_time))
    });
    let classification =
        replay.map_or_else(Classification::unavailable, |res| Classification::from_replay(&res));
    let [pkt, fl, pf] = ModelKind::study_models();
    let sims = [(pkt, cfg.packet_budget), (fl, cfg.flow_budget), (pf, cfg.pflow_budget)];
    let [packet, flow, pflow] = sims.map(|(model, budget)| {
        step(model.name(), &mut |trace, machine, ms| {
            // Static names keep the timeline span free of per-run
            // allocation; the set is the `phases` list `cli.rs`'s
            // `traced_run_exports_a_valid_timeline…` test looks for.
            let _ts = masim_obs::trace_span!(match model.name() {
                "packet" => "study.tool/packet",
                "flow" => "study.tool/flow",
                _ => "study.tool/packet-flow",
            });
            let scfg = SimConfig::new(machine.clone(), model, trace);
            let r = masim_sim::run(trace, &scfg, SimLimits::budget(budget), Some(ms))?;
            Ok((r.total, r.comm_time))
        })
    });

    let trace = trace.as_ref().ok();
    ObservedTrace {
        study: TraceStudy {
            entry: entry.clone(),
            measured_total: trace.map_or(Time::ZERO, Trace::measured_time),
            measured_comm: trace.map_or(Time::ZERO, Trace::total_comm_time),
            events: trace.map_or(0, Trace::num_events),
            features: trace.map_or_else(Features::default, Features::extract),
            classification,
            mfact,
            packet,
            flow,
            pflow,
        },
        sidecars,
    }
}

/// The study executor: the work-stealing pool behind
/// [`Session::run`](crate::Session::run), which is how the CLI and the
/// daemon run every study at every thread count.
///
/// `todo` lists the corpus indices to execute, in the order results must
/// be *emitted*. Up to `threads` scoped workers (clamped to
/// `todo.len()`) claim positions off one atomic cursor and funnel each
/// [`ObservedTrace`] through an mpsc channel to the calling thread,
/// which re-sequences out-of-order arrivals in a bounded buffer and
/// invokes `emit(index, observed)` strictly in `todo` order — so journal
/// lines and sidecar files land in the exact order the sequential
/// runner would produce them, at any thread count.
///
/// Telemetry lands on `study_ms` (never on the per-tool sidecars, which
/// must stay bit-identical to a sequential run):
/// [`PARALLEL_WORKERS_GAUGE`], [`PARALLEL_STEALS_COUNTER`],
/// [`PARALLEL_BACKLOG_GAUGE`], [`PARALLEL_WALL_SPAN`], plus per-worker
/// `core.study.parallel.{claimed,worker}/wNN` counters and spans.
/// Progress aggregates across workers through one rate-limited reporter,
/// which `progress(total, workers)` builds once the pool size is known.
///
/// Workers are panic-isolated: a panic escaping the per-tool boundaries
/// becomes that entry's record with no trace, `panic` on every tool, and
/// the rest of the corpus still runs — one bad trace cannot take down
/// the pool.
/// An `emit` error (e.g. a failed journal append) halts the cursor so
/// workers wind down early, and is returned after they drain.
pub(crate) fn run_entries_parallel<E>(
    cfg: &StudyConfig,
    entries: &[CorpusEntry],
    todo: &[usize],
    threads: usize,
    study_ms: &MetricSet,
    progress: impl FnOnce(u64, usize) -> Progress,
    mut emit: impl FnMut(usize, ObservedTrace) -> Result<(), E>,
) -> Result<(), E> {
    let n = todo.len();
    let workers = threads.clamp(1, n.max(1));
    study_ms.gauge_max(PARALLEL_WORKERS_GAUGE, workers as u64);
    let wall = study_ms.span(PARALLEL_WALL_SPAN);
    let progress = progress(n as u64, workers);
    let cursor = AtomicUsize::new(0);
    let steals = study_ms.counter(PARALLEL_STEALS_COUNTER);
    let mut emit_err: Option<E> = None;
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, ObservedTrace)>();
        for w in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let steals = steals.clone();
            let progress = &progress;
            let study_ms = study_ms.clone();
            scope.spawn(move || {
                // Give this worker its own timeline track (worker 0 stays
                // reserved for the coordinating thread).
                if let Some(tl) = masim_obs::tracelog::current() {
                    tl.set_worker(w as u16 + 1);
                }
                let t0 = std::time::Instant::now();
                let mut claimed = 0u64;
                let mut last: Option<usize> = None;
                loop {
                    let pos = cursor.fetch_add(1, Ordering::Relaxed);
                    if pos >= n {
                        break;
                    }
                    if last.is_some_and(|l| pos != l + 1) {
                        steals.inc();
                    }
                    last = Some(pos);
                    claimed += 1;
                    let entry = &entries[todo[pos]];
                    let observed = contained(|| Ok(run_one_observed(entry, cfg)))
                        .unwrap_or_else(|cause| observe(entry, cfg, MetricSet::new(), Err(cause)));
                    progress.tick(1);
                    if tx.send((pos, observed)).is_err() {
                        break; // writer gone: nothing left to report to
                    }
                }
                study_ms.add(&format!("core.study.parallel.claimed/w{w:02}"), claimed);
                study_ms.record_span(
                    &format!("core.study.parallel.worker/w{w:02}"),
                    t0.elapsed().as_nanos() as u64,
                );
            });
        }
        drop(tx);
        // Single writer: park out-of-order arrivals, emit in `todo`
        // order so journals and sidecars are sequenced exactly like a
        // sequential run.
        let mut backlog: BTreeMap<usize, ObservedTrace> = BTreeMap::new();
        let mut backlog_max = 0usize;
        let mut next = 0usize;
        for (pos, observed) in rx {
            backlog.insert(pos, observed);
            backlog_max = backlog_max.max(backlog.len());
            masim_obs::trace_instant!("study.writer.backlog", backlog.len() as u64);
            while emit_err.is_none() {
                let Some(o) = backlog.remove(&next) else { break };
                if let Err(e) = emit(todo[next], o) {
                    emit_err = Some(e);
                    // Stop handing out new work; in-flight entries drain.
                    cursor.fetch_max(n, Ordering::Relaxed);
                    break;
                }
                next += 1;
            }
        }
        study_ms.gauge_max(PARALLEL_BACKLOG_GAUGE, backlog_max as u64);
    });
    progress.finish();
    let _ = wall.stop();
    match emit_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

impl Study {
    /// Run the full 235-trace study, sequentially on the calling thread.
    pub fn run(cfg: StudyConfig) -> Study {
        Study::run_filtered(cfg, |_| true)
    }

    /// Run the study on the corpus subset passing `keep` (the predicate
    /// sees the corpus index). This plain loop over [`run_one_observed`]
    /// is the *reference* the equivalence suites compare the pool
    /// against, and what tests and examples use; the CLI and the daemon
    /// go through [`Session::run`](crate::Session::run).
    pub fn run_filtered(cfg: StudyConfig, keep: impl Fn(usize) -> bool) -> Study {
        let entries = build_corpus(cfg.seed);
        let traces = entries
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, e)| run_one_observed(e, &cfg).study)
            .collect();
        Study { traces, config: cfg }
    }

    /// Completion counts per tool: (mfact, packet, flow, packet-flow).
    pub fn completions(&self) -> (usize, usize, usize, usize) {
        let c = |f: fn(&TraceStudy) -> &ToolRun| {
            self.traces.iter().filter(|t| f(t).completed()).count()
        };
        (c(|t| &t.mfact), c(|t| &t.packet), c(|t| &t.flow), c(|t| &t.pflow))
    }

    /// Failure accounting across all tools and traces: how many tool
    /// runs failed for each [`ToolFailure::code`]. Empty map = every
    /// tool completed every trace.
    pub fn failure_census(&self) -> BTreeMap<&'static str, usize> {
        let mut census = BTreeMap::new();
        for t in &self.traces {
            for run in [&t.mfact, &t.packet, &t.flow, &t.pflow] {
                if let Some(f) = &run.failure {
                    *census.entry(f.code()).or_insert(0) += 1;
                }
            }
        }
        census
    }

    /// The timing-study subset: traces where all four tools completed.
    pub fn timing_subset(&self) -> Vec<&TraceStudy> {
        self.traces.iter().filter(|t| t.all_completed()).collect()
    }
}

/// Empirical CDF helper: fraction of (finite) values ≤ each threshold.
pub fn fraction_within(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v <= threshold).count() as f64 / values.len() as f64
}

// ---------------------------------------------------------------------
// Wire form: a study as the result store's `study` body
// ---------------------------------------------------------------------

type Decoded<T> = Result<T, String>;

impl TraceStudy {
    /// This study as the JSON body the result store keeps for entry
    /// `index` of its session: every measured field, typed failures
    /// included, with times in ps and wall clocks in ns.
    pub(crate) fn to_value(&self, index: usize) -> Value {
        let c = &self.classification;
        let b = &c.baseline;
        let classification = obj([
            ("class", Value::Str(c.class.label().to_string())),
            ("bw_sensitivity", Value::Num(c.bw_sensitivity)),
            ("lat_sensitivity", Value::Num(c.lat_sensitivity)),
            ("base_total", Value::Num(c.base_total)),
            (
                "baseline_ps",
                Value::Arr([b.wait, b.latency, b.bandwidth, b.computation].map(ps).into()),
            ),
        ]);
        let tools = [&self.mfact, &self.packet, &self.flow, &self.pflow].map(tool_value);
        let [mfact, packet, flow, pflow] = tools;
        obj([
            ("index", Value::UInt(index as u64)),
            ("measured_total_ps", ps(self.measured_total)),
            ("measured_comm_ps", ps(self.measured_comm)),
            ("events", Value::UInt(self.events as u64)),
            ("features", Value::Arr(self.features.as_vec().map(Value::Num).into())),
            ("classification", classification),
            (
                "tools",
                obj([("mfact", mfact), ("packet", packet), ("flow", flow), ("packet-flow", pflow)]),
            ),
        ])
    }

    /// A body written by [`TraceStudy::to_value`], as a study of `entry`;
    /// with no entry, only checks that it decodes.
    pub(crate) fn from_value(
        s: &Value,
        entry: Option<&CorpusEntry>,
    ) -> Decoded<Option<TraceStudy>> {
        int::<u64>(s, "index")?;
        let measured_total = Time::from_ps(int(s, "measured_total_ps")?);
        let measured_comm = Time::from_ps(int(s, "measured_comm_ps")?);
        let events = int(s, "events")?;
        let mut features = [0.0f64; NUM_FEATURES];
        for (i, item) in items(s, "features", NUM_FEATURES)?.iter().enumerate() {
            features[i] = item.as_f64().ok_or_else(|| format!("features[{i}] is not a number"))?;
        }
        let classification = classification_from(field(s, "classification")?)?;
        let tools = field(s, "tools")?;
        let mfact = tool_from(tools, "mfact")?;
        let packet = tool_from(tools, "packet")?;
        let flow = tool_from(tools, "flow")?;
        let pflow = tool_from(tools, "packet-flow")?;
        Ok(entry.map(|entry| TraceStudy {
            entry: entry.clone(),
            measured_total,
            measured_comm,
            events,
            features: Features::from_vec(&features),
            classification,
            mfact,
            packet,
            flow,
            pflow,
        }))
    }
}

fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn ps(t: Time) -> Value {
    Value::UInt(t.as_ps())
}

fn ns(d: Duration) -> Value {
    // Saturate instead of wrapping: a >500-year wall time is already
    // meaningless.
    Value::UInt(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn failure_value(f: &ToolFailure) -> Value {
    obj([("code", Value::Str(f.code.into())), ("detail", Value::Str(f.detail.clone()))])
}

fn tool_value(run: &ToolRun) -> Value {
    obj([
        ("total_ps", run.total.map_or(Value::Null, ps)),
        ("comm_ps", run.comm.map_or(Value::Null, ps)),
        ("wall_ns", ns(run.wall)),
        ("failure", run.failure.as_ref().map_or(Value::Null, failure_value)),
    ])
}

fn field<'a>(v: &'a Value, key: &str) -> Decoded<&'a Value> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// An unsigned integer field that must fit `T`.
fn int<T: TryFrom<u64>>(v: &Value, key: &str) -> Decoded<T> {
    let n = field(v, key)?.as_u64().ok_or_else(|| format!("field '{key}' is not a u64"))?;
    T::try_from(n)
        .map_err(|_| format!("field '{key}' does not fit a {}", std::any::type_name::<T>()))
}

fn float(v: &Value, key: &str) -> Decoded<f64> {
    field(v, key)?.as_f64().ok_or_else(|| format!("field '{key}' is not a number"))
}

fn text<'a>(v: &'a Value, key: &str) -> Decoded<&'a str> {
    field(v, key)?.as_str().ok_or_else(|| format!("field '{key}' is not a string"))
}

/// The items of array field `key`, which must hold exactly `len` of them.
fn items<'a>(v: &'a Value, key: &str, len: usize) -> Decoded<&'a [Value]> {
    match field(v, key)? {
        Value::Arr(items) if items.len() == len => Ok(items),
        _ => Err(format!("field '{key}' is not a {len}-element array")),
    }
}

fn failure_from(v: &Value) -> Decoded<ToolFailure> {
    let code = text(v, "code")?;
    let known = CODES.into_iter().find(|c| *c == code);
    let code = known.ok_or_else(|| format!("unknown failure code {code:?}"))?;
    Ok(ToolFailure { code, detail: text(v, "detail")?.into() })
}

fn tool_from(tools: &Value, key: &str) -> Decoded<ToolRun> {
    let t = field(tools, key)?;
    let opt_time = |k| match field(t, k)? {
        Value::Null => Ok(None),
        _ => int(t, k).map(|ps| Some(Time::from_ps(ps))),
    };
    let failure = match field(t, "failure")? {
        Value::Null => None,
        other => Some(failure_from(other).map_err(|e| format!("tool '{key}': {e}"))?),
    };
    let wall = Duration::from_nanos(int(t, "wall_ns")?);
    Ok(ToolRun { total: opt_time("total_ps")?, comm: opt_time("comm_ps")?, wall, failure })
}

fn classification_from(c: &Value) -> Decoded<Classification> {
    let label = text(c, "class")?;
    let class = AppClass::from_label(label).ok_or_else(|| format!("unknown class {label:?}"))?;
    let ps = items(c, "baseline_ps", 4)?;
    let ps = |i: usize| {
        ps[i].as_u64().map(Time::from_ps).ok_or_else(|| format!("baseline_ps[{i}] is not a u64"))
    };
    Ok(Classification {
        class,
        bw_sensitivity: float(c, "bw_sensitivity")?,
        lat_sensitivity: float(c, "lat_sensitivity")?,
        base_total: float(c, "base_total")?,
        baseline: Counters {
            wait: ps(0)?,
            latency: ps(1)?,
            bandwidth: ps(2)?,
            computation: ps(3)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::study as small_study;

    #[test]
    fn tools_complete_and_predict() {
        let s = small_study();
        assert!(!s.traces.is_empty());
        let (m, _p, _f, pf) = s.completions();
        assert_eq!(m, s.traces.len(), "MFACT completes everything");
        assert_eq!(pf, s.traces.len(), "packet-flow completes everything");
        for t in &s.traces {
            assert!(t.mfact.total.unwrap() > Time::ZERO);
            assert!(t.measured_total > Time::ZERO);
        }
    }

    #[test]
    fn failure_census_matches_completions() {
        let s = small_study();
        let census = s.failure_census();
        let (m, p, fl, pf) = s.completions();
        let failed_runs = 4 * s.traces.len() - (m + p + fl + pf);
        assert_eq!(census.values().sum::<usize>(), failed_runs);
        // The only expected failure mode of a healthy corpus run is the
        // work budget.
        for code in census.keys() {
            assert_eq!(*code, "budget", "{census:?}");
        }
    }

    #[test]
    fn modeling_is_faster_than_simulation() {
        // The paper's Table III claim is aggregate: modeling the corpus
        // costs far less wall-clock than simulating it. It is asserted
        // here as a geometric mean rather than per entry, because on
        // the µs-scale test corpus the simulators' fixed costs now sit
        // at MFACT's own scale (the PR-4 hot-path work), and a strict
        // per-pair wall-clock ordering at that scale is timer noise.
        let s = small_study();
        let (mut log_sum, mut n) = (0.0f64, 0u32);
        for t in s.timing_subset() {
            for sim in [&t.packet, &t.flow, &t.pflow] {
                let ratio = t.time_ratio(sim).unwrap();
                assert!(ratio > 0.0, "{}: ratio {ratio}", t.entry.cfg.app);
                log_sum += ratio.ln();
                n += 1;
            }
        }
        assert!(n > 0, "timing subset is empty");
        let geomean = (log_sum / f64::from(n)).exp();
        assert!(geomean > 1.0, "simulation/modeling wall-clock geomean {geomean}");
    }

    #[test]
    fn diffs_are_mostly_small() {
        let s = small_study();
        let diffs: Vec<f64> = s.traces.iter().filter_map(|t| t.diff_total_pflow()).collect();
        assert!(!diffs.is_empty());
        // Shape check on the slice: a clear majority within 10%.
        let within10 = fraction_within(&diffs, 0.10);
        assert!(within10 > 0.5, "only {within10} within 10%: {diffs:?}");
    }

    fn pool_progress(total: u64, workers: usize) -> Progress {
        Progress::with_workers("pool", total, workers)
    }

    /// Corpus entries 3 and 40 (two cheap ones) through the pool,
    /// collected in emit order.
    fn pool_run(threads: usize, ms: &MetricSet) -> Vec<(usize, ObservedTrace)> {
        let cfg = StudyConfig::default();
        let entries = build_corpus(cfg.seed);
        let mut out = Vec::new();
        let res: Result<(), std::convert::Infallible> =
            run_entries_parallel(&cfg, &entries, &[3, 40], threads, ms, pool_progress, |i, o| {
                out.push((i, o));
                Ok(())
            });
        let Ok(()) = res;
        out
    }

    #[test]
    fn parallel_run_matches_sequential() {
        // Results must be identical to the reference loop (modulo
        // wall-clock) and emitted in corpus order.
        let seq = Study::run_filtered(StudyConfig::default(), |i| i == 3 || i == 40);
        let ms = MetricSet::new();
        let par = pool_run(2, &ms);
        assert_eq!(par.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![3, 40]);
        assert_eq!(seq.traces.len(), par.len());
        for (a, (_, b)) in seq.traces.iter().zip(&par) {
            assert_eq!(a.mfact.total, b.study.mfact.total);
            assert_eq!(a.pflow.total, b.study.pflow.total);
            assert_eq!(a.measured_total, b.study.measured_total);
        }
        let snap = ms.snapshot();
        assert_eq!(snap.gauges.get(PARALLEL_WORKERS_GAUGE), Some(&2), "{:?}", snap.gauges);
    }

    #[test]
    fn parallel_worker_count_clamps_to_todo_len() {
        // threads=64 over a 2-entry corpus: at most 2 workers spawn and
        // every slot is still filled exactly once.
        let ms = MetricSet::new();
        assert_eq!(pool_run(64, &ms).len(), 2);
        let snap = ms.snapshot();
        assert_eq!(snap.gauges.get(PARALLEL_WORKERS_GAUGE), Some(&2), "{:?}", snap.gauges);
        let claim_counters: Vec<(&String, &u64)> = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("core.study.parallel.claimed/"))
            .collect();
        assert!(claim_counters.len() <= 2, "more workers than entries: {claim_counters:?}");
        let claimed: u64 = claim_counters.iter().map(|(_, v)| **v).sum();
        assert_eq!(claimed, 2, "every slot claimed exactly once: {claim_counters:?}");
    }

    #[test]
    fn parallel_emit_error_halts_dispatch() {
        // An emit failure stops the writer from handing out more work
        // and surfaces as the engine's error, not a panic or a hang.
        let cfg = StudyConfig::default();
        let entries = masim_workloads::build_corpus(cfg.seed);
        let todo = [3usize, 40];
        let ms = MetricSet::new();
        let mut emitted = 0usize;
        let res = run_entries_parallel(&cfg, &entries, &todo, 2, &ms, pool_progress, |_, _| {
            emitted += 1;
            Err("journal append failed")
        });
        assert_eq!(res, Err("journal append failed"));
        assert_eq!(emitted, 1, "dispatch halts after the first emit failure");
    }

    #[test]
    fn run_labels_one_sidecar_per_stage() {
        let cfg = StudyConfig::default();
        let entries = masim_workloads::build_corpus(cfg.seed);
        let observed = run_one_observed(&entries[3], &cfg);
        assert_eq!(observed.sidecars.len(), 5);
        let tools: Vec<&str> =
            observed.sidecars.iter().map(|s| s.labels()["tool"].as_str()).collect();
        assert_eq!(tools, ["corpus", "mfact", "packet", "flow", "packet-flow"]);
        // Every tool sidecar (after the corpus one) timed exactly one run.
        for rm in &observed.sidecars[1..] {
            assert_eq!(rm.set().snapshot().spans[TOOL_WALL_SPAN].count, 1);
        }
    }

    #[test]
    fn contained_converts_panics_to_typed_failures() {
        let ok = contained(|| Ok(41 + 1));
        assert_eq!(ok, Ok(42));
        let err = contained::<u64>(|| panic!("kaboom {}", 7));
        assert_eq!(err, Err(ToolFailure { code: "panic", detail: "kaboom 7".into() }));
    }

    #[test]
    fn fraction_within_basics() {
        let v = [0.01, 0.03, 0.2];
        assert!((fraction_within(&v, 0.05) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(fraction_within(&[], 1.0), 0.0);
    }
}
