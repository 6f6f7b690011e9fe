//! The traced run: per-layer numbers, taken in the driver's own process.
//!
//! One untraced repetition gives the reference wall; then the same
//! entries are walked in-process with a span around every call into a
//! masim crate, doing the work the untraced run does (same budgets, same
//! order). Layer = crate. `_s` rows are inclusive seconds summed over
//! the workload's calls; counts repeat exactly. From outside, a `sim.*`
//! span includes collective lowering and the DES drain, which is why the
//! `des.*` and `sim.lower_*` rows are separate rates measured on their
//! own and not terms of the sum.

use crate::adapter::{self, Entry, SimOutcome};
use crate::catalogue as cat;
use crate::checks::{Ops, StudyRow, BUDGET, TOOLS};
use crate::spans::{self_ns, Recorder};
use crate::stats;
use crate::workloads::{self, Ctx, Measured};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Span names of the simulator runs, in `adapter::MODELS` order.
const SIM_SPANS: [&str; 3] = ["sim.packet", "sim.flow", "sim.packet-flow"];

/// Per-layer metric values by catalogue name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let known =
            cat::per_layer(name).unwrap_or_else(|| panic!("'{name}' is not in the catalogue"));
        self.0.insert(known.name, if value.is_finite() { value } else { 0.0 });
    }

    /// Every catalogue metric in catalogue order; a layer the workload
    /// does not exercise did no work and reads 0.
    pub fn values(&self) -> Vec<(&'static cat::PerLayer, f64)> {
        cat::PER_LAYER.iter().map(|m| (m, self.0.get(m.name).copied().unwrap_or(0.0))).collect()
    }
}

/// What the traced run of one workload produced.
pub struct Traced {
    pub layers: Layers,
    pub ops: Ops,
    pub recorder: Recorder,
    /// The slowest single trace×tool call, for the printout.
    pub slowest: String,
}

/// Counts gathered while walking a workload's entries.
#[derive(Default)]
struct Tally {
    trace_events: u64,
    /// Completions per tool, [`TOOLS`] order.
    completions: [u64; 4],
    budget_failures: u64,
    /// DES events and wall of the simulator runs that completed.
    sim_events: [u64; 3],
    sim_done_s: [f64; 3],
    within_5pct: u64,
    slowest_s: f64,
    slowest: String,
    stream_bytes: u64,
    walked_events: u64,
}

impl Tally {
    fn saw(&mut self, seconds: f64, label: &str, tool: &str) {
        if seconds > self.slowest_s {
            self.slowest_s = seconds;
            self.slowest = format!("{label} {tool} {seconds:.3} s");
        }
    }
}

/// Walk study-style entries (`study235`, `heavy3`): per trace, under one
/// parent span, generate → machine → MFACT replay → classify → features
/// → packet → flow → packet-flow, exactly the calls `masim-core`'s
/// `run_one` makes. `rows`, when given, are the untraced run's
/// `study.csv` rows to hold the predictions against.
fn walk_study(
    rec: &mut Recorder,
    entries: &[Entry],
    budgets: [u64; 3],
    rows: Option<&[StudyRow]>,
    tally: &mut Tally,
) -> Result<Ops, String> {
    let mut ops = Ops::default();
    if let Some(rows) = rows {
        if rows.len() != entries.len() {
            ops.fail(
                1,
                format!("{} study.csv rows for {} traced entries", rows.len(), entries.len()),
            );
        }
    }
    for (i, entry) in entries.iter().enumerate() {
        let label = entry.label();
        let row = rows.and_then(|r| r.get(i));
        if let Some(row) = row {
            if row.app != entry.app() || row.ranks != entry.ranks() {
                ops.fail(
                    1,
                    format!("study.csv row {i} is {}({}), traced {label}", row.app, row.ranks),
                );
            }
        }
        // Hold one tool's traced prediction against the CSV cell, at the
        // CSV's printed precision (both print the same f64).
        let check = |ops: &mut Ops, k: usize, predicted: Option<f64>| {
            ops.attempted += 1;
            let Some(row) = row else { return };
            let (want_time, want_code) = match predicted {
                Some(t) => (t.to_string(), ""),
                None => (String::new(), BUDGET),
            };
            if row.predicted[k] != want_time || row.failure[k] != want_code {
                ops.fail(
                    1,
                    format!(
                        "{label} {}: traced run predicts '{want_time}' ({want_code}), study.csv has \
                         '{}' ({})",
                        TOOLS[k], row.predicted[k], row.failure[k]
                    ),
                );
            }
        };

        let root = rec.enter("trace");
        let (trace, _) = rec.time("workloads.generate", || entry.generate());
        tally.trace_events += trace.events();
        let (machine, _) = rec.time("topo.build", || adapter::machine(entry.machine_name()));
        let machine = machine?;

        let (mfact, dt) =
            rec.time("mfact.replay", || adapter::mfact_study_replay(&trace, &machine));
        tally.saw(dt, &label, TOOLS[0]);
        let mfact_total = mfact[0];
        if mfact_total > 0.0 {
            tally.completions[0] += 1;
        } else {
            ops.fail(1, format!("{label} mfact: predicted time {mfact_total} is not positive"));
        }
        check(&mut ops, 0, Some(mfact_total));
        rec.time("mfact.classify", || adapter::mfact_classify(&trace, &machine));
        rec.time("trace.features", || adapter::trace_features(&trace));

        for (model, name) in adapter::MODELS.iter().enumerate() {
            let (outcome, dt) = rec.time(SIM_SPANS[model], || {
                adapter::simulate(&trace, &machine, model, budgets[model])
            });
            tally.saw(dt, &label, name);
            match outcome {
                SimOutcome::Done { total_s, events, .. } => {
                    tally.completions[model + 1] += 1;
                    tally.sim_events[model] += events;
                    tally.sim_done_s[model] += dt;
                    if total_s <= 0.0 {
                        ops.fail(1, format!("{label} {name}: predicted time is not positive"));
                    }
                    if model == 2
                        && mfact_total > 0.0
                        && (total_s / mfact_total - 1.0).abs() <= 0.05
                    {
                        tally.within_5pct += 1;
                    }
                    check(&mut ops, model + 1, Some(total_s));
                }
                SimOutcome::Budget => {
                    tally.budget_failures += 1;
                    ops.budget += 1;
                    check(&mut ops, model + 1, None);
                }
                SimOutcome::Failed(why) => {
                    ops.attempted += 1;
                    ops.fail(1, format!("{label} {name}: {why}"));
                }
            }
        }
        rec.exit(root);
    }
    Ok(ops)
}

/// Walk `scale64k`: machine, generate, MASS write, open, streamed packet
/// run — `scale_cmd`'s steps with its `GenConfig` — under one parent
/// span; then, outside it, a decode walk over every `RankCursor`.
fn walk_scale(
    ctx: &Ctx,
    rec: &mut Recorder,
    reference: &Measured,
    tally: &mut Tally,
) -> Result<Ops, String> {
    let mut ops = Ops { attempted: 1, ..Ops::default() };
    let scratch =
        crate::child::Scratch::new(&ctx.out_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let path = scratch.path().join("traced.mass");

    let root = rec.enter("trace");
    let (machine, _) = rec.time("topo.build", || adapter::machine("frontier"));
    let machine = machine?;
    let entry = adapter::scale_entry(&machine);
    let label = entry.label();
    let (trace, _) = rec.time("workloads.generate", || entry.generate());
    tally.trace_events = trace.events();
    rec.time("trace.stream_write", || adapter::stream_write(&trace, &path)).0?;
    drop(trace);
    let (stream, _) = rec.time("trace.stream_open", || adapter::stream_open(&path));
    let stream = stream?;
    let (outcome, dt) =
        rec.time(SIM_SPANS[0], || stream.simulate_packet(&machine, workloads::SCALE_MEM_BUDGET));
    rec.exit(root);

    tally.saw(dt, &label, adapter::MODELS[0]);
    tally.stream_bytes = stream.bytes();
    match outcome {
        SimOutcome::Done { total_text, events, .. } => {
            tally.completions[1] = 1;
            tally.sim_events[0] = events;
            tally.sim_done_s[0] = dt;
            match &reference.artefacts.scale {
                Some(child) if child.predicted == total_text && child.events == events => {}
                other => ops.fail(
                    1,
                    format!("{label}: traced run predicts {total_text} / {events} events, child {other:?}"),
                ),
            }
        }
        SimOutcome::Budget => {
            ops.fail(1, format!("{label}: unbudgeted run reported a budget trip"))
        }
        SimOutcome::Failed(why) => ops.fail(1, format!("{label}: {why}")),
    }
    tally.walked_events = rec.time("trace.stream_walk", || stream.walk()).0;
    if tally.walked_events != tally.trace_events {
        ops.fail(
            1,
            format!("{label}: walked {} of {} events", tally.walked_events, tally.trace_events),
        );
    }
    Ok(ops)
}

/// Walk `model_sweep`: per entry generate, machine, base replay, sweep.
fn walk_sweep(rec: &mut Recorder, entries: &[Entry], tally: &mut Tally) -> Result<Ops, String> {
    let mut ops = Ops::default();
    for entry in entries {
        let label = entry.label();
        let root = rec.enter("trace");
        let (trace, _) = rec.time("workloads.generate", || entry.generate());
        tally.trace_events += trace.events();
        let (machine, _) = rec.time("topo.build", || adapter::machine(entry.machine_name()));
        let machine = machine?;
        let (base, dt) = rec.time("mfact.replay", || adapter::mfact_base(&trace, &machine));
        tally.saw(dt, &label, "mfact base");
        let (sweep, dt) = rec.time("mfact.sweep", || adapter::mfact_sweep(&trace, &machine));
        tally.saw(dt, &label, "mfact sweep");
        rec.exit(root);
        let checked = workloads::sweep_ops(&label, &base, &sweep);
        if checked.failed == 0 {
            tally.completions[0] += 1;
        }
        ops.absorb(checked);
    }
    Ok(ops)
}

/// Repeat `f` until `at_least` has passed; seconds per call and the last result.
fn per_call<T>(at_least: Duration, mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let mut calls = 0u32;
    loop {
        let out = black_box(f());
        calls += 1;
        if t0.elapsed() >= at_least {
            return (t0.elapsed().as_secs_f64() / f64::from(calls), out);
        }
    }
}

/// Every micro row is sized to at least this much wall.
const MICRO_FLOOR: Duration = Duration::from_millis(50);

/// `scale64k`'s measured pending-event occupancy.
const HOLD_PENDING: u64 = 330_000;

/// The layer rate rows that need no workload: each times one public call
/// on seeded input, sized ≥ [`MICRO_FLOOR`].
fn micro_rows(seed: u64, layers: &mut Layers) -> Result<(), String> {
    let (s, rounds) = per_call(MICRO_FLOOR, adapter::lower_all);
    layers.set("sim.lower_ns_per_round", s * 1e9 / rounds as f64);

    let (s, events) = per_call(MICRO_FLOOR, || adapter::des_chain(1_000_000));
    layers.set("des.chain_ns_per_event", s * 1e9 / events as f64);
    let (s, events) = per_call(MICRO_FLOOR, || adapter::des_hold(HOLD_PENDING, 1_000_000, seed));
    layers.set("des.hold_ns_per_event", s * 1e9 / events as f64);
    let (s, queue_ops) = per_call(MICRO_FLOOR, || adapter::des_cancel(200_000));
    layers.set("des.cancel_ns_per_op", s * 1e9 / queue_ops as f64);

    const PAIRS: u64 = 200_000;
    for (machine, row) in [
        ("cielito", "topo.route_cielito_ns_per_pair"),
        ("frontier", "topo.route_frontier_ns_per_pair"),
    ] {
        let machine = adapter::machine(machine)?;
        let (s, _) = per_call(MICRO_FLOOR, || machine.route_random_pairs(seed, PAIRS));
        layers.set(row, s * 1e9 / PAIRS as f64);
    }

    let trace = adapter::codec_trace(seed);
    let (s, bytes) = per_call(MICRO_FLOOR, || adapter::encode(&trace));
    let mb = bytes.len() as f64 / 1e6;
    layers.set("trace.encode_mb_per_s", mb / s);
    let (s, decoded) = per_call(MICRO_FLOOR, || adapter::decode(&bytes));
    if decoded? != trace.events() {
        return Err("codec row: decode lost events".into());
    }
    layers.set("trace.decode_mb_per_s", mb / s);

    let data = adapter::stats_dataset();
    let (s, fitted) = per_call(MICRO_FLOOR, || data.fit());
    if !fitted {
        return Err("stats row: logistic fit failed".into());
    }
    layers.set("stats.fit_ms", s * 1e3);
    let (s, _) = per_call(MICRO_FLOOR, || data.mccv(seed));
    layers.set("stats.mccv_ms", s * 1e3);
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run `workload` traced and derive every per-layer metric.
pub fn run(ctx: &Ctx, workload: &str) -> Result<Traced, String> {
    let reference = workloads::measure_once(ctx, workload)?;
    let rep = &reference.reps[0];
    let mut ops = Ops::default();
    let mut tally = Tally::default();
    let mut rec = Recorder::new(workload);

    let walked = match workload {
        cat::STUDY235 => {
            let rows = &reference.artefacts.study_rows;
            walk_study(
                &mut rec,
                &adapter::corpus(ctx.seed),
                adapter::study_budgets(),
                Some(rows),
                &mut tally,
            )?
        }
        cat::HEAVY3 => {
            walk_study(&mut rec, &adapter::heavy_entries(), [u64::MAX; 3], None, &mut tally)?
        }
        cat::SCALE64K => walk_scale(ctx, &mut rec, &reference, &mut tally)?,
        cat::MODEL_SWEEP => walk_sweep(&mut rec, &adapter::corpus(ctx.seed), &mut tally)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    ops.absorb(reference.ops.clone());
    ops.absorb(walked);

    let mut layers = Layers::default();
    micro_rows(ctx.seed, &mut layers)?;

    let events_m = tally.trace_events as f64 / 1e6;
    let generate_s = rec.total_s("workloads.generate");
    layers.set("workloads.generate_s", generate_s);
    layers.set("workloads.events", tally.trace_events as f64);
    layers.set("workloads.generate_mevents_per_s", ratio(events_m, generate_s));
    layers.set("trace.features_s", rec.total_s("trace.features"));
    layers.set("trace.stream_write_s", rec.total_s("trace.stream_write"));
    layers.set("trace.stream_open_s", rec.total_s("trace.stream_open"));
    layers.set("trace.stream_mb", tally.stream_bytes as f64 / 1e6);
    layers.set(
        "trace.stream_decode_mevents_per_s",
        ratio(tally.walked_events as f64 / 1e6, rec.total_s("trace.stream_walk")),
    );
    let replay_s = rec.total_s("mfact.replay");
    layers.set("mfact.replay_s", replay_s);
    layers.set("mfact.replay_mevents_per_s", ratio(events_m, replay_s));
    layers.set("mfact.classify_s", rec.total_s("mfact.classify"));
    layers.set("mfact.sweep_s", rec.total_s("mfact.sweep"));
    layers.set("mfact.sweep_cost_ratio", ratio(rec.total_s("mfact.sweep"), replay_s));
    for (model, name) in adapter::MODELS.iter().enumerate() {
        layers.set(&format!("sim.{name}_s"), rec.total_s(SIM_SPANS[model]));
        layers.set(&format!("sim.{name}_events"), tally.sim_events[model] as f64);
        layers.set(
            &format!("sim.{name}_ns_per_event"),
            ratio(tally.sim_done_s[model] * 1e9, tally.sim_events[model] as f64),
        );
    }
    layers.set("sim.trace_wall_max_s", tally.slowest_s);
    layers.set("topo.build_ms", rec.total_s("topo.build") * 1e3);
    for (k, tool) in TOOLS.iter().enumerate() {
        layers.set(&format!("core.completions_{tool}"), tally.completions[k] as f64);
    }
    layers.set("core.budget_failures", tally.budget_failures as f64);
    layers.set(
        "core.pflow_within_5pct_frac",
        ratio(tally.within_5pct as f64, tally.completions[3] as f64),
    );

    // The ladder: every span under a trace's parent span is one call into
    // a crate; the parents' self time is the driver's own glue between
    // calls, which no layer accounts for.
    let spans = rec.spans();
    let roots = || spans.iter().enumerate().filter(|(_, s)| s.name == "trace");
    let traced_wall_s = roots().map(|(_, s)| s.dur_ns()).sum::<u64>() as f64 / 1e9;
    let ladder_s =
        traced_wall_s - roots().map(|(id, _)| self_ns(spans, id)).sum::<u64>() as f64 / 1e9;
    // In `model_sweep` the generation the ladder includes is the
    // untraced run's set-up, not part of its wall.
    let untraced_s =
        if workload == cat::MODEL_SWEEP { rep.wall_s + rep.setup_s } else { rep.wall_s };
    layers.set("core.residual_frac", 1.0 - ladder_s / untraced_s);
    if workload == cat::STUDY235 {
        layers.set("serve.cold_overhead_s", rep.wall_s - ladder_s);
        layers.set("serve.response_mb", reference.artefacts.response_bytes as f64 / 1e6);
        if !reference.artefacts.resubmit_ms.is_empty() {
            layers.set("serve.resubmit_p50_ms", stats::median(&reference.artefacts.resubmit_ms));
        }
    }
    layers.set("host.cpu_s", rep.cpu_s);
    layers.set("host.traced_wall_s", traced_wall_s);
    layers.set("host.trace_overhead_frac", (traced_wall_s - untraced_s) / untraced_s);

    Ok(Traced { layers, ops, recorder: rec, slowest: tally.slowest })
}
