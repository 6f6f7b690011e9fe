//! `repro`: regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p masim-bench --bin repro -- all
//! cargo run --release -p masim-bench --bin repro -- fig2 fig5
//! cargo run --release -p masim-bench --bin repro -- all --metrics reports/metrics
//! cargo run --release -p masim-bench --bin repro -- bench-summary
//! cargo run --release -p masim-bench --bin repro -- serve --socket repro.sock &
//! cargo run --release -p masim-bench --bin repro -- submit table2 --tiny --socket repro.sock --out out
//! cargo run --release -p masim-bench --bin repro -- ctl shutdown --socket repro.sock
//! ```
//!
//! Reports are printed and written under `reports/`. The full study
//! (235 traces × 4 tools) runs once per invocation and is shared by all
//! requested reports; budget-limited tool failures are part of the
//! result, mirroring the paper's 216/162/235 completion counts. The
//! study spreads traces across a work-stealing worker pool by default
//! (`--threads N`, default = available parallelism); results are
//! bit-identical at any thread count, but the timing reports (Figure 1,
//! Table II) should be measured with `--threads 1` — see DESIGN.md §9.
//!
//! With `--metrics <dir>`, every trace×tool run also writes a JSON+CSV
//! observability sidecar (counters, gauges, wall-clock spans) under
//! `<dir>`, and the run ends by folding them into a top-level
//! `BENCH_obs.json` of per-tool wall-clock and throughput aggregates.
//! `bench-summary` re-folds an existing sidecar directory without
//! re-running anything. `--tiny` shrinks the Table II heavyweights to
//! smoke-test scale (CI uses `table2 --tiny --metrics`).
//!
//! `--profile` (requires `--metrics`) adds a per-phase wall-clock
//! breakdown: generate / lower / simulate phases are folded from the
//! span stats already present in the sidecars, the report phase is
//! timed live around each report's text generation (for `table2` that
//! includes the heavyweight runs it performs inline — their interior is
//! still attributed to generate/lower/simulate via the sidecars). The
//! breakdown is printed and written to `<dir>/profile.json` in sidecar
//! shape, so future perf PRs can attribute wall-clock without an
//! external profiler.
//!
//! `bench-gate [--metrics <dir>] [--tolerance <pct>]` compares the
//! folded `BENCH_obs.json` against the committed `BENCH_baseline.json`:
//! per-tool event counts must match exactly (the simulators are
//! deterministic), while median wall-clock and events/s may regress by
//! at most the tolerance (default 25%; the packet model's events/s is
//! held to a tighter 15% floor, and the `packet-pdes` executor row to
//! 5%, neither of which `--tolerance` can loosen).
//! `--write-baseline` refreshes the committed baseline instead of
//! comparing.
//!
//! `bench-pdes [--metrics <dir>] [--sim-threads <n|auto>]` runs the
//! packet/CG(64) bench trace on both the sequential engine and the
//! windowed PDES executor, checks the predictions are identical, and
//! writes the `packet-pdes` sidecar the gate row folds from.

use masim_core::report;
use masim_core::{
    Dataset, Enhanced, Session, SessionOutcome, SessionSpec, Study, StudyConfig, StudyKind,
    PARALLEL_BACKLOG_GAUGE, PARALLEL_STEALS_COUNTER, PARALLEL_WORKERS_GAUGE, TOOL_WALL_SPAN,
};
use masim_obs::json::Value;
use masim_obs::run::parse_json;
use masim_obs::{HistData, MetricSet, RunMetrics, SpanStats};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const ALL: [&str; 11] = [
    "table1", "fig1", "table2", "fig2", "fig3", "fig4", "fig5", "table3", "table4", "predict",
    "csv",
];

/// Extra reports available by name but not part of `all` (they retrain
/// the model several times): `stability`.
const EXTRA: [&str; 1] = ["stability"];

/// Where the folded per-tool summary lands.
const BENCH_OBS: &str = "BENCH_obs.json";

/// The committed reference the CI bench gate compares against.
const BENCH_BASELINE: &str = "BENCH_baseline.json";

/// Allowed relative slowdown before `bench-gate` fails (per-tool median
/// wall-clock and median per-run events/s). Event *counts* are exempt
/// from any tolerance: the simulators are deterministic, so they must
/// match the baseline exactly.
const GATE_TOLERANCE_PCT: f64 = 25.0;

/// Tighter events/s budget for the packet model, the study's slowest
/// tool and the target of the hot-path work (route arena, lazy
/// injection, integer-hashed matching). Its throughput is the floor the
/// whole study's wall-clock rides on, so it gets less headroom than the
/// generic budget; `GATE_NOISE_SECS` still absorbs µs-scale jitter on
/// the tiny corpus. Applied as `min` with `--tolerance`, so the
/// override can loosen other tools without loosening this floor.
const GATE_PACKET_TOLERANCE_PCT: f64 = 15.0;

/// Budget for the `packet-pdes` row (the windowed-PDES executor timed
/// at one worker on CI): the PDES machinery may cost at most 5% in
/// events/s over its own baseline, so promoting the packet model onto
/// the partitioned executor can never quietly tax the sequential case.
const GATE_PDES_TOLERANCE_PCT: f64 = 5.0;

/// Below this baseline median wall-clock, relative timing comparisons
/// are timer noise (sub-100µs spans swing 2x run to run); such tools
/// keep the exact event-count check but skip the timing gates.
const GATE_WALL_FLOOR_SECS: f64 = 100e-6;

/// Absolute scheduler/timer jitter allowance on top of the relative
/// budget: a timing regression only fails the gate if it also exceeds
/// this many seconds. On the µs-scale `--tiny` corpus this absorbs the
/// run-to-run jitter of a shared CI runner; on real (seconds-scale)
/// workloads it is negligible and the relative budget binds.
const GATE_NOISE_SECS: f64 = 250e-6;

fn main() {
    if let Err(e) = run() {
        eprintln!("repro: {e}");
        std::process::exit(1);
    }
}

struct Options {
    reports: Vec<String>,
    /// Sidecar directory from `--metrics <dir>`.
    metrics: Option<PathBuf>,
    /// Shrink table2 to smoke-test scale.
    tiny: bool,
    /// `bench-summary` subcommand: fold an existing sidecar dir.
    summarize: bool,
    /// `bench-gate` subcommand: compare `BENCH_obs.json` to the
    /// committed baseline and fail on regressions.
    gate: bool,
    /// `bench-gate --write-baseline`: refresh the committed baseline
    /// from the current fold instead of comparing.
    write_baseline: bool,
    /// `bench-gate --tolerance <pct>`: override the slowdown budget.
    tolerance: f64,
    /// `--checkpoint <dir>`: journal each completed trace so an
    /// interrupted run can resume.
    checkpoint: Option<PathBuf>,
    /// `--resume`: reuse an existing journal instead of starting fresh.
    resume: bool,
    /// `--fail-after <n>`: deliberately stop after `n` newly run traces
    /// (exit code 3) — the deterministic interruption hook CI uses to
    /// exercise resume.
    fail_after: Option<usize>,
    /// `--profile`: write a per-phase wall-clock breakdown
    /// (generate/lower/simulate/report) alongside the metric sidecars.
    profile: bool,
    /// `--threads <n>`: worker threads for the full-study and table2
    /// paths (default: `available_parallelism`). Per-tool predictions
    /// and sidecars are bit-identical at any value; host wall-clock
    /// columns (Figure 1, Table II) are only meaningful at 1.
    threads: usize,
    /// `--trace <dir>`: install the process-global timeline tracer and
    /// write `<dir>/trace.json` (Chrome Trace Event Format, loadable in
    /// Perfetto) plus `<dir>/trace.folded` (flamegraph folded stacks)
    /// when the run completes.
    trace: Option<PathBuf>,
    /// `--sim-threads <n|auto>`: intra-trace PDES workers per simulator
    /// run. `1` (the default) is the sequential engine; `N > 1`
    /// partitions the packet model onto N workers; `auto` (stored as 0)
    /// picks the host parallelism for big traces and stays sequential
    /// on tiny ones. Predictions and sidecars are bit-identical at any
    /// value (CI diffs them); composes with the study-level `--threads`.
    sim_threads: usize,
    /// `bench-pdes` subcommand: time the packet/CG(64) bench entry on
    /// the windowed-PDES executor and write a `packet-pdes` sidecar for
    /// the bench gate.
    bench_pdes: bool,
}

/// Exit code for a deliberate `--fail-after` interruption, so scripts
/// can tell "interrupted, resume me" from real failures.
const EXIT_INTERRUPTED: i32 = 3;

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        reports: Vec::new(),
        metrics: None,
        tiny: false,
        summarize: false,
        gate: false,
        write_baseline: false,
        tolerance: GATE_TOLERANCE_PCT,
        checkpoint: None,
        resume: false,
        fail_after: None,
        profile: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace: None,
        sim_threads: 1,
        bench_pdes: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let n = it.next().ok_or("--threads requires a count argument")?;
                opts.threads = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("--threads: '{n}' is not a positive count"))?;
            }
            "--metrics" => {
                let dir = it.next().ok_or("--metrics requires a directory argument")?;
                opts.metrics = Some(PathBuf::from(dir));
            }
            "--trace" => {
                let dir = it.next().ok_or("--trace requires a directory argument")?;
                opts.trace = Some(PathBuf::from(dir));
            }
            "--checkpoint" => {
                let dir = it.next().ok_or("--checkpoint requires a directory argument")?;
                opts.checkpoint = Some(PathBuf::from(dir));
            }
            "--resume" => opts.resume = true,
            "--fail-after" => {
                let n = it.next().ok_or("--fail-after requires a count argument")?;
                opts.fail_after = Some(
                    n.parse::<usize>()
                        .map_err(|_| format!("--fail-after: '{n}' is not a count"))?,
                );
            }
            "--sim-threads" => {
                let n = it.next().ok_or("--sim-threads requires a count or 'auto'")?;
                opts.sim_threads = if n == "auto" {
                    0
                } else {
                    n.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("--sim-threads: '{n}' is not a count or 'auto'"))?
                };
            }
            "--tiny" => opts.tiny = true,
            "--profile" => opts.profile = true,
            "bench-summary" => opts.summarize = true,
            "bench-gate" => opts.gate = true,
            "bench-pdes" => opts.bench_pdes = true,
            "--write-baseline" => opts.write_baseline = true,
            "--tolerance" => {
                let pct = it.next().ok_or("--tolerance requires a percentage argument")?;
                opts.tolerance = pct
                    .parse::<f64>()
                    .map_err(|_| format!("--tolerance: '{pct}' is not a number"))?;
                if !opts.tolerance.is_finite() || opts.tolerance < 0.0 {
                    return Err(format!("--tolerance: {pct}% is not a sane budget"));
                }
            }
            _ => opts.reports.push(a),
        }
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume requires --checkpoint <dir>".into());
    }
    if opts.fail_after.is_some() && opts.checkpoint.is_none() {
        return Err("--fail-after requires --checkpoint <dir>".into());
    }
    if opts.profile && opts.metrics.is_none() {
        return Err("--profile requires --metrics <dir> (phases fold from the sidecars)".into());
    }
    if opts.reports.is_empty() && !opts.summarize && !opts.gate && !opts.bench_pdes {
        opts.reports = ALL.iter().map(|s| s.to_string()).collect();
    } else if opts.reports.iter().any(|a| a == "all") {
        opts.reports = ALL.iter().map(|s| s.to_string()).collect();
    }
    for a in &opts.reports {
        if !ALL.contains(&a.as_str()) && !EXTRA.contains(&a.as_str()) {
            return Err(format!(
                "unknown report '{a}'; available: {ALL:?}, {EXTRA:?}, 'all', 'bench-summary', \
                 'bench-gate', 'bench-pdes', or the subcommands 'serve', 'submit', 'ctl', 'scale' \
                 (first argument)"
            ));
        }
    }
    Ok(opts)
}

/// `Option::as_ref` with an error message instead of a panic: a missing
/// study or model is an internal sequencing bug, not a reason to abort
/// the process without saying which report tripped it.
fn need<'a, T>(opt: &'a Option<T>, what: &str, report: &str) -> Result<&'a T, String> {
    opt.as_ref().ok_or_else(|| {
        format!("internal: report '{report}' needs the {what}, but it was not prepared")
    })
}

fn run() -> Result<(), String> {
    // Daemon-mode subcommands are dispatched before the report parser,
    // which treats unknown positionals as report names.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve_cmd(&argv[1..]),
        Some("submit") => return submit_cmd(&argv[1..]),
        Some("ctl") => return ctl_cmd(&argv[1..]),
        Some("scale") => return scale_cmd(&argv[1..]),
        _ => {}
    }
    let opts = parse_args()?;
    let metrics_dir = opts.metrics.clone();
    if let Some(dir) = &metrics_dir {
        fs::create_dir_all(dir)
            .map_err(|e| format!("create metrics dir {}: {e}", dir.display()))?;
    }
    if let Some(dir) = &opts.trace {
        fs::create_dir_all(dir).map_err(|e| format!("create trace dir {}: {e}", dir.display()))?;
        // Install before any work runs so every layer's trace_span!/
        // trace_instant! call sites see the global log.
        masim_obs::tracelog::install(masim_obs::tracelog::DEFAULT_LANE_CAPACITY);
    }
    if opts.bench_pdes {
        return bench_pdes_cmd(metrics_dir.as_deref(), opts.sim_threads);
    }
    if opts.summarize && opts.reports.is_empty() {
        let dir = metrics_dir.unwrap_or_else(|| PathBuf::from("reports/metrics"));
        return fold_sidecars(&dir);
    }
    if opts.gate {
        if let Some(dir) = &metrics_dir {
            fold_sidecars(dir)?;
        }
        return bench_gate(opts.write_baseline, opts.tolerance);
    }
    fs::create_dir_all("reports").map_err(|e| format!("create reports/: {e}"))?;

    // Which reports need the full study / the trained model?
    let needs_study = opts.reports.iter().any(|a| !matches!(a.as_str(), "table2" | "table3"));
    let needs_model =
        opts.reports.iter().any(|a| matches!(a.as_str(), "table4" | "predict" | "stability"));

    // Runner telemetry (worker/steal/backlog metrics). Kept off the
    // per-tool sidecars, which must stay bit-identical at any thread
    // count.
    let study_ms = MetricSet::new();
    if opts.threads > 1 && opts.reports.iter().any(|a| matches!(a.as_str(), "fig1" | "table2")) {
        eprintln!(
            "note: --threads {} co-schedules the tools, so Figure 1 / Table II host \
             wall-clock columns are not comparable to the paper's; use --threads 1 \
             for timing studies (predictions are identical either way)",
            opts.threads
        );
    }

    // Every study this invocation runs — the corpus study up front, the
    // Table II heavyweights inside the report loop — is this one call.
    let mut sidecar_count = 0usize;
    let mut run_study = |kind: StudyKind| -> Result<Study, String> {
        let spec = SessionSpec { kind, seed: StudyConfig::default().seed };
        let (study, written) = run_session(spec, &opts, &study_ms)?;
        sidecar_count += written;
        Ok(study)
    };

    let study: Option<Study> = if needs_study {
        eprintln!(
            "running the full 235-trace study ({} thread(s); several minutes)...",
            opts.threads
        );
        let t0 = Instant::now();
        let s = run_study(StudyKind::Corpus { indices: None })?;
        eprintln!("study completed in {:?}", t0.elapsed());
        Some(s)
    } else {
        None
    };
    let trained: Option<(Dataset, Enhanced)> = if needs_model {
        let s = need(&study, "study", "table4/predict/stability")?;
        let d = Dataset::from_study(s);
        eprintln!("training the enhanced MFACT (100-round MC-CV)...");
        let e = Enhanced::train(&d, 17);
        Some((d, e))
    } else {
        None
    };

    let mut report_span = SpanStats::default();
    for a in &opts.reports {
        let report_t0 = Instant::now();
        let text = match a.as_str() {
            "table1" => report::table1(need(&study, "study", a)?),
            "fig1" => report::fig1(need(&study, "study", a)?),
            "table2" => {
                eprintln!("running the Table II heavyweights (unbudgeted)...");
                report::table2_text(&run_study(StudyKind::Table2 { tiny: opts.tiny })?.traces)
            }
            "fig2" => report::fig2(need(&study, "study", a)?),
            "fig3" => report::fig3(need(&study, "study", a)?),
            "fig4" => report::fig4(need(&study, "study", a)?),
            "fig5" => {
                let s = need(&study, "study", a)?;
                format!("{}{}", report::fig5(s), report::class_census(s))
            }
            "table3" => report::table3(),
            "csv" => report::study_csv(need(&study, "study", a)?),
            "stability" => {
                let (d, _) = need(&trained, "trained model", a)?;
                report::stability(d, &[7, 17, 42, 99, 123])
            }
            "table4" => report::table4(&need(&trained, "trained model", a)?.1),
            "predict" => {
                let (d, e) = need(&trained, "trained model", a)?;
                report::predict_results(d, e)
            }
            _ => unreachable!("report names were validated in parse_args"),
        };
        report_span.record(report_t0.elapsed().as_nanos() as u64);
        println!("{text}");
        let ext = if a == "csv" { "csv" } else { "txt" };
        let path = format!("reports/{a}.{ext}");
        let mut f = fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
        f.write_all(text.as_bytes()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    if let Some(dir) = &metrics_dir {
        // One extra sidecar for the study runner itself (tool =
        // "runner": workers, steals, writer backlog, wall span) so the
        // fold can report the pool next to the tools. Absent only when
        // no study ran (`repro table3`).
        if study_ms.snapshot().gauges.get(PARALLEL_WORKERS_GAUGE).copied().unwrap_or(0) > 0 {
            let rm = RunMetrics::with_set(study_ms.clone())
                .label("tool", "runner")
                .label("threads", &opts.threads.to_string());
            sidecar_count += write_sidecars(dir, "study", &[rm])?;
        }
        eprintln!("wrote {sidecar_count} metric sidecar(s) under {}", dir.display());
        fold_sidecars(dir)?;
        if opts.profile {
            write_profile(dir, &report_span)?;
        }
    } else if opts.summarize {
        fold_sidecars(Path::new("reports/metrics"))?;
    }
    if let Some(dir) = &opts.trace {
        write_trace(dir)?;
    }
    Ok(())
}

/// `bench-pdes`: time the packet/CG(64) bench entry on the windowed
/// PDES executor and write a `packet-pdes` metric sidecar so the fold
/// and `bench-gate` gain a PDES row. The sequential engine runs first
/// as the correctness reference; the partitioned result must match it
/// field for field (the determinism contract), and the measured
/// speedup is printed. On CI's single-core runner this is invoked with
/// `--sim-threads 1`, which runs the windowed executor inline on the
/// calling thread — the honest overhead measurement the gate's 5%
/// events/s budget binds; multi-core hosts pass `--sim-threads auto`
/// to record the real speedup.
fn bench_pdes_cmd(metrics_dir: Option<&Path>, sim_threads: usize) -> Result<(), String> {
    use masim_sim::{simulate_partitioned_observed, ModelKind, SimConfig, SimLimits};
    // bench_entries()[1] is the CG(64) cielito entry: communication-
    // heavy enough that the packet model dominates, the regime the
    // intra-trace parallelism targets.
    let entry = masim_bench::bench_entries().swap_remove(1);
    let trace = masim_workloads::generate(&entry.cfg);
    let machine = masim_topo::Machine::by_name(&entry.cfg.machine).map_err(|e| e.to_string())?;
    let model = ModelKind::Packet { packet_bytes: masim_sim::DEFAULT_PACKET_BYTES };
    let workers = masim_core::effective_sim_threads(sim_threads, trace.num_ranks()).max(1);

    let seq_ms = MetricSet::new();
    let seq_cfg = SimConfig::new(machine.clone(), model, &trace);
    let t0 = Instant::now();
    let seq = masim_sim::run(&trace, &seq_cfg, SimLimits::unlimited(), Some(&seq_ms))
        .map_err(|e| format!("bench-pdes: sequential reference failed: {e}"))?;
    let seq_wall = t0.elapsed();

    let ms = MetricSet::new();
    let span = ms.span(TOOL_WALL_SPAN);
    let mut cfg = SimConfig::new(machine, model, &trace);
    cfg.sim_threads = workers;
    let par = simulate_partitioned_observed(&trace, &cfg, SimLimits::unlimited(), &ms)
        .map_err(|e| format!("bench-pdes: partitioned run failed: {e}"))?;
    let par_wall = span.stop();

    if (par.total, par.events, par.messages, par.work_units, &par.per_rank)
        != (seq.total, seq.events, seq.messages, seq.work_units, &seq.per_rank)
    {
        return Err(format!(
            "bench-pdes: partitioned result diverged from the sequential engine \
             (events {} vs {}, total {} vs {})",
            par.events, seq.events, par.total, seq.total
        ));
    }

    let speedup = seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(1e-12);
    println!(
        "bench-pdes: packet/{}({}) {} events, {} packets\n  sequential engine {:.3}s, \
         windowed PDES ({} worker(s)) {:.3}s — {speedup:.2}x, predictions identical",
        entry.cfg.app.name(),
        entry.cfg.ranks,
        par.events,
        par.work_units,
        seq_wall.as_secs_f64(),
        workers,
        par_wall.as_secs_f64(),
    );
    if let Some(dir) = metrics_dir {
        let rm = RunMetrics::with_set(ms)
            .label("tool", "packet-pdes")
            .label("app", entry.cfg.app.name())
            .label("machine", &entry.cfg.machine)
            .label("ranks", &entry.cfg.ranks.to_string())
            .label("seed", &entry.cfg.seed.to_string())
            .label("sim_threads", &workers.to_string());
        let n = write_sidecars(dir, "bench_cg64", &[rm])?;
        eprintln!("wrote {n} packet-pdes sidecar(s) under {}", dir.display());
    }
    Ok(())
}

/// Parse a byte count with an optional binary suffix: `8g`/`8G` = 8 GiB,
/// `512m` = 512 MiB, `64k` = 64 KiB, plain digits = bytes.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (num, mult) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("'{s}' is not a byte count (use plain bytes or a k/m/g suffix)"))
}

/// `repro scale`: the mega-scale smoke path. Generate a trace for a
/// scale machine, stream it to disk in the MASS v1 format, drop the
/// in-memory copy, and replay the *streamed* trace through the packet
/// model under a resident-memory budget. Exercises exactly the three
/// panics-turned-errors of the mega-scale work: route-arena caps,
/// oversized messages, and memory budgets all land as typed failures.
///
/// `--metrics <dir>` writes a `tool=scale` sidecar and folds the
/// directory into `BENCH_obs.json`, whose top-level `host` entry then
/// carries this process's peak RSS next to the simulator's own
/// `route_arena_bytes` accounting.
fn scale_cmd(args: &[String]) -> Result<(), String> {
    use masim_core::ToolFailure;
    use masim_sim::{ModelKind, SimConfig, SimLimits, DEFAULT_PACKET_BYTES};
    use masim_trace::StreamedTrace;

    let mut machine_name = "frontier".to_string();
    let mut app_name = "CNS".to_string();
    let mut ranks: u32 = 65_536;
    let mut trace_dir: Option<PathBuf> = None;
    let mut mem_budget = u64::MAX;
    let mut metrics: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => {
                machine_name = it.next().ok_or("scale: --machine requires a name")?.clone();
            }
            "--app" => app_name = it.next().ok_or("scale: --app requires a name")?.clone(),
            "--ranks" => {
                let n = it.next().ok_or("scale: --ranks requires a count")?;
                ranks = n
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 2)
                    .ok_or_else(|| format!("scale: --ranks '{n}' is not a rank count"))?;
            }
            "--trace-dir" => {
                trace_dir = Some(PathBuf::from(
                    it.next().ok_or("scale: --trace-dir requires a directory")?,
                ));
            }
            "--mem-budget" => {
                let s = it.next().ok_or("scale: --mem-budget requires a byte count")?;
                mem_budget = parse_bytes(s).map_err(|e| format!("scale: --mem-budget {e}"))?;
            }
            "--metrics" => {
                metrics =
                    Some(PathBuf::from(it.next().ok_or("scale: --metrics requires a directory")?));
            }
            other => return Err(format!("scale: unknown argument '{other}'")),
        }
    }
    let trace_dir = trace_dir.ok_or("scale: --trace-dir <dir> is required")?;
    fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("scale: create trace dir {}: {e}", trace_dir.display()))?;
    if let Some(dir) = &metrics {
        fs::create_dir_all(dir)
            .map_err(|e| format!("scale: create metrics dir {}: {e}", dir.display()))?;
    }

    let machine = masim_topo::Machine::by_name(&machine_name).map_err(|e| e.to_string())?;
    let app = masim_workloads::App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(&app_name))
        .ok_or_else(|| format!("scale: unknown app '{app_name}'"))?;

    let mut gcfg = masim_workloads::GenConfig::test_default(app, ranks);
    gcfg.machine = machine_name.clone();
    gcfg.ranks_per_node = machine.cores_per_node;
    if gcfg.ranks > machine.capacity() {
        return Err(format!(
            "scale: {} ranks exceed {machine_name}'s capacity of {}",
            gcfg.ranks,
            machine.capacity()
        ));
    }

    // Stage 1: generate, stream to disk, and *drop* the in-memory trace
    // — from here on the simulator sees only the encoded bytes.
    let t0 = Instant::now();
    let path = {
        let trace = masim_workloads::generate(&gcfg);
        let path = trace_dir.join(format!("{}_{}.mass", app.name(), gcfg.ranks));
        masim_trace::write_stream(&trace, &path)
            .map_err(|e| format!("scale: write stream: {e}"))?;
        path
    };
    let gen_secs = t0.elapsed().as_secs_f64();
    let stream = StreamedTrace::open(&path).map_err(|e| format!("scale: open stream: {e}"))?;
    eprintln!(
        "scale: {}({}) on {machine_name}: {} events streamed to {} ({} B encoded) in {gen_secs:.1}s",
        app.name(),
        gcfg.ranks,
        stream.num_events(),
        path.display(),
        stream.resident_bytes(),
    );

    // Stage 2: replay the streamed trace through the packet model under
    // the memory budget. Streamed replay is sequential by construction.
    let ms = MetricSet::new();
    let cfg = SimConfig::for_streamed(
        machine,
        ModelKind::Packet { packet_bytes: DEFAULT_PACKET_BYTES },
        &stream,
    );
    let limits = SimLimits::unlimited().with_memory_budget(mem_budget);
    let span = ms.span(TOOL_WALL_SPAN);
    let res = masim_sim::run(&stream, &cfg, limits, Some(&ms));
    let wall = span.stop();

    let failure = res.as_ref().err().map(|e| ToolFailure::from_sim(e.clone()));
    if let Some(dir) = &metrics {
        let mut rm = RunMetrics::with_set(ms.clone())
            .label("tool", "scale")
            .label("app", app.name())
            .label("machine", &machine_name)
            .label("ranks", &gcfg.ranks.to_string())
            .label("seed", &gcfg.seed.to_string());
        if let Some(f) = &failure {
            rm = rm.label("failure", f.code());
        }
        let n = write_sidecars(dir, "scale", &[rm])?;
        eprintln!("scale: wrote {n} sidecar(s) under {}", dir.display());
        fold_sidecars(dir)?;
    }
    match res {
        Ok(r) => {
            let snap = ms.snapshot();
            let arena = snap.gauges.get("sim.route.arena_bytes").copied().unwrap_or(0);
            println!(
                "scale: {}({}) packet model finished in {:.1}s: predicted {}, {} events, \
                 {} packets, route arena {} B, peak RSS {} B",
                app.name(),
                gcfg.ranks,
                wall.as_secs_f64(),
                r.total,
                r.events,
                r.work_units,
                arena,
                masim_obs::peak_rss_bytes(),
            );
            Ok(())
        }
        Err(e) => {
            let f = failure.expect("failure recorded for the error branch");
            Err(format!("scale: simulation failed ({}): {e}", f.code()))
        }
    }
}

/// `repro serve`: run the study-as-a-service daemon until a `shutdown`
/// request arrives. `--socket <path>` and/or `--tcp <addr>` choose the
/// transports; `--cache-dir <dir>` mirrors the content-addressed result
/// cache to disk so identical resubmissions replay without running a
/// single simulator; `--trace <dir>` exports the daemon's timeline on
/// exit, exactly like the one-shot CLI.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut tcp: Option<String> = None;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sim_threads = 1usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                socket = Some(PathBuf::from(it.next().ok_or("serve: --socket requires a path")?));
            }
            "--tcp" => tcp = Some(it.next().ok_or("serve: --tcp requires an address")?.clone()),
            "--threads" => {
                let n = it.next().ok_or("serve: --threads requires a count")?;
                threads = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("serve: --threads '{n}' is not a positive count"))?;
            }
            "--sim-threads" => {
                let n = it.next().ok_or("serve: --sim-threads requires a count or 'auto'")?;
                sim_threads = if n == "auto" {
                    0
                } else {
                    n.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("serve: --sim-threads '{n}' is not a count or 'auto'")
                    })?
                };
            }
            "--cache-dir" => {
                cache_dir =
                    Some(PathBuf::from(it.next().ok_or("serve: --cache-dir requires a path")?));
            }
            "--trace" => {
                trace = Some(PathBuf::from(it.next().ok_or("serve: --trace requires a path")?));
            }
            other => return Err(format!("serve: unknown argument '{other}'")),
        }
    }
    let mut binds = Vec::new();
    if let Some(p) = &socket {
        binds.push(masim_serve::Bind::Unix(p.clone()));
    }
    if let Some(a) = &tcp {
        binds.push(masim_serve::Bind::Tcp(a.clone()));
    }
    if binds.is_empty() {
        return Err("serve: need --socket <path> and/or --tcp <addr>".into());
    }
    if let Some(dir) = &trace {
        fs::create_dir_all(dir).map_err(|e| format!("create trace dir {}: {e}", dir.display()))?;
        masim_obs::tracelog::install(masim_obs::tracelog::DEFAULT_LANE_CAPACITY);
    }
    let server =
        masim_serve::Server::new(masim_serve::ServerOptions { threads, sim_threads, cache_dir });
    let descr: Vec<String> = binds
        .iter()
        .map(|b| match b {
            masim_serve::Bind::Unix(p) => format!("unix:{}", p.display()),
            masim_serve::Bind::Tcp(a) => format!("tcp:{a}"),
        })
        .collect();
    eprintln!("serve: listening on {} ({threads} thread(s))", descr.join(", "));
    server.serve(&binds).map_err(|e| format!("serve: {e}"))?;
    eprintln!("serve: shut down");
    if let Some(dir) = &trace {
        write_trace(dir)?;
    }
    Ok(())
}

/// `repro submit`: drive one study through a running daemon and
/// materialize the streamed response under `--out <dir>` in the same
/// layout the one-shot CLI writes (report at the top, sidecars under
/// `metrics/`), plus a `response.json` summary for scripts.
fn submit_cmd(args: &[String]) -> Result<(), String> {
    let mut target: Option<masim_serve::Target> = None;
    let mut out = PathBuf::from("serve_out");
    let mut study: Option<String> = None;
    let mut tiny = false;
    let mut seed = 7u64;
    let mut indices: Option<Vec<usize>> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                target = Some(masim_serve::Target::Unix(PathBuf::from(
                    it.next().ok_or("submit: --socket requires a path")?,
                )));
            }
            "--tcp" => {
                target = Some(masim_serve::Target::Tcp(
                    it.next().ok_or("submit: --tcp requires an address")?.clone(),
                ));
            }
            "--out" => out = PathBuf::from(it.next().ok_or("submit: --out requires a path")?),
            "--tiny" => tiny = true,
            "--quiet" => quiet = true,
            "--seed" => {
                let n = it.next().ok_or("submit: --seed requires a number")?;
                seed = n.parse().map_err(|_| format!("submit: --seed '{n}' is not a number"))?;
            }
            "--indices" => {
                let list = it.next().ok_or("submit: --indices requires a,b,c")?;
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|t| t.trim().parse::<usize>()).collect();
                indices =
                    Some(parsed.map_err(|_| format!("submit: --indices '{list}' is not a,b,c"))?);
            }
            name if !name.starts_with('-') && study.is_none() => study = Some(name.to_string()),
            other => return Err(format!("submit: unknown argument '{other}'")),
        }
    }
    let target = target.ok_or("submit: need --socket <path> or --tcp <addr>")?;
    let kind = match study.as_deref() {
        Some("table2") => StudyKind::Table2 { tiny },
        Some("study") => StudyKind::Corpus { indices },
        Some(other) => return Err(format!("submit: unknown study '{other}' (table2|study)")),
        None => return Err("submit: need a study name (table2|study)".into()),
    };
    fs::create_dir_all(&out).map_err(|e| format!("create out dir {}: {e}", out.display()))?;
    let summary = masim_serve::submit(&target, SessionSpec { kind, seed }, &out, quiet)
        .map_err(|e| format!("submit: {e}"))?;
    eprintln!(
        "submit: session {} cache {} ran {}/{} in {:.3}s; wrote {}",
        summary.session,
        summary.cache,
        summary.ran,
        summary.total,
        summary.wall_ns as f64 / 1e9,
        out.join(&summary.report_name).display()
    );
    Ok(())
}

/// `repro ctl <status|shutdown|cancel <id>>`: one control request to a
/// running daemon; the response frame is printed as JSON on stdout.
fn ctl_cmd(args: &[String]) -> Result<(), String> {
    let mut target: Option<masim_serve::Target> = None;
    let mut verb: Option<String> = None;
    let mut session: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                target = Some(masim_serve::Target::Unix(PathBuf::from(
                    it.next().ok_or("ctl: --socket requires a path")?,
                )));
            }
            "--tcp" => {
                target = Some(masim_serve::Target::Tcp(
                    it.next().ok_or("ctl: --tcp requires an address")?.clone(),
                ));
            }
            name if !name.starts_with('-') && verb.is_none() => verb = Some(name.to_string()),
            name if !name.starts_with('-') && session.is_none() => {
                session = Some(name.to_string());
            }
            other => return Err(format!("ctl: unknown argument '{other}'")),
        }
    }
    let target = target.ok_or("ctl: need --socket <path> or --tcp <addr>")?;
    let resp = match verb.as_deref() {
        Some("status") => masim_serve::client::status(&target),
        Some("shutdown") => masim_serve::client::shutdown(&target),
        Some("cancel") => {
            let id = session.ok_or("ctl: cancel needs a session id")?;
            masim_serve::client::cancel(&target, &id)
        }
        _ => return Err("ctl: need a verb (status|shutdown|cancel <id>)".into()),
    }
    .map_err(|e| format!("ctl: {e}"))?;
    println!("{}", resp.to_json());
    Ok(())
}

/// `--trace`: export the installed timeline log as Chrome Trace Event
/// JSON (Perfetto-loadable; one track per study worker) and folded
/// flamegraph stacks.
fn write_trace(dir: &Path) -> Result<(), String> {
    let Some(tl) = masim_obs::tracelog::current() else {
        // Tracing compiled out (obs built without its default feature):
        // the flag is accepted but there is nothing to export.
        eprintln!("trace: instrumentation compiled out; no timeline captured");
        return Ok(());
    };
    let json_path = dir.join("trace.json");
    fs::write(&json_path, tl.to_chrome_json())
        .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    let folded_path = dir.join("trace.folded");
    fs::write(&folded_path, tl.to_folded())
        .map_err(|e| format!("write {}: {e}", folded_path.display()))?;
    eprintln!(
        "wrote {} ({} event(s), {} dropped) and {}",
        json_path.display(),
        tl.len(),
        tl.dropped(),
        folded_path.display()
    );
    Ok(())
}

/// Span names whose sidecar stats fold into each `--profile` phase.
/// The `report` phase has no sidecar source; it is timed live around
/// the report-generation loop.
const PROFILE_PHASES: [(&str, &str); 3] = [
    ("generate", "workloads.corpus.generate"),
    ("lower", "sim.runner.lower"),
    ("simulate", "sim.runner.simulate"),
];

/// `--profile`: fold the per-phase spans out of the sidecars in `dir`,
/// attach the live-measured report phase, print the breakdown, and
/// write it to `<dir>/profile.json` in the same labels/counters/gauges/
/// spans shape as the sidecars (with no `tool` label, so folds skip it).
fn write_profile(dir: &Path, report: &SpanStats) -> Result<(), String> {
    let mut phases: BTreeMap<&str, SpanStats> = BTreeMap::new();
    let rd = fs::read_dir(dir).map_err(|e| format!("read metrics dir {}: {e}", dir.display()))?;
    for ent in rd {
        let path = ent.map_err(|e| format!("list {}: {e}", dir.display()))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("read sidecar {}: {e}", path.display()))?;
        let data =
            parse_json(&text).map_err(|e| format!("parse sidecar {}: {e}", path.display()))?;
        // Only tool-labeled sidecars feed the phases; a profile.json
        // left over from a previous run must not fold into itself.
        if !data.labels.contains_key("tool") {
            continue;
        }
        for (phase, span_name) in PROFILE_PHASES {
            if let Some(s) = data.snapshot.spans.get(span_name) {
                phases.entry(phase).or_default().merge(s);
            }
        }
    }
    if report.count > 0 {
        phases.insert("report", report.clone());
    }

    let mut lines = vec![format!(
        "{:<10} {:>8} {:>12} {:>12} {:>12}",
        "phase", "count", "total(s)", "mean(ms)", "max(ms)"
    )];
    let mut spans = Vec::new();
    for (phase, s) in &phases {
        lines.push(format!(
            "{phase:<10} {:>8} {:>12.4} {:>12.3} {:>12.3}",
            s.count,
            s.sum_ns as f64 / 1e9,
            s.mean_ns() as f64 / 1e6,
            s.max_ns as f64 / 1e6
        ));
        spans.push((
            format!("repro.profile.{phase}"),
            Value::Obj(vec![
                ("count".into(), Value::UInt(s.count)),
                ("sum_ns".into(), Value::UInt(s.sum_ns)),
                ("min_ns".into(), Value::UInt(s.min_ns)),
                ("max_ns".into(), Value::UInt(s.max_ns)),
            ]),
        ));
    }
    let json = Value::Obj(vec![
        ("labels".into(), Value::Obj(vec![])),
        ("counters".into(), Value::Obj(vec![])),
        ("gauges".into(), Value::Obj(vec![])),
        ("spans".into(), Value::Obj(spans)),
    ])
    .to_json();
    let path = dir.join("profile.json");
    fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{}", lines.join("\n"));
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Run one study to completion through [`Session::run`] — the same
/// object the `repro serve` daemon runs; the CLI just points its trace
/// callback at sidecar files instead of socket frames. `--checkpoint`
/// only decides whether the session journals. Returns the study and the
/// number of sidecar files written.
///
/// Sidecars are written only for entries that ran *in this invocation*
/// (recovered entries wrote theirs before the interruption, so a resumed
/// `--metrics` directory ends up with exactly one sidecar set per
/// entry). On a deliberate `--fail-after` interruption, prints resume
/// guidance and exits with [`EXIT_INTERRUPTED`].
fn run_session(
    spec: SessionSpec,
    opts: &Options,
    study_ms: &MetricSet,
) -> Result<(Study, usize), String> {
    let mut session = match &opts.checkpoint {
        Some(ckdir) => Session::with_checkpoint(spec, ckdir, opts.resume),
        None => Session::new(spec),
    }
    .map_err(|e| e.to_string())?;
    session.set_sim_threads(opts.sim_threads);
    if let (recovered @ 1.., Some(path)) = (session.done(), session.checkpoint_path()) {
        eprintln!("checkpoint: recovered {recovered} completed trace(s) from {}", path.display());
    }
    let label = session.spec().label();
    let mut written = 0usize;
    let mut werr: Option<String> = None;
    let outcome = session
        .run(opts.threads, opts.fail_after, None, study_ms, label, None, |_, stem, observed| {
            if werr.is_some() {
                return;
            }
            if let Some(dir) = &opts.metrics {
                match write_sidecars(dir, stem, &observed.sidecars) {
                    Ok(n) => written += n,
                    Err(e) => werr = Some(e),
                }
            }
        })
        .map_err(|e| e.to_string())?;
    if let Some(e) = werr {
        return Err(e);
    }
    match outcome {
        SessionOutcome::Complete => Ok((session.study(), written)),
        SessionOutcome::Interrupted { done, total } => {
            eprintln!(
                "checkpoint: deliberately interrupted after {done}/{total} trace(s); \
                 rerun with --resume to finish"
            );
            std::process::exit(EXIT_INTERRUPTED);
        }
    }
}

/// Write one JSON + one CSV sidecar per tool run; returns how many
/// files were written.
fn write_sidecars(dir: &Path, stem: &str, runs: &[RunMetrics]) -> Result<usize, String> {
    let mut written = 0;
    for rm in runs {
        let tool = rm.labels().get("tool").cloned().unwrap_or_else(|| "run".into());
        for ext in ["json", "csv"] {
            let path = dir.join(format!("{stem}_{tool}.{ext}"));
            let res = if ext == "json" { rm.write_json(&path) } else { rm.write_csv(&path) };
            res.map_err(|e| format!("write sidecar {}: {e}", path.display()))?;
            written += 1;
        }
    }
    Ok(written)
}

/// `bench-summary`: fold every JSON sidecar in `dir` into
/// `BENCH_obs.json` — per tool, the median and max tool wall-clock and
/// the aggregate event throughput.
fn fold_sidecars(dir: &Path) -> Result<(), String> {
    // tool -> per-run (wall_ns, events)
    let mut by_tool: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    // tool -> (max peak queue occupancy, max route arena bytes) across
    // runs — the hot-path telemetry the sim runner exports as gauges.
    let mut hot_gauges: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    // tool -> (workers, steals, writer backlog max): parallel-runner
    // telemetry from the `study_runner` sidecar (tool = "runner").
    let mut par_gauges: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    // tool -> hist name -> bucket-merged histogram, for the `dist`
    // section (simulation histograms are only present when the run was
    // traced; the fold carries whatever it finds).
    let mut hist_acc: BTreeMap<String, BTreeMap<String, HistData>> = BTreeMap::new();
    let rd = fs::read_dir(dir).map_err(|e| format!("read metrics dir {}: {e}", dir.display()))?;
    for ent in rd {
        let path = ent.map_err(|e| format!("list {}: {e}", dir.display()))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("read sidecar {}: {e}", path.display()))?;
        let data =
            parse_json(&text).map_err(|e| format!("parse sidecar {}: {e}", path.display()))?;
        let Some(tool) = data.labels.get("tool").cloned() else { continue };
        // The study tags tool wall-clock under one span name; sidecars
        // without it (e.g. trace generation) fall back to their longest
        // recorded span.
        let wall_ns = data
            .snapshot
            .spans
            .get(TOOL_WALL_SPAN)
            .map(|s| s.sum_ns)
            .or_else(|| data.snapshot.spans.values().map(|s| s.sum_ns).max())
            .unwrap_or(0);
        let events = ["des.engine.processed", "mfact.replay.events", "workloads.corpus.events"]
            .iter()
            .find_map(|k| data.snapshot.counters.get(*k))
            .copied()
            .unwrap_or(0);
        let gauge = |name: &str| data.snapshot.gauges.get(name).copied().unwrap_or(0);
        let (occ, arena) = hot_gauges.entry(tool.clone()).or_default();
        *occ = (*occ).max(gauge("sim.queue.peak_occupancy"));
        *arena = (*arena).max(gauge("sim.route.arena_bytes"));
        let counter = |name: &str| data.snapshot.counters.get(name).copied().unwrap_or(0);
        let (w, st, bl) = par_gauges.entry(tool.clone()).or_default();
        *w = (*w).max(gauge(PARALLEL_WORKERS_GAUGE));
        *st = (*st).max(counter(PARALLEL_STEALS_COUNTER));
        *bl = (*bl).max(gauge(PARALLEL_BACKLOG_GAUGE));
        for (name, h) in &data.snapshot.hists {
            if matches!(name.as_str(), "sim.engine.dt_ps" | "sim.msg.bytes") {
                hist_acc.entry(tool.clone()).or_default().entry(name.clone()).or_default().merge(h);
            }
        }
        by_tool.entry(tool).or_default().push((wall_ns, events));
    }
    if by_tool.is_empty() {
        return Err(format!("no metric sidecars with a 'tool' label in {}", dir.display()));
    }

    let mut obj = Vec::new();
    for (tool, mut runs) in by_tool {
        runs.sort_unstable();
        let walls: Vec<u64> = runs.iter().map(|r| r.0).collect();
        let p50_ns = walls[(walls.len() - 1) / 2];
        let max_ns = walls.last().copied().unwrap_or(0);
        let total_events: u64 = runs.iter().map(|r| r.1).sum();
        // Median of per-run throughputs, not total/total: one cold-start
        // run (page faults, first-touch allocation) would otherwise
        // dominate the aggregate at smoke-test scale.
        let mut rates: Vec<f64> =
            runs.iter().filter(|r| r.0 > 0).map(|r| r.1 as f64 / (r.0 as f64 / 1e9)).collect();
        rates.sort_unstable_by(f64::total_cmp);
        let events_per_sec = if rates.is_empty() { 0.0 } else { rates[(rates.len() - 1) / 2] };
        let mut fields = vec![
            ("wall_p50".into(), Value::Num(p50_ns as f64 / 1e9)),
            ("wall_max".into(), Value::Num(max_ns as f64 / 1e9)),
            ("events_per_sec".into(), Value::Num(events_per_sec)),
            ("events_total".into(), Value::UInt(total_events)),
            ("runs".into(), Value::UInt(walls.len() as u64)),
        ];
        // Hot-path telemetry, present only for tools that export it
        // (the simulators); the gate reads only the keys above, so
        // these extra fields are informational.
        let (occ, arena) = hot_gauges.get(&tool).copied().unwrap_or((0, 0));
        if occ > 0 {
            fields.push(("queue_peak_occupancy".into(), Value::UInt(occ)));
        }
        if arena > 0 {
            fields.push(("route_arena_bytes".into(), Value::UInt(arena)));
        }
        // Parallel-runner telemetry (the `runner` pseudo-tool): how many
        // workers ran, how many claims were steals, and the writer's
        // re-sequencing high-water mark. Informational — the gate reads
        // only the standard keys.
        let (workers, steals, backlog) = par_gauges.get(&tool).copied().unwrap_or((0, 0, 0));
        if workers > 0 {
            fields.push(("workers".into(), Value::UInt(workers)));
            fields.push(("steals".into(), Value::UInt(steals)));
            fields.push(("writer_backlog_max".into(), Value::UInt(backlog)));
        }
        // Distribution summaries. Tool wall percentiles are exact
        // (computed from the per-run walls, already sorted); the
        // simulation-side histograms summarize via their log2 buckets
        // and appear only when the runs recorded them (traced runs).
        // The gate reads only the standard keys, so `dist` is
        // tolerated-but-reported there.
        let mut dist = vec![("tool_wall".into(), dist_exact_secs(&walls))];
        if let Some(hists) = hist_acc.get(&tool) {
            for (key, name) in [("sim_dt_ps", "sim.engine.dt_ps"), ("msg_bytes", "sim.msg.bytes")] {
                if let Some(h) = hists.get(name).filter(|h| h.count() > 0) {
                    dist.push((key.into(), dist_hist(h)));
                }
            }
        }
        fields.push(("dist".into(), Value::Obj(dist)));
        obj.push((tool, Value::Obj(fields)));
    }
    // Host-side measurements live only here, never in the per-tool
    // sidecars: the sidecars are diffed byte-for-byte in CI, and RSS
    // varies run to run. The gate ignores this entry (no gated keys).
    obj.push((
        "host".into(),
        Value::Obj(vec![("peak_rss_bytes".into(), Value::UInt(masim_obs::peak_rss_bytes()))]),
    ));
    let json = Value::Obj(obj).to_json();
    fs::write(BENCH_OBS, &json).map_err(|e| format!("write {BENCH_OBS}: {e}"))?;
    println!("{json}");
    eprintln!("wrote {BENCH_OBS}");
    Ok(())
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn pct_exact(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Exact wall-clock percentiles (seconds) from per-run walls in ns.
fn dist_exact_secs(sorted_ns: &[u64]) -> Value {
    Value::Obj(vec![
        ("p50".into(), Value::Num(pct_exact(sorted_ns, 0.50) as f64 / 1e9)),
        ("p90".into(), Value::Num(pct_exact(sorted_ns, 0.90) as f64 / 1e9)),
        ("p99".into(), Value::Num(pct_exact(sorted_ns, 0.99) as f64 / 1e9)),
        ("count".into(), Value::UInt(sorted_ns.len() as u64)),
    ])
}

/// Log2-bucket percentile summary of a merged sidecar histogram.
fn dist_hist(h: &HistData) -> Value {
    Value::Obj(vec![
        ("p50".into(), Value::UInt(h.p50())),
        ("p90".into(), Value::UInt(h.p90())),
        ("p99".into(), Value::UInt(h.p99())),
        ("count".into(), Value::UInt(h.count())),
    ])
}

/// `bench-gate`: compare the freshly folded `BENCH_obs.json` against
/// the committed `BENCH_baseline.json`. Deterministic event counts must
/// match exactly; median wall-clock and events/s may regress by at most
/// `tolerance` percent. With `write_baseline`, refresh the baseline
/// from the current fold instead.
fn bench_gate(write_baseline: bool, tolerance: f64) -> Result<(), String> {
    let obs_text =
        fs::read_to_string(BENCH_OBS).map_err(|e| format!("read {BENCH_OBS}: {e} (run `repro table2 --tiny --metrics <dir>` or `repro bench-summary` first)"))?;
    if write_baseline {
        fs::write(BENCH_BASELINE, &obs_text).map_err(|e| format!("write {BENCH_BASELINE}: {e}"))?;
        eprintln!("refreshed {BENCH_BASELINE} from {BENCH_OBS}");
        return Ok(());
    }
    let base_text = fs::read_to_string(BENCH_BASELINE).map_err(|e| {
        format!("read {BENCH_BASELINE}: {e} (refresh it with `repro bench-gate --write-baseline`)")
    })?;
    let obs = masim_obs::json::parse(&obs_text).map_err(|e| format!("parse {BENCH_OBS}: {e}"))?;
    let base =
        masim_obs::json::parse(&base_text).map_err(|e| format!("parse {BENCH_BASELINE}: {e}"))?;
    let report = gate_compare(&base, &obs, tolerance)?;
    println!("{report}");
    Ok(())
}

/// Pure comparison core for `bench-gate` (unit-tested below). Returns a
/// human-readable per-tool report on success; an error describing every
/// violation on failure.
fn gate_compare(base: &Value, obs: &Value, tolerance: f64) -> Result<String, String> {
    let base_tools = base.as_obj().ok_or("baseline: top level is not an object")?;
    let obs_tools = obs.as_obj().ok_or("observation: top level is not an object")?;
    let slack = 1.0 + tolerance / 100.0;
    let mut lines = vec![
        format!(
            "bench-gate: tolerance {tolerance}% (packet events/s {}%, packet-pdes {}%; \
             event counts exact)",
            tolerance.min(GATE_PACKET_TOLERANCE_PCT),
            tolerance.min(GATE_PDES_TOLERANCE_PCT)
        ),
        format!(
            "{:<14} {:>12} {:>12} {:>14} {:>8}",
            "tool", "wall_p50(s)", "base(s)", "events/s", "status"
        ),
    ];
    let mut violations = Vec::new();
    for (tool, b) in base_tools {
        let Some(o) = obs.get(tool) else {
            violations.push(format!("{tool}: present in baseline but missing from {BENCH_OBS}"));
            continue;
        };
        let mut bad = false;
        // Determinism: events per run are exact or the simulators changed
        // behaviour — a tolerance would only hide it.
        for key in ["events_total", "runs"] {
            let (bv, ov) = (b.get(key).and_then(Value::as_u64), o.get(key).and_then(Value::as_u64));
            if bv != ov {
                violations.push(format!(
                    "{tool}: {key} {} != baseline {} (deterministic count must match exactly)",
                    fmt_opt(ov),
                    fmt_opt(bv)
                ));
                bad = true;
            }
        }
        let bw = b.get("wall_p50").and_then(Value::as_f64).unwrap_or(0.0);
        let ow = o.get("wall_p50").and_then(Value::as_f64).unwrap_or(0.0);
        let measurable = bw >= GATE_WALL_FLOOR_SECS;
        if measurable && ow > bw * slack + GATE_NOISE_SECS {
            violations.push(format!(
                "{tool}: wall_p50 {ow:.4}s is {:.0}% over baseline {bw:.4}s (budget {tolerance}%)",
                (ow / bw - 1.0) * 100.0
            ));
            bad = true;
        }
        let be = b.get("events_per_sec").and_then(Value::as_f64).unwrap_or(0.0);
        let oe = o.get("events_per_sec").and_then(Value::as_f64).unwrap_or(0.0);
        // A throughput drop implies each run's wall grew by
        // per_run_events × (1/oe − 1/be); hold it to the same absolute
        // noise allowance as the direct wall check.
        let per_run = {
            let ev = b.get("events_total").and_then(Value::as_u64).unwrap_or(0) as f64;
            let runs = b.get("runs").and_then(Value::as_u64).unwrap_or(1).max(1) as f64;
            ev / runs
        };
        let eps_budget = match tool.as_str() {
            "packet" => tolerance.min(GATE_PACKET_TOLERANCE_PCT),
            "packet-pdes" => tolerance.min(GATE_PDES_TOLERANCE_PCT),
            _ => tolerance,
        };
        let eps_slack = 1.0 + eps_budget / 100.0;
        if measurable
            && be > 0.0
            && oe > 0.0
            && oe * eps_slack < be
            && per_run * (1.0 / oe - 1.0 / be) > GATE_NOISE_SECS
        {
            violations.push(format!(
                "{tool}: events/s {oe:.0} is {:.0}% below baseline {be:.0} (budget {eps_budget}%)",
                (1.0 - oe / be) * 100.0
            ));
            bad = true;
        }
        lines.push(format!(
            "{tool:<14} {ow:>12.4} {bw:>12.4} {oe:>14.0} {:>8}",
            if bad {
                "FAIL"
            } else if measurable {
                "ok"
            } else {
                "counts" // timing below the noise floor; counts checked
            }
        ));
        // Tail latency is tolerated but reported: p99 swings on shared
        // runners are too noisy to gate on, yet worth surfacing next to
        // the gated medians.
        if let Some(p99) = o
            .get("dist")
            .and_then(|d| d.get("tool_wall"))
            .and_then(|t| t.get("p99"))
            .and_then(Value::as_f64)
        {
            lines.push(format!("{tool:<14}   tool_wall p99 {p99:.4}s (reported, not gated)"));
        }
    }
    for (tool, _) in obs_tools {
        if base.get(tool).is_none() {
            lines.push(format!("{tool:<14} (new tool; not in baseline — refresh it)"));
        }
    }
    if violations.is_empty() {
        Ok(lines.join("\n"))
    } else {
        Err(format!("{}\nbench-gate FAILED:\n  {}", lines.join("\n"), violations.join("\n  ")))
    }
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "<missing>".into(), |n| n.to_string())
}

#[cfg(test)]
mod gate_tests {
    use super::*;

    fn tool(wall: f64, eps: f64, events: u64, runs: u64) -> Value {
        Value::Obj(vec![
            ("wall_p50".into(), Value::Num(wall)),
            ("wall_max".into(), Value::Num(wall * 2.0)),
            ("events_per_sec".into(), Value::Num(eps)),
            ("events_total".into(), Value::UInt(events)),
            ("runs".into(), Value::UInt(runs)),
        ])
    }

    fn doc(tools: &[(&str, Value)]) -> Value {
        Value::Obj(tools.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    #[test]
    fn identical_fold_passes() {
        let b = doc(&[("packet", tool(0.5, 4e6, 1000, 3))]);
        assert!(gate_compare(&b, &b, 25.0).is_ok());
    }

    #[test]
    fn slowdown_within_budget_passes() {
        let b = doc(&[("packet", tool(0.50, 4e6, 1000, 3))]);
        let o = doc(&[("packet", tool(0.60, 3.4e6, 1000, 3))]);
        assert!(gate_compare(&b, &o, 25.0).is_ok());
    }

    #[test]
    fn slowdown_past_budget_fails() {
        let b = doc(&[("packet", tool(0.50, 4e6, 1000, 3))]);
        let o = doc(&[("packet", tool(0.70, 4e6, 1000, 3))]);
        let err = gate_compare(&b, &o, 25.0).unwrap_err();
        assert!(err.contains("wall_p50"), "{err}");
    }

    #[test]
    fn throughput_drop_past_budget_fails() {
        // Self-consistent magnitudes: 2M events/run at 4M events/s is
        // the 0.5s median wall, so the implied per-run slowdown of the
        // eps drop (0.3s) is far beyond the absolute noise allowance.
        let b = doc(&[("packet", tool(0.50, 4e6, 6_000_000, 3))]);
        let o = doc(&[("packet", tool(0.50, 2.5e6, 6_000_000, 3))]);
        let err = gate_compare(&b, &o, 25.0).unwrap_err();
        assert!(err.contains("events/s"), "{err}");
    }

    #[test]
    fn tiny_scale_jitter_stays_within_noise_allowance() {
        // 150µs spans are above the measurability floor, but a 60%
        // wall / 30% eps swing there is ~100µs of scheduler jitter —
        // within the absolute allowance, so the gate holds.
        let b = doc(&[("flow", tool(150e-6, 3.3e6, 1500, 3))]);
        let o = doc(&[("flow", tool(240e-6, 2.3e6, 1500, 3))]);
        assert!(gate_compare(&b, &o, 25.0).is_ok());
        // The same relative drop with seconds-scale runs is a real
        // regression and fails both timing checks.
        let b = doc(&[("flow", tool(1.5, 3.3e6, 15_000_000, 3))]);
        let o = doc(&[("flow", tool(2.4, 2.3e6, 15_000_000, 3))]);
        let err = gate_compare(&b, &o, 25.0).unwrap_err();
        assert!(err.contains("wall_p50") && err.contains("events/s"), "{err}");
    }

    #[test]
    fn event_count_drift_fails_even_by_one() {
        let b = doc(&[("packet", tool(0.5, 4e6, 1000, 3))]);
        let o = doc(&[("packet", tool(0.5, 4e6, 1001, 3))]);
        let err = gate_compare(&b, &o, 25.0).unwrap_err();
        assert!(err.contains("events_total"), "{err}");
    }

    #[test]
    fn sub_floor_timings_are_noise_but_counts_still_bind() {
        // 30µs baseline median: timer noise — a 10x "slowdown" passes...
        let b = doc(&[("corpus", tool(30e-6, 1e7, 2224, 3))]);
        let slow = doc(&[("corpus", tool(300e-6, 1e6, 2224, 3))]);
        assert!(gate_compare(&b, &slow, 25.0).is_ok());
        // ...but an event-count drift still fails.
        let drift = doc(&[("corpus", tool(30e-6, 1e7, 2225, 3))]);
        assert!(gate_compare(&b, &drift, 25.0).is_err());
    }

    #[test]
    fn packet_throughput_floor_is_tighter() {
        // A 20% events/s drop at seconds scale: inside the generic 25%
        // budget, outside the 15% packet floor — so the same numbers
        // pass as "flow" but fail as "packet".
        let b = |name| doc(&[(name, tool(2.0, 4e6, 24_000_000, 3))]);
        let o = |name| doc(&[(name, tool(2.0, 3.2e6, 24_000_000, 3))]);
        assert!(gate_compare(&b("flow"), &o("flow"), 25.0).is_ok());
        let err = gate_compare(&b("packet"), &o("packet"), 25.0).unwrap_err();
        assert!(err.contains("events/s") && err.contains("budget 15%"), "{err}");
        // `--tolerance` can loosen other tools but never the packet
        // floor.
        let err = gate_compare(&b("packet"), &o("packet"), 50.0).unwrap_err();
        assert!(err.contains("budget 15%"), "{err}");
    }

    #[test]
    fn dist_section_is_tolerated_and_p99_reported() {
        // A fold carrying the new `dist` section still gates cleanly
        // against a baseline without one, and the tail latency shows up
        // as an informational line.
        let b = doc(&[("packet", tool(0.5, 4e6, 1000, 3))]);
        let mut with_dist = tool(0.5, 4e6, 1000, 3);
        if let Value::Obj(fields) = &mut with_dist {
            fields.push((
                "dist".into(),
                Value::Obj(vec![(
                    "tool_wall".into(),
                    Value::Obj(vec![
                        ("p50".into(), Value::Num(0.5)),
                        ("p90".into(), Value::Num(0.6)),
                        ("p99".into(), Value::Num(0.9)),
                        ("count".into(), Value::UInt(3)),
                    ]),
                )]),
            ));
        }
        let o = doc(&[("packet", with_dist)]);
        let report = gate_compare(&b, &o, 25.0).expect("dist must not trip the gate");
        assert!(report.contains("p99 0.9000s"), "{report}");
        assert!(report.contains("not gated"), "{report}");
    }

    #[test]
    fn exact_percentiles_are_nearest_rank() {
        let walls: Vec<u64> = (1..=100).collect();
        assert_eq!(pct_exact(&walls, 0.50), 50);
        assert_eq!(pct_exact(&walls, 0.99), 99);
        assert_eq!(pct_exact(&walls, 1.0), 100);
        assert_eq!(pct_exact(&[], 0.5), 0);
    }

    #[test]
    fn missing_tool_fails_and_speedup_passes() {
        let b = doc(&[("packet", tool(0.5, 4e6, 1000, 3)), ("flow", tool(0.1, 9e6, 500, 3))]);
        let o = doc(&[("packet", tool(0.1, 2e7, 1000, 3))]);
        let err = gate_compare(&b, &o, 25.0).unwrap_err();
        assert!(err.contains("flow") && err.contains("missing"), "{err}");
        let o2 = doc(&[("packet", tool(0.1, 2e7, 1000, 3)), ("flow", tool(0.1, 9e6, 500, 3))]);
        assert!(gate_compare(&b, &o2, 25.0).is_ok(), "a speedup is never a regression");
    }
}
