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
//! smoke-test scale (`tests/cli.rs` runs `table2 --tiny --metrics`).
//!
//! Measurement has one authority per question. Exact event counts and
//! predictions: `tests/golden/tiny_corpus.txt` in `cargo test`. Timing:
//! `benchmark/`, one line per PR in `BENCH_history.jsonl`. Thread-count
//! determinism: `cargo test` — the root equivalence suites and this
//! crate's `tests/cli.rs`, all judged by `masim_obs::run`. What a run
//! says about itself: the sidecars and `BENCH_obs.json`, which gate
//! nothing.
//!
//! `--sim-threads 1` is still accepted, as a no-op, by the report
//! commands and `serve`; any other value is a usage error, because the
//! intra-trace PDES it selected has been removed.

use masim_core::report;
use masim_core::{
    Dataset, Enhanced, Session, SessionOutcome, SessionSpec, Study, StudyConfig, StudyKind,
    PARALLEL_BACKLOG_GAUGE, PARALLEL_STEALS_COUNTER, PARALLEL_WORKERS_GAUGE, TOOL_WALL_SPAN,
};
use masim_obs::json::Value;
use masim_obs::run::parse_json;
use masim_obs::{HistData, MetricSet, RunMetrics};
use masim_serve::{Bind, Server, ServerOptions, Target};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::slice::Iter;
use std::time::Instant;

const ALL: [&str; 11] = [
    "table1", "fig1", "table2", "fig2", "fig3", "fig4", "fig5", "table3", "table4", "predict",
    "csv",
];

/// Reports available by name but not part of `all`: they retrain the model several times.
const EXTRA: [&str; 1] = ["stability"];

/// Where the folded per-tool summary lands.
const BENCH_OBS: &str = "BENCH_obs.json";

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
    /// `--checkpoint <dir>`: journal each completed trace so an
    /// interrupted run can resume.
    checkpoint: Option<PathBuf>,
    /// `--resume`: reuse an existing journal instead of starting fresh.
    resume: bool,
    /// `--fail-after <n>`: deliberately stop after `n` newly run traces
    /// (exit code 3) — the interruption hook CI exercises resume with.
    fail_after: Option<usize>,
    /// `--threads <n>`: study worker threads (default:
    /// `available_parallelism`); the module doc says when to pin it to 1.
    threads: usize,
    /// `--trace <dir>`: install the process-global timeline tracer and
    /// end the run by exporting it there (see [`write_trace`]).
    trace: Option<PathBuf>,
}

/// Exit code for a deliberate `--fail-after` interruption, so scripts
/// can tell "interrupted, resume me" from real failures.
const EXIT_INTERRUPTED: i32 = 3;

/// The next argument as a path, or `missing` when the flag came last.
fn path_arg(it: &mut Iter<String>, missing: &str) -> Result<PathBuf, String> {
    it.next().map(PathBuf::from).ok_or_else(|| missing.to_string())
}

/// A `--threads` value: a positive count. `flag` opens the error text.
fn parse_threads(n: &str, flag: &str) -> Result<usize, String> {
    let count = n.parse::<usize>().ok().filter(|&n| n > 0);
    count.ok_or_else(|| format!("{flag} '{n}' is not a positive count"))
}

/// A `--sim-threads` value: only `1`, a no-op kept so existing command
/// lines still run. `flag` opens the error text.
fn check_sim_threads(n: &str, flag: &str) -> Result<(), String> {
    if n == "1" {
        return Ok(());
    }
    Err(format!("{flag} '{n}': the intra-trace PDES was removed; only 1 is accepted"))
}

/// The daemon endpoint `cmd`'s `--socket <path>` or `--tcp <addr>` names.
fn target_arg(cmd: &str, flag: &str, it: &mut Iter<String>) -> Result<Target, String> {
    if flag == "--socket" {
        path_arg(it, &format!("{cmd}: --socket requires a path")).map(Target::Unix)
    } else {
        let addr = it.next().ok_or_else(|| format!("{cmd}: --tcp requires an address"))?;
        Ok(Target::Tcp(addr.clone()))
    }
}

/// `fs::create_dir_all` whose error reads "`what` `dir`: cause".
fn make_dir(what: &str, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{what} {}: {e}", dir.display()))
}

/// `--trace <dir>`: create the directory and install the timeline log,
/// before any work runs so every layer's trace call sites see it.
fn install_trace(dir: &Path) -> Result<(), String> {
    make_dir("create trace dir", dir)?;
    masim_obs::tracelog::install(masim_obs::tracelog::DEFAULT_LANE_CAPACITY);
    Ok(())
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        reports: Vec::new(),
        metrics: None,
        tiny: false,
        summarize: false,
        checkpoint: None,
        resume: false,
        fail_after: None,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace: None,
    };
    let dir = |it: &mut Iter<String>, flag: &str| {
        path_arg(it, &format!("{flag} requires a directory argument"))
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let n = it.next().ok_or("--threads requires a count argument")?;
                opts.threads = parse_threads(n, "--threads:")?;
            }
            "--metrics" => opts.metrics = Some(dir(&mut it, a)?),
            "--trace" => opts.trace = Some(dir(&mut it, a)?),
            "--checkpoint" => opts.checkpoint = Some(dir(&mut it, a)?),
            "--resume" => opts.resume = true,
            "--fail-after" => {
                let n = it.next().ok_or("--fail-after requires a count argument")?;
                let count = n.parse().map_err(|_| format!("--fail-after: '{n}' is not a count"))?;
                opts.fail_after = Some(count);
            }
            "--sim-threads" => {
                let n = it.next().ok_or("--sim-threads requires a count")?;
                check_sim_threads(n, "--sim-threads:")?;
            }
            "--tiny" => opts.tiny = true,
            "bench-summary" => opts.summarize = true,
            _ => opts.reports.push(a.clone()),
        }
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err("--resume requires --checkpoint <dir>".into());
    }
    if opts.fail_after.is_some() && opts.checkpoint.is_none() {
        return Err("--fail-after requires --checkpoint <dir>".into());
    }
    if (opts.reports.is_empty() && !opts.summarize) || opts.reports.iter().any(|a| a == "all") {
        opts.reports = ALL.iter().map(|s| s.to_string()).collect();
    }
    for a in &opts.reports {
        if !ALL.contains(&a.as_str()) && !EXTRA.contains(&a.as_str()) {
            return Err(format!(
                "unknown report '{a}'; available: {ALL:?}, {EXTRA:?}, 'all', 'bench-summary', \
                 or the subcommands 'serve', 'submit', 'ctl', 'scale' (first argument)"
            ));
        }
    }
    Ok(opts)
}

/// `Option::as_ref` with an error instead of a panic: a missing study
/// or model is a sequencing bug, reported with the report that hit it.
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
    let opts = parse_args(&argv)?;
    let threads = opts.threads;
    if let Some(dir) = &opts.metrics {
        make_dir("create metrics dir", dir)?;
    }
    if let Some(dir) = &opts.trace {
        install_trace(dir)?;
    }
    if opts.summarize && opts.reports.is_empty() {
        return fold_sidecars(opts.metrics.as_deref().unwrap_or(Path::new("reports/metrics")));
    }
    make_dir("create", Path::new("reports/"))?;

    // Which reports need the full study / the trained model?
    let needs_study = opts.reports.iter().any(|a| !matches!(a.as_str(), "table2" | "table3"));
    let needs_model =
        opts.reports.iter().any(|a| matches!(a.as_str(), "table4" | "predict" | "stability"));

    // Runner telemetry (worker/steal/backlog metrics). Kept off the
    // per-tool sidecars, which must stay bit-identical at any thread
    // count.
    let study_ms = MetricSet::new();
    if threads > 1 && opts.reports.iter().any(|a| matches!(a.as_str(), "fig1" | "table2")) {
        eprintln!(
            "note: --threads {threads} co-schedules the tools, so Figure 1 / Table II host \
             wall-clock columns are not comparable to the paper's; use --threads 1 \
             for timing studies (predictions are identical either way)"
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
        eprintln!("running the full 235-trace study ({threads} thread(s); several minutes)...");
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

    for a in &opts.reports {
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
        println!("{text}");
        let ext = if a == "csv" { "csv" } else { "txt" };
        let path = format!("reports/{a}.{ext}");
        let mut f = fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
        f.write_all(text.as_bytes()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    if let Some(dir) = &opts.metrics {
        // One extra sidecar for the study runner itself (tool =
        // "runner": workers, steals, writer backlog, wall span) so the
        // fold can report the pool next to the tools. Absent only when
        // no study ran (`repro table3`).
        if study_ms.snapshot().gauges.get(PARALLEL_WORKERS_GAUGE).copied().unwrap_or(0) > 0 {
            let rm = RunMetrics::with_set(study_ms.clone())
                .label("tool", "runner")
                .label("threads", &threads.to_string());
            sidecar_count += write_sidecars(dir, "study", &[rm])?;
        }
        eprintln!("wrote {sidecar_count} metric sidecar(s) under {}", dir.display());
        // `repro table3` runs no study: no sidecar, nothing to fold.
        if sidecar_count > 0 {
            fold_sidecars(dir)?;
        }
    } else if opts.summarize {
        fold_sidecars(Path::new("reports/metrics"))?;
    }
    if let Some(dir) = &opts.trace {
        write_trace(dir)?;
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
/// model under a resident-memory budget. Route-arena caps, oversized
/// messages and memory budgets all land as typed failures.
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
                trace_dir = Some(path_arg(&mut it, "scale: --trace-dir requires a directory")?);
            }
            "--mem-budget" => {
                let s = it.next().ok_or("scale: --mem-budget requires a byte count")?;
                mem_budget = parse_bytes(s).map_err(|e| format!("scale: --mem-budget {e}"))?;
            }
            "--metrics" => {
                metrics = Some(path_arg(&mut it, "scale: --metrics requires a directory")?);
            }
            other => return Err(format!("scale: unknown argument '{other}'")),
        }
    }
    let trace_dir = trace_dir.ok_or("scale: --trace-dir <dir> is required")?;
    make_dir("scale: create trace dir", &trace_dir)?;
    if let Some(dir) = &metrics {
        make_dir("scale: create metrics dir", dir)?;
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
    // the memory budget.
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
    let (mut socket, mut tcp) = (None, None);
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cache_dir: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" | "--tcp" => match target_arg("serve", a, &mut it)? {
                Target::Unix(p) => socket = Some(Bind::Unix(p)),
                Target::Tcp(t) => tcp = Some(Bind::Tcp(t)),
            },
            "--threads" => {
                let n = it.next().ok_or("serve: --threads requires a count")?;
                threads = parse_threads(n, "serve: --threads")?;
            }
            "--sim-threads" => {
                let n = it.next().ok_or("serve: --sim-threads requires a count")?;
                check_sim_threads(n, "serve: --sim-threads")?;
            }
            "--cache-dir" => {
                cache_dir = Some(path_arg(&mut it, "serve: --cache-dir requires a path")?);
            }
            "--trace" => trace = Some(path_arg(&mut it, "serve: --trace requires a path")?),
            other => return Err(format!("serve: unknown argument '{other}'")),
        }
    }
    let binds: Vec<Bind> = socket.into_iter().chain(tcp).collect();
    if binds.is_empty() {
        return Err("serve: need --socket <path> and/or --tcp <addr>".into());
    }
    if let Some(dir) = &trace {
        install_trace(dir)?;
    }
    let server = Server::new(ServerOptions { threads, cache_dir });
    let descr: Vec<String> = binds
        .iter()
        .map(|b| match b {
            Bind::Unix(p) => format!("unix:{}", p.display()),
            Bind::Tcp(a) => format!("tcp:{a}"),
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
    let mut target: Option<Target> = None;
    let mut out = PathBuf::from("serve_out");
    let mut study: Option<String> = None;
    let mut tiny = false;
    let mut seed = 7u64;
    let mut indices: Option<Vec<usize>> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" | "--tcp" => target = Some(target_arg("submit", a, &mut it)?),
            "--out" => out = path_arg(&mut it, "submit: --out requires a path")?,
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
    make_dir("create out dir", &out)?;
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
    let mut target: Option<Target> = None;
    let mut verb: Option<String> = None;
    let mut session: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" | "--tcp" => target = Some(target_arg("ctl", a, &mut it)?),
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

/// `--trace`: export the installed timeline log as `trace.json` (Chrome
/// Trace Event Format, one Perfetto track per study worker) and
/// `trace.folded` (flamegraph folded stacks).
fn write_trace(dir: &Path) -> Result<(), String> {
    let tl = masim_obs::tracelog::current().expect("install_trace ran when --trace was parsed");
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

/// Run one study to completion through [`Session::run`] — the same
/// object the `repro serve` daemon runs; the CLI points its trace
/// callback at sidecar files instead of socket frames, and `--checkpoint`
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

/// Write one JSON + one CSV sidecar per tool run; returns the number of files written.
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
        // (the simulators).
        let (occ, arena) = hot_gauges.get(&tool).copied().unwrap_or((0, 0));
        if occ > 0 {
            fields.push(("queue_peak_occupancy".into(), Value::UInt(occ)));
        }
        if arena > 0 {
            fields.push(("route_arena_bytes".into(), Value::UInt(arena)));
        }
        // Parallel-runner telemetry (the `runner` pseudo-tool): how many
        // workers ran, how many claims were steals, and the writer's
        // re-sequencing high-water mark.
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
    // sidecars: `cli.rs` compares those between runs, and RSS varies
    // run to run.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parser_refuses_zero_workers_and_journal_flags_without_a_journal() {
        for (args, why) in [
            (&["--threads", "0"][..], "--threads: '0' is not a positive count"),
            (&["--threads", "auto"], "--threads: 'auto' is not a positive count"),
            (&["--resume"], "--resume requires --checkpoint <dir>"),
            (&["--fail-after", "1"], "--fail-after requires --checkpoint <dir>"),
            (
                &["--sim-threads", "0"],
                "--sim-threads: '0': the intra-trace PDES was removed; only 1 is accepted",
            ),
            (
                &["--sim-threads", "2"],
                "--sim-threads: '2': the intra-trace PDES was removed; only 1 is accepted",
            ),
            (
                &["--sim-threads", "auto"],
                "--sim-threads: 'auto': the intra-trace PDES was removed; only 1 is accepted",
            ),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(why));
        }
        let opts = parse(&["--sim-threads", "1", "--checkpoint", "d", "--resume"]).unwrap();
        assert!(opts.resume);
    }

    #[test]
    fn byte_counts_take_binary_suffixes_and_reject_overflow() {
        assert_eq!(parse_bytes("8g"), Ok(8 << 30));
        assert_eq!(parse_bytes("512m"), Ok(512 << 20));
        assert_eq!(parse_bytes("64k"), Ok(64 << 10));
        for bad in ["g", "", "17179869184g", "8gb"] {
            assert!(parse_bytes(bad).is_err(), "'{bad}' is not a byte count");
        }
    }

    #[test]
    fn exact_percentiles_are_nearest_rank() {
        let walls: Vec<u64> = (1..=100).collect();
        assert_eq!(pct_exact(&walls, 0.50), 50);
        assert_eq!(pct_exact(&walls, 0.99), 99);
        assert_eq!(pct_exact(&walls, 1.0), 100);
        assert_eq!(pct_exact(&[], 0.5), 0);
    }
}
