//! `repro`: regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p masim-bench --bin repro -- all
//! cargo run --release -p masim-bench --bin repro -- fig2 fig5
//! cargo run --release -p masim-bench --bin repro -- all --metrics reports/metrics
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
//! With `--metrics <dir>`, every trace×tool run also writes a JSON
//! observability sidecar (counters, gauges, wall-clock spans) under
//! `<dir>`, plus one `study_runner.json` for the worker pool. `--tiny`
//! shrinks the Table II heavyweights to smoke-test scale (`tests/cli.rs`
//! runs `table2 --tiny --metrics`).
//!
//! Measurement has one authority per question. Exact event counts and
//! predictions: `tests/golden/tiny_corpus.txt` in `cargo test`. Timing:
//! `benchmark/`, one line per PR in `BENCH_history.jsonl`. Thread-count
//! determinism: `cargo test` — the root equivalence suites and this
//! crate's `tests/cli.rs`, all judged by `masim_obs::run`. What a run
//! says about itself: its sidecars and, for `scale`, its result line;
//! both gate nothing.
//!
//! `--sim-threads 1` is still accepted, as a no-op, by the report
//! commands and `serve`; any other value is a usage error, because the
//! intra-trace PDES it selected has been removed.

use masim_core::report;
use masim_core::{
    Dataset, Enhanced, Session, SessionError, SessionOutcome, SessionSpec, Sidecar, Store, Study,
    StudyConfig, StudyKind, PARALLEL_WORKERS_GAUGE, TOOL_WALL_SPAN,
};
use masim_obs::{MetricSet, RunMetrics, TraceLog};
use masim_serve::{Server, ServerOptions};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::slice::Iter;
use std::sync::Arc;
use std::time::Instant;

const ALL: [&str; 11] = [
    "table1", "fig1", "table2", "fig2", "fig3", "fig4", "fig5", "table3", "table4", "predict",
    "csv",
];

/// Reports available by name but not part of `all`: they retrain the model several times.
const EXTRA: [&str; 1] = ["stability"];

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
    /// `--checkpoint <dir>`: keep each completed trace in the result
    /// store there, and reuse whatever it already holds for this study.
    checkpoint: Option<PathBuf>,
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

/// `fs::create_dir_all` whose error reads "`what` `dir`: cause".
fn make_dir(what: &str, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{what} {}: {e}", dir.display()))
}

/// `--trace <dir>`: create the directory and install the timeline log,
/// before any work runs so every layer's trace call sites see it.
fn install_trace(dir: &Path) -> Result<&'static TraceLog, String> {
    make_dir("create trace dir", dir)?;
    Ok(masim_obs::tracelog::install(masim_obs::tracelog::DEFAULT_LANE_CAPACITY))
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        reports: Vec::new(),
        metrics: None,
        tiny: false,
        checkpoint: None,
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
            _ => opts.reports.push(a.clone()),
        }
    }
    if opts.fail_after.is_some() && opts.checkpoint.is_none() {
        return Err("--fail-after requires --checkpoint <dir>".into());
    }
    if opts.reports.is_empty() || opts.reports.iter().any(|a| a == "all") {
        opts.reports = ALL.iter().map(|s| s.to_string()).collect();
    }
    for a in &opts.reports {
        if !ALL.contains(&a.as_str()) && !EXTRA.contains(&a.as_str()) {
            return Err(format!(
                "unknown report '{a}'; available: {ALL:?}, {EXTRA:?}, 'all', or the \
                 subcommands 'serve', 'submit', 'ctl', 'scale' (first argument)"
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
    let trace = match &opts.trace {
        Some(dir) => Some((dir, install_trace(dir)?)),
        None => None,
    };
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
        // "runner": workers, steals, writer backlog, wall span). Absent
        // only when no study ran (`repro table3`).
        if study_ms.snapshot().gauges.get(PARALLEL_WORKERS_GAUGE).copied().unwrap_or(0) > 0 {
            let rm = RunMetrics::with_set(study_ms.clone())
                .label("tool", "runner")
                .label("threads", &threads.to_string());
            sidecar_count += write_sidecars(dir, "study", &[Sidecar::from(&rm)])?;
        }
        eprintln!("wrote {sidecar_count} metric sidecar(s) under {}", dir.display());
    }
    if let Some((dir, tl)) = trace {
        write_trace(dir, tl)?;
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

/// glibc's allocator tuned for `repro scale`'s peak RSS; elsewhere
/// no-ops. With its default, dynamic mmap threshold, the generator's
/// freed 12.6 MB chunk lifts the threshold, so every later buffer below
/// it (the window slab, the simulator's queues) comes from a heap that
/// the generator left fragmented, and the run's peak RSS moved by
/// ±15 MB with the length of the binary's own path.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod heap {
    use std::ffi::c_int;

    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
        fn malloc_trim(pad: usize) -> c_int;
    }

    /// Give every allocation of 128 KiB or more a mapping of its own, at
    /// a fixed threshold: it returns to the kernel when freed and grows
    /// by remapping, not by a copy.
    pub fn map_large_allocations() {
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` takes no pointer; it sets a malloc parameter.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 << 10);
        }
    }

    /// Hand the heap's free pages back to the kernel: the ≈ 100 MB of
    /// segment buffers the generator has freed, which the replay would
    /// otherwise grow on top of.
    pub fn release_free_pages() {
        // SAFETY: `malloc_trim` takes no pointer; it only returns free
        // pages of the allocator's own arenas.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod heap {
    pub fn map_large_allocations() {}
    pub fn release_free_pages() {}
}

/// `repro scale`: the mega-scale smoke path. Generate a trace for a
/// scale machine straight to disk in the MASS v1 format — the two-pass
/// generator holds the encoded trace, never a decoded event — and replay
/// the *streamed* trace, read from its file a window per rank at a time,
/// through the packet model under a resident-memory budget. Oversized messages and memory budgets, route memory included,
/// land as typed failures.
///
/// `--metrics <dir>` writes a `tool=scale` sidecar. The result line
/// carries the simulator's own route-arena accounting and this
/// process's peak RSS.
fn scale_cmd(args: &[String]) -> Result<(), String> {
    use masim_core::ToolFailure;
    use masim_sim::{ModelKind, SimConfig, SimLimits, DEFAULT_PACKET_BYTES};
    use masim_trace::StreamedTrace;

    heap::map_large_allocations();
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

    // Stage 1: generate straight to disk; the simulator reads the file
    // back through per-rank windows.
    let t0 = Instant::now();
    let path = trace_dir.join(format!("{}_{}.mass", app.name(), gcfg.ranks));
    masim_workloads::generate_stream(&gcfg, &path)
        .map_err(|e| format!("scale: write stream: {e}"))?;
    let gen_secs = t0.elapsed().as_secs_f64();
    heap::release_free_pages();
    let encoded = std::fs::metadata(&path).map_err(|e| format!("scale: stream size: {e}"))?.len();
    let stream = StreamedTrace::open(&path).map_err(|e| format!("scale: open stream: {e}"))?;
    eprintln!(
        "scale: {}({}) on {machine_name}: {} events streamed to {} ({encoded} B encoded, \
         {} B resident) in {gen_secs:.1}s",
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
    eprintln!(
        "scale: read the stream in {} refills of {} B windows",
        stream.refills(),
        StreamedTrace::WINDOW
    );

    if let Some(dir) = &metrics {
        let mut rm = RunMetrics::with_set(ms.clone())
            .label("tool", "scale")
            .label("app", app.name())
            .label("machine", &machine_name)
            .label("ranks", &gcfg.ranks.to_string())
            .label("seed", &gcfg.seed.to_string());
        if let Err(e) = &res {
            rm = rm.label("failure", ToolFailure::from(e.clone()).code());
        }
        let n = write_sidecars(dir, "scale", &[Sidecar::from(&rm)])?;
        eprintln!("scale: wrote {n} sidecar(s) under {}", dir.display());
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
            Err(format!("scale: simulation failed ({}): {e}", ToolFailure::from(e.clone()).code()))
        }
    }
}

/// `repro serve`: run the study-as-a-service daemon until a `shutdown`
/// request arrives. `--socket <path>` names the unix socket it listens
/// on; `--cache-dir <dir>` keeps the per-trace result store on disk
/// (`<dir>/study.ckpt.jsonl`), so an entry stored by any earlier
/// submission, also before a restart, is a hit that runs no simulator;
/// `--trace <dir>` exports the daemon's timeline on exit, exactly like
/// the one-shot CLI.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cache_dir: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(path_arg(&mut it, "serve: --socket requires a path")?),
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
    let socket = socket.ok_or("serve: need --socket <path>")?;
    let trace = match &trace {
        Some(dir) => Some((dir, install_trace(dir)?)),
        None => None,
    };
    let server =
        Server::new(ServerOptions { threads, cache_dir }).map_err(|e| format!("serve: {e}"))?;
    eprintln!("serve: listening on unix:{} ({threads} thread(s))", socket.display());
    server.serve(&socket).map_err(|e| format!("serve: {e}"))?;
    eprintln!("serve: shut down");
    if let Some((dir, tl)) = trace {
        write_trace(dir, tl)?;
    }
    Ok(())
}

/// `repro submit`: drive one study through a running daemon and
/// materialize the streamed response under `--out <dir>` in the same
/// layout the one-shot CLI writes (report at the top, sidecars under
/// `metrics/`), plus a `response.json` summary for scripts.
fn submit_cmd(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut out = PathBuf::from("serve_out");
    let mut study: Option<String> = None;
    let mut tiny = false;
    let mut seed = 7u64;
    let mut indices: Option<Vec<usize>> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(path_arg(&mut it, "submit: --socket requires a path")?),
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
    let socket = socket.ok_or("submit: need --socket <path>")?;
    let kind = match study.as_deref() {
        Some("table2") => StudyKind::Table2 { tiny },
        Some("study") => StudyKind::Corpus { indices },
        Some(other) => return Err(format!("submit: unknown study '{other}' (table2|study)")),
        None => return Err("submit: need a study name (table2|study)".into()),
    };
    make_dir("create out dir", &out)?;
    let summary = masim_serve::submit(&socket, SessionSpec { kind, seed }, &out, quiet)
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
    let mut socket: Option<PathBuf> = None;
    let mut verb: Option<String> = None;
    let mut session: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(path_arg(&mut it, "ctl: --socket requires a path")?),
            name if !name.starts_with('-') && verb.is_none() => verb = Some(name.to_string()),
            name if !name.starts_with('-') && session.is_none() => {
                session = Some(name.to_string());
            }
            other => return Err(format!("ctl: unknown argument '{other}'")),
        }
    }
    let socket = socket.ok_or("ctl: need --socket <path>")?;
    let resp = match verb.as_deref() {
        Some("status") => masim_serve::client::status(&socket),
        Some("shutdown") => masim_serve::client::shutdown(&socket),
        Some("cancel") => {
            let id = session.ok_or("ctl: cancel needs a session id")?;
            masim_serve::client::cancel(&socket, &id)
        }
        _ => return Err("ctl: need a verb (status|shutdown|cancel <id>)".into()),
    }
    .map_err(|e| format!("ctl: {e}"))?;
    println!("{}", resp.to_json());
    Ok(())
}

/// `--trace`: export the timeline log [`install_trace`] returned as
/// `trace.json` (Chrome Trace Event Format, one Perfetto track per study
/// worker).
fn write_trace(dir: &Path, tl: &TraceLog) -> Result<(), String> {
    let path = dir.join("trace.json");
    fs::write(&path, tl.to_chrome_json()).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {} ({} event(s), {} dropped)", path.display(), tl.len(), tl.dropped());
    Ok(())
}

/// Run one study to completion through [`Session::run`] — the same
/// object the `repro serve` daemon runs; the CLI points its trace
/// callback at sidecar files instead of socket frames, and `--checkpoint`
/// only decides whether the session keeps its per-trace result store on
/// disk (`<dir>/study.ckpt.jsonl`). Returns the study and the number of
/// sidecar files written.
///
/// A store's records are keyed by entry, config and code fingerprint, so
/// every entry it already holds is recovered rather than re-run, and —
/// as the daemon streams them — its stored sidecars are written before
/// the rest run: a `--metrics` directory always ends up with one sidecar
/// set per entry. On a deliberate `--fail-after` interruption, prints
/// resume guidance and exits with [`EXIT_INTERRUPTED`].
fn run_session(
    spec: SessionSpec,
    opts: &Options,
    study_ms: &MetricSet,
) -> Result<(Study, usize), String> {
    let mut session = match &opts.checkpoint {
        Some(ckdir) => Store::open(ckdir)
            .map_err(SessionError::from)
            .and_then(|store| Session::with_store(spec, Arc::new(store))),
        None => Session::new(spec),
    }
    .map_err(|e| e.to_string())?;
    if let (recovered @ 1.., Some(path)) = (session.done(), session.checkpoint_path()) {
        eprintln!("checkpoint: recovered {recovered} completed trace(s) from {}", path.display());
    }
    let mut written = 0usize;
    if let Some(dir) = &opts.metrics {
        for (stem, record) in session.records() {
            written += write_sidecars(dir, &stem, &record.sidecars)?;
        }
    }
    let mut werr: Option<String> = None;
    let outcome = session
        .run(opts.threads, opts.fail_after, None, study_ms, None, |_, stem, observed| {
            if werr.is_some() {
                return;
            }
            if let Some(dir) = &opts.metrics {
                let sidecars: Vec<Sidecar> = observed.sidecars.iter().map(Sidecar::from).collect();
                match write_sidecars(dir, stem, &sidecars) {
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
                 rerun with the same --checkpoint to finish"
            );
            std::process::exit(EXIT_INTERRUPTED);
        }
    }
}

/// Write one `<stem>_<tool>.json` file per sidecar; returns the number of files written.
fn write_sidecars(dir: &Path, stem: &str, sidecars: &[Sidecar]) -> Result<usize, String> {
    for sc in sidecars {
        let path = dir.join(format!("{stem}_{}.json", sc.tool));
        fs::write(&path, &sc.json).map_err(|e| format!("write sidecar {}: {e}", path.display()))?;
    }
    Ok(sidecars.len())
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
        let opts = parse(&["--sim-threads", "1", "--checkpoint", "d"]).unwrap();
        assert_eq!(opts.checkpoint.as_deref(), Some(Path::new("d")));
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
}
