//! `masim-benchmark`: the repository's benchmark.
//!
//! ```sh
//! # every workload, untraced then traced; prints every metric, writes
//! # benchmark/out/result.json and benchmark/out/spans.json:
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run [--seed S]
//! # one workload, one mode (what the outside driver runs):
//! cargo run … -- run --workload heavy3 --seed 7 --seconds 15 --trace 0
//! # two result sets of one commit, or of a parent and a change:
//! cargo run … -- compare A.json B.json
//! ```
//!
//! `run` first builds the release `repro` binary from the repository's
//! sources (`cargo build --release --offline -p masim-bench --bin repro`),
//! so a fresh checkout needs no other step. End-to-end numbers are taken
//! with tracing off, from outside the program; per-layer numbers come
//! from a separate traced run in this process. See README.md.

mod adapter;
mod catalogue;
mod checks;
mod child;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;

use adapter::Json;
use report::{Provenance, WorkloadResult};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};
use workloads::Ctx;

const USAGE: &str = "usage:
  masim-benchmark run [--workload NAME] [--seed S] [--seconds N] [--trace 0|1|both]
  masim-benchmark compare A.json B.json
workloads: study235 heavy3 scale64k model_sweep (default: all four)
--seed     corpus seed of study235 / model_sweep and of the seeded micro rows (default 7)
--seconds  measuring time per workload; repetitions are added while they fit (default 15)
--trace    0 = end-to-end metrics, tracing off; 1 = per-layer metrics, traced; default both";

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
/// The paper's frozen corpus.
const DEFAULT_SEED: u64 = 7;

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    untraced: bool,
    traced: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: catalogue::WORKLOADS.iter().map(|w| w.name).collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        untraced: true,
        traced: true,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = catalogue::WORKLOADS.iter().find(|w| w.name == value);
                parsed.workloads =
                    vec![known.ok_or_else(|| format!("unknown workload '{value}'"))?.name];
            }
            "--seed" => {
                parsed.seed =
                    value.parse().map_err(|_| format!("--seed '{value}' is not a number"))?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds '{value}' is not a duration"))?;
            }
            "--trace" => {
                (parsed.untraced, parsed.traced) = match value.as_str() {
                    "0" => (true, false),
                    "1" => (false, true),
                    "both" => (true, true),
                    _ => return Err(format!("--trace '{value}' is not 0, 1 or both")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// The benchmark's own directory: `benchmark/` of the checkout this
/// process was started in, else of the checkout it was compiled in.
fn bench_dir() -> Result<PathBuf, String> {
    let compiled_in = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let started_in = std::env::current_dir().map(|d| d.join("benchmark")).unwrap_or_default();
    [started_in, compiled_in]
        .into_iter()
        .find(|d| d.join("Cargo.toml").is_file() && d.join("../crates/bench/Cargo.toml").is_file())
        .ok_or_else(|| {
            "no masim checkout around the benchmark (crates/bench is missing)".to_string()
        })
}

/// Build the release `repro` binary from the checkout's sources and
/// return its path. A no-op when it is already fresh.
fn build_repro(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "masim-bench", "--bin", "repro"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let repro = root.join(target).join("release/repro");
    if repro.is_file() {
        Ok(repro)
    } else {
        Err(format!("cargo built no {}", repro.display()))
    }
}

fn capture(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(cwd).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(root: &Path, args: &RunArgs) -> Provenance {
    Provenance {
        command: std::env::args().collect(),
        working_dir: std::env::current_dir().map(|d| d.display().to_string()).unwrap_or_default(),
        start_unix_s: SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs()),
        git_sha: capture("git", &["rev-parse", "HEAD"], root),
        hostname: fs::read_to_string("/proc/sys/kernel/hostname")
            .unwrap_or_default()
            .trim()
            .to_string(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: capture("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into()),
        profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        seed: args.seed,
        seconds: args.seconds,
    }
}

fn write_out(out_dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let path = out_dir.join(name);
    fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let bench_dir = bench_dir()?;
    let root = bench_dir.join("..");
    let out_dir = bench_dir.join("out");
    fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let stamp = provenance(&root, &args);
    let ctx = Ctx {
        repro: build_repro(&root)?,
        out_dir: out_dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };

    let mut results: Vec<WorkloadResult> =
        args.workloads.iter().map(|w| WorkloadResult::new(w)).collect();
    // All untraced measurements come first: `model_sweep` reads this
    // process's own peak RSS, which the in-process traced runs would raise.
    if args.untraced {
        for r in &mut results {
            eprintln!("benchmark: {} end to end, tracing off …", r.name);
            r.add_untraced(workloads::measure(&ctx, r.name)?);
        }
    }
    let mut spans = Vec::new();
    if args.traced {
        for r in &mut results {
            eprintln!("benchmark: {} traced …", r.name);
            let traced = traced::run(&ctx, r.name)?;
            r.add_traced(&traced);
            spans.push(traced.recorder.to_json());
        }
        write_out(&out_dir, "spans.json", &Json::Arr(spans).to_json())?;
    }

    for r in &results {
        r.print(args.seed);
    }
    write_out(&out_dir, "result.json", &report::result_json(&stamp, &results))?;
    println!("\nwrote {}", out_dir.join("result.json").display());
    println!("{}", report::result_line(&results));
    Ok(results.iter().all(WorkloadResult::correct))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("compare needs exactly two result files".into()) };
    let load = |path: &String| -> Result<Json, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        adapter::parse_json(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (text, ok) = report::compare(&load(a)?, &load(b)?)?;
    print!("{text}");
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("masim-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
