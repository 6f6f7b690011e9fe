//! The four workloads, measured end to end with tracing off.
//!
//! Three of them are timed from outside the program: the driver spawns
//! the release `repro` binary, one child at a time, always single
//! threaded, each in a fresh scratch directory. The fourth
//! (`model_sweep`) is the modeling path run in the driver's own process.

use crate::adapter::{self, parse_json, Json};
use crate::catalogue as cat;
use crate::checks::{self, Ops, ScaleOut, StudyRow};
use crate::child::{self, Daemon, Finished, Scratch};
use crate::stats;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What every workload needs to run.
pub struct Ctx {
    /// The release `repro` binary.
    pub repro: PathBuf,
    /// `benchmark/out/`: scratch directories and result files.
    pub out_dir: PathBuf,
    /// Corpus seed for `study235` and `model_sweep`, and the seed of
    /// every seeded micro row.
    pub seed: u64,
    /// Measuring time per workload: repetitions continue while another
    /// one fits, but never stop below the workload's minimum.
    pub seconds: f64,
}

/// One timed repetition of a workload.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
    /// Tool wall per trace of this repetition.
    pub trace_wall_s: Vec<f64>,
}

/// What a repetition leaves behind for the traced run to check against.
#[derive(Default)]
pub struct Artefacts {
    /// `study235`: the parsed `study.csv` and the bytes materialised under `--out`.
    pub study_rows: Vec<StudyRow>,
    pub response_bytes: u64,
    /// `scale64k`: the parsed stdout line.
    pub scale: Option<ScaleOut>,
    /// `study235` traced run only: cached resubmit latencies.
    pub resubmit_ms: Vec<f64>,
}

/// A workload's untraced measurement.
pub struct Measured {
    pub reps: Vec<Rep>,
    pub ops: Ops,
    pub artefacts: Artefacts,
}

const SUBMIT_TIMEOUT: Duration = Duration::from_secs(150);
const TABLE2_TIMEOUT: Duration = Duration::from_secs(60);
const SCALE_TIMEOUT: Duration = Duration::from_secs(120);
const DAEMON_START_TIMEOUT: Duration = Duration::from_secs(20);
const PROBE_TIMEOUT: Duration = Duration::from_secs(10);

/// Set-up is measured this many times per repetition; the median counts.
const SETUP_SAMPLES: usize = 5;

/// `repro scale --mem-budget 8g`.
pub const SCALE_MEM_BUDGET: u64 = 8 << 30;
const SCALE_ARGS: [&str; 11] = [
    "scale",
    "--machine",
    "frontier",
    "--app",
    "CNS",
    "--ranks",
    "64000",
    "--mem-budget",
    "8g",
    "--trace-dir",
    "td",
];

/// Cached resubmits after the traced cold run (reported, never gated).
const RESUBMITS: usize = 30;

/// Fewest repetitions per workload; `--seconds` only ever adds to these.
/// The two long workloads take what the total-time cap allows; the two
/// short ones always get three, so one slow repetition cannot move the
/// median.
fn min_reps(workload: &str) -> usize {
    match workload {
        cat::STUDY235 => 1,
        cat::SCALE64K => 2,
        _ => 3,
    }
}

/// Run `workload` end to end, tracing off, for about `ctx.seconds`.
pub fn measure(ctx: &Ctx, workload: &str) -> Result<Measured, String> {
    measure_reps(ctx, workload, min_reps(workload), ctx.seconds, false)
}

/// One untraced repetition, as the reference the traced run is compared
/// with; for `study235` it also times the cached resubmits.
pub fn measure_once(ctx: &Ctx, workload: &str) -> Result<Measured, String> {
    measure_reps(ctx, workload, 1, 0.0, true)
}

fn measure_reps(
    ctx: &Ctx,
    workload: &str,
    at_least: usize,
    seconds: f64,
    resubmit: bool,
) -> Result<Measured, String> {
    let started = Instant::now();
    let mut m = Measured { reps: Vec::new(), ops: Ops::default(), artefacts: Artefacts::default() };
    loop {
        let rep = match workload {
            cat::STUDY235 => study235(ctx, &mut m, resubmit)?,
            cat::HEAVY3 => heavy3(ctx, &mut m)?,
            cat::SCALE64K => scale64k(ctx, &mut m)?,
            cat::MODEL_SWEEP => model_sweep(ctx, &mut m)?,
            other => return Err(format!("unknown workload '{other}'")),
        };
        m.reps.push(rep);
        let per_rep = started.elapsed().as_secs_f64() / m.reps.len() as f64;
        if m.reps.len() >= at_least && started.elapsed().as_secs_f64() + per_rep > seconds {
            return Ok(m);
        }
    }
}

/// Cost of launching the tool before it does any work: a fresh scratch
/// directory plus one `repro` process started and exited on a request it
/// can only refuse (`ctl status` on a socket nobody listens on).
fn launch_setup(ctx: &Ctx) -> Result<(Scratch, f64), String> {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    loop {
        let t0 = Instant::now();
        let scratch = Scratch::new(&ctx.out_dir).map_err(|e| format!("scratch dir: {e}"))?;
        let args = ["ctl", "status", "--socket", "nobody.sock"];
        let probe = child::run(&ctx.repro, &args, scratch.path(), "probe", PROBE_TIMEOUT)?;
        samples.push(t0.elapsed().as_secs_f64());
        if probe.exit != child::Exit::Code(1) {
            return Err(format!("launch probe ended with {:?}, expected exit code 1", probe.exit));
        }
        if samples.len() == SETUP_SAMPLES {
            return Ok((scratch, stats::median(&samples)));
        }
    }
}

/// A child's failure as a failed op (and nothing else to parse).
fn child_ops(done: &Finished, what: &str, attempted: u64) -> Option<Ops> {
    done.failure(what).map(|why| Ops::all_failed(attempted, why))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = fs::read_dir(dir) else { return 0 };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `study235`: start the daemon, then one cold `submit study --seed S`
/// of the full corpus. Set-up is daemon spawn until `ctl status` answers.
fn study235(ctx: &Ctx, m: &mut Measured, resubmit: bool) -> Result<Rep, String> {
    let expected = adapter::corpus(ctx.seed).len();
    m.artefacts.study_rows.clear();
    let mut ready = Vec::with_capacity(SETUP_SAMPLES);
    let (scratch, daemon) = loop {
        let scratch = Scratch::new(&ctx.out_dir).map_err(|e| format!("scratch dir: {e}"))?;
        let daemon = Daemon::start(&ctx.repro, scratch.path(), DAEMON_START_TIMEOUT)?;
        ready.push(daemon.ready_s);
        if ready.len() == SETUP_SAMPLES {
            break (scratch, daemon);
        }
        daemon.shutdown()?;
    };

    let seed = ctx.seed.to_string();
    let submit = |out: &str, tag: &str| {
        let args = [
            "submit",
            "study",
            "--seed",
            &seed,
            "--out",
            out,
            "--socket",
            daemon.socket(),
            "--quiet",
        ];
        child::run(&ctx.repro, &args, scratch.path(), tag, SUBMIT_TIMEOUT)
    };
    let cold = submit("cold", "submit")?;
    let out = scratch.path().join("cold");

    let mut ops = match child_ops(&cold, "submit study", 4 * expected as u64) {
        Some(failed) => failed,
        None => {
            let csv = fs::read_to_string(out.join("study.csv")).unwrap_or_default();
            match checks::parse_study_csv(&csv) {
                Ok(rows) => {
                    let ops = checks::study_ops(&rows, expected);
                    m.artefacts.study_rows = rows.into_iter().flatten().collect();
                    ops
                }
                Err(e) => Ops::all_failed(4 * expected as u64, e),
            }
        }
    };
    // The run must have been a cache miss that ran every trace.
    let response = fs::read_to_string(out.join("response.json")).unwrap_or_default();
    let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64);
    match parse_json(&response) {
        Ok(doc)
            if doc.get("cache").and_then(Json::as_str) == Some("miss")
                && field(&doc, "ran") == Some(expected as u64)
                && field(&doc, "total") == Some(expected as u64) => {}
        _ => ops.fail(1, format!("submit was not a cold run of {expected} traces: {response}")),
    }
    m.artefacts.response_bytes = dir_bytes(&out);

    if resubmit && cold.ok() {
        for i in 0..RESUBMITS {
            let again = submit("warm", "resubmit")?;
            ops.attempted += 1;
            match again.failure(&format!("resubmit {i}")) {
                Some(why) => ops.fail(1, why),
                None => m.artefacts.resubmit_ms.push(again.wall_s * 1e3),
            }
        }
    }

    let served = daemon.shutdown()?;
    if let Some(why) = served.failure("repro serve") {
        ops.fail(1, why);
    }
    m.ops.absorb(ops);
    Ok(Rep {
        wall_s: cold.wall_s,
        setup_s: stats::median(&ready),
        peak_rss_mb: served.peak_rss_mb.max(cold.peak_rss_mb),
        cpu_s: served.cpu_s + cold.cpu_s,
        trace_wall_s: m.artefacts.study_rows.iter().map(StudyRow::trace_wall_s).collect(),
    })
}

/// `heavy3`: one-shot `repro table2`, unbudgeted.
fn heavy3(ctx: &Ctx, m: &mut Measured) -> Result<Rep, String> {
    let expected = adapter::heavy_entries().len();
    let (scratch, setup_s) = launch_setup(ctx)?;
    let args = ["table2", "--threads", "1", "--sim-threads", "1"];
    let done = child::run(&ctx.repro, &args, scratch.path(), "table2", TABLE2_TIMEOUT)?;
    let mut trace_wall_s = Vec::new();
    let ops = child_ops(&done, "repro table2", 4 * expected as u64).unwrap_or_else(|| {
        let text =
            fs::read_to_string(scratch.path().join("reports/table2.txt")).unwrap_or_default();
        match checks::parse_table2(&text) {
            Ok(rows) => {
                trace_wall_s = rows.iter().map(checks::Table2Row::trace_wall_s).collect();
                checks::table2_ops(&rows, expected)
            }
            Err(e) => Ops::all_failed(4 * expected as u64, e),
        }
    });
    m.ops.absorb(ops);
    Ok(Rep {
        wall_s: done.wall_s,
        setup_s,
        peak_rss_mb: done.peak_rss_mb,
        cpu_s: done.cpu_s,
        trace_wall_s,
    })
}

/// `scale64k`: one-shot `repro scale` at 64 000 ranks on frontier.
fn scale64k(ctx: &Ctx, m: &mut Measured) -> Result<Rep, String> {
    let (scratch, setup_s) = launch_setup(ctx)?;
    let done = child::run(&ctx.repro, &SCALE_ARGS, scratch.path(), "scale", SCALE_TIMEOUT)?;
    let mut ops = child_ops(&done, "repro scale", 1).unwrap_or_else(|| {
        let out = checks::parse_scale_stdout(&done.stdout);
        let mut ops = checks::scale_op(&out, SCALE_MEM_BUDGET);
        if let Ok(out) = out {
            // A fixed input must predict the same time on every repetition.
            match &m.artefacts.scale {
                Some(first) if first.predicted != out.predicted || first.events != out.events => {
                    ops.fail(
                        1,
                        format!(
                            "scale: repetitions disagree: {} / {} events vs {} / {} events",
                            first.predicted, first.events, out.predicted, out.events
                        ),
                    );
                }
                Some(_) => {}
                None => m.artefacts.scale = Some(out),
            }
        }
        ops
    });
    if done.peak_rss_mb * 1048576.0 > SCALE_MEM_BUDGET as f64 {
        ops.fail(
            1,
            format!("scale: ru_maxrss {:.0} MB exceeds the 8 GiB budget", done.peak_rss_mb),
        );
    }
    m.ops.absorb(ops);
    Ok(Rep {
        wall_s: done.wall_s,
        setup_s,
        peak_rss_mb: done.peak_rss_mb,
        cpu_s: done.cpu_s,
        // One trace per child: its tool wall is the child's wall.
        trace_wall_s: vec![done.wall_s],
    })
}

/// Check one entry's two replays: positive predictions, and MFACT time
/// must not rise when the sweep raises bandwidth at fixed latency.
pub fn sweep_ops(label: &str, base: &[f64], sweep: &[f64]) -> Ops {
    // Two ops per entry: the base replay and the sweep.
    let mut ops = Ops { attempted: 2, ..Ops::default() };
    let base_ok = base.first().is_some_and(|&t| t > 0.0);
    if !base_ok {
        ops.fail(1, format!("{label}: base replay predicted no positive time"));
    }
    if sweep.len() != 7 || sweep.iter().any(|&t| t.is_nan() || t <= 0.0) {
        ops.fail(1, format!("{label}: sweep did not predict 7 positive times: {sweep:?}"));
    } else if sweep[1] > sweep[0] || sweep[0] > sweep[2] {
        ops.fail(
            1,
            format!(
                "{label}: MFACT time not monotone in bandwidth: x8 {} / base {} / ÷8 {}",
                sweep[1], sweep[0], sweep[2]
            ),
        );
    } else if base_ok && base.first() != sweep.first() {
        ops.fail(
            1,
            format!("{label}: base replay {base:?} differs from sweep baseline {}", sweep[0]),
        );
    }
    ops
}

/// `model_sweep`: for each corpus entry of the seed, generate, replay at
/// the base configuration, replay at the 7-point sweep. Set-up is the
/// generation; wall is the replays.
fn model_sweep(ctx: &Ctx, m: &mut Measured) -> Result<Rep, String> {
    let cpu0 = process_cpu_s();
    let mut rep = Rep::default();
    for entry in adapter::corpus(ctx.seed) {
        let t0 = Instant::now();
        let trace = entry.generate();
        let machine = adapter::machine(entry.machine_name())?;
        rep.setup_s += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let base = adapter::mfact_base(&trace, &machine);
        let sweep = adapter::mfact_sweep(&trace, &machine);
        let wall = t1.elapsed().as_secs_f64();
        rep.wall_s += wall;
        rep.trace_wall_s.push(wall);
        m.ops.absorb(sweep_ops(&entry.label(), &base, &sweep));
    }
    rep.cpu_s = process_cpu_s() - cpu0;
    rep.peak_rss_mb = adapter::peak_rss_bytes() as f64 / 1048576.0;
    Ok(rep)
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, in clock ticks of 10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|t| t.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_checks_catch_a_non_monotone_mfact() {
        let good = [1.0, 0.8, 1.9, 0.9, 1.4, 0.5, 4.0];
        assert_eq!(sweep_ops("EP(64)", &[1.0], &good).failed, 0);
        assert_eq!(sweep_ops("EP(64)", &[1.0], &good).attempted, 2);
        let faster_when_slower = [1.0, 1.1, 1.9, 0.9, 1.4, 0.5, 4.0];
        assert_eq!(sweep_ops("EP(64)", &[1.0], &faster_when_slower).failed, 1);
        assert_eq!(sweep_ops("EP(64)", &[0.0], &good).failed, 1);
        assert_eq!(sweep_ops("EP(64)", &[1.0], &good[..6]).failed, 1);
        assert_eq!(sweep_ops("EP(64)", &[2.0], &good).failed, 1);
    }

    #[test]
    fn process_cpu_time_advances() {
        let before = process_cpu_s();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > before);
    }
}
