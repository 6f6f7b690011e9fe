//! Checkpoint/resume for long study runs.
//!
//! A study over the full corpus takes minutes to hours; a crash, an
//! `^C`, or a batch-scheduler preemption used to throw the completed
//! work away. This module journals every completed per-trace result to
//! an append-only JSONL file so an interrupted run can resume exactly
//! where it stopped.
//!
//! Design points:
//!
//! * **Entries are not journaled, results are.** The corpus is
//!   deterministic in `(seed, index)`, so a record stores only the
//!   entry's index plus the measured values, features, classification,
//!   and the four [`ToolRun`]s (including their typed
//!   [`ToolFailure`] causes). On resume the caller re-derives the entry
//!   list and the journal re-attaches each record by index — resumed
//!   studies are bit-identical to uninterrupted ones in every
//!   prediction, measurement, and failure cause (tool *wall-clock*
//!   fields are the ones recorded when the tool actually ran).
//! * **Append-only JSONL, one fsync-free flush per trace.** A torn
//!   final line (the process died mid-write) is detected and dropped on
//!   resume; that trace simply re-runs. A corrupt *interior* line is an
//!   error — the journal was tampered with or the disk is failing, and
//!   silently re-running could mask it.
//! * **The header pins the configuration.** Seed, budgets, deadline,
//!   and entry count must match on resume; mixing configurations in one
//!   journal would merge incomparable results.

use crate::study::{StudyConfig, ToolFailure, ToolRun, TraceStudy};
use masim_mfact::{AppClass, Classification, Counters};
use masim_obs::json::{parse, Value};
use masim_trace::{Features, Time, NUM_FEATURES};
use masim_workloads::CorpusEntry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Journal file name inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "study.ckpt.jsonl";

/// Journal format version (header field `masim_checkpoint`).
pub const CHECKPOINT_VERSION: u64 = 1;

/// Why a checkpoint could not be created, read, or extended.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (create, read, append, flush).
    Io(std::io::Error),
    /// A journal line (1-based; line 1 is the header) failed to parse
    /// or decode — and it was not the final, possibly-torn line.
    Corrupt {
        /// 1-based journal line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal's header does not match the study configuration the
    /// caller is trying to resume.
    Mismatch {
        /// Which header field disagreed and how.
        reason: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { line, reason } => {
                write!(f, "checkpoint journal corrupt at line {line}: {reason}")
            }
            CheckpointError::Mismatch { reason } => {
                write!(f, "checkpoint does not match this study configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// An open study journal: the results recovered so far plus an append
/// handle for new ones.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    file: fs::File,
    completed: BTreeMap<usize, TraceStudy>,
}

impl Checkpoint {
    /// Start a fresh journal in `dir` (created if needed), truncating
    /// any previous one.
    pub fn create(
        dir: &Path,
        cfg: &StudyConfig,
        n_entries: usize,
    ) -> Result<Checkpoint, CheckpointError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(CHECKPOINT_FILE);
        let mut file = fs::File::create(&path)?;
        writeln!(file, "{}", header_value(cfg, n_entries).to_json())?;
        file.flush()?;
        Ok(Checkpoint { path, file, completed: BTreeMap::new() })
    }

    /// Reopen an existing journal and recover its completed results,
    /// re-attaching each record to its entry by index. The header must
    /// match `cfg` and `entries.len()` exactly. A torn final line is
    /// dropped (that trace re-runs); any other malformed line is a
    /// [`CheckpointError::Corrupt`].
    pub fn resume(
        dir: &Path,
        cfg: &StudyConfig,
        entries: &[CorpusEntry],
    ) -> Result<Checkpoint, CheckpointError> {
        let path = dir.join(CHECKPOINT_FILE);
        let text = fs::read_to_string(&path)?;
        let mut lines = text.lines().enumerate().peekable();
        let (_, header_line) = lines.next().ok_or(CheckpointError::Corrupt {
            line: 1,
            reason: "empty journal (missing header)".into(),
        })?;
        let header = parse(header_line).map_err(|e| CheckpointError::Corrupt {
            line: 1,
            reason: format!("header does not parse: {e}"),
        })?;
        check_header(&header, cfg, entries.len())?;

        let mut completed = BTreeMap::new();
        while let Some((lineno, line)) = lines.next() {
            if line.trim().is_empty() {
                continue;
            }
            let last = lines.peek().is_none();
            let value = match parse(line) {
                Ok(v) => v,
                // The process died mid-append: drop the torn tail.
                Err(_) if last => break,
                Err(e) => {
                    return Err(CheckpointError::Corrupt {
                        line: lineno + 1,
                        reason: format!("record does not parse: {e}"),
                    })
                }
            };
            match decode_record(&value, entries) {
                Ok((index, study)) => {
                    // Duplicate index (e.g. two racing writers): last
                    // record wins, matching append order.
                    completed.insert(index, study);
                }
                Err(reason) if last => {
                    // A syntactically valid but incomplete tail object
                    // is still a torn write.
                    let _ = reason;
                    break;
                }
                Err(reason) => return Err(CheckpointError::Corrupt { line: lineno + 1, reason }),
            }
        }
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        Ok(Checkpoint { path, file, completed })
    }

    /// Append one completed trace result and flush it to the OS.
    pub fn record(&mut self, index: usize, study: &TraceStudy) -> Result<(), CheckpointError> {
        writeln!(self.file, "{}", encode_record(index, study).to_json())?;
        self.file.flush()?;
        self.completed.insert(index, study.clone());
        Ok(())
    }

    /// Results recovered or recorded so far, by entry index.
    pub fn completed(&self) -> &BTreeMap<usize, TraceStudy> {
        &self.completed
    }

    /// Journal location on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

fn header_value(cfg: &StudyConfig, n_entries: usize) -> Value {
    Value::Obj(vec![
        ("masim_checkpoint".into(), Value::UInt(CHECKPOINT_VERSION)),
        ("seed".into(), Value::UInt(cfg.seed)),
        ("packet_budget".into(), Value::UInt(cfg.packet_budget)),
        ("flow_budget".into(), Value::UInt(cfg.flow_budget)),
        ("pflow_budget".into(), Value::UInt(cfg.pflow_budget)),
        ("sim_deadline_ns".into(), cfg.sim_deadline.map_or(Value::Null, dur_value)),
        ("entries".into(), Value::UInt(n_entries as u64)),
    ])
}

fn check_header(
    header: &Value,
    cfg: &StudyConfig,
    n_entries: usize,
) -> Result<(), CheckpointError> {
    let mismatch = |reason: String| Err(CheckpointError::Mismatch { reason });
    let want = header_value(cfg, n_entries);
    let fields = want.as_obj().expect("header is an object");
    for (key, expect) in fields {
        let got = header.get(key);
        if got != Some(expect) {
            return mismatch(format!(
                "header field '{key}' is {}, this run expects {}",
                got.map_or_else(|| "missing".to_string(), Value::to_json),
                expect.to_json()
            ));
        }
    }
    Ok(())
}

fn time_value(t: Time) -> Value {
    Value::UInt(t.as_ps())
}

fn dur_value(d: Duration) -> Value {
    // Saturate instead of wrapping: a >500-year wall time is already
    // meaningless.
    Value::UInt(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn failure_value(f: &ToolFailure) -> Value {
    let mut fields = vec![("code".to_string(), Value::Str(f.code().to_string()))];
    match f {
        ToolFailure::BudgetExhausted { consumed, budget } => {
            fields.push(("consumed".into(), Value::UInt(*consumed)));
            fields.push(("budget".into(), Value::UInt(*budget)));
        }
        ToolFailure::DeadlineExceeded { elapsed, deadline } => {
            fields.push(("elapsed_ns".into(), dur_value(*elapsed)));
            fields.push(("deadline_ns".into(), dur_value(*deadline)));
        }
        ToolFailure::Deadlock { finished, total } => {
            fields.push(("finished".into(), Value::UInt(u64::from(*finished))));
            fields.push(("total".into(), Value::UInt(u64::from(*total))));
        }
        ToolFailure::ClockOverflow { now_ps, delay_ps } => {
            fields.push(("now_ps".into(), Value::UInt(*now_ps)));
            fields.push(("delay_ps".into(), Value::UInt(*delay_ps)));
        }
        ToolFailure::InvalidConfig { reason } => {
            fields.push(("reason".into(), Value::Str(reason.clone())));
        }
        ToolFailure::Panicked { message } => {
            fields.push(("message".into(), Value::Str(message.clone())));
        }
        ToolFailure::MemoryBudget { detail } => {
            fields.push(("detail".into(), Value::Str(detail.clone())));
        }
    }
    Value::Obj(fields)
}

fn tool_value(run: &ToolRun) -> Value {
    Value::Obj(vec![
        ("total_ps".into(), run.total.map_or(Value::Null, time_value)),
        ("comm_ps".into(), run.comm.map_or(Value::Null, time_value)),
        ("wall_ns".into(), dur_value(run.wall)),
        ("failure".into(), run.failure.as_ref().map_or(Value::Null, failure_value)),
    ])
}

fn classification_value(c: &Classification) -> Value {
    Value::Obj(vec![
        ("class".into(), Value::Str(c.class.label().to_string())),
        ("bw_sensitivity".into(), Value::Num(c.bw_sensitivity)),
        ("lat_sensitivity".into(), Value::Num(c.lat_sensitivity)),
        ("base_total".into(), Value::Num(c.base_total)),
        (
            "baseline_ps".into(),
            Value::Arr(vec![
                time_value(c.baseline.wait),
                time_value(c.baseline.latency),
                time_value(c.baseline.bandwidth),
                time_value(c.baseline.computation),
            ]),
        ),
    ])
}

fn encode_record(index: usize, t: &TraceStudy) -> Value {
    Value::Obj(vec![
        ("index".into(), Value::UInt(index as u64)),
        ("measured_total_ps".into(), time_value(t.measured_total)),
        ("measured_comm_ps".into(), time_value(t.measured_comm)),
        ("events".into(), Value::UInt(t.events as u64)),
        (
            "features".into(),
            Value::Arr(t.features.as_vec().iter().map(|&f| Value::Num(f)).collect()),
        ),
        ("classification".into(), classification_value(&t.classification)),
        (
            "tools".into(),
            Value::Obj(vec![
                ("mfact".into(), tool_value(&t.mfact)),
                ("packet".into(), tool_value(&t.packet)),
                ("flow".into(), tool_value(&t.flow)),
                ("packet-flow".into(), tool_value(&t.pflow)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------
// JSON decoding (errors are plain strings; the caller attaches the
// journal line number)
// ---------------------------------------------------------------------

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?.as_u64().ok_or_else(|| format!("field '{key}' is not a u64"))
}

fn u32_field(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(v, key)?).map_err(|_| format!("field '{key}' does not fit a u32"))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?.as_f64().ok_or_else(|| format!("field '{key}' is not a number"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?.as_str().ok_or_else(|| format!("field '{key}' is not a string"))
}

fn time_field(v: &Value, key: &str) -> Result<Time, String> {
    Ok(Time::from_ps(u64_field(v, key)?))
}

fn failure_from(v: &Value) -> Result<ToolFailure, String> {
    let code = str_field(v, "code")?;
    Ok(match code {
        "budget" => ToolFailure::BudgetExhausted {
            consumed: u64_field(v, "consumed")?,
            budget: u64_field(v, "budget")?,
        },
        "deadline" => ToolFailure::DeadlineExceeded {
            elapsed: Duration::from_nanos(u64_field(v, "elapsed_ns")?),
            deadline: Duration::from_nanos(u64_field(v, "deadline_ns")?),
        },
        "deadlock" => ToolFailure::Deadlock {
            finished: u32_field(v, "finished")?,
            total: u32_field(v, "total")?,
        },
        "overflow" => ToolFailure::ClockOverflow {
            now_ps: u64_field(v, "now_ps")?,
            delay_ps: u64_field(v, "delay_ps")?,
        },
        "invalid-config" => ToolFailure::InvalidConfig { reason: str_field(v, "reason")?.into() },
        "panic" => ToolFailure::Panicked { message: str_field(v, "message")?.into() },
        "memory" => ToolFailure::MemoryBudget { detail: str_field(v, "detail")?.into() },
        other => return Err(format!("unknown failure code {other:?}")),
    })
}

fn tool_from(v: &Value, key: &str) -> Result<ToolRun, String> {
    let t = field(v, key)?;
    let opt_time = |k: &str| -> Result<Option<Time>, String> {
        match field(t, k)? {
            Value::Null => Ok(None),
            other => Ok(Some(Time::from_ps(
                other.as_u64().ok_or_else(|| format!("tool '{key}' field '{k}' is not a u64"))?,
            ))),
        }
    };
    let failure = match field(t, "failure")? {
        Value::Null => None,
        other => Some(failure_from(other).map_err(|e| format!("tool '{key}': {e}"))?),
    };
    Ok(ToolRun {
        total: opt_time("total_ps")?,
        comm: opt_time("comm_ps")?,
        wall: Duration::from_nanos(u64_field(t, "wall_ns")?),
        failure,
    })
}

fn classification_from(v: &Value) -> Result<Classification, String> {
    let c = field(v, "classification")?;
    let label = str_field(c, "class")?;
    let class = AppClass::from_label(label)
        .ok_or_else(|| format!("unknown classification label {label:?}"))?;
    let arr = match field(c, "baseline_ps")? {
        Value::Arr(items) if items.len() == 4 => items,
        _ => return Err("field 'baseline_ps' is not a 4-element array".into()),
    };
    let ps = |i: usize| -> Result<Time, String> {
        arr[i].as_u64().map(Time::from_ps).ok_or_else(|| format!("baseline_ps[{i}] is not a u64"))
    };
    Ok(Classification {
        class,
        bw_sensitivity: f64_field(c, "bw_sensitivity")?,
        lat_sensitivity: f64_field(c, "lat_sensitivity")?,
        base_total: f64_field(c, "base_total")?,
        baseline: Counters {
            wait: ps(0)?,
            latency: ps(1)?,
            bandwidth: ps(2)?,
            computation: ps(3)?,
        },
    })
}

fn features_from(v: &Value) -> Result<Features, String> {
    let arr = match field(v, "features")? {
        Value::Arr(items) if items.len() == NUM_FEATURES => items,
        _ => return Err(format!("field 'features' is not a {NUM_FEATURES}-element array")),
    };
    let mut vec = [0.0f64; NUM_FEATURES];
    for (i, item) in arr.iter().enumerate() {
        vec[i] = item.as_f64().ok_or_else(|| format!("features[{i}] is not a number"))?;
    }
    Ok(Features::from_vec(&vec))
}

fn decode_record(v: &Value, entries: &[CorpusEntry]) -> Result<(usize, TraceStudy), String> {
    let index = u64_field(v, "index")? as usize;
    if index >= entries.len() {
        return Err(format!("index {index} out of range ({} entries)", entries.len()));
    }
    let tools = field(v, "tools")?;
    let study = TraceStudy {
        entry: entries[index].clone(),
        measured_total: time_field(v, "measured_total_ps")?,
        measured_comm: time_field(v, "measured_comm_ps")?,
        events: u64_field(v, "events")? as usize,
        features: features_from(v)?,
        classification: classification_from(v)?,
        mfact: tool_from(tools, "mfact")?,
        packet: tool_from(tools, "packet")?,
        flow: tool_from(tools, "flow")?,
        pflow: tool_from(tools, "packet-flow")?,
    };
    Ok((index, study))
}

#[cfg(test)]
mod tests {
    use super::*;
    use masim_workloads::build_corpus;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A unique, clean scratch directory per test (std-only; no tempdir
    /// crate).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "masim-ckpt-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_same_study(a: &TraceStudy, b: &TraceStudy) {
        assert_eq!(a.measured_total, b.measured_total);
        assert_eq!(a.measured_comm, b.measured_comm);
        assert_eq!(a.events, b.events);
        assert_eq!(a.features, b.features);
        assert_eq!(a.classification.class, b.classification.class);
        assert_eq!(a.classification.bw_sensitivity, b.classification.bw_sensitivity);
        assert_eq!(a.classification.lat_sensitivity, b.classification.lat_sensitivity);
        assert_eq!(a.classification.base_total, b.classification.base_total);
        assert_eq!(a.classification.baseline, b.classification.baseline);
        for (x, y) in
            [(&a.mfact, &b.mfact), (&a.packet, &b.packet), (&a.flow, &b.flow), (&a.pflow, &b.pflow)]
        {
            assert_eq!(x.total, y.total);
            assert_eq!(x.comm, y.comm);
            assert_eq!(x.wall, y.wall);
            assert_eq!(x.failure, y.failure);
        }
    }

    /// A synthetic result exercising every failure variant and exact
    /// f64/u64 round-trips.
    fn synthetic_study(entry: &CorpusEntry) -> TraceStudy {
        TraceStudy {
            entry: entry.clone(),
            measured_total: Time::from_ps(123_456_789_012_345),
            measured_comm: Time::from_ps(987_654_321),
            events: 4242,
            features: Features::from_vec(&std::array::from_fn(|i| (i as f64) * 0.1 + 1e-3)),
            classification: Classification {
                class: AppClass::BandwidthBound,
                bw_sensitivity: 0.123_456_789,
                lat_sensitivity: -0.001_5,
                base_total: 1.75e-2,
                baseline: Counters {
                    wait: Time::from_ps(1),
                    latency: Time::from_ps(2),
                    bandwidth: Time::from_ps(u64::MAX),
                    computation: Time::from_ps(4),
                },
            },
            mfact: ToolRun::failed(
                ToolFailure::Deadlock { finished: 3, total: 16 },
                Duration::from_nanos(1_500),
            ),
            packet: ToolRun::failed(
                ToolFailure::BudgetExhausted { consumed: 2_000_001, budget: 2_000_000 },
                Duration::from_micros(12),
            ),
            flow: ToolRun::failed(
                ToolFailure::Panicked { message: "index out of bounds: \"quoted\"".into() },
                Duration::ZERO,
            ),
            pflow: ToolRun::ok(
                Time::from_ps(55_555),
                Time::from_ps(44_444),
                Duration::from_nanos(777),
            ),
        }
    }

    #[test]
    fn record_round_trips_every_failure_variant() {
        let entries = build_corpus(7);
        let mut t = synthetic_study(&entries[0]);
        // Cover the remaining variants too.
        t.packet = ToolRun::failed(
            ToolFailure::DeadlineExceeded {
                elapsed: Duration::from_nanos(999),
                deadline: Duration::ZERO,
            },
            Duration::from_nanos(999),
        );
        t.flow = ToolRun::failed(
            ToolFailure::ClockOverflow { now_ps: u64::MAX - 1, delay_ps: 17 },
            Duration::from_nanos(1),
        );
        t.mfact = ToolRun::failed(
            ToolFailure::InvalidConfig { reason: "unknown machine \"summit\"".into() },
            Duration::ZERO,
        );
        t.pflow = ToolRun::failed(
            ToolFailure::MemoryBudget { detail: "9 B resident > 8 B budget".into() },
            Duration::from_nanos(3),
        );
        for study in [&synthetic_study(&entries[0]), &t] {
            let line = encode_record(9, study).to_json();
            let (index, back) = decode_record(&parse(&line).unwrap(), &entries).unwrap();
            assert_eq!(index, 9);
            assert_same_study(study, &back);
        }
    }

    #[test]
    fn create_record_resume_recovers_results() {
        let dir = scratch("recover");
        let cfg = StudyConfig::default();
        let entries = build_corpus(cfg.seed);
        let t = synthetic_study(&entries[5]);
        {
            let mut ck = Checkpoint::create(&dir, &cfg, entries.len()).unwrap();
            ck.record(5, &t).unwrap();
        }
        let ck = Checkpoint::resume(&dir, &cfg, &entries).unwrap();
        assert_eq!(ck.completed().len(), 1);
        assert_same_study(&t, &ck.completed()[&5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let dir = scratch("torn");
        let cfg = StudyConfig::default();
        let entries = build_corpus(cfg.seed);
        let t = synthetic_study(&entries[2]);
        {
            let mut ck = Checkpoint::create(&dir, &cfg, entries.len()).unwrap();
            ck.record(2, &t).unwrap();
        }
        let path = dir.join(CHECKPOINT_FILE);
        // Simulate dying mid-append: a torn, unparseable tail.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"index\":3,\"measured_to");
        fs::write(&path, &text).unwrap();
        let ck = Checkpoint::resume(&dir, &cfg, &entries).unwrap();
        assert_eq!(ck.completed().len(), 1, "torn tail dropped, good record kept");

        // The same garbage in the *middle* of the journal is corruption.
        let good = encode_record(2, &t).to_json();
        let corrupt = format!(
            "{}\n{}\n{good}\n",
            header_value(&cfg, entries.len()).to_json(),
            "{\"index\":3,\"measured_to"
        );
        fs::write(&path, corrupt).unwrap();
        let err = Checkpoint::resume(&dir, &cfg, &entries).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { line: 2, .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A deadlock count past `u32::MAX` is corruption, not a silently
    /// truncated number on resume.
    #[test]
    fn deadlock_counts_wider_than_u32_are_corrupt() {
        let dir = scratch("u32");
        let cfg = StudyConfig::default();
        let entries = build_corpus(cfg.seed);
        let t = synthetic_study(&entries[2]);
        let good = encode_record(2, &t).to_json();
        let wide = good.replacen("\"finished\":3", "\"finished\":4294967296", 1);
        assert_ne!(wide, good);
        let journal = format!("{}\n{wide}\n{good}\n", header_value(&cfg, entries.len()).to_json());
        fs::write(dir.join(CHECKPOINT_FILE), journal).unwrap();
        let err = Checkpoint::resume(&dir, &cfg, &entries).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Corrupt { line: 2, reason } if reason.contains("finished")),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_mismatch_is_refused() {
        let dir = scratch("mismatch");
        let cfg = StudyConfig::default();
        let entries = build_corpus(cfg.seed);
        Checkpoint::create(&dir, &cfg, entries.len()).unwrap();
        let other = StudyConfig { seed: 8, ..cfg.clone() };
        let err = Checkpoint::resume(&dir, &other, &build_corpus(8)).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        let bad_budget = StudyConfig { packet_budget: 1, ..cfg };
        let err = Checkpoint::resume(&dir, &bad_budget, &entries).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
