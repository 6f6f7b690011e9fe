//! The per-trace result store: every finished trace once, in one
//! append-only JSONL file or in memory only. It is both `repro
//! --checkpoint`'s journal and the daemon's cache.
//!
//! A line is one record, `{"key":…,"study":…,"sidecars":[{"tool":…,
//! "json":…}]}`. The key `<entry>-<config>-<code>` (16 hex digits each)
//! is the FNV-1a of the corpus entry's and the study configuration's
//! canonical encodings, plus [`CODE_FINGERPRINT`]: a record is a hit only
//! for the same entry, seed and budgets, under code with the
//! same output, so configurations can share a file and never mix.
//! `study` holds what the tools measured (typed failures included; the
//! caller re-attaches the entry), `sidecars` each stage's exact JSON.
//!
//! Opening reads every line; a directory without a store gets an empty
//! one, so opening is also how a store starts. A line under another
//! code fingerprint is stale and skipped without decoding its body. A
//! final line that does not decode is a torn write: it is dropped and
//! cut from the file. Any other line that does not decode is
//! [`StoreError::Corrupt`], since re-running over it could mask a
//! failing disk or a tampered file.

use crate::session::{config_hash, entry_hash};
use crate::study::{StudyConfig, TraceStudy};
use masim_obs::json::{parse, Value};
use masim_obs::RunMetrics;
use masim_workloads::CorpusEntry;
use std::collections::HashMap;
use std::ffi::OsStr;
use std::fmt;
use std::fs;
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The store's file name inside its directory.
pub const STORE_FILE: &str = "study.ckpt.jsonl";

/// Fingerprint of this build's output, the third part of every key.
/// `code_fingerprint_is_pinned` (`tests/route_equivalence.rs`) fails
/// until it is the FNV-1a of both goldens and the tiny Table II's
/// records, so changing any prediction, record field or sidecar metric
/// moves every key.
pub const CODE_FINGERPRINT: u64 = 0x8be7_12eb_26cc_0c5e;

/// Why the store could not be opened or extended.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (create, read, append, flush).
    Io(std::io::Error),
    /// A current line other than the final one failed to parse or decode.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "result store I/O error: {e}"),
            StoreError::Corrupt { line, reason } => {
                write!(f, "result store corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// The content address of one trace's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Key {
    /// FNV-1a over the corpus entry's canonical encoding.
    entry: u64,
    /// FNV-1a over the study configuration's canonical encoding.
    config: u64,
    /// The code fingerprint the result was produced under.
    code: u64,
}

impl Key {
    /// The key of `entry` run under `cfg` by this build.
    pub fn new(entry: &CorpusEntry, cfg: &StudyConfig) -> Key {
        Key { entry: entry_hash(entry), config: config_hash(cfg), code: CODE_FINGERPRINT }
    }

    /// `<entry>-<config>-<code>`, 16 hex digits each.
    fn id(&self) -> String {
        format!("{:016x}-{:016x}-{:016x}", self.entry, self.config, self.code)
    }

    fn parse(id: &str) -> Option<Key> {
        let mut parts =
            id.split('-').map(|p| u64::from_str_radix(p, 16).ok().filter(|_| p.len() == 16));
        let key = Key { entry: parts.next()??, config: parts.next()??, code: parts.next()?? };
        parts.next().is_none().then_some(key)
    }
}

/// One stage's sidecar: its `tool` label and its exact JSON bytes.
#[derive(Debug)]
pub struct Sidecar {
    /// The `tool` label (`corpus`, `mfact`, …): one plain file name
    /// component, so `<stem>_<tool>.json` stays inside its directory.
    pub tool: String,
    /// The sidecar's JSON body, byte-exact.
    pub json: String,
}

impl From<&RunMetrics> for Sidecar {
    fn from(rm: &RunMetrics) -> Sidecar {
        let tool = rm.labels().get("tool").cloned().unwrap_or_else(|| "run".into());
        Sidecar { tool, json: rm.to_json() }
    }
}

/// One stored result: its `study` body as JSON text, decoded against an
/// entry on demand, and its sidecars.
#[derive(Debug)]
pub struct Record {
    study: String,
    /// Every stage's sidecar, in emit order.
    pub sidecars: Vec<Sidecar>,
}

impl Record {
    /// The result as a [`TraceStudy`] of `entry` (`None` only if the body
    /// no longer decodes, which [`Store::open`] already refused).
    pub(crate) fn study(&self, entry: &CorpusEntry) -> Option<TraceStudy> {
        let body = parse(&self.study).ok()?;
        TraceStudy::from_value(&body, Some(entry)).ok().flatten()
    }
}

#[derive(Debug, Default)]
struct Inner {
    file: Option<fs::File>,
    records: HashMap<Key, Arc<Record>>,
}

/// The store: records by key, mirrored to [`STORE_FILE`] when it has a
/// directory (`Store::default()` lives in memory only). Shareable across
/// threads; appends are whole lines.
#[derive(Debug, Default)]
pub struct Store {
    path: Option<PathBuf>,
    inner: Mutex<Inner>,
}

impl Store {
    /// Open the store in `dir`, creating the directory and an empty file
    /// when missing, and recover its current records (see the module
    /// docs). A later line wins over an earlier one with its key.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(STORE_FILE);
        let text = match fs::read_to_string(&path) {
            Err(e) if e.kind() == ErrorKind::NotFound => String::new(),
            read => read?,
        };
        let mut records = HashMap::new();
        let (mut kept, mut at) = (0, 0);
        let mut lines = text.split_inclusive('\n').enumerate().peekable();
        while let Some((n, line)) = lines.next() {
            at += line.len();
            let line = line.trim_end();
            if !line.is_empty() && !stale(line) {
                match parse(line).map_err(|e| e.to_string()).and_then(|v| decode(&v)) {
                    Ok((key, record)) => drop(records.insert(key, Arc::new(record))),
                    Err(_) if lines.peek().is_none() => break,
                    Err(reason) => return Err(StoreError::Corrupt { line: n + 1, reason }),
                }
            }
            kept = at;
        }
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&path)?;
        // Cut a torn tail, and end the last kept line, so the next record
        // starts on a line of its own.
        file.set_len(kept as u64)?;
        if !text[..kept].ends_with('\n') && kept > 0 {
            file.write_all(b"\n")?;
        }
        Ok(Store { path: Some(path), inner: Mutex::new(Inner { file: Some(file), records }) })
    }

    /// The record stored under `key`, if any.
    pub(crate) fn get(&self, key: &Key) -> Option<Arc<Record>> {
        self.inner().records.get(key).cloned()
    }

    /// Store `study` (entry `index` of its study) and its `sidecars`
    /// under `key`, appending one flushed line to the file first.
    pub fn append(
        &self,
        key: Key,
        index: usize,
        study: &TraceStudy,
        sidecars: &[RunMetrics],
    ) -> Result<(), StoreError> {
        let record = Record {
            study: study.to_value(index).to_json(),
            sidecars: sidecars.iter().map(Sidecar::from).collect(),
        };
        let mut inner = self.inner();
        if let Some(file) = inner.file.as_mut() {
            let sidecars = record.sidecars.iter().map(|s| {
                let (tool, json) = (Value::Str(s.tool.clone()), Value::Str(s.json.clone()));
                Value::Obj(vec![("tool".into(), tool), ("json".into(), json)])
            });
            let sidecars = Value::Arr(sidecars.collect()).to_json();
            // The key leads the line: `stale` reads it from this prefix.
            let (id, study) = (key.id(), &record.study);
            let line = format!("{{\"key\":\"{id}\",\"study\":{study},\"sidecars\":{sidecars}}}\n");
            file.write_all(line.as_bytes())?;
            file.flush()?;
        }
        inner.records.insert(key, Arc::new(record));
        Ok(())
    }

    /// The file the store mirrors to, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of distinct keys held.
    pub fn len(&self) -> usize {
        self.inner().records.len()
    }

    /// True when no record is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        // Every update is one insert or one whole-line write, so a panic
        // elsewhere cannot leave the guarded state half-changed.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A line written under another code fingerprint, told by its key alone.
fn stale(line: &str) -> bool {
    let id = line.strip_prefix("{\"key\":\"").and_then(|rest| rest.get(..50));
    id.and_then(Key::parse).is_some_and(|k| k.code != CODE_FINGERPRINT)
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Value::as_str).ok_or_else(|| format!("field '{key}' is not a string"))
}

fn sidecar_from(v: &Value) -> Result<Sidecar, String> {
    let tool = text(v, "tool")?;
    if Path::new(tool).file_name() != Some(OsStr::new(tool)) {
        return Err(format!("sidecar tool {tool:?} is not a plain file name"));
    }
    Ok(Sidecar { tool: tool.to_string(), json: text(v, "json")?.to_string() })
}

/// A record line's key and record, its study body checked.
fn decode(v: &Value) -> Result<(Key, Record), String> {
    let key = text(v, "key")?;
    let key = Key::parse(key).ok_or_else(|| format!("malformed key {key:?}"))?;
    let study = v.get("study").ok_or("missing field 'study'")?;
    TraceStudy::from_value(study, None)?;
    let Some(Value::Arr(sidecars)) = v.get("sidecars") else {
        return Err("field 'sidecars' is not an array".into());
    };
    let sidecars = sidecars.iter().map(sidecar_from).collect::<Result<_, _>>()?;
    Ok((key, Record { study: study.to_json(), sidecars }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, SessionSpec, StudyKind};
    use crate::study::{ToolFailure, ToolRun};
    use masim_mfact::{AppClass, Classification, Counters};
    use masim_obs::MetricSet;
    use masim_trace::{Features, Time};
    use masim_workloads::build_corpus;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A unique, clean scratch directory per test (std-only; no tempdir
    /// crate).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "masim-store-{}-{}-{tag}",
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

    /// `entries[i]`'s synthetic study, stored in a fresh store in `dir`;
    /// returns the store's text.
    fn stored_text(dir: &Path, entries: &[CorpusEntry], i: usize) -> String {
        let store = Store::open(dir).unwrap();
        let key = Key::new(&entries[i], &StudyConfig::default());
        store.append(key, i, &synthetic_study(&entries[i]), &[]).unwrap();
        fs::read_to_string(dir.join(STORE_FILE)).unwrap()
    }

    #[test]
    fn record_round_trips_every_failure_variant() {
        let entries = build_corpus(7);
        let mut t = synthetic_study(&entries[0]);
        // Cover the remaining variants too.
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
        let key = Key::new(&entries[0], &StudyConfig::default());
        for study in [&synthetic_study(&entries[0]), &t] {
            let line = Value::Obj(vec![
                ("key".into(), Value::Str(key.id())),
                ("study".into(), study.to_value(9)),
                ("sidecars".into(), Value::Arr(vec![])),
            ]);
            let (back_key, back) = decode(&parse(&line.to_json()).unwrap()).unwrap();
            assert_eq!(back_key, key);
            assert_same_study(study, &back.study(&entries[0]).unwrap());
        }
    }

    #[test]
    fn open_append_reopen_recovers_results() {
        let dir = scratch("recover").join("missing");
        let entries = build_corpus(7);
        let t = synthetic_study(&entries[5]);
        stored_text(&dir, &entries, 5);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        let key = Key::new(&entries[5], &StudyConfig::default());
        assert_same_study(&t, &store.get(&key).unwrap().study(&entries[5]).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let dir = scratch("torn");
        let entries = build_corpus(7);
        let good = stored_text(&dir, &entries, 2);
        let path = dir.join(STORE_FILE);
        // Simulate dying mid-append: a torn, unparseable tail.
        let torn = format!("{{\"key\":\"{}\",\"study\":{{\"ind", "0".repeat(16));
        fs::write(&path, format!("{good}{torn}")).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "torn tail dropped, good record kept");
        assert_eq!(fs::read_to_string(&path).unwrap(), good, "torn tail cut from the file");

        // The same garbage in the *middle* of the store is corruption.
        fs::write(&path, format!("{good}{torn}\n{good}")).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { line: 2, .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record appended after a torn tail (a fragment, or a whole record
    /// whose newline was lost) lands on a line of its own, so the store
    /// stays readable.
    #[test]
    fn append_after_a_torn_tail_stays_readable() {
        let dir = scratch("torn-append");
        let entries = build_corpus(7);
        let good = stored_text(&dir, &entries, 2);
        for tail in [format!("{good}{{\"key\":"), good.trim_end().to_string()] {
            fs::write(dir.join(STORE_FILE), tail).unwrap();
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.len(), 1);
            let key = Key::new(&entries[4], &StudyConfig::default());
            store.append(key, 4, &synthetic_study(&entries[4]), &[]).unwrap();
            drop(store);
            assert_eq!(Store::open(&dir).unwrap().len(), 2);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A deadlock count past `u32::MAX` is corruption, not a silently
    /// truncated number on reopen.
    #[test]
    fn deadlock_counts_wider_than_u32_are_corrupt() {
        let dir = scratch("u32");
        let entries = build_corpus(7);
        let good = stored_text(&dir, &entries, 2);
        let wide = good.replacen("\"finished\":3", "\"finished\":4294967296", 1);
        assert_ne!(wide, good);
        fs::write(dir.join(STORE_FILE), format!("{wide}{good}")).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { line: 1, reason } if reason.contains("finished")),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A line under another code fingerprint is skipped without being
    /// decoded, whatever its body; its key never matches this build's.
    #[test]
    fn stale_fingerprints_are_skipped_unread() {
        let dir = scratch("stale");
        let entries = build_corpus(7);
        let good = stored_text(&dir, &entries, 2);
        let key = Key::new(&entries[2], &StudyConfig::default());
        let old = Key { code: CODE_FINGERPRINT ^ 1, ..key };
        let stale = good.replacen(&key.id(), &old.id(), 1);
        let garbage = format!("{{\"key\":\"{}\",\"study\":!!not json\n", old.id());
        fs::write(dir.join(STORE_FILE), format!("{stale}{garbage}{good}")).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.get(&key).is_some() && store.get(&old).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every key carries the configuration, so resuming under another one
    /// recovers nothing and runs exactly what a fresh session runs.
    #[test]
    fn resume_under_another_config_recovers_nothing() {
        let dir = scratch("config");
        let spec = |seed| SessionSpec { kind: StudyKind::Corpus { indices: Some(vec![3]) }, seed };
        let on_disk = |spec| Session::with_store(spec, Arc::new(Store::open(&dir).unwrap()));
        let mut first = on_disk(spec(7)).unwrap();
        first.run(1, None, None, &MetricSet::new(), None, |_, _, _| {}).unwrap();
        drop(first);
        let entries = build_corpus(7);
        let budgeted = StudyConfig { packet_budget: 1, ..StudyConfig::default() };
        let store = Store::open(&dir).unwrap();
        assert!(store.get(&Key::new(&entries[3], &StudyConfig::default())).is_some());
        assert!(store.get(&Key::new(&entries[3], &budgeted)).is_none(), "budget is in the key");

        let mut resumed = on_disk(spec(8)).unwrap();
        assert_eq!(resumed.done(), 0, "a seed-7 record is no seed-8 hit");
        let mut fresh = Session::new(spec(8)).unwrap();
        for s in [&mut resumed, &mut fresh] {
            s.run(1, None, None, &MetricSet::new(), None, |_, _, _| {}).unwrap();
        }
        let (a, b) = (&resumed.study().traces[0], &fresh.study().traces[0]);
        assert_eq!(a.measured_total, b.measured_total);
        assert_eq!(a.features, b.features);
        for (x, y) in [(&a.mfact, &b.mfact), (&a.packet, &b.packet), (&a.pflow, &b.pflow)] {
            assert_eq!((x.total, x.comm, &x.failure), (y.total, y.comm, &y.failure));
        }
        assert_eq!(Store::open(&dir).unwrap().len(), 2, "both seeds' records kept apart");
        let _ = fs::remove_dir_all(&dir);
    }
}
