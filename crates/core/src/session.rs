//! Studies as resumable **sessions**: the library API behind both the
//! one-shot `repro` CLI and the `repro serve` daemon.
//!
//! A [`Session`] bundles everything one study request needs — the
//! [`SessionSpec`] (which corpus, which seed, which budgets), the
//! derived entry list, the set of completed per-trace results, an
//! optional result [`Store`], and a partial [`Session::report`] —
//! so callers hold *one* object across interruption, resumption,
//! cancellation, and streaming:
//!
//! * **Deterministic derivation.** A spec is tiny (kind + seed); the
//!   entry list and [`StudyConfig`] are derived from it, never shipped.
//!   That is what makes a spec safe to send over a socket and what
//!   makes two submissions of the same spec provably the same work.
//! * **Fingerprints.** Canonical encodings (FNV-1a 64) of each entry
//!   and of the config, with the code fingerprint, key the session's
//!   records in the [`Store`]: an entry whose key is there is done,
//!   whether a previous run of this session, an interrupted CLI run or
//!   another daemon submission put it there. [`Session::fingerprint`]
//!   hashes the whole selection the same way.
//! * **Cancellation.** [`Session::run`] polls an [`AtomicBool`] in the
//!   ordered emit path; flipping it halts dispatch exactly like an emit
//!   error does, so in-flight entries drain and the store stays
//!   well-formed.
//! * **One executor.** [`Session::run`] over `study::run_entries_parallel`
//!   is the only study executor: the one-shot CLI and the daemon both
//!   call it, with or without a store, at every thread count — so
//!   sidecars, store records, and reports are bit-identical between
//!   them (host wall-clock fields excepted, as everywhere).

use crate::report;
use crate::store::{Key, Record, Store, StoreError};
use crate::study::{run_entries_parallel, ObservedTrace, Study, StudyConfig, TraceStudy};
use masim_obs::{MetricSet, Progress};
use masim_workloads::{build_corpus, CorpusEntry};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which study a session runs. Everything else (entries, config, sidecar
/// stems, report shape) derives deterministically from this plus the
/// seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StudyKind {
    /// The Table I corpus study (`repro csv`/`all` shape): all 235
    /// entries, or the given subset of corpus indices (strictly
    /// increasing). Reports as the per-trace CSV.
    Corpus {
        /// Corpus indices to run; `None` = the whole corpus.
        indices: Option<Vec<usize>>,
    },
    /// The Table II heavyweights (unbudgeted config); `tiny` shrinks
    /// them to smoke-test scale. Reports as the Table II text.
    Table2 {
        /// Use the CI-scale entries instead of the paper-scale ones.
        tiny: bool,
    },
}

/// A complete, serializable description of one study request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    /// What to run.
    pub kind: StudyKind,
    /// Corpus/config seed (the CLI pins 7, the paper's).
    pub seed: u64,
}

impl SessionSpec {
    /// The study configuration this spec derives: budgeted defaults for
    /// the corpus study, the unbudgeted Table II config otherwise.
    pub fn config(&self) -> StudyConfig {
        match self.kind {
            StudyKind::Corpus { .. } => StudyConfig { seed: self.seed, ..StudyConfig::default() },
            StudyKind::Table2 { .. } => report::table2_config(self.seed),
        }
    }

    /// The full entry list this spec draws from (before any `indices`
    /// subsetting).
    pub fn entries(&self) -> Vec<CorpusEntry> {
        match &self.kind {
            StudyKind::Corpus { .. } => build_corpus(self.seed),
            StudyKind::Table2 { tiny: true } => report::table2_tiny_entries(self.seed),
            StudyKind::Table2 { tiny: false } => report::table2_entries(self.seed),
        }
    }

    /// Sidecar file stem for entry `index` — matching the one-shot CLI
    /// exactly (`trace{i:03}` for the corpus, `table2_{app}{ranks}` for
    /// Table II), so a served `--metrics` directory byte-diffs clean
    /// against a CLI-produced one.
    pub fn stem(&self, index: usize, entry: &CorpusEntry) -> String {
        match self.kind {
            StudyKind::Corpus { .. } => format!("trace{index:03}"),
            StudyKind::Table2 { .. } => format!("table2_{}", report::table2_stem(entry)),
        }
    }

    /// File name the session's report is conventionally written under.
    pub fn report_name(&self) -> &'static str {
        match self.kind {
            StudyKind::Corpus { .. } => "study.csv",
            StudyKind::Table2 { .. } => "table2.txt",
        }
    }

    /// Progress label for this spec's runs.
    pub fn label(&self) -> &'static str {
        match self.kind {
            StudyKind::Corpus { .. } => "study",
            StudyKind::Table2 { .. } => "table2",
        }
    }
}

/// Why a session could not be built or did not run to completion.
#[derive(Debug)]
pub enum SessionError {
    /// The spec does not describe a runnable study (bad indices, …).
    InvalidSpec {
        /// What was wrong with it.
        reason: String,
    },
    /// The cancel flag was observed; dispatch halted and in-flight
    /// entries drained. Completed work (and the store) is kept.
    Canceled {
        /// Requested entries with results when the run stopped.
        done: usize,
        /// Entries requested in total.
        total: usize,
    },
    /// The result store failed (create/open/append).
    Store(StoreError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidSpec { reason } => write!(f, "invalid session spec: {reason}"),
            SessionError::Canceled { done, total } => {
                write!(f, "session canceled after {done}/{total} entries")
            }
            SessionError::Store(e) => write!(f, "session store failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<StoreError> for SessionError {
    fn from(e: StoreError) -> SessionError {
        SessionError::Store(e)
    }
}

/// How a [`Session::run`] call ended (errors aside).
#[derive(Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Every requested entry has a result (fresh or recovered).
    Complete,
    /// `abort_after` stopped the run early; resume later from the same
    /// session (or its store).
    Interrupted {
        /// Requested entries with results so far.
        done: usize,
        /// Entries requested in total.
        total: usize,
    },
}

/// One study request as a long-lived, resumable object: spec + derived
/// corpus + completed results + optional store. See the module docs.
#[derive(Debug)]
pub struct Session {
    spec: SessionSpec,
    config: StudyConfig,
    entries: Vec<CorpusEntry>,
    /// Entry indices to run, in emit order.
    todo: Vec<usize>,
    completed: BTreeMap<usize, TraceStudy>,
    store: Option<Arc<Store>>,
}

impl Session {
    /// Build a session that keeps its results to itself (no store).
    pub fn new(spec: SessionSpec) -> Result<Session, SessionError> {
        let config = spec.config();
        let entries = spec.entries();
        let todo = match &spec.kind {
            StudyKind::Corpus { indices: Some(idx) } => {
                if idx.is_empty() {
                    return Err(SessionError::InvalidSpec {
                        reason: "empty corpus index list".into(),
                    });
                }
                for w in idx.windows(2) {
                    if w[1] <= w[0] {
                        return Err(SessionError::InvalidSpec {
                            reason: format!(
                                "corpus indices must be strictly increasing (got {} after {})",
                                w[1], w[0]
                            ),
                        });
                    }
                }
                if let Some(&bad) = idx.iter().find(|&&i| i >= entries.len()) {
                    return Err(SessionError::InvalidSpec {
                        reason: format!(
                            "corpus index {bad} out of range ({} entries)",
                            entries.len()
                        ),
                    });
                }
                idx.clone()
            }
            _ => (0..entries.len()).collect(),
        };
        Ok(Session { spec, config, entries, todo, completed: BTreeMap::new(), store: None })
    }

    /// Build a session over `store`: every requested entry whose key is
    /// stored counts as done, and [`Session::run`] stores each entry it
    /// runs.
    pub fn with_store(spec: SessionSpec, store: Arc<Store>) -> Result<Session, SessionError> {
        let mut session = Session::new(spec)?;
        for &i in &session.todo {
            let entry = &session.entries[i];
            let record = store.get(&Key::new(entry, &session.config));
            if let Some(study) = record.and_then(|r| r.study(entry)) {
                session.completed.insert(i, study);
            }
        }
        session.store = Some(store);
        Ok(session)
    }

    /// The spec this session was built from.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The derived study configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Number of entries this session will run in total.
    pub fn total(&self) -> usize {
        self.todo.len()
    }

    /// Requested entries that already have a result (recovered from the
    /// store or run by a previous [`Session::run`] call).
    pub fn done(&self) -> usize {
        self.todo.iter().filter(|i| self.completed.contains_key(i)).count()
    }

    /// The store's file, if this session's store has one.
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        self.store.as_ref()?.path().map(Path::to_path_buf)
    }

    /// Every completed entry's file stem and stored record, in `todo`
    /// order (empty without a store).
    pub fn records(&self) -> Vec<(String, Arc<Record>)> {
        let Some(store) = &self.store else { return Vec::new() };
        let stored = |&i: &usize| {
            let entry = &self.entries[i];
            let record = store.get(&Key::new(entry, &self.config))?;
            Some((self.spec.stem(i, entry), record))
        };
        self.todo.iter().filter(|i| self.completed.contains_key(i)).filter_map(stored).collect()
    }

    /// Content fingerprint `(corpus_hash, config_hash)`: FNV-1a 64 over
    /// the canonical encodings of the *selected* entries (index +
    /// generator knobs, floats by exact bit pattern) and of the study
    /// config. Any change to seed, subset or budgets changes a hash;
    /// two sessions with equal fingerprints run byte-identical studies.
    pub fn fingerprint(&self) -> (u64, u64) {
        let mut corpus = Fnv::new();
        for &i in &self.todo {
            corpus.write_u64(i as u64);
            write_entry(&mut corpus, &self.entries[i]);
        }
        (corpus.finish(), config_hash(&self.config))
    }

    /// Run every pending entry on the work-stealing pool, invoking
    /// `on_trace(index, stem, observed)` strictly in `todo` order as
    /// each result is sequenced and stored (this is where the CLI writes
    /// sidecars and the daemon streams frames). Entries already completed are
    /// skipped; `abort_after = Some(n)` dispatches only the first `n`
    /// pending entries (the deterministic interruption hook); `cancel`
    /// is polled in the emit path and halts dispatch when set.
    /// Progress lines carry the spec's [`SessionSpec::label`], tagged
    /// with `prefix` (a session id) when there is one.
    pub fn run(
        &mut self,
        threads: usize,
        abort_after: Option<usize>,
        cancel: Option<&AtomicBool>,
        study_ms: &MetricSet,
        prefix: Option<&str>,
        mut on_trace: impl FnMut(usize, &str, &ObservedTrace),
    ) -> Result<SessionOutcome, SessionError> {
        let pending: Vec<usize> =
            self.todo.iter().copied().filter(|i| !self.completed.contains_key(i)).collect();
        let interrupted = abort_after.is_some_and(|n| n < pending.len());
        let dispatch =
            if interrupted { &pending[..abort_after.unwrap_or(0)] } else { &pending[..] };
        let spec = &self.spec;
        let entries = &self.entries;
        let todo = &self.todo;
        let total = todo.len();
        let completed = &mut self.completed;
        let store = self.store.as_deref();
        let config = &self.config;
        run_entries_parallel(
            &self.config,
            entries,
            dispatch,
            threads,
            study_ms,
            |total, workers| {
                Progress::with_workers(spec.label(), total, workers)
                    .with_prefix(prefix.unwrap_or(""))
            },
            |i, observed| -> Result<(), SessionError> {
                if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    let done = todo.iter().filter(|j| completed.contains_key(j)).count();
                    return Err(SessionError::Canceled { done, total });
                }
                if let Some(store) = store {
                    let key = Key::new(&entries[i], config);
                    store.append(key, i, &observed.study, &observed.sidecars)?;
                }
                completed.insert(i, observed.study.clone());
                on_trace(i, &spec.stem(i, &entries[i]), &observed);
                Ok(())
            },
        )?;
        if interrupted {
            return Ok(SessionOutcome::Interrupted { done: self.done(), total });
        }
        Ok(SessionOutcome::Complete)
    }

    /// The completed results as a [`Study`], in `todo` order. Partial
    /// while the session is interrupted or canceled: only completed
    /// entries appear.
    pub fn study(&self) -> Study {
        let traces =
            self.todo.iter().filter_map(|i| self.completed.get(i)).cloned().collect::<Vec<_>>();
        Study { traces, config: self.config.clone() }
    }

    /// Render this session's report (Table II text or the per-trace
    /// CSV) from whatever has completed so far — callable mid-run for a
    /// partial report, bit-stable once complete.
    pub fn report(&self) -> String {
        let study = self.study();
        match self.spec.kind {
            StudyKind::Corpus { .. } => report::study_csv(&study),
            StudyKind::Table2 { .. } => report::table2_text(&study.traces),
        }
    }
}

// ---------------------------------------------------------------------
// Canonical fingerprint encoding
// ---------------------------------------------------------------------

/// FNV-1a, 64-bit: tiny, dependency-free, stable across platforms — all
/// a content address needs (the store tolerates collisions no worse
/// than any content-addressed store; 64 bits over a few thousand
/// entries is comfortable).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        // Length-prefixed so concatenated fields can't alias.
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one corpus entry's canonical encoding.
pub(crate) fn entry_hash(e: &CorpusEntry) -> u64 {
    let mut h = Fnv::new();
    write_entry(&mut h, e);
    h.finish()
}

/// FNV-1a of a study configuration's canonical encoding. The
/// destructuring is exhaustive, so a new field must be hashed (or
/// explicitly ignored) before this compiles.
pub(crate) fn config_hash(cfg: &StudyConfig) -> u64 {
    let StudyConfig { seed, packet_budget, flow_budget, pflow_budget } = cfg;
    let mut h = Fnv::new();
    for v in [seed, packet_budget, flow_budget, pflow_budget] {
        h.write_u64(*v);
    }
    h.finish()
}

fn write_entry(h: &mut Fnv, e: &CorpusEntry) {
    let c = &e.cfg;
    h.write_str(c.app.name());
    h.write_u64(u64::from(c.ranks));
    h.write_u64(u64::from(c.ranks_per_node));
    h.write_str(&c.machine);
    h.write_u64(c.gbps.to_bits());
    h.write_u64(c.latency.as_ps());
    h.write_u64(u64::from(c.size));
    h.write_u64(u64::from(c.iters));
    h.write_u64(c.comm_fraction.to_bits());
    h.write_u64(c.imbalance.to_bits());
    h.write_u64(c.seed);
    h.write_u64(e.rank_bucket as u64);
    h.write_u64(e.comm_bucket as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::AtomicUsize;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "masim-session-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn subset_spec() -> SessionSpec {
        SessionSpec { kind: StudyKind::Corpus { indices: Some(vec![3, 40]) }, seed: 7 }
    }

    #[test]
    fn invalid_indices_are_refused() {
        for (idx, needle) in [
            (vec![], "empty"),
            (vec![1, 1], "strictly increasing"),
            (vec![5, 2], "strictly increasing"),
            (vec![100_000], "out of range"),
        ] {
            let spec = SessionSpec { kind: StudyKind::Corpus { indices: Some(idx) }, seed: 7 };
            let err = Session::new(spec).unwrap_err();
            let SessionError::InvalidSpec { reason } = &err else { panic!("{err}") };
            assert!(reason.contains(needle), "{reason:?} missing {needle:?}");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let fp = |spec: SessionSpec| Session::new(spec).unwrap().fingerprint();
        let base = fp(subset_spec());
        assert_eq!(base, fp(subset_spec()), "same spec, same fingerprint");
        // Different subset: corpus hash moves, config hash doesn't.
        let other =
            fp(SessionSpec { kind: StudyKind::Corpus { indices: Some(vec![3, 41]) }, seed: 7 });
        assert_ne!(base.0, other.0);
        assert_eq!(base.1, other.1);
        // Different seed: both move (entries and config derive from it).
        let seeded =
            fp(SessionSpec { kind: StudyKind::Corpus { indices: Some(vec![3, 40]) }, seed: 8 });
        assert_ne!(base.0, seeded.0);
        assert_ne!(base.1, seeded.1);
        // Table II runs unbudgeted: config hash differs from the corpus
        // study's even at the same seed.
        let t2 = fp(SessionSpec { kind: StudyKind::Table2 { tiny: true }, seed: 7 });
        assert_ne!(base.1, t2.1);
        // tiny vs full Table II differ in the corpus hash.
        let t2full = fp(SessionSpec { kind: StudyKind::Table2 { tiny: false }, seed: 7 });
        assert_ne!(t2.0, t2full.0);
    }

    /// Every `StudyConfig` field reaches the store key: moving any one of
    /// the four moves the `Key`, so no two configs share records.
    #[test]
    fn every_config_field_moves_the_key() {
        let entry = &build_corpus(7)[3];
        let base = StudyConfig::default();
        let key = Key::new(entry, &base);
        for (field, cfg) in [
            ("seed", StudyConfig { seed: base.seed + 1, ..base.clone() }),
            (
                "packet_budget",
                StudyConfig { packet_budget: base.packet_budget + 1, ..base.clone() },
            ),
            ("flow_budget", StudyConfig { flow_budget: base.flow_budget + 1, ..base.clone() }),
            ("pflow_budget", StudyConfig { pflow_budget: base.pflow_budget - 1, ..base.clone() }),
        ] {
            assert_ne!(Key::new(entry, &cfg), key, "{field} does not move the key");
        }
    }

    #[test]
    fn preset_cancel_halts_before_any_result() {
        let mut s = Session::new(subset_spec()).unwrap();
        let cancel = AtomicBool::new(true);
        let err = s
            .run(2, None, Some(&cancel), &MetricSet::new(), Some("aa0001"), |_, _, _| {})
            .unwrap_err();
        assert!(matches!(err, SessionError::Canceled { done: 0, total: 2 }), "{err}");
        assert_eq!(s.done(), 0, "cancel lands before the first record");
        assert!(s.report().lines().count() >= 1, "partial report still renders");
    }

    /// Interrupt + resume through a stored session reproduces the
    /// uninterrupted `Study::run_filtered` reference in everything the
    /// study *derives* (wall clocks are re-measured vs recovered), and
    /// `stem()` matches the CLI naming.
    #[test]
    fn interrupted_session_resumes_to_reference() {
        let dir = scratch("resume");
        let reference = Study::run_filtered(StudyConfig::default(), |i| [3usize, 40].contains(&i));

        let on_disk = || Session::with_store(subset_spec(), Arc::new(Store::open(&dir).unwrap()));
        let mut first = on_disk().unwrap();
        assert_eq!((first.done(), first.total()), (0, 2));
        let mut stems = Vec::new();
        let outcome = first
            .run(2, Some(1), None, &MetricSet::new(), None, |_, stem, _| {
                stems.push(stem.to_string());
            })
            .unwrap();
        assert_eq!(outcome, SessionOutcome::Interrupted { done: 1, total: 2 });
        assert_eq!(stems, ["trace003"]);
        drop(first);

        let mut second = on_disk().unwrap();
        assert_eq!(second.done(), 1, "store recovered into the session");
        let outcome = second
            .run(2, None, None, &MetricSet::new(), None, |_, stem, _| {
                stems.push(stem.to_string());
            })
            .unwrap();
        assert_eq!(outcome, SessionOutcome::Complete);
        assert_eq!(stems, ["trace003", "trace040"], "only the remaining entry ran");

        let study = second.study();
        assert_eq!(study.traces.len(), reference.traces.len());
        for (a, b) in reference.traces.iter().zip(&study.traces) {
            assert_eq!(a.measured_total, b.measured_total);
            assert_eq!(a.features, b.features);
            for (x, y) in [
                (&a.mfact, &b.mfact),
                (&a.packet, &b.packet),
                (&a.flow, &b.flow),
                (&a.pflow, &b.pflow),
            ] {
                assert_eq!(x.total, y.total);
                assert_eq!(x.comm, y.comm);
                assert_eq!(x.failure, y.failure);
            }
            assert_eq!(a.classification.class, b.classification.class);
        }
        assert_eq!(reference.failure_census(), study.failure_census());
        let _ = fs::remove_dir_all(&dir);
    }
}
