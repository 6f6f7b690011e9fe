//! The study executor's determinism contract: `Session::run` — the one
//! path every study takes — produces, at any thread count, per-trace
//! predictions, per-tool sidecars, and result-store records that are
//! bit-identical to the plain sequential `Study::run_filtered`
//! reference loop. The only fields allowed to differ are host
//! wall-clock measurements (span nanoseconds, `wall_ns`), which are
//! nondeterministic between *any* two runs.

mod common;

use masim_core::{
    run_one_observed, Key, Session, SessionOutcome, SessionSpec, Store, Study, StudyConfig,
    StudyKind, TraceStudy, PARALLEL_WORKERS_GAUGE, STORE_FILE,
};
use masim_obs::{MetricSet, RunMetrics};
use masim_workloads::build_corpus;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const THREADS: [usize; 2] = [1, 4];

fn subset_spec(indices: &[usize]) -> SessionSpec {
    SessionSpec { kind: StudyKind::Corpus { indices: Some(indices.to_vec()) }, seed: 7 }
}

/// One `Session::run` call, collecting each emitted entry's index and
/// sidecars in emit order.
fn run(
    session: &mut Session,
    threads: usize,
    abort_after: Option<usize>,
    ms: &MetricSet,
) -> (SessionOutcome, Vec<(usize, Vec<RunMetrics>)>) {
    let mut emitted = Vec::new();
    let outcome = session
        .run(threads, abort_after, None, ms, None, |i, _, o| {
            emitted.push((i, o.sidecars.clone()));
        })
        .unwrap();
    (outcome, emitted)
}

/// A unique, clean scratch directory per test (std-only; no tempdir
/// crate).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "masim-par-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Everything deterministic about a trace result must match; tool
/// wall-clock is the one field measured live and excluded.
fn assert_same_predictions(a: &TraceStudy, b: &TraceStudy) {
    assert_eq!(a.entry.cfg.app, b.entry.cfg.app);
    assert_eq!(a.entry.cfg.ranks, b.entry.cfg.ranks);
    assert_eq!(a.measured_total, b.measured_total);
    assert_eq!(a.measured_comm, b.measured_comm);
    assert_eq!(a.events, b.events);
    assert_eq!(a.features, b.features);
    assert_eq!(a.classification.class, b.classification.class);
    for (x, y) in
        [(&a.mfact, &b.mfact), (&a.packet, &b.packet), (&a.flow, &b.flow), (&a.pflow, &b.pflow)]
    {
        assert_eq!(x.total, y.total);
        assert_eq!(x.comm, y.comm);
        assert_eq!(x.failure, y.failure);
    }
}

/// Sidecar equality modulo timing: labels are exact and so is every
/// counter, gauge, histogram and span count — `Snapshot::deterministic`
/// leaves out only the nanoseconds a span recorded.
fn assert_same_sidecars(a: &[RunMetrics], b: &[RunMetrics]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.labels(), y.labels());
        assert_eq!(
            x.set().snapshot().deterministic(),
            y.set().snapshot().deterministic(),
            "tool {:?}",
            x.labels().get("tool")
        );
    }
}

/// At 1 and at 4 threads the session produces the reference loop's
/// traces and sidecars, in the same order.
#[test]
fn session_bitwise_matches_reference_at_any_thread_count() {
    let cfg = StudyConfig::default();
    let entries = build_corpus(cfg.seed);
    let indices: Vec<usize> = (0..entries.len()).filter(|i| i % 47 == 3).collect(); // 5 entries
    let reference = Study::run_filtered(cfg.clone(), |i| indices.contains(&i));
    // `run_filtered` keeps only the measurements; its loop body yields
    // the reference sidecars.
    let reference_sc: Vec<Vec<RunMetrics>> =
        indices.iter().map(|&i| run_one_observed(&entries[i], &cfg).sidecars).collect();

    for threads in THREADS {
        let ms = MetricSet::new();
        let mut session = Session::new(subset_spec(&indices)).unwrap();
        let (outcome, emitted) = run(&mut session, threads, None, &ms);
        assert_eq!(outcome, SessionOutcome::Complete);

        let study = session.study();
        assert_eq!(reference.traces.len(), study.traces.len());
        for (a, b) in reference.traces.iter().zip(&study.traces) {
            assert_same_predictions(a, b);
        }
        // Sidecars arrive keyed by the same corpus indices, in the same
        // order, with identical non-timing content.
        assert_eq!(emitted.iter().map(|(i, _)| *i).collect::<Vec<_>>(), indices);
        for (a, (_, b)) in reference_sc.iter().zip(&emitted) {
            assert_same_sidecars(a, b);
        }
        // Runner telemetry landed on the study metric set, not the sidecars.
        let snap = ms.snapshot();
        assert_eq!(snap.gauges.get(PARALLEL_WORKERS_GAUGE), Some(&(threads as u64)));
        assert!(emitted.iter().flat_map(|(_, runs)| runs).all(|rm| !rm
            .set()
            .snapshot()
            .gauges
            .contains_key(PARALLEL_WORKERS_GAUGE)));
    }
}

/// Interrupt after 2 entries + resume, at 1 and at 4 threads, writes a
/// result store identical (modulo wall-clock fields) to the one the
/// reference loop's results produce, and the resumed studies agree
/// with the reference on every prediction.
#[test]
fn interrupt_resume_matches_reference_journal() {
    let cfg = StudyConfig::default();
    let entries = build_corpus(cfg.seed);
    let indices: Vec<usize> = (0..entries.len()).filter(|i| i % 59 == 2).collect(); // 4 entries
    assert!(indices.len() >= 3, "need enough entries to interrupt mid-run");
    let observed: Vec<_> = indices.iter().map(|&i| run_one_observed(&entries[i], &cfg)).collect();
    let journal = |dir: &Path| {
        let text = std::fs::read_to_string(dir.join(STORE_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(dir);
        text.lines().map(common::deterministic_record).collect::<Vec<_>>()
    };

    let ref_dir = scratch("ref");
    let store = Store::open(&ref_dir).unwrap();
    for (&i, o) in indices.iter().zip(&observed) {
        store.append(Key::new(&entries[i], &cfg), i, &o.study, &o.sidecars).unwrap();
    }
    drop(store);
    let ref_journal = journal(&ref_dir);

    for threads in THREADS {
        let dir = scratch(&format!("t{threads}"));
        let ms = MetricSet::new();
        // Interrupt after 2 fresh entries...
        let on_disk =
            || Session::with_store(subset_spec(&indices), Arc::new(Store::open(&dir).unwrap()));
        let mut first = on_disk().unwrap();
        let (outcome, emitted) = run(&mut first, threads, Some(2), &ms);
        assert_eq!(outcome, SessionOutcome::Interrupted { done: 2, total: indices.len() });
        assert_eq!(emitted.len(), 2);
        drop(first);
        // ...then resume to completion; only the remainder re-runs.
        let mut second = on_disk().unwrap();
        let (outcome, emitted) = run(&mut second, threads, None, &ms);
        assert_eq!(outcome, SessionOutcome::Complete);
        assert_eq!(emitted.len(), indices.len() - 2);

        for (a, b) in observed.iter().zip(&second.study().traces) {
            assert_same_predictions(&a.study, b);
        }
        drop(second);
        assert_eq!(
            ref_journal,
            journal(&dir),
            "threads={threads}: journals must be identical outside wall-clock fields"
        );
    }
}
