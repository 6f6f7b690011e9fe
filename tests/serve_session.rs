//! End-to-end exercise of the study-as-a-service daemon: a real unix
//! socket, the length-prefixed protocol, the content-addressed result
//! cache, and the client that materializes responses as files.
//!
//! The contract under test is the ISSUE's acceptance criterion: a
//! socket-submitted study produces the same derived values as running
//! the session in-process (host wall-clock columns excepted), and an
//! identical resubmission is served from the cache **byte-identically**
//! with zero simulator invocations.

use masim_core::{Session, SessionSpec, StudyKind};
use masim_obs::json::Value;
use masim_obs::run::parse_json;
use masim_obs::MetricSet;
use masim_serve::{client, Bind, Server, ServerOptions, Target};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Indices of two debug-cheap corpus entries (the same pair the
/// checkpoint equivalence tests use).
const INDICES: [usize; 2] = [3, 40];

fn spec() -> SessionSpec {
    SessionSpec { kind: StudyKind::Corpus { indices: Some(INDICES.to_vec()) }, seed: 7 }
}

/// Zero the host wall-clock columns of a `study.csv` body — the ones
/// whose header ends in `_wall_s`; everything else is part of the
/// determinism contract and must match exactly.
fn normalize_study_csv(text: &str) -> String {
    let header = text.lines().next().unwrap_or_default();
    let wall: Vec<bool> = header.split(',').map(|h| h.ends_with("_wall_s")).collect();
    assert_eq!(wall.iter().filter(|w| **w).count(), 4, "one wall column per tool: {header}");
    let mut out = format!("{header}\n");
    for line in text.lines().skip(1) {
        let mut fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), wall.len(), "ragged row: {line}");
        for (f, _) in fields.iter_mut().zip(&wall).filter(|(_, w)| **w) {
            *f = "0";
        }
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("masim-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn socket_submission_matches_in_process_run_and_caches() {
    let root = scratch("session");
    let sock = root.join("repro.sock");
    // Two study workers in the daemon against the one-worker in-process
    // reference below: served ≡ one-shot holds across thread counts too.
    let server =
        Arc::new(Server::new(ServerOptions { threads: 2, cache_dir: Some(root.join("cache")) }));
    let daemon = {
        let server = server.clone();
        let sock = sock.clone();
        std::thread::spawn(move || server.serve(&[Bind::Unix(sock)]).expect("serve loop"))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {}", sock.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    let target = Target::Unix(sock.clone());

    // --- first submission: a cache miss that actually runs ---
    let out1 = root.join("out1");
    let s1 = client::submit(&target, spec(), &out1, true).expect("first submit");
    assert_eq!(s1.cache, "miss");
    assert_eq!(s1.total, INDICES.len() as u64);
    assert_eq!(s1.ran, INDICES.len() as u64, "a miss runs every entry");
    assert_eq!(s1.report_name, "study.csv");

    // The streamed report carries the same derived values as running
    // the session in-process (wall columns are host timing, excepted).
    let mut reference = Session::new(spec()).expect("reference session");
    let mut reference_sc = BTreeMap::new();
    reference
        .run(1, None, None, &MetricSet::new(), "reference", None, |_, stem, observed| {
            for rm in &observed.sidecars {
                reference_sc.insert(format!("{stem}_{}.json", rm.labels()["tool"]), rm.clone());
            }
        })
        .unwrap();
    let served = std::fs::read_to_string(out1.join("study.csv")).expect("served report");
    assert_eq!(normalize_study_csv(&served), normalize_study_csv(&reference.report()));

    // One JSON + one CSV sidecar per tool stage per entry, named by the
    // CLI's stems; each served JSON carries the reference's labels and
    // its exact metrics.
    let names: Vec<String> = std::fs::read_dir(out1.join("metrics"))
        .expect("metrics dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names.len(), INDICES.len() * 5 * 2, "sidecar files: {names:?}");
    assert!(names.iter().any(|n| n == "trace003_packet.json"), "{names:?}");
    assert!(names.iter().any(|n| n == "trace040_flow.csv"), "{names:?}");
    for (name, rm) in &reference_sc {
        let text = std::fs::read_to_string(out1.join("metrics").join(name)).expect(name);
        let served = parse_json(&text).expect(name);
        assert_eq!(&served.labels, rm.labels(), "{name}");
        assert_eq!(served.snapshot.deterministic(), rm.set().snapshot().deterministic(), "{name}");
    }
    assert_eq!(reference_sc.len() * 2, names.len());

    // --- second submission: identical spec, served from the cache ---
    let out2 = root.join("out2");
    let s2 = client::submit(&target, spec(), &out2, true).expect("second submit");
    assert_eq!(s2.cache, "hit");
    assert_eq!(s2.ran, 0, "a hit must not invoke a single simulator");
    let counters = server.metrics().snapshot().counters;
    assert_eq!(counters.get("serve.cache.hit"), Some(&1));
    assert_eq!(counters.get("serve.cache.miss"), Some(&1));

    // Replayed bytes are bit-identical to the first response — raw
    // comparison, no timing normalization needed.
    assert_eq!(
        std::fs::read(out1.join("study.csv")).unwrap(),
        std::fs::read(out2.join("study.csv")).unwrap(),
        "cached report must be byte-identical"
    );
    for name in &names {
        assert_eq!(
            std::fs::read(out1.join("metrics").join(name)).unwrap(),
            std::fs::read(out2.join("metrics").join(name)).unwrap(),
            "cached sidecar {name} must be byte-identical"
        );
    }

    // --- status sees both sessions; shutdown stops the accept loop ---
    let status = client::status(&target).expect("status");
    let sessions = match status.get("sessions") {
        Some(Value::Arr(items)) => items,
        other => panic!("status.sessions missing: {other:?}"),
    };
    assert_eq!(sessions.len(), 2, "{status:?}");
    for s in sessions {
        assert_eq!(s.get("state").and_then(Value::as_str), Some("complete"), "{s:?}");
        assert_eq!(s.get("done").and_then(Value::as_u64), Some(INDICES.len() as u64));
    }

    client::shutdown(&target).expect("shutdown ack");
    daemon.join().expect("daemon thread");
    assert!(!sock.exists(), "socket file must be removed on shutdown");
    let _ = std::fs::remove_dir_all(&root);
}
