//! End-to-end exercise of the study-as-a-service daemon: a real unix
//! socket, the length-prefixed protocol, the content-addressed per-trace
//! result store, and the client that materializes responses as files.
//!
//! The contract under test: a socket-submitted study produces the same
//! derived values as running the session in-process (host wall-clock
//! columns excepted), and a submission whose every entry is stored —
//! by an identical submission, a larger one, or a previous daemon on
//! the same `--cache-dir` — is served **byte-identically** with zero
//! simulator invocations.

use masim_core::{Session, SessionSpec, StudyKind};
use masim_obs::json::Value;
use masim_obs::run::parse_json;
use masim_obs::MetricSet;
use masim_serve::{client, Server, ServerOptions};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Indices of two debug-cheap corpus entries (the same pair the
/// resume equivalence tests use).
const INDICES: [usize; 2] = [3, 40];

fn spec() -> SessionSpec {
    subset(&INDICES)
}

fn subset(indices: &[usize]) -> SessionSpec {
    SessionSpec { kind: StudyKind::Corpus { indices: Some(indices.to_vec()) }, seed: 7 }
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

/// A daemon with two study workers, its store under `root/cache`,
/// listening on `root/repro.sock` once this returns.
fn start(root: &Path) -> (Arc<Server>, JoinHandle<()>, PathBuf) {
    let sock = root.join("repro.sock");
    let server = Server::new(ServerOptions { threads: 2, cache_dir: Some(root.join("cache")) });
    let server = Arc::new(server.expect("open the store"));
    let daemon = {
        let server = server.clone();
        let sock = sock.clone();
        std::thread::spawn(move || server.serve(&sock).expect("serve loop"))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {}", sock.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    (server, daemon, sock)
}

/// Every file under `dir` (one level of subdirectories), by relative
/// path, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for sub in ["", "metrics"] {
        for e in std::fs::read_dir(dir.join(sub)).expect("output dir") {
            let path = e.unwrap().path();
            if path.is_file() && !path.ends_with("response.json") {
                let name = path.strip_prefix(dir).unwrap().display().to_string();
                out.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

#[test]
fn socket_submission_matches_in_process_run_and_caches() {
    let root = scratch("session");
    // Two study workers in the daemon against the one-worker in-process
    // reference below: served ≡ one-shot holds across thread counts too.
    let (server, daemon, sock) = start(&root);

    // --- first submission: a cache miss that actually runs ---
    let out1 = root.join("out1");
    let s1 = client::submit(&sock, spec(), &out1, true).expect("first submit");
    assert_eq!(s1.cache, "miss");
    assert_eq!(s1.total, INDICES.len() as u64);
    assert_eq!(s1.ran, INDICES.len() as u64, "a miss runs every entry");
    assert_eq!(s1.report_name, "study.csv");

    // The streamed report carries the same derived values as running
    // the session in-process (wall columns are host timing, excepted).
    let mut reference = Session::new(spec()).expect("reference session");
    let mut reference_sc = BTreeMap::new();
    reference
        .run(1, None, None, &MetricSet::new(), None, |_, stem, observed| {
            for rm in &observed.sidecars {
                reference_sc.insert(format!("{stem}_{}.json", rm.labels()["tool"]), rm.clone());
            }
        })
        .unwrap();
    let served = std::fs::read_to_string(out1.join("study.csv")).expect("served report");
    assert_eq!(normalize_study_csv(&served), normalize_study_csv(&reference.report()));

    // One JSON sidecar per tool stage per entry, named by the CLI's
    // stems; each carries the reference's labels and its exact metrics.
    let names: Vec<String> = std::fs::read_dir(out1.join("metrics"))
        .expect("metrics dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names.len(), INDICES.len() * 5, "sidecar files: {names:?}");
    assert!(names.iter().all(|n| n.ends_with(".json")), "{names:?}");
    assert!(names.iter().any(|n| n == "trace003_packet.json"), "{names:?}");
    assert!(names.iter().any(|n| n == "trace040_flow.json"), "{names:?}");
    for (name, rm) in &reference_sc {
        let text = std::fs::read_to_string(out1.join("metrics").join(name)).expect(name);
        let served = parse_json(&text).expect(name);
        assert_eq!(&served.labels, rm.labels(), "{name}");
        assert_eq!(served.snapshot.deterministic(), rm.set().snapshot().deterministic(), "{name}");
    }
    assert_eq!(reference_sc.len(), names.len());

    // --- second submission: identical spec, served from the cache ---
    let out2 = root.join("out2");
    let s2 = client::submit(&sock, spec(), &out2, true).expect("second submit");
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
    let status = client::status(&sock).expect("status");
    let sessions = match status.get("sessions") {
        Some(Value::Arr(items)) => items,
        other => panic!("status.sessions missing: {other:?}"),
    };
    assert_eq!(sessions.len(), 2, "{status:?}");
    for s in sessions {
        assert_eq!(s.get("state").and_then(Value::as_str), Some("complete"), "{s:?}");
        assert_eq!(s.get("done").and_then(Value::as_u64), Some(INDICES.len() as u64));
    }

    client::shutdown(&sock).expect("shutdown ack");
    daemon.join().expect("daemon thread");
    assert!(!sock.exists(), "socket file must be removed on shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// The store is per trace: a submission that shares entries with an
/// earlier one replays them instead of running them, a subset of a
/// stored study is a hit, and a daemon restarted on the same
/// `--cache-dir` serves the whole study from disk — every replay
/// byte-identical to the run that stored it.
#[test]
fn stored_entries_are_hits_across_submissions_and_restarts() {
    let root = scratch("store");
    let (_, daemon, sock) = start(&root);
    let submit = |indices: &[usize], out: &str| {
        client::submit(&sock, subset(indices), &root.join(out), true).expect(out)
    };

    let first = submit(&[3], "first");
    assert_eq!((first.cache.as_str(), first.ran), ("miss", 1));
    // Entry 3 is stored: only entry 40 runs, and 3's sidecars replay.
    let both = submit(&INDICES, "both");
    assert_eq!((both.cache.as_str(), both.ran, both.total), ("miss", 1, 2));
    assert_eq!(files(&root.join("both")).len(), 1 + INDICES.len() * 5, "report + sidecars");
    let again = submit(&[3], "again");
    assert_eq!((again.cache.as_str(), again.ran), ("hit", 0), "a stored subset is a hit");
    assert_eq!(files(&root.join("first")), files(&root.join("again")));
    client::shutdown(&sock).expect("shutdown ack");
    daemon.join().expect("daemon thread");

    let (server, daemon, sock) = start(&root);
    let cold = client::submit(&sock, spec(), &root.join("restarted"), true).expect("restarted");
    assert_eq!((cold.cache.as_str(), cold.ran), ("hit", 0), "served from the store on disk");
    assert_eq!(files(&root.join("both")), files(&root.join("restarted")));
    assert_eq!(server.metrics().snapshot().counters.get("serve.cache.hit"), Some(&1));
    client::shutdown(&sock).expect("shutdown ack");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&root);
}

/// A fresh daemon on `path` in a thread: what it refuses to bind with.
/// One that binds instead never returns, which fails here.
fn refusal(path: &Path) -> std::io::Error {
    let server = Server::new(ServerOptions { threads: 1, cache_dir: None }).expect("memory store");
    let (tx, rx) = mpsc::channel();
    let owned = path.to_path_buf();
    std::thread::spawn(move || tx.send(server.serve(&owned)));
    let result = rx.recv_timeout(Duration::from_secs(10));
    result.expect("serve bound instead of refusing").expect_err("serve returned Ok")
}

/// `serve` takes over a socket path only when nobody answers on it: a
/// live daemon's socket is `AddrInUse` and that daemon keeps serving; a
/// regular file is an error and stays as it was; a stale socket file
/// (its daemon gone) is replaced.
#[test]
fn serve_replaces_only_a_stale_socket() {
    let root = scratch("claim");

    let (_, daemon, sock) = start(&root);
    let err = refusal(&sock);
    assert_eq!(err.kind(), ErrorKind::AddrInUse, "{err}");
    client::status(&sock).expect("the first daemon still answers");
    client::shutdown(&sock).expect("shutdown ack");
    daemon.join().expect("daemon thread");

    let file = root.join("notes.txt");
    std::fs::write(&file, "keep me").unwrap();
    let err = refusal(&file);
    assert!(err.to_string().contains("not a socket"), "{err}");
    assert_eq!(std::fs::read_to_string(&file).unwrap(), "keep me");

    let stale = root.join("stale.sock");
    drop(UnixListener::bind(&stale).unwrap());
    assert!(stale.exists(), "a dropped listener leaves its socket file");
    let server = Server::new(ServerOptions { threads: 1, cache_dir: None }).expect("memory store");
    let daemon = {
        let stale = stale.clone();
        std::thread::spawn(move || server.serve(&stale).expect("a stale socket is replaced"))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while client::status(&stale).is_err() {
        assert!(!daemon.is_finished(), "serve gave up on a stale socket");
        assert!(Instant::now() < deadline, "daemon never answered on {}", stale.display());
        std::thread::sleep(Duration::from_millis(10));
    }
    client::shutdown(&stale).expect("shutdown ack");
    daemon.join().expect("daemon thread");
    assert!(!stale.exists(), "socket file must be removed on shutdown");
    let _ = std::fs::remove_dir_all(&root);
}
