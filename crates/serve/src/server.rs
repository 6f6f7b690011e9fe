//! The `repro serve` daemon: accept loop, per-connection protocol
//! driver, session registry, and the store-or-run submit path.
//!
//! One [`Server`] owns the result [`Store`], the server-level [`MetricSet`]
//! (request counters, cache hit/miss counters, per-session wall spans)
//! and a registry of every session it has seen. Each accepted
//! connection gets its own handler thread; `submit` runs the study on
//! the work-stealing pool *inside* the handler, streaming `progress`
//! and `sidecar` frames as the ordered writer sequences each trace —
//! so a slow consumer backpressures its own session and nothing else.
//!
//! Shutdown is cooperative: the accept loop polls a flag between
//! non-blocking accepts, and `cancel` flips a per-session flag that the
//! session's ordered emit path observes (halting dispatch exactly like
//! an emit error).

use crate::protocol::{error_frame, read_frame, write_frame, Request, ServeError};
use masim_core::{
    Session, SessionError, SessionOutcome, SessionSpec, Sidecar, Store, StoreError,
    CODE_FINGERPRINT,
};
use masim_obs::json::Value;
use masim_obs::{lock, MetricSet};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counter: total requests, plus `serve.request.<op>` per operation.
pub const REQUESTS_COUNTER: &str = "serve.requests";
/// Counter: submits whose every entry was in the result store.
pub const CACHE_HIT_COUNTER: &str = "serve.cache.hit";
/// Counter: submits that had to run at least one entry.
pub const CACHE_MISS_COUNTER: &str = "serve.cache.miss";
/// Counter: sessions that reached the `complete` state.
pub const SESSIONS_COMPLETED_COUNTER: &str = "serve.sessions.completed";
/// Span: wall-clock of each executed (non-cached) session.
pub const SESSION_WALL_SPAN: &str = "serve.session.wall";

/// Construction knobs for [`Server`].
pub struct ServerOptions {
    /// Worker threads per running study.
    pub threads: usize,
    /// Directory of the result store's file (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
}

/// Lifecycle of one submitted session, as the registry tracks it.
#[derive(Debug)]
struct SessionEntry {
    id: String,
    key: String,
    cache: &'static str,
    total: usize,
    done: AtomicUsize,
    state: Mutex<&'static str>,
    cancel: AtomicBool,
}

/// The daemon: registry + store + metrics + shutdown flag. Shareable
/// across handler threads behind an [`Arc`].
pub struct Server {
    threads: usize,
    store: Arc<Store>,
    ms: MetricSet,
    sessions: Mutex<Vec<Arc<SessionEntry>>>,
    shutdown: AtomicBool,
    seq: AtomicU64,
}

impl Server {
    /// Build a daemon (no sockets yet; see [`Server::serve`]) over the
    /// store under `cache_dir` (opened, or started empty), or over an
    /// in-memory store without one.
    pub fn new(opts: ServerOptions) -> Result<Server, StoreError> {
        let store = match &opts.cache_dir {
            None => Store::default(),
            Some(dir) => Store::open(dir)?,
        };
        Ok(Server {
            threads: opts.threads.max(1),
            store: Arc::new(store),
            ms: MetricSet::new(),
            sessions: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        })
    }

    /// The server-level metric set (request counters, store hit/miss,
    /// per-session spans, plus the study runner's telemetry).
    pub fn metrics(&self) -> &MetricSet {
        &self.ms
    }

    /// Ask the accept loop to wind down after its current poll.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// True once shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Listen on the unix socket at `path` and serve until
    /// [`Server::request_shutdown`] (usually via a `shutdown` request).
    /// Each connection is handled on its own scoped thread; the socket
    /// file is removed on exit. A path a live daemon answers on is an
    /// `AddrInUse` error, and one that is not a socket is left alone.
    pub fn serve(&self, path: &Path) -> io::Result<()> {
        remove_stale_socket(path)?;
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            while !self.shutting_down() {
                // Nothing waiting (`WouldBlock`) and a failed accept both
                // leave the loop polling.
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        scope.spawn(move || self.handle_conn(&mut stream));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        });
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Drive one connection: read request frames until the peer closes,
    /// the stream faults, or a `shutdown` arrives. Framing faults that
    /// leave the stream unsynchronized (truncation, oversized prefixes)
    /// get one `error` frame and then the connection drops; a
    /// well-framed bad request is answered and the connection lives on.
    pub fn handle_conn<S: Read + Write>(&self, stream: &mut S) {
        loop {
            let value = match read_frame(stream) {
                Ok(v) => v,
                Err(ServeError::Closed) | Err(ServeError::Io(_)) => return,
                Err(e @ (ServeError::BadJson { .. } | ServeError::BadRequest { .. })) => {
                    // The frame boundary itself was intact: report and
                    // keep serving this peer.
                    if write_frame(stream, &error_frame(&e)).is_err() {
                        return;
                    }
                    continue;
                }
                Err(e) => {
                    // Truncated/oversized framing: the stream position
                    // is unknowable, so answer and hang up.
                    let _ = write_frame(stream, &error_frame(&e));
                    return;
                }
            };
            let req = match Request::from_value(&value) {
                Ok(r) => r,
                Err(e) => {
                    if write_frame(stream, &error_frame(&e)).is_err() {
                        return;
                    }
                    continue;
                }
            };
            self.ms.add(REQUESTS_COUNTER, 1);
            self.ms.add(&format!("serve.request.{}", req.op()), 1);
            let res = match req {
                Request::Submit(spec) => self.handle_submit(stream, spec),
                Request::Status => write_frame(stream, &self.status_frame()),
                Request::Cancel { session } => self.handle_cancel(stream, &session),
                Request::Shutdown => {
                    self.request_shutdown();
                    let _ = write_frame(stream, &ok_frame("shutdown"));
                    return;
                }
            };
            if res.is_err() {
                return; // transport gone; nothing more to say
            }
        }
    }

    /// `submit`: stream every stored entry's sidecars, then run the rest
    /// (if any) with streamed frames, then the report.
    fn handle_submit<S: Read + Write>(
        &self,
        stream: &mut S,
        spec: SessionSpec,
    ) -> Result<(), ServeError> {
        let t0 = Instant::now();
        let mut session = match Session::with_store(spec, self.store.clone()) {
            Ok(s) => s,
            Err(e) => {
                return write_frame(
                    stream,
                    &error_frame(&ServeError::BadRequest { reason: e.to_string() }),
                )
            }
        };
        let (corpus_fp, config_fp) = session.fingerprint();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let sid = format!("{seq:02x}{:04x}", (corpus_fp ^ config_fp) & 0xffff);
        let miss = session.done() < session.total();
        let cache_state = if miss { "miss" } else { "hit" };
        let entry = Arc::new(SessionEntry {
            id: sid.clone(),
            key: format!("{corpus_fp:016x}-{config_fp:016x}-{CODE_FINGERPRINT:016x}"),
            cache: cache_state,
            total: session.total(),
            done: AtomicUsize::new(0),
            state: Mutex::new("running"),
            cancel: AtomicBool::new(false),
        });
        lock(&self.sessions).push(entry.clone());
        write_frame(stream, &accepted_frame(&sid, cache_state, &entry.key, entry.total))?;
        self.ms.add(if miss { CACHE_MISS_COUNTER } else { CACHE_HIT_COUNTER }, 1);

        // Each entry's frames: a progress frame when the session runs
        // anything, then its sidecars' exact bytes.
        let emit = |stream: &mut S, stem: &str, sidecars: &[Sidecar]| -> Result<(), ServeError> {
            let done = entry.done.fetch_add(1, Ordering::Relaxed) + 1;
            if miss {
                write_frame(stream, &count_frame("progress", &sid, done, entry.total))?;
            }
            sidecars.iter().try_for_each(|sc| write_frame(stream, &sidecar_frame(stem, sc)))
        };
        let mut stream_err = session
            .records()
            .iter()
            .try_for_each(|(stem, r)| emit(stream, stem, &r.sidecars))
            .err();
        let mut ran = 0u64;
        let outcome = if miss && stream_err.is_none() {
            let span = self.ms.span(SESSION_WALL_SPAN);
            // The emit path runs strictly in corpus order, so frames stream
            // in the same order the one-shot CLI writes files.
            let outcome = session.run(
                self.threads,
                None,
                Some(&entry.cancel),
                &self.ms,
                Some(&sid),
                |_, stem, observed| {
                    if stream_err.is_some() {
                        return;
                    }
                    ran += 1;
                    let sidecars: Vec<Sidecar> =
                        observed.sidecars.iter().map(Sidecar::from).collect();
                    if let Err(e) = emit(stream, stem, &sidecars) {
                        // The consumer is gone: stop dispatching new work,
                        // let in-flight entries drain.
                        stream_err = Some(e);
                        entry.cancel.store(true, Ordering::Relaxed);
                    }
                },
            );
            span.stop();
            outcome
        } else {
            Ok(SessionOutcome::Complete)
        };
        if let Some(e) = stream_err {
            *lock(&entry.state) = "failed";
            return Err(e);
        }
        match outcome {
            Ok(SessionOutcome::Complete) => {
                *lock(&entry.state) = "complete";
                self.ms.add(SESSIONS_COMPLETED_COUNTER, 1);
                write_frame(
                    stream,
                    &report_frame(session.spec().report_name(), &session.report()),
                )?;
                write_frame(stream, &done_frame(&sid, cache_state, ran, t0.elapsed()))
            }
            // Invariant: `abort_after` is `None` above, so no run stops early.
            Ok(SessionOutcome::Interrupted { .. }) => unreachable!("submit never sets abort_after"),
            Err(SessionError::Canceled { done, total }) => {
                *lock(&entry.state) = "canceled";
                write_frame(stream, &count_frame("canceled", &sid, done, total))
            }
            Err(e) => {
                *lock(&entry.state) = "failed";
                write_frame(stream, &error_frame(&ServeError::BadRequest { reason: e.to_string() }))
            }
        }
    }

    /// `cancel`: flip the session's flag; its emit path does the rest.
    fn handle_cancel<S: Read + Write>(
        &self,
        stream: &mut S,
        session: &str,
    ) -> Result<(), ServeError> {
        let found = lock(&self.sessions).iter().find(|e| e.id == session).cloned();
        let Some(entry) = found else {
            return write_frame(
                stream,
                &error_frame(&ServeError::BadRequest {
                    reason: format!("unknown session {session:?}"),
                }),
            );
        };
        entry.cancel.store(true, Ordering::Relaxed);
        write_frame(stream, &ok_frame("cancel"))
    }

    /// The `status` response: every session + the `serve.*` counters.
    fn status_frame(&self) -> Value {
        let sessions = lock(&self.sessions)
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(e.id.clone())),
                    ("key".into(), Value::Str(e.key.clone())),
                    ("state".into(), Value::Str(lock(&e.state).to_string())),
                    ("cache".into(), Value::Str(e.cache.to_string())),
                    ("done".into(), Value::UInt(e.done.load(Ordering::Relaxed) as u64)),
                    ("total".into(), Value::UInt(e.total as u64)),
                ])
            })
            .collect();
        let mirror = self.store.path().map(|p| format!(", mirrored to {}", p.display()));
        let describe =
            format!("{} record(s) in memory{}", self.store.len(), mirror.unwrap_or_default());
        let snap = self.ms.snapshot();
        let counters = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("serve."))
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        Value::Obj(vec![
            ("frame".into(), Value::Str("status".into())),
            ("cache".into(), Value::Str(describe)),
            ("sessions".into(), Value::Arr(sessions)),
            ("counters".into(), Value::Obj(counters)),
        ])
    }
}

/// Clear the way for binding `path`: remove a previous daemon's socket
/// file only if nothing answers on it. A live daemon's socket is
/// `AddrInUse`, and any file that is not a socket is an error, kept.
fn remove_stale_socket(path: &Path) -> io::Result<()> {
    let meta = match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        meta => meta?,
    };
    if !meta.file_type().is_socket() {
        let msg = format!("{} exists and is not a socket", path.display());
        return Err(io::Error::new(io::ErrorKind::AlreadyExists, msg));
    }
    if UnixStream::connect(path).is_ok() {
        let msg = format!("{}: a daemon is already listening", path.display());
        return Err(io::Error::new(io::ErrorKind::AddrInUse, msg));
    }
    std::fs::remove_file(path)
}

// ---------------------------------------------------------------------
// Frame constructors
// ---------------------------------------------------------------------

fn frame(kind: &str, mut fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("frame".to_string(), Value::Str(kind.to_string()))];
    all.append(&mut fields);
    Value::Obj(all)
}

fn ok_frame(op: &str) -> Value {
    frame("ok", vec![("op".into(), Value::Str(op.into()))])
}

fn accepted_frame(sid: &str, cache: &str, key: &str, total: usize) -> Value {
    frame(
        "accepted",
        vec![
            ("session".into(), Value::Str(sid.into())),
            ("cache".into(), Value::Str(cache.into())),
            ("key".into(), Value::Str(key.into())),
            ("total".into(), Value::UInt(total as u64)),
        ],
    )
}

/// A `progress` or `canceled` frame: `done` of `total` entries.
fn count_frame(kind: &str, sid: &str, done: usize, total: usize) -> Value {
    frame(
        kind,
        vec![
            ("session".into(), Value::Str(sid.into())),
            ("done".into(), Value::UInt(done as u64)),
            ("total".into(), Value::UInt(total as u64)),
        ],
    )
}

fn sidecar_frame(stem: &str, sc: &Sidecar) -> Value {
    frame(
        "sidecar",
        vec![
            ("name".into(), Value::Str(format!("{stem}_{}", sc.tool))),
            ("json".into(), Value::Str(sc.json.clone())),
        ],
    )
}

fn report_frame(name: &str, text: &str) -> Value {
    frame(
        "report",
        vec![("name".into(), Value::Str(name.into())), ("text".into(), Value::Str(text.into()))],
    )
}

fn done_frame(sid: &str, cache: &str, ran: u64, wall: Duration) -> Value {
    frame(
        "done",
        vec![
            ("session".into(), Value::Str(sid.into())),
            ("cache".into(), Value::Str(cache.into())),
            ("ran".into(), Value::UInt(ran)),
            ("wall_ns".into(), Value::UInt(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX))),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use masim_core::StudyKind;

    /// Drive `handle_conn` over an in-memory socketpair without running
    /// any study: status, cancel of an unknown session, bad requests,
    /// and shutdown.
    #[test]
    fn control_plane_over_socketpair() {
        let server = Server::new(ServerOptions { threads: 1, cache_dir: None }).unwrap();
        let (mut a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        let t = std::thread::spawn(move || {
            let server = server;
            server.handle_conn(&mut b);
            server
        });
        write_frame(&mut a, &Request::Status.to_value()).unwrap();
        let status = read_frame(&mut a).unwrap();
        assert_eq!(status.get("frame").and_then(Value::as_str), Some("status"));
        assert_eq!(status.get("sessions"), Some(&Value::Arr(vec![])));

        write_frame(&mut a, &Request::Cancel { session: "nope".into() }.to_value()).unwrap();
        let err = read_frame(&mut a).unwrap();
        assert_eq!(err.get("frame").and_then(Value::as_str), Some("error"));
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("bad-request"));

        // A malformed but well-framed request keeps the connection.
        write_frame(&mut a, &Value::Arr(vec![Value::UInt(1)])).unwrap();
        let err = read_frame(&mut a).unwrap();
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("bad-request"));

        write_frame(&mut a, &Request::Shutdown.to_value()).unwrap();
        let ok = read_frame(&mut a).unwrap();
        assert_eq!(ok.get("frame").and_then(Value::as_str), Some("ok"));
        let server = t.join().unwrap();
        assert!(server.shutting_down());
        let counters = server.metrics().snapshot().counters;
        // Only parsed requests count: status, cancel, shutdown — the
        // malformed frame is rejected before metering.
        assert_eq!(counters.get(REQUESTS_COUNTER), Some(&3));
        assert_eq!(counters.get("serve.request.shutdown"), Some(&1));
    }

    /// An invalid spec is answered with a typed error frame, not a
    /// hung or dropped connection.
    #[test]
    fn invalid_submit_is_answered() {
        let server = Server::new(ServerOptions { threads: 1, cache_dir: None }).unwrap();
        let (mut a, mut b) = std::os::unix::net::UnixStream::pair().unwrap();
        let t = std::thread::spawn(move || {
            server.handle_conn(&mut b);
        });
        let spec = SessionSpec { kind: StudyKind::Corpus { indices: Some(vec![9, 3]) }, seed: 7 };
        write_frame(&mut a, &Request::Submit(spec).to_value()).unwrap();
        let err = read_frame(&mut a).unwrap();
        assert_eq!(err.get("frame").and_then(Value::as_str), Some("error"));
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("bad-request"));
        drop(a);
        t.join().unwrap();
    }
}
