//! The `repro serve` daemon: accept loop, per-connection protocol
//! driver, session registry, and the cache-or-run submit path.
//!
//! One [`Server`] owns the result cache, the server-level [`MetricSet`]
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

use crate::cache::{CacheKey, CachedSidecar, CachedStudy, ResultCache};
use crate::protocol::{error_frame, read_frame, write_frame, Request, ServeError};
use masim_core::session::{Session, SessionError, SessionOutcome, SessionSpec};
use masim_obs::json::Value;
use masim_obs::MetricSet;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counter: total requests, plus `serve.request.<op>` per operation.
pub const REQUESTS_COUNTER: &str = "serve.requests";
/// Counter: submits answered from the result cache.
pub const CACHE_HIT_COUNTER: &str = "serve.cache.hit";
/// Counter: submits that had to run the study.
pub const CACHE_MISS_COUNTER: &str = "serve.cache.miss";
/// Counter: sessions that reached the `complete` state.
pub const SESSIONS_COMPLETED_COUNTER: &str = "serve.sessions.completed";
/// Span: wall-clock of each executed (non-cached) session.
pub const SESSION_WALL_SPAN: &str = "serve.session.wall";

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// A unix-domain socket at this path (stale files are replaced).
    Unix(PathBuf),
    /// A TCP listen address, e.g. `127.0.0.1:7077`.
    Tcp(String),
}

/// Construction knobs for [`Server`].
pub struct ServerOptions {
    /// Worker threads per running study.
    pub threads: usize,
    /// Disk mirror for the result cache (`None` = memory only).
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
    result: Mutex<Option<Arc<CachedStudy>>>,
}

/// The daemon: registry + cache + metrics + shutdown flag. Shareable
/// across handler threads behind an [`Arc`].
pub struct Server {
    threads: usize,
    cache: ResultCache,
    ms: MetricSet,
    sessions: Mutex<Vec<Arc<SessionEntry>>>,
    shutdown: AtomicBool,
    seq: AtomicU64,
}

impl Server {
    /// Build a daemon (no sockets yet; see [`Server::serve`]).
    pub fn new(opts: ServerOptions) -> Server {
        Server {
            threads: opts.threads.max(1),
            cache: ResultCache::new(opts.cache_dir),
            ms: MetricSet::new(),
            sessions: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        }
    }

    /// The server-level metric set (request counters, cache hit/miss,
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

    /// Listen on every bind and serve until [`Server::request_shutdown`]
    /// (usually via a `shutdown` request). Each connection is handled on
    /// its own scoped thread; the unix socket file is removed on exit.
    pub fn serve(&self, binds: &[Bind]) -> std::io::Result<()> {
        let mut unix = Vec::new();
        let mut tcp = Vec::new();
        for b in binds {
            match b {
                Bind::Unix(path) => {
                    // A previous daemon's stale socket file would make
                    // bind fail; this daemon owns the path now.
                    let _ = std::fs::remove_file(path);
                    let l = std::os::unix::net::UnixListener::bind(path)?;
                    l.set_nonblocking(true)?;
                    unix.push((l, path.clone()));
                }
                Bind::Tcp(addr) => {
                    let l = std::net::TcpListener::bind(addr)?;
                    l.set_nonblocking(true)?;
                    tcp.push(l);
                }
            }
        }
        std::thread::scope(|scope| {
            while !self.shutting_down() {
                let mut idle = true;
                for (l, _) in &unix {
                    match l.accept() {
                        Ok((mut stream, _)) => {
                            idle = false;
                            let _ = stream.set_nonblocking(false);
                            scope.spawn(move || self.handle_conn(&mut stream));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(_) => {}
                    }
                }
                for l in &tcp {
                    match l.accept() {
                        Ok((mut stream, _)) => {
                            idle = false;
                            let _ = stream.set_nonblocking(false);
                            scope.spawn(move || self.handle_conn(&mut stream));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(_) => {}
                    }
                }
                if idle {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        });
        for (_, path) in &unix {
            let _ = std::fs::remove_file(path);
        }
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
                Request::Results { session } => self.handle_results(stream, &session),
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

    /// `submit`: cache-hit replay or a full run with streamed frames.
    fn handle_submit<S: Read + Write>(
        &self,
        stream: &mut S,
        spec: SessionSpec,
    ) -> Result<(), ServeError> {
        let t0 = Instant::now();
        let mut session = match Session::new(spec) {
            Ok(s) => s,
            Err(e) => {
                return write_frame(
                    stream,
                    &error_frame(&ServeError::BadRequest { reason: e.to_string() }),
                )
            }
        };
        let (corpus_fp, config_fp) = session.fingerprint();
        let key = CacheKey::new(corpus_fp, config_fp);
        let cached = self.cache.get(&key);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let sid = format!("{seq:02x}{:04x}", (key.corpus ^ key.config) & 0xffff);
        let cache_state = if cached.is_some() { "hit" } else { "miss" };
        let entry = Arc::new(SessionEntry {
            id: sid.clone(),
            key: key.id(),
            cache: cache_state,
            total: session.total(),
            done: AtomicUsize::new(0),
            state: Mutex::new("running"),
            cancel: AtomicBool::new(false),
            result: Mutex::new(None),
        });
        self.sessions.lock().expect("registry lock poisoned").push(entry.clone());
        write_frame(stream, &accepted_frame(&sid, cache_state, &key.id(), entry.total))?;

        if let Some(hit) = cached {
            self.ms.add(CACHE_HIT_COUNTER, 1);
            entry.done.store(entry.total, Ordering::Relaxed);
            let res = replay_frames(stream, &sid, &hit, "hit", t0.elapsed());
            let state = if res.is_ok() { "complete" } else { "failed" };
            *entry.state.lock().expect("state lock poisoned") = state;
            *entry.result.lock().expect("result lock poisoned") = Some(hit);
            if res.is_ok() {
                self.ms.add(SESSIONS_COMPLETED_COUNTER, 1);
            }
            return res;
        }

        self.ms.add(CACHE_MISS_COUNTER, 1);
        let span = self.ms.span(SESSION_WALL_SPAN);
        let mut sidecars: Vec<CachedSidecar> = Vec::new();
        let mut ran = 0u64;
        let mut stream_err: Option<ServeError> = None;
        let outcome = {
            let entry = &entry;
            let stream_err = &mut stream_err;
            let sidecars = &mut sidecars;
            let ran = &mut ran;
            // The emit path runs strictly in corpus order, so frames
            // stream in the same order the one-shot CLI writes files.
            let mut stream_trace = |stream: &mut S,
                                    stem: &str,
                                    observed: &masim_core::ObservedTrace|
             -> Result<(), ServeError> {
                *ran += 1;
                let done = entry.done.fetch_add(1, Ordering::Relaxed) + 1;
                write_frame(stream, &progress_frame(&sid, done, entry.total))?;
                for rm in &observed.sidecars {
                    let tool =
                        rm.labels().get("tool").cloned().unwrap_or_else(|| "run".to_string());
                    let sc = CachedSidecar {
                        name: format!("{stem}_{tool}"),
                        json: rm.to_json(),
                        csv: rm.to_csv(),
                    };
                    write_frame(stream, &sidecar_frame(&sc))?;
                    sidecars.push(sc);
                }
                Ok(())
            };
            let label = session.spec().label();
            session.run(
                self.threads,
                None,
                Some(&entry.cancel),
                &self.ms,
                label,
                Some(&sid),
                |_, stem, observed| {
                    if stream_err.is_none() {
                        if let Err(e) = stream_trace(stream, stem, observed) {
                            // The consumer is gone: stop dispatching new
                            // work, let in-flight entries drain.
                            *stream_err = Some(e);
                            entry.cancel.store(true, Ordering::Relaxed);
                        }
                    }
                },
            )
        };
        let wall_ns = u64::try_from(span.stop().as_nanos()).unwrap_or(u64::MAX);
        if let Some(e) = stream_err {
            *entry.state.lock().expect("state lock poisoned") = "failed";
            return Err(e);
        }
        match outcome {
            Ok(SessionOutcome::Complete) => {
                let result = Arc::new(CachedStudy {
                    report_name: session.spec().report_name().to_string(),
                    report: session.report(),
                    sidecars,
                    wall_ns,
                    entries: ran,
                });
                if let Err(e) = self.cache.put(&key, result.clone()) {
                    eprintln!("serve: cache write for {} failed: {e}", key.id());
                }
                *entry.state.lock().expect("state lock poisoned") = "complete";
                *entry.result.lock().expect("result lock poisoned") = Some(result.clone());
                self.ms.add(SESSIONS_COMPLETED_COUNTER, 1);
                write_frame(stream, &report_frame(&result.report_name, &result.report))?;
                write_frame(stream, &done_frame(&sid, "miss", ran, t0.elapsed()))
            }
            Ok(SessionOutcome::Interrupted { .. }) => {
                unreachable!("submit never sets abort_after")
            }
            Err(SessionError::Canceled { done, total }) => {
                *entry.state.lock().expect("state lock poisoned") = "canceled";
                write_frame(stream, &canceled_frame(&sid, done, total))
            }
            Err(e) => {
                *entry.state.lock().expect("state lock poisoned") = "failed";
                write_frame(stream, &error_frame(&ServeError::BadRequest { reason: e.to_string() }))
            }
        }
    }

    /// `results`: replay a completed session's stored frames.
    fn handle_results<S: Read + Write>(
        &self,
        stream: &mut S,
        session: &str,
    ) -> Result<(), ServeError> {
        let Some(entry) = self.lookup(session) else {
            return write_frame(
                stream,
                &error_frame(&ServeError::BadRequest {
                    reason: format!("unknown session {session:?}"),
                }),
            );
        };
        let stored = entry.result.lock().expect("result lock poisoned").clone();
        match stored {
            Some(result) => replay_frames(stream, &entry.id, &result, "stored", Duration::ZERO),
            None => write_frame(
                stream,
                &error_frame(&ServeError::BadRequest {
                    reason: format!(
                        "session {session:?} has no stored result (state: {})",
                        entry.state.lock().expect("state lock poisoned")
                    ),
                }),
            ),
        }
    }

    /// `cancel`: flip the session's flag; its emit path does the rest.
    fn handle_cancel<S: Read + Write>(
        &self,
        stream: &mut S,
        session: &str,
    ) -> Result<(), ServeError> {
        let Some(entry) = self.lookup(session) else {
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

    fn lookup(&self, id: &str) -> Option<Arc<SessionEntry>> {
        self.sessions.lock().expect("registry lock poisoned").iter().find(|e| e.id == id).cloned()
    }

    /// The `status` response: every session + the `serve.*` counters.
    fn status_frame(&self) -> Value {
        let sessions = self
            .sessions
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(e.id.clone())),
                    ("key".into(), Value::Str(e.key.clone())),
                    (
                        "state".into(),
                        Value::Str(e.state.lock().expect("state lock poisoned").to_string()),
                    ),
                    ("cache".into(), Value::Str(e.cache.to_string())),
                    ("done".into(), Value::UInt(e.done.load(Ordering::Relaxed) as u64)),
                    ("total".into(), Value::UInt(e.total as u64)),
                ])
            })
            .collect();
        let snap = self.ms.snapshot();
        let counters = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("serve."))
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        Value::Obj(vec![
            ("frame".into(), Value::Str("status".into())),
            ("cache".into(), Value::Str(self.cache.describe())),
            ("sessions".into(), Value::Arr(sessions)),
            ("counters".into(), Value::Obj(counters)),
        ])
    }
}

// ---------------------------------------------------------------------
// Frame constructors (shared by the live path and cache replay)
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

fn progress_frame(sid: &str, done: usize, total: usize) -> Value {
    frame(
        "progress",
        vec![
            ("session".into(), Value::Str(sid.into())),
            ("done".into(), Value::UInt(done as u64)),
            ("total".into(), Value::UInt(total as u64)),
        ],
    )
}

fn sidecar_frame(sc: &CachedSidecar) -> Value {
    frame(
        "sidecar",
        vec![
            ("name".into(), Value::Str(sc.name.clone())),
            ("json".into(), Value::Str(sc.json.clone())),
            ("csv".into(), Value::Str(sc.csv.clone())),
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

fn canceled_frame(sid: &str, done: usize, total: usize) -> Value {
    frame(
        "canceled",
        vec![
            ("session".into(), Value::Str(sid.into())),
            ("done".into(), Value::UInt(done as u64)),
            ("total".into(), Value::UInt(total as u64)),
        ],
    )
}

/// Stream a stored result: the exact sidecar and report bytes the
/// original run produced, then a `done` with `ran: 0` — zero tool
/// re-runs is the cache's contract.
fn replay_frames<S: Read + Write>(
    stream: &mut S,
    sid: &str,
    result: &CachedStudy,
    cache: &str,
    wall: Duration,
) -> Result<(), ServeError> {
    for sc in &result.sidecars {
        write_frame(stream, &sidecar_frame(sc))?;
    }
    write_frame(stream, &report_frame(&result.report_name, &result.report))?;
    write_frame(stream, &done_frame(sid, cache, 0, wall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use masim_core::session::StudyKind;

    /// Drive `handle_conn` over an in-memory socketpair without running
    /// any study: status, cancel of an unknown session, bad requests,
    /// and shutdown.
    #[test]
    fn control_plane_over_socketpair() {
        let server = Server::new(ServerOptions { threads: 1, cache_dir: None });
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
        let server = Server::new(ServerOptions { threads: 1, cache_dir: None });
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
