//! Socket client for the `repro serve` daemon.
//!
//! [`submit`] drives one study over the wire and materializes the
//! response frames as the same on-disk layout the one-shot CLI writes:
//! `out/<report>`, `out/metrics/<name>.json`, plus an
//! `out/response.json` summary (session id, cache disposition, entries
//! executed, server wall time) for scripted callers — the CI
//! cache-effectiveness check reads exactly that file. Names come from
//! the socket, so each must be one plain file-name component; anything
//! else is a typed error and nothing is written.

use crate::protocol::{read_frame, write_frame, Request, ServeError};
use masim_core::SessionSpec;
use masim_obs::json::Value;
use masim_obs::Progress;
use std::ffi::OsStr;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// What a completed [`submit`] reported.
#[derive(Clone, Debug)]
pub struct SubmitSummary {
    /// Server-assigned session id.
    pub session: String,
    /// `"hit"` or `"miss"` — whether every entry was in the result store.
    pub cache: String,
    /// Entries the server actually executed (0 on a cache hit).
    pub ran: u64,
    /// Server-side wall time for the whole request, nanoseconds.
    pub wall_ns: u64,
    /// Entries in the study.
    pub total: u64,
    /// Report file name the server used (`table2.txt` / `study.csv`).
    pub report_name: String,
}

impl SubmitSummary {
    /// The `response.json` body scripted callers consume.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("session".into(), Value::Str(self.session.clone())),
            ("cache".into(), Value::Str(self.cache.clone())),
            ("ran".into(), Value::UInt(self.ran)),
            ("wall_ns".into(), Value::UInt(self.wall_ns)),
            ("total".into(), Value::UInt(self.total)),
            ("report_name".into(), Value::Str(self.report_name.clone())),
        ])
    }
}

fn remote(reason: String) -> ServeError {
    ServeError::Remote { kind: "protocol".to_string(), message: reason }
}

fn str_field(v: &Value, field: &str) -> Result<String, ServeError> {
    v.get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| remote(format!("frame missing string '{field}'")))
}

/// A file name from the socket, accepted only as exactly one plain path
/// component: an empty name, `.`, `..`, an absolute path or anything
/// with a separator would let `Path::join` write outside `out_dir`.
fn name_field(v: &Value) -> Result<String, ServeError> {
    let name = str_field(v, "name")?;
    if Path::new(&name).file_name() != Some(OsStr::new(&name)) {
        return Err(remote(format!("frame name {name:?} is not a plain file name")));
    }
    Ok(name)
}

fn u64_field(v: &Value, field: &str) -> Result<u64, ServeError> {
    v.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| remote(format!("frame missing u64 '{field}'")))
}

/// Submit `spec` and write the streamed response under `out_dir`
/// (report at the top, sidecars in `metrics/`, summary in
/// `response.json`). `quiet` suppresses the client-side progress bar.
pub fn submit(
    socket: &Path,
    spec: SessionSpec,
    out_dir: &Path,
    quiet: bool,
) -> Result<SubmitSummary, ServeError> {
    let mut conn = UnixStream::connect(socket)?;
    write_frame(&mut conn, &Request::Submit(spec).to_value())?;

    let metrics_dir = out_dir.join("metrics");
    std::fs::create_dir_all(&metrics_dir)?;

    let mut session = String::new();
    let mut cache = String::new();
    let mut total = 0u64;
    let mut report_name = String::new();
    let mut progress: Option<Progress> = None;
    loop {
        let v = read_frame(&mut conn)?;
        match v.get("frame").and_then(Value::as_str) {
            Some("accepted") => {
                session = str_field(&v, "session")?;
                cache = str_field(&v, "cache")?;
                total = u64_field(&v, "total")?;
                if !quiet {
                    progress = Some(Progress::new("submit", total).with_prefix(&session));
                }
            }
            Some("progress") => {
                if let Some(p) = &progress {
                    p.tick(1);
                }
            }
            Some("sidecar") => {
                let name = name_field(&v)?;
                std::fs::write(metrics_dir.join(format!("{name}.json")), str_field(&v, "json")?)?;
            }
            Some("report") => {
                report_name = name_field(&v)?;
                std::fs::write(out_dir.join(&report_name), str_field(&v, "text")?)?;
            }
            Some("done") => {
                if let Some(p) = &progress {
                    p.finish();
                }
                let echoed = str_field(&v, "cache")?;
                if echoed != cache {
                    return Err(remote(format!(
                        "session {session} was accepted as a {cache:?} but done as a {echoed:?}"
                    )));
                }
                let summary = SubmitSummary {
                    session,
                    cache,
                    ran: u64_field(&v, "ran")?,
                    wall_ns: u64_field(&v, "wall_ns")?,
                    total,
                    report_name,
                };
                std::fs::write(out_dir.join("response.json"), summary.to_value().to_json())?;
                return Ok(summary);
            }
            Some("canceled") => {
                let done = u64_field(&v, "done")?;
                return Err(remote(format!("session {session} canceled after {done}/{total}")));
            }
            Some("error") => {
                return Err(ServeError::Remote {
                    kind: str_field(&v, "kind")?,
                    message: str_field(&v, "message")?,
                });
            }
            other => {
                return Err(remote(format!("unexpected frame {other:?}")));
            }
        }
    }
}

/// One-request helper: send `req`, return the single response frame.
fn roundtrip(socket: &Path, req: &Request) -> Result<Value, ServeError> {
    let mut conn = UnixStream::connect(socket)?;
    write_frame(&mut conn, &req.to_value())?;
    read_frame(&mut conn)
}

/// Fetch the daemon's `status` frame (sessions, cache, counters).
pub fn status(socket: &Path) -> Result<Value, ServeError> {
    roundtrip(socket, &Request::Status)
}

/// Cancel a running session by id; returns the server's response frame.
pub fn cancel(socket: &Path, session: &str) -> Result<Value, ServeError> {
    roundtrip(socket, &Request::Cancel { session: session.to_string() })
}

/// Ask the daemon to exit; returns its acknowledgement frame.
pub fn shutdown(socket: &Path) -> Result<Value, ServeError> {
    roundtrip(socket, &Request::Shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use masim_core::StudyKind;
    use std::os::unix::net::UnixListener;

    fn frame(kind: &str, fields: Vec<(&str, Value)>) -> Value {
        let mut all = vec![("frame".to_string(), Value::Str(kind.to_string()))];
        all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        Value::Obj(all)
    }

    /// Every file and directory under `dir`, relative, sorted.
    fn tree(dir: &Path) -> Vec<String> {
        let mut out = Vec::new();
        let mut todo = vec![dir.to_path_buf()];
        while let Some(d) = todo.pop() {
            for e in std::fs::read_dir(&d).unwrap() {
                let p = e.unwrap().path();
                out.push(p.strip_prefix(dir).unwrap().display().to_string());
                if p.is_dir() {
                    todo.push(p);
                }
            }
        }
        out.sort();
        out
    }

    /// A fake daemon streams `accepted`, one frame whose `name` tries to
    /// leave `out`, then `done` — or, for the `done` case, a `done` whose
    /// cache state contradicts `accepted`. The client must stop at the
    /// hostile frame with a typed error, having written no file anywhere.
    #[test]
    fn names_from_the_socket_stay_inside_out() {
        let base = std::env::temp_dir().join(format!("masim-confine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let absolute = base.join("abs").display().to_string();
        let cases = [
            ("report", "../escape.txt"),
            ("report", "sub/report.txt"),
            ("sidecar", "../escape"),
            ("sidecar", absolute.as_str()),
            ("sidecar", ".."),
            ("sidecar", ""),
            ("done", "hit"),
        ];
        for (i, (kind, name)) in cases.into_iter().enumerate() {
            let dir = base.join(format!("case{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            let sock = dir.join("sock");
            let listener = UnixListener::bind(&sock).unwrap();
            let done = |cache: &str| {
                frame(
                    "done",
                    vec![
                        ("cache", Value::Str(cache.into())),
                        ("ran", Value::UInt(1)),
                        ("wall_ns", Value::UInt(1)),
                    ],
                )
            };
            let hostile = match kind {
                "sidecar" => frame(
                    "sidecar",
                    vec![("name", Value::Str(name.into())), ("json", Value::Str("{}".into()))],
                ),
                "report" => frame(
                    "report",
                    vec![("name", Value::Str(name.into())), ("text", Value::Str("x".into()))],
                ),
                _ => done(name),
            };
            let frames = vec![
                frame(
                    "accepted",
                    vec![
                        ("session", Value::Str("s1".into())),
                        ("cache", Value::Str("miss".into())),
                        ("total", Value::UInt(1)),
                    ],
                ),
                hostile,
                done("miss"),
            ];
            let daemon = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                read_frame(&mut s).unwrap();
                for f in &frames {
                    if write_frame(&mut s, f).is_err() {
                        break;
                    }
                }
            });

            let spec = SessionSpec { kind: StudyKind::Table2 { tiny: true }, seed: 7 };
            let err = submit(&sock, spec, &dir.join("out"), true).unwrap_err();
            daemon.join().unwrap();
            assert!(
                matches!(&err, ServeError::Remote { kind, message }
                    if kind == "protocol" && message.contains(&format!("{name:?}"))),
                "{kind} {name:?}: {err:?}"
            );
            assert_eq!(tree(&dir), ["out", "out/metrics", "sock"], "{kind} {name:?}");
            assert!(!Path::new(&format!("{absolute}.json")).exists());
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
