//! The wire protocol: length-prefixed JSON frames and the typed
//! request vocabulary.
//!
//! Every message — in both directions — is one **frame**: a 4-byte
//! big-endian length followed by that many bytes of UTF-8 JSON. Framing
//! keeps the stream self-synchronizing (a reader never has to scan for
//! delimiters inside JSON strings) and lets the server stream many
//! frames per request: a `submit` answers with `accepted`, then a
//! `progress`/`sidecar` frame per completed trace, then `report` and
//! `done`.
//!
//! Decoding is guarded the same way the trace decoder is (see
//! `failure_injection.rs`): the length is validated against
//! [`MAX_FRAME_LEN`] **before** any allocation, truncation at any byte
//! is a typed [`ServeError::Truncated`], and malformed bodies surface
//! the JSON parser's typed error — a hostile or corrupt peer can never
//! panic the daemon or abort the allocator.

use masim_core::{SessionSpec, StudyKind};
use masim_obs::json::{parse, Value};
use std::fmt;
use std::io::{Read, Write};

/// Hard ceiling on one frame's body (64 MiB). The largest legitimate
/// frame — a full-corpus packet sidecar — is far below this; anything
/// bigger is a corrupt or hostile length prefix and is refused before
/// the body buffer is allocated.
pub const MAX_FRAME_LEN: u64 = 1 << 26;

/// Everything that can go wrong speaking the protocol. Every decode
/// fault lands here as a typed variant — no panics, no unchecked
/// allocations.
#[derive(Debug)]
pub enum ServeError {
    /// A length prefix exceeded [`MAX_FRAME_LEN`]; nothing was
    /// allocated.
    FrameTooLarge {
        /// The length the prefix claimed.
        len: u64,
        /// The configured ceiling.
        max: u64,
    },
    /// The stream ended mid-frame (torn prefix or torn body).
    Truncated {
        /// Bytes actually read.
        got: usize,
        /// Bytes the frame required.
        want: usize,
    },
    /// The body was not valid UTF-8 JSON.
    BadJson {
        /// The parser's diagnosis.
        reason: String,
    },
    /// The frame parsed but does not describe a valid request.
    BadRequest {
        /// What was wrong with it.
        reason: String,
    },
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Transport failure.
    Io(std::io::Error),
    /// The server answered with an `error` frame (client side).
    Remote {
        /// The server-side [`ServeError::kind`] code.
        kind: String,
        /// Human-readable server message.
        message: String,
    },
}

impl ServeError {
    /// Short stable code for `error` frames and assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::FrameTooLarge { .. } => "frame-too-large",
            ServeError::Truncated { .. } => "truncated",
            ServeError::BadJson { .. } => "bad-json",
            ServeError::BadRequest { .. } => "bad-request",
            ServeError::Closed => "closed",
            ServeError::Io(_) => "io",
            ServeError::Remote { .. } => "remote",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            ServeError::Truncated { got, want } => {
                write!(f, "stream truncated mid-frame ({got} of {want} bytes)")
            }
            ServeError::BadJson { reason } => write!(f, "frame body is not valid JSON: {reason}"),
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::Closed => write!(f, "peer closed the connection"),
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::Remote { kind, message } => write!(f, "server error [{kind}]: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Read exactly `buf.len()` bytes, tolerating short reads; returns how
/// many bytes arrived before EOF.
fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, ServeError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    Ok(got)
}

/// Read one frame. Clean EOF between frames is [`ServeError::Closed`];
/// EOF inside a frame is [`ServeError::Truncated`]; an oversized length
/// prefix is refused before the body buffer exists.
pub fn read_frame(r: &mut impl Read) -> Result<Value, ServeError> {
    let mut prefix = [0u8; 4];
    let got = read_fully(r, &mut prefix)?;
    if got == 0 {
        return Err(ServeError::Closed);
    }
    if got < 4 {
        return Err(ServeError::Truncated { got, want: 4 });
    }
    let len = u64::from(u32::from_be_bytes(prefix));
    if len > MAX_FRAME_LEN {
        return Err(ServeError::FrameTooLarge { len, max: MAX_FRAME_LEN });
    }
    let mut body = vec![0u8; len as usize];
    let got = read_fully(r, &mut body)?;
    if got < body.len() {
        return Err(ServeError::Truncated { got, want: body.len() });
    }
    let text = std::str::from_utf8(&body)
        .map_err(|e| ServeError::BadJson { reason: format!("frame is not UTF-8: {e}") })?;
    parse(text).map_err(|e| ServeError::BadJson { reason: e.to_string() })
}

/// Write one frame (length prefix + JSON body) and flush it.
pub fn write_frame(w: &mut impl Write, v: &Value) -> Result<(), ServeError> {
    let body = v.to_json();
    let len = body.len() as u64;
    if len > MAX_FRAME_LEN {
        return Err(ServeError::FrameTooLarge { len, max: MAX_FRAME_LEN });
    }
    w.write_all(&(len as u32).to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()?;
    Ok(())
}

/// The four request operations a client can send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run (or replay from the result store) the study described by `spec`.
    Submit(SessionSpec),
    /// List every session this daemon has seen, plus server counters.
    Status,
    /// Halt a running session's dispatch (completed entries are kept).
    Cancel {
        /// Session id to cancel.
        session: String,
    },
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
}

impl Request {
    /// Short op name (also the wire `op` field).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Submit(_) => "submit",
            Request::Status => "status",
            Request::Cancel { .. } => "cancel",
            Request::Shutdown => "shutdown",
        }
    }

    /// Encode for the wire.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![("op".to_string(), Value::Str(self.op().to_string()))];
        match self {
            Request::Submit(spec) => {
                fields.push(("seed".into(), Value::UInt(spec.seed)));
                match &spec.kind {
                    StudyKind::Table2 { tiny } => {
                        fields.push(("study".into(), Value::Str("table2".into())));
                        fields.push(("tiny".into(), Value::Bool(*tiny)));
                    }
                    StudyKind::Corpus { indices } => {
                        fields.push(("study".into(), Value::Str("corpus".into())));
                        if let Some(idx) = indices {
                            let arr = idx.iter().map(|&i| Value::UInt(i as u64)).collect();
                            fields.push(("indices".into(), Value::Arr(arr)));
                        }
                    }
                }
            }
            Request::Cancel { session } => {
                fields.push(("session".into(), Value::Str(session.clone())));
            }
            Request::Status | Request::Shutdown => {}
        }
        Value::Obj(fields)
    }

    /// Decode from the wire; anything structurally off is a typed
    /// [`ServeError::BadRequest`].
    pub fn from_value(v: &Value) -> Result<Request, ServeError> {
        let bad = |reason: String| ServeError::BadRequest { reason };
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("missing string field 'op'".into()))?;
        let session = |v: &Value| -> Result<String, ServeError> {
            Ok(v.get("session")
                .and_then(Value::as_str)
                .ok_or_else(|| bad(format!("op '{op}' needs a string field 'session'")))?
                .to_string())
        };
        Ok(match op {
            "status" => Request::Status,
            "shutdown" => Request::Shutdown,
            "cancel" => Request::Cancel { session: session(v)? },
            "submit" => {
                let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(7);
                let study = v
                    .get("study")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("submit needs a string field 'study'".into()))?;
                let kind = match study {
                    "table2" => StudyKind::Table2 {
                        tiny: v.get("tiny").and_then(Value::as_bool).unwrap_or(false),
                    },
                    "corpus" => {
                        let indices = match v.get("indices") {
                            None | Some(Value::Null) => None,
                            Some(Value::Arr(items)) => {
                                let mut idx = Vec::with_capacity(items.len());
                                for (i, item) in items.iter().enumerate() {
                                    idx.push(
                                        item.as_u64().ok_or_else(|| {
                                            bad(format!("indices[{i}] is not a u64"))
                                        })? as usize,
                                    );
                                }
                                Some(idx)
                            }
                            Some(_) => return Err(bad("'indices' is not an array".into())),
                        };
                        StudyKind::Corpus { indices }
                    }
                    other => return Err(bad(format!("unknown study kind {other:?}"))),
                };
                Request::Submit(SessionSpec { kind, seed })
            }
            other => return Err(bad(format!("unknown op {other:?}"))),
        })
    }
}

/// The `error` frame for a [`ServeError`].
pub fn error_frame(e: &ServeError) -> Value {
    Value::Obj(vec![
        ("frame".into(), Value::Str("error".into())),
        ("kind".into(), Value::Str(e.kind().into())),
        ("message".into(), Value::Str(e.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let v = Request::Submit(SessionSpec { kind: StudyKind::Table2 { tiny: true }, seed: 7 })
            .to_value();
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        let back = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.to_json(), v.to_json());
        // And a second frame on the same stream.
        write_frame(&mut buf, &Request::Status.to_value()).unwrap();
        let mut cur = Cursor::new(&buf);
        read_frame(&mut cur).unwrap();
        assert_eq!(Request::from_value(&read_frame(&mut cur).unwrap()).unwrap(), Request::Status);
        assert!(matches!(read_frame(&mut cur), Err(ServeError::Closed)));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(SessionSpec { kind: StudyKind::Table2 { tiny: false }, seed: 9 }),
            Request::Submit(SessionSpec {
                kind: StudyKind::Corpus { indices: Some(vec![3, 40]) },
                seed: 7,
            }),
            Request::Submit(SessionSpec { kind: StudyKind::Corpus { indices: None }, seed: 7 }),
            Request::Status,
            Request::Cancel { session: "bb0002".into() },
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::from_value(&r.to_value()).unwrap(), r);
        }
    }

    #[test]
    fn oversized_prefix_is_refused_before_allocation() {
        let mut buf = u32::MAX.to_be_bytes().to_vec();
        buf.extend_from_slice(b"{}");
        // If read_frame allocated the claimed 4 GiB this test would OOM
        // long before the assert.
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ServeError::FrameTooLarge { len, .. } if len == u64::from(u32::MAX)));
    }

    #[test]
    fn bad_requests_are_typed() {
        for text in [
            "{}",
            "{\"op\":\"fly\"}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"study\":\"tableX\"}",
            "{\"op\":\"submit\",\"study\":\"corpus\",\"indices\":3}",
            "{\"op\":\"submit\",\"study\":\"corpus\",\"indices\":[\"x\"]}",
            "{\"op\":\"cancel\"}",
            "[1,2,3]",
        ] {
            let v = parse(text).unwrap();
            let err = Request::from_value(&v).unwrap_err();
            assert_eq!(err.kind(), "bad-request", "{text}: {err}");
        }
    }
}
