//! The line-oriented text trace format: [`to_text`] renders it and
//! [`from_text`] parses it back.
//!
//! The text form exists for human inspection and for small hand-written
//! traces in docs and tests; the binary format in [`crate::io`] is the
//! interchange format. `from_text(to_text(t)) == t` for every valid
//! trace.

use crate::event::{CollKind, Event, EventKind};
use crate::ids::{Rank, ReqId};
use crate::time::Time;
use crate::trace::{Trace, TraceMeta};
use std::fmt;

/// A text-parse failure, with the 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// Parse a `key=value` pair out of the header.
fn header_field<'a>(line: usize, text: &'a str, key: &str) -> Result<&'a str, ParseError> {
    let pat = format!("{key}=");
    let start = text.find(&pat).ok_or_else(|| err(line, format!("missing header field {key}")))?
        + pat.len();
    let rest = &text[start..];
    Ok(rest.split_whitespace().next().unwrap_or(""))
}

/// Parse a duration like `10.000us`, `2.500ms`, `1.000000s`, or `7ps`.
fn parse_time(line: usize, s: &str) -> Result<Time, ParseError> {
    let (num, unit): (&str, &str) = s
        .char_indices()
        .find(|&(_, c)| c.is_ascii_alphabetic())
        .map(|(i, _)| (&s[..i], &s[i..]))
        .ok_or_else(|| err(line, format!("missing time unit in '{s}'")))?;
    let v: f64 = num.parse().map_err(|_| err(line, format!("bad time value '{s}'")))?;
    if !v.is_finite() || v < 0.0 {
        // Negative or non-finite durations would silently saturate in
        // the float→u64 cast below; reject them at the source.
        return Err(err(line, format!("bad time value '{s}'")));
    }
    let ps = match unit {
        "ps" => v,
        "ns" => v * 1e3,
        "us" => v * 1e6,
        "ms" => v * 1e9,
        "s" => v * 1e12,
        other => return Err(err(line, format!("unknown time unit '{other}'"))),
    };
    Ok(Time::from_ps(ps.round() as u64))
}

fn parse_rank(line: usize, s: &str) -> Result<Rank, ParseError> {
    let digits = s.strip_prefix('r').ok_or_else(|| err(line, format!("bad rank '{s}'")))?;
    digits.parse().map(Rank).map_err(|_| err(line, format!("bad rank '{s}'")))
}

fn parse_bytes(line: usize, s: &str) -> Result<u64, ParseError> {
    let digits = s.strip_suffix('B').ok_or_else(|| err(line, format!("bad byte count '{s}'")))?;
    digits.parse().map_err(|_| err(line, format!("bad byte count '{s}'")))
}

fn parse_tag(line: usize, s: &str) -> Result<u32, ParseError> {
    let digits = s.strip_prefix("tag=").ok_or_else(|| err(line, format!("bad tag '{s}'")))?;
    digits.parse().map_err(|_| err(line, format!("bad tag '{s}'")))
}

fn parse_req(line: usize, s: &str) -> Result<ReqId, ParseError> {
    let digits = s.strip_prefix("req").ok_or_else(|| err(line, format!("bad request '{s}'")))?;
    digits.parse().map(ReqId).map_err(|_| err(line, format!("bad request '{s}'")))
}

fn parse_coll_kind(line: usize, s: &str) -> Result<CollKind, ParseError> {
    CollKind::ALL
        .into_iter()
        .find(|k| k.to_string() == s)
        .ok_or_else(|| err(line, format!("unknown collective '{s}'")))
}

/// Render a trace in the line-oriented text form (one event per line),
/// mirroring `dumpi2ascii` output. Intended for debugging and examples,
/// not as an interchange format.
pub fn to_text(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = &trace.meta;
    let _ = writeln!(
        out,
        "# masim trace: app={} machine={} ranks={} rpn={} size={} seed={}",
        m.app, m.machine, m.ranks, m.ranks_per_node, m.problem_size, m.seed
    );
    for (r, stream) in trace.events.iter().enumerate() {
        for e in stream {
            let _ = write!(out, "r{r} {} ", e.dur);
            let _ = match &e.kind {
                EventKind::Compute => writeln!(out, "compute"),
                EventKind::Send { peer, bytes, tag } => {
                    writeln!(out, "send -> {peer} {bytes}B tag={tag}")
                }
                EventKind::Isend { peer, bytes, tag, req } => {
                    writeln!(out, "isend -> {peer} {bytes}B tag={tag} {req}")
                }
                EventKind::Recv { peer, bytes, tag } => {
                    writeln!(out, "recv <- {peer} {bytes}B tag={tag}")
                }
                EventKind::Irecv { peer, bytes, tag, req } => {
                    writeln!(out, "irecv <- {peer} {bytes}B tag={tag} {req}")
                }
                EventKind::Wait { req } => writeln!(out, "wait {req}"),
                EventKind::WaitAll { reqs } => writeln!(out, "waitall x{}", reqs.len()),
                EventKind::Coll { kind, bytes, root } => {
                    writeln!(out, "coll {kind} {bytes}B root={root}")
                }
            };
        }
    }
    out
}

/// Parse the text format produced by [`to_text`].
///
/// The per-rank `WaitAll` line records only the request *count*
/// (`waitall x3`); the parser reconstructs the request ids as the most
/// recently issued, not-yet-waited nonblocking operations of that rank,
/// in issue order — exactly how the builder emits them.
pub fn from_text(text: &str) -> Result<Trace, ParseError> {
    let mut lines = text.lines().enumerate();
    let (lno, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
    let lno = lno + 1;
    if !header.starts_with("# masim trace:") {
        return Err(err(lno, "missing '# masim trace:' header"));
    }
    let meta = TraceMeta {
        app: header_field(lno, header, "app")?.to_string(),
        machine: header_field(lno, header, "machine")?.to_string(),
        ranks: header_field(lno, header, "ranks")?.parse().map_err(|_| err(lno, "bad ranks"))?,
        ranks_per_node: header_field(lno, header, "rpn")?
            .parse()
            .map_err(|_| err(lno, "bad rpn"))?,
        problem_size: header_field(lno, header, "size")?
            .parse()
            .map_err(|_| err(lno, "bad size"))?,
        seed: header_field(lno, header, "seed")?.parse().map_err(|_| err(lno, "bad seed"))?,
    };
    let mut trace = Trace::empty(meta);
    // Outstanding request ids per rank, for waitall reconstruction.
    let mut open: Vec<Vec<ReqId>> = vec![Vec::new(); trace.meta.ranks as usize];

    for (lno0, raw) in lines {
        let lno = lno0 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let rank = parse_rank(lno, parts.next().ok_or_else(|| err(lno, "missing rank"))?)?;
        if rank.0 >= trace.meta.ranks {
            return Err(err(lno, format!("rank {rank} out of range")));
        }
        let dur = parse_time(lno, parts.next().ok_or_else(|| err(lno, "missing duration"))?)?;
        let op = parts.next().ok_or_else(|| err(lno, "missing operation"))?;
        let next = |p: &mut dyn Iterator<Item = &str>, what: &str| -> Result<String, ParseError> {
            p.next().map(str::to_string).ok_or_else(|| err(lno, format!("missing {what}")))
        };
        let kind = match op {
            "compute" => EventKind::Compute,
            "send" | "isend" => {
                let arrow = next(&mut parts, "arrow")?;
                if arrow != "->" {
                    return Err(err(lno, "expected '->'"));
                }
                let peer = parse_rank(lno, &next(&mut parts, "peer")?)?;
                if peer.0 >= trace.meta.ranks {
                    return Err(err(lno, format!("peer {peer} out of range")));
                }
                let bytes = parse_bytes(lno, &next(&mut parts, "bytes")?)?;
                let tag = parse_tag(lno, &next(&mut parts, "tag")?)?;
                if op == "send" {
                    EventKind::Send { peer, bytes, tag }
                } else {
                    let req = parse_req(lno, &next(&mut parts, "request")?)?;
                    open[rank.idx()].push(req);
                    EventKind::Isend { peer, bytes, tag, req }
                }
            }
            "recv" | "irecv" => {
                let arrow = next(&mut parts, "arrow")?;
                if arrow != "<-" {
                    return Err(err(lno, "expected '<-'"));
                }
                let peer = parse_rank(lno, &next(&mut parts, "peer")?)?;
                if peer.0 >= trace.meta.ranks {
                    return Err(err(lno, format!("peer {peer} out of range")));
                }
                let bytes = parse_bytes(lno, &next(&mut parts, "bytes")?)?;
                let tag = parse_tag(lno, &next(&mut parts, "tag")?)?;
                if op == "recv" {
                    EventKind::Recv { peer, bytes, tag }
                } else {
                    let req = parse_req(lno, &next(&mut parts, "request")?)?;
                    open[rank.idx()].push(req);
                    EventKind::Irecv { peer, bytes, tag, req }
                }
            }
            "wait" => {
                let req = parse_req(lno, &next(&mut parts, "request")?)?;
                open[rank.idx()].retain(|&r| r != req);
                EventKind::Wait { req }
            }
            "waitall" => {
                let count_s = next(&mut parts, "count")?;
                let count: usize = count_s
                    .strip_prefix('x')
                    .and_then(|d| d.parse().ok())
                    .ok_or_else(|| err(lno, format!("bad waitall count '{count_s}'")))?;
                let o = &mut open[rank.idx()];
                if o.len() < count {
                    return Err(err(
                        lno,
                        format!("waitall x{count} but only {} requests outstanding", o.len()),
                    ));
                }
                let reqs: Vec<ReqId> = o.drain(..count).collect();
                EventKind::WaitAll { reqs }
            }
            "coll" => {
                let kind = parse_coll_kind(lno, &next(&mut parts, "collective kind")?)?;
                let bytes = parse_bytes(lno, &next(&mut parts, "bytes")?)?;
                let root_s = next(&mut parts, "root")?;
                let root = parse_rank(
                    lno,
                    root_s
                        .strip_prefix("root=")
                        .ok_or_else(|| err(lno, format!("bad root '{root_s}'")))?,
                )?;
                EventKind::Coll { kind, bytes, root }
            }
            other => return Err(err(lno, format!("unknown operation '{other}'"))),
        };
        trace.events[rank.idx()].push(Event { kind, dur });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RankBuilder;

    fn sample() -> Trace {
        let meta = TraceMeta {
            app: "PP".into(),
            machine: "demo".into(),
            ranks: 2,
            ranks_per_node: 1,
            problem_size: 2,
            seed: 9,
        };
        let mut t = Trace::empty(meta);
        let mut b0 = RankBuilder::new(Rank(0));
        b0.compute(Time::from_us(3));
        let q = b0.isend(Rank(1), 2048, 5, Time::from_ns(700));
        let q2 = b0.irecv(Rank(1), 64, 6, Time::from_ns(700));
        b0.wait(q, Time::from_ns(100));
        b0.wait(q2, Time::from_ns(100));
        b0.coll(CollKind::Allreduce, 8, Rank(0), Time::from_us(4));
        t.events[0] = b0.finish();
        let mut b1 = RankBuilder::new(Rank(1));
        b1.recv(Rank(0), 2048, 5, Time::from_us(1));
        b1.send(Rank(0), 64, 6, Time::from_us(1));
        b1.coll(CollKind::Allreduce, 8, Rank(0), Time::from_us(4));
        t.events[1] = b1.finish();
        t
    }

    #[test]
    fn text_round_trip() {
        let t = sample();
        assert_eq!(t.validate(), Ok(()));
        let text = to_text(&t);
        let back = from_text(&text).expect("parse");
        assert_eq!(t, back);
    }

    #[test]
    fn text_rendering_mentions_all_events() {
        let mut t = sample();
        t.events[0].push(Event::new(EventKind::WaitAll { reqs: vec![] }, Time::ZERO));
        let txt = to_text(&t);
        for needle in ["compute", "isend", "irecv", "waitall", "wait", "Allreduce", "# masim trace"]
        {
            assert!(txt.contains(needle), "missing {needle} in text dump:\n{txt}");
        }
    }

    #[test]
    fn waitall_round_trip() {
        let meta = TraceMeta {
            app: "WA".into(),
            machine: "demo".into(),
            ranks: 2,
            ranks_per_node: 1,
            problem_size: 1,
            seed: 0,
        };
        let mut t = Trace::empty(meta);
        let mut b0 = RankBuilder::new(Rank(0));
        let _ = b0.isend(Rank(1), 8, 0, Time::ZERO);
        let _ = b0.isend(Rank(1), 8, 1, Time::ZERO);
        b0.wait_all(Time::from_ns(5));
        t.events[0] = b0.finish();
        let mut b1 = RankBuilder::new(Rank(1));
        b1.recv(Rank(0), 8, 0, Time::ZERO);
        b1.recv(Rank(0), 8, 1, Time::ZERO);
        t.events[1] = b1.finish();

        let back = from_text(&to_text(&t)).expect("parse");
        assert_eq!(t, back);
        assert_eq!(back.validate(), Ok(()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_text("").is_err());
        assert!(from_text("nonsense").is_err());
        let bad_rank = "# masim trace: app=x machine=y ranks=1 rpn=1 size=1 seed=0\nr5 1ps compute";
        let e = from_text(bad_rank).unwrap_err();
        assert_eq!(e.line, 2);
        let bad_op = "# masim trace: app=x machine=y ranks=1 rpn=1 size=1 seed=0\nr0 1ps explode";
        assert!(from_text(bad_op).unwrap_err().message.contains("unknown operation"));
    }

    #[test]
    fn rejects_overdrawn_waitall() {
        let text = "# masim trace: app=x machine=y ranks=1 rpn=1 size=1 seed=0\nr0 1ps waitall x2";
        let e = from_text(text).unwrap_err();
        assert!(e.message.contains("outstanding"), "{e}");
    }

    #[test]
    fn time_units_parse() {
        for (s, ps) in [
            ("7ps", 7u64),
            ("5.000ns", 5_000),
            ("10.000us", 10_000_000),
            ("2.000000s", 2_000_000_000_000),
        ] {
            assert_eq!(parse_time(1, s).unwrap(), Time::from_ps(ps), "{s}");
        }
        assert!(parse_time(1, "5miles").is_err());
        assert!(parse_time(1, "fast").is_err());
    }

    #[test]
    fn header_errors_are_line_one() {
        let e = from_text("# masim trace: app=x machine=y rpn=1 size=1 seed=0").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("ranks"));
    }
}
