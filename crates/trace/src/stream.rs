//! Streamed on-disk trace format ("MASS"): a compact varint-delta
//! encoding with a per-rank segment index, designed so consumers decode
//! one event at a time per rank instead of materializing `Vec<Vec<Event>>`
//! — the memory floor that kept the corpus off Edison/Frontier-class rank
//! counts.
//!
//! ```text
//! magic    b"MASS"             4 bytes
//! version  u32                 format revision (currently 1)
//! meta     app, machine        (u32 len + utf8) × 2
//!          ranks, rpn, size    u32 × 3
//!          seed                u64
//! index    per rank: payload offset u64, byte length u64, event count u64
//! payload  per-rank segments, contiguous and in index order
//! ```
//!
//! Within a rank's segment every event is `tag u8` + LEB128 varints.
//! Durations are varint picoseconds; peers are zigzag deltas from the
//! owning rank; request ids are zigzag deltas from the previously
//! mentioned request (generators issue them sequentially, so deltas are
//! tiny); collective roots are plain varints. A 16-rank stencil trace
//! shrinks ~3.5× versus the fixed-width `MASM` layout, and — the point —
//! the decoder needs only the compact bytes plus one `Event` of state per
//! rank.
//!
//! Every segment is validated once at open time (a decode-and-discard
//! pass), so the per-event cursor path is panic-free without re-checking.

use crate::event::{CollKind, Event, EventKind};
use crate::ids::{Rank, ReqId};
use crate::io::DecodeError;
use crate::io::{get_string, get_u32_le, get_u64_le, put_string, put_u32_le, put_u64_le};
use crate::time::Time;
use crate::trace::{Trace, TraceMeta};
use std::fmt;
use std::path::Path;

/// Current streamed format revision.
pub const STREAM_VERSION: u32 = 1;
const MAGIC: &[u8; 4] = b"MASS";

// Event tag bytes (same order as the MASM codec).
const TAG_COMPUTE: u8 = 0;
const TAG_SEND: u8 = 1;
const TAG_ISEND: u8 = 2;
const TAG_RECV: u8 = 3;
const TAG_IRECV: u8 = 4;
const TAG_WAIT: u8 = 5;
const TAG_WAITALL: u8 = 6;
const TAG_COLL: u8 = 7;

/// Why a streamed trace could not be opened.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StreamError {
    /// Filesystem failure (stringified `io::Error`, kept comparable).
    Io(String),
    /// The bytes are not a well-formed MASS stream.
    Decode(DecodeError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "streamed trace io: {e}"),
            StreamError::Decode(e) => write!(f, "streamed trace: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> StreamError {
        StreamError::Decode(e)
    }
}

// ---- varint primitives -------------------------------------------------

#[inline]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v != 0 {
            buf.push(byte | 0x80);
        } else {
            buf.push(byte);
            return;
        }
    }
}

#[inline]
fn put_signed(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

#[inline]
fn get_varint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) =
            buf.split_first().ok_or(DecodeError::Truncated { context: "varint" })?;
        *buf = rest;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(DecodeError::BadTag(byte));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn get_signed(buf: &mut &[u8]) -> Result<i64, DecodeError> {
    let z = get_varint(buf)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

// ---- encoding ----------------------------------------------------------

/// Encode one rank's event stream as a MASS payload segment.
fn encode_segment(rank: u32, events: &[Event], out: &mut Vec<u8>) {
    let mut prev_req = 0u32;
    let mut req_delta = |buf: &mut Vec<u8>, req: ReqId| {
        put_signed(buf, i64::from(req.0) - i64::from(prev_req));
        prev_req = req.0;
    };
    for e in events {
        match &e.kind {
            EventKind::Compute => {
                out.push(TAG_COMPUTE);
                put_varint(out, e.dur.as_ps());
            }
            EventKind::Send { peer, bytes, tag } => {
                out.push(TAG_SEND);
                put_varint(out, e.dur.as_ps());
                put_signed(out, i64::from(peer.0) - i64::from(rank));
                put_varint(out, *bytes);
                put_varint(out, u64::from(*tag));
            }
            EventKind::Isend { peer, bytes, tag, req } => {
                out.push(TAG_ISEND);
                put_varint(out, e.dur.as_ps());
                put_signed(out, i64::from(peer.0) - i64::from(rank));
                put_varint(out, *bytes);
                put_varint(out, u64::from(*tag));
                req_delta(out, *req);
            }
            EventKind::Recv { peer, bytes, tag } => {
                out.push(TAG_RECV);
                put_varint(out, e.dur.as_ps());
                put_signed(out, i64::from(peer.0) - i64::from(rank));
                put_varint(out, *bytes);
                put_varint(out, u64::from(*tag));
            }
            EventKind::Irecv { peer, bytes, tag, req } => {
                out.push(TAG_IRECV);
                put_varint(out, e.dur.as_ps());
                put_signed(out, i64::from(peer.0) - i64::from(rank));
                put_varint(out, *bytes);
                put_varint(out, u64::from(*tag));
                req_delta(out, *req);
            }
            EventKind::Wait { req } => {
                out.push(TAG_WAIT);
                put_varint(out, e.dur.as_ps());
                req_delta(out, *req);
            }
            EventKind::WaitAll { reqs } => {
                out.push(TAG_WAITALL);
                put_varint(out, e.dur.as_ps());
                put_varint(out, reqs.len() as u64);
                for r in reqs {
                    req_delta(out, *r);
                }
            }
            EventKind::Coll { kind, bytes, root } => {
                out.push(TAG_COLL);
                put_varint(out, e.dur.as_ps());
                out.push(kind.code());
                put_varint(out, *bytes);
                put_varint(out, u64::from(root.0));
            }
        }
    }
}

/// Serialize a trace into the streamed MASS layout.
pub fn encode_stream(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + trace.events.len() * 24 + trace.num_events() * 6);
    buf.extend_from_slice(MAGIC);
    put_u32_le(&mut buf, STREAM_VERSION);
    put_string(&mut buf, &trace.meta.app);
    put_string(&mut buf, &trace.meta.machine);
    put_u32_le(&mut buf, trace.meta.ranks);
    put_u32_le(&mut buf, trace.meta.ranks_per_node);
    put_u32_le(&mut buf, trace.meta.problem_size);
    put_u64_le(&mut buf, trace.meta.seed);

    // Index placeholder, patched after the payload is laid down.
    let index_at = buf.len();
    buf.resize(index_at + trace.events.len() * 24, 0);
    let payload_at = buf.len();

    let mut index = Vec::with_capacity(trace.events.len());
    for (r, events) in trace.events.iter().enumerate() {
        let seg_start = buf.len() - payload_at;
        encode_segment(r as u32, events, &mut buf);
        let seg_len = (buf.len() - payload_at) - seg_start;
        index.push((seg_start as u64, seg_len as u64, events.len() as u64));
    }
    for (i, (off, len, count)) in index.into_iter().enumerate() {
        let at = index_at + i * 24;
        buf[at..at + 8].copy_from_slice(&off.to_le_bytes());
        buf[at + 8..at + 16].copy_from_slice(&len.to_le_bytes());
        buf[at + 16..at + 24].copy_from_slice(&count.to_le_bytes());
    }
    buf
}

/// Write a trace to `path` in the streamed MASS layout.
pub fn write_stream(trace: &Trace, path: &Path) -> Result<(), StreamError> {
    std::fs::write(path, encode_stream(trace)).map_err(|e| StreamError::Io(e.to_string()))
}

// ---- decoding ----------------------------------------------------------

/// Decode one event; `rank` and `prev_req` carry the delta bases.
fn decode_event(buf: &mut &[u8], rank: u32, prev_req: &mut u32) -> Result<Event, DecodeError> {
    let (&tag, rest) = buf.split_first().ok_or(DecodeError::Truncated { context: "event tag" })?;
    *buf = rest;
    let dur = Time::from_ps(get_varint(buf)?);
    let peer = |buf: &mut &[u8]| -> Result<Rank, DecodeError> {
        let p = i64::from(rank) + get_signed(buf)?;
        u32::try_from(p).map(Rank).map_err(|_| DecodeError::BadTag(tag))
    };
    let req = |buf: &mut &[u8], prev: &mut u32| -> Result<ReqId, DecodeError> {
        let r = i64::from(*prev) + get_signed(buf)?;
        let r = u32::try_from(r).map_err(|_| DecodeError::BadTag(tag))?;
        *prev = r;
        Ok(ReqId(r))
    };
    let kind = match tag {
        TAG_COMPUTE => EventKind::Compute,
        TAG_SEND => {
            let peer = peer(buf)?;
            EventKind::Send { peer, bytes: get_varint(buf)?, tag: get_varint(buf)? as u32 }
        }
        TAG_ISEND => {
            let peer = peer(buf)?;
            let bytes = get_varint(buf)?;
            let tag = get_varint(buf)? as u32;
            EventKind::Isend { peer, bytes, tag, req: req(buf, prev_req)? }
        }
        TAG_RECV => {
            let peer = peer(buf)?;
            EventKind::Recv { peer, bytes: get_varint(buf)?, tag: get_varint(buf)? as u32 }
        }
        TAG_IRECV => {
            let peer = peer(buf)?;
            let bytes = get_varint(buf)?;
            let tag = get_varint(buf)? as u32;
            EventKind::Irecv { peer, bytes, tag, req: req(buf, prev_req)? }
        }
        TAG_WAIT => EventKind::Wait { req: req(buf, prev_req)? },
        TAG_WAITALL => {
            let n = get_varint(buf)? as usize;
            // Each request delta costs at least one byte.
            if n > buf.len() {
                return Err(DecodeError::Truncated { context: "waitall reqs" });
            }
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                reqs.push(req(buf, prev_req)?);
            }
            EventKind::WaitAll { reqs }
        }
        TAG_COLL => {
            let (&code, rest) =
                buf.split_first().ok_or(DecodeError::Truncated { context: "coll kind" })?;
            *buf = rest;
            let kind = CollKind::from_code(code).ok_or(DecodeError::BadTag(code))?;
            let bytes = get_varint(buf)?;
            let root = Rank(get_varint(buf)? as u32);
            EventKind::Coll { kind, bytes, root }
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok(Event { kind, dur })
}

/// One rank's entry in the segment index.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// Byte offset into the payload region.
    off: u64,
    /// Segment length in bytes.
    len: u64,
    /// Number of events encoded in the segment.
    count: u64,
}

/// An opened streamed trace: metadata, index, and the compact payload.
///
/// Holds the encoded bytes — typically 5–10× smaller than the decoded
/// `Vec<Vec<Event>>` — and hands out per-rank [`RankCursor`]s that decode
/// one event at a time.
pub struct StreamedTrace {
    meta: TraceMeta,
    index: Vec<Segment>,
    data: Vec<u8>,
    payload_at: usize,
}

impl StreamedTrace {
    /// Parse and fully validate a MASS byte buffer. Every segment is
    /// decoded once (and discarded) so later cursor reads cannot fail.
    pub fn from_bytes(data: Vec<u8>) -> Result<StreamedTrace, StreamError> {
        let mut buf: &[u8] = &data;
        if buf.len() < 8 {
            return Err(DecodeError::Truncated { context: "header" }.into());
        }
        let (magic, rest) = buf.split_at(4);
        buf = rest;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic.into());
        }
        let version = get_u32_le(&mut buf);
        if version != STREAM_VERSION {
            return Err(DecodeError::BadVersion(version).into());
        }
        let app = get_string(&mut buf)?;
        let machine = get_string(&mut buf)?;
        if buf.len() < 4 * 3 + 8 {
            return Err(DecodeError::Truncated { context: "meta" }.into());
        }
        let ranks = get_u32_le(&mut buf);
        let ranks_per_node = get_u32_le(&mut buf);
        let problem_size = get_u32_le(&mut buf);
        let seed = get_u64_le(&mut buf);
        let meta = TraceMeta { app, machine, ranks, ranks_per_node, problem_size, seed };

        // Allocation guard: the index must physically fit before we size
        // a Vec from an untrusted count.
        if (ranks as usize).checked_mul(24).is_none_or(|need| need > buf.len()) {
            return Err(DecodeError::Truncated { context: "segment index" }.into());
        }
        let mut index = Vec::with_capacity(ranks as usize);
        let mut expect_off = 0u64;
        for _ in 0..ranks {
            let off = get_u64_le(&mut buf);
            let len = get_u64_le(&mut buf);
            let count = get_u64_le(&mut buf);
            if off != expect_off {
                return Err(DecodeError::Truncated { context: "segment order" }.into());
            }
            expect_off =
                off.checked_add(len).ok_or(DecodeError::Truncated { context: "segment span" })?;
            index.push(Segment { off, len, count });
        }
        let payload_at = data.len() - buf.len();
        let payload = buf;
        if expect_off != payload.len() as u64 {
            return Err(DecodeError::TrailingBytes(
                (payload.len() as u64).abs_diff(expect_off) as usize
            )
            .into());
        }

        // Validation pass: each segment must decode exactly `count`
        // events from exactly `len` bytes.
        for (r, seg) in index.iter().enumerate() {
            let mut seg_buf = &payload[seg.off as usize..(seg.off + seg.len) as usize];
            let mut prev_req = 0u32;
            for _ in 0..seg.count {
                decode_event(&mut seg_buf, r as u32, &mut prev_req)?;
            }
            if !seg_buf.is_empty() {
                return Err(DecodeError::TrailingBytes(seg_buf.len()).into());
            }
        }
        Ok(StreamedTrace { meta, index, data, payload_at })
    }

    /// Read and validate a streamed trace from disk.
    pub fn open(path: &Path) -> Result<StreamedTrace, StreamError> {
        let data = std::fs::read(path).map_err(|e| StreamError::Io(e.to_string()))?;
        StreamedTrace::from_bytes(data)
    }

    /// Run metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// World size.
    pub fn num_ranks(&self) -> u32 {
        self.meta.ranks
    }

    /// Total events across all ranks (from the index; nothing decoded).
    pub fn num_events(&self) -> u64 {
        self.index.iter().map(|s| s.count).sum()
    }

    /// Events in one rank's stream.
    pub fn rank_len(&self, rank: Rank) -> usize {
        self.index[rank.idx()].count as usize
    }

    /// Bytes held resident for the encoded trace (header + index +
    /// payload) — the number a memory budget should charge.
    pub fn resident_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// A decoding cursor over one rank's stream.
    pub fn cursor(&self, rank: Rank) -> RankCursor<'_> {
        let seg = self.index[rank.idx()];
        let payload = &self.data[self.payload_at..];
        RankCursor {
            buf: &payload[seg.off as usize..(seg.off + seg.len) as usize],
            rank: rank.0,
            total: seg.count as usize,
            decoded: 0,
            prev: None,
            cur: None,
            prev_req: 0,
        }
    }

    /// Decode the whole trace back into the in-memory representation.
    /// Bit-identity with the generator output is asserted by tests.
    pub fn decode_all(&self) -> Trace {
        let events = (0..self.meta.ranks)
            .map(|r| {
                let seg = self.index[r as usize];
                let payload = &self.data[self.payload_at..];
                let mut buf = &payload[seg.off as usize..(seg.off + seg.len) as usize];
                let mut prev_req = 0u32;
                (0..seg.count)
                    .map(|_| decode_event(&mut buf, r, &mut prev_req).expect("validated at open"))
                    .collect()
            })
            .collect();
        Trace { meta: self.meta.clone(), events }
    }
}

impl fmt::Debug for StreamedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamedTrace")
            .field("meta", &self.meta)
            .field("events", &self.num_events())
            .field("bytes", &self.data.len())
            .finish()
    }
}

/// Where a tool reads its events from: a fully materialized [`Trace`]
/// (the study corpus path) or a [`StreamedTrace`] decoded per rank
/// through a small sliding window (the mega-scale path, which never
/// builds the per-rank `Vec<Event>`s). Both tools' single entry points,
/// `masim_sim::run` and `masim_mfact::try_replay`, take
/// `impl Into<TraceSource>`.
#[derive(Clone, Copy)]
pub enum TraceSource<'a> {
    /// In-memory trace.
    Memory(&'a Trace),
    /// Compact on-disk trace, decoded incrementally.
    Streamed(&'a StreamedTrace),
}

impl<'a> From<&'a Trace> for TraceSource<'a> {
    fn from(trace: &'a Trace) -> Self {
        TraceSource::Memory(trace)
    }
}

impl<'a> From<&'a StreamedTrace> for TraceSource<'a> {
    fn from(stream: &'a StreamedTrace) -> Self {
        TraceSource::Streamed(stream)
    }
}

impl TraceSource<'_> {
    /// World size.
    pub fn num_ranks(&self) -> u32 {
        match self {
            TraceSource::Memory(t) => t.num_ranks(),
            TraceSource::Streamed(s) => s.num_ranks(),
        }
    }

    /// Total events across all ranks.
    pub fn num_events(&self) -> u64 {
        match self {
            TraceSource::Memory(t) => t.num_events() as u64,
            TraceSource::Streamed(s) => s.num_events(),
        }
    }

    /// Estimated resident bytes of the event data itself: decoded
    /// vectors for a memory trace, the compact encoded buffer for a
    /// streamed one (its per-rank decode windows are O(1)).
    pub fn resident_bytes(&self) -> u64 {
        match self {
            TraceSource::Memory(t) => {
                t.events.iter().map(|v| v.capacity() * std::mem::size_of::<Event>()).sum::<usize>()
                    as u64
            }
            TraceSource::Streamed(s) => s.resident_bytes(),
        }
    }
}

/// A one-event-at-a-time decoder over a rank's segment.
///
/// Consumers walk a rank's stream with a non-decreasing index, re-reading
/// the current event while the rank is blocked (the runner and mfact
/// retry pattern) and occasionally peeking one event back. The cursor
/// therefore keeps exactly two decoded events of state; anything further
/// back is unreachable by construction and treated as a logic error.
pub struct RankCursor<'a> {
    buf: &'a [u8],
    rank: u32,
    total: usize,
    /// Events decoded so far; `cur` holds event `decoded - 1`.
    decoded: usize,
    prev: Option<Event>,
    cur: Option<Event>,
    prev_req: u32,
}

impl RankCursor<'_> {
    /// Total events in this rank's stream.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the stream has no events at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The event at index `k`. Returns `None` past the end of the
    /// stream. `k` must be the current event, one before it, or the next
    /// undecoded one — the streaming window.
    pub fn get(&mut self, k: usize) -> Option<&Event> {
        if k >= self.total {
            return None;
        }
        if k + 1 == self.decoded {
            return self.cur.as_ref();
        }
        if k + 2 == self.decoded {
            return self.prev.as_ref();
        }
        assert!(
            k == self.decoded,
            "non-streaming access: asked for event {k} with {} decoded",
            self.decoded
        );
        let ev =
            decode_event(&mut self.buf, self.rank, &mut self.prev_req).expect("validated at open");
        self.prev = self.cur.take();
        self.cur = Some(ev);
        self.decoded += 1;
        self.cur.as_ref()
    }

    /// [`RankCursor::get`] by value: moves event `k` out of the window
    /// instead of lending it, for a consumer that reads each event once
    /// and keeps it across calls that need the cursor's owner mutably.
    /// A taken event is gone — asking for `k` again returns `None`.
    pub fn take(&mut self, k: usize) -> Option<Event> {
        self.get(k)?;
        if k + 1 == self.decoded {
            self.cur.take()
        } else {
            self.prev.take()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let meta = TraceMeta {
            app: "CG".into(),
            machine: "edison".into(),
            ranks: 2,
            ranks_per_node: 2,
            problem_size: 3,
            seed: 42,
        };
        let mut t = Trace::empty(meta);
        t.events[0] = vec![
            Event::compute(Time::from_us(10)),
            Event::new(
                EventKind::Isend { peer: Rank(1), bytes: 4096, tag: 1, req: ReqId(0) },
                Time::from_ns(300),
            ),
            Event::new(
                EventKind::Irecv { peer: Rank(1), bytes: 4096, tag: 2, req: ReqId(1) },
                Time::from_ns(200),
            ),
            Event::new(EventKind::WaitAll { reqs: vec![ReqId(0), ReqId(1)] }, Time::from_us(2)),
            Event::new(
                EventKind::Coll { kind: CollKind::Allreduce, bytes: 8, root: Rank(0) },
                Time::from_us(5),
            ),
        ];
        t.events[1] = vec![
            Event::compute(Time::from_us(11)),
            Event::new(EventKind::Recv { peer: Rank(0), bytes: 4096, tag: 1 }, Time::from_ns(200)),
            Event::new(EventKind::Send { peer: Rank(0), bytes: 4096, tag: 2 }, Time::from_ns(300)),
            Event::new(EventKind::Wait { req: ReqId(7) }, Time::from_us(1)),
            Event::new(
                EventKind::Coll { kind: CollKind::Allreduce, bytes: 8, root: Rank(0) },
                Time::from_us(5),
            ),
        ];
        t
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            put_varint(&mut buf, v);
        }
        let mut rd: &[u8] = &buf;
        for &v in &vals {
            assert_eq!(get_varint(&mut rd).unwrap(), v);
        }
        assert!(rd.is_empty());

        let mut buf = Vec::new();
        let signed = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        for &v in &signed {
            put_signed(&mut buf, v);
        }
        let mut rd: &[u8] = &buf;
        for &v in &signed {
            assert_eq!(get_signed(&mut rd).unwrap(), v);
        }
    }

    #[test]
    fn stream_round_trip_is_bit_identical() {
        let t = sample();
        let bytes = encode_stream(&t);
        let st = StreamedTrace::from_bytes(bytes).expect("open");
        assert_eq!(st.num_ranks(), 2);
        assert_eq!(st.num_events(), 10);
        assert_eq!(st.decode_all(), t);
    }

    #[test]
    fn cursor_matches_indexed_access() {
        let t = sample();
        let st = StreamedTrace::from_bytes(encode_stream(&t)).expect("open");
        for r in 0..2u32 {
            let mut c = st.cursor(Rank(r));
            assert_eq!(c.len(), t.events[r as usize].len());
            for (k, want) in t.events[r as usize].iter().enumerate() {
                // Re-reads of the same index must be stable (the blocked
                // rank retry pattern), and one-back peeks must work.
                assert_eq!(c.get(k), Some(want));
                assert_eq!(c.get(k), Some(want));
                if k > 0 {
                    assert_eq!(c.get(k - 1), Some(&t.events[r as usize][k - 1]));
                }
            }
            assert_eq!(c.get(c.len()), None);
        }
    }

    #[test]
    fn cursor_take_walks_the_stream_by_value() {
        let t = sample();
        let st = StreamedTrace::from_bytes(encode_stream(&t)).expect("open");
        for r in 0..2u32 {
            let mut c = st.cursor(Rank(r));
            for (k, want) in t.events[r as usize].iter().enumerate() {
                assert_eq!(c.take(k).as_ref(), Some(want));
                assert_eq!(c.get(k), None, "a taken event is gone");
            }
            assert_eq!(c.take(c.len()), None);
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode_stream(&sample());
        for cut in 0..bytes.len() {
            assert!(
                StreamedTrace::from_bytes(bytes[..cut].to_vec()).is_err(),
                "prefix of {cut} bytes unexpectedly opened"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut b = encode_stream(&sample());
        b[0] = b'X';
        assert!(matches!(
            StreamedTrace::from_bytes(b),
            Err(StreamError::Decode(DecodeError::BadMagic))
        ));
        let mut b = encode_stream(&sample());
        b[4] = 9;
        assert!(matches!(
            StreamedTrace::from_bytes(b),
            Err(StreamError::Decode(DecodeError::BadVersion(9)))
        ));
    }

    #[test]
    fn corrupt_payload_rejected_at_open() {
        let good = encode_stream(&sample());
        // Flip every payload byte in turn; open must never panic, and
        // either rejects the buffer or yields a decodable (different)
        // trace — silent acceptance of a *shorter* segment is impossible
        // because lengths and counts are cross-checked.
        let mut rejected = 0;
        for i in 0..good.len() {
            let mut b = good.clone();
            b[i] ^= 0xff;
            if StreamedTrace::from_bytes(b).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > good.len() / 2, "only {rejected}/{} flips rejected", good.len());
    }

    #[test]
    fn file_round_trip() {
        let t = sample();
        let dir = std::env::temp_dir().join("masim_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.mass");
        write_stream(&t, &path).expect("write");
        let st = StreamedTrace::open(&path).expect("open");
        assert_eq!(st.decode_all(), t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compactness_beats_fixed_width() {
        let t = sample();
        let streamed = encode_stream(&t).len();
        let fixed = crate::io::encode(&t).len();
        assert!(streamed < fixed, "streamed {streamed}B >= fixed {fixed}B");
    }
}
