//! The binary trace format, MASS v1: a compact varint-delta encoding with
//! a per-rank segment index, so consumers can decode one event at a time
//! per rank ([`crate::stream::StreamedTrace`]) instead of materializing
//! `Vec<Vec<Event>>` — the memory floor that kept the corpus off
//! Edison/Frontier-class rank counts — or the whole trace at once
//! ([`decode`]).
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
//! Fixed-width fields are little-endian. Within a rank's segment every
//! event is `tag u8` + LEB128 varints. Durations are varint picoseconds;
//! peers are zigzag deltas from the owning rank; request ids are zigzag
//! deltas from the previously mentioned request (generators issue them
//! sequentially, so deltas are tiny); collective roots are plain varints.
//!
//! Every buffer or file is validated once, when it is opened (a
//! decode-and-discard pass: one head parse, then one check per segment,
//! whichever the bytes come from): segments must tile the
//! payload, decode exactly their event counts, and name only ranks of the
//! trace. A file that changes after it was opened is caught where a
//! cursor reads it ([`crate::TraceError::Unreadable`]). The version is
//! checked and a mismatch is an error; there are no backward-compat shims.

use crate::event::{CollKind, Event, EventKind};
use crate::ids::{Rank, ReqId};
use crate::time::Time;
use crate::trace::{Trace, TraceMeta};
use std::fmt;
use std::io::{Cursor, Seek, SeekFrom, Write};

/// Current format revision.
const VERSION: u32 = 1;
const MAGIC: &[u8; 4] = b"MASS";

// Event tag bytes.
const TAG_COMPUTE: u8 = 0;
const TAG_SEND: u8 = 1;
const TAG_ISEND: u8 = 2;
const TAG_RECV: u8 = 3;
const TAG_IRECV: u8 = 4;
const TAG_WAIT: u8 = 5;
const TAG_WAITALL: u8 = 6;
const TAG_COLL: u8 = 7;

/// Decoding failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Buffer does not start with the `MASS` magic.
    BadMagic,
    /// Format revision not understood.
    BadVersion(u32),
    /// Buffer ended mid-record; `context` names the record being read.
    Truncated {
        /// What was being decoded when the buffer ran out.
        context: &'static str,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Unknown event or collective tag byte.
    BadTag(u8),
    /// Trailing garbage after the last stream.
    TrailingBytes(usize),
    /// A field whose value the trace cannot hold: a `u32` field encoded
    /// wider, a peer or root outside the world, zero ranks per node.
    OutOfRange {
        /// Which field.
        field: &'static str,
        /// The value found.
        value: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a masim trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            DecodeError::Truncated { context } => {
                write!(f, "trace truncated while reading {context}")
            }
            DecodeError::BadUtf8 => write!(f, "non-UTF-8 string field"),
            DecodeError::BadTag(t) => write!(f, "unknown record tag {t}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after trace"),
            DecodeError::OutOfRange { field, value } => write!(f, "{field} {value} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---- fixed-width and varint primitives ---------------------------------

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

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

/// A varint that must fit the `u32` field it encodes.
#[inline]
fn get_u32_varint(buf: &mut &[u8], field: &'static str) -> Result<u32, DecodeError> {
    let v = get_varint(buf)?;
    u32::try_from(v).map_err(|_| DecodeError::OutOfRange { field, value: v })
}

// ---- encoding ----------------------------------------------------------

/// Append one event of `rank`'s stream to its payload segment: the tag,
/// the duration, then the kind's fields. `prev_req` carries the request
/// delta base from one event of the rank to the next, as in
/// [`decode_event`].
pub(crate) fn encode_event(out: &mut Vec<u8>, rank: u32, prev_req: &mut u32, e: &Event) {
    let mut req_delta = |buf: &mut Vec<u8>, req: ReqId| {
        put_signed(buf, i64::from(req.0) - i64::from(*prev_req));
        *prev_req = req.0;
    };
    let (code, p2p) = match &e.kind {
        EventKind::Compute => (TAG_COMPUTE, None),
        EventKind::Send { peer, bytes, tag } => (TAG_SEND, Some((peer, bytes, tag))),
        EventKind::Isend { peer, bytes, tag, .. } => (TAG_ISEND, Some((peer, bytes, tag))),
        EventKind::Recv { peer, bytes, tag } => (TAG_RECV, Some((peer, bytes, tag))),
        EventKind::Irecv { peer, bytes, tag, .. } => (TAG_IRECV, Some((peer, bytes, tag))),
        EventKind::Wait { .. } => (TAG_WAIT, None),
        EventKind::WaitAll { .. } => (TAG_WAITALL, None),
        EventKind::Coll { .. } => (TAG_COLL, None),
    };
    out.push(code);
    put_varint(out, e.dur.as_ps());
    if let Some((peer, bytes, tag)) = p2p {
        put_signed(out, i64::from(peer.0) - i64::from(rank));
        put_varint(out, *bytes);
        put_varint(out, u64::from(*tag));
    }
    match &e.kind {
        EventKind::Isend { req, .. } | EventKind::Irecv { req, .. } | EventKind::Wait { req } => {
            req_delta(out, *req)
        }
        EventKind::WaitAll { reqs } => {
            put_varint(out, reqs.len() as u64);
            for r in reqs {
                req_delta(out, *r);
            }
        }
        EventKind::Coll { kind, bytes, root } => {
            out.push(kind.code());
            put_varint(out, *bytes);
            put_varint(out, u64::from(root.0));
        }
        EventKind::Compute | EventKind::Send { .. } | EventKind::Recv { .. } => {}
    }
}

/// The header and segment index of a MASS buffer: `meta`, then per rank
/// its segment's `(byte length, event count)` from `segments`, with
/// offsets accumulated in rank order. Both writers put exactly this in
/// front of the payload: [`write_mass`] once as a placeholder and once
/// filled in, [`crate::stream::SegmentWriter`] once.
pub(crate) fn head(meta: &TraceMeta, segments: &[(u64, u64)]) -> Vec<u8> {
    let mut head =
        Vec::with_capacity(64 + meta.app.len() + meta.machine.len() + segments.len() * 24);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    put_string(&mut head, &meta.app);
    put_string(&mut head, &meta.machine);
    for v in [meta.ranks, meta.ranks_per_node, meta.problem_size] {
        head.extend_from_slice(&v.to_le_bytes());
    }
    head.extend_from_slice(&meta.seed.to_le_bytes());
    let mut offset = 0;
    for &(len, count) in segments {
        for v in [offset, len, count] {
            head.extend_from_slice(&v.to_le_bytes());
        }
        offset += len;
    }
    head
}

/// Serialize a trace to its binary form.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out =
        Cursor::new(Vec::with_capacity(64 + trace.events.len() * 24 + trace.num_events() * 6));
    // Writes and seeks into a `Cursor<Vec<u8>>` cannot fail.
    let _ = write_mass(trace, &mut out);
    out.into_inner()
}

/// Write `trace` in MASS to `w`, which starts at offset 0: one rank's
/// segment at a time, then seek back to fill in the index and flush.
/// [`encode`] runs it into memory, [`crate::write_stream`] into a file,
/// which never holds more than one encoded segment.
pub(crate) fn write_mass<W: Write + Seek>(trace: &Trace, w: &mut W) -> std::io::Result<()> {
    let mut segments = vec![(0, 0); trace.events.len()];
    w.write_all(&head(&trace.meta, &segments))?;
    let mut seg = Vec::new();
    for (r, events) in trace.events.iter().enumerate() {
        seg.clear();
        let mut prev_req = 0;
        for e in events {
            encode_event(&mut seg, r as u32, &mut prev_req, e);
        }
        w.write_all(&seg)?;
        segments[r] = (seg.len() as u64, events.len() as u64);
    }
    w.seek(SeekFrom::Start(0))?;
    w.write_all(&head(&trace.meta, &segments))?;
    w.flush()
}

// ---- decoding ----------------------------------------------------------

/// Decode one event; `rank` and `prev_req` carry the delta bases.
pub(crate) fn decode_event(
    buf: &mut &[u8],
    rank: u32,
    prev_req: &mut u32,
) -> Result<Event, DecodeError> {
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
            EventKind::Send { peer, bytes: get_varint(buf)?, tag: get_u32_varint(buf, "tag")? }
        }
        TAG_ISEND => {
            let peer = peer(buf)?;
            let bytes = get_varint(buf)?;
            let tag = get_u32_varint(buf, "tag")?;
            EventKind::Isend { peer, bytes, tag, req: req(buf, prev_req)? }
        }
        TAG_RECV => {
            let peer = peer(buf)?;
            EventKind::Recv { peer, bytes: get_varint(buf)?, tag: get_u32_varint(buf, "tag")? }
        }
        TAG_IRECV => {
            let peer = peer(buf)?;
            let bytes = get_varint(buf)?;
            let tag = get_u32_varint(buf, "tag")?;
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
            let root = Rank(get_u32_varint(buf, "root")?);
            EventKind::Coll { kind, bytes, root }
        }
        other => return Err(DecodeError::BadTag(other)),
    };
    Ok(Event { kind, dur })
}

/// One rank's entry in the segment index.
#[derive(Clone, Copy)]
pub(crate) struct Segment {
    /// Byte offset into the payload region.
    off: u64,
    /// Segment length in bytes.
    len: u64,
    /// Number of events encoded in the segment.
    pub(crate) count: u64,
}

/// What opening a buffer learns about it: metadata, the segment index and
/// where the payload starts. Only [`Layout::read_head`] builds one, and
/// both openers ([`Layout::open`], [`crate::StreamedTrace::open`]) run
/// [`check_segment`] on every segment before they hand it out, so holding
/// one means its bytes passed validation.
pub(crate) struct Layout {
    pub(crate) meta: TraceMeta,
    pub(crate) index: Vec<Segment>,
    payload_at: u64,
}

/// A buffer's head bytes, handed out front to back by `read`, with
/// `left` bytes of the buffer unread: a field the rest cannot hold is
/// [`DecodeError::Truncated`] before it is read or allocated for.
struct HeadReader<F> {
    read: F,
    left: u64,
}

impl<E: From<DecodeError>, F: FnMut(&mut [u8]) -> Result<(), E>> HeadReader<F> {
    fn fill(&mut self, out: &mut [u8], context: &'static str) -> Result<(), E> {
        self.left =
            self.left.checked_sub(out.len() as u64).ok_or(DecodeError::Truncated { context })?;
        (self.read)(out)
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], E> {
        let mut out = [0; N];
        self.fill(&mut out, context)?;
        Ok(out)
    }

    fn string(&mut self) -> Result<String, E> {
        let len = u32::from_le_bytes(self.array("string length")?);
        if u64::from(len) > self.left {
            return Err(DecodeError::Truncated { context: "string body" }.into());
        }
        let mut body = vec![0; len as usize];
        self.fill(&mut body, "string body")?;
        String::from_utf8(body).map_err(|_| DecodeError::BadUtf8.into())
    }
}

/// A little-endian `u32` at `at` of a head field.
fn le_u32(field: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([field[at], field[at + 1], field[at + 2], field[at + 3]])
}

/// A little-endian `u64` at `at` of a head field.
fn le_u64(field: &[u8], at: usize) -> u64 {
    u64::from(le_u32(field, at)) | u64::from(le_u32(field, at + 4)) << 32
}

impl Layout {
    /// Parse the header and segment index of a buffer of `total` bytes
    /// whose bytes `read` fills in front to back. The segments must tile
    /// exactly the bytes after the index; they are not read here.
    pub(crate) fn read_head<E: From<DecodeError>>(
        total: u64,
        read: impl FnMut(&mut [u8]) -> Result<(), E>,
    ) -> Result<Layout, E> {
        let mut head = HeadReader { read, left: total };
        let fixed: [u8; 8] = head.array("header")?;
        if &fixed[..4] != MAGIC {
            return Err(DecodeError::BadMagic.into());
        }
        let version = le_u32(&fixed, 4);
        if version != VERSION {
            return Err(DecodeError::BadVersion(version).into());
        }
        let app = head.string()?;
        let machine = head.string()?;
        let fields: [u8; 20] = head.array("meta")?;
        let (ranks, ranks_per_node) = (le_u32(&fields, 0), le_u32(&fields, 4));
        let (problem_size, seed) = (le_u32(&fields, 8), le_u64(&fields, 12));
        if ranks_per_node == 0 {
            return Err(DecodeError::OutOfRange { field: "ranks_per_node", value: 0 }.into());
        }
        let meta = TraceMeta { app, machine, ranks, ranks_per_node, problem_size, seed };

        // Allocation guard: the index must physically fit before we size
        // a Vec from an untrusted count.
        if u64::from(ranks) * 24 > head.left {
            return Err(DecodeError::Truncated { context: "segment index" }.into());
        }
        let mut index = Vec::with_capacity(ranks as usize);
        let mut expect_off = 0u64;
        for _ in 0..ranks {
            let entry: [u8; 24] = head.array("segment index")?;
            let (off, len, count) = (le_u64(&entry, 0), le_u64(&entry, 8), le_u64(&entry, 16));
            if off != expect_off {
                return Err(DecodeError::Truncated { context: "segment order" }.into());
            }
            expect_off =
                off.checked_add(len).ok_or(DecodeError::Truncated { context: "segment span" })?;
            index.push(Segment { off, len, count });
        }
        let payload_len = head.left;
        if expect_off > payload_len {
            return Err(DecodeError::Truncated { context: "segment payload" }.into());
        }
        if expect_off < payload_len {
            return Err(DecodeError::TrailingBytes((payload_len - expect_off) as usize).into());
        }
        Ok(Layout { meta, index, payload_at: total - payload_len })
    }

    /// Parse and fully validate a buffer: its head, then every segment
    /// decoded once (and discarded).
    pub(crate) fn open(data: &[u8]) -> Result<Layout, DecodeError> {
        let mut rest = data;
        let layout = Layout::read_head(data.len() as u64, |out: &mut [u8]| {
            let (head, tail) = rest
                .split_at_checked(out.len())
                .ok_or(DecodeError::Truncated { context: "header" })?;
            out.copy_from_slice(head);
            rest = tail;
            Ok(())
        })?;
        for r in 0..layout.meta.ranks {
            layout.check_segment(Rank(r), layout.segment(data, Rank(r)))?;
        }
        Ok(layout)
    }

    /// Check `rank`'s segment `seg`: it must decode exactly its event
    /// count from exactly its bytes, naming only ranks that exist. The
    /// one validator of both openers.
    pub(crate) fn check_segment(&self, rank: Rank, mut seg: &[u8]) -> Result<(), DecodeError> {
        let ranks = self.meta.ranks;
        let mut prev_req = 0u32;
        for _ in 0..self.index[rank.idx()].count {
            let (field, Rank(v)) = match decode_event(&mut seg, rank.0, &mut prev_req)?.kind {
                EventKind::Send { peer, .. }
                | EventKind::Isend { peer, .. }
                | EventKind::Recv { peer, .. }
                | EventKind::Irecv { peer, .. } => ("peer", peer),
                EventKind::Coll { root, .. } => ("root", root),
                _ => continue,
            };
            if v >= ranks {
                return Err(DecodeError::OutOfRange { field, value: v.into() });
            }
        }
        if !seg.is_empty() {
            return Err(DecodeError::TrailingBytes(seg.len()));
        }
        Ok(())
    }

    /// Where `rank`'s segment lies in the whole buffer, in bytes.
    pub(crate) fn span(&self, rank: Rank) -> std::ops::Range<u64> {
        let seg = self.index[rank.idx()];
        let at = self.payload_at + seg.off;
        at..at + seg.len
    }

    /// `rank`'s segment within `data`, the buffer this layout was opened on.
    pub(crate) fn segment<'a>(&self, data: &'a [u8], rank: Rank) -> &'a [u8] {
        let span = self.span(rank);
        &data[span.start as usize..span.end as usize]
    }
}

/// Deserialize a trace from its binary form: the open-time validation,
/// then every event decoded.
pub fn decode(buf: &[u8]) -> Result<Trace, DecodeError> {
    let layout = Layout::open(buf)?;
    let events = (0..layout.meta.ranks)
        .map(|r| {
            let mut seg = layout.segment(buf, Rank(r));
            let mut prev_req = 0u32;
            (0..layout.index[r as usize].count)
                .map(|_| decode_event(&mut seg, r, &mut prev_req))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    Ok(Trace { meta: layout.meta, events })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
