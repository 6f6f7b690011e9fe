//! Streamed access to the binary trace format ([`crate::io`]): a
//! [`StreamedTrace`] holds the compact encoded bytes and hands out
//! per-rank [`RankCursor`]s that decode one event at a time, so consumers
//! need only the compact bytes plus one `Event` of state per rank.
//! [`TraceSource`] lets both tools take either this or an in-memory
//! [`Trace`].

use crate::event::Event;
use crate::ids::Rank;
use crate::io::{decode_event, DecodeError, Layout};
use crate::trace::{Trace, TraceMeta};
use std::fmt;
use std::io::Write;
use std::path::Path;

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

/// Write a trace to `path` in the binary format, streamed segment by
/// segment through a buffered file: the encoded trace is never held in
/// memory whole.
pub fn write_stream(trace: &Trace, path: &Path) -> Result<(), StreamError> {
    let io_err = |e: std::io::Error| StreamError::Io(e.to_string());
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(io_err)?);
    crate::io::write_mass(trace, &mut file).map_err(io_err)
}

/// A MASS trace built one event at a time, ranks in any interleaving:
/// each event is encoded into its rank's segment as it arrives, and
/// [`SegmentWriter::write`] puts header, index and segments into a file
/// in one pass. What it holds is the encoded trace, never a decoded
/// event — the generator's streamed path writes through it.
pub struct SegmentWriter {
    segments: Vec<RankSegment>,
}

/// One rank's segment under construction.
#[derive(Clone, Default)]
struct RankSegment {
    bytes: Vec<u8>,
    count: u64,
    prev_req: u32,
}

impl SegmentWriter {
    /// An empty trace of `ranks` ranks.
    pub fn new(ranks: u32) -> SegmentWriter {
        SegmentWriter { segments: vec![RankSegment::default(); ranks as usize] }
    }

    /// Append `event` to `rank`'s stream.
    pub fn push(&mut self, rank: Rank, event: &Event) {
        let seg = &mut self.segments[rank.idx()];
        crate::io::encode_event(&mut seg.bytes, rank.0, &mut seg.prev_req, event);
        seg.count += 1;
    }

    /// Write the trace to `path` under `meta`; the bytes equal
    /// [`write_stream`]'s for the same events.
    pub fn write(self, meta: &TraceMeta, path: &Path) -> Result<(), StreamError> {
        let io_err = |e: std::io::Error| StreamError::Io(e.to_string());
        let sizes: Vec<_> = self.segments.iter().map(|s| (s.bytes.len() as u64, s.count)).collect();
        let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(io_err)?);
        file.write_all(&crate::io::head(meta, &sizes)).map_err(io_err)?;
        for seg in &self.segments {
            file.write_all(&seg.bytes).map_err(io_err)?;
        }
        file.flush().map_err(io_err)
    }
}

/// An opened streamed trace: its validated layout and the compact bytes.
///
/// Holds the encoded bytes — typically 5–10× smaller than the decoded
/// `Vec<Vec<Event>>` — and hands out per-rank [`RankCursor`]s that decode
/// one event at a time.
pub struct StreamedTrace {
    layout: Layout,
    data: Vec<u8>,
}

impl StreamedTrace {
    /// Parse and fully validate an encoded buffer. Every segment is
    /// decoded once (and discarded) so later cursor reads cannot fail.
    pub fn from_bytes(data: Vec<u8>) -> Result<StreamedTrace, StreamError> {
        Ok(StreamedTrace { layout: Layout::open(&data)?, data })
    }

    /// Read and validate a streamed trace from disk.
    pub fn open(path: &Path) -> Result<StreamedTrace, StreamError> {
        let data = std::fs::read(path).map_err(|e| StreamError::Io(e.to_string()))?;
        StreamedTrace::from_bytes(data)
    }

    /// Run metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.layout.meta
    }

    /// World size.
    pub fn num_ranks(&self) -> u32 {
        self.layout.meta.ranks
    }

    /// Total events across all ranks (from the index; nothing decoded).
    pub fn num_events(&self) -> u64 {
        self.layout.index.iter().map(|s| s.count).sum()
    }

    /// Bytes held resident for the encoded trace (header + index +
    /// payload) — the number a memory budget should charge.
    pub fn resident_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// A decoding cursor over one rank's stream.
    pub fn cursor(&self, rank: Rank) -> RankCursor<'_> {
        RankCursor {
            buf: self.layout.segment(&self.data, rank),
            rank: rank.0,
            total: self.layout.index[rank.idx()].count as usize,
            decoded: 0,
            cur: None,
            prev_req: 0,
        }
    }
}

impl fmt::Debug for StreamedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamedTrace")
            .field("meta", &self.layout.meta)
            .field("events", &self.num_events())
            .field("bytes", &self.data.len())
            .finish()
    }
}

/// Where a tool reads its events from: a fully materialized [`Trace`]
/// (the study corpus path) or a [`StreamedTrace`] decoded per rank
/// through a one-event window (the mega-scale path, which never builds
/// the per-rank `Vec<Event>`s). [`crate::Walker`] reads either, and both
/// tools' single entry points, `masim_sim::run` and
/// `masim_mfact::try_replay`, take `impl Into<TraceSource>`.
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

impl<'a> TraceSource<'a> {
    /// Run metadata.
    pub fn meta(&self) -> &'a TraceMeta {
        match *self {
            TraceSource::Memory(t) => &t.meta,
            TraceSource::Streamed(s) => s.meta(),
        }
    }

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

    /// Rank `r`'s events, read forward.
    pub(crate) fn reader(&self, r: Rank) -> RankReader<'a> {
        match *self {
            TraceSource::Memory(t) => RankReader::Memory { events: &t.events[r.idx()], read: 0 },
            TraceSource::Streamed(s) => RankReader::Streamed(s.cursor(r)),
        }
    }
}

/// One rank's events, read forward once from either source, with the
/// event read last still at hand (a wait's ids).
pub(crate) enum RankReader<'a> {
    /// A borrowed stream and how many of its events were read.
    Memory { events: &'a [Event], read: usize },
    /// A decoding window.
    Streamed(RankCursor<'a>),
}

impl RankReader<'_> {
    /// The next event, `None` past the end.
    #[inline(always)]
    pub(crate) fn next(&mut self) -> Option<&Event> {
        match self {
            RankReader::Memory { events, read } => {
                let ev = events.get(*read)?;
                *read += 1;
                Some(ev)
            }
            RankReader::Streamed(c) => c.get(c.decoded),
        }
    }

    /// The event [`RankReader::next`] returned last.
    #[inline(always)]
    pub(crate) fn current(&self) -> Option<&Event> {
        match self {
            RankReader::Memory { events, read } => events.get(read.checked_sub(1)?),
            RankReader::Streamed(c) => c.cur.as_ref(),
        }
    }
}

/// A one-event-at-a-time decoder over a rank's segment.
///
/// Consumers walk a rank's stream with a non-decreasing index, re-reading
/// the current event (a wait's ids, read again when the wait is run).
/// The cursor therefore keeps exactly one decoded event of state;
/// anything further back is unreachable by construction and treated as
/// a logic error.
pub struct RankCursor<'a> {
    buf: &'a [u8],
    rank: u32,
    total: usize,
    /// Events decoded so far; `cur` holds event `decoded - 1`.
    decoded: usize,
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
    /// stream. `k` must be the current event or the next undecoded one
    /// — the streaming window.
    pub fn get(&mut self, k: usize) -> Option<&Event> {
        if k >= self.total {
            return None;
        }
        if k + 1 != self.decoded {
            assert!(
                k == self.decoded,
                "non-streaming access: asked for event {k} with {} decoded",
                self.decoded
            );
            let ev = decode_event(&mut self.buf, self.rank, &mut self.prev_req)
                .expect("validated at open");
            self.cur = Some(ev);
            self.decoded += 1;
        }
        self.cur.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollKind, EventKind};
    use crate::ids::ReqId;
    use crate::io::encode;
    use crate::time::Time;

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

    /// Every rank's events, read through its reader.
    fn walk(src: TraceSource<'_>) -> Vec<Vec<Event>> {
        let read = |r| {
            let mut reader = src.reader(Rank(r));
            std::iter::from_fn(|| reader.next().cloned()).collect()
        };
        (0..src.num_ranks()).map(read).collect()
    }

    #[test]
    fn stream_round_trip_is_bit_identical() {
        let t = sample();
        let bytes = encode(&t);
        assert_eq!(crate::io::decode(&bytes).as_ref(), Ok(&t));
        let st = StreamedTrace::from_bytes(bytes).expect("open");
        assert_eq!(st.num_ranks(), 2);
        assert_eq!(st.num_events(), 10);
        assert_eq!(walk((&st).into()), t.events);
        assert_eq!(walk((&t).into()), t.events);
    }

    #[test]
    fn cursor_matches_indexed_access() {
        let t = sample();
        let st = StreamedTrace::from_bytes(encode(&t)).expect("open");
        for r in 0..2u32 {
            let mut c = st.cursor(Rank(r));
            assert_eq!(c.len(), t.events[r as usize].len());
            for (k, want) in t.events[r as usize].iter().enumerate() {
                // Re-reads of the current index must be stable (a wait
                // run again).
                assert_eq!(c.get(k), Some(want));
                assert_eq!(c.get(k), Some(want));
            }
            assert_eq!(c.get(c.len()), None);
        }
    }

    #[test]
    fn readers_keep_the_event_read_last() {
        let t = sample();
        let st = StreamedTrace::from_bytes(encode(&t)).expect("open");
        for src in [TraceSource::from(&t), TraceSource::from(&st)] {
            for (r, events) in t.events.iter().enumerate() {
                let mut reader = src.reader(Rank(r as u32));
                assert_eq!(reader.current(), None);
                for want in events {
                    assert_eq!(reader.next(), Some(want));
                    assert_eq!(reader.current(), Some(want));
                }
                assert_eq!(reader.next(), None);
            }
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(
                StreamedTrace::from_bytes(bytes[..cut].to_vec()).is_err(),
                "prefix of {cut} bytes unexpectedly opened"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut b = encode(&sample());
        b[0] = b'X';
        assert!(matches!(
            StreamedTrace::from_bytes(b),
            Err(StreamError::Decode(DecodeError::BadMagic))
        ));
        let mut b = encode(&sample());
        b[4] = 9;
        assert!(matches!(
            StreamedTrace::from_bytes(b),
            Err(StreamError::Decode(DecodeError::BadVersion(9)))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = encode(&sample());
        b.push(0);
        assert!(matches!(
            StreamedTrace::from_bytes(b),
            Err(StreamError::Decode(DecodeError::TrailingBytes(1)))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let t = sample();
        let mut b = encode(&t);
        // Rank 0's first tag byte opens the payload, right after the index.
        b[encode(&Trace::empty(t.meta.clone())).len()] = 250;
        assert!(matches!(
            StreamedTrace::from_bytes(b),
            Err(StreamError::Decode(DecodeError::BadTag(250)))
        ));
    }

    #[test]
    fn corrupt_payload_rejected_at_open() {
        let good = encode(&sample());
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
        assert_eq!(std::fs::read(&path).unwrap(), encode(&t), "one encoder, two sinks");
        let st = StreamedTrace::open(&path).expect("open");
        assert_eq!((st.meta(), walk((&st).into())), (&t.meta, t.events));
        std::fs::remove_file(&path).ok();
    }
}
