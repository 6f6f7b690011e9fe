//! Streamed access to the binary trace format ([`crate::io`]): a
//! [`StreamedTrace`] holds the header and segment index of an encoded
//! trace, and reads each rank's segment from its file (or from an encoded
//! buffer) through a small per-rank window, decoding one event at a time.
//! So a replay needs the index, one window and one `Event` of state per
//! rank, never the encoded bytes whole. [`TraceSource`] lets both tools
//! take either this or an in-memory [`Trace`].

use crate::event::Event;
use crate::ids::Rank;
use crate::io::{decode_event, DecodeError, Layout, Segment};
use crate::trace::{Trace, TraceError, TraceMeta};
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Bytes of each rank's decode window. A refill reads up to this much of
/// the rank's segment at once; the 64k-rank `repro scale` run averages
/// ≈ 790 B per segment and refills 191 536 times, ≈ 3 per rank. Each
/// refill is a `read_exact_at`, a system call that costs that run
/// 3–5 µs of wall, so the width trades wall time for peak RSS: 160 B
/// windows refilled 374 400 times and cost the run ≈ 25 % of its wall
/// against holding the file, 512 B ones 127 992 times but read 27 MB
/// more peak RSS. An event longer than the window (a long `WaitAll`)
/// grows that rank's window alone, for as long as the event's bytes are
/// in it.
const WINDOW: usize = 320;

/// Where a streamed trace's segments are read from.
enum Payload {
    /// The encoded buffer, held whole ([`StreamedTrace::from_bytes`]).
    Memory(Vec<u8>),
    /// The file it was opened from ([`StreamedTrace::open`]), read at
    /// offsets.
    File(File),
}

/// An opened streamed trace: its validated header and segment index, and
/// where its segments are read from.
///
/// [`StreamedTrace::open`] keeps the file, not its bytes: a replay reads
/// each rank's segment through that rank's window, so it holds the
/// index (24 B per rank) and the windows ([`StreamedTrace::WINDOW`] B per
/// rank) whatever the trace's length. [`StreamedTrace::from_bytes`] keeps
/// its buffer and reads it through the same windows.
pub struct StreamedTrace {
    layout: Layout,
    payload: Payload,
    /// Window refills so far, over every replay of this trace.
    refills: AtomicU64,
}

impl StreamedTrace {
    /// Bytes of each rank's decode window.
    pub const WINDOW: usize = WINDOW;

    fn new(layout: Layout, payload: Payload) -> StreamedTrace {
        StreamedTrace { layout, payload, refills: AtomicU64::new(0) }
    }

    /// Parse and fully validate an encoded buffer, which is kept. Every
    /// segment is decoded once (and discarded), so a later read fails
    /// only if the bytes change.
    pub fn from_bytes(data: Vec<u8>) -> Result<StreamedTrace, StreamError> {
        Ok(StreamedTrace::new(Layout::open(&data)?, Payload::Memory(data)))
    }

    /// Open and fully validate a streamed trace on disk, in one buffered
    /// pass that holds one segment at a time: the same checks as
    /// [`StreamedTrace::from_bytes`]. The file stays open and its bytes
    /// are read again, a window at a time, as a replay reaches them.
    pub fn open(path: &Path) -> Result<StreamedTrace, StreamError> {
        let io = |e: std::io::Error| StreamError::Io(e.to_string());
        let file = File::open(path).map_err(io)?;
        let total = file.metadata().map_err(io)?.len();
        let mut reader = std::io::BufReader::with_capacity(1 << 16, &file);
        let layout = Layout::read_head(total, |out| reader.read_exact(out).map_err(io))?;
        let mut seg = Vec::new();
        for r in 0..layout.meta.ranks {
            let span = layout.span(Rank(r));
            // The segments tile the file, so one fits in it.
            seg.resize((span.end - span.start) as usize, 0);
            reader.read_exact(&mut seg).map_err(io)?;
            layout.check_segment(Rank(r), &seg)?;
        }
        drop(reader);
        Ok(StreamedTrace::new(layout, Payload::File(file)))
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

    /// Bytes a replay of this trace holds for it — the number a memory
    /// budget should charge: the segment index and one window per rank,
    /// plus the encoded buffer when [`StreamedTrace::from_bytes`] keeps
    /// one. A window grown for a long event is not counted.
    pub fn resident_bytes(&self) -> u64 {
        let ranks = self.layout.index.len();
        let held = match &self.payload {
            Payload::Memory(data) => data.len(),
            Payload::File(_) => 0,
        };
        (ranks * (std::mem::size_of::<Segment>() + WINDOW) + held) as u64
    }

    /// How many times a window was refilled (a `read_exact_at` of the
    /// file, or a copy out of the buffer), over every replay so far.
    pub fn refills(&self) -> u64 {
        self.refills.load(Ordering::Relaxed)
    }

    /// Fill `out` with the trace's bytes from offset `at`.
    fn read_at(&self, out: &mut [u8], at: u64) -> Result<(), StreamError> {
        self.refills.fetch_add(1, Ordering::Relaxed);
        match &self.payload {
            Payload::Memory(data) => {
                let src = usize::try_from(at).ok().and_then(|at| data.get(at..at + out.len()));
                out.copy_from_slice(src.ok_or(DecodeError::Truncated { context: "segment" })?);
                Ok(())
            }
            Payload::File(file) => {
                file.read_exact_at(out, at).map_err(|e| StreamError::Io(e.to_string()))
            }
        }
    }

    /// A decoding cursor over one rank's stream, with a window of its own.
    pub fn cursor(&self, rank: Rank) -> RankCursor<'_> {
        let (reader, window) = (SegmentReader::new(self, rank), Windows::new(1));
        RankCursor { rank, reader, window, decoded: 0 }
    }
}

impl fmt::Debug for StreamedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamedTrace")
            .field("meta", &self.layout.meta)
            .field("events", &self.num_events())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// Where a tool reads its events from: a fully materialized [`Trace`]
/// (the study corpus path) or a [`StreamedTrace`] decoded per rank
/// through a small window (the mega-scale path, which never builds the
/// per-rank `Vec<Event>`s or holds the encoded file). [`crate::Walker`]
/// reads either, and both tools' single entry points, `masim_sim::run`
/// and `masim_mfact::try_replay`, take `impl Into<TraceSource>`.
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
    /// vectors for a memory trace, [`StreamedTrace::resident_bytes`] for a
    /// streamed one.
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
            TraceSource::Streamed(s) => RankReader::Streamed(SegmentReader::new(s, r)),
        }
    }

    /// The windows every rank's reader decodes through: one allocation of
    /// [`StreamedTrace::WINDOW`] B per rank for a streamed trace, none
    /// for a memory one.
    pub(crate) fn windows(&self) -> Windows {
        match self {
            TraceSource::Memory(_) => Windows::new(0),
            TraceSource::Streamed(s) => Windows::new(s.num_ranks() as usize),
        }
    }
}

/// One rank's events, read forward once from either source, with the
/// event read last still at hand (a wait's ids).
pub(crate) enum RankReader<'a> {
    /// A borrowed stream and how many of its events were read.
    Memory { events: &'a [Event], read: usize },
    /// A segment decoded through the rank's window.
    Streamed(SegmentReader<'a>),
}

impl RankReader<'_> {
    /// Rank `r`'s next event, `None` past the end. A streamed rank
    /// decodes through its window in `windows`.
    #[inline(always)]
    pub(crate) fn next(
        &mut self,
        r: Rank,
        windows: &mut Windows,
    ) -> Result<Option<&Event>, TraceError> {
        match self {
            RankReader::Memory { events, read } => {
                let Some(ev) = events.get(*read) else { return Ok(None) };
                *read += 1;
                Ok(Some(ev))
            }
            RankReader::Streamed(s) => s.next(r, windows, r.idx()),
        }
    }

    /// The event [`RankReader::next`] returned last.
    #[inline(always)]
    pub(crate) fn current(&self) -> Option<&Event> {
        match self {
            RankReader::Memory { events, read } => events.get(read.checked_sub(1)?),
            RankReader::Streamed(s) => s.cur.as_ref(),
        }
    }
}

/// Every rank's decode window, in one allocation of [`WINDOW`] B per
/// slot, plus a grown window for a slot while an event longer than that
/// is in it.
pub(crate) struct Windows {
    slab: Vec<u8>,
    grown: Vec<(usize, Vec<u8>)>,
}

impl Windows {
    /// `slots` empty windows.
    fn new(slots: usize) -> Windows {
        Windows { slab: vec![0; slots * WINDOW], grown: Vec::new() }
    }

    /// `slot`'s window in the slab.
    #[inline]
    fn slab(&mut self, slot: usize) -> &mut [u8] {
        &mut self.slab[slot * WINDOW..][..WINDOW]
    }

    /// Where `slot`'s grown window is, if it has one.
    fn grown_at(&self, slot: usize) -> Option<usize> {
        self.grown.iter().position(|&(s, _)| s == slot)
    }

    /// `slot`'s window.
    #[inline]
    fn get(&mut self, slot: usize) -> &mut [u8] {
        if let Some(i) = self.grown_at(slot) {
            return &mut self.grown[i].1;
        }
        self.slab(slot)
    }

    /// `slot`'s window grown to `len` bytes, its bytes kept.
    fn grow(&mut self, slot: usize, len: usize) -> &mut [u8] {
        let i = self.grown_at(slot).unwrap_or_else(|| {
            let window = self.slab(slot).to_vec();
            self.grown.push((slot, window));
            self.grown.len() - 1
        });
        let window = &mut self.grown[i].1;
        window.resize(len, 0);
        window
    }

    /// Once the unread bytes `lo..hi` of `slot`'s grown window fit its
    /// slab window, move them there and free the grown one.
    fn shrink(&mut self, slot: usize, lo: &mut u32, hi: &mut u32) {
        let unread = (*hi - *lo) as usize;
        if unread > WINDOW {
            return;
        }
        if let Some(i) = self.grown_at(slot) {
            let (_, window) = self.grown.swap_remove(i);
            self.slab(slot)[..unread].copy_from_slice(&window[*lo as usize..*hi as usize]);
            (*lo, *hi) = (0, unread as u32);
        }
    }
}

/// Where one rank's decoding of a [`StreamedTrace`] stands. Its window
/// holds segment bytes `lo..hi` that were read but not yet decoded;
/// `next` is the offset of the first segment byte not yet read into it.
/// It keeps one decoded event, the current one, and how many are left,
/// so decoding an event reads nothing of the index.
pub(crate) struct SegmentReader<'a> {
    src: &'a StreamedTrace,
    next: u64,
    left: u64,
    lo: u32,
    hi: u32,
    prev_req: u32,
    cur: Option<Event>,
}

impl<'a> SegmentReader<'a> {
    fn new(src: &'a StreamedTrace, r: Rank) -> SegmentReader<'a> {
        let (next, left) = (src.layout.span(r).start, src.layout.index[r.idx()].count);
        SegmentReader { src, next, left, lo: 0, hi: 0, prev_req: 0, cur: None }
    }

    /// Rank `r`'s next event, decoded through window `slot` of
    /// `windows`, `None` past the end. Bytes that no longer read or
    /// decode as they did at open are [`TraceError::Unreadable`].
    fn next(
        &mut self,
        r: Rank,
        windows: &mut Windows,
        slot: usize,
    ) -> Result<Option<&Event>, TraceError> {
        if self.left == 0 {
            // Every event decoded: the segment's bytes must be too.
            let left = u64::from(self.hi - self.lo) + (self.src.layout.span(r).end - self.next);
            return match left {
                0 => Ok(None),
                n => Err(unreadable(r, DecodeError::TrailingBytes(n as usize).into())),
            };
        }
        loop {
            let mut buf = &windows.get(slot)[self.lo as usize..self.hi as usize];
            let prev_req = self.prev_req;
            match decode_event(&mut buf, r.0, &mut self.prev_req) {
                Ok(ev) => {
                    self.lo = self.hi - buf.len() as u32;
                    if !windows.grown.is_empty() {
                        windows.shrink(slot, &mut self.lo, &mut self.hi);
                    }
                    self.left -= 1;
                    self.cur = Some(ev);
                    return Ok(self.cur.as_ref());
                }
                Err(DecodeError::Truncated { .. }) if self.next < self.src.layout.span(r).end => {
                    self.prev_req = prev_req;
                    self.refill(r, windows, slot)?;
                }
                Err(e) => return Err(unreadable(r, e.into())),
            }
        }
    }

    /// Move the window's unread bytes to its front and read the
    /// segment's next bytes after them; a window that is all one event's
    /// bytes doubles first (up to the rest of the segment).
    #[cold]
    fn refill(&mut self, r: Rank, windows: &mut Windows, slot: usize) -> Result<(), TraceError> {
        let left = self.src.layout.span(r).end - self.next;
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        let mut window = windows.get(slot);
        if lo == 0 && hi == window.len() {
            let len = (2 * hi as u64).min(hi as u64 + left);
            if len > u64::from(u32::MAX) {
                let long = DecodeError::OutOfRange { field: "event bytes", value: len };
                return Err(unreadable(r, long.into()));
            }
            window = windows.grow(slot, len as usize);
        }
        window.copy_within(lo..hi, 0);
        let unread = hi - lo;
        let n = ((window.len() - unread) as u64).min(left) as usize;
        self.src
            .read_at(&mut window[unread..unread + n], self.next)
            .map_err(|e| unreadable(r, e))?;
        self.next += n as u64;
        (self.lo, self.hi) = (0, (unread + n) as u32);
        Ok(())
    }
}

/// Rank `r`'s stream stopped reading as it did at open.
fn unreadable(r: Rank, cause: StreamError) -> TraceError {
    TraceError::Unreadable { rank: r, cause: Box::new(cause) }
}

/// A one-event-at-a-time decoder over a rank's segment, with a window of
/// its own ([`StreamedTrace::cursor`]).
///
/// Consumers walk a rank's stream with a non-decreasing index, re-reading
/// the current event (a wait's ids, read again when the wait is run).
/// The cursor therefore keeps exactly one decoded event of state;
/// anything further back is unreachable by construction and treated as
/// a logic error.
pub struct RankCursor<'a> {
    rank: Rank,
    reader: SegmentReader<'a>,
    window: Windows,
    /// Events decoded so far; the reader holds event `decoded - 1`.
    decoded: u64,
}

impl RankCursor<'_> {
    /// Total events in this rank's stream.
    pub fn len(&self) -> usize {
        self.reader.src.layout.index[self.rank.idx()].count as usize
    }

    /// True when the stream has no events at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The event at index `k`, `None` past the end of the stream. `k`
    /// must be the current event or the next undecoded one — the
    /// streaming window. A file changed since it was opened is
    /// [`TraceError::Unreadable`].
    pub fn get(&mut self, k: usize) -> Option<Result<&Event, TraceError>> {
        if k >= self.len() {
            return None;
        }
        let k = k as u64;
        if k + 1 != self.decoded {
            // Invariant: no caller reads back past the current event.
            assert!(
                k == self.decoded,
                "non-streaming access: asked for event {k} with {} decoded",
                self.decoded
            );
            if let Err(e) = self.reader.next(self.rank, &mut self.window, 0) {
                return Some(Err(e));
            }
            self.decoded += 1;
        }
        self.reader.cur.as_ref().map(Ok)
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
        let mut windows = src.windows();
        let mut read = |r| {
            let mut reader = src.reader(Rank(r));
            std::iter::from_fn(|| reader.next(Rank(r), &mut windows).unwrap().cloned()).collect()
        };
        (0..src.num_ranks()).map(&mut read).collect()
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
                assert_eq!(c.get(k), Some(Ok(want)));
                assert_eq!(c.get(k), Some(Ok(want)));
            }
            assert_eq!(c.get(c.len()), None);
        }
    }

    #[test]
    fn readers_keep_the_event_read_last() {
        let t = sample();
        let st = StreamedTrace::from_bytes(encode(&t)).expect("open");
        for src in [TraceSource::from(&t), TraceSource::from(&st)] {
            let mut windows = src.windows();
            for (r, events) in t.events.iter().enumerate() {
                let r = Rank(r as u32);
                let mut reader = src.reader(r);
                assert_eq!(reader.current(), None);
                for want in events {
                    assert_eq!(reader.next(r, &mut windows), Ok(Some(want)));
                    assert_eq!(reader.current(), Some(want));
                }
                assert_eq!(reader.next(r, &mut windows), Ok(None));
            }
        }
    }

    /// An event longer than the window grows that rank's window alone,
    /// which returns to the slab once the event is decoded; the other
    /// rank's window is not touched.
    #[test]
    fn long_events_grow_one_window_then_shrink_back() {
        let meta = TraceMeta { ranks: 2, ranks_per_node: 1, ..TraceMeta::default() };
        let mut t = Trace::empty(meta);
        let reqs = (0..600).map(ReqId).collect();
        t.events[0] = vec![
            Event::compute(Time::from_us(1)),
            Event::new(EventKind::WaitAll { reqs }, Time::from_us(2)),
            Event::compute(Time::from_us(3)),
        ];
        t.events[1] = vec![Event::compute(Time::from_us(4))];
        let st = StreamedTrace::from_bytes(encode(&t)).expect("open");
        let src = TraceSource::from(&st);
        let mut windows = src.windows();
        let mut readers = [src.reader(Rank(0)), src.reader(Rank(1))];
        let mut read = |r: usize| readers[r].next(Rank(r as u32), &mut windows).unwrap().cloned();
        assert_eq!(read(1), Some(t.events[1][0].clone()));
        for want in &t.events[0] {
            assert_eq!(read(0).as_ref(), Some(want));
        }
        assert_eq!((read(0), read(1)), (None, None));
        assert!(windows.grown.is_empty(), "the grown window went back to the slab");
        assert_eq!(windows.slab.len(), 2 * WINDOW);
        // Rank 1 once. Rank 0 (614 B) once, once more to top up the
        // window behind its first event, then once more while the window
        // grew to the 614 B of the segment.
        assert_eq!(st.refills(), 4);
    }

    /// A file cut short or rewritten after open is a typed error at the
    /// read that meets it, for the rank whose segment it is.
    #[test]
    fn file_changed_after_open_is_unreadable() {
        use std::os::unix::fs::FileExt;
        let t = sample();
        let path = std::env::temp_dir().join(format!("masim_changed_{}.mass", std::process::id()));
        let payload_at = encode(&Trace::empty(t.meta.clone())).len() as u64;
        write_stream(&t, &path).expect("write");
        let st = StreamedTrace::open(&path).expect("open");
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(payload_at).unwrap();
        let err = st.cursor(Rank(1)).get(0).map(|e| e.cloned());
        assert!(
            matches!(&err, Some(Err(TraceError::Unreadable { rank: Rank(1), cause }))
                if matches!(**cause, StreamError::Io(_))),
            "{err:?}"
        );
        write_stream(&t, &path).expect("write");
        let st = StreamedTrace::open(&path).expect("open");
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&[250], payload_at).unwrap();
        let bad_tag = StreamError::Decode(DecodeError::BadTag(250));
        let want = TraceError::Unreadable { rank: Rank(0), cause: Box::new(bad_tag) };
        assert_eq!(st.cursor(Rank(0)).get(0), Some(Err(want)));
        std::fs::remove_file(&path).ok();
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
