//! The one walk over a rank's events, shared by [`crate::Trace::validate`],
//! MFACT's replay and the simulator: a [`Walker`] reads every rank's events
//! from either [`TraceSource`], applies MPI's peer, root and request rules,
//! and turns each event into the [`Action`]s a replaying tool runs. It
//! also knows which ranks finished, so a tool whose run stops short asks
//! it for the one [`Stall`]. What a tool keeps is its clock: what an
//! action costs and when a wait is ready.

use crate::event::{CollKind, EventKind};
use crate::ids::Rank;
use crate::mailbox::{Requests, TOOL_RECV, TOOL_SEND};
use crate::stream::{RankReader, TraceSource, Windows};
use crate::time::Time;
use crate::trace::TraceError;
use std::fmt;

/// How many blocked ranks a [`Stall`] names (a large trace can strand
/// hundreds; the error stays small and cheap to clone).
pub const DEADLOCK_RANK_SAMPLE: usize = 16;

/// One MPI action of a rank, in program order. A blocking `Send`/`Recv`
/// is its nonblocking twin under a tool token ([`TOOL_SEND`],
/// [`TOOL_RECV`]), then a [`Action::Wait`] on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // the fields are the event's
pub enum Action {
    /// Computation for the recorded duration.
    Compute(Time),
    /// A send under request `key`, which the tool issues with
    /// [`Walker::issue`].
    Isend { peer: Rank, bytes: u64, tag: u32, key: u64 },
    /// A receive under request `key`, which the tool issues with
    /// [`Walker::issue`].
    Irecv { peer: Rank, bytes: u64, tag: u32, key: u64 },
    /// A wait on the requests [`Walker::wait`] retires. It is yielded
    /// again until that wait succeeds.
    Wait,
    /// A collective; its root is below the world size.
    Coll { kind: CollKind, bytes: u64, root: Rank },
    /// The stream ended with no request live: the rank finished.
    Done,
}

/// Where a rank is in its walk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    /// The next action comes from the next event.
    Read,
    /// A wait on the current event's request ids is open.
    WaitIds,
    /// A blocking send's wait is open.
    WaitSend,
    /// A blocking receive's wait is open.
    WaitRecv,
    /// [`Action::Done`] was yielded: the rank finished, and `next` is
    /// not called again.
    Done,
}

/// One rank's walk: its events, its stage and its live requests, each
/// holding the replaying tool's state `S`.
struct RankWalk<'a, S> {
    events: RankReader<'a>,
    stage: Stage,
    reqs: Requests<S>,
}

/// A run that stopped with ranks unfinished: how many finished, and the
/// first [`DEADLOCK_RANK_SAMPLE`] blocked ranks in rank order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stall {
    /// Ranks that yielded [`Action::Done`].
    pub finished: u32,
    /// Ranks in the trace.
    pub total: u32,
    /// A sample of the unfinished ranks.
    pub blocked: Vec<u32>,
}

impl fmt::Display for Stall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Stall { finished, total, blocked } = self;
        let more = if (total - finished) as usize > blocked.len() { ", ..." } else { "" };
        write!(f, "{finished}/{total} ranks finished; blocked ranks {blocked:?}{more}")
    }
}

/// Every rank's walk over one trace.
pub struct Walker<'a, S> {
    world: u32,
    ranks: Vec<RankWalk<'a, S>>,
    /// The streamed ranks' decode windows, in one allocation (empty for
    /// an in-memory trace).
    windows: Windows,
}

/// A point-to-point event of `rank` may name only a peer below `world`.
fn check_peer(rank: Rank, peer: Rank, world: u32) -> Result<(), TraceError> {
    if peer.0 < world {
        Ok(())
    } else {
        Err(TraceError::PeerOutOfRange { rank, peer })
    }
}

impl<'a, S> Walker<'a, S> {
    /// Every rank of `src` at its first event.
    pub fn new(src: impl Into<TraceSource<'a>>) -> Walker<'a, S> {
        let src = src.into();
        let world = src.num_ranks();
        let walk =
            |r| RankWalk { events: src.reader(r), stage: Stage::Read, reqs: Requests::new(r) };
        let ranks = (0..world).map(|r| walk(Rank(r))).collect();
        Walker { world, ranks, windows: src.windows() }
    }

    /// Rank `r`'s next action: [`Action::Wait`] again while its open wait
    /// has not succeeded. Errors name the event's broken rule: a peer or
    /// root outside the world, or a request live at the end; or, for a
    /// streamed trace, [`TraceError::Unreadable`] if its file changed
    /// since it was opened.
    // Forced, like `wait` and the reader's calls: MFACT's replay runs
    // them per event, and left as calls they cost its sweep ≈ 20 %.
    #[inline(always)]
    pub fn next(&mut self, r: Rank) -> Result<Action, TraceError> {
        let RankWalk { events, stage, reqs } = &mut self.ranks[r.idx()];
        if *stage != Stage::Read {
            debug_assert!(*stage != Stage::Done, "rank {} walked past its end", r.0);
            return Ok(Action::Wait);
        }
        let Some(ev) = events.next(r, &mut self.windows)? else {
            reqs.finish()?;
            *stage = Stage::Done;
            return Ok(Action::Done);
        };
        let (send, peer, bytes, tag, req) = match ev.kind {
            EventKind::Compute => return Ok(Action::Compute(ev.dur)),
            EventKind::Send { peer, bytes, tag } => (true, peer, bytes, tag, None),
            EventKind::Isend { peer, bytes, tag, req } => (true, peer, bytes, tag, Some(req)),
            EventKind::Recv { peer, bytes, tag } => (false, peer, bytes, tag, None),
            EventKind::Irecv { peer, bytes, tag, req } => (false, peer, bytes, tag, Some(req)),
            EventKind::Wait { .. } | EventKind::WaitAll { .. } => {
                *stage = Stage::WaitIds;
                return Ok(Action::Wait);
            }
            EventKind::Coll { kind, bytes, root } if root.0 < self.world => {
                return Ok(Action::Coll { kind, bytes, root })
            }
            EventKind::Coll { root, .. } => {
                return Err(TraceError::RootOutOfRange { rank: r, root })
            }
        };
        check_peer(r, peer, self.world)?;
        let key = match (req, send) {
            (Some(req), _) => u64::from(req.0),
            (None, true) => {
                *stage = Stage::WaitSend;
                TOOL_SEND
            }
            (None, false) => {
                *stage = Stage::WaitRecv;
                TOOL_RECV
            }
        };
        Ok(if send {
            Action::Isend { peer, bytes, tag, key }
        } else {
            Action::Irecv { peer, bytes, tag, key }
        })
    }

    /// Issue request `key` of an [`Action::Isend`] or [`Action::Irecv`]
    /// of rank `r` with the tool's `state`;
    /// [`TraceError::RequestReuse`] while `key` is live.
    #[inline]
    pub fn issue(&mut self, r: Rank, key: u64, state: S) -> Result<&mut S, TraceError> {
        self.ranks[r.idx()].reqs.issue(key, state)
    }

    /// The state of rank `r`'s request `key` while it is live, for a
    /// completion to update; `None` once a wait has retired it.
    #[inline]
    pub fn state_mut(&mut self, r: Rank, key: u64) -> Option<&mut S> {
        self.ranks[r.idx()].reqs.get_mut(key)
    }

    /// Run rank `r`'s open wait: every request in it must be live
    /// ([`TraceError::DanglingWait`]). While `ready` rejects one's state
    /// the wait retires nothing and returns false, to be run again after
    /// the next [`Action::Wait`]. Otherwise each request is retired in
    /// the order the wait names it, its state handed to `retired`, and
    /// the wait closes.
    #[inline(always)]
    pub fn wait(
        &mut self,
        r: Rank,
        ready: impl Fn(&S) -> bool,
        retired: impl FnMut(S),
    ) -> Result<bool, TraceError> {
        let RankWalk { events, stage, reqs } = &mut self.ranks[r.idx()];
        // A tool token, or the ids of the current event: a `Wait` or a
        // `WaitAll` (the stage says so).
        let kind = events.current().map(|e| &e.kind);
        let one = match (*stage, kind) {
            (Stage::WaitSend, _) => Some(TOOL_SEND),
            (Stage::WaitRecv, _) => Some(TOOL_RECV),
            (_, Some(EventKind::Wait { req })) => Some(u64::from(req.0)),
            _ => None,
        };
        let done = match (one, kind) {
            (Some(key), _) => retire_all(reqs, std::iter::once(key), ready, retired)?,
            (None, Some(EventKind::WaitAll { reqs: ids })) => {
                retire_all(reqs, ids.iter().map(|id| u64::from(id.0)), ready, retired)?
            }
            _ => true,
        };
        if done {
            *stage = Stage::Read;
        }
        Ok(done)
    }

    /// `None` once every rank has yielded [`Action::Done`]; else the
    /// [`Stall`] of a run that stopped short (a deadlock).
    pub fn stall(&self) -> Option<Stall> {
        let finished = self.ranks.iter().filter(|w| w.stage == Stage::Done).count() as u32;
        let blocked = (0..self.world).filter(|&r| self.ranks[r as usize].stage != Stage::Done);
        let blocked = blocked.take(DEADLOCK_RANK_SAMPLE).collect();
        (finished < self.world).then_some(Stall { finished, total: self.world, blocked })
    }
}

/// The body of [`Walker::wait`] over its keys.
#[inline(always)]
fn retire_all<S>(
    reqs: &mut Requests<S>,
    keys: impl Iterator<Item = u64> + Clone,
    ready: impl Fn(&S) -> bool,
    mut retired: impl FnMut(S),
) -> Result<bool, TraceError> {
    let mut all_ready = true;
    for key in keys.clone() {
        all_ready &= ready(reqs.get(key)?);
    }
    if all_ready {
        for key in keys {
            retired(reqs.retire(key)?);
        }
    }
    Ok(all_ready)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ids::ReqId;
    use crate::trace::{Trace, TraceMeta};

    /// A blocking call is its nonblocking twin under a tool token plus a
    /// wait, and a wait that is not ready retires nothing and comes back.
    #[test]
    fn blocking_calls_desugar_and_unready_waits_repeat() {
        let meta = TraceMeta { ranks: 2, ranks_per_node: 1, ..TraceMeta::default() };
        let ev = |kind| Event::new(kind, Time::ZERO);
        let mut t = Trace::empty(meta);
        t.events[0] = vec![
            ev(EventKind::Send { peer: Rank(1), bytes: 8, tag: 3 }),
            ev(EventKind::Irecv { peer: Rank(1), bytes: 8, tag: 4, req: ReqId(9) }),
            ev(EventKind::Wait { req: ReqId(9) }),
        ];
        let (r, done) = (Rank(0), |d: &bool| *d);
        let mut w = Walker::new(&t);
        let send = Action::Isend { peer: Rank(1), bytes: 8, tag: 3, key: TOOL_SEND };
        assert_eq!(w.next(r), Ok(send));
        w.issue(r, TOOL_SEND, true).unwrap();
        assert_eq!(w.next(r), Ok(Action::Wait));
        assert_eq!(w.wait(r, done, |_| {}), Ok(true));
        assert_eq!(w.next(r), Ok(Action::Irecv { peer: Rank(1), bytes: 8, tag: 4, key: 9 }));
        w.issue(r, 9, false).unwrap();
        assert_eq!(w.next(r), Ok(Action::Wait));
        assert_eq!(w.wait(r, done, |_| unreachable!("nothing retires")), Ok(false));
        assert_eq!(w.next(r), Ok(Action::Wait));
        *w.state_mut(r, 9).unwrap() = true;
        let mut retired = Vec::new();
        assert_eq!(w.wait(r, done, |d| retired.push(d)), Ok(true));
        assert_eq!((retired, w.next(r)), (vec![true], Ok(Action::Done)));
        assert_eq!(w.state_mut(r, 9), None);
    }

    /// A streamed rank's window lives in the walker's one slab, not in
    /// its `RankWalk`, so the per-rank walk of either source stays at
    /// 120 B (64-bit).
    #[test]
    fn rank_walk_holds_no_window() {
        assert!(std::mem::size_of::<RankWalk<'_, bool>>() <= 120);
        assert!(std::mem::size_of::<RankWalk<'_, u64>>() <= 120);
    }

    /// A rank finishes when it yields `Done`; the stall names the rest,
    /// at most [`DEADLOCK_RANK_SAMPLE`] of them.
    #[test]
    fn stall_names_the_unfinished_ranks() {
        let meta = TraceMeta { ranks: 20, ranks_per_node: 1, ..TraceMeta::default() };
        let t = Trace::empty(meta);
        let mut w: Walker<()> = Walker::new(&t);
        for r in [0, 2] {
            assert_eq!(w.next(Rank(r)), Ok(Action::Done));
        }
        let stall = w.stall().expect("18 ranks unfinished");
        let blocked: Vec<u32> = (1..2).chain(3..18).collect();
        assert_eq!(stall, Stall { finished: 2, total: 20, blocked });
        assert!(stall.to_string().starts_with("2/20 ranks finished; blocked ranks [1, 3, 4,"));
        assert!(stall.to_string().ends_with("17], ..."), "{stall}");
        for r in (1..2).chain(3..20) {
            assert_eq!(w.next(Rank(r)), Ok(Action::Done));
        }
        assert_eq!(w.stall(), None);
    }
}
