//! Messages in flight and their id-indexed slab. Matching lives in
//! [`masim_trace::Mailbox`], shared with MFACT.

use masim_trace::Rank;

/// A point-to-point message in flight (application or lowered-collective
/// traffic). Plain `Copy` data: a message's identity is its index in the
/// [`MsgSlab`], so in-flight packets and flows refer to it by a `u32`
/// id instead of carrying an `Arc` clone through the event arena.
#[derive(Clone, Copy, Debug)]
pub struct Message {
    /// Source rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Payload size (≥ 1; zero-byte MPI messages still carry a header).
    pub bytes: u64,
    /// Matching tag (application tags plus the reserved collective space).
    pub tag: u32,
}

/// Id-indexed message table. Ids are assigned sequentially at injection
/// and never retired (a run's messages are bounded by its trace), so
/// the slab is a plain `Vec` and every lookup is a bounds-checked index
/// — no hashing, no refcounts on the packet/flow hot paths.
#[derive(Default, Debug)]
pub struct MsgSlab {
    msgs: Vec<Message>,
}

impl MsgSlab {
    /// Intern a message; returns its id.
    #[inline]
    pub fn push(&mut self, msg: Message) -> u32 {
        let id = self.msgs.len();
        assert!(id < u32::MAX as usize, "message slab exhausted");
        self.msgs.push(msg);
        id as u32
    }

    /// Look up a message by id.
    #[inline]
    pub fn get(&self, id: u32) -> &Message {
        &self.msgs[id as usize]
    }

    /// Messages interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True before the first injection.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}
