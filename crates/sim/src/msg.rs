//! Messages in flight and the slab that holds them while they are.
//! Matching lives in [`masim_trace::Mailbox`], shared with MFACT.

use masim_trace::Rank;

/// A point-to-point message in flight (application or lowered-collective
/// traffic). Plain `Copy` data: a message's identity is its slot in the
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

/// One occupied slab slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    msg: Message,
    /// The key of the send request of `msg.src` that the message's
    /// `Release` completes: an `Isend`'s id widened, or
    /// [`masim_trace::TOOL_SEND`] for a blocking or collective send.
    key: u64,
    released: bool,
    delivered: bool,
}

/// Slot-indexed table of the messages in flight. Every network model
/// schedules exactly one `Release` and one `Deliver` per injected
/// message; once both have been handled the slot is retired and a free
/// list hands it to a later message. The slab therefore holds what is
/// in flight, not every message the run has sent, and lookups stay a
/// bounds-checked index — no hashing, no refcounts on the packet/flow
/// hot paths. Ids are reused, so nothing may order by them.
#[derive(Default, Debug)]
pub struct MsgSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl MsgSlab {
    /// Intern a message and the key of the send request its release
    /// completes; returns its id.
    #[inline]
    pub(crate) fn insert(&mut self, msg: Message, key: u64) -> u32 {
        let slot = Slot { msg, key, released: false, delivered: false };
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = slot;
            return id;
        }
        // Invariant: under 2^32 messages in flight; their 40-byte slots would need 160 GiB.
        assert!(self.slots.len() < u32::MAX as usize, "message slab exhausted");
        self.slots.push(slot);
        (self.slots.len() - 1) as u32
    }

    /// Look up a message in flight by id.
    #[inline]
    pub fn get(&self, id: u32) -> &Message {
        &self.slots[id as usize].msg
    }

    /// Handle message `id`'s `Release`: returns the key of the sender's
    /// request it completes, and retires the slot if the message was
    /// delivered. Invariant: each message's `Release` is handled exactly
    /// once; a second one would reach a slot that may hold another
    /// message.
    #[inline]
    pub(crate) fn release(&mut self, id: u32) -> u64 {
        let s = &mut self.slots[id as usize];
        assert!(!s.released, "message {id} released twice");
        s.released = true;
        if s.delivered {
            self.free.push(id);
        }
        s.key
    }

    /// Handle message `id`'s `Deliver`, retiring the slot if the sender
    /// was released. Invariant: each message is delivered exactly once.
    #[inline]
    pub(crate) fn deliver(&mut self, id: u32) {
        let s = &mut self.slots[id as usize];
        assert!(!s.delivered, "message {id} delivered twice");
        s.delivered = true;
        if s.released {
            self.free.push(id);
        }
    }

    /// Messages in flight (injected, not yet both released and delivered).
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Bytes of the slots in flight: what the memory budget charges.
    pub(crate) fn resident_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<Slot>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use masim_trace::TOOL_SEND;

    fn msg(bytes: u64) -> Message {
        Message { src: Rank(0), dst: Rank(1), bytes, tag: 0 }
    }

    #[test]
    fn slot_is_retired_after_release_and_deliver_in_either_order() {
        assert_eq!(std::mem::size_of::<Slot>(), 40, "the memory budget charges 40 B a slot");
        let mut slab = MsgSlab::default();
        let a = slab.insert(msg(1), TOOL_SEND);
        let b = slab.insert(msg(2), 9);
        assert_eq!((a, b, slab.len()), (0, 1, 2));
        slab.deliver(a);
        assert_eq!(slab.len(), 2, "a is not released yet");
        assert_eq!(slab.release(a), TOOL_SEND);
        assert_eq!(slab.release(b), 9);
        assert_eq!(slab.len(), 1, "a retired, b still undelivered");
        slab.deliver(b);
        assert_eq!(slab.len(), 0);
        // Both slots are reused before the slab grows.
        let c = slab.insert(msg(3), 7);
        let d = slab.insert(msg(4), TOOL_SEND);
        let e = slab.insert(msg(5), TOOL_SEND);
        assert_eq!((c, d, e), (1, 0, 2));
        assert_eq!((slab.get(c).bytes, slab.get(d).bytes, slab.get(e).bytes), (3, 4, 5));
        assert_eq!(slab.release(c), 7, "a reused slot completes its new request");
    }
}
