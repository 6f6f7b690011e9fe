//! The event arena: a slab of typed event payloads with
//! generation-tagged handles.
//!
//! Every scheduled event's payload lives in one slot of a flat `Vec`;
//! freed slots go on a free list and are reused by later events. A
//! handle ([`EventId`]) is a `(slot, generation)` pair: the slot's
//! generation is bumped every time its payload is taken (executed *or*
//! cancelled), so a stale handle — one kept after its event fired, or
//! after its slot was recycled — can never touch the slot's new
//! occupant. Cancellation is therefore O(1) and drops the payload
//! immediately; the queue entry that pointed at the slot is lazily
//! discarded when it surfaces.

/// Inline-payload budget for arena-stored events, in bytes.
///
/// Every pending event's payload lives inline in an arena slot, so the
/// slab's footprint and cache behaviour are `size_of::<E>() ×
/// pending`. Handlers are expected to keep payloads small, `Copy`
/// handles into side tables (slabs, interning arenas) rather than owning
/// containers; `EventArena::new` debug-asserts the budget so an
/// accidentally fattened payload fails loudly in CI instead of silently
/// doubling the hot loop's cache traffic.
pub const MAX_INLINE_PAYLOAD_BYTES: usize = 32;

/// Handle for a scheduled event, usable to cancel it.
///
/// Generation-tagged: a handle left over from an executed or cancelled
/// event is permanently dead, even if its arena slot has been reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

impl EventId {
    /// A handle that never matches any slot (returned when scheduling
    /// itself failed, e.g. on clock overflow).
    pub(crate) const DEAD: EventId = EventId { slot: u32::MAX, gen: u32::MAX };
}

struct Slot<E> {
    gen: u32,
    payload: Option<E>,
}

/// Slab of in-flight event payloads with a free list.
pub(crate) struct EventArena<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
}

impl<E> EventArena<E> {
    pub(crate) fn new() -> EventArena<E> {
        debug_assert!(
            std::mem::size_of::<E>() <= MAX_INLINE_PAYLOAD_BYTES,
            "event payload is {} bytes (> {MAX_INLINE_PAYLOAD_BYTES}); store a handle into a \
             side table instead of inlining owning data",
            std::mem::size_of::<E>(),
        );
        EventArena { slots: Vec::new(), free: Vec::new(), live: 0 }
    }

    /// Live (scheduled, not yet executed or cancelled) events.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Store a payload; returns its generation-tagged handle.
    #[inline]
    pub(crate) fn insert(&mut self, payload: E) -> EventId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.payload.is_none());
            s.payload = Some(payload);
            EventId { slot, gen: s.gen }
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot != u32::MAX, "event arena exhausted");
            self.slots.push(Slot { gen: 0, payload: Some(payload) });
            EventId { slot, gen: 0 }
        }
    }

    /// Remove and return the payload `id` points at, if the handle is
    /// still current. Bumps the slot's generation so `id` (and any copy
    /// of it) is dead from here on.
    #[inline]
    pub(crate) fn take(&mut self, id: EventId) -> Option<E> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.gen != id.gen {
            return None;
        }
        let payload = s.payload.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        Some(payload)
    }

    /// Is the handle still backed by a pending payload?
    #[inline]
    pub(crate) fn is_live(&self, id: EventId) -> bool {
        self.slots.get(id.slot as usize).is_some_and(|s| s.gen == id.gen && s.payload.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut a: EventArena<u32> = EventArena::new();
        let id = a.insert(7);
        assert_eq!(a.live(), 1);
        assert!(a.is_live(id));
        assert_eq!(a.take(id), Some(7));
        assert_eq!(a.live(), 0);
        assert!(!a.is_live(id));
        assert_eq!(a.take(id), None, "double take is a no-op");
    }

    #[test]
    fn stale_handle_cannot_touch_recycled_slot() {
        let mut a: EventArena<u32> = EventArena::new();
        let old = a.insert(1);
        assert_eq!(a.take(old), Some(1));
        let new = a.insert(2);
        assert_eq!(new.slot, old.slot, "slot is recycled");
        assert_ne!(new.gen, old.gen, "generation advanced");
        assert_eq!(a.take(old), None, "stale handle is dead");
        assert_eq!(a.take(new), Some(2));
    }

    #[test]
    fn dead_handle_is_never_live() {
        let mut a: EventArena<u32> = EventArena::new();
        a.insert(1);
        assert!(!a.is_live(EventId::DEAD));
        assert_eq!(a.take(EventId::DEAD), None);
    }
}
