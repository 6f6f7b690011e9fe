//! `masim-des`: the discrete-event simulation engine.
//!
//! One engine, [`Engine`]: the sequential pending-event-set simulator
//! the network models in `masim-sim` run on. Typed events are
//! interpreted by a [`Handler`] over a shared state, payloads are
//! slab-allocated in a generation-tagged arena (handles are
//! [`EventId`]s), and the pending set is kept in a ladder queue
//! ([`queue`]); ordering is deterministic by (time, sequence) and
//! cancellation is O(1).

#![warn(missing_docs)]

mod arena;
mod engine;
mod error;
pub mod queue;

pub use arena::{EventId, MAX_INLINE_PAYLOAD_BYTES};
pub use engine::{Engine, Handler};
pub use error::ClockOverflow;
pub use queue::LadderQueue;
