//! Engine-level error types.
//!
//! The only runtime error a correct model can provoke is clock overflow:
//! simulated time is a `u64` picosecond counter (about 213 days), and a
//! trace with a pathological compute duration or an unbounded retry loop
//! can push `now + delay` past it. That used to be an
//! `expect("simulation time overflow")` — which, under the parallel
//! study runner, took down the whole thread pool. It is now a value the
//! embedding simulator surfaces through its own result path.

use masim_trace::Time;
use std::fmt;

/// The simulation clock overflowed while computing `now + delay`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockOverflow {
    /// The engine clock when the offending schedule was attempted.
    pub now: Time,
    /// The delay whose addition overflowed.
    pub delay: Time,
}

impl fmt::Display for ClockOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation clock overflow: now {} + delay {} exceeds u64 picoseconds",
            self.now, self.delay
        )
    }
}

impl std::error::Error for ClockOverflow {}
