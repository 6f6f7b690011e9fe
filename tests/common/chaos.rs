//! Seeded fault injection for the failure-injection suite (included by
//! `tests/failure_injection.rs` only).
//!
//! The study treats tool failure as data, so the failure paths need a
//! way to be *exercised on purpose*. This module corrupts healthy
//! inputs in the ways real trace pipelines break — truncated files,
//! flipped bits, dropped or spurious receives, dangling request ids,
//! pathological compute durations — all driven by a [`Rng`] seed so
//! every corruption is reproducible from `(seed, fault)` alone.
//!
//! The containment contract the failure-injection suite asserts over
//! these: every corrupted input must land in a **typed error**
//! (`DecodeError`, `TraceError`, `ReplayError`, `SimError`, or a
//! contained `panic` `ToolFailure`) — never an uncontained panic,
//! never a silently wrong answer.

use masim_rng::Rng;
use masim_trace::{Event, EventKind, Rank, ReqId, Time, Trace};

/// Injected operations take no traced time of their own.
const ZERO: Time = Time::ZERO;

/// Byte-level corruptions, applied to an encoded trace buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByteFault {
    /// Cut the buffer short at a random offset (a partial write or a
    /// torn download).
    Truncate,
    /// Flip one random bit (storage or transport corruption).
    FlipBit,
}

/// All byte-level faults, for sweep loops.
pub const BYTE_FAULTS: [ByteFault; 2] = [ByteFault::Truncate, ByteFault::FlipBit];

/// Structural corruptions, applied to a decoded trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFault {
    /// Remove one receive: its sender now sends into the void.
    DropRecv,
    /// Append a blocking receive no rank ever sends to.
    UnmatchedRecv,
    /// Turn two ranks' first interaction into mutually blocking
    /// receives (a classic messaging deadlock).
    RecvRecvDeadlock,
    /// Blow one compute duration up to near the picosecond clock's
    /// ceiling, so any simulator that adds to its clock overflows.
    HugeCompute,
    /// Point one `Wait` at a request id that was never issued.
    WildWaitRequest,
}

/// All trace-level faults, for sweep loops.
pub const TRACE_FAULTS: [TraceFault; 5] = [
    TraceFault::DropRecv,
    TraceFault::UnmatchedRecv,
    TraceFault::RecvRecvDeadlock,
    TraceFault::HugeCompute,
    TraceFault::WildWaitRequest,
];

/// A tag far outside the generators' range, so injected operations
/// never accidentally match legitimate traffic.
const CHAOS_TAG: u32 = 0xC4A0;

/// A request id no generator issues.
const CHAOS_REQ: ReqId = ReqId(0xDEAD);

/// Apply a byte-level fault. `Truncate` returns a strict prefix (the
/// empty buffer is allowed); `FlipBit` flips exactly one bit and
/// preserves length. A buffer too small to corrupt is returned as-is.
pub fn corrupt_bytes(bytes: &[u8], fault: ByteFault, rng: &mut Rng) -> Vec<u8> {
    match fault {
        ByteFault::Truncate => {
            if bytes.is_empty() {
                return Vec::new();
            }
            let cut = rng.gen_range_usize(0, bytes.len());
            bytes[..cut].to_vec()
        }
        ByteFault::FlipBit => {
            let mut out = bytes.to_vec();
            if out.is_empty() {
                return out;
            }
            let bit = rng.gen_range_usize(0, out.len() * 8);
            out[bit / 8] ^= 1 << (bit % 8);
            out
        }
    }
}

/// Apply a structural fault to a (healthy) trace. The returned trace is
/// malformed on purpose; feed it to `validate`/`try_replay`/the
/// simulators and assert the error is typed. Traces without a usable
/// injection point for the requested fault get the closest available
/// corruption rather than none (e.g. `DropRecv` on a collective-only
/// trace falls back to `UnmatchedRecv`).
pub fn corrupt_trace(trace: &Trace, fault: TraceFault, rng: &mut Rng) -> Trace {
    let mut t = trace.clone();
    match fault {
        TraceFault::DropRecv => {
            let recvs: Vec<(usize, usize)> =
                positions(&t, |k| matches!(k, EventKind::Recv { .. } | EventKind::Irecv { .. }));
            match pick(&recvs, rng) {
                Some((r, i)) => {
                    t.events[r].remove(i);
                }
                None => return corrupt_trace(trace, TraceFault::UnmatchedRecv, rng),
            }
        }
        TraceFault::UnmatchedRecv => {
            let n = t.events.len();
            let r = rng.gen_range_usize(0, n.max(1));
            let peer = Rank(((r + 1) % n.max(1)) as u32);
            t.events[r].push(Event::new(EventKind::Recv { peer, bytes: 64, tag: CHAOS_TAG }, ZERO));
        }
        TraceFault::RecvRecvDeadlock => {
            if t.events.len() < 2 {
                return corrupt_trace(trace, TraceFault::UnmatchedRecv, rng);
            }
            // Both ranks block on the other's (never-coming) message
            // before doing anything else.
            for (r, peer) in [(0usize, Rank(1)), (1usize, Rank(0))] {
                t.events[r].insert(
                    0,
                    Event::new(EventKind::Recv { peer, bytes: 64, tag: CHAOS_TAG }, ZERO),
                );
            }
        }
        TraceFault::HugeCompute => {
            let computes: Vec<(usize, usize)> = positions(&t, EventKind::is_compute);
            match pick(&computes, rng) {
                Some((r, i)) => t.events[r][i].dur = Time::from_ps(u64::MAX - 1_000),
                None => {
                    let r = rng.gen_range_usize(0, t.events.len().max(1));
                    t.events[r]
                        .insert(0, Event::new(EventKind::Compute, Time::from_ps(u64::MAX - 1_000)));
                }
            }
        }
        TraceFault::WildWaitRequest => {
            let waits: Vec<(usize, usize)> = positions(&t, |k| matches!(k, EventKind::Wait { .. }));
            match pick(&waits, rng) {
                Some((r, i)) => t.events[r][i].kind = EventKind::Wait { req: CHAOS_REQ },
                None => {
                    let r = rng.gen_range_usize(0, t.events.len().max(1));
                    t.events[r].push(Event::new(EventKind::Wait { req: CHAOS_REQ }, ZERO));
                }
            }
        }
    }
    t
}

/// All `(rank, index)` positions whose event kind satisfies `pred`.
fn positions(t: &Trace, pred: impl Fn(&EventKind) -> bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (r, stream) in t.events.iter().enumerate() {
        for (i, ev) in stream.iter().enumerate() {
            if pred(&ev.kind) {
                out.push((r, i));
            }
        }
    }
    out
}

fn pick(positions: &[(usize, usize)], rng: &mut Rng) -> Option<(usize, usize)> {
    if positions.is_empty() {
        None
    } else {
        Some(positions[rng.gen_range_usize(0, positions.len())])
    }
}

mod tests {
    use super::*;
    use masim_trace::io;
    use masim_workloads::{generate, App, GenConfig};

    fn healthy() -> Trace {
        generate(&GenConfig::test_default(App::Cg, 8))
    }

    #[test]
    fn corruptions_are_deterministic_per_seed() {
        let t = healthy();
        let bytes = io::encode(&t);
        for fault in BYTE_FAULTS {
            let a = corrupt_bytes(&bytes, fault, &mut Rng::seed_from_u64(11));
            let b = corrupt_bytes(&bytes, fault, &mut Rng::seed_from_u64(11));
            assert_eq!(a, b, "{fault:?} must be reproducible");
        }
        for fault in TRACE_FAULTS {
            let a = corrupt_trace(&t, fault, &mut Rng::seed_from_u64(11));
            let b = corrupt_trace(&t, fault, &mut Rng::seed_from_u64(11));
            assert_eq!(a, b, "{fault:?} must be reproducible");
        }
    }

    #[test]
    fn byte_faults_actually_corrupt() {
        let t = healthy();
        let bytes = io::encode(&t);
        let mut rng = Rng::seed_from_u64(3);
        let cut = corrupt_bytes(&bytes, ByteFault::Truncate, &mut rng);
        assert!(cut.len() < bytes.len());
        let flipped = corrupt_bytes(&bytes, ByteFault::FlipBit, &mut rng);
        assert_eq!(flipped.len(), bytes.len());
        assert_ne!(flipped, bytes);
        assert_eq!(flipped.iter().zip(&bytes).filter(|(a, b)| a != b).count(), 1);
    }

    #[test]
    fn every_trace_fault_perturbs_the_trace() {
        let t = healthy();
        for fault in TRACE_FAULTS {
            let bad = corrupt_trace(&t, fault, &mut Rng::seed_from_u64(5));
            assert_ne!(bad, t, "{fault:?} left the trace untouched");
            assert_eq!(bad.events.len(), t.events.len(), "rank count is preserved");
        }
    }

    #[test]
    fn fallbacks_cover_traces_without_injection_points() {
        // EP is compute/collective heavy at tiny scale; strip its p2p
        // events so DropRecv/WildWaitRequest must take their fallbacks.
        let mut t = generate(&GenConfig::test_default(App::Ep, 4));
        for stream in &mut t.events {
            stream.retain(|e| matches!(e.kind, EventKind::Compute | EventKind::Coll { .. }));
        }
        for fault in [TraceFault::DropRecv, TraceFault::WildWaitRequest] {
            let bad = corrupt_trace(&t, fault, &mut Rng::seed_from_u64(9));
            assert_ne!(bad, t, "{fault:?} fallback produced no corruption");
        }
    }
}
