//! Failure injection: malformed traces, degenerate configurations, and
//! boundary conditions must fail loudly and precisely — never silently
//! mis-simulate, never panic past a tool boundary.
//!
//! Every test here asserts a *typed* error (`TraceError`, `TopoError`,
//! `ReplayError`, `SimError`, or a contained `ToolFailure`); nothing in
//! this suite is allowed to rely on `should_panic`.

use std::time::Duration;

use masim_core::{contained, Key, Store, StoreError, ToolFailure, CODE_FINGERPRINT, STORE_FILE};
use masim_mfact::{replay, try_replay, ModelConfig, ReplayError};
use masim_obs::{MetricSet, Snapshot};
use masim_rng::Rng;
use masim_sim::{simulate_budgeted, ModelKind, SimConfig, SimError, SimLimits, SimResult};
use masim_topo::{Machine, Mapping, NetworkConfig, TopoError};
use masim_trace::io::{self, DecodeError};
use masim_trace::{
    Event, EventKind, Rank, StreamError, StreamedTrace, Time, Trace, TraceError, TraceMeta,
};
use masim_workloads::{generate, App, CorpusEntry, GenConfig};

#[path = "common/chaos.rs"]
mod chaos;
use chaos::{corrupt_bytes, corrupt_trace, ByteFault, TraceFault, TRACE_FAULTS};

fn meta(ranks: u32) -> TraceMeta {
    TraceMeta {
        app: "fi".into(),
        machine: "t".into(),
        ranks,
        ranks_per_node: 1,
        problem_size: 1,
        seed: 0,
    }
}

/// The two-rank mutually-blocking-receive trace used by the deadlock
/// tests.
fn deadlock_trace() -> Trace {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::new(EventKind::Recv { peer: Rank(1), bytes: 8, tag: 0 }, Time::ZERO)];
    t.events[1] = vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 8, tag: 0 }, Time::ZERO)];
    t
}

/// The FT-64 trace used to exercise work and memory budgets: big
/// enough that a tiny limit trips mid-run.
fn ft64_trace() -> Trace {
    let mut gcfg = GenConfig::test_default(App::Ft, 64);
    gcfg.size = 3;
    gcfg.comm_fraction = 0.6;
    generate(&gcfg)
}

const PACKET: ModelKind = ModelKind::Packet { packet_bytes: 1024 };

/// A `cfg` run observed: its outcome and the telemetry it left behind.
fn observed(
    t: &Trace,
    cfg: &SimConfig,
    limits: SimLimits,
) -> (Result<SimResult, SimError>, Snapshot) {
    let ms = MetricSet::new();
    let res = masim_sim::run(t, cfg, limits, Some(&ms));
    (res, ms.snapshot())
}

/// The failure an observed run must report: a `SimError`, with telemetry
/// in which `counter` is the one failure bumped, once.
fn one_failure(run: (Result<SimResult, SimError>, Snapshot), counter: &str) -> SimError {
    let (res, ms) = run;
    let err = res.expect_err("the run must fail");
    let bumped: Vec<_> = ms.counters.iter().filter(|(_, &v)| v > 0).collect();
    assert_eq!(bumped, [(&counter.to_string(), &1)], "{err}");
    err
}

/// A truncated binary trace is rejected at every cut point.
#[test]
fn truncated_binary_rejected() {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::compute(Time::from_us(1))];
    t.events[1] = vec![Event::new(
        EventKind::Coll { kind: masim_trace::CollKind::Barrier, bytes: 0, root: Rank(0) },
        Time::ZERO,
    )];
    let bytes = io::encode(&t);
    for cut in [1, 4, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(io::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

/// Unmatched receives are caught by validation before any tool runs.
#[test]
fn unmatched_receive_caught() {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::compute(Time::from_us(1))];
    t.events[1] =
        vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 64, tag: 0 }, Time::ZERO)];
    assert!(matches!(t.validate(), Err(TraceError::UnmatchedMessage { .. })));
}

/// Zero-byte messages flow through both tools (MPI allows empty
/// payloads; the wire still carries a header).
#[test]
fn zero_byte_messages_work() {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::new(EventKind::Send { peer: Rank(1), bytes: 0, tag: 0 }, Time::ZERO)];
    t.events[1] = vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: 0, tag: 0 }, Time::ZERO)];
    assert_eq!(t.validate(), Ok(()));
    let machine = Machine::cielito();
    let m = replay(&t, &[ModelConfig::base(machine.net)]);
    assert!(m[0].total > Time::ZERO, "latency still applies");
    for model in ModelKind::study_models() {
        let r = masim_sim::run(
            &t,
            &SimConfig::new(machine.clone(), model, &t),
            SimLimits::unlimited(),
            None,
        )
        .expect("simulation completes");
        assert!(r.total > Time::ZERO, "{}", model.name());
    }
}

/// A single-rank trace (no communication possible) is fine everywhere.
#[test]
fn single_rank_trace_works() {
    let mut t = Trace::empty(meta(1));
    t.events[0] = vec![
        Event::compute(Time::from_ms(1)),
        Event::new(
            EventKind::Coll { kind: masim_trace::CollKind::Barrier, bytes: 0, root: Rank(0) },
            Time::ZERO,
        ),
    ];
    assert_eq!(t.validate(), Ok(()));
    let machine = Machine::cielito();
    let m = replay(&t, &[ModelConfig::base(machine.net)]);
    assert_eq!(m[0].per_rank.len(), 1);
    for model in ModelKind::study_models() {
        let r = masim_sim::run(
            &t,
            &SimConfig::new(machine.clone(), model, &t),
            SimLimits::unlimited(),
            None,
        )
        .expect("simulation completes");
        assert!(r.total >= Time::from_ms(1), "{}", model.name());
    }
}

/// Degenerate bandwidth figures are rejected at configuration time with
/// a typed error, not discovered as an infinite simulation.
#[test]
fn zero_bandwidth_rejected() {
    for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = NetworkConfig::try_new(gbps, 1_000)
            .expect_err("non-positive bandwidth must be rejected");
        assert!(
            matches!(err, TopoError::NonPositiveBandwidth { .. }),
            "gbps={gbps}: unexpected error {err}"
        );
    }
    assert!(NetworkConfig::try_new(10.0, 1_000).is_ok());
}

/// A mapping that oversubscribes node cores is rejected before the
/// simulation starts — as `SimError::InvalidConfig`, not a panic.
#[test]
fn oversubscribed_mapping_rejected() {
    let machine = Machine::cielito(); // 16 cores/node
    let mut t = Trace::empty(meta(34));
    for r in 0..34 {
        t.events[r] = vec![Event::compute(Time::from_us(1))];
    }
    let mut cfg = SimConfig {
        machine: machine.clone(),
        mapping: Mapping::block(34, 17), // 17 ranks on one 16-core node
        model: ModelKind::Flow,
    };
    let check = |err: SimError| match err {
        SimError::InvalidConfig { reason } => {
            assert!(reason.contains("mapping does not fit"), "reason: {reason}")
        }
        other => panic!("expected InvalidConfig, got {other}"),
    };
    check(simulate_budgeted(&t, &cfg, u64::MAX).expect_err("oversubscription must fail"));
    cfg.model = PACKET;
    check(one_failure(observed(&t, &cfg, SimLimits::unlimited()), "sim.config.invalid"));
}

/// Budget exhaustion returns a contextual error rather than a bogus
/// partial result.
#[test]
fn budget_exhaustion_is_explicit() {
    let t = ft64_trace();
    let machine = Machine::cielito();
    let cfg = SimConfig::new(machine, ModelKind::Packet { packet_bytes: 1024 }, &t);
    let err = simulate_budgeted(&t, &cfg, 2_000).expect_err("tiny budget must fail");
    assert!(
        matches!(err, SimError::BudgetExhausted { consumed, budget: 2_000 } if consumed > 2_000),
        "unexpected error: {err}"
    );
    let full = simulate_budgeted(&t, &cfg, u64::MAX).expect("unbounded run completes");
    assert!(full.events > 2_000);
}

/// Interned routes count against the memory budget, which is their one
/// bound. Each of 64 ranks, one per node, sends once to every other rank
/// (4 032 routes), so at most 64 messages are in flight while the route
/// arena grows past the pre-run footprint by more than 64 KiB; the ring
/// control sends as many messages over 64 routes and fits.
#[test]
fn route_memory_counts_against_the_memory_budget() {
    const RANKS: u32 = 64;
    let trace = |peer_at: &dyn Fn(u32, u32) -> (u32, u32)| {
        let mut t = Trace::empty(meta(RANKS));
        for r in 0..RANKS {
            t.events[r as usize] = (1..RANKS)
                .flat_map(|k| {
                    let (to, from) = peer_at(r, k);
                    let send = EventKind::Send { peer: Rank(to), bytes: 64, tag: 0 };
                    let recv = EventKind::Recv { peer: Rank(from), bytes: 64, tag: 0 };
                    [Event::new(send, Time::ZERO), Event::new(recv, Time::ZERO)]
                })
                .collect();
        }
        t
    };
    let all_pairs = trace(&|r, k| ((r + k) % RANKS, (r + RANKS - k) % RANKS));
    let ring = trace(&|r, _| ((r + 1) % RANKS, (r + RANKS - 1) % RANKS));
    let budget = |bytes| SimLimits::unlimited().with_memory_budget(bytes);
    let pre_run = |t: &Trace, cfg: &SimConfig| match masim_sim::run(t, cfg, budget(0), None) {
        Err(SimError::MemoryBudget { resident, budget: 0 }) => resident,
        other => panic!("a zero budget must trip before the run: {other:?}"),
    };

    let cfg = SimConfig::new(Machine::cielito(), PACKET, &all_pairs);
    let ms = MetricSet::new();
    masim_sim::run(&all_pairs, &cfg, SimLimits::unlimited(), Some(&ms)).expect("unbudgeted");
    // Before the run the arena holds only its dense 64 x 64 index.
    let grown = ms.snapshot().gauges["sim.route.arena_bytes"] - u64::from(RANKS * RANKS) * 8;
    assert!(grown > 64 << 10, "route arena grew by {grown} B");

    let limit = pre_run(&all_pairs, &cfg) + (64 << 10);
    let err = masim_sim::run(&all_pairs, &cfg, budget(limit), None).expect_err("routes outgrow it");
    assert!(
        matches!(err, SimError::MemoryBudget { resident, budget } if budget == limit && resident > limit),
        "{err}"
    );
    assert_eq!(ToolFailure::from_sim(err).code(), "memory");

    let cfg = SimConfig::new(Machine::cielito(), PACKET, &ring);
    let limit = pre_run(&ring, &cfg) + (64 << 10);
    let r = masim_sim::run(&ring, &cfg, budget(limit), None).expect("ring fits the same headroom");
    assert_eq!(r.messages, u64::from(RANKS * (RANKS - 1)));
}

/// A message whose packet count exceeds the u32 sequence space is a
/// typed `SimError::OversizedMessage`, not a truncated split or a
/// debug-assert.
#[test]
fn oversized_message_is_explicit() {
    let machine = Machine::cielito();
    let mut t = Trace::empty(meta(2));
    let huge = 1u64 << 50; // 2^50 B / 1 KiB packets = 2^40 packets > u32::MAX
    t.events[0] =
        vec![Event::new(EventKind::Send { peer: Rank(1), bytes: huge, tag: 0 }, Time::ZERO)];
    t.events[1] =
        vec![Event::new(EventKind::Recv { peer: Rank(0), bytes: huge, tag: 0 }, Time::ZERO)];
    let mut cfg = SimConfig::new(machine, ModelKind::Packet { packet_bytes: 1024 }, &t);
    cfg.mapping = Mapping::block(2, 1); // inter-node: the message hits the wire
    match one_failure(observed(&t, &cfg, SimLimits::unlimited()), "sim.msg.oversized") {
        SimError::OversizedMessage { bytes, packets } => {
            assert_eq!(bytes, huge);
            assert!(packets > u64::from(u32::MAX), "packets: {packets}");
        }
        ref other => panic!("expected OversizedMessage, got {other}"),
    }
}

/// An all-to-all over more than 2 049 ranks lowers to more pairwise
/// rounds than the collective tag space numbers: every rank entering it
/// latches a typed `SimError::CollectiveTagOverflow` (previously an
/// assert at round 2 048), which the study records as an invalid
/// configuration.
#[test]
fn collective_tag_overflow_is_explicit() {
    let ranks = 2_050;
    let mut t = Trace::empty(meta(ranks));
    for r in 0..ranks as usize {
        let kind = masim_trace::CollKind::Alltoallv;
        t.events[r] = vec![
            Event::compute(Time::from_us(1)),
            Event::new(EventKind::Coll { kind, bytes: 1 << 20, root: Rank(0) }, Time::ZERO),
        ];
    }
    assert_eq!(t.validate(), Ok(()));
    let cfg = SimConfig::new(Machine::frontier(), PACKET, &t);
    let err = one_failure(observed(&t, &cfg, SimLimits::unlimited()), "sim.coll.tag-overflow");
    assert_eq!(err, SimError::CollectiveTagOverflow { rank: 0, ordinal: 0, rounds: 2_049 });
    assert!(err.to_string().contains("2049 rounds"), "{err}");
    let failure = ToolFailure::from_sim(err);
    assert_eq!(failure.code(), "invalid-config");
    // MFACT costs the collective in closed form and has no tag space.
    assert!(try_replay(&t, &[ModelConfig::base(cfg.machine.net)], None).is_ok());
}

/// A resident-memory budget trips as `SimError::MemoryBudget` with both
/// sides of the comparison, instead of the allocator aborting the
/// process at scale.
#[test]
fn memory_budget_is_explicit() {
    let t = ft64_trace();
    let machine = Machine::cielito();
    let cfg = SimConfig::new(machine, ModelKind::Flow, &t);
    let limits = SimLimits::unlimited().with_memory_budget(4096);
    let err = masim_sim::run(&t, &cfg, limits, None).expect_err("4 KiB budget must fail");
    match err {
        SimError::MemoryBudget { resident, budget } => {
            assert_eq!(budget, 4096);
            assert!(resident > 4096, "resident: {resident}");
        }
        ref other => panic!("expected MemoryBudget, got {other}"),
    }
    // The packet model trips the same budget before any event runs.
    let cfg = SimConfig::new(cfg.machine, PACKET, &t);
    let res = masim_sim::run(&t, &cfg, limits, None);
    assert!(matches!(res, Err(SimError::MemoryBudget { budget: 4096, .. })), "{res:?}");
    // The same failure normalizes to the study-level "memory" code.
    let failure = ToolFailure::from_sim(err);
    assert_eq!(failure.code(), "memory");
    assert!(matches!(failure, ToolFailure::MemoryBudget { .. }));
}

/// The memory budget charges what is in flight, not what the run has
/// sent: a 16-rank ring of 2 000 iterations (32 000 messages) fits in
/// its pre-run footprint plus 64 KiB on every model.
#[test]
fn memory_budget_charges_in_flight_messages_not_history() {
    const RANKS: u32 = 16;
    let mut t = Trace::empty(meta(RANKS));
    for r in 0..RANKS {
        let (next, prev) = (Rank((r + 1) % RANKS), Rank((r + RANKS - 1) % RANKS));
        let send = Event::new(EventKind::Send { peer: next, bytes: 4096, tag: 0 }, Time::ZERO);
        let recv = Event::new(EventKind::Recv { peer: prev, bytes: 4096, tag: 0 }, Time::ZERO);
        t.events[r as usize] = (0..2000).flat_map(|_| [send.clone(), recv.clone()]).collect();
    }
    for model in ModelKind::study_models() {
        let cfg = SimConfig::new(Machine::cielito(), model, &t);
        let budget = |bytes| SimLimits::unlimited().with_memory_budget(bytes);
        let resident = match masim_sim::run(&t, &cfg, budget(0), None) {
            Err(SimError::MemoryBudget { resident, budget: 0 }) => resident,
            other => panic!("{}: a zero budget must trip before the run: {other:?}", model.name()),
        };
        let res = masim_sim::run(&t, &cfg, budget(resident + (64 << 10)), None);
        match res {
            Ok(r) => assert_eq!(r.messages, 32_000, "{}", model.name()),
            Err(e) => panic!("{}: pre-run footprint {resident} B + 64 KiB: {e}", model.name()),
        }
    }
}

/// MFACT rejects replays of deadlocking traces with a typed error
/// instead of hanging or panicking.
#[test]
fn mfact_detects_deadlock() {
    let t = deadlock_trace();
    let err = try_replay(&t, &[ModelConfig::base(Machine::cielito().net)], None)
        .expect_err("deadlock must be detected");
    assert_eq!(err, ReplayError::Deadlock { finished: 0, total: 2 });
}

/// The simulator detects the same deadlock, reporting which ranks were
/// still blocked when the event queue drained.
#[test]
fn simulator_detects_deadlock() {
    let t = deadlock_trace();
    let machine = Machine::cielito();
    let check = |err: SimError| match err {
        SimError::Deadlock { finished, total, ref waiting_ranks, .. } => {
            assert_eq!((finished, total), (0, 2));
            assert_eq!(waiting_ranks, &[0, 1], "blocked ranks must be reported");
        }
        ref other => panic!("expected Deadlock, got {other}"),
    };
    let cfg = SimConfig::new(machine.clone(), ModelKind::Flow, &t);
    check(simulate_budgeted(&t, &cfg, u64::MAX).expect_err("deadlock must be detected"));
    let cfg = SimConfig::new(machine, PACKET, &t);
    check(one_failure(observed(&t, &cfg, SimLimits::unlimited()), "sim.deadlock.detected"));
}

/// Seeded fuzz over the binary codec: every truncation is rejected and
/// no bit flip can make `decode` (or validation of whatever it yields)
/// panic. Fixed seeds keep the sweep reproducible.
#[test]
fn decode_fuzz_survives_byte_corruption() {
    let t = generate(&GenConfig::test_default(App::Mg, 8));
    let bytes = io::encode(&t);
    assert_eq!(io::decode(&bytes).expect("healthy buffer decodes"), t);
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let cut = corrupt_bytes(&bytes, ByteFault::Truncate, &mut rng);
        assert!(
            io::decode(&cut).is_err(),
            "seed {seed}: truncation to {} of {} bytes must be rejected",
            cut.len(),
            bytes.len()
        );
        let flipped = corrupt_bytes(&bytes, ByteFault::FlipBit, &mut rng);
        // A single flipped bit may or may not be structurally fatal;
        // both outcomes are fine, unwinding is not.
        let outcome = contained(|| Ok(io::decode(&flipped).map(|t2| t2.validate().is_ok())));
        assert!(
            !matches!(outcome, Err(ToolFailure::Panicked { .. })),
            "seed {seed}: decode of flipped buffer panicked"
        );
    }
}

// ---- hostile MASS shapes -------------------------------------------------
//
// Each shape below must be a typed `DecodeError` from both readers of the
// binary format, `io::decode` and `StreamedTrace::from_bytes`: no panic and
// no allocation sized by a count the buffer cannot back. The shapes edit
// real encoder output, so they know only the layout documented in
// `masim_trace::io`: header, then one 24-byte (offset, length, count) index
// entry per rank, then the per-rank segments.

/// Both readers reject `bytes` with the same typed error, which is returned.
fn mass_rejected(bytes: &[u8]) -> DecodeError {
    let err = io::decode(bytes).expect_err("hostile bytes must not decode");
    let opened = StreamedTrace::from_bytes(bytes.to_vec()).map(|_| ());
    assert_eq!(opened, Err(StreamError::Decode(err.clone())));
    err
}

/// A two-rank trace: rank 0 runs just `kind`, taking no time, so its
/// segment starts `[tag, 0, …]`; rank 1 runs one 1 ps compute gap.
fn mass_pair(kind: EventKind) -> Trace {
    let mut t = Trace::empty(meta(2));
    t.events[0] = vec![Event::new(kind, Time::ZERO)];
    t.events[1] = vec![Event::compute(Time::from_ps(1))];
    t
}

/// Where `t`'s segment index starts: the header is what an event-free
/// trace of the same meta encodes to, minus that trace's index.
fn mass_index_at(t: &Trace) -> usize {
    io::encode(&Trace::empty(t.meta.clone())).len() - 24 * t.events.len()
}

/// `t`'s bytes with `rank`'s index field `k` (0 offset, 1 length, 2 event
/// count) overwritten by `v`.
fn mass_with_index(t: &Trace, rank: usize, k: usize, v: u64) -> Vec<u8> {
    let mut bytes = io::encode(t);
    let at = mass_index_at(t) + 24 * rank + 8 * k;
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    bytes
}

/// `t`'s bytes with rank 0's segment edited by `edit`, the index re-laid
/// so the segments still tile the payload.
fn mass_with_segment(t: &Trace, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let bytes = io::encode(t);
    let index_at = mass_index_at(t);
    let payload_at = index_at + 24 * t.events.len();
    let len0 = u64::from_le_bytes(bytes[index_at + 8..index_at + 16].try_into().unwrap());
    let mut seg0 = bytes[payload_at..payload_at + len0 as usize].to_vec();
    edit(&mut seg0);
    let mut out = mass_with_index(t, 0, 1, seg0.len() as u64);
    for r in 1..t.events.len() {
        let at = index_at + 24 * r;
        let off = u64::from_le_bytes(out[at..at + 8].try_into().unwrap());
        out[at..at + 8].copy_from_slice(&(off - len0 + seg0.len() as u64).to_le_bytes());
    }
    out.splice(payload_at..payload_at + len0 as usize, seg0);
    out
}

#[test]
fn mass_out_of_order_or_overlapping_segments_rejected() {
    let t = mass_pair(EventKind::Compute);
    let order = DecodeError::Truncated { context: "segment order" };
    // Both segments are two bytes (tag, duration), so rank 1 starts at 2:
    // overlap rank 0, leave a gap, or put rank 0 after rank 1.
    for (rank, off) in [(1, 0), (1, 1), (1, 3), (0, 2)] {
        let bytes = mass_with_index(&t, rank, 0, off);
        assert_eq!(mass_rejected(&bytes), order, "rank {rank} at {off}");
    }
}

#[test]
fn mass_segment_lengths_past_the_payload_rejected() {
    let t = mass_pair(EventKind::Compute);
    assert_eq!(
        mass_rejected(&mass_with_index(&t, 1, 1, 3)),
        DecodeError::Truncated { context: "segment payload" }
    );
    assert_eq!(
        mass_rejected(&mass_with_index(&t, 1, 1, u64::MAX)),
        DecodeError::Truncated { context: "segment span" }
    );
}

#[test]
fn mass_huge_event_counts_rejected() {
    let t = mass_pair(EventKind::Compute);
    for rank in 0..2 {
        assert_eq!(
            mass_rejected(&mass_with_index(&t, rank, 2, u64::MAX)),
            DecodeError::Truncated { context: "event tag" },
            "rank {rank}"
        );
    }
}

#[test]
fn mass_rank_count_the_index_cannot_back_rejected() {
    let t = mass_pair(EventKind::Compute);
    let mut bytes = io::encode(&t);
    // `ranks` is the first of the three u32s that end the header, before
    // the u64 seed.
    let at = mass_index_at(&t) - 20;
    for ranks in [bytes.len() as u32 / 24 + 1, u32::MAX] {
        bytes[at..at + 4].copy_from_slice(&ranks.to_le_bytes());
        assert_eq!(
            mass_rejected(&bytes),
            DecodeError::Truncated { context: "segment index" },
            "ranks {ranks}"
        );
    }
}

#[test]
fn mass_overlong_varints_rejected() {
    // Rank 0's compute duration as a 10-byte varint carrying a 65th bit,
    // and as an 11-byte one.
    let ten = [[0xff; 9].as_slice(), &[0x02]].concat();
    let eleven = [[0x80; 10].as_slice(), &[0x00]].concat();
    for varint in [ten, eleven] {
        let bytes = mass_with_segment(&mass_pair(EventKind::Compute), |seg| {
            seg.splice(1.., varint.iter().copied());
        });
        assert!(matches!(mass_rejected(&bytes), DecodeError::BadTag(_)), "{varint:x?}");
    }
}

#[test]
fn mass_unknown_event_and_collective_tags_rejected() {
    let compute = mass_pair(EventKind::Compute);
    let coll = mass_pair(EventKind::Coll {
        kind: masim_trace::CollKind::Barrier,
        bytes: 0,
        root: Rank(0),
    });
    for byte in 8..=u8::MAX {
        let bytes = mass_with_segment(&compute, |seg| seg[0] = byte);
        assert_eq!(mass_rejected(&bytes), DecodeError::BadTag(byte));
    }
    // The collective kind is the byte after the tag and the duration.
    let kinds = masim_trace::CollKind::ALL.len() as u8;
    for byte in kinds..=u8::MAX {
        let bytes = mass_with_segment(&coll, |seg| seg[2] = byte);
        assert_eq!(mass_rejected(&bytes), DecodeError::BadTag(byte));
    }
}

#[test]
fn mass_every_truncation_of_a_multi_rank_trace_rejected() {
    let bytes = io::encode(&generate(&GenConfig::test_default(App::Mg, 8)));
    for cut in 0..bytes.len() {
        mass_rejected(&bytes[..cut]);
    }
}

/// A peer or root naming no rank, or zero ranks per node, would reach the
/// simulator's mapping as an out-of-bounds index; it is refused at open.
#[test]
fn mass_ranks_outside_the_world_rejected() {
    let out = |field, value| DecodeError::OutOfRange { field, value };
    let peer = Rank(5);
    let (bytes, tag, req) = (8, 0, masim_trace::ReqId(0));
    for kind in [
        EventKind::Send { peer, bytes, tag },
        EventKind::Isend { peer, bytes, tag, req },
        EventKind::Recv { peer, bytes, tag },
        EventKind::Irecv { peer, bytes, tag, req },
    ] {
        assert_eq!(mass_rejected(&io::encode(&mass_pair(kind))), out("peer", 5));
    }
    let root = EventKind::Coll { kind: masim_trace::CollKind::Bcast, bytes, root: Rank(2) };
    assert_eq!(mass_rejected(&io::encode(&mass_pair(root))), out("root", 2));
    let mut t = mass_pair(EventKind::Compute);
    t.meta.ranks_per_node = 0;
    assert_eq!(mass_rejected(&io::encode(&t)), out("ranks_per_node", 0));
}

/// A message tag or collective root varint wider than its `u32` field is
/// refused, not truncated into a different, valid value.
#[test]
fn mass_u32_fields_wider_than_32_bits_rejected() {
    let out = |field, value| DecodeError::OutOfRange { field, value };
    // LEB128 of 2^32, whose low 32 bits are the valid value 0.
    let wide = [0x80u8, 0x80, 0x80, 0x80, 0x10];
    let send = mass_pair(EventKind::Send { peer: Rank(1), bytes: 0, tag: 0 });
    let coll =
        mass_pair(EventKind::Coll { kind: masim_trace::CollKind::Bcast, bytes: 0, root: Rank(0) });
    // Both segments are `[tag, duration, peer delta | kind, bytes, tag | root]`.
    for (t, field) in [(send, "tag"), (coll, "root")] {
        let bytes = mass_with_segment(&t, |seg| {
            seg.splice(4.., wide);
        });
        assert_eq!(mass_rejected(&bytes), out(field, 1 << 32));
    }
}

/// Chaos sweep: every structural corruption lands in a typed error at
/// validation, and even tools fed the corrupt trace *without* prior
/// validation either return a typed error or are contained — no panic
/// ever escapes a tool boundary.
#[test]
fn chaos_trace_faults_land_in_typed_errors() {
    let healthy = generate(&GenConfig::test_default(App::Cg, 8));
    let machine = Machine::cielito();
    let configs = [ModelConfig::base(machine.net)];
    // Derive the sim config from the healthy twin (same meta and rank
    // count): deriving it from the corrupted trace would overflow in
    // debug builds before the containment boundary is even reached.
    let cfg = SimConfig::new(machine.clone(), PACKET, &healthy);
    for fault in TRACE_FAULTS {
        for seed in 0..6u64 {
            let bad = corrupt_trace(&healthy, fault, &mut Rng::seed_from_u64(seed));

            // Stage 1: validation. Every structural fault except the
            // pathological-but-well-formed compute duration is caught
            // here with a typed TraceError.
            let verdict =
                contained(|| Ok(bad.validate())).expect("validation itself must never panic");
            match fault {
                TraceFault::HugeCompute => {
                    assert_eq!(verdict, Ok(()), "{fault:?}/{seed}: huge durations are well-formed")
                }
                _ => assert!(verdict.is_err(), "{fault:?}/{seed}: validation must object"),
            }

            // Stage 2: MFACT replay behind the containment boundary.
            // The logical clock uses unchecked adds, so HugeCompute may
            // debug-panic — `contained` must turn that into a typed
            // failure rather than an unwind.
            let mfact = contained(|| {
                try_replay(&bad, &configs, None).map(|_| ()).map_err(ToolFailure::from_replay)
            });
            match fault {
                TraceFault::RecvRecvDeadlock => assert!(
                    matches!(mfact, Err(ToolFailure::Deadlock { .. })),
                    "{fault:?}/{seed}: expected typed deadlock, got {mfact:?}"
                ),
                TraceFault::HugeCompute => { /* contained() returning at all is the contract */ }
                _ => assert!(mfact.is_err(), "{fault:?}/{seed}: replay must fail: {mfact:?}"),
            }

            // Stage 3: the discrete-event simulator, same boundary. Its
            // clock arithmetic is checked, so even the overflow fault must
            // surface as a typed SimError.
            let run = contained(|| Ok(observed(&bad, &cfg, SimLimits::unlimited())))
                .unwrap_or_else(|e| panic!("{fault:?}/{seed}: simulator panicked: {e:?}"));
            let res = &run.0;
            // The study-level code the outcome normalizes to.
            let failure = res.as_ref().map_err(|e| ToolFailure::from_sim(e.clone()));
            match fault {
                TraceFault::HugeCompute => assert!(
                    matches!(res, Err(SimError::ClockOverflow { .. }))
                        && matches!(failure, Err(ToolFailure::ClockOverflow { .. })),
                    "{fault:?}/{seed}: expected typed overflow, got {res:?} -> {failure:?}"
                ),
                TraceFault::RecvRecvDeadlock => assert!(
                    matches!(res, Err(SimError::Deadlock { .. }))
                        && matches!(failure, Err(ToolFailure::Deadlock { .. })),
                    "{fault:?}/{seed}: expected typed deadlock, got {res:?} -> {failure:?}"
                ),
                _ => { /* any typed outcome: a panic was caught above */ }
            }
            if fault == TraceFault::WildWaitRequest {
                let err = one_failure(run, "sim.trace.malformed");
                let dangling = matches!(err, SimError::Malformed(TraceError::DanglingWait { .. }));
                assert!(dangling, "{fault:?}/{seed}: {err}");
            }
        }
    }
}

/// `t` with every request id of every rank XORed with `mask`.
fn relabel_requests(t: &Trace, mask: u32) -> Trace {
    let mut t = t.clone();
    for e in t.events.iter_mut().flatten() {
        match &mut e.kind {
            EventKind::Isend { req, .. }
            | EventKind::Irecv { req, .. }
            | EventKind::Wait { req } => req.0 ^= mask,
            EventKind::WaitAll { reqs } => reqs.iter_mut().for_each(|req| req.0 ^= mask),
            _ => {}
        }
    }
    t
}

/// What one trace predicts: MFACT's standard sweep, every field but the
/// configuration, and per study model the simulator's total, per-rank
/// finish times, events, messages and link bytes.
type Predictions = (Vec<(Time, Vec<Time>, Time, masim_mfact::Counters)>, Vec<SimOutcome>);
type SimOutcome = (Time, Vec<Time>, u64, u64, Vec<u64>);

fn predictions<'a>(src: impl Into<masim_trace::TraceSource<'a>>, machine: &Machine) -> Predictions {
    let src = src.into();
    let sweep = ModelConfig::standard_sweep(machine.net);
    let mfact = try_replay(src, &sweep, None).expect("MFACT replays");
    let mfact = mfact.into_iter().map(|c| (c.total, c.per_rank, c.comm_time, c.counters)).collect();
    let meta = match src {
        masim_trace::TraceSource::Memory(t) => &t.meta,
        masim_trace::TraceSource::Streamed(s) => s.meta(),
    };
    let sim = ModelKind::study_models().map(|model| {
        let cfg = SimConfig {
            machine: machine.clone(),
            mapping: Mapping::block(meta.ranks, meta.ranks_per_node),
            model,
        };
        let r = masim_sim::run(src, &cfg, SimLimits::unlimited(), None).expect("simulation runs");
        (r.total, r.per_rank, r.events, r.messages, r.link_bytes)
    });
    (mfact, sim.to_vec())
}

/// Request ids are opaque labels: relabeling every id of every rank, by
/// `r ↦ u32::MAX − r` and by `r ↦ r ^ 2^31`, changes no prediction of
/// MFACT or of any simulator model, from memory or streamed. Both maps
/// reach ids a tool could be tempted to reserve for its own receives.
#[test]
fn request_rules_ids_are_opaque_labels() {
    let mut entries = masim_workloads::build_corpus(7);
    entries.sort_by_key(|e| e.cfg.ranks);
    let nonblocking = |t: &Trace| {
        t.events.iter().flatten().any(|e| matches!(e.kind, EventKind::Isend { .. }))
            && t.events.iter().flatten().any(|e| matches!(e.kind, EventKind::Irecv { .. }))
    };
    // The smallest traces of three apps that issue both.
    let mut picked = Vec::new();
    for e in &entries {
        if picked.len() < 3
            && picked.iter().all(|(p, _): &(&CorpusEntry, Trace)| p.cfg.app != e.cfg.app)
        {
            let t = e.generate();
            if nonblocking(&t) {
                picked.push((e, t));
            }
        }
    }
    assert_eq!(picked.len(), 3, "the corpus has three apps with Isend and Irecv");
    for (entry, trace) in &picked {
        let machine = Machine::by_name(&entry.cfg.machine).expect("corpus machine");
        let label = format!("{}({})", entry.cfg.app.name(), entry.cfg.ranks);
        let want = predictions(trace, &machine);
        // `r ^ u32::MAX` is `u32::MAX - r`.
        for mask in [u32::MAX, 0x8000_0000] {
            let moved = relabel_requests(trace, mask);
            assert_ne!(&moved, trace);
            assert!(predictions(&moved, &machine) == want, "{label}, r ^ {mask:#x}, in memory");
            let stream =
                StreamedTrace::from_bytes(io::encode(&moved)).expect("relabeled trace opens");
            assert!(predictions(&stream, &machine) == want, "{label}, r ^ {mask:#x}, streamed");
        }
    }
}

/// One malformed trace, one error: for a trace with a single request or
/// peer defect, validation, MFACT and every simulator model report the
/// same `TraceError`, from memory and, where the trace encodes, streamed.
/// Nothing panics. An out-of-range peer does not encode: the decoder
/// refuses it.
#[test]
fn request_rules_one_malformed_trace_gives_one_error() {
    use masim_trace::ReqId;
    let ev = |kind| Event::new(kind, Time::from_us(1));
    let send = |peer, tag| ev(EventKind::Send { peer: Rank(peer), bytes: 8, tag });
    let recv = |peer, tag| ev(EventKind::Recv { peer: Rank(peer), bytes: 8, tag });
    let isend =
        |peer, tag, req| ev(EventKind::Isend { peer: Rank(peer), bytes: 8, tag, req: ReqId(req) });
    let irecv =
        |peer, tag, req| ev(EventKind::Irecv { peer: Rank(peer), bytes: 8, tag, req: ReqId(req) });
    let wait = |req| ev(EventKind::Wait { req: ReqId(req) });
    let wait_all =
        |reqs: &[u32]| ev(EventKind::WaitAll { reqs: reqs.iter().map(|&r| ReqId(r)).collect() });
    let two = |r0, r1| Trace { events: vec![r0, r1], ..Trace::empty(meta(2)) };
    let rank = Rank(0);
    let out = TraceError::PeerOutOfRange { rank, peer: Rank(2) };
    let cases = [
        (
            "reused outstanding Isend id",
            two(vec![isend(1, 0, 3), isend(1, 1, 3), wait(3)], vec![recv(0, 0), recv(0, 1)]),
            TraceError::RequestReuse { rank, req: 3 },
        ),
        (
            "reused outstanding Irecv id",
            two(vec![irecv(1, 0, 3), irecv(1, 1, 3), wait(3)], vec![send(0, 0), send(0, 1)]),
            TraceError::RequestReuse { rank, req: 3 },
        ),
        (
            "Wait on a never-issued id",
            two(vec![wait(42)], vec![ev(EventKind::Compute)]),
            TraceError::DanglingWait { rank, req: 42 },
        ),
        (
            "WaitAll naming an unknown id",
            two(vec![irecv(1, 0, 0), wait_all(&[0, 7])], vec![send(0, 0)]),
            TraceError::DanglingWait { rank, req: 7 },
        ),
        ("Send to peer = world", two(vec![send(2, 0)], vec![ev(EventKind::Compute)]), out.clone()),
        (
            "Isend to peer = world",
            two(vec![isend(2, 0, 0), wait(0)], vec![ev(EventKind::Compute)]),
            out.clone(),
        ),
        (
            "Recv from peer = world",
            two(vec![recv(2, 0)], vec![ev(EventKind::Compute)]),
            out.clone(),
        ),
        (
            "Irecv from peer = world",
            two(vec![irecv(2, 0, 0), wait(0)], vec![ev(EventKind::Compute)]),
            out.clone(),
        ),
    ];
    let machine = Machine::cielito();
    let configs = [ModelConfig::base(machine.net)];
    for (what, t, want) in cases {
        let validated = contained(|| Ok(t.validate())).expect("validation never panics");
        assert_eq!(validated, Err(want.clone()), "{what}: validate");
        let tools = |src: masim_trace::TraceSource<'_>, how: &str| {
            let mfact = contained(|| Ok(try_replay(src, &configs, None).map(|_| ())));
            assert_eq!(mfact, Ok(Err(ReplayError::Malformed(want.clone()))), "{what}: MFACT {how}");
            for model in ModelKind::study_models() {
                let cfg = SimConfig::new(machine.clone(), model, &t);
                let sim = contained(|| {
                    Ok(masim_sim::run(src, &cfg, SimLimits::unlimited(), None).map(|_| ()))
                });
                let name = model.name();
                assert_eq!(sim, Ok(Err(SimError::Malformed(want.clone()))), "{what}: {name} {how}");
            }
        };
        tools((&t).into(), "in memory");
        match StreamedTrace::from_bytes(io::encode(&t)) {
            Ok(stream) => tools((&stream).into(), "streamed"),
            Err(e) => {
                assert_eq!(want, out, "{what}: only out-of-range peers fail to decode");
                let field = DecodeError::OutOfRange { field: "peer", value: 2 };
                assert_eq!(e, StreamError::Decode(field), "{what}: decode");
            }
        }
    }
}

/// The containment primitive itself: an arbitrary panic inside a tool
/// closure becomes `ToolFailure::Panicked` carrying the payload.
#[test]
fn panics_become_typed_failures() {
    let r = contained::<()>(|| panic!("injected tool crash"));
    assert_eq!(r, Err(ToolFailure::Panicked { message: "injected tool crash".into() }));
}

/// Chaos-built mixed-failure study: MFACT fails on one trace while
/// packet-flow completes (and vice versa on another) — exactly the
/// shape the old report.rs unwraps panicked on. Every report must
/// render and census the incomplete traces.
#[test]
fn chaos_mixed_failure_study_renders_all_reports() {
    use masim_core::{report, Study, StudyConfig, ToolRun};

    let mut study = Study::run_filtered(StudyConfig::default(), |i| i == 30 || i == 40);
    assert!(study.traces.iter().all(|t| t.mfact.completed() && t.pflow.completed()));

    // Derive a *real* typed MFACT failure from the chaos injectors: a
    // RecvRecvDeadlock-corrupted trace deadlocks the replay behind the
    // containment boundary.
    let healthy = generate(&GenConfig::test_default(App::Cg, 8));
    let bad = corrupt_trace(&healthy, TraceFault::RecvRecvDeadlock, &mut Rng::seed_from_u64(3));
    let chaos_failure = contained(|| {
        try_replay(&bad, &[ModelConfig::base(Machine::cielito().net)], None)
            .map(|_| ())
            .map_err(ToolFailure::from_replay)
    })
    .expect_err("deadlock fault must fail the replay");
    assert!(matches!(chaos_failure, ToolFailure::Deadlock { .. }), "{chaos_failure:?}");

    // Install it as trace 0's MFACT outcome (packet-flow still fine) and
    // as trace 1's packet-flow outcome (MFACT still fine).
    let wall = study.traces[0].mfact.wall;
    study.traces[0].mfact = ToolRun::failed(chaos_failure.clone(), wall);
    let wall = study.traces[1].pflow.wall;
    study.traces[1].pflow = ToolRun::failed(chaos_failure, wall);

    for text in [
        report::table1(&study),
        report::fig1(&study),
        report::fig2(&study),
        report::fig3(&study),
        report::fig4(&study),
        report::fig5(&study),
        report::class_census(&study),
        report::study_csv(&study),
        report::table2_text(&study.traces),
    ] {
        assert!(!text.is_empty());
        assert!(!text.contains("NaN"), "{text}");
    }
    // Censuses: fig1 reports the deadlock cause, the per-app reports and
    // Table II annotate the exclusions.
    assert!(report::fig1(&study).contains("deadlock"));
    let per_app = format!("{}{}", report::fig3(&study), report::fig4(&study));
    assert!(per_app.contains("incomplete"), "{per_app}");
    assert!(report::table2_text(&study.traces).contains("incomplete"));
}

// ---------------------------------------------------------------------
// Hostile result stores: every line is checked when the store opens
// ---------------------------------------------------------------------

/// A fresh store in a scratch directory holding one real record (the
/// tiny CMC(16), its MFACT run recorded as a 3-of-16 deadlock); returns
/// the directory and the record's line.
fn store_with_one_record() -> (std::path::PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("masim-fi-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = masim_core::report::table2_config(7);
    let entry = &masim_core::report::table2_tiny_entries(7)[0];
    let mut obs = masim_core::run_one_observed(entry, &cfg);
    let deadlock = ToolFailure::Deadlock { finished: 3, total: 16 };
    obs.study.mfact = masim_core::ToolRun::failed(deadlock, Duration::ZERO);
    let store = Store::open(&dir).unwrap();
    store.append(Key::new(entry, &cfg), 0, &obs.study, &obs.sidecars).unwrap();
    let line = std::fs::read_to_string(dir.join(STORE_FILE)).unwrap();
    (dir, line)
}

/// Every line of a result store is checked when it opens. A sidecar
/// `tool` that is not one plain file name (it would be streamed as a
/// frame name and written as `<stem>_<tool>.json`) and a deadlock count
/// wider than `u32` are corrupt on their line; a line under another
/// code fingerprint is skipped without decoding its body, so even
/// garbage there is no corruption.
#[test]
fn hostile_store_lines_are_typed_when_the_store_opens() {
    let (dir, good) = store_with_one_record();
    let reopen = |text: &str| {
        std::fs::write(dir.join(STORE_FILE), text).unwrap();
        Store::open(&dir)
    };
    let cases = [
        ("\"tool\":\"packet\"", "\"tool\":\"../x\"", "../x"),
        ("\"finished\":3", "\"finished\":4294967296", "finished"),
    ];
    for (from, to, needle) in cases {
        let hostile = good.replacen(from, to, 1);
        assert_ne!(hostile, good);
        let err = reopen(&format!("{hostile}{good}")).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt { line: 1, reason } if reason.contains(needle)),
            "{to}: {err}"
        );
    }
    // The record's own key, under another build's code fingerprint.
    let key = &good[8..58];
    let foreign = format!("{}{:016x}", &key[..34], CODE_FINGERPRINT ^ 1);
    let garbage = format!("{{\"key\":\"{foreign}\",\"study\":\u{1}not json at all]]\n");
    let store = reopen(&format!("{garbage}{good}{garbage}{good}")).unwrap();
    assert_eq!(store.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
