//! Ground-truth oracles: cases whose answer is known in closed form, so
//! the tools are judged against arithmetic rather than against each
//! other. Every time is exact picoseconds, with no tolerance. The first
//! two cases and the k-flow incast run on one machine of each topology
//! class: torus (Cielito), dragonfly (Edison) and a small leaf-spine fat
//! tree. The third pins MFACT's clocks on Cielito; the fourth judges no
//! time, but checks the simulator's collective lowering, round by round
//! and byte by byte. Where no closed form exists, run-level invariants
//! judge random `TraceSynth` programs on the same three machines.
//!
//! The expected values are computed here in integer arithmetic from the
//! machine's published scalars, never through the crates' own
//! `Bandwidth::transfer_time` or `LinkTable::ser`. The message size is
//! chosen so that every serialization time is a whole number of
//! picoseconds on every machine below.

use masim_core::report::table2_tiny_entries;
use masim_mfact::{replay, ModelConfig};
use masim_rng::Rng;
use masim_sim::{ModelKind, SimConfig, SimLimits};
use masim_topo::{FatTree, LinkKind, Machine, Mapping, NetworkConfig};
use masim_trace::{CollKind, NodeId, Rank, RankBuilder, Time, Trace, TraceMeta};
use masim_workloads::{build_corpus, App, GenConfig, TraceSynth};
use std::sync::Arc;

/// Message bytes: `M · 8000 / gbps` ps is whole on a NIC link and
/// `M · 8000 / (gbps · cores)` ps on a fabric link of every machine here.
const M: u64 = 720;

/// A machine with the integer figures its closed forms are built from.
struct Case {
    machine: Machine,
    /// Hockney bandwidth, Gb/s.
    gbps: u64,
    /// Hockney latency α, ns.
    latency_ns: u64,
}

fn cases() -> [Case; 3] {
    let fat_tree = Machine::new(
        "fattree-small",
        Arc::new(FatTree::try_new(4, 2, 4).expect("valid fat tree shape")),
        NetworkConfig::new(10.0, 1_000),
        4,
    );
    [
        Case { machine: Machine::cielito(), gbps: 10, latency_ns: 2_500 },
        Case { machine: Machine::edison(), gbps: 24, latency_ns: 1_300 },
        Case { machine: fat_tree, gbps: 10, latency_ns: 1_000 },
    ]
}

impl Case {
    /// Serialization of `M` bytes, ps, at `gbps / 1000` bytes per ps.
    fn ser_ps(&self, gbps: u64) -> u64 {
        assert_eq!(M * 8_000 % gbps, 0, "{}: M must serialize in whole ps", self.machine.name);
        M * 8_000 / gbps
    }

    /// `M` bytes on a per-rank NIC link (the Hockney bandwidth).
    fn nic_ser_ps(&self) -> u64 {
        self.ser_ps(self.gbps)
    }

    /// `M` bytes on a fabric link (node-aggregated: bandwidth × cores).
    fn fabric_ser_ps(&self) -> u64 {
        self.ser_ps(self.gbps * u64::from(self.machine.cores_per_node))
    }

    /// The machine's figures are the ones the closed form assumes.
    fn check_scalars(&self) {
        let net = self.machine.net;
        assert_eq!(net.bandwidth.as_gbps(), self.gbps as f64, "{}", self.machine.name);
        assert_eq!(net.latency, Time::from_ns(self.latency_ns), "{}", self.machine.name);
    }
}

fn meta(ranks_per_node: u32) -> TraceMeta {
    TraceMeta {
        app: "oracle".into(),
        machine: "oracle".into(),
        ranks: 2,
        ranks_per_node,
        problem_size: 1,
        seed: 0,
    }
}

/// (i) An intra-node ping-pong of `M` bytes costs `2·(α + M·β)`: rank 0
/// sends and then receives the reply, rank 1 receives and then replies.
/// MFACT charges Hockney everywhere, and all three simulator models take
/// the same uncontended Hockney path when both ranks share a node.
#[test]
fn intra_node_ping_pong_is_twice_hockney_on_every_tool() {
    let mut trace = Trace::empty(meta(2));
    let mut ping = RankBuilder::new(Rank(0));
    ping.send(Rank(1), M, 0, Time::ZERO).recv(Rank(1), M, 0, Time::ZERO);
    trace.events[0] = ping.finish();
    let mut pong = RankBuilder::new(Rank(1));
    pong.recv(Rank(0), M, 0, Time::ZERO).send(Rank(0), M, 0, Time::ZERO);
    trace.events[1] = pong.finish();
    trace.validate().expect("ping-pong is well formed");

    for case in cases() {
        case.check_scalars();
        let name = &case.machine.name;
        let want = Time::from_ps(2 * (case.latency_ns * 1_000 + case.nic_ser_ps()));
        let mfact = replay(&trace, &[ModelConfig::base(case.machine.net)]);
        assert_eq!(mfact[0].total, want, "{name}: mfact");
        for model in ModelKind::study_models() {
            let cfg = SimConfig::new(case.machine.clone(), model, &trace);
            assert_eq!(cfg.mapping.node_of(Rank(0)), cfg.mapping.node_of(Rank(1)), "{name}");
            let res = masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None)
                .expect("simulation completes");
            assert_eq!(res.total, want, "{name}: {}", model.name());
        }
    }
}

/// (ii) One message of at most a packet between two nodes of an idle
/// machine: the packet model's prediction is the sum, over every link of
/// the route, of that link's serialization of `M` bytes plus one hop
/// latency. The two nodes are the machine's first and last, so the route
/// crosses the fabric.
#[test]
fn one_packet_between_nodes_costs_its_route() {
    let packet_bytes = masim_sim::DEFAULT_PACKET_BYTES;
    assert!(M <= packet_bytes);
    let mut trace = Trace::empty(meta(1));
    let mut tx = RankBuilder::new(Rank(0));
    tx.send(Rank(1), M, 0, Time::ZERO);
    trace.events[0] = tx.finish();
    let mut rx = RankBuilder::new(Rank(1));
    rx.recv(Rank(0), M, 0, Time::ZERO);
    trace.events[1] = rx.finish();
    trace.validate().expect("one message is well formed");

    for case in cases() {
        case.check_scalars();
        let name = &case.machine.name;
        let topo = case.machine.topology.as_ref();
        let (src, dst) = (NodeId(0), NodeId(topo.num_nodes() - 1));
        let route = topo.route_vec(src, dst);
        let fabric = route.iter().filter(|&&l| topo.link_kind(l) == LinkKind::Fabric).count();
        assert!(fabric >= 1, "{name}: route {route:?} never leaves the switch");
        let hop_ps = case.machine.hop_latency().as_ps();
        let want: u64 = route
            .iter()
            .map(|&l| match topo.link_kind(l) {
                LinkKind::Fabric => case.fabric_ser_ps() + hop_ps,
                LinkKind::Injection | LinkKind::Ejection => case.nic_ser_ps() + hop_ps,
            })
            .sum();

        let mut cfg =
            SimConfig::new(case.machine.clone(), ModelKind::Packet { packet_bytes }, &trace);
        cfg.mapping = Mapping::from_nodes(vec![src, dst]);
        let res = masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None)
            .expect("simulation completes");
        assert_eq!(res.total, Time::from_ps(want), "{name}: {} links", route.len());
    }
}

/// (iii) MFACT's logical clocks on a trace where a rank parked at a
/// barrier has an earlier receive matched while it waits there. With
/// α = 2.5 µs and `M` = 720 B at 10 Gb/s on Cielito, a blocking send
/// costs h = 3 076 ns and the three-rank barrier 2α = 5 000 ns:
/// - rank 2 computes 10 µs and sends to rank 1, available at 13 076;
/// - rank 1's send to rank 0 is available at 3 076, and its receive from
///   rank 2 ends at 13 076, its barrier arrival;
/// - rank 0 arrives at the barrier at 0, so the barrier ends at
///   13 076 + 5 000 = 18 076 on every rank;
/// - rank 0 then waits for a message that landed at 3 076, and computes
///   5 µs: 23 076.
#[test]
fn mfact_rank_parked_at_a_barrier_keeps_its_later_work() {
    let mut trace = Trace::empty(TraceMeta { ranks: 3, ..meta(1) });
    let mut r0 = RankBuilder::new(Rank(0));
    let req = r0.irecv(Rank(1), M, 0, Time::ZERO);
    r0.barrier(Time::ZERO).wait(req, Time::ZERO).compute(Time::from_us(5));
    let mut r1 = RankBuilder::new(Rank(1));
    r1.send(Rank(0), M, 0, Time::ZERO).recv(Rank(2), M, 0, Time::ZERO).barrier(Time::ZERO);
    let mut r2 = RankBuilder::new(Rank(2));
    r2.compute(Time::from_us(10)).send(Rank(1), M, 0, Time::ZERO).barrier(Time::ZERO);
    trace.events = vec![r0.finish(), r1.finish(), r2.finish()];
    trace.validate().expect("the repro is well formed");

    let res = &replay(&trace, &[ModelConfig::base(Machine::cielito().net)])[0];
    let ns = Time::from_ns;
    assert_eq!(res.per_rank, [ns(23_076), ns(18_076), ns(18_076)]);
    assert_eq!(res.total, ns(23_076));
    // Rank 0 waits 13 076 at the barrier, rank 1 10 000 for rank 2.
    assert_eq!(res.counters.wait, ns(23_076));
    // Two sends, plus 2α of barrier on each of three ranks.
    assert_eq!(res.counters.latency, ns(2 * 2_500 + 3 * 5_000));
    assert_eq!(res.counters.bandwidth, ns(2 * 576));
    assert_eq!(res.counters.computation, ns(15_000));
}

/// (iv) The simulator's lowering of every collective, against closed
/// forms: round counts and the bytes each rank sends, for every
/// `CollKind` over world sizes with and without a power-of-two
/// remainder. Payloads cover the Bruck / pairwise all-to-all switch and
/// the short / long tree switch; every send carries at least 8 B.
#[test]
fn lowering_round_counts_and_bytes_match_closed_forms() {
    use masim_mfact::cost::{A2A_BRUCK_SWITCH, LONG_MSG_SWITCH};
    use masim_sim::lower::{lower, rounds};
    use masim_trace::CollKind::*;

    let ceil_log2 = |p: u32| if p <= 1 { 0 } else { 32 - (p - 1).leading_zeros() };
    let root = Rank(0);
    for p in [1u32, 2, 3, 5, 7, 12, 16, 64, 100, 1024] {
        let (logp, l) = (ceil_log2(p), 31 - p.leading_zeros());
        let (p2, pw) = (1u32 << l, p as u64);
        let rem = p - p2;
        // Fold and unfold rounds when p is not a power of two.
        let fold = u32::from(rem > 0);
        // The binomial-tree children of rank `r` (root 0), as the
        // exponent i of the distance 2^i to each.
        let children = |r: u32| (0..logp).filter(move |&i| r < 1 << i && r + (1 << i) < p);
        for m in [0u64, 256, 4_096, 1 << 20] {
            let b = m.max(8);
            let short = m <= LONG_MSG_SWITCH;
            // Per-rank chunk of the long-message phases, and the tree
            // payload of the long bcast / reduce.
            let c = (b / pw).max(8);
            let tree = b * (pw - 1) / pw / u64::from(logp.max(1));
            // Recursive doubling or halving over the power-of-two subset
            // (`unit` then doubling per round), plus the unfold's send.
            let doubling = |r: u32, unit: u64, unfold: u64| match r {
                r if r >= p2 => 0,
                r if r < rem => unit * u64::from(p2 - 1) + unfold,
                _ => unit * u64::from(p2 - 1),
            };
            for kind in CollKind::ALL {
                let want_rounds = match kind {
                    Barrier | Gather | Scatter => logp,
                    Bcast | Reduce if short => logp,
                    Bcast => logp + l + fold,
                    Reduce => l + logp,
                    Allreduce if short => l + 2 * fold,
                    Allreduce => 2 * l + fold,
                    Allgather => l + fold,
                    ReduceScatter => l,
                    Alltoall if m <= A2A_BRUCK_SWITCH => logp,
                    Alltoall | Alltoallv => p - 1,
                };
                assert_eq!(rounds(kind, p, m), want_rounds, "{kind} p={p} m={m}");
                let mut total = (0u64, 0u64);
                for r in 0..p {
                    // Root 0, so rank r is also its virtual rank in the trees.
                    let want = match kind {
                        Barrier => 8 * u64::from(logp),
                        Bcast if short => b * children(r).count() as u64,
                        Bcast => tree * children(r).count() as u64 + doubling(r, c, c * pw),
                        Reduce if short => u64::from(r > 0) * b,
                        Reduce => doubling(r, c, 0) + u64::from(r > 0) * tree,
                        Allreduce if short => match r {
                            r if r >= p2 => b,
                            r if r < rem => b * u64::from(l) + b,
                            _ => b * u64::from(l),
                        },
                        // Rabenseifner: halving then doubling.
                        Allreduce => 2 * doubling(r, c, 0) + doubling(r, 0, c * pw),
                        Gather => u64::from(r > 0) * (b << r.max(1).ilog2()),
                        Scatter => children(r).map(|i| ((b * pw) >> (logp - i)).max(8)).sum(),
                        Allgather => doubling(r, b, b * pw),
                        ReduceScatter => doubling(r, c, 0),
                        Alltoall if m <= A2A_BRUCK_SWITCH => u64::from(logp) * (b * pw / 2).max(8),
                        Alltoall => (pw - 1) * b,
                        Alltoallv => (pw - 1) * (b / (pw - 1).max(1)).max(8),
                    };
                    let s = lower(kind, Rank(r), p, m, root);
                    let sent: u64 = s.rounds.iter().filter_map(|k| k.send).map(|(_, b)| b).sum();
                    let recvd: u64 = s.rounds.iter().filter_map(|k| k.recv).map(|(_, b)| b).sum();
                    assert_eq!(sent, want, "{kind} p={p} m={m} rank {r}");
                    if kind == Allreduce && !short && rem == 0 {
                        // Rabenseifner's 2·(m/p)·(p − 1) per rank.
                        assert_eq!(sent, 2 * (m / pw) * (pw - 1), "p={p} m={m} rank {r}");
                    }
                    total = (total.0 + sent, total.1 + recvd);
                }
                assert_eq!(total.0, total.1, "{kind} p={p} m={m}: bytes sent ≠ received");
            }
        }
    }
}

/// `b` has at least `a`'s resources on every axis the sweep moves: no
/// less bandwidth, no more latency, no slower computation.
fn dominates(b: &ModelConfig, a: &ModelConfig) -> bool {
    b.net.bandwidth >= a.net.bandwidth
        && b.net.latency <= a.net.latency
        && b.compute_scale <= a.compute_scale
}

/// MFACT's total across `ModelConfig::standard_sweep` on `trace`, checked
/// for monotonicity: a configuration that dominates another never
/// predicts a longer run.
fn assert_mfact_monotone(what: &str, trace: &Trace) {
    let sweep = ModelConfig::standard_sweep(Machine::cielito().net);
    let totals: Vec<Time> = replay(trace, &sweep).iter().map(|r| r.total).collect();
    for (i, a) in sweep.iter().enumerate() {
        for (j, b) in sweep.iter().enumerate() {
            if dominates(b, a) {
                assert!(
                    totals[j] <= totals[i],
                    "{what}: sweep{j} dominates sweep{i} but predicts {:?} > {:?} ({b:?} vs {a:?})",
                    totals[j],
                    totals[i]
                );
            }
        }
    }
}

/// A random program of `seed` built with `TraceSynth`: 4–16 ranks, a few
/// imbalanced compute rounds, each followed by one of ring or random-pair
/// exchanges, blocking pair swaps, a collective, an `Alltoallv` or a
/// barrier, with random message sizes.
fn synth_trace(seed: u64) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    let ranks = rng.gen_range_u64(4, 17) as u32;
    let cfg = GenConfig {
        comm_fraction: rng.gen_range_f64(0.05, 0.9),
        imbalance: rng.next_f64(),
        seed,
        ..GenConfig::test_default(App::Cmc, ranks)
    };
    let mut s = TraceSynth::new(cfg, 1.0 + rng.next_f64());
    for round in 0..rng.gen_range_u64(1, 6) as u32 {
        s.compute_round();
        let bytes = rng.gen_range_u64(0, 1 << 20);
        let mut order: Vec<u32> = (0..ranks).collect();
        rng.shuffle(&mut order);
        match rng.gen_range_u64(0, 6) {
            0 => {
                let ring: Vec<_> = (0..ranks).map(|r| (r, (r + 1) % ranks, bytes)).collect();
                s.symmetric_exchange(&ring, round);
            }
            1 => {
                let pairs: Vec<_> = order.chunks_exact(2).map(|p| (p[0], p[1], bytes)).collect();
                s.symmetric_exchange(&pairs, round);
            }
            2 => {
                for p in order.chunks_exact(2) {
                    let (a, b) = (Rank(p[0]), Rank(p[1]));
                    s.send(a, b, bytes, round);
                    s.recv(b, a, bytes, round);
                    s.send(b, a, bytes, round);
                    s.recv(a, b, bytes, round);
                }
            }
            3 => {
                let kind = *rng.choose(&CollKind::ALL);
                s.coll_all(kind, bytes, Rank(order[0]));
            }
            4 => {
                let totals: Vec<u64> =
                    (0..ranks).map(|_| rng.gen_range_u64(0, bytes + 1)).collect();
                s.alltoallv(&totals);
            }
            _ => s.barrier_all(),
        }
    }
    s.finish()
}

/// MFACT is monotone in bandwidth, latency and compute scale: across the
/// standard 7-point sweep, a configuration with more of every resource
/// never predicts a longer run. Checked on the traces
/// `tests/golden/mfact_sweep.txt` pins and on 200 random `TraceSynth`
/// programs.
#[test]
fn mfact_total_is_monotone_across_the_standard_sweep() {
    let corpus = build_corpus(7);
    let golden = table2_tiny_entries(7)
        .into_iter()
        .chain([62, 132, 149, 172, 220].map(|i| corpus[i].clone()));
    for e in golden {
        assert_mfact_monotone(&format!("{}({})", e.cfg.app.name(), e.cfg.ranks), &e.generate());
    }
    for seed in 0..200 {
        assert_mfact_monotone(&format!("TraceSynth seed {seed}"), &synth_trace(seed));
    }
}

/// (v) k flows over one saturated link: k senders, packed block-wise
/// onto the machine's first nodes, each send `M` bytes at t = 0 to one
/// receiver on the last node, which posts every receive up front. Each
/// rank has its own NIC link at the Hockney bandwidth (see
/// `masim_sim::net`'s link provisioning), so the senders share no
/// injection link; the one link all k flows cross and saturate is the
/// receiver's ejection link, and fabric links carry `cores` × that
/// bandwidth. Max-min fairness then gives each flow 1/k of it, so
/// T(k) − T(1) = (k − 1)·M·8000/gbps. The packet model may miss that by
/// one packet serialization; it and packet-flow both land on it to the
/// picosecond, which is what is asserted. The flow model snaps arrivals
/// and completions to its 1 µs quantum and misses it by up to 720 ns
/// (ROADMAP 2(c)), so it is not asserted here.
#[test]
fn k_flows_over_one_saturated_link_serialize() {
    let packet_bytes = masim_sim::DEFAULT_PACKET_BYTES;
    assert!(M <= packet_bytes);
    let incast = |k: u32| {
        let mut trace = Trace::empty(TraceMeta { ranks: k + 1, ..meta(1) });
        let sink = Rank(k);
        let mut rx = RankBuilder::new(sink);
        for s in 0..k {
            let mut tx = RankBuilder::new(Rank(s));
            tx.send(sink, M, 0, Time::ZERO);
            trace.events[s as usize] = tx.finish();
            rx.irecv(Rank(s), M, 0, Time::ZERO);
        }
        rx.wait_all(Time::ZERO);
        trace.events[k as usize] = rx.finish();
        trace.validate().expect("incast is well formed");
        trace
    };

    for case in cases() {
        case.check_scalars();
        let name = &case.machine.name;
        let (cores, last) = (case.machine.cores_per_node, case.machine.topology.num_nodes() - 1);
        for model in [ModelKind::Packet { packet_bytes }, ModelKind::PacketFlow { packet_bytes }] {
            let total = |k: u32| {
                let trace = incast(k);
                let mut cfg = SimConfig::new(case.machine.clone(), model, &trace);
                let senders = (0..k).map(|s| NodeId(s / cores));
                cfg.mapping = Mapping::from_nodes(senders.chain([NodeId(last)]).collect());
                masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None)
                    .expect("simulation completes")
                    .total
                    .as_ps()
            };
            let alone = total(1);
            for k in [2u32, 3, 4, 8] {
                let want = u64::from(k - 1) * case.nic_ser_ps();
                assert_eq!(total(k) - alone, want, "{name}: {} k={k}", model.name());
            }
        }
    }
}

/// Run-level invariants where no closed form exists: 50 random
/// `TraceSynth` programs on Cielito, Edison and the fat tree, under every
/// simulator model.
/// * No rank finishes before the sum of its own `Compute` durations.
/// * Every byte a rank's injection link carries is carried by some
///   rank's ejection link: the two sums of `link_bytes` agree.
/// * Link charges depend on routes and message sizes, not on timing, so
///   `link_bytes` is identical under packet, flow and packet-flow.
#[test]
fn run_level_invariants_hold_on_random_programs() {
    let packet_bytes = masim_sim::DEFAULT_PACKET_BYTES;
    let models = [
        ModelKind::Packet { packet_bytes },
        ModelKind::Flow,
        ModelKind::PacketFlow { packet_bytes },
    ];
    let mut carried = 0;
    for case in cases() {
        let name = &case.machine.name;
        for seed in 0..50 {
            let trace = synth_trace(seed);
            let ranks = trace.num_ranks() as usize;
            let compute: Vec<u64> = (trace.events.iter())
                .map(|evs| evs.iter().filter(|e| e.kind.is_compute()).map(|e| e.dur.as_ps()).sum())
                .collect();
            let mut reference: Option<Vec<u64>> = None;
            for model in models {
                let what = format!("{name} seed {seed} {}", model.name());
                let r = masim_sim::run(
                    &trace,
                    &SimConfig::new(case.machine.clone(), model, &trace),
                    SimLimits::unlimited(),
                    None,
                )
                .expect("simulation completes");
                for (rank, (finish, busy)) in r.per_rank.iter().zip(&compute).enumerate() {
                    assert!(finish.as_ps() >= *busy, "{what}: rank {rank} beat its compute");
                }
                let fabric = r.link_bytes.len() - 2 * ranks;
                let injected: u64 = r.link_bytes[fabric..fabric + ranks].iter().sum();
                let ejected: u64 = r.link_bytes[fabric + ranks..].iter().sum();
                assert_eq!(injected, ejected, "{what}: injected vs ejected bytes");
                carried += usize::from(injected > 0);
                match &reference {
                    None => reference = Some(r.link_bytes),
                    Some(first) => assert_eq!(&r.link_bytes, first, "{what}: link bytes"),
                }
            }
        }
    }
    assert!(carried >= 400, "only {carried} of 450 runs crossed a NIC link");
}
