//! Ground-truth oracles: cases whose answer is known in closed form, so
//! the tools are judged against arithmetic rather than against each
//! other. Every time is exact picoseconds, with no tolerance. The first
//! two cases and the k-flow incast run on one machine of each topology
//! class: torus (Cielito), dragonfly (Edison) and a small leaf-spine fat
//! tree. The third pins MFACT's clocks on Cielito; the fourth judges no
//! time, but checks the simulator's collective lowering, round by round
//! and byte by byte. Where no closed form exists, run-level invariants
//! judge random `TraceSynth` programs on the same three machines, and
//! with the network switched off (every rank on one node) MFACT must
//! equal every simulator model on collective-free ones.
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
use masim_trace::{
    CollKind, NodeId, Rank, RankBuilder, Time, Trace, TraceMeta, A2A_BRUCK_SWITCH, LONG_MSG_SWITCH,
};
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
/// α = 2.5 µs and `M` = 720 B at 10 Gb/s on Cielito, a send frees its
/// sender after M·β = 576 ns, its message lands h = α + M·β = 3 076 ns
/// after the send, and the three-rank barrier costs 2α = 5 000 ns:
/// - rank 2 computes 10 µs and sends to rank 1, available at 13 076;
///   it reaches the barrier at 10 576;
/// - rank 1's send to rank 0 is available at 3 076 and frees rank 1 at
///   576; its receive from rank 2 ends at 13 076, its barrier arrival;
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
    // At the barrier rank 0 waits 13 076 and rank 2 2 500; rank 1 waits
    // 13 076 − 576 = 12 500 for rank 2's message.
    assert_eq!(res.counters.wait, ns(13_076 + 2_500 + 12_500));
    // Two sends, plus 2α of barrier on each of three ranks.
    assert_eq!(res.counters.latency, ns(2 * 2_500 + 3 * 5_000));
    assert_eq!(res.counters.bandwidth, ns(2 * 576));
    assert_eq!(res.counters.computation, ns(15_000));
}

/// (iv) The simulator's lowering of every collective, against closed
/// forms: round counts and the bytes each rank sends, for every
/// `CollKind` over world sizes with and without a power-of-two
/// remainder. Payloads cover the Bruck / pairwise all-to-all switch and
/// the short / long tree switch. The expectations are derived from the
/// algorithms' definitions, not from the lowering's arithmetic: a tree
/// rank's parent is the rank with its top bit cleared, and a butterfly
/// rank below p₂ (the largest power of two ≤ p) holds, before round k,
/// each member w of its aligned group of 2^k ranks plus w + p₂ if that
/// rank exists.
#[test]
fn lowering_round_counts_and_bytes_match_closed_forms() {
    use masim_sim::lower::{lower, rounds};
    use masim_trace::CollKind::*;

    let ceil_log2 = |p: u32| if p <= 1 { 0 } else { 32 - (p - 1).leading_zeros() };
    let root = Rank(0);
    for p in [1u32, 2, 3, 5, 7, 12, 16, 64, 100, 1024] {
        let (logp, l) = (ceil_log2(p), 31 - p.leading_zeros());
        let (p2, pw) = (1u32 << l, u64::from(p));
        let rem = p - p2;
        // Fold and unfold rounds when p is not a power of two.
        let fold = u32::from(rem > 0);
        // Root 0, so rank r is also its virtual rank in the trees.
        let parent = |y: u32| y - (1 << y.ilog2());
        let children: Vec<u64> =
            (0..p).map(|r| (1..p).filter(|&y| parent(y) == r).count() as u64).collect();
        let subtree: Vec<u64> = (0..p)
            .map(|r| {
                let reaches = |mut y: u32| {
                    while y > r {
                        y = parent(y);
                    }
                    y == r
                };
                (r..p).filter(|&y| reaches(y)).count() as u64
            })
            .collect();
        let held = |v: u32, k: u32| -> u64 {
            let g = v >> k << k;
            (g..g + (1 << k)).map(|w| 1 + u64::from(w + p2 < p)).sum()
        };
        // Contributions rank v sends over recursive doubling (its own
        // group's) and over recursive halving (its partner's group's).
        let doubling = |v: u32| -> u64 { (0..l).map(|k| held(v, k)).sum() };
        let halving = |v: u32| -> u64 { (0..l).map(|k| held(v ^ (1 << k), k)).sum() };
        for m in [0u64, 256, 4_096, 1 << 20] {
            let short = m <= LONG_MSG_SWITCH;
            // Per-rank block of the long-message algorithms.
            let c = m / pw;
            for kind in CollKind::ALL {
                let want_rounds = match kind {
                    Barrier | Gather | Scatter => logp,
                    Bcast | Reduce if short => logp,
                    Bcast | Reduce => logp + l + 2 * fold,
                    Allreduce if short => l + 2 * fold,
                    Allreduce => 2 * l + 2 * fold,
                    Allgather | ReduceScatter => l + 2 * fold,
                    Alltoall if m <= A2A_BRUCK_SWITCH => logp,
                    Alltoall | Alltoallv => p - 1,
                };
                assert_eq!(rounds(kind, p, m), want_rounds, "{kind} p={p} m={m}");
                let mut total = (0u64, 0u64);
                for r in 0..p {
                    let i = r as usize;
                    // Folded-in rank, its proxy, and a butterfly rank.
                    let (folds, proxy, inside) =
                        (u64::from(r >= p2), u64::from(r < rem), u64::from(r < p2));
                    let want = match kind {
                        Barrier => 0,
                        Bcast if short => m * children[i],
                        // Scatter c-blocks, then allgather them.
                        Bcast => {
                            c * (subtree[i] - 1)
                                + folds * c
                                + inside * c * doubling(r)
                                + proxy * (pw - 1) * c
                        }
                        Reduce if short => u64::from(r > 0) * m,
                        Reduce => {
                            folds * (pw - 1) * c
                                + inside * c * halving(r)
                                + proxy * c
                                + u64::from(r > 0) * c * subtree[i]
                        }
                        Allreduce if short => folds * m + inside * m * u64::from(l) + proxy * m,
                        // Rabenseifner: halving then doubling.
                        Allreduce => {
                            folds * pw * c
                                + inside * c * (halving(r) + doubling(r))
                                + proxy * pw * c
                        }
                        Gather => u64::from(r > 0) * m * subtree[i],
                        Scatter => m * (subtree[i] - 1),
                        Allgather => folds * m + inside * m * doubling(r) + proxy * (pw - 1) * m,
                        ReduceScatter => folds * (pw - 1) * c + inside * c * halving(r) + proxy * c,
                        Alltoall if m <= A2A_BRUCK_SWITCH => u64::from(logp) * (m * pw / 2),
                        Alltoall => (pw - 1) * m,
                        Alltoallv => u64::from(p > 1) * m,
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

/// (v) The lowering is a valid algorithm, by data flow. Round by round, a
/// set per rank names the ranks whose contribution it holds: a receive
/// adds what the sender held when the round began. Every round's sends
/// and receives pair up, peer and bytes; a `Bcast` or `Scatter` rank
/// sends only once the root's data has reached it; a `Reduce` or
/// `Gather` root ends holding all p; and every rank of every other kind
/// ends holding all p (the barrier's synchronization, too). Every kind,
/// world sizes with and without a power-of-two remainder, payloads on
/// both sides of both algorithm switches, roots 0, 1 and p − 1. CI runs
/// this by name.
#[test]
fn collective_data_flow_reaches_every_rank() {
    let payloads = [
        0,
        1,
        A2A_BRUCK_SWITCH,
        A2A_BRUCK_SWITCH + 1,
        LONG_MSG_SWITCH,
        LONG_MSG_SWITCH + 1,
        1 << 20,
    ];
    for p in [1u32, 2, 3, 5, 7, 12, 16, 64, 100] {
        let mut roots = vec![0, 1 % p, p - 1];
        roots.dedup();
        for m in payloads {
            for kind in CollKind::ALL {
                for &root in &roots {
                    check_data_flow(kind, p, m, root);
                }
            }
        }
    }
}

/// One case of [`collective_data_flow_reaches_every_rank`], p ≤ 128.
fn check_data_flow(kind: CollKind, p: u32, m: u64, root: u32) {
    use masim_sim::lower::lower;
    use masim_trace::CollKind::*;

    let what = format!("{kind} p={p} m={m} root={root}");
    let s: Vec<_> = (0..p).map(|r| lower(kind, Rank(r), p, m, Rank(root)).rounds).collect();
    assert!(s.iter().all(|rounds| rounds.len() == s[0].len()), "{what}: ragged rounds");
    // Bit i of heard[r]: rank r holds rank i's contribution.
    let mut heard: Vec<u128> = (0..p).map(|r| 1 << r).collect();
    for k in 0..s[0].len() {
        let held = heard.clone();
        for (r, rank) in s.iter().enumerate() {
            let me = Rank(r as u32);
            if let Some((to, b)) = rank[k].send {
                let peer = s[to.idx()][k].recv;
                assert_eq!(peer, Some((me, b)), "{what}, round {k}: {r}'s send to {to} unmatched");
                if matches!(kind, Bcast | Scatter) {
                    let ok = held[r] >> root & 1 == 1;
                    assert!(ok, "{what}, round {k}: {r} sends before the root's data reached it");
                }
            }
            if let Some((from, b)) = rank[k].recv {
                let peer = s[from.idx()][k].send;
                assert_eq!(
                    peer,
                    Some((me, b)),
                    "{what}, round {k}: {r}'s recv from {from} unmatched"
                );
                heard[r] |= held[from.idx()];
            }
        }
    }
    let all = u128::MAX >> (128 - p);
    let (needs, ranks) = match kind {
        Bcast | Scatter => (1 << root, 0..p),
        Reduce | Gather => (all, root..root + 1),
        _ => (all, 0..p),
    };
    for r in ranks {
        let got = heard[r as usize];
        assert_eq!(got & needs, needs, "{what}: rank {r} ends holding {got:b}");
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
/// barrier, with random message sizes. `p2p_only` keeps the first three:
/// no collective at all.
fn synth_trace(seed: u64, p2p_only: bool) -> Trace {
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
        match rng.gen_range_u64(0, if p2p_only { 3 } else { 6 }) {
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
        assert_mfact_monotone(&format!("TraceSynth seed {seed}"), &synth_trace(seed, false));
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
/// (ROADMAP item 12), so it is not asserted here.
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

/// Every message the simulator puts on the wire for `trace`, as
/// (src, dst, bytes): point-to-point sends as recorded, collectives as
/// their lowered rounds' sends, each at least the 1-byte header.
fn wire_messages(trace: &Trace) -> Vec<(Rank, Rank, u64)> {
    use masim_sim::lower::lower;
    use masim_trace::EventKind;
    let p = trace.num_ranks();
    let mut out = Vec::new();
    for (r, evs) in (0..p).map(Rank).zip(&trace.events) {
        for e in evs {
            match e.kind {
                EventKind::Send { peer, bytes, .. } | EventKind::Isend { peer, bytes, .. } => {
                    out.push((r, peer, bytes.max(1)));
                }
                EventKind::Coll { kind, bytes, root } => {
                    let sends = lower(kind, r, p, bytes, root).rounds.into_iter();
                    out.extend(sends.filter_map(|k| k.send).map(|(to, b)| (r, to, b.max(1))));
                }
                _ => {}
            }
        }
    }
    out
}

/// Run-level invariants where no closed form exists: 50 random
/// `TraceSynth` programs on Cielito, Edison and the fat tree, four ranks
/// per node, under every simulator model.
/// * No rank finishes before the sum of its own `Compute` durations.
/// * Every byte a rank's injection link carries is carried by some
///   rank's ejection link: the two sums of `link_bytes` agree.
/// * Link charges depend on routes and message sizes, not on timing, so
///   `link_bytes` is identical under packet, flow and packet-flow.
/// * Exact link bytes (ROADMAP item 4's Σ link bytes = Σ message bytes ×
///   route length): each rank's injection link carries exactly the bytes
///   it sent off-node and its ejection link the bytes it received
///   off-node, and the fabric carries Σ bytes × fabric hops over the
///   off-node messages, the hops counted from `Topology::route` here.
///   Ranks sharing a node share its routes, so this also judges that a
///   route's NIC links are its own ranks'.
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
            let trace = synth_trace(seed, false);
            let ranks = trace.num_ranks() as usize;
            let compute: Vec<u64> = (trace.events.iter())
                .map(|evs| evs.iter().filter(|e| e.kind.is_compute()).map(|e| e.dur.as_ps()).sum())
                .collect();
            let mapping = Mapping::block(trace.num_ranks(), trace.meta.ranks_per_node);
            assert!(trace.meta.ranks_per_node >= 2, "rank pairs must share node pairs");
            let (mut sent, mut received, mut fabric_bytes) = (vec![0; ranks], vec![0; ranks], 0);
            for (src, dst, bytes) in wire_messages(&trace) {
                let (a, b) = (mapping.node_of(src), mapping.node_of(dst));
                if a != b {
                    sent[src.idx()] += bytes;
                    received[dst.idx()] += bytes;
                    let hops = case.machine.topology.route_vec(a, b).len() as u64 - 2;
                    fabric_bytes += bytes * hops;
                }
            }
            let mut reference: Option<Vec<u64>> = None;
            for model in models {
                let what = format!("{name} seed {seed} {}", model.name());
                let cfg = SimConfig::new(case.machine.clone(), model, &trace);
                assert_eq!(cfg.mapping, mapping, "{what}: the block mapping");
                let r = masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None)
                    .expect("simulation completes");
                for (rank, (finish, busy)) in r.per_rank.iter().zip(&compute).enumerate() {
                    assert!(finish.as_ps() >= *busy, "{what}: rank {rank} beat its compute");
                }
                let fabric = r.link_bytes.len() - 2 * ranks;
                let injected: u64 = r.link_bytes[fabric..fabric + ranks].iter().sum();
                let ejected: u64 = r.link_bytes[fabric + ranks..].iter().sum();
                assert_eq!(injected, ejected, "{what}: injected vs ejected bytes");
                assert_eq!(r.link_bytes[fabric..fabric + ranks], sent, "{what}: injection links");
                assert_eq!(r.link_bytes[fabric + ranks..], received, "{what}: ejection links");
                let carried_fabric: u64 = r.link_bytes[..fabric].iter().sum();
                assert_eq!(carried_fabric, fabric_bytes, "{what}: fabric bytes");
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

/// (vi) With no network, MFACT and the simulator agree. Every rank sits
/// on node 0 of a Cielito copy whose node has one core per rank, so every
/// message takes the simulator's intra-node Hockney path: the sender is
/// free after m·β, the payload lands after α + m·β, with no contention
/// and no topology. That is MFACT's point-to-point rule, so on 200
/// collective-free `TraceSynth` programs MFACT's base prediction equals
/// every simulator model's, rank by rank, to the picosecond.
#[test]
fn zero_network_mfact_equals_every_simulator_model_on_one_node() {
    let cielito = Machine::cielito();
    for seed in 0..200 {
        let trace = synth_trace(seed, true);
        let ranks = trace.num_ranks();
        let one_node =
            Machine::new("cielito-one-node", cielito.topology.clone(), cielito.net, ranks);
        let mfact = &replay(&trace, &[ModelConfig::base(one_node.net)])[0];
        for model in ModelKind::study_models() {
            let mut cfg = SimConfig::new(one_node.clone(), model, &trace);
            cfg.mapping = Mapping::from_nodes(vec![NodeId(0); ranks as usize]);
            let sim = masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None)
                .expect("simulation completes");
            let what = format!("seed {seed} ({ranks} ranks), {}", model.name());
            assert_eq!(sim.per_rank, mfact.per_rank, "{what}: per rank");
            assert_eq!(sim.total, mfact.total, "{what}: total");
        }
    }
}

/// (vii) With no network, each collective alone against its closed form.
/// Every rank of a one-node Cielito copy (α = 2.5 µs, β = 800 ps per
/// byte; `h` = β·1 B, the simulator's header floor) enters one collective
/// at time 0, with root 0. MFACT charges its Thakur–Gropp cost; the
/// simulator runs the lowered rounds on the intra-node Hockney path, where
/// a sender is free after m·β and its payload lands after α + m·β.
///
/// For a power-of-two p they agree to the ps, except where a 0-byte edge
/// crosses the wire as a 1-byte header: ⌈log₂ p⌉·h for `Barrier`, log₂ p·h
/// for `ReduceScatter` below p bytes, and (p − 1 − m)·h for `Alltoallv`
/// below p − 1 bytes. At p = 3 (p₂ = 2, one fold) the gaps, sim − MFACT,
/// are derived round by round from the lowering's definition, with
/// c = ⌊m/3⌋ and X(n) the wire time of max(n, 1) bytes:
/// - `Bcast` short: the root's two sends overlap the first hop, a + 2x(m)
///   against 2a + 2x(m): −a. `Scatter` is the same tree with 1-block
///   edges: −a.
/// - `Reduce` short and `Gather`: both leaves send at 0, a + x(m) against
///   2a + 2x(m): −a − x(m).
/// - `Bcast` long: scatter (a + 2x(c) to rank 2), fold, doubling (rank 0
///   sends 2c), unfold of 2c: 3a + 7x(c) against 4a + x(⌊4m/3⌋).
/// - `Reduce` long, its reverse: fold of 2c, halving, unfold of c, gather:
///   3a + 5x(c) against 4a + x(⌊4m/3⌋).
/// - `Allreduce` short: fold, doubling, unfold, 2a + 3x(m) against
///   2a + 2x(m): +x(m). Long (x(c) > 2a at both payloads): fold of 3c,
///   halving, doubling, unfold of 3c, 2a + 9x(c) against 4a + x(⌊4m/3⌋).
/// - `Allgather`: fold of m, doubling (rank 0 sends 2m), unfold of 2m,
///   2a + 5x(m) against 2a + 2x(m): +3x(m).
/// - `ReduceScatter`: fold of 2c, halving, unfold of c,
///   2a + X(2c) + 2X(c) against 2a + x(⌊2m/3⌋).
/// - `Alltoall`: symmetric rounds, no gap; `Alltoallv`: (2 − m)·h below
///   2 bytes.
#[test]
fn zero_network_collectives_cost_their_closed_forms() {
    use masim_trace::CollKind::*;

    let cielito = Machine::cielito();
    let a = 2_500_000i64;
    let x = |n: u64| (n * 800) as i64;
    let h = x(1);
    let wire = |n: u64| x(n.max(1));
    for p in [2u32, 3, 8, 16, 64] {
        let one_node = Machine::new("cielito-one-node", cielito.topology.clone(), cielito.net, p);
        let (logp, pw) = (i64::from(p.next_power_of_two().ilog2()), u64::from(p));
        for m in [1u64, 1 << 10, 64 << 10, 1 << 20] {
            let (short, c) = (m <= LONG_MSG_SWITCH, m / 3);
            for kind in CollKind::ALL {
                let gap = match (p, kind) {
                    (_, Barrier) => logp * h,
                    (_, Alltoallv) => (pw - 1 - m.min(pw - 1)) as i64 * h,
                    (3, Bcast | Scatter) if short || kind == Scatter => -a,
                    (3, Reduce | Gather) if short || kind == Gather => -a - x(m),
                    (3, Bcast) => -a + x(7 * c) - x(4 * m / 3),
                    (3, Reduce) => -a + x(5 * c) - x(4 * m / 3),
                    (3, Allreduce) if short => x(m),
                    (3, Allreduce) => -2 * a + x(9 * c) - x(4 * m / 3),
                    (3, Allgather) => 3 * x(m),
                    (3, ReduceScatter) => wire(2 * c) + 2 * wire(c) - x(2 * m / 3),
                    (_, ReduceScatter) if m < pw => logp * h,
                    _ => 0,
                };
                let mut trace = Trace::empty(TraceMeta { ranks: p, ..meta(p) });
                trace.events = (0..p)
                    .map(|r| {
                        let mut b = RankBuilder::new(Rank(r));
                        b.coll(kind, m, Rank(0), Time::ZERO);
                        b.finish()
                    })
                    .collect();
                let mfact = replay(&trace, &[ModelConfig::base(one_node.net)])[0].total;
                for model in ModelKind::study_models() {
                    let mut cfg = SimConfig::new(one_node.clone(), model, &trace);
                    cfg.mapping = Mapping::from_nodes(vec![NodeId(0); p as usize]);
                    let sim = masim_sim::run(&trace, &cfg, SimLimits::unlimited(), None)
                        .expect("simulation completes");
                    let got = sim.total.as_ps() as i64 - mfact.as_ps() as i64;
                    assert_eq!(got, gap, "{kind} p={p} m={m}, {}: sim − MFACT, ps", model.name());
                }
            }
        }
    }
}
