//! Ground-truth oracles: cases whose answer is known in closed form, so
//! the tools are judged against arithmetic rather than against each
//! other. Every value is exact picoseconds, with no tolerance, on one
//! machine of each topology class: torus (Cielito), dragonfly (Edison)
//! and a small leaf-spine fat tree.
//!
//! The expected values are computed here in integer arithmetic from the
//! machine's published scalars, never through the crates' own
//! `Bandwidth::transfer_time` or `LinkTable::ser`. The message size is
//! chosen so that every serialization time is a whole number of
//! picoseconds on every machine below.

use masim_mfact::{replay, ModelConfig};
use masim_sim::{simulate, ModelKind, SimConfig};
use masim_topo::{FatTree, LinkKind, Machine, Mapping, NetworkConfig};
use masim_trace::{NodeId, Rank, RankBuilder, Time, Trace, TraceMeta};
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
        Arc::new(FatTree::new(4, 2, 4)),
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
            let res = simulate(&trace, &cfg);
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
        let res = simulate(&trace, &cfg);
        assert_eq!(res.total, Time::from_ps(want), "{name}: {} links", route.len());
    }
}
