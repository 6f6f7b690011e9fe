//! Property-style tests for topologies and mappings, driven by a seeded
//! deterministic generator so every run covers the same randomized cases.

use masim_rng::Rng;
use masim_topo::{check_route_shape, Dragonfly, FatTree, Machine, Mapping, Topology, Torus3d};
use masim_trace::{NodeId, Rank};

const CASES: u64 = 64;

/// Every torus route is well-formed for arbitrary dimensions.
#[test]
fn torus_routes_well_formed() {
    let mut r = Rng::seed_from_u64(0x7090_0001);
    let mut checked = 0;
    while checked < CASES {
        let x = r.gen_range_u64(1, 6) as u32;
        let y = r.gen_range_u64(1, 6) as u32;
        let z = r.gen_range_u64(1, 4) as u32;
        let nps = r.gen_range_u64(1, 3) as u32;
        if x * y * z <= 1 {
            continue;
        }
        checked += 1;
        let t = Torus3d::try_new(x, y, z, nps).expect("valid torus shape");
        let n = t.num_nodes();
        let s = NodeId(r.gen_range_u64(0, 200) as u32 % n);
        let d = NodeId(r.gen_range_u64(0, 200) as u32 % n);
        check_route_shape(&t, s, d).expect("torus route shape");
        // Symmetric hop counts under dimension-ordered shortest-wrap.
        assert_eq!(t.fabric_hops(s, d), t.fabric_hops(d, s));
    }
}

/// Every dragonfly route is well-formed and within the Valiant bound for
/// arbitrary legal shapes.
#[test]
fn dragonfly_routes_well_formed() {
    let mut r = Rng::seed_from_u64(0x7090_0002);
    for _ in 0..CASES {
        let a = r.gen_range_u64(2, 6) as u32;
        let p = r.gen_range_u64(1, 4) as u32;
        let h = r.gen_range_u64(1, 3) as u32;
        let g = a * h + 1;
        let d = Dragonfly::try_new(g, a, p, h).expect("valid dragonfly shape");
        let n = d.num_nodes();
        let s = NodeId(r.gen_range_u64(0, 500) as u32 % n);
        let t = NodeId(r.gen_range_u64(0, 500) as u32 % n);
        check_route_shape(&d, s, t).expect("dragonfly route shape");
        assert!(d.fabric_hops(s, t) <= 6);
    }
}

/// Fat-tree routes are well-formed and at most two fabric hops.
#[test]
fn fattree_routes_well_formed() {
    let mut r = Rng::seed_from_u64(0x7090_0003);
    for _ in 0..CASES {
        let leaves = r.gen_range_u64(2, 8) as u32;
        let spines = r.gen_range_u64(1, 4) as u32;
        let per = r.gen_range_u64(1, 6) as u32;
        let t = FatTree::try_new(leaves, spines, per).expect("valid fat tree shape");
        let n = t.num_nodes();
        let s = NodeId(r.gen_range_u64(0, 500) as u32 % n);
        let d = NodeId(r.gen_range_u64(0, 500) as u32 % n);
        check_route_shape(&t, s, d).expect("fat-tree route shape");
        assert!(t.fabric_hops(s, d) <= 2);
    }
}

/// Random mappings are permutations of the block mapping's node multiset
/// and always fit the machine they were sized for.
#[test]
fn random_mapping_is_conservative() {
    let mut r = Rng::seed_from_u64(0x7090_0004);
    for _ in 0..CASES {
        let ranks = r.gen_range_u64(2, 256) as u32;
        let seed = r.gen_range_u64(0, 1000);
        let machine = Machine::hopper();
        let rpn = machine.cores_per_node;
        let m = Mapping::random(ranks, rpn, seed);
        assert!(m.validate_for(&machine).is_ok());
        // Node loads match the block mapping's loads exactly.
        let block = Mapping::block(ranks, rpn);
        let mut load_a = std::collections::HashMap::new();
        let mut load_b = std::collections::HashMap::new();
        for rk in 0..ranks {
            *load_a.entry(m.node_of(Rank(rk))).or_insert(0u32) += 1;
            *load_b.entry(block.node_of(Rank(rk))).or_insert(0u32) += 1;
        }
        let mut a: Vec<u32> = load_a.into_values().collect();
        let mut b: Vec<u32> = load_b.into_values().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

/// Machine hop latency times the mean route length reconstructs the
/// configured end-to-end latency within rounding.
#[test]
fn hop_latency_partition() {
    for (x, y, z) in [(2u32, 2u32, 2u32), (4, 4, 2), (6, 4, 4), (3, 3, 3)] {
        let m = Machine::new(
            "t",
            std::sync::Arc::new(Torus3d::try_new(x, y, z, 2).expect("valid torus shape")),
            masim_topo::NetworkConfig::new(10.0, 2_000),
            4,
        );
        let mean = m.topology.mean_route_links();
        let total = m.hop_latency().as_ps() as f64 * mean;
        let target = 2_000_000.0; // 2000 ns in ps
        assert!((total - target).abs() / target < 0.02, "{total} vs {target}");
    }
}
