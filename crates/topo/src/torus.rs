//! 3-D torus topology (Cray Gemini-like, used by Cielito and Hopper).
//!
//! Switches form an `X × Y × Z` torus; each switch hosts
//! `nodes_per_switch` compute nodes (Gemini attaches two). Routing is
//! dimension-ordered (X then Y then Z) taking the shorter wrap direction
//! in each dimension, which is Gemini's deterministic routing mode.

use crate::error::TopoError;
use crate::topology::{LinkId, LinkKind, SwitchId, Topology};
use masim_trace::NodeId;

/// Directions out of a torus switch, one directed link each.
const DIRS: usize = 6; // +x, -x, +y, -y, +z, -z

/// A 3-D torus of switches with multiple nodes per switch.
#[derive(Clone, Debug)]
pub struct Torus3d {
    dims: [u32; 3],
    nodes_per_switch: u32,
}

impl Torus3d {
    /// Build an `x × y × z` torus with `nodes_per_switch` nodes attached
    /// to every switch. All dimensions must be ≥ 1 and at least one > 1,
    /// and — crucially at mega scale — the directed-link id space
    /// (`switches·6 + 2·nodes`) must fit in `u32`, so `fabric_link`-style
    /// arithmetic can never wrap.
    pub fn try_new(x: u32, y: u32, z: u32, nodes_per_switch: u32) -> Result<Torus3d, TopoError> {
        let shape_err = |reason: String| TopoError::InvalidShape { topo: "torus3d", reason };
        if x < 1 || y < 1 || z < 1 {
            return Err(shape_err("torus dimensions must be >= 1".into()));
        }
        let switches = u64::from(x) * u64::from(y) * u64::from(z);
        if switches <= 1 {
            return Err(shape_err("torus must have more than one switch".into()));
        }
        if nodes_per_switch < 1 {
            return Err(shape_err("need at least one node per switch".into()));
        }
        let nodes = switches * u64::from(nodes_per_switch);
        let links = switches * DIRS as u64 + 2 * nodes;
        if nodes > u64::from(u32::MAX) || links > u64::from(u32::MAX) {
            return Err(TopoError::LinkSpaceExhausted { topo: "torus3d", links });
        }
        Ok(Torus3d { dims: [x, y, z], nodes_per_switch })
    }

    /// Torus dimensions.
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// Nodes attached per switch.
    pub fn nodes_per_switch(&self) -> u32 {
        self.nodes_per_switch
    }

    fn switch_count(&self) -> u32 {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    fn coords(&self, s: SwitchId) -> [u32; 3] {
        let [x, y, _] = self.dims;
        [s.0 % x, (s.0 / x) % y, s.0 / (x * y)]
    }

    fn switch_at(&self, c: [u32; 3]) -> SwitchId {
        let [x, y, _] = self.dims;
        SwitchId(c[0] + c[1] * x + c[2] * x * y)
    }

    /// Directed fabric link leaving switch `s` in direction `dir`
    /// (0:+x, 1:-x, 2:+y, 3:-y, 4:+z, 5:-z).
    fn fabric_link(&self, s: SwitchId, dir: usize) -> LinkId {
        // `try_new` bounds switches·6 + 2·nodes within u32, so the widened
        // product always narrows back losslessly.
        let id = u64::from(s.0) * DIRS as u64 + dir as u64;
        debug_assert!(id <= u64::from(u32::MAX), "fabric link id wrapped");
        LinkId(id as u32)
    }

    fn injection_link(&self, n: NodeId) -> LinkId {
        LinkId(self.switch_count() * DIRS as u32 + n.0)
    }

    fn ejection_link(&self, n: NodeId) -> LinkId {
        LinkId(self.switch_count() * DIRS as u32 + self.num_nodes() + n.0)
    }

    /// Walk one dimension from `from` toward coordinate `target`,
    /// pushing fabric links; returns the switch reached.
    fn walk_dim(
        &self,
        from: SwitchId,
        dim: usize,
        target: u32,
        path: &mut Vec<LinkId>,
    ) -> SwitchId {
        let size = self.dims[dim];
        let mut cur = self.coords(from);
        if cur[dim] == target || size == 1 {
            return from;
        }
        // Choose the shorter wrap direction; ties go positive.
        let fwd = (target + size - cur[dim]) % size;
        let bwd = (cur[dim] + size - target) % size;
        let positive = fwd <= bwd;
        let dir = dim * 2 + usize::from(!positive);
        let mut sw = from;
        while cur[dim] != target {
            path.push(self.fabric_link(sw, dir));
            cur[dim] = if positive { (cur[dim] + 1) % size } else { (cur[dim] + size - 1) % size };
            sw = self.switch_at(cur);
        }
        sw
    }
}

impl Topology for Torus3d {
    fn name(&self) -> String {
        format!(
            "torus3d({}x{}x{};{}n/sw)",
            self.dims[0], self.dims[1], self.dims[2], self.nodes_per_switch
        )
    }

    fn num_nodes(&self) -> u32 {
        self.switch_count() * self.nodes_per_switch
    }

    fn num_switches(&self) -> u32 {
        self.switch_count()
    }

    fn num_links(&self) -> u32 {
        self.switch_count() * DIRS as u32 + 2 * self.num_nodes()
    }

    fn node_switch(&self, node: NodeId) -> SwitchId {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        SwitchId(node.0 / self.nodes_per_switch)
    }

    fn link_kind(&self, link: LinkId) -> LinkKind {
        let fabric = self.switch_count() * DIRS as u32;
        if link.0 < fabric {
            LinkKind::Fabric
        } else if link.0 < fabric + self.num_nodes() {
            LinkKind::Injection
        } else {
            LinkKind::Ejection
        }
    }

    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        path.push(self.injection_link(src));
        let target = self.coords(self.node_switch(dst));
        let mut sw = self.node_switch(src);
        for (dim, &goal) in target.iter().enumerate() {
            sw = self.walk_dim(sw, dim, goal, path);
        }
        debug_assert_eq!(sw, self.node_switch(dst));
        path.push(self.ejection_link(dst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::check_route_shape;

    #[test]
    fn counts() {
        let t = Torus3d::try_new(4, 4, 2, 2).expect("valid torus shape");
        assert_eq!(t.num_switches(), 32);
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.num_links(), 32 * 6 + 2 * 64);
        assert_eq!(t.name(), "torus3d(4x4x2;2n/sw)");
    }

    #[test]
    fn coords_round_trip() {
        let t = Torus3d::try_new(4, 3, 2, 1).expect("valid torus shape");
        for s in 0..t.num_switches() {
            let c = t.coords(SwitchId(s));
            assert_eq!(t.switch_at(c), SwitchId(s));
            assert!(c[0] < 4 && c[1] < 3 && c[2] < 2);
        }
    }

    #[test]
    fn same_node_routes_empty() {
        let t = Torus3d::try_new(4, 4, 2, 2).expect("valid torus shape");
        assert!(t.route_vec(NodeId(5), NodeId(5)).is_empty());
    }

    #[test]
    fn same_switch_route_is_inject_eject() {
        let t = Torus3d::try_new(4, 4, 2, 2).expect("valid torus shape");
        // Nodes 0 and 1 share switch 0.
        let p = t.route_vec(NodeId(0), NodeId(1));
        assert_eq!(p.len(), 2);
        assert_eq!(t.link_kind(p[0]), LinkKind::Injection);
        assert_eq!(t.link_kind(p[1]), LinkKind::Ejection);
    }

    #[test]
    fn all_routes_well_formed() {
        let t = Torus3d::try_new(4, 3, 2, 2).expect("valid torus shape");
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                check_route_shape(&t, NodeId(s), NodeId(d)).expect("route shape");
            }
        }
    }

    #[test]
    fn route_takes_shorter_wrap() {
        // 8-wide ring in x: 0 -> 6 should go backwards (2 hops), not 6.
        let t = Torus3d::try_new(8, 1, 1, 1).expect("valid torus shape");
        let p = t.route_vec(NodeId(0), NodeId(6));
        // injection + 2 fabric + ejection
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn route_hop_count_matches_manhattan_wrap_distance() {
        let t = Torus3d::try_new(4, 4, 4, 1).expect("valid torus shape");
        let dist = |a: u32, b: u32, size: u32| {
            let fwd = (b + size - a) % size;
            let bwd = (a + size - b) % size;
            fwd.min(bwd)
        };
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                if s == d {
                    continue;
                }
                let cs = t.coords(t.node_switch(NodeId(s)));
                let cd = t.coords(t.node_switch(NodeId(d)));
                let expect: u32 = (0..3).map(|i| dist(cs[i], cd[i], t.dims[i])).sum();
                assert_eq!(t.fabric_hops(NodeId(s), NodeId(d)), expect, "{s}->{d}");
            }
        }
    }

    #[test]
    fn deterministic_routes() {
        let t = Torus3d::try_new(4, 4, 2, 2).expect("valid torus shape");
        assert_eq!(t.route_vec(NodeId(3), NodeId(42)), t.route_vec(NodeId(3), NodeId(42)));
    }

    #[test]
    fn mean_route_links_positive() {
        let t = Torus3d::try_new(4, 4, 2, 2).expect("valid torus shape");
        let m = t.mean_route_links();
        assert!(m > 2.0 && m < 10.0, "mean {m}");
    }

    #[test]
    fn degenerate_torus_rejected() {
        let err = Torus3d::try_new(1, 1, 1, 4).unwrap_err();
        assert!(err.to_string().contains("more than one switch"), "{err}");
        let err = Torus3d::try_new(0, 4, 4, 1).unwrap_err();
        assert!(err.to_string().contains(">= 1"), "{err}");
        let err = Torus3d::try_new(4, 4, 4, 0).unwrap_err();
        assert!(err.to_string().contains("node per switch"), "{err}");
    }

    #[test]
    fn oversized_torus_rejected_before_link_ids_wrap() {
        // 1625³ switches × 6 dirs ≈ 25.7e9 link ids: far past u32.
        let err = Torus3d::try_new(1625, 1625, 1625, 1).unwrap_err();
        match err {
            TopoError::LinkSpaceExhausted { topo, links } => {
                assert_eq!(topo, "torus3d");
                assert!(links > u64::from(u32::MAX), "links {links}");
            }
            other => panic!("expected LinkSpaceExhausted, got {other}"),
        }
        // Just-fits shape still constructs: 812³·6 + 2·812³ ≈ 4.28e9 > u32
        // fails, but 800³ (512e6 switches, 4.1e9 links) also fails; a
        // 512³ torus (134e6 switches, 1.07e9 links) is fine.
        assert!(Torus3d::try_new(512, 512, 512, 1).is_ok());
    }
}
