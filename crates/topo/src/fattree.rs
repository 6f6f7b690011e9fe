//! Two-level fat tree (leaf/spine Clos), provided as the third topology
//! class SST/Macro supports. None of the paper's three machines uses it;
//! the route oracles (`tests/oracles.rs`) and this crate's tests do.
//!
//! Every leaf switch connects to every spine switch. Up-routing picks the
//! spine deterministically by hashing the destination leaf, which spreads
//! flows while keeping simulations reproducible.

use crate::error::TopoError;
use crate::topology::{LinkId, LinkKind, SwitchId, Topology};
use masim_trace::NodeId;

/// A leaf-spine fat tree.
#[derive(Clone, Debug)]
pub struct FatTree {
    leaves: u32,
    spines: u32,
    nodes_per_leaf: u32,
}

impl FatTree {
    /// Build a fat tree with `leaves` leaf switches, `spines` spine
    /// switches, and `nodes_per_leaf` nodes per leaf. Validates the shape
    /// and that the directed link id space (`2·leaves·spines + 2·nodes`)
    /// fits in `u32`.
    pub fn try_new(leaves: u32, spines: u32, nodes_per_leaf: u32) -> Result<FatTree, TopoError> {
        let shape_err = |reason: String| TopoError::InvalidShape { topo: "fattree", reason };
        if leaves < 2 {
            return Err(shape_err("need at least two leaves".into()));
        }
        if spines < 1 || nodes_per_leaf < 1 {
            return Err(shape_err("need at least one spine and one node per leaf".into()));
        }
        let nodes = u64::from(leaves) * u64::from(nodes_per_leaf);
        let links = 2 * u64::from(leaves) * u64::from(spines) + 2 * nodes;
        if nodes > u64::from(u32::MAX) || links > u64::from(u32::MAX) {
            return Err(TopoError::LinkSpaceExhausted { topo: "fattree", links });
        }
        Ok(FatTree { leaves, spines, nodes_per_leaf })
    }

    /// Leaf switches count.
    pub fn leaves(&self) -> u32 {
        self.leaves
    }

    /// Spine switches count.
    pub fn spines(&self) -> u32 {
        self.spines
    }

    // Switch ids: leaves first, then spines.
    fn spine(&self, i: u32) -> SwitchId {
        SwitchId(self.leaves + i)
    }

    // Link layout: up links (leaf l -> spine s) = l*spines + s;
    // down links = leaves*spines + s*leaves + l; then injection, ejection.
    fn up_link(&self, leaf: u32, spine: u32) -> LinkId {
        LinkId(leaf * self.spines + spine)
    }

    fn down_link(&self, spine: u32, leaf: u32) -> LinkId {
        LinkId(self.leaves * self.spines + spine * self.leaves + leaf)
    }

    fn injection_base(&self) -> u32 {
        2 * self.leaves * self.spines
    }

    fn injection_link(&self, n: NodeId) -> LinkId {
        LinkId(self.injection_base() + n.0)
    }

    fn ejection_link(&self, n: NodeId) -> LinkId {
        LinkId(self.injection_base() + self.num_nodes() + n.0)
    }

    fn leaf_of(&self, n: NodeId) -> u32 {
        n.0 / self.nodes_per_leaf
    }

    /// Deterministic spine choice for a (src leaf, dst leaf) pair.
    fn spine_for(&self, src_leaf: u32, dst_leaf: u32) -> u32 {
        (src_leaf.wrapping_mul(31).wrapping_add(dst_leaf)) % self.spines
    }
}

impl Topology for FatTree {
    fn name(&self) -> String {
        format!("fattree(l{} s{} p{})", self.leaves, self.spines, self.nodes_per_leaf)
    }

    fn num_nodes(&self) -> u32 {
        self.leaves * self.nodes_per_leaf
    }

    fn num_switches(&self) -> u32 {
        self.leaves + self.spines
    }

    fn num_links(&self) -> u32 {
        self.injection_base() + 2 * self.num_nodes()
    }

    fn node_switch(&self, node: NodeId) -> SwitchId {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        SwitchId(self.leaf_of(node))
    }

    fn link_kind(&self, link: LinkId) -> LinkKind {
        let inj = self.injection_base();
        if link.0 < inj {
            LinkKind::Fabric
        } else if link.0 < inj + self.num_nodes() {
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
        let (sl, dl) = (self.leaf_of(src), self.leaf_of(dst));
        if sl != dl {
            let sp = self.spine_for(sl, dl);
            let _ = self.spine(sp); // spine ids exist for reporting
            path.push(self.up_link(sl, sp));
            path.push(self.down_link(sp, dl));
        }
        path.push(self.ejection_link(dst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::check_route_shape;

    #[test]
    fn counts() {
        let t = FatTree::try_new(4, 2, 8).expect("valid fat tree shape");
        assert_eq!(t.num_nodes(), 32);
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.num_links(), 2 * 4 * 2 + 2 * 32);
    }

    #[test]
    fn all_routes_well_formed() {
        let t = FatTree::try_new(4, 2, 4).expect("valid fat tree shape");
        for s in 0..t.num_nodes() {
            for d in 0..t.num_nodes() {
                check_route_shape(&t, NodeId(s), NodeId(d)).expect("route shape");
            }
        }
    }

    #[test]
    fn intra_leaf_skips_fabric() {
        let t = FatTree::try_new(4, 2, 4).expect("valid fat tree shape");
        assert_eq!(t.fabric_hops(NodeId(0), NodeId(1)), 0);
        assert_eq!(t.fabric_hops(NodeId(0), NodeId(4)), 2);
    }

    #[test]
    fn bad_shapes_rejected_with_typed_errors() {
        let err = FatTree::try_new(1, 2, 4).unwrap_err();
        assert!(err.to_string().contains("two leaves"), "{err}");
        let err = FatTree::try_new(4, 0, 4).unwrap_err();
        assert!(matches!(err, TopoError::InvalidShape { topo: "fattree", .. }), "{err}");
        // 80k leaves × 40k spines ≈ 6.4e9 fabric link ids: past u32.
        let err = FatTree::try_new(80_000, 40_000, 1).unwrap_err();
        assert!(matches!(err, TopoError::LinkSpaceExhausted { topo: "fattree", .. }), "{err}");
    }

    #[test]
    fn spine_choice_is_deterministic_and_in_range() {
        let t = FatTree::try_new(7, 3, 2).expect("valid fat tree shape");
        for sl in 0..7 {
            for dl in 0..7 {
                let s = t.spine_for(sl, dl);
                assert!(s < 3);
                assert_eq!(s, t.spine_for(sl, dl));
            }
        }
    }
}
