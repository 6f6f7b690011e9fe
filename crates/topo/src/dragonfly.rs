//! Dragonfly topology (Cray Aries-like, used by Edison).
//!
//! Groups of `a` routers are internally all-to-all connected; each router
//! hosts `p` nodes and owns `h` global links. Global links follow the
//! *absolute* arrangement: global channel `c` of group `g` connects to
//! group `(g + 1 + c mod (G−1)) mod G`, which requires `(G−1) | a·h` and
//! gives every ordered group pair `a·h/(G−1)` channels. Routing is
//! minimal (local hop to a gateway router, one global hop, local hop to
//! the destination router) with two spreading mechanisms standing in for
//! Aries adaptive routing: hash-selected channels among a pair's global
//! links, and Valiant detours through an intermediate group for half of
//! the node pairs.

use crate::error::TopoError;
use crate::topology::{LinkId, LinkKind, SwitchId, Topology};
use masim_trace::NodeId;

/// A dragonfly with `groups` groups, `routers_per_group` routers per
/// group, `nodes_per_router` attached nodes, and `global_per_router`
/// global links per router.
#[derive(Clone, Debug)]
pub struct Dragonfly {
    groups: u32,
    routers_per_group: u32,
    nodes_per_router: u32,
    global_per_router: u32,
}

impl Dragonfly {
    /// Build a dragonfly. `groups` must be > 1 and `G − 1` must divide
    /// `a·h` (so every ordered group pair gets the same number of global
    /// channels; `G = a·h + 1` is the classic one-channel-per-pair
    /// balanced arrangement, smaller `G` gives multi-channel pairs as on
    /// real Aries), and the directed link id space must fit in `u32`.
    pub fn try_new(
        groups: u32,
        routers_per_group: u32,
        nodes_per_router: u32,
        global_per_router: u32,
    ) -> Result<Dragonfly, TopoError> {
        let shape_err = |reason: String| TopoError::InvalidShape { topo: "dragonfly", reason };
        if groups <= 1 {
            return Err(shape_err("dragonfly needs at least two groups".into()));
        }
        if routers_per_group < 1 || nodes_per_router < 1 || global_per_router < 1 {
            return Err(shape_err(
                "need at least one router per group, node per router, and global link per router"
                    .into(),
            ));
        }
        let ah = u64::from(routers_per_group) * u64::from(global_per_router);
        if !ah.is_multiple_of(u64::from(groups - 1)) {
            return Err(shape_err(format!(
                "absolute arrangement requires (G-1) | a*h \
                 (G={groups}, a={routers_per_group}, h={global_per_router})"
            )));
        }
        let routers = u64::from(groups) * u64::from(routers_per_group);
        let nodes = routers * u64::from(nodes_per_router);
        let links = routers * u64::from(routers_per_group - 1)
            + routers * u64::from(global_per_router)
            + 2 * nodes;
        if nodes > u64::from(u32::MAX) || links > u64::from(u32::MAX) {
            return Err(TopoError::LinkSpaceExhausted { topo: "dragonfly", links });
        }
        Ok(Dragonfly { groups, routers_per_group, nodes_per_router, global_per_router })
    }

    /// Global channels per ordered group pair.
    pub fn channels_per_pair(&self) -> u32 {
        self.routers_per_group * self.global_per_router / (self.groups - 1)
    }

    /// A balanced dragonfly (`G = a·h + 1`) sized to hold at least
    /// `min_nodes` nodes, with `nodes_per_router` nodes per router.
    pub fn balanced(min_nodes: u32, nodes_per_router: u32, global_per_router: u32) -> Dragonfly {
        let mut a = 2u32;
        loop {
            let g = a * global_per_router + 1;
            // Widen: at Frontier-class sizes g·a·p can exceed u32 while
            // searching for the first shape that fits.
            if u64::from(g) * u64::from(a) * u64::from(nodes_per_router) >= u64::from(min_nodes) {
                // Invariant: `G = a·h + 1` meets `(G−1) | a·h`, and the one
                // caller's sizes keep the link id space far below `u32`.
                return Dragonfly::try_new(g, a, nodes_per_router, global_per_router)
                    .expect("balanced dragonfly shape");
            }
            a += 1;
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Routers per group.
    pub fn routers_per_group(&self) -> u32 {
        self.routers_per_group
    }

    fn router_count(&self) -> u32 {
        self.groups * self.routers_per_group
    }

    fn group_of(&self, s: SwitchId) -> u32 {
        s.0 / self.routers_per_group
    }

    fn local_index(&self, s: SwitchId) -> u32 {
        s.0 % self.routers_per_group
    }

    fn router(&self, group: u32, local: u32) -> SwitchId {
        SwitchId(group * self.routers_per_group + local)
    }

    // Link id layout:
    //   local links:  for each router, a-1 directed links to its group
    //                 peers, ordered by peer local index skipping self.
    //   global links: router_count * (a-1) .. + router_count * h
    //   injection:    .. + num_nodes
    //   ejection:     .. + num_nodes
    fn local_link(&self, from: SwitchId, to: SwitchId) -> LinkId {
        debug_assert_eq!(self.group_of(from), self.group_of(to));
        debug_assert_ne!(from, to);
        let a = self.routers_per_group;
        let fi = self.local_index(from);
        let ti = self.local_index(to);
        let slot = if ti < fi { ti } else { ti - 1 };
        LinkId(from.0 * (a - 1) + slot)
    }

    fn global_link(&self, from: SwitchId, channel: u32) -> LinkId {
        let base = self.router_count() * (self.routers_per_group - 1);
        LinkId(base + from.0 * self.global_per_router + channel)
    }

    fn injection_base(&self) -> u32 {
        self.router_count() * (self.routers_per_group - 1)
            + self.router_count() * self.global_per_router
    }

    fn injection_link(&self, n: NodeId) -> LinkId {
        LinkId(self.injection_base() + n.0)
    }

    fn ejection_link(&self, n: NodeId) -> LinkId {
        LinkId(self.injection_base() + self.num_nodes() + n.0)
    }

    /// Walk from router `cur` in `from_group` to `to_group`: a local hop
    /// to the gateway (if needed) plus the global hop. `salt` selects
    /// among the pair's channels, spreading load as adaptive routing
    /// does. Returns the landing router (the reverse gateway).
    fn hop_to_group(
        &self,
        cur: SwitchId,
        from_group: u32,
        to_group: u32,
        salt: u64,
        path: &mut Vec<LinkId>,
    ) -> SwitchId {
        let (gw, ch) = self.gateway(from_group, to_group, salt);
        if cur != gw {
            path.push(self.local_link(cur, gw));
        }
        path.push(self.global_link(gw, ch));
        let (back, _) = self.gateway(to_group, from_group, salt);
        back
    }

    /// A (router, channel) in `src_group` whose global link lands in
    /// `dst_group`; `salt` picks among the pair's channels. Absolute
    /// arrangement: channel index `c` of a group connects to group
    /// `(g + 1 + c mod (G−1)) mod G`.
    fn gateway(&self, src_group: u32, dst_group: u32, salt: u64) -> (SwitchId, u32) {
        debug_assert_ne!(src_group, dst_group);
        let g = self.groups;
        let offset = (dst_group + g - src_group - 1) % g; // in [0, G-2]
        let k = self.channels_per_pair();
        let c = offset + (salt % k as u64) as u32 * (g - 1);
        debug_assert!(c < self.routers_per_group * self.global_per_router);
        let router = self.router(src_group, c / self.global_per_router);
        (router, c % self.global_per_router)
    }
}

impl Topology for Dragonfly {
    fn name(&self) -> String {
        format!(
            "dragonfly(g{} a{} p{} h{})",
            self.groups, self.routers_per_group, self.nodes_per_router, self.global_per_router
        )
    }

    fn num_nodes(&self) -> u32 {
        self.router_count() * self.nodes_per_router
    }

    fn num_switches(&self) -> u32 {
        self.router_count()
    }

    fn num_links(&self) -> u32 {
        self.injection_base() + 2 * self.num_nodes()
    }

    fn node_switch(&self, node: NodeId) -> SwitchId {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        SwitchId(node.0 / self.nodes_per_router)
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
        let mut cur = self.node_switch(src);
        let dst_sw = self.node_switch(dst);
        let (sg, dg) = (self.group_of(cur), self.group_of(dst_sw));
        if sg != dg {
            // Aries balances inter-group load over non-minimal (Valiant)
            // paths; with one global channel per group pair, pure
            // minimal routing would funnel all (g1, g2) traffic over a
            // single link. We spread deterministically: half of the node
            // pairs (by hash) detour through an intermediate group.
            let h = (src.0 as u64)
                .wrapping_mul(0x9E37_79B1)
                .wrapping_add((dst.0 as u64).wrapping_mul(0x85EB_CA77));
            let valiant = self.groups > 2 && (h & 1) == 1;
            if valiant {
                let mut ig = (sg + 1 + ((h >> 1) as u32 % (self.groups - 1))) % self.groups;
                if ig == dg {
                    ig = (ig + 1) % self.groups;
                    if ig == sg {
                        ig = (ig + 1) % self.groups;
                    }
                }
                debug_assert!(ig != sg && ig != dg);
                // Hop to the intermediate group…
                cur = self.hop_to_group(cur, sg, ig, h >> 2, path);
                // …then on to the destination group.
                cur = self.hop_to_group(cur, ig, dg, h >> 2, path);
            } else {
                cur = self.hop_to_group(cur, sg, dg, h >> 2, path);
            }
        }
        if cur != dst_sw {
            path.push(self.local_link(cur, dst_sw));
        }
        path.push(self.ejection_link(dst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::check_route_shape;

    fn small() -> Dragonfly {
        // G = a*h + 1 = 5 groups of 4 routers, 2 nodes each: 40 nodes.
        Dragonfly::try_new(5, 4, 2, 1).expect("valid dragonfly shape")
    }

    #[test]
    fn counts() {
        let d = small();
        assert_eq!(d.num_switches(), 20);
        assert_eq!(d.num_nodes(), 40);
        // local: 20 routers * 3; global: 20 * 1; inj+ej: 80.
        assert_eq!(d.num_links(), 60 + 20 + 80);
    }

    #[test]
    fn balanced_sizing() {
        let d = Dragonfly::balanced(288, 4, 1);
        assert!(d.num_nodes() >= 288, "nodes {}", d.num_nodes());
        assert_eq!(d.groups(), d.routers_per_group() + 1);
    }

    #[test]
    fn gateway_is_consistent() {
        let d = small();
        for sg in 0..d.groups {
            for dg in 0..d.groups {
                if sg == dg {
                    continue;
                }
                for salt in 0..4u64 {
                    let (gw, ch) = d.gateway(sg, dg, salt);
                    assert_eq!(d.group_of(gw), sg);
                    // The channel's absolute index must map back to the
                    // destination group.
                    let c = d.local_index(gw) * d.global_per_router + ch;
                    assert_eq!((sg + 1 + c % (d.groups - 1)) % d.groups, dg);
                }
            }
        }
    }

    #[test]
    fn multi_channel_pairs_spread() {
        // G=3, a=4, h=3: a*h=12 channels, (G-1)=2 -> 6 channels per pair.
        let d = Dragonfly::try_new(3, 4, 2, 3).expect("valid dragonfly shape");
        assert_eq!(d.channels_per_pair(), 6);
        let mut gateways = std::collections::HashSet::new();
        for salt in 0..6u64 {
            gateways.insert(d.gateway(0, 1, salt));
        }
        assert_eq!(gateways.len(), 6, "each salt picks a distinct channel");
    }

    #[test]
    fn all_routes_well_formed() {
        let d = small();
        for s in 0..d.num_nodes() {
            for t in 0..d.num_nodes() {
                check_route_shape(&d, NodeId(s), NodeId(t)).expect("route shape");
            }
        }
    }

    #[test]
    fn route_hop_bounds() {
        let d = small();
        let mut minimal = 0u32;
        let mut valiant = 0u32;
        for s in 0..d.num_nodes() {
            for t in 0..d.num_nodes() {
                if s == t {
                    continue;
                }
                // Minimal routes use ≤ 3 fabric hops (local, global,
                // local); Valiant detours use ≤ 6.
                let hops = d.fabric_hops(NodeId(s), NodeId(t));
                assert!(hops <= 6, "{s}->{t} took {hops} fabric hops");
                let same_group =
                    d.group_of(d.node_switch(NodeId(s))) == d.group_of(d.node_switch(NodeId(t)));
                if same_group {
                    assert!(hops <= 1);
                } else {
                    assert!(hops >= 1);
                    if hops <= 3 {
                        minimal += 1;
                    } else {
                        valiant += 1;
                    }
                }
            }
        }
        // The deterministic spread sends roughly half of inter-group
        // pairs over Valiant detours.
        let frac = valiant as f64 / (minimal + valiant) as f64;
        assert!((0.3..0.7).contains(&frac), "valiant fraction {frac}");
    }

    #[test]
    fn valiant_spreads_global_link_load() {
        // All pairs between group 0 and group 1: with pure minimal
        // routing every pair would share one global link; with the
        // spread, multiple distinct global links appear.
        let d = small();
        let mut globals = std::collections::HashSet::new();
        for s in 0..8u32 {
            // nodes of group 0
            for t in 8..16u32 {
                // nodes of group 1
                for l in d.route_vec(NodeId(s), NodeId(t)) {
                    // Global link ids live between local links and
                    // injection base.
                    let local_count = d.router_count() * (d.routers_per_group - 1);
                    if l.0 >= local_count && l.0 < d.injection_base() {
                        globals.insert(l.0);
                    }
                }
            }
        }
        assert!(globals.len() >= 3, "only {} global links used", globals.len());
    }

    #[test]
    fn local_link_ids_are_unique() {
        let d = small();
        let mut seen = std::collections::HashSet::new();
        for g in 0..d.groups {
            for i in 0..d.routers_per_group {
                for j in 0..d.routers_per_group {
                    if i == j {
                        continue;
                    }
                    let l = d.local_link(d.router(g, i), d.router(g, j));
                    assert!(seen.insert(l), "duplicate local link id {l}");
                    assert_eq!(d.link_kind(l), LinkKind::Fabric);
                }
            }
        }
    }

    #[test]
    fn oversubscribed_groups_rejected() {
        let err = Dragonfly::try_new(10, 4, 2, 1).unwrap_err();
        assert!(err.to_string().contains("(G-1) | a*h"), "{err}");
        let err = Dragonfly::try_new(1, 4, 2, 1).unwrap_err();
        assert!(err.to_string().contains("two groups"), "{err}");
    }

    #[test]
    fn oversized_dragonfly_rejected_before_link_ids_wrap() {
        // a=4000, h=1 ⇒ G=4001 balanced: 16e6 routers × 3999 local links
        // each ≈ 6.4e10 link ids — far past u32, rejected typed.
        let err = Dragonfly::try_new(4001, 4000, 1, 1).unwrap_err();
        assert!(matches!(err, TopoError::LinkSpaceExhausted { topo: "dragonfly", .. }), "{err}");
    }
}
