//! The `Topology` abstraction: nodes attached to switches, directed
//! links, and deterministic routing.
//!
//! The simulator charges every message (or packet) for each directed
//! link along its route, so a topology's job is to enumerate links with
//! stable ids and produce the link sequence for any node pair. Routes
//! always include the injection link (node → switch) and ejection link
//! (switch → node); same-node communication routes over no links at all
//! (shared memory).

use masim_trace::NodeId;
use std::fmt;

/// A switch (router) in the interconnect (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SwitchId(pub u32);

impl SwitchId {
    /// Switch as a `usize` index.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A directed link (0-based, stable per topology instance).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Link as a `usize` index.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// What role a directed link plays, for utilization reporting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkKind {
    /// Node NIC into its switch.
    Injection,
    /// Switch-to-switch fabric link.
    Fabric,
    /// Switch down to the destination node's NIC.
    Ejection,
}

/// An interconnect topology with deterministic minimal-ish routing.
///
/// Implementations must be deterministic: the same (src, dst) pair always
/// yields the same link sequence, so simulations are reproducible.
pub trait Topology: Send + Sync {
    /// Short name for reports ("torus3d(4x4x2)", …).
    fn name(&self) -> String;

    /// Number of compute nodes attached.
    fn num_nodes(&self) -> u32;

    /// Number of switches.
    fn num_switches(&self) -> u32;

    /// Number of directed links (fabric + injection + ejection).
    fn num_links(&self) -> u32;

    /// Switch a node is attached to.
    fn node_switch(&self, node: NodeId) -> SwitchId;

    /// Role of a link.
    fn link_kind(&self, link: LinkId) -> LinkKind;

    /// Append the directed-link route from `src` to `dst` onto `path`.
    ///
    /// An empty route means the endpoints share a node. Routes between
    /// distinct nodes always begin with an injection link and end with an
    /// ejection link.
    fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<LinkId>);

    /// Convenience wrapper allocating a fresh route vector.
    fn route_vec(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut p = Vec::new();
        self.route(src, dst, &mut p);
        p
    }

    /// Number of fabric hops between two nodes (route length minus the
    /// injection and ejection links).
    fn fabric_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let p = self.route_vec(src, dst);
        (p.len() as u32).saturating_sub(2)
    }

    /// Mean route length (in links) over a deterministic sample of node
    /// pairs; used to apportion the machine's end-to-end latency across
    /// hops so the simulator and MFACT agree in the uncongested limit.
    fn mean_route_links(&self) -> f64 {
        let n = self.num_nodes();
        if n <= 1 {
            return 0.0;
        }
        // Sample a bounded, deterministic set of pairs: every src paired
        // with a stride-walked set of dsts.
        let stride = (n / 64).max(1);
        let mut total = 0u64;
        let mut count = 0u64;
        let mut path = Vec::new();
        for src in 0..n {
            let mut dst = (src + 1) % n;
            loop {
                path.clear();
                self.route(NodeId(src), NodeId(dst), &mut path);
                total += path.len() as u64;
                count += 1;
                dst = (dst + stride) % n;
                if dst == (src + 1) % n {
                    break;
                }
                if count > 200_000 {
                    break;
                }
            }
            if count > 200_000 {
                break;
            }
        }
        total as f64 / count as f64
    }
}

/// Shared route-validity checker used by tests of every topology:
/// verifies a route starts with injection from `src`'s switch, ends with
/// ejection at `dst`, and walks adjacent fabric links in between.
///
/// Exposed (rather than test-only) so downstream crates' property tests
/// can reuse it.
pub fn check_route_shape(topo: &dyn Topology, src: NodeId, dst: NodeId) -> Result<(), String> {
    let path = topo.route_vec(src, dst);
    if src == dst {
        if !path.is_empty() {
            return Err(format!("self-route {src}->{dst} must be empty, got {} links", path.len()));
        }
        return Ok(());
    }
    if path.len() < 2 {
        return Err(format!("route {src}->{dst} too short: {} links", path.len()));
    }
    if topo.link_kind(path[0]) != LinkKind::Injection {
        return Err(format!("route {src}->{dst} does not start with injection"));
    }
    if topo.link_kind(*path.last().unwrap()) != LinkKind::Ejection {
        return Err(format!("route {src}->{dst} does not end with ejection"));
    }
    for l in &path[1..path.len() - 1] {
        if topo.link_kind(*l) != LinkKind::Fabric {
            return Err(format!("route {src}->{dst} has non-fabric interior link {l}"));
        }
    }
    for l in &path {
        if l.0 >= topo.num_links() {
            return Err(format!("route {src}->{dst} uses out-of-range link {l}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display() {
        assert_eq!(SwitchId(2).to_string(), "s2");
        assert_eq!(LinkId(5).to_string(), "l5");
    }
}
