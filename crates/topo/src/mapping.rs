//! Rank-to-node task mappings.
//!
//! The paper replays each trace with "the same task-mapping as the
//! original application execution", which for the machines involved is
//! the block (SLURM-default) mapping. A random mapping is provided for
//! the mapping-sensitivity ablation.

use crate::error::TopoError;
use crate::machine::Machine;
use masim_trace::{NodeId, Rank};

/// An immutable rank → node assignment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mapping {
    node_of: Vec<NodeId>,
}

impl Mapping {
    /// Block mapping: ranks fill node 0, then node 1, … (`ranks_per_node`
    /// consecutive ranks per node).
    pub fn block(ranks: u32, ranks_per_node: u32) -> Mapping {
        assert!(ranks_per_node >= 1);
        let node_of = (0..ranks).map(|r| NodeId(r / ranks_per_node)).collect();
        Mapping { node_of }
    }

    /// Random permutation of the block mapping, deterministic in `seed`.
    ///
    /// Uses an inline splitmix64/Fisher–Yates so this crate stays free of
    /// the `rand` dependency.
    pub fn random(ranks: u32, ranks_per_node: u32, seed: u64) -> Mapping {
        let mut node_of: Vec<NodeId> = Mapping::block(ranks, ranks_per_node).node_of;
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..node_of.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            node_of.swap(i, j);
        }
        Mapping { node_of }
    }

    /// Build from an explicit hostmap.
    pub fn from_nodes(node_of: Vec<NodeId>) -> Mapping {
        Mapping { node_of }
    }

    /// Node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.node_of[rank.idx()]
    }

    /// Number of ranks mapped.
    pub fn ranks(&self) -> u32 {
        self.node_of.len() as u32
    }

    /// Check the mapping fits a machine: every node id exists and no node
    /// holds more ranks than it has cores.
    pub fn validate_for(&self, machine: &Machine) -> Result<(), TopoError> {
        let nodes = machine.topology.num_nodes();
        let mut load = vec![0u32; nodes as usize];
        for (r, n) in self.node_of.iter().enumerate() {
            if n.0 >= nodes {
                return Err(TopoError::NonexistentNode { rank: r as u32, node: n.0, nodes });
            }
            load[n.idx()] += 1;
            if load[n.idx()] > machine.cores_per_node {
                return Err(TopoError::Oversubscribed {
                    node: n.0,
                    ranks: load[n.idx()],
                    cores: machine.cores_per_node,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_packs_nodes() {
        let m = Mapping::block(10, 4);
        assert_eq!(m.node_of(Rank(0)), NodeId(0));
        assert_eq!(m.node_of(Rank(3)), NodeId(0));
        assert_eq!(m.node_of(Rank(4)), NodeId(1));
        assert_eq!(m.node_of(Rank(9)), NodeId(2));
    }

    #[test]
    fn random_is_permutation_and_deterministic() {
        let a = Mapping::random(64, 4, 7);
        let b = Mapping::random(64, 4, 7);
        assert_eq!(a, b);
        let c = Mapping::random(64, 4, 8);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
        // Same multiset of node assignments as block.
        let mut counts = [0u32; 16];
        for r in 0..64 {
            counts[a.node_of(Rank(r)).idx()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn validate_against_machine() {
        let m = Machine::cielito(); // 64 nodes, 16 cores
        assert!(Mapping::block(1024, 16).validate_for(&m).is_ok());
        assert!(Mapping::block(1025, 16).validate_for(&m).is_err(), "node 64 does not exist");
        assert!(Mapping::block(17, 17).validate_for(&m).is_err(), "oversubscribes cores");
    }
}
