//! `masim-topo`: interconnect topologies, deterministic routing, machine
//! configurations, and task mappings.
//!
//! The simulator charges traffic to the directed links a [`Topology`]
//! enumerates; MFACT only consumes the scalar [`NetworkConfig`].
//! Three topology classes are provided, matching SST/Macro's catalogue
//! as used in the paper: 3-D torus (Gemini: Cielito, Hopper), dragonfly
//! (Aries: Edison), and a leaf-spine fat tree (for ablations).

#![warn(missing_docs)]

mod dragonfly;
mod error;
mod fattree;
mod machine;
mod mapping;
mod topology;
mod torus;

pub use dragonfly::Dragonfly;
pub use error::TopoError;
pub use fattree::FatTree;
pub use machine::{Machine, NetworkConfig};
pub use mapping::Mapping;
pub use topology::{check_route_shape, LinkId, LinkKind, SwitchId, Topology};
pub use torus::Torus3d;
