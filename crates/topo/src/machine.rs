//! Machine configurations: a topology plus the paper's published
//! bandwidth/latency scalars for Cielito, Hopper, and Edison.

use crate::error::TopoError;
use crate::topology::Topology;
use crate::{Dragonfly, FatTree, Torus3d};
use masim_trace::{Bandwidth, Time};
use std::sync::Arc;

/// The two scalars the paper uses to characterize an interconnect.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Per-link bandwidth.
    pub bandwidth: Bandwidth,
    /// End-to-end small-message latency (Hockney α).
    pub latency: Time,
}

impl NetworkConfig {
    /// Construct from the paper's units (Gb/s, ns).
    ///
    /// Panics on non-positive or non-finite bandwidth; use
    /// [`NetworkConfig::try_new`] for untrusted input.
    pub fn new(gbps: f64, latency_ns: u64) -> NetworkConfig {
        NetworkConfig { bandwidth: Bandwidth::from_gbps(gbps), latency: Time::from_ns(latency_ns) }
    }

    /// Fallible construction from the paper's units (Gb/s, ns): rejects
    /// zero, negative, and non-finite bandwidth with a typed error
    /// instead of panicking.
    pub fn try_new(gbps: f64, latency_ns: u64) -> Result<NetworkConfig, TopoError> {
        let bandwidth =
            Bandwidth::try_from_gbps(gbps).ok_or(TopoError::NonPositiveBandwidth { gbps })?;
        Ok(NetworkConfig { bandwidth, latency: Time::from_ns(latency_ns) })
    }

    /// A copy with bandwidth scaled by `bw` and latency by `lat`
    /// (MFACT's sensitivity sweep uses factors 1/8 … 8).
    pub fn scaled(&self, bw: f64, lat: f64) -> NetworkConfig {
        NetworkConfig { bandwidth: self.bandwidth.scale(bw), latency: self.latency.scale(lat) }
    }
}

/// A target machine: topology, network scalars, and node shape.
#[derive(Clone)]
pub struct Machine {
    /// Machine name ("cielito", "hopper", "edison").
    pub name: String,
    /// The interconnect.
    pub topology: Arc<dyn Topology>,
    /// Link bandwidth and end-to-end latency.
    pub net: NetworkConfig,
    /// CPU cores (max ranks) per node.
    pub cores_per_node: u32,
    /// Per-hop link latency, apportioned so that an average-length route
    /// accumulates exactly `net.latency` end to end. This keeps the
    /// simulator and MFACT in agreement in the uncongested limit.
    hop_latency: Time,
}

impl Machine {
    /// Build a machine, computing the per-hop latency split.
    pub fn new(
        name: impl Into<String>,
        topology: Arc<dyn Topology>,
        net: NetworkConfig,
        cores_per_node: u32,
    ) -> Machine {
        assert!(cores_per_node >= 1);
        let mean_links = topology.mean_route_links().max(1.0);
        let hop_latency = Time::from_ps((net.latency.as_ps() as f64 / mean_links).round() as u64);
        Machine { name: name.into(), topology, net, cores_per_node, hop_latency }
    }

    /// Per-hop (per-link) latency.
    pub fn hop_latency(&self) -> Time {
        self.hop_latency
    }

    /// Total rank capacity.
    pub fn capacity(&self) -> u32 {
        self.topology.num_nodes() * self.cores_per_node
    }

    /// Cielito: the 64-node Cray XE6 at LANL. Gemini 3-D torus (two
    /// nodes per Gemini ASIC), 16 cores/node, {10 Gb/s, 2 500 ns}.
    pub fn cielito() -> Machine {
        Machine::new(
            "cielito",
            Arc::new(Torus3d::new(4, 4, 2, 2)),
            NetworkConfig::new(10.0, 2_500),
            16,
        )
    }

    /// Hopper: NERSC's Cray XE6. Gemini 3-D torus, 24 cores/node,
    /// {35 Gb/s, 2 575 ns}. Sized here to 192 nodes, enough for the
    /// largest (1 728-rank) traces in the corpus.
    pub fn hopper() -> Machine {
        Machine::new(
            "hopper",
            Arc::new(Torus3d::new(6, 4, 4, 2)),
            NetworkConfig::new(35.0, 2_575),
            24,
        )
    }

    /// Edison: NERSC's Cray XC30. Aries dragonfly, 24 cores/node,
    /// {24 Gb/s, 1 300 ns}. Multi-channel dragonfly (one node per router
    /// tile, 4 global channels per group pair with hash spreading, like
    /// Aries adaptive routing), 168 nodes.
    pub fn edison() -> Machine {
        Machine::new(
            "edison",
            Arc::new(Dragonfly::new(7, 24, 1, 1)),
            NetworkConfig::new(24.0, 1_300),
            24,
        )
    }

    /// Edison at production scale: the full 5 576-node Cray XC30 (we
    /// round up to the first balanced dragonfly that holds it: 55 groups
    /// of 27 routers × 4 nodes = 5 940 nodes). 24 cores/node ⇒ 142 560
    /// rank capacity.
    pub fn edison_full() -> Machine {
        Machine::new(
            "edison-full",
            Arc::new(Dragonfly::balanced(5_576, 4, 2)),
            NetworkConfig::new(24.0, 1_300),
            24,
        )
    }

    /// Hopper at production scale: NERSC's full 6 384-node XE6 as a
    /// 17×8×24 Gemini torus with two nodes per ASIC (6 528 nodes).
    /// 24 cores/node ⇒ 156 672 rank capacity.
    pub fn hopper_full() -> Machine {
        Machine::new(
            "hopper-full",
            Arc::new(Torus3d::new(17, 8, 24, 2)),
            NetworkConfig::new(35.0, 2_575),
            24,
        )
    }

    /// Frontier-class dragonfly: 49 groups of 12 routers × 16 nodes
    /// (9 408 nodes, matching Frontier's node count) on a Slingshot-like
    /// {200 Gb/s, 2 000 ns} fabric. 64 cores/node ⇒ 602 112 rank
    /// capacity.
    pub fn frontier() -> Machine {
        Machine::new(
            "frontier",
            Arc::new(Dragonfly::new(49, 12, 16, 4)),
            NetworkConfig::new(200.0, 2_000),
            64,
        )
    }

    /// Hypothetical exascale torus: 32³ switches × 2 nodes (65 536
    /// nodes), 16 cores/node ⇒ exactly 1 Mi rank capacity. Exercises the
    /// largest link-id space of any preset.
    pub fn mega_torus() -> Machine {
        Machine::new(
            "torus-mega",
            Arc::new(Torus3d::new(32, 32, 32, 2)),
            NetworkConfig::new(50.0, 1_500),
            16,
        )
    }

    /// Hypothetical exascale leaf-spine fat tree: 1 024 leaves × 64
    /// spines × 64 nodes per leaf (65 536 nodes), 16 cores/node ⇒ 1 Mi
    /// rank capacity.
    pub fn mega_fattree() -> Machine {
        Machine::new(
            "fattree-mega",
            Arc::new(FatTree::new(1_024, 64, 64)),
            NetworkConfig::new(100.0, 1_000),
            16,
        )
    }

    /// Look a study machine up by name. Unknown names are a typed error
    /// so the study can record the trace as unrunnable instead of
    /// crashing the runner.
    pub fn by_name(name: &str) -> Result<Machine, TopoError> {
        match name {
            "cielito" => Ok(Machine::cielito()),
            "hopper" => Ok(Machine::hopper()),
            "edison" => Ok(Machine::edison()),
            "edison-full" => Ok(Machine::edison_full()),
            "hopper-full" => Ok(Machine::hopper_full()),
            "frontier" => Ok(Machine::frontier()),
            "torus-mega" => Ok(Machine::mega_torus()),
            "fattree-mega" => Ok(Machine::mega_fattree()),
            _ => Err(TopoError::UnknownMachine { name: name.to_string() }),
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("name", &self.name)
            .field("topology", &self.topology.name())
            .field("bandwidth", &self.net.bandwidth)
            .field("latency", &self.net.latency)
            .field("cores_per_node", &self.cores_per_node)
            .field("hop_latency", &self.hop_latency)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_parameters_match_paper() {
        let c = Machine::cielito();
        assert!((c.net.bandwidth.as_gbps() - 10.0).abs() < 1e-9);
        assert_eq!(c.net.latency, Time::from_ns(2_500));
        assert_eq!(c.cores_per_node, 16);
        assert_eq!(c.capacity(), 1024);

        let h = Machine::hopper();
        assert!((h.net.bandwidth.as_gbps() - 35.0).abs() < 1e-9);
        assert_eq!(h.net.latency, Time::from_ns(2_575));
        assert!(h.capacity() >= 1728, "hopper must hold the largest traces");

        let e = Machine::edison();
        assert!((e.net.bandwidth.as_gbps() - 24.0).abs() < 1e-9);
        assert_eq!(e.net.latency, Time::from_ns(1_300));
        assert!(e.capacity() >= 1728);
    }

    #[test]
    fn hop_latency_partitions_end_to_end() {
        for m in [Machine::cielito(), Machine::hopper(), Machine::edison()] {
            let mean = m.topology.mean_route_links();
            let total = m.hop_latency().as_ps() as f64 * mean;
            let target = m.net.latency.as_ps() as f64;
            // Within 1% after rounding.
            assert!((total - target).abs() / target < 0.01, "{}: {total} vs {target}", m.name);
        }
    }

    #[test]
    fn scale_presets_hit_the_mega_band() {
        // 64k–1M rank capacity, reachable by name; study corpus untouched.
        for m in [
            Machine::edison_full(),
            Machine::hopper_full(),
            Machine::frontier(),
            Machine::mega_torus(),
            Machine::mega_fattree(),
        ] {
            assert!(m.capacity() >= 64 * 1024, "{}: {}", m.name, m.capacity());
            assert!(m.capacity() <= 1 << 20, "{}: {}", m.name, m.capacity());
            assert_eq!(Machine::by_name(&m.name).unwrap().name, m.name);
        }
        assert_eq!(Machine::mega_torus().capacity(), 1 << 20);
        assert!(Machine::frontier().capacity() >= 500_000);
    }

    #[test]
    fn by_name_round_trip() {
        for name in ["cielito", "hopper", "edison"] {
            assert_eq!(Machine::by_name(name).unwrap().name, name);
        }
        let err = Machine::by_name("summit").unwrap_err();
        assert_eq!(err, TopoError::UnknownMachine { name: "summit".into() });
    }

    #[test]
    fn try_new_rejects_bad_bandwidth() {
        for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = NetworkConfig::try_new(gbps, 1_000).unwrap_err();
            assert!(matches!(err, TopoError::NonPositiveBandwidth { .. }), "{gbps}: {err}");
        }
        assert!(NetworkConfig::try_new(10.0, 1_000).is_ok());
    }

    #[test]
    fn scaled_config() {
        let n = NetworkConfig::new(10.0, 1000);
        let s = n.scaled(2.0, 0.5);
        assert!((s.bandwidth.as_gbps() - 20.0).abs() < 1e-9);
        assert_eq!(s.latency, Time::from_ns(500));
    }
}
