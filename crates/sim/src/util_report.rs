//! Link-utilization reporting: where the bytes went.
//!
//! The simulator's whole advantage over modeling is seeing *which* links
//! carry the traffic; this module turns the per-link byte counters into
//! a digestible report (per-kind totals, the hottest links, and a
//! concentration index) for examples and post-mortems.

use crate::runner::SimConfig;
use masim_topo::{LinkId, LinkKind};
use masim_trace::Rank;

/// Aggregated utilization of one link class.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct KindUsage {
    /// Number of links of this kind that carried any traffic.
    pub active_links: usize,
    /// Total bytes across the class.
    pub bytes: u64,
    /// The busiest single link's bytes.
    pub max_bytes: u64,
}

/// A utilization digest of one simulation.
#[derive(Clone, Debug)]
pub struct UtilReport {
    /// Fabric (switch-to-switch) links.
    pub fabric: KindUsage,
    /// Per-rank injection links.
    pub injection: KindUsage,
    /// Per-rank ejection links.
    pub ejection: KindUsage,
    /// The hottest links overall: (kind, id, bytes), descending.
    pub hottest: Vec<(LinkKind, LinkId, u64)>,
    /// Share of all fabric bytes carried by the busiest fabric link —
    /// the hotspot-concentration index (1/active_links would be perfect
    /// spreading).
    pub fabric_concentration: f64,
}

impl UtilReport {
    /// Build the report from a finished simulation's per-link byte
    /// counts. `cfg` supplies the topology (for link kinds) and the
    /// trace's rank count fixes the virtual-link layout.
    pub fn new(cfg: &SimConfig, ranks: u32, link_bytes: &[u64], top: usize) -> UtilReport {
        let topo_links = cfg.machine.topology.num_links() as usize;
        let mut fabric = KindUsage::default();
        let mut injection = KindUsage::default();
        let mut ejection = KindUsage::default();
        let mut all: Vec<(LinkKind, LinkId, u64)> = Vec::new();
        for (i, &b) in link_bytes.iter().enumerate() {
            if b == 0 {
                continue;
            }
            // Virtual per-rank links follow the topology's table:
            // [topo fabric+inj+ej][rank injections][rank ejections].
            let kind = if i < topo_links {
                cfg.machine.topology.link_kind(LinkId(i as u32))
            } else if i < topo_links + ranks as usize {
                LinkKind::Injection
            } else {
                LinkKind::Ejection
            };
            let slot = match kind {
                LinkKind::Fabric => &mut fabric,
                LinkKind::Injection => &mut injection,
                LinkKind::Ejection => &mut ejection,
            };
            slot.active_links += 1;
            slot.bytes += b;
            slot.max_bytes = slot.max_bytes.max(b);
            all.push((kind, LinkId(i as u32), b));
        }
        all.sort_by_key(|&(_, _, b)| std::cmp::Reverse(b));
        all.truncate(top);
        let fabric_concentration =
            if fabric.bytes > 0 { fabric.max_bytes as f64 / fabric.bytes as f64 } else { 0.0 };
        UtilReport { fabric, injection, ejection, hottest: all, fabric_concentration }
    }

    /// Render as a short text block.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let row = |name: &str, k: &KindUsage| {
            format!(
                "  {name:<10} {:>6} links {:>12.2} MB total {:>10.2} MB max\n",
                k.active_links,
                k.bytes as f64 / 1e6,
                k.max_bytes as f64 / 1e6
            )
        };
        out.push_str("link utilization:\n");
        out.push_str(&row("fabric", &self.fabric));
        out.push_str(&row("injection", &self.injection));
        out.push_str(&row("ejection", &self.ejection));
        let _ = writeln!(
            out,
            "  fabric concentration: {:.1}% of fabric bytes on the hottest link",
            self.fabric_concentration * 100.0
        );
        out
    }
}

/// Identify the rank behind a virtual injection/ejection link, if any.
pub fn virtual_link_rank(cfg: &SimConfig, ranks: u32, link: LinkId) -> Option<(LinkKind, Rank)> {
    let topo_links = cfg.machine.topology.num_links();
    if link.0 < topo_links {
        None
    } else if link.0 < topo_links + ranks {
        Some((LinkKind::Injection, Rank(link.0 - topo_links)))
    } else {
        Some((LinkKind::Ejection, Rank(link.0 - topo_links - ranks)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, SimConfig};
    use masim_topo::Machine;
    use masim_workloads::{generate, App, GenConfig};

    fn run(app: App) -> (SimConfig, u32, crate::runner::SimResult) {
        let machine = Machine::cielito();
        let mut gcfg = GenConfig::test_default(app, 16);
        gcfg.ranks_per_node = 1;
        let trace = generate(&gcfg);
        let cfg = SimConfig::new(machine, ModelKind::PacketFlow { packet_bytes: 8192 }, &trace);
        let r = crate::run(&trace, &cfg, crate::SimLimits::unlimited(), None)
            .expect("simulation completes");
        (cfg, trace.num_ranks(), r)
    }

    #[test]
    fn report_accounts_for_every_byte() {
        let (cfg, ranks, r) = run(App::Cg);
        let report = UtilReport::new(&cfg, ranks, &r.link_bytes, 5);
        let sum = report.fabric.bytes + report.injection.bytes + report.ejection.bytes;
        assert_eq!(sum, r.link_bytes.iter().sum::<u64>());
        assert!(report.injection.bytes > 0);
        assert!(report.ejection.bytes > 0);
        assert!(report.hottest.len() <= 5);
        assert!(report.fabric_concentration <= 1.0);
        // The result's scalar is the maximum of its own vector, and the
        // report's hottest link is that same link.
        assert_eq!(r.link_bytes.iter().copied().max(), Some(r.max_link_bytes));
        assert_eq!(report.hottest[0].2, r.max_link_bytes);
        let txt = report.to_text();
        assert!(txt.contains("fabric concentration"));
    }

    #[test]
    fn virtual_link_identification() {
        let (cfg, ranks, _r) = run(App::Ep);
        let topo_links = cfg.machine.topology.num_links();
        assert_eq!(virtual_link_rank(&cfg, ranks, LinkId(0)), None);
        assert_eq!(
            virtual_link_rank(&cfg, ranks, LinkId(topo_links + 3)),
            Some((LinkKind::Injection, Rank(3)))
        );
        assert_eq!(
            virtual_link_rank(&cfg, ranks, LinkId(topo_links + ranks + 5)),
            Some((LinkKind::Ejection, Rank(5)))
        );
    }
}
