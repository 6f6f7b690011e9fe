//! MFACT's analytic communication cost models.
//!
//! Point-to-point communication follows Hockney's model: a message of
//! `m` bytes costs `α + m·β`, where `α` is the end-to-end latency and
//! `β` the inverse bandwidth. Collectives follow Thakur & Gropp's cost
//! models for the standard MPICH algorithms (binomial trees, recursive
//! doubling, Rabenseifner, Bruck, pairwise exchange), with the usual
//! small/large-message algorithm switches.
//!
//! Every cost is returned split into its latency part and its bandwidth
//! part, because MFACT tracks them in separate logical counters to drive
//! classification.
//!
//! A collective is one synchronizing step: every rank leaves at the last
//! arrival plus its closed form. As a modeling choice, a world size that
//! is not a power of two is charged ⌈log₂ p⌉ rounds and no fold rounds,
//! and a tree's leaves do not finish early. The simulator runs the
//! lowered algorithm (`masim_sim::lower`), which folds the remainder
//! ranks in and overlaps the rounds; `tests/oracles.rs` states the gap at
//! p = 3. The alternatives cost more than they buy (EXPERIMENTS.md):
//! replaying the lowered rounds took MFACT's corpus sweep from 2.0–2.5 s
//! to 5.7–6.8 s, and charging the same plan in lock-step moved the
//! no-network DIFF p90 from 2.1–2.8 % to 5.6–5.8 %. The study reports the
//! collective share of a DIFF as a modeling artefact.

use masim_topo::NetworkConfig;
use masim_trace::{CollKind, Time, A2A_BRUCK_SWITCH, LONG_MSG_SWITCH};

/// A communication cost split into MFACT's two counter categories.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CommCost {
    /// Latency (α) portion.
    pub latency: Time,
    /// Bandwidth (serialization, m·β) portion.
    pub bandwidth: Time,
}

impl CommCost {
    /// Total of both portions.
    pub fn total(self) -> Time {
        self.latency + self.bandwidth
    }
}

/// Hockney point-to-point cost: `α + m·β`.
pub fn p2p(net: &NetworkConfig, bytes: u64) -> CommCost {
    CommCost { latency: net.latency, bandwidth: net.bandwidth.transfer_time(bytes) }
}

/// Ceil(log2(p)), with `log2(1) = 0`.
fn ceil_log2(p: u64) -> u64 {
    if p <= 1 {
        0
    } else {
        64 - (p - 1).leading_zeros() as u64
    }
}

/// Thakur–Gropp cost of a collective over `world` ranks with per-rank
/// payload `bytes` (total send volume for `Alltoallv`).
pub fn collective(net: &NetworkConfig, kind: CollKind, bytes: u64, world: u32) -> CommCost {
    let p = world.max(1) as u64;
    let logp = ceil_log2(p);
    let alpha = net.latency;
    let xfer = |b: u64| net.bandwidth.transfer_time(b);
    match kind {
        // Dissemination barrier: ⌈log2 p⌉ rounds of α.
        CollKind::Barrier => CommCost { latency: alpha * logp, bandwidth: Time::ZERO },
        // Binomial tree for short messages; scatter + allgather
        // (van de Geijn) for long ones.
        CollKind::Bcast | CollKind::Reduce => {
            if bytes <= LONG_MSG_SWITCH {
                CommCost { latency: alpha * logp, bandwidth: xfer(bytes) * logp }
            } else {
                CommCost { latency: alpha * (2 * logp), bandwidth: xfer(2 * bytes * (p - 1) / p) }
            }
        }
        // Recursive doubling (short) / Rabenseifner (long).
        CollKind::Allreduce => {
            if bytes <= LONG_MSG_SWITCH {
                CommCost { latency: alpha * logp, bandwidth: xfer(bytes) * logp }
            } else {
                CommCost { latency: alpha * (2 * logp), bandwidth: xfer(2 * bytes * (p - 1) / p) }
            }
        }
        // Binomial gather/scatter: log rounds, root moves (p-1)·m bytes.
        CollKind::Gather | CollKind::Scatter => {
            CommCost { latency: alpha * logp, bandwidth: xfer(bytes * (p - 1)) }
        }
        // Recursive-doubling allgather: log rounds, (p-1)·m bytes in.
        CollKind::Allgather => CommCost { latency: alpha * logp, bandwidth: xfer(bytes * (p - 1)) },
        // Pairwise-exchange reduce-scatter.
        CollKind::ReduceScatter => {
            CommCost { latency: alpha * logp, bandwidth: xfer(bytes * (p - 1) / p) }
        }
        // Bruck (short): log rounds moving p·m/2 each; pairwise (long):
        // p-1 rounds of m each.
        CollKind::Alltoall => {
            if bytes <= A2A_BRUCK_SWITCH {
                CommCost { latency: alpha * logp, bandwidth: xfer(bytes * p / 2) * logp }
            } else {
                CommCost { latency: alpha * (p - 1), bandwidth: xfer(bytes * (p - 1)) }
            }
        }
        // Alltoallv: pairwise over the rank's total send volume.
        CollKind::Alltoallv => CommCost { latency: alpha * (p - 1), bandwidth: xfer(bytes) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkConfig {
        NetworkConfig::new(10.0, 2_500) // 10 Gb/s, 2.5 us
    }

    #[test]
    fn hockney_matches_hand_computation() {
        let c = p2p(&net(), 1250); // 1250 B = 1 us at 10 Gb/s
        assert_eq!(c.latency, Time::from_ns(2_500));
        assert_eq!(c.bandwidth, Time::from_us(1));
        assert_eq!(c.total(), Time::from_ns(3_500));
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn barrier_is_pure_latency() {
        let c = collective(&net(), CollKind::Barrier, 0, 64);
        assert_eq!(c.latency, Time::from_ns(2_500) * 6);
        assert_eq!(c.bandwidth, Time::ZERO);
    }

    #[test]
    fn bcast_switches_algorithms() {
        let n = net();
        // Short: binomial → bandwidth term scales with log p.
        let short = collective(&n, CollKind::Bcast, 1024, 64);
        assert_eq!(short.bandwidth, n.bandwidth.transfer_time(1024) * 6);
        // Long: scatter-allgather → ~2m bytes regardless of p.
        let long = collective(&n, CollKind::Bcast, 1 << 20, 64);
        let expect = n.bandwidth.transfer_time(2 * (1 << 20) * 63 / 64);
        assert_eq!(long.bandwidth, expect);
        assert_eq!(long.latency, n.latency * 12);
    }

    #[test]
    fn allreduce_long_beats_naive_tree() {
        let n = net();
        let m = 1 << 20;
        let rabenseifner = collective(&n, CollKind::Allreduce, m, 256);
        // Naive recursive doubling would cost log p × m·β = 8 × m·β;
        // Rabenseifner costs ~2 m·β.
        let naive_bw = n.bandwidth.transfer_time(m) * 8;
        assert!(rabenseifner.bandwidth < naive_bw);
    }

    #[test]
    fn alltoall_bruck_vs_pairwise() {
        let n = net();
        let p = 64;
        let small = collective(&n, CollKind::Alltoall, 512, p);
        // Bruck: log p latency rounds.
        assert_eq!(small.latency, n.latency * 6);
        let large = collective(&n, CollKind::Alltoall, 64 * 1024, p);
        // Pairwise: p-1 latency rounds and (p-1)·m bytes.
        assert_eq!(large.latency, n.latency * 63);
        assert_eq!(large.bandwidth, n.bandwidth.transfer_time(63 * 64 * 1024));
    }

    #[test]
    fn alltoallv_uses_total_volume() {
        let n = net();
        let c = collective(&n, CollKind::Alltoallv, 1 << 20, 16);
        assert_eq!(c.bandwidth, n.bandwidth.transfer_time(1 << 20));
        assert_eq!(c.latency, n.latency * 15);
    }

    #[test]
    fn degenerate_world_sizes() {
        let n = net();
        for kind in CollKind::ALL {
            let c = collective(&n, kind, 4096, 1);
            // One rank: no latency rounds blow-up, no panic.
            assert!(c.latency <= n.latency, "{kind}: {:?}", c.latency);
        }
    }

    #[test]
    fn costs_scale_with_network() {
        let slow = NetworkConfig::new(10.0, 2_500);
        let fast = slow.scaled(8.0, 1.0);
        for kind in [CollKind::Allreduce, CollKind::Alltoall, CollKind::Bcast] {
            let cs = collective(&slow, kind, 1 << 16, 64);
            let cf = collective(&fast, kind, 1 << 16, 64);
            assert!(cf.bandwidth < cs.bandwidth, "{kind}");
            assert_eq!(cf.latency, cs.latency, "{kind}");
        }
    }
}
