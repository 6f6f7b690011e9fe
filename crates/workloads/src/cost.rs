//! The measured-duration stamping model.
//!
//! A DUMPI trace records how long every MPI call took *on the machine it
//! was collected on*. Our synthetic generators need to stamp an
//! equivalent duration. This module plays the role of "the real machine":
//! a Hockney α–β transport cost plus per-call software overhead and an
//! app-specific contention factor on the bandwidth term (irregular,
//! communication-intense patterns saw congested links in the original
//! runs; that is precisely the signal that separates the simulator from
//! the modeler in the paper's accuracy figures).
//!
//! This model is intentionally a *separate code path* from MFACT's
//! prediction formulas: the study compares tools against these recorded
//! times, so they must not share an implementation.

use masim_trace::{Bandwidth, CollKind, Time, A2A_BRUCK_SWITCH};

/// Stamps measured durations for one (machine, application) pairing.
#[derive(Clone, Debug)]
pub struct StampModel {
    alpha: Time,
    bandwidth: Bandwidth,
    /// Per-call software/MPI-stack overhead.
    overhead: Time,
    /// Bandwidth-term multiplier ≥ 1 for congestion the original run saw.
    contention: f64,
}

impl StampModel {
    /// Default software overhead per MPI call (library + NIC doorbell).
    pub const DEFAULT_OVERHEAD: Time = Time::from_ns(700);

    /// Build a stamp model.
    pub fn new(gbps: f64, alpha: Time, contention: f64) -> StampModel {
        assert!(contention >= 1.0, "contention factor must be >= 1, got {contention}");
        StampModel {
            alpha,
            bandwidth: Bandwidth::from_gbps(gbps),
            overhead: Self::DEFAULT_OVERHEAD,
            contention,
        }
    }

    /// The contention multiplier in effect.
    pub fn contention(&self) -> f64 {
        self.contention
    }

    /// Bandwidth (serialization) term with contention applied.
    fn transfer(&self, bytes: u64) -> Time {
        self.bandwidth.transfer_time(bytes).scale(self.contention)
    }

    /// Measured duration of a blocking send/recv of `bytes`.
    pub fn p2p(&self, bytes: u64) -> Time {
        self.overhead + self.alpha + self.transfer(bytes)
    }

    /// Measured duration of a nonblocking issue (`MPI_Isend`/`Irecv`):
    /// just the software overhead — the transfer overlaps.
    pub fn issue(&self) -> Time {
        self.overhead
    }

    /// Measured duration of a wait completing a transfer of `bytes`
    /// (residual latency + serialization not yet overlapped).
    pub fn wait(&self, bytes: u64) -> Time {
        self.overhead + self.alpha + self.transfer(bytes)
    }

    /// Measured duration of a collective over `world` ranks with
    /// per-rank payload `bytes` (total payload for `Alltoallv`).
    ///
    /// Most kinds follow the algorithm shapes MFACT's cost model assumes
    /// (binomial trees, recursive doubling, Bruck vs. pairwise
    /// all-to-all), where the recorded time differs from its prediction
    /// by per-call overhead and the contention the original run
    /// experienced. These differ by algorithm, with α the latency plus
    /// the per-call overhead:
    /// - short `Allreduce` is stamped 2·⌈log₂ p⌉·α + 2·m·β, where MFACT
    ///   charges ⌈log₂ p⌉·(α + m·β) (recursive doubling);
    /// - long `Bcast`/`Reduce` keep the tree, ⌈log₂ p⌉·(α + m·β), where
    ///   MFACT switches to scatter + allgather,
    ///   2·⌈log₂ p⌉·α + 2·m·(p − 1)/p·β;
    /// - `ReduceScatter` moves m·β and long `Allreduce` 2·m·β, where
    ///   MFACT charges (p − 1)/p of that.
    pub fn collective(&self, kind: CollKind, bytes: u64, world: u32) -> Time {
        let p = world.max(2) as u64;
        let logp = (64 - (p - 1).leading_zeros()) as u64; // ceil(log2 p)
        let a = self.alpha + self.overhead;
        match kind {
            CollKind::Barrier => a * logp,
            CollKind::Bcast => (a + self.transfer(bytes)) * logp,
            CollKind::Reduce => (a + self.transfer(bytes)) * logp,
            CollKind::Allreduce => a * (2 * logp) + self.transfer(bytes) * 2,
            CollKind::Gather | CollKind::Scatter => {
                a * logp + self.transfer(bytes.saturating_mul(p - 1))
            }
            CollKind::Allgather => a * logp + self.transfer(bytes.saturating_mul(p - 1)),
            CollKind::ReduceScatter => a * logp + self.transfer(bytes),
            CollKind::Alltoall => {
                // Bruck below the switch point, pairwise above: the same
                // split MPICH (and both tools) use.
                if bytes <= A2A_BRUCK_SWITCH {
                    a * logp + self.transfer(bytes.saturating_mul(p / 2)) * logp
                } else {
                    a * (p - 1) + self.transfer(bytes.saturating_mul(p - 1))
                }
            }
            // Pairwise exchange over the rank's total volume.
            CollKind::Alltoallv => a * (p - 1) + self.transfer(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> StampModel {
        StampModel::new(10.0, Time::from_ns(2_500), 1.0)
    }

    #[test]
    fn p2p_is_alpha_beta() {
        let m = model();
        // 1250 B at 10 Gb/s = 1 us transfer.
        let d = m.p2p(1250);
        assert_eq!(d, Time::from_ns(700) + Time::from_ns(2_500) + Time::from_us(1));
    }

    #[test]
    fn issue_is_cheap() {
        let m = model();
        assert!(m.issue() < m.p2p(0));
        assert_eq!(m.issue(), StampModel::DEFAULT_OVERHEAD);
    }

    #[test]
    fn contention_scales_bandwidth_term_only() {
        let base = model();
        let hot = StampModel::new(10.0, Time::from_ns(2_500), 2.0);
        let small = 1u64; // latency-dominated
        let large = 1 << 20; // bandwidth-dominated
        let d_small = hot.p2p(small) - base.p2p(small);
        let d_large = hot.p2p(large) - base.p2p(large);
        assert!(d_small < Time::from_ns(10), "latency term unchanged: {d_small:?}");
        assert!(d_large > Time::from_us(100), "bandwidth term doubled: {d_large:?}");
    }

    #[test]
    fn collective_shapes() {
        let m = model();
        let p = 64;
        // Barrier grows with log P, carries no payload term.
        assert!(m.collective(CollKind::Barrier, 0, p) < m.collective(CollKind::Barrier, 0, 1024));
        // Allreduce of more data costs more.
        assert!(
            m.collective(CollKind::Allreduce, 8, p) < m.collective(CollKind::Allreduce, 1 << 20, p)
        );
        // Alltoall scales with world size and switches algorithms: a
        // large-payload alltoall costs (p-1) latency rounds.
        let small_a2a = m.collective(CollKind::Alltoall, 256, p);
        let large_a2a = m.collective(CollKind::Alltoall, 64 * 1024, p);
        assert!(large_a2a > small_a2a);
        // Alltoallv uses pairwise rounds over its aggregate volume: same
        // cost as the equivalent large alltoall.
        let a2av = m.collective(CollKind::Alltoallv, 64 * 1024 * 63, p);
        assert_eq!(a2av, large_a2a);
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn sub_unit_contention_rejected() {
        let _ = StampModel::new(10.0, Time::ZERO, 0.5);
    }
}
