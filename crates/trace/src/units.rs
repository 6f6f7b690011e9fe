//! Bandwidth and byte-count units.
//!
//! The paper characterizes each machine's interconnect by two scalars:
//! link bandwidth (Gb/s) and end-to-end latency (ns). `Bandwidth` keeps
//! the exact bit-per-second figure and converts byte counts into transfer
//! times in integer picoseconds, so the Hockney model in MFACT and the
//! link arbitration in the simulator agree exactly on serialization costs.

use crate::time::Time;
use std::fmt;

/// Link or injection bandwidth, stored as bits per second.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth {
    bits_per_sec: f64,
}

impl Bandwidth {
    /// Construct from gigabits per second (the unit the paper reports).
    ///
    /// Panics on non-positive or non-finite input: a zero-bandwidth link
    /// would make every transfer time infinite and silently poison a
    /// simulation, so it is rejected at construction.
    pub fn from_gbps(gbps: f64) -> Bandwidth {
        assert!(
            gbps > 0.0 && gbps.is_finite(),
            "bandwidth must be positive and finite: {gbps} Gb/s"
        );
        Bandwidth { bits_per_sec: gbps * 1e9 }
    }

    /// Fallible construction from gigabits per second: `None` on zero,
    /// negative, or non-finite input. The panicking [`from_gbps`]
    /// remains for statically-known-good constants.
    ///
    /// [`from_gbps`]: Bandwidth::from_gbps
    pub fn try_from_gbps(gbps: f64) -> Option<Bandwidth> {
        if gbps > 0.0 && gbps.is_finite() {
            Some(Bandwidth { bits_per_sec: gbps * 1e9 })
        } else {
            None
        }
    }

    /// Bandwidth in gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.bits_per_sec / 1e9
    }

    /// Bandwidth in bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.bits_per_sec / 8.0
    }

    /// Time to serialize `bytes` onto this link (pure bandwidth term,
    /// no latency), rounded to the nearest picosecond.
    #[inline]
    pub fn transfer_time(self, bytes: u64) -> Time {
        // bytes * 8 / bits_per_sec seconds, in ps.
        let ps = (bytes as f64) * 8.0 / self.bits_per_sec * Time::PS_PER_SEC as f64;
        Time::from_ps(ps.round() as u64)
    }

    /// Scale bandwidth by a dimensionless factor (used by MFACT's
    /// bandwidth sensitivity sweep: ×8 faster … ×8 slower).
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "bandwidth scale factor must be positive: {factor}"
        );
        Bandwidth { bits_per_sec: self.bits_per_sec * factor }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gb/s", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_round_trip() {
        let bw = Bandwidth::from_gbps(10.0);
        assert!((bw.as_gbps() - 10.0).abs() < 1e-12);
        assert!((bw.bytes_per_sec() - 1.25e9).abs() < 1e-3);
    }

    #[test]
    fn transfer_time_exact_cases() {
        // 1250 bytes at 10 Gb/s = 10000 bits / 1e10 bps = 1 us.
        let bw = Bandwidth::from_gbps(10.0);
        assert_eq!(bw.transfer_time(1250), Time::from_us(1));
        // Zero bytes takes zero time.
        assert_eq!(bw.transfer_time(0), Time::ZERO);
        // One byte at 35 Gb/s: 8/35e9 s = 228.571... ps, rounds to 229.
        let bw = Bandwidth::from_gbps(35.0);
        assert_eq!(bw.transfer_time(1), Time::from_ps(229));
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let bw = Bandwidth::from_gbps(24.0);
        let t1 = bw.transfer_time(1 << 20);
        let t2 = bw.transfer_time(1 << 21);
        // Within rounding, doubling bytes doubles time.
        assert!((t2.as_ps() as i128 - 2 * t1.as_ps() as i128).abs() <= 1);
    }

    #[test]
    fn scale_changes_rate() {
        let bw = Bandwidth::from_gbps(10.0).scale(8.0);
        assert!((bw.as_gbps() - 80.0).abs() < 1e-9);
        let t_fast = bw.transfer_time(1 << 20);
        let t_slow = Bandwidth::from_gbps(10.0).transfer_time(1 << 20);
        assert!(t_fast < t_slow);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::from_gbps(0.0);
    }

    #[test]
    fn try_from_gbps_screens_input() {
        assert!(Bandwidth::try_from_gbps(10.0).is_some());
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Bandwidth::try_from_gbps(bad).is_none(), "{bad}");
        }
    }
}
