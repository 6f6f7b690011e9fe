//! Deterministic integer hashing for hot-path maps.
//!
//! The route index is keyed by node pairs and never iterated, so the
//! default SipHash — a keyed DoS-resistant hash costing tens of
//! nanoseconds per lookup — buys nothing. This multiplicative hasher is a single
//! `xor`+`mul` per word, and being unseeded it also keeps map-internal
//! ordering identical from run to run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` specialised to the multiplicative integer hasher.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Fibonacci-style multiplicative hasher (the rustc-hash recipe):
/// fold each word in with xor, then multiply by a 64-bit odd constant
/// so low-entropy keys spread across the high bits hashbrown uses.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreading() {
        let mut m: IntMap<(u32, u32), u32> = IntMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 2), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i * 2)), Some(&i));
        }
        // Unseeded: two maps built the same way agree bit-for-bit on
        // internal order (observable through iteration).
        let m2: IntMap<(u32, u32), u32> = (0..1000u32).map(|i| ((i, i * 2), i)).collect();
        assert!(m.iter().zip(m2.iter()).all(|(a, b)| a == b));
    }
}
