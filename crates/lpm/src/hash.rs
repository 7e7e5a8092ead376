//! A multiplicative hasher for the integer-keyed maps on the first-packet
//! path (BSPL's per-length tables, the DAG's exact-match edges and filter
//! registry).
//!
//! Their keys are installed prefixes, port/protocol labels and filter
//! ids — written by the operator, never taken from packets — so the
//! collision resistance SipHash buys is not needed, and a 3-gate
//! classification miss makes ~20 such probes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by operator-installed integers, hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Fibonacci-multiplicative hasher; one multiply per 64-bit word.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for IntHasher {
    /// A product's low bits depend only on the key's low bits, which are
    /// all zero for a masked prefix; fold the well-mixed high half down so
    /// both the bucket index (low bits) and the control byte (top bits)
    /// vary.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v.into());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash<T: std::hash::Hash>(v: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(v)
    }

    #[test]
    fn masked_prefixes_spread_over_low_and_high_bits() {
        // /8 keys differ only in their top byte; a 64-bucket table looks
        // at the low 6 bits and the control byte at the top 7.
        let mut low = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for i in 0..256u32 {
            let h = hash(i << 24);
            low.insert(h & 63);
            high.insert(h >> 57);
        }
        assert!(low.len() >= 48, "low bits collapse: {}", low.len());
        assert!(high.len() >= 96, "high bits collapse: {}", high.len());
    }

    #[test]
    fn wide_keys_use_both_halves() {
        assert_ne!(hash(1u128), hash(1u128 << 64));
        assert_ne!(hash(1u128 << 64), hash(2u128 << 64));
        assert_ne!(hash([1u8, 2, 3].as_slice()), hash([1u8, 2, 4].as_slice()));
    }
}
