//! A keyed hasher for small integer keys.
//!
//! The hot maps of the stack — the medium's link cache and spatial
//! index, a gateway's `(device, seq)` dedup set, the aggregator's device
//! table — are keyed by a few integers. std's default SipHash-1-3 costs
//! more than the lookup it guards on such keys. [`KeyedState`] hashes
//! each integer word with one multiply-rotate step and finishes with a
//! 64-bit avalanche, which is several times cheaper.
//!
//! It stays **keyed**: the starting state and the finishing key are
//! drawn once per process from std's [`RandomState`], so they differ
//! from run to run and are never a compile-time constant. Some of these
//! keys come off the air or a socket (`wile-gatewayd` feeds device ids
//! and sequence numbers from the wire into the dedup sets), and a
//! fixed-key hash would let a sender precompute keys that all land in
//! one bucket and turn every lookup into a linear scan (hash flooding).
//!
//! Because the key differs between processes, so does map iteration
//! order. Nothing that reaches a report or a digest may depend on it:
//! every such walk sorts first, as it already had to under
//! `RandomState`.
//!
//! ```
//! use wile_radio::hash::KeyedSet;
//!
//! let mut seen: KeyedSet<(u32, u16)> = KeyedSet::default();
//! assert!(seen.insert((7, 1)));
//! assert!(!seen.insert((7, 1)));
//! ```

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`HashMap`] hashed with the process-keyed [`KeyedState`].
pub type KeyedMap<K, V> = HashMap<K, V, KeyedState>;

/// A [`HashSet`] hashed with the process-keyed [`KeyedState`].
pub type KeyedSet<T> = HashSet<T, KeyedState>;

/// Odd multiplier of the per-word mix (2⁶⁴ / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The process key: drawn from [`RandomState`] on first use.
fn process_key() -> (u64, u64) {
    static KEY: OnceLock<(u64, u64)> = OnceLock::new();
    *KEY.get_or_init(|| {
        let s = RandomState::new();
        (s.hash_one(0x6B30_u64), s.hash_one(0x6B31_u64))
    })
}

/// Builds [`KeyedHasher`]s from the process key. Every instance in one
/// process carries the same key, so building one is two loads.
#[derive(Debug, Clone, Copy)]
pub struct KeyedState {
    k0: u64,
    k1: u64,
}

impl KeyedState {
    /// A state carrying the process key.
    pub fn new() -> Self {
        let (k0, k1) = process_key();
        KeyedState { k0, k1 }
    }
}

impl Default for KeyedState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            h: self.k0,
            k1: self.k1,
        }
    }
}

/// The hasher [`KeyedState`] builds: one multiply-rotate step per
/// integer word written, a keyed avalanche on [`Hasher::finish`].
#[derive(Debug, Clone)]
pub struct KeyedHasher {
    h: u64,
    k1: u64,
}

impl KeyedHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.h = (self.h ^ word).wrapping_mul(MIX).rotate_left(29);
    }
}

impl Hasher for KeyedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(w));
        }
        // The length keeps a zero-padded tail distinct from real zeros.
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // MurmurHash3's fmix64 over the state and the second key: every
        // input bit reaches every output bit, which the table's
        // bucket-index (low) and tag (high) bits both rely on.
        let mut x = self.h ^ self.k1;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        x ^ (x >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash<T: Hash>(s: &KeyedState, v: T) -> u64 {
        s.hash_one(v)
    }

    #[test]
    fn one_key_per_process() {
        let (a, b) = (KeyedState::new(), KeyedState::default());
        assert_eq!(hash(&a, (7u32, 9u16)), hash(&b, (7u32, 9u16)));
    }

    #[test]
    fn the_key_is_not_a_constant() {
        // An unkeyed build of the same mix must disagree with the
        // process key on ordinary inputs.
        let zero = KeyedState { k0: 0, k1: 0 };
        let s = KeyedState::new();
        assert!((0..16u32).any(|i| hash(&s, i) != hash(&zero, i)));
    }

    #[test]
    fn tuple_fields_do_not_commute() {
        let s = KeyedState::new();
        assert_ne!(hash(&s, (1u32, 2u32)), hash(&s, (2u32, 1u32)));
        assert_ne!(hash(&s, (0u8, 1i32, 0i32)), hash(&s, (0u8, 0i32, 1i32)));
    }

    #[test]
    fn byte_tails_are_length_tagged() {
        let s = KeyedState::new();
        let h = |b: &[u8]| {
            let mut st = s.build_hasher();
            st.write(b);
            st.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(&[0u8; 8]), h(&[0u8; 16]));
    }

    #[test]
    fn dense_integer_keys_spread_over_buckets() {
        // 4096 consecutive (device, seq) keys into 256 buckets by the
        // low byte: no bucket may hold more than 4× its fair share.
        let s = KeyedState::new();
        let mut buckets = [0u32; 256];
        for dev in 0..64u32 {
            for seq in 0..64u16 {
                buckets[(hash(&s, (dev, seq)) & 0xFF) as usize] += 1;
            }
        }
        assert!(buckets.iter().all(|&n| n <= 64), "{buckets:?}");
    }
}
