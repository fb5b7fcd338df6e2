//! Hash maps and sets keyed by word, block or page addresses.
//!
//! Two users remain: the backing memory's page table, keyed by page
//! number and hashed once per block transfer, and the HARP scheme's set
//! of written word addresses. (Tavg needs no map: it keeps one stamp
//! per cache slot, see [`hierarchy`](crate::hierarchy).) Both hash the
//! addresses of simulated traffic, where SipHash's cost would show on
//! every transfer; [`WordKeyHasher`] replaces it with a single
//! multiply + xor-shift. A trace crafted to make its addresses collide
//! can only slow a simulation down: only the maps' bucketing depends on
//! the hasher, so swapping it cannot change any statistic.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `u64`-keyed map hashed with [`WordKeyHasher`].
pub type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordKeyHasher>>;

/// A set of `u64` addresses hashed with [`WordKeyHasher`].
pub type WordSet = HashSet<u64, BuildHasherDefault<WordKeyHasher>>;

/// A multiply-mix hasher for `u64` address keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordKeyHasher(u64);

impl Hasher for WordKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed (via `write_u64`); a generic
        // byte path would be dead code on these maps.
        debug_assert!(bytes.len() == 8, "WordKeyHasher hashes u64 keys only");
        let mut buf = [0u8; 8];
        buf[..bytes.len().min(8)].copy_from_slice(&bytes[..bytes.len().min(8)]);
        self.write_u64(u64::from_le_bytes(buf));
    }

    fn write_u64(&mut self, key: u64) {
        let mut h = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
