//! Hash maps keyed by dense simulator integers: flat row keys in the
//! wear tracker, request ids in the executor's completion routing.
//!
//! The keys are well-distributed integers no attacker controls, so one
//! odd-constant multiply with a high-to-low mix replaces the default
//! DoS-resistant SipHash on per-command hot paths.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for integer keys (see the module docs).
#[derive(Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys: FNV-1a.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }
}

/// A `HashMap` hashed with [`IntHasher`]. Keys should hash through a
/// single `write_u64` (`u64` itself, or a newtype over it such as
/// [`RequestId`](crate::request::RequestId)).
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;
