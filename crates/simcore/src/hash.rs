//! A hasher for the dense integer ids a simulation hands out itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-hashing multiplier: 2^64 divided by the golden ratio, odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A one-multiply hasher for integer ids allocated by in-process
/// counters (request, packet and burst-tag ids).
///
/// The multiplier is odd, so the low bits of consecutive ids land in
/// distinct buckets and the high bits (the table's control bytes) are
/// well mixed. It has none of SipHash's protection against keys chosen
/// to collide, so key only maps whose keys the program generates itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }
}

/// A `HashMap` keyed by program-generated ids through [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(n: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(n)
    }

    #[test]
    fn consecutive_ids_fill_distinct_low_buckets() {
        let mut seen = [false; 1024];
        for n in 0..1024 {
            let b = (hash(n) & 1023) as usize;
            assert!(!seen[b], "id {n} collided in the low bits");
            seen[b] = true;
        }
    }

    #[test]
    fn map_round_trips() {
        let mut m: IdHashMap<u64, u64> = IdHashMap::default();
        for n in 0..10_000u64 {
            m.insert(n, n * 3);
        }
        for n in (0..10_000u64).step_by(2) {
            assert_eq!(m.remove(&n), Some(n * 3));
        }
        assert_eq!(m.len(), 5_000);
        assert_eq!(m.get(&9_999), Some(&29_997));
        assert!(!m.contains_key(&0));
        let mut h = IdHasher::default();
        7u64.hash(&mut h);
        assert_eq!(h.finish(), hash(7));
    }
}
