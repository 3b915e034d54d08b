//! The one FNV-1a hasher behind every digest and fingerprint in the
//! sweep and serve reports.
//!
//! FNV-1a is not a cryptographic hash; it is here because it is tiny,
//! fixed by its two constants, and identical on every platform, so the
//! gated report bytes that carry its output stay reproducible.

use crescent_pointcloud::Neighbor;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hash in progress.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// Folds in raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds in a word as its 8 little-endian bytes.
    #[inline]
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in one frame's neighbor lists: the query count, then per
    /// query its hit count and each hit's index and exact distance bits.
    #[inline]
    pub fn neighbor_lists(&mut self, lists: &[Vec<Neighbor>]) {
        self.word(lists.len() as u64);
        for hits in lists {
            self.word(hits.len() as u64);
            for n in hits {
                self.word(n.index as u64);
                self.word(n.dist2.to_bits() as u64);
            }
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over `parts`, each followed by a newline — the spec
/// fingerprint of a report header.
pub fn fingerprint(parts: &[&str]) -> u64 {
    let mut h = Fnv1a::default();
    for part in parts {
        h.bytes(part.as_bytes());
        h.bytes(b"\n");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let mut h = Fnv1a::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_separates_its_parts() {
        assert_eq!(fingerprint(&["ab", "c"]), fingerprint(&["ab", "c"]));
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        let mut h = Fnv1a::default();
        h.bytes(b"ab\nc\n");
        assert_eq!(fingerprint(&["ab", "c"]), h.finish());
    }
}
