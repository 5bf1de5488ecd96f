//! A fast hash for the compiler's and the VM lowering's small keys.
//!
//! Compiling and lowering a program hash thousands of short keys —
//! variable names, node ids, opcode mnemonics — into maps that live for
//! one compile. `std`'s default SipHash guards against chosen-key
//! flooding, which buys nothing for keys a program's own names make, and
//! costs more than the lookup itself. [`FxHasher`] is rustc's
//! multiply-rotate hash ("Fx"); [`FxHashMap`] is a `HashMap` over it.
//! Nothing iterates these maps, so no output depends on their order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// rustc's multiply-rotate hasher, one word at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash(v: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_distinct_keys_apart() {
        assert_eq!(hash("_mVar12"), hash(String::from("_mVar12")));
        assert_ne!(hash("_mVar12"), hash("_mVar21"));
        assert_ne!(hash("a"), hash("ab"));
        let mut map: FxHashMap<&str, u32> = FxHashMap::default();
        map.insert("X", 1);
        map.insert("y", 2);
        assert_eq!(map.get("X"), Some(&1));
        assert_eq!(map.get("Y"), None);
    }
}
