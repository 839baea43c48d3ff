//! FNV-1a content hashing — the one hash of the workspace: segment and
//! WAL checksums, generation-cache keys, tenant→shard routing and
//! serve outcome digests all use it. Dependency-free and stable across
//! processes and platforms (unlike `DefaultHasher`, which is randomized
//! per process); the inputs are small enough that a cryptographic hash
//! would buy nothing here.

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues a 64-bit FNV-1a hash from `state` over `bytes`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
pub fn fnv1a64_extend(state: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.iter().fold(state, |hash, &b| (hash ^ u64::from(b)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn distinguishes_inputs() {
        assert_ne!(fnv1a64(b"model-a"), fnv1a64(b"model-b"));
        assert_eq!(fnv1a64(b"same"), fnv1a64(b"same"));
    }

    #[test]
    fn extending_equals_hashing_the_concatenation() {
        assert_eq!(fnv1a64_extend(fnv1a64(b"hel"), b"lo"), fnv1a64(b"hello"));
        assert_eq!(fnv1a64_extend(fnv1a64(b"x"), b""), fnv1a64(b"x"));
    }
}
