//! HKDF-style key derivation (RFC 5869 extract-and-expand, SHA-256),
//! used to derive per-module and per-purpose keys from a tenant master
//! key so that each fine-grained module gets independent key material.

use crate::hmac::{hmac_sha256, hmac_sha256_parts};

/// Derives a 32-byte key from `ikm` (input keying material), an optional
/// `salt`, and a context `info` string.
///
/// Implements HKDF-Extract followed by a single HKDF-Expand block, which
/// suffices for 32-byte outputs.
pub fn derive_key(ikm: &[u8], salt: &[u8], info: &[u8]) -> [u8; 32] {
    let prk = hmac_sha256(salt, ikm);
    // Expand: T(1) = HMAC(PRK, info || 0x01).
    hmac_sha256_parts(&prk, &[info, &[0x01]])
}

/// Derives `n` independent 32-byte keys using full HKDF-Expand chaining.
pub fn derive_keys(ikm: &[u8], salt: &[u8], info: &[u8], n: usize) -> Vec<[u8; 32]> {
    assert!(n <= 255, "HKDF-Expand supports at most 255 blocks");
    let prk = hmac_sha256(salt, ikm);
    let mut out = Vec::with_capacity(n);
    // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
    for i in 1..=n {
        let prev: &[u8] = out.last().map_or(&[], |t: &[u8; 32]| t);
        let t = hmac_sha256_parts(&prk, &[prev, info, &[i as u8]]);
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 5869 test case 1 (all 42 bytes of OKM, across two blocks).
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = derive_key(&ikm, &salt, &info);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        );
        // OKM bytes 32..42 come from T(2) = HMAC(PRK, T(1) || info || 0x02).
        let blocks = derive_keys(&ikm, &salt, &info, 2);
        assert_eq!(blocks[0], okm);
        assert_eq!(hex(&blocks[1][..10]), "34007208d5b887185865");
    }

    #[test]
    fn derive_keys_first_block_matches_derive_key() {
        let keys = derive_keys(b"master", b"salt", b"ctx", 3);
        assert_eq!(keys[0], derive_key(b"master", b"salt", b"ctx"));
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn distinct_info_distinct_keys() {
        let a = derive_key(b"ikm", b"s", b"module-A1");
        let b = derive_key(b"ikm", b"s", b"module-A2");
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic() {
        assert_eq!(derive_key(b"x", b"y", b"z"), derive_key(b"x", b"y", b"z"));
    }

    #[test]
    #[should_panic(expected = "255")]
    fn too_many_blocks_panics() {
        derive_keys(b"x", b"y", b"z", 256);
    }
}
