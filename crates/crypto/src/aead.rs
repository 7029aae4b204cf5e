//! Authenticated encryption (encrypt-then-MAC) for data leaving an
//! execution environment (§3.3).
//!
//! Construction: `ct = ChaCha20(enc_key, nonce, counter=1, pt)`,
//! `tag = HMAC-SHA256(mac_key, nonce || aad_len || aad || ct)`, with
//! `enc_key`/`mac_key` derived from the sealing key via HKDF so the same
//! key is never used for both purposes.

use crate::chacha20::ChaCha20;
use crate::hkdf::derive_key;
use crate::hmac::{hmac_sha256_parts, verify_tag};
use std::fmt;

/// A 256-bit sealing key.
#[derive(Clone, PartialEq, Eq)]
pub struct Key(pub [u8; 32]);

impl Key {
    /// Derives a key from arbitrary bytes (e.g. a tenant secret and a
    /// module name).
    pub fn derive(ikm: &[u8], context: &[u8]) -> Self {
        Key(derive_key(ikm, b"udc-seal", context))
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("Key(<redacted>)")
    }
}

/// A 96-bit nonce. Must be unique per (key, message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nonce(pub [u8; 12]);

impl Nonce {
    /// Builds a nonce from a message sequence number (the replay
    /// counter), which guarantees uniqueness per key when sequence
    /// numbers never repeat.
    pub fn from_sequence(seq: u64) -> Self {
        let mut n = [0u8; 12];
        n[4..].copy_from_slice(&seq.to_be_bytes());
        Nonce(n)
    }
}

/// An encrypted, integrity-protected message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBox {
    /// Nonce used for sealing.
    pub nonce: Nonce,
    /// Ciphertext.
    pub ciphertext: Vec<u8>,
    /// HMAC tag over nonce, AAD and ciphertext.
    pub tag: [u8; 32],
}

/// Errors from opening a sealed box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// The authentication tag did not verify: the ciphertext or the
    /// associated data was tampered with, or the key is wrong.
    TagMismatch,
}

impl fmt::Display for AeadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AeadError::TagMismatch => f.write_str("authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

fn subkeys(key: &Key) -> ([u8; 32], [u8; 32]) {
    let enc = derive_key(&key.0, b"udc-aead", b"enc");
    let mac = derive_key(&key.0, b"udc-aead", b"mac");
    (enc, mac)
}

fn compute_tag(mac_key: &[u8; 32], nonce: &Nonce, aad: &[u8], ct: &[u8]) -> [u8; 32] {
    let aad_len = (aad.len() as u64).to_be_bytes();
    hmac_sha256_parts(mac_key, &[&nonce.0, &aad_len, aad, ct])
}

/// Seals `plaintext` under `key` and `nonce`, binding `aad` (associated
/// data such as the destination module id) into the tag.
pub fn seal(key: &Key, nonce: Nonce, aad: &[u8], plaintext: &[u8]) -> SealedBox {
    let (enc, mac) = subkeys(key);
    let mut ct = plaintext.to_vec();
    ChaCha20::new(&enc, &nonce.0, 1).apply(&mut ct);
    let tag = compute_tag(&mac, &nonce, aad, &ct);
    SealedBox {
        nonce,
        ciphertext: ct,
        tag,
    }
}

/// Opens a sealed box, verifying the tag before decrypting.
pub fn open(key: &Key, aad: &[u8], boxed: &SealedBox) -> Result<Vec<u8>, AeadError> {
    let (enc, mac) = subkeys(key);
    let expected = compute_tag(&mac, &boxed.nonce, aad, &boxed.ciphertext);
    if !verify_tag(&expected, &boxed.tag) {
        return Err(AeadError::TagMismatch);
    }
    let mut pt = boxed.ciphertext.clone();
    ChaCha20::new(&enc, &boxed.nonce.0, 1).apply(&mut pt);
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trip() {
        let key = Key::derive(b"tenant-secret", b"S1");
        let boxed = seal(&key, Nonce::from_sequence(1), b"aad", b"medical record");
        let pt = open(&key, b"aad", &boxed).unwrap();
        assert_eq!(pt, b"medical record");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = Key::derive(b"k", b"c");
        let mut boxed = seal(&key, Nonce::from_sequence(2), b"", b"data");
        boxed.ciphertext[0] ^= 1;
        assert_eq!(open(&key, b"", &boxed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn tampered_tag_rejected() {
        let key = Key::derive(b"k", b"c");
        let mut boxed = seal(&key, Nonce::from_sequence(3), b"", b"data");
        boxed.tag[5] ^= 0xff;
        assert_eq!(open(&key, b"", &boxed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn wrong_aad_rejected() {
        let key = Key::derive(b"k", b"c");
        let boxed = seal(&key, Nonce::from_sequence(4), b"to:A3", b"data");
        assert_eq!(open(&key, b"to:A4", &boxed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = Key::derive(b"k1", b"c");
        let k2 = Key::derive(b"k2", b"c");
        let boxed = seal(&k1, Nonce::from_sequence(5), b"", b"data");
        assert_eq!(open(&k2, b"", &boxed), Err(AeadError::TagMismatch));
    }

    #[test]
    fn empty_plaintext_ok() {
        let key = Key::derive(b"k", b"c");
        let boxed = seal(&key, Nonce::from_sequence(6), b"", b"");
        assert_eq!(open(&key, b"", &boxed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn nonce_from_sequence_unique() {
        assert_ne!(Nonce::from_sequence(1), Nonce::from_sequence(2));
        assert_eq!(Nonce::from_sequence(7), Nonce::from_sequence(7));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let key = Key::derive(b"k", b"c");
        let boxed = seal(&key, Nonce::from_sequence(8), b"", b"visible text!");
        assert_ne!(boxed.ciphertext.as_slice(), b"visible text!".as_slice());
    }

    #[test]
    fn key_debug_redacts() {
        let key = Key::derive(b"super-secret", b"c");
        assert_eq!(format!("{key:?}"), "Key(<redacted>)");
    }
}
