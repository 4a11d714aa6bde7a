//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

use crate::chacha20::{self, NONCE_LEN};
use crate::poly1305::{Poly1305, TAG_LEN};
use crate::util::ct_eq;
use crate::{CryptoError, Result};

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
pub use crate::chacha20::NONCE_LEN as AEAD_NONCE_LEN;
pub use crate::poly1305::TAG_LEN as AEAD_TAG_LEN;

fn compute_tag(otk: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(otk);
    mac.update(aad);
    mac.update(zero_pad16(aad.len()));
    mac.update(ciphertext);
    mac.update(zero_pad16(ciphertext.len()));
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

static ZEROS: [u8; 16] = [0; 16];

/// The zeros that pad a `len`-byte input to a 16-byte boundary.
fn zero_pad16(len: usize) -> &'static [u8] {
    &ZEROS[..(16 - (len % 16)) % 16]
}

fn one_time_key(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
    let block = chacha20::block(key, nonce, 0);
    let mut otk = [0u8; 32];
    otk.copy_from_slice(&block[..32]);
    otk
}

/// Encrypt `plaintext` with associated data `aad`. Returns
/// `ciphertext ‖ 16-byte tag`.
pub fn seal(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let otk = one_time_key(key, nonce);
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    chacha20::xor_stream(key, nonce, 1, &mut out);
    let tag = compute_tag(&otk, aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Decrypt and authenticate `ciphertext ‖ tag`. Returns the plaintext, or
/// [`CryptoError::AeadOpenFailed`] on any authentication failure.
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext_and_tag: &[u8],
) -> Result<Vec<u8>> {
    if ciphertext_and_tag.len() < TAG_LEN {
        return Err(CryptoError::AeadOpenFailed);
    }
    let split = ciphertext_and_tag.len() - TAG_LEN;
    let (ct, tag) = ciphertext_and_tag.split_at(split);
    let otk = one_time_key(key, nonce);
    let expect = compute_tag(&otk, aad, ct);
    if !ct_eq(&expect, tag) {
        return Err(CryptoError::AeadOpenFailed);
    }
    Ok(chacha20::apply(key, nonce, 1, ct))
}

/// Total ciphertext expansion added by the AEAD (the tag).
pub const OVERHEAD: usize = TAG_LEN;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{hex_decode, hex_encode};

    fn rfc_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        key
    }

    #[test]
    fn rfc8439_sunscreen_vector() {
        // RFC 8439 §2.8.2.
        let key = rfc_key();
        let nonce: [u8; NONCE_LEN] = [
            0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad = hex_decode("50515253c0c1c2c3c4c5c6c7").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let out = seal(&key, &nonce, &aad, plaintext);
        let (ct, tag) = out.split_at(out.len() - TAG_LEN);
        assert_eq!(hex_encode(&ct[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
        assert_eq!(hex_encode(tag), "1ae10b594f09e26a7e902ecbd0600691");
        let back = open(&key, &nonce, &aad, &out).unwrap();
        assert_eq!(&back[..], &plaintext[..]);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [5u8; KEY_LEN];
        let nonce = [6u8; NONCE_LEN];
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = seal(&key, &nonce, b"aad", &pt);
            assert_eq!(ct.len(), len + OVERHEAD);
            assert_eq!(open(&key, &nonce, b"aad", &ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = [1u8; KEY_LEN];
        let nonce = [2u8; NONCE_LEN];
        let mut ct = seal(&key, &nonce, b"", b"secret payload");
        for i in 0..ct.len() {
            let mut bad = ct.clone();
            bad[i] ^= 0x01;
            assert!(open(&key, &nonce, b"", &bad).is_err(), "byte {i}");
        }
        // Untampered still opens.
        assert!(open(&key, &nonce, b"", &ct).is_ok());
        // Truncation rejected.
        ct.truncate(TAG_LEN - 1);
        assert!(open(&key, &nonce, b"", &ct).is_err());
    }

    #[test]
    fn wrong_aad_rejected() {
        let key = [1u8; KEY_LEN];
        let nonce = [2u8; NONCE_LEN];
        let ct = seal(&key, &nonce, b"right", b"payload");
        assert!(open(&key, &nonce, b"wrong", &ct).is_err());
    }

    #[test]
    fn wrong_key_or_nonce_rejected() {
        let key = [1u8; KEY_LEN];
        let nonce = [2u8; NONCE_LEN];
        let ct = seal(&key, &nonce, b"", b"payload");
        assert!(open(&[9u8; KEY_LEN], &nonce, b"", &ct).is_err());
        assert!(open(&key, &[9u8; NONCE_LEN], b"", &ct).is_err());
    }
}
