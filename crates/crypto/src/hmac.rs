//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! A keyed [`HmacSha256`] has already absorbed both pad blocks, the key
//! XOR ipad into the inner hash and the key XOR opad into the outer one.
//! Clone it once per message to MAC many messages under one key: each
//! clone then costs the message's own compressions plus one for the
//! outer hash, not the two pad blocks again. [`crate::hkdf`] keys its
//! PRK this way once for all its output blocks.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA256, keyed by [`HmacSha256::new`]; clone a keyed
/// MAC to reuse its key.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Create a MAC keyed with `key` (any length; long keys are hashed).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let (mut inner, mut outer) = (Sha256::new(), Sha256::new());
        inner.update(&ipad);
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    /// Finish, returning the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut m = HmacSha256::new(key);
    m.update(data);
    m.finalize()
}

/// Verify a tag in constant time.
pub fn hmac_verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
    crate::util::ct_eq(&hmac_sha256(key, data), tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::hex_encode;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex_encode(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex_encode(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex_encode(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // Keys longer than the block size must be pre-hashed; check that two
        // different representations of the same effective key agree.
        let long_key = [0xaau8; 131];
        let hashed = crate::sha256::sha256(&long_key);
        assert_eq!(hmac_sha256(&long_key, b"msg"), hmac_sha256(&hashed, b"msg"));
    }

    #[test]
    fn keyed_clones_are_independent() {
        // One keyed MAC per RFC 4231 key, cloned three times: every clone
        // gives the case's tag.
        for (key, data, tag) in [
            (
                &[0x0bu8; 20][..],
                &b"Hi There"[..],
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
        ] {
            let keyed = HmacSha256::new(key);
            for _ in 0..3 {
                let mut m = keyed.clone();
                m.update(data);
                assert_eq!(hex_encode(&m.finalize()), tag);
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut m = HmacSha256::new(b"key");
        m.update(b"part one ");
        m.update(b"part two");
        assert_eq!(m.finalize(), hmac_sha256(b"key", b"part one part two"));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(hmac_verify(b"k", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!hmac_verify(b"k", b"m", &bad));
        assert!(!hmac_verify(b"k", b"m", &tag[..31]));
    }
}
