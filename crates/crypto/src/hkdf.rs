//! HKDF-SHA256 (RFC 5869): extract-then-expand key derivation.
//!
//! Keys are absorbed once. [`expand`] keys its PRK as one
//! [`HmacSha256`] and clones it for each 32-byte output block. A caller
//! that expands one PRK under several `info`s keys it once itself and
//! calls [`expand_keyed`] for each; that `info` comes in parts, fed in
//! order, so the caller need not concatenate it. Extracting with an
//! empty salt clones a MAC keyed once per process.

use std::sync::OnceLock;

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// The RFC 5869 bound on one expansion's output, 255 blocks.
const MAX_OKM_LEN: usize = 255 * DIGEST_LEN;

/// `HKDF-Extract(salt, ikm)` → 32-byte pseudorandom key.
///
/// An empty `salt` is treated as 32 zero bytes, per RFC 5869.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = extractor(salt);
    mac.update(ikm);
    mac.finalize()
}

/// The MAC that [`extract`] runs over its `ikm`: keyed with `salt`, or,
/// for an empty salt, a clone of the one keyed with 32 zero bytes.
pub(crate) fn extractor(salt: &[u8]) -> HmacSha256 {
    static ZERO_SALT: OnceLock<HmacSha256> = OnceLock::new();
    if salt.is_empty() {
        ZERO_SALT
            .get_or_init(|| HmacSha256::new(&[0u8; DIGEST_LEN]))
            .clone()
    } else {
        HmacSha256::new(salt)
    }
}

/// `HKDF-Expand(prk, info, len)` → `len` bytes of output keying material.
///
/// Panics if `len > 255 * 32` (the RFC 5869 bound).
pub fn expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= MAX_OKM_LEN, "HKDF-Expand output too long");
    let mut okm = vec![0u8; len];
    expand_keyed(&HmacSha256::new(prk), &[info], &mut okm);
    okm
}

/// `HKDF-Expand` into `okm`, for a PRK already keyed as `prk`
/// (`HmacSha256::new(prk)`), with `info` given as parts that are fed in
/// order, as if concatenated. Fills all of `okm`.
///
/// Panics if `okm` is longer than 255 * 32 bytes (the RFC 5869 bound).
pub fn expand_keyed(prk: &HmacSha256, info: &[&[u8]], okm: &mut [u8]) {
    assert!(okm.len() <= MAX_OKM_LEN, "HKDF-Expand output too long");
    let mut t = [0u8; DIGEST_LEN];
    for (block, counter) in okm.chunks_mut(DIGEST_LEN).zip(1u8..=255) {
        let mut m = prk.clone();
        if counter > 1 {
            m.update(&t);
        }
        for part in info {
            m.update(part);
        }
        m.update(&[counter]);
        t = m.finalize();
        block.copy_from_slice(&t[..block.len()]);
    }
}

/// Extract-then-expand in one call.
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    expand(&extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{hex_decode, hex_encode};

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = hex_decode("000102030405060708090a0b0c").unwrap();
        let info = hex_decode("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex_encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand(&prk, &info, 42);
        assert_eq!(
            hex_encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_info() {
        let ikm = [0x0bu8; 22];
        let prk = extract(&[], &ikm);
        let okm = expand(&prk, &[], 42);
        assert_eq!(
            hex_encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_lengths() {
        let prk = extract(b"salt", b"ikm");
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            let okm = expand(&prk, b"info", len);
            assert_eq!(okm.len(), len);
            // Prefix property: a longer expansion starts with the shorter one.
            let longer = expand(&prk, b"info", len + 7);
            assert_eq!(&longer[..len], &okm[..]);
        }
    }

    #[test]
    fn keyed_expand_matches_expand() {
        // RFC 5869 cases 1 and 3, `info` split into parts at every
        // boundary kind: empty head, middle, empty tail.
        let cases = [
            (
                hex_decode("000102030405060708090a0b0c").unwrap(),
                hex_decode("f0f1f2f3f4f5f6f7f8f9").unwrap(),
            ),
            (Vec::new(), Vec::new()),
        ];
        for (salt, info) in cases {
            let prk = extract(&salt, &[0x0bu8; 22]);
            let keyed = HmacSha256::new(&prk);
            for len in [0usize, 1, 31, 32, 33, 42, 64, 8160] {
                let want = expand(&prk, &info, len);
                for split in [0, info.len() / 2, info.len()] {
                    let (head, tail) = info.split_at(split);
                    let mut okm = vec![0u8; len];
                    expand_keyed(&keyed, &[head, tail], &mut okm);
                    assert_eq!(okm, want, "len {len}, split {split}");
                }
            }
        }
    }

    #[test]
    fn different_info_different_output() {
        let prk = extract(b"salt", b"ikm");
        assert_ne!(expand(&prk, b"a", 32), expand(&prk, b"b", 32));
    }

    #[test]
    #[should_panic]
    fn expand_too_long_panics() {
        let prk = extract(b"s", b"i");
        let _ = expand(&prk, b"", 255 * 32 + 1);
    }
}
