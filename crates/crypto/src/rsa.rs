//! RSA with PKCS#1 v1.5 signatures and Chaum's *blind* signing flow
//! (Chaum, "Blind signatures for untraceable payments", 1983).
//!
//! The blind flow is the cryptographic core of the paper's §3.1.1
//! digital-cash example: the signer computes a valid signature over a
//! message it cannot see, and cannot later link the unblinded signature to
//! the signing request.
//!
//! All modular arithmetic dispatches through the pluggable
//! [`crate::backend`] layer, and the public surface deals in validated
//! byte encodings ([`Unblinder`], [`RsaPublicKey::modulus_be`]) rather
//! than raw [`BigUint`] values, so backend internals can change without
//! breaking callers.

use crate::backend;
use crate::bigint::BigUint;
use crate::sha256::sha256;
use crate::{CryptoError, Result};
use rand::Rng;

/// ASN.1 DigestInfo prefix for SHA-256 in EMSA-PKCS1-v1_5.
const SHA256_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA private key (carries the public half).
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
}

/// Smallest modulus size this module will operate on, in bits. Matches the
/// floor [`RsaPrivateKey::generate`] enforces, so any honestly generated key
/// passes and anything smaller arriving off the wire is rejected as
/// malformed rather than fed into the arithmetic below.
const MIN_MODULUS_BITS: usize = 512;

impl RsaPublicKey {
    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Reject parameter combinations no honest keypair can produce, so the
    /// raw/blind operations below never run on degenerate inputs (`n = 0`
    /// would turn [`BigUint::random_below`] into a panic, `e < 3` makes
    /// every byte string a valid signature, an even `n` cannot be a product
    /// of two odd primes).
    fn validate(&self) -> Result<()> {
        let ok = self.n.bit_len() >= MIN_MODULUS_BITS
            && !self.n.is_even()
            && !self.e.is_even() // an even e is never invertible mod φ(n); also rejects e = 0
            && !self.e.is_one()
            && self.e < self.n;
        if ok {
            Ok(())
        } else {
            Err(CryptoError::Malformed)
        }
    }

    /// Raw RSA public operation `m^e mod n`, through the active backend.
    fn raw(&self, m: &BigUint) -> Result<BigUint> {
        if m >= &self.n {
            return Err(CryptoError::MessageTooLarge);
        }
        backend::active().modpow(m, &self.e, &self.n)
    }

    /// Minimal big-endian encoding of the modulus `n`.
    ///
    /// This is the byte surface callers should use (the raw [`BigUint`]
    /// is intentionally not exposed); feed it to
    /// [`crate::backend::Backend`]'s byte-level entry points.
    pub fn modulus_be(&self) -> Vec<u8> {
        self.n.to_bytes_be()
    }

    /// Minimal big-endian encoding of the public exponent `e`.
    pub fn exponent_be(&self) -> Vec<u8> {
        self.e.to_bytes_be()
    }

    /// Verify a PKCS#1 v1.5 SHA-256 signature over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &[u8]) -> Result<()> {
        if sig.len() != self.modulus_len() {
            return Err(CryptoError::BadSignature);
        }
        self.validate().map_err(|_| CryptoError::BadSignature)?;
        let s = BigUint::from_bytes_be(sig);
        let em = self.raw(&s).map_err(|_| CryptoError::BadSignature)?;
        let expect = emsa_pkcs1_v15(msg, self.modulus_len())?;
        let em_bytes = em
            .checked_to_bytes_be_padded(self.modulus_len())
            .ok_or(CryptoError::BadSignature)?;
        if em_bytes == expect {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Blind `msg` for signing: returns `(blinded_element, unblinder)`.
    ///
    /// The blinded element reveals nothing about `msg` to the signer
    /// (it is `em · r^e mod n` for uniformly random `r`).
    pub fn blind<R: Rng + ?Sized>(&self, rng: &mut R, msg: &[u8]) -> Result<BlindingResult> {
        // An attacker-chosen key must not be able to panic the client
        // (`random_below` on `n = 0`) or spin the retry loop forever
        // (an `n` with tiny odd part makes coprime residues scarce).
        self.validate()?;
        let k = self.modulus_len();
        let em = BigUint::from_bytes_be(&emsa_pkcs1_v15(msg, k)?);
        loop {
            let r = BigUint::random_below(rng, &self.n);
            if r.is_zero() {
                continue;
            }
            let Some(r_inv) = backend::active().modinv(&r, &self.n) else {
                continue; // gcd(r, n) != 1 — astronomically rare
            };
            let blinded = backend::active().mulmod(&em, &self.raw(&r)?, &self.n)?;
            let blinded_msg = blinded
                .checked_to_bytes_be_padded(k)
                .ok_or(CryptoError::Malformed)?;
            return Ok(BlindingResult {
                blinded_msg,
                unblinder: Unblinder(r_inv),
            });
        }
    }

    /// Unblind a signature produced over a blinded element, and verify it.
    pub fn finalize(&self, msg: &[u8], blind_sig: &[u8], unblinder: &Unblinder) -> Result<Vec<u8>> {
        let k = self.modulus_len();
        if blind_sig.len() != k {
            return Err(CryptoError::BadSignature);
        }
        self.validate().map_err(|_| CryptoError::BadSignature)?;
        let s = backend::active()
            .mulmod(&BigUint::from_bytes_be(blind_sig), &unblinder.0, &self.n)
            .map_err(|_| CryptoError::BadSignature)?;
        let sig = s
            .checked_to_bytes_be_padded(k)
            .ok_or(CryptoError::BadSignature)?;
        self.verify(msg, &sig)?;
        Ok(sig)
    }

    /// Serialize as `len(n) ‖ n ‖ e` for transport inside the simulator.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(4 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&e);
        out
    }

    /// Inverse of [`Self::to_bytes`]. Fails closed: the parsed key must
    /// re-encode to the exact input bytes (one key, one encoding) and pass
    /// the same sanity checks every other operation enforces, so a
    /// deserialized key is as usable as a generated one.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 4 {
            return Err(CryptoError::Malformed);
        }
        let n_len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if bytes.len() < 4 + n_len + 1 {
            return Err(CryptoError::Malformed);
        }
        let key = RsaPublicKey {
            n: BigUint::from_bytes_be(&bytes[4..4 + n_len]),
            e: BigUint::from_bytes_be(&bytes[4 + n_len..]),
        };
        key.validate()?;
        // Rejecting non-minimal encodings (leading zero bytes in n or e)
        // keeps the serialization injective.
        if key.to_bytes() != bytes {
            return Err(CryptoError::Malformed);
        }
        Ok(key)
    }
}

/// Output of [`RsaPublicKey::blind`].
pub struct BlindingResult {
    /// The element to send to the signer.
    pub blinded_msg: Vec<u8>,
    /// Kept secret by the client; consumed by [`RsaPublicKey::finalize`].
    pub unblinder: Unblinder,
}

/// The client-secret unblinding factor `r⁻¹ mod n`, as an opaque handle.
///
/// Replaces the raw `BigUint` the blind flow used to expose: callers that
/// need to persist it round-trip through the validated byte encoding
/// ([`Unblinder::to_bytes`] / [`Unblinder::from_bytes`]) instead of
/// reaching into backend integer internals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unblinder(BigUint);

impl Unblinder {
    /// Minimal big-endian encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes_be()
    }

    /// Inverse of [`Self::to_bytes`]. Fails closed: rejects the empty
    /// string, zero (no unblinding factor is ever zero) and non-minimal
    /// encodings, so the serialization stays injective.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let v = BigUint::from_bytes_be(bytes);
        if bytes.is_empty() || v.is_zero() || v.to_bytes_be() != bytes {
            return Err(CryptoError::Malformed);
        }
        Ok(Unblinder(v))
    }
}

impl RsaPrivateKey {
    /// Generate a fresh key with an `bits`-bit modulus. `bits` must be at
    /// least 512 (use ≥ 2048 for anything but tests and benches).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Result<Self> {
        assert!(
            bits >= 512 && bits.is_multiple_of(2),
            "modulus too small or odd size"
        );
        let e = BigUint::from_u64(65537);
        for _ in 0..64 {
            let p = BigUint::gen_prime(rng, bits / 2);
            let q = BigUint::gen_prime(rng, bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let Some(d) = backend::active().modinv(&e, &phi) else {
                continue;
            };
            return Ok(RsaPrivateKey {
                public: RsaPublicKey { n, e },
                d,
            });
        }
        Err(CryptoError::KeyGen)
    }

    /// The public half.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw RSA private operation `c^d mod n`, through the active backend.
    fn raw(&self, c: &BigUint) -> Result<BigUint> {
        if c >= &self.public.n {
            return Err(CryptoError::MessageTooLarge);
        }
        backend::active().modpow(c, &self.d, &self.public.n)
    }

    /// PKCS#1 v1.5 SHA-256 signature over `msg`.
    pub fn sign(&self, msg: &[u8]) -> Result<Vec<u8>> {
        let k = self.public.modulus_len();
        let em = BigUint::from_bytes_be(&emsa_pkcs1_v15(msg, k)?);
        Ok(self.raw(&em)?.to_bytes_be_padded(k))
    }

    /// Sign a blinded element *without learning the underlying message* —
    /// the signer-side half of the Chaum blind-signature protocol.
    pub fn blind_sign(&self, blinded_msg: &[u8]) -> Result<Vec<u8>> {
        let k = self.public.modulus_len();
        if blinded_msg.len() != k {
            return Err(CryptoError::Malformed);
        }
        let m = BigUint::from_bytes_be(blinded_msg);
        Ok(self.raw(&m)?.to_bytes_be_padded(k))
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(msg) into `k` bytes.
fn emsa_pkcs1_v15(msg: &[u8], k: usize) -> Result<Vec<u8>> {
    let h = sha256(msg);
    let t_len = SHA256_PREFIX.len() + h.len();
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLarge);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_PREFIX);
    em.extend_from_slice(&h);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn test_key() -> RsaPrivateKey {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        RsaPrivateKey::generate(&mut rng, 512).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = test_key();
        let sig = sk.sign(b"hello world").unwrap();
        sk.public_key().verify(b"hello world", &sig).unwrap();
        assert_eq!(sig.len(), sk.public_key().modulus_len());
    }

    #[test]
    fn verify_rejects_wrong_message_and_tampering() {
        let sk = test_key();
        let sig = sk.sign(b"msg-a").unwrap();
        assert!(sk.public_key().verify(b"msg-b", &sig).is_err());
        let mut bad = sig.clone();
        bad[10] ^= 1;
        assert!(sk.public_key().verify(b"msg-a", &bad).is_err());
        assert!(sk.public_key().verify(b"msg-a", &sig[1..]).is_err());
    }

    #[test]
    fn blind_signature_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(555);
        let sk = test_key();
        let pk = sk.public_key().clone();
        let msg = b"serial-number-0042";

        let blinding = pk.blind(&mut rng, msg).unwrap();
        // The signer sees only the blinded element.
        let blind_sig = sk.blind_sign(&blinding.blinded_msg).unwrap();
        let sig = pk.finalize(msg, &blind_sig, &blinding.unblinder).unwrap();
        pk.verify(msg, &sig).unwrap();
        // The unblinded signature equals an ordinary signature (RSA is
        // deterministic), yet the signer never saw `msg`.
        assert_eq!(sig, sk.sign(msg).unwrap());
    }

    #[test]
    fn blinding_is_unlinkable_in_form() {
        // Two blindings of the same message are different group elements.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pk = test_key().public_key().clone();
        let b1 = pk.blind(&mut rng, b"same message").unwrap();
        let b2 = pk.blind(&mut rng, b"same message").unwrap();
        assert_ne!(b1.blinded_msg, b2.blinded_msg);
    }

    #[test]
    fn finalize_rejects_forged_blind_sig() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sk = test_key();
        let pk = sk.public_key().clone();
        let blinding = pk.blind(&mut rng, b"real").unwrap();
        let mut forged = sk.blind_sign(&blinding.blinded_msg).unwrap();
        forged[0] ^= 0x40;
        assert!(pk.finalize(b"real", &forged, &blinding.unblinder).is_err());
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let pk = test_key().public_key().clone();
        let bytes = pk.to_bytes();
        assert_eq!(RsaPublicKey::from_bytes(&bytes).unwrap(), pk);
        assert!(RsaPublicKey::from_bytes(&bytes[..2]).is_err());
    }

    #[test]
    fn from_bytes_rejects_degenerate_keys() {
        let good = test_key().public_key().clone();

        // Truncated, empty, and zero-length-n encodings.
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
        assert!(RsaPublicKey::from_bytes(&good.to_bytes()[..6]).is_err());
        let mut zero_n = Vec::from(0u32.to_be_bytes());
        zero_n.push(3); // e = 3, n absent
        assert!(RsaPublicKey::from_bytes(&zero_n).is_err());

        let encode = |n: &BigUint, e: &BigUint| {
            RsaPublicKey {
                n: n.clone(),
                e: e.clone(),
            }
            .to_bytes()
        };
        let n = good.n.clone();
        let e = good.e.clone();

        // Even n cannot be a product of two odd primes.
        let even_n = n.add(&BigUint::one());
        let candidate = if even_n.is_even() {
            even_n
        } else {
            n.add(&BigUint::from_u64(3))
        };
        assert!(RsaPublicKey::from_bytes(&encode(&candidate, &e)).is_err());
        // e ∈ {0, 1, even, ≥ n} are all unusable or insecure.
        for bad_e in [BigUint::zero(), BigUint::one(), BigUint::from_u64(4)] {
            assert!(RsaPublicKey::from_bytes(&encode(&n, &bad_e)).is_err());
        }
        assert!(RsaPublicKey::from_bytes(&encode(&n, &n)).is_err());
        // Undersized modulus.
        assert!(RsaPublicKey::from_bytes(&encode(&BigUint::from_u64(0xffff_ffff), &e)).is_err());

        // Non-minimal encoding: same key, n left-padded with a zero byte.
        let mut padded = Vec::new();
        let n_bytes = n.to_bytes_be();
        padded.extend_from_slice(&((n_bytes.len() as u32 + 1).to_be_bytes()));
        padded.push(0);
        padded.extend_from_slice(&n_bytes);
        padded.extend_from_slice(&e.to_bytes_be());
        assert!(RsaPublicKey::from_bytes(&padded).is_err());
    }

    #[test]
    fn degenerate_key_fails_closed_not_panicking() {
        // A hand-built hostile key (n = 0) must error out of every public
        // operation instead of panicking inside the bignum layer.
        let evil = RsaPublicKey {
            n: BigUint::zero(),
            e: BigUint::from_u64(65537),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(evil.blind(&mut rng, b"msg").is_err());
        assert!(evil.verify(b"msg", &[]).is_err());
        let one = Unblinder::from_bytes(&[1]).unwrap();
        assert!(evil.finalize(b"msg", &[], &one).is_err());
    }

    #[test]
    fn unblinder_byte_roundtrip_fails_closed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let pk = test_key().public_key().clone();
        let blinding = pk.blind(&mut rng, b"coin").unwrap();
        let bytes = blinding.unblinder.to_bytes();
        assert_eq!(Unblinder::from_bytes(&bytes).unwrap(), blinding.unblinder);
        // Empty, zero, and non-minimal encodings are rejected.
        assert!(Unblinder::from_bytes(&[]).is_err());
        assert!(Unblinder::from_bytes(&[0]).is_err());
        let mut padded = vec![0u8];
        padded.extend_from_slice(&bytes);
        assert!(Unblinder::from_bytes(&padded).is_err());
    }

    #[test]
    fn byte_accessors_expose_validated_encodings() {
        let pk = test_key().public_key().clone();
        let n = pk.modulus_be();
        let e = pk.exponent_be();
        assert_eq!(n.len(), pk.modulus_len());
        assert_ne!(n[0], 0, "minimal encoding");
        assert_eq!(BigUint::from_bytes_be(&e), BigUint::from_u64(65537));
        // The byte surface composes with the backend byte entry points:
        // verifying a signature manually via modpow_bytes.
        let sk = test_key();
        let sig = sk.sign(b"abc").unwrap();
        let em = crate::backend::active().modpow_bytes(&sig, &e, &n).unwrap();
        assert_eq!(em, emsa_pkcs1_v15(b"abc", pk.modulus_len()).unwrap());
    }

    #[test]
    fn raw_rejects_oversized_input() {
        let sk = test_key();
        let k = sk.public_key().modulus_len();
        let too_big = vec![0xffu8; k];
        assert!(sk.blind_sign(&too_big).is_err());
    }
}
