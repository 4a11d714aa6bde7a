//! Hybrid Public Key Encryption (RFC 9180), the cipher suite
//! DHKEM(X25519, HKDF-SHA256) + HKDF-SHA256 + ChaCha20-Poly1305.
//!
//! HPKE is the confidentiality workhorse of every decoupled system in this
//! workspace: ODoH query encapsulation, mix-net onion layers, Multi-Party
//! Relay inner tunnels, and PPM report sharing all seal to a recipient
//! public key through untrusted intermediaries.
//!
//! Base and PSK modes are implemented; the single-shot helpers cover the
//! common "one sealed message" pattern.
//!
//! Senders name the recipient by a [`Recipient`]: its raw 32-byte public
//! key, or the same key as an [`x25519::PreparedKey`] when it will see
//! many encapsulations. Both give the same bytes from the same RNG.

use crate::aead;
use crate::hkdf;
use crate::hmac::HmacSha256;
use crate::x25519;
use crate::{CryptoError, Result};
use rand::Rng;

/// KEM identifier: DHKEM(X25519, HKDF-SHA256).
pub const KEM_ID: u16 = 0x0020;
/// KDF identifier: HKDF-SHA256.
pub const KDF_ID: u16 = 0x0001;
/// AEAD identifier: ChaCha20-Poly1305.
pub const AEAD_ID: u16 = 0x0003;

/// Length of an encapsulated key.
pub const ENC_LEN: usize = 32;
/// AEAD key length.
const NK: usize = 32;
/// AEAD nonce length.
const NN: usize = 12;
/// KDF output length.
const NH: usize = 32;

const MODE_BASE: u8 = 0x00;
const MODE_PSK: u8 = 0x01;

/// `"KEM" ‖ I2OSP(kem_id, 2)`.
const KEM_SUITE_ID: [u8; 5] = {
    let k = KEM_ID.to_be_bytes();
    [b'K', b'E', b'M', k[0], k[1]]
};

/// `"HPKE" ‖ I2OSP(kem_id, 2) ‖ I2OSP(kdf_id, 2) ‖ I2OSP(aead_id, 2)`.
const HPKE_SUITE_ID: [u8; 10] = {
    let (k, f, a) = (
        KEM_ID.to_be_bytes(),
        KDF_ID.to_be_bytes(),
        AEAD_ID.to_be_bytes(),
    );
    [b'H', b'P', b'K', b'E', k[0], k[1], f[0], f[1], a[0], a[1]]
};

/// `LabeledExtract(salt, label, ikm)`: the labelled input is fed to the
/// extractor in parts.
fn labeled_extract(suite_id: &[u8], salt: &[u8], label: &[u8], ikm: &[u8]) -> [u8; NH] {
    let mut mac = hkdf::extractor(salt);
    mac.update(b"HPKE-v1")
        .update(suite_id)
        .update(label)
        .update(ikm);
    mac.finalize()
}

/// `LabeledExpand(prk, label, info, out.len())` into `out`, with the PRK
/// already keyed as `prk` and the labelled info fed in parts.
fn labeled_expand(suite_id: &[u8], prk: &HmacSha256, label: &[u8], info: &[u8], out: &mut [u8]) {
    let len = u16::try_from(out.len())
        .expect("HKDF-Expand output too long")
        .to_be_bytes();
    hkdf::expand_keyed(prk, &[&len, b"HPKE-v1", suite_id, label, info], out);
}

/// An HPKE recipient keypair.
#[derive(Clone)]
pub struct Keypair {
    /// Private X25519 scalar.
    pub private: [u8; 32],
    /// Public X25519 point.
    pub public: [u8; 32],
}

impl Keypair {
    /// Generate a fresh keypair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let (private, public) = x25519::keypair(rng);
        Keypair { private, public }
    }
}

/// DHKEM shared-secret derivation (Encap/Decap common part), with
/// `kem_context = enc ‖ pk_r`.
fn extract_and_expand(dh: &[u8; 32], enc: &[u8; ENC_LEN], pk_r: &[u8; 32]) -> [u8; 32] {
    let eae_prk = labeled_extract(&KEM_SUITE_ID, b"", b"eae_prk", dh);
    let mut kem_context = [0u8; ENC_LEN + 32];
    kem_context[..ENC_LEN].copy_from_slice(enc);
    kem_context[ENC_LEN..].copy_from_slice(pk_r);
    let mut shared_secret = [0u8; 32];
    labeled_expand(
        &KEM_SUITE_ID,
        &HmacSha256::new(&eae_prk),
        b"shared_secret",
        &kem_context,
        &mut shared_secret,
    );
    shared_secret
}

/// A recipient public key that a sender can encapsulate to: a raw
/// `[u8; 32]`, whose shared secret runs the Montgomery ladder, or an
/// [`x25519::PreparedKey`], whose shared secret runs the comb over the
/// key's table. Sealed: the two are byte-identical, and no third kind
/// exists.
pub trait Recipient: sealed::Sealed {
    /// The public key, as the KEM context binds it.
    fn public_key(&self) -> &[u8; 32];
    /// [`x25519::shared_secret`] of `private` against this key.
    fn shared_secret(&self, private: &[u8; 32]) -> Option<[u8; 32]>;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for [u8; 32] {}
    impl Sealed for crate::x25519::PreparedKey {}
}

impl Recipient for [u8; 32] {
    fn public_key(&self) -> &[u8; 32] {
        self
    }
    fn shared_secret(&self, private: &[u8; 32]) -> Option<[u8; 32]> {
        x25519::shared_secret(private, self)
    }
}

impl Recipient for x25519::PreparedKey {
    fn public_key(&self) -> &[u8; 32] {
        self.as_bytes()
    }
    fn shared_secret(&self, private: &[u8; 32]) -> Option<[u8; 32]> {
        x25519::PreparedKey::shared_secret(self, private)
    }
}

fn encap<R: Rng + ?Sized, K: Recipient>(
    rng: &mut R,
    pk_r: &K,
) -> Result<([u8; 32], [u8; ENC_LEN])> {
    let eph = Keypair::generate(rng);
    let dh = pk_r
        .shared_secret(&eph.private)
        .ok_or(CryptoError::InvalidPoint)?;
    Ok((
        extract_and_expand(&dh, &eph.public, pk_r.public_key()),
        eph.public,
    ))
}

fn decap(enc: &[u8; ENC_LEN], kp: &Keypair) -> Result<[u8; 32]> {
    let dh = x25519::shared_secret(&kp.private, enc).ok_or(CryptoError::InvalidPoint)?;
    Ok(extract_and_expand(&dh, enc, &kp.public))
}

/// An HPKE context: sequence of seals (sender) or opens (recipient) plus
/// the exporter interface.
pub struct Context {
    key: [u8; NK],
    base_nonce: [u8; NN],
    seq: u64,
    exporter_secret: [u8; NH],
}

impl Context {
    fn key_schedule(
        mode: u8,
        shared_secret: &[u8; 32],
        info: &[u8],
        psk: &[u8],
        psk_id: &[u8],
    ) -> Self {
        let suite = &HPKE_SUITE_ID;
        let psk_id_hash = labeled_extract(suite, b"", b"psk_id_hash", psk_id);
        let info_hash = labeled_extract(suite, b"", b"info_hash", info);
        let mut ks_context = [0u8; 1 + 2 * NH];
        ks_context[0] = mode;
        ks_context[1..1 + NH].copy_from_slice(&psk_id_hash);
        ks_context[1 + NH..].copy_from_slice(&info_hash);

        // Keyed once for its three expansions.
        let secret = HmacSha256::new(&labeled_extract(suite, shared_secret, b"secret", psk));
        let mut ctx = Context {
            key: [0u8; NK],
            base_nonce: [0u8; NN],
            seq: 0,
            exporter_secret: [0u8; NH],
        };
        for (label, out) in [
            (&b"key"[..], &mut ctx.key[..]),
            (&b"base_nonce"[..], &mut ctx.base_nonce[..]),
            (&b"exp"[..], &mut ctx.exporter_secret[..]),
        ] {
            labeled_expand(suite, &secret, label, &ks_context, out);
        }
        ctx
    }

    fn compute_nonce(&self) -> [u8; NN] {
        let mut nonce = self.base_nonce;
        let seq_bytes = self.seq.to_be_bytes();
        for i in 0..8 {
            nonce[NN - 8 + i] ^= seq_bytes[i];
        }
        nonce
    }

    /// Encrypt the next message in sequence.
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let nonce = self.compute_nonce();
        self.seq += 1;
        aead::seal(&self.key, &nonce, aad, plaintext)
    }

    /// Decrypt the next message in sequence.
    pub fn open(&mut self, aad: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>> {
        let nonce = self.compute_nonce();
        let pt = aead::open(&self.key, &nonce, aad, ciphertext)?;
        self.seq += 1;
        Ok(pt)
    }

    /// Export secret keying material bound to this context.
    pub fn export(&self, exporter_context: &[u8], len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        labeled_expand(
            &HPKE_SUITE_ID,
            &HmacSha256::new(&self.exporter_secret),
            b"sec",
            exporter_context,
            &mut out,
        );
        out
    }
}

/// Set up a sender context in base mode. Returns the encapsulated key to
/// transmit alongside ciphertexts.
pub fn setup_base_s<R: Rng + ?Sized, K: Recipient>(
    rng: &mut R,
    pk_r: &K,
    info: &[u8],
) -> Result<([u8; ENC_LEN], Context)> {
    let (shared, enc) = encap(rng, pk_r)?;
    Ok((
        enc,
        Context::key_schedule(MODE_BASE, &shared, info, b"", b""),
    ))
}

/// Set up the matching recipient context in base mode.
pub fn setup_base_r(enc: &[u8; ENC_LEN], kp: &Keypair, info: &[u8]) -> Result<Context> {
    let shared = decap(enc, kp)?;
    Ok(Context::key_schedule(MODE_BASE, &shared, info, b"", b""))
}

/// Sender context in PSK mode (mode_psk binds a pre-shared key in addition
/// to the KEM secret).
pub fn setup_psk_s<R: Rng + ?Sized, K: Recipient>(
    rng: &mut R,
    pk_r: &K,
    info: &[u8],
    psk: &[u8],
    psk_id: &[u8],
) -> Result<([u8; ENC_LEN], Context)> {
    assert!(
        !psk.is_empty() && !psk_id.is_empty(),
        "PSK mode requires psk and psk_id"
    );
    let (shared, enc) = encap(rng, pk_r)?;
    Ok((
        enc,
        Context::key_schedule(MODE_PSK, &shared, info, psk, psk_id),
    ))
}

/// Recipient context in PSK mode.
pub fn setup_psk_r(
    enc: &[u8; ENC_LEN],
    kp: &Keypair,
    info: &[u8],
    psk: &[u8],
    psk_id: &[u8],
) -> Result<Context> {
    assert!(
        !psk.is_empty() && !psk_id.is_empty(),
        "PSK mode requires psk and psk_id"
    );
    let shared = decap(enc, kp)?;
    Ok(Context::key_schedule(MODE_PSK, &shared, info, psk, psk_id))
}

/// Single-shot seal: `enc ‖ ciphertext`.
pub fn seal<R: Rng + ?Sized, K: Recipient>(
    rng: &mut R,
    pk_r: &K,
    info: &[u8],
    aad: &[u8],
    plaintext: &[u8],
) -> Result<Vec<u8>> {
    let (enc, mut ctx) = setup_base_s(rng, pk_r, info)?;
    let mut out = enc.to_vec();
    out.extend_from_slice(&ctx.seal(aad, plaintext));
    Ok(out)
}

/// Single-shot open of `enc ‖ ciphertext`.
pub fn open(kp: &Keypair, info: &[u8], aad: &[u8], msg: &[u8]) -> Result<Vec<u8>> {
    if msg.len() < ENC_LEN {
        return Err(CryptoError::Malformed);
    }
    let mut enc = [0u8; ENC_LEN];
    enc.copy_from_slice(&msg[..ENC_LEN]);
    let mut ctx = setup_base_r(&enc, kp, info)?;
    ctx.open(aad, &msg[ENC_LEN..])
}

/// Bytes of overhead added by single-shot sealing (encapsulated key + tag).
pub const SEAL_OVERHEAD: usize = ENC_LEN + aead::OVERHEAD;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{hex_encode, i2osp};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    #[test]
    fn single_shot_roundtrip() {
        let mut rng = rng();
        let kp = Keypair::generate(&mut rng);
        let ct = seal(&mut rng, &kp.public, b"info", b"aad", b"decoupled!").unwrap();
        assert_eq!(ct.len(), 10 + SEAL_OVERHEAD);
        assert_eq!(open(&kp, b"info", b"aad", &ct).unwrap(), b"decoupled!");
    }

    #[test]
    fn context_multi_message_sequence() {
        let mut rng = rng();
        let kp = Keypair::generate(&mut rng);
        let (enc, mut tx) = setup_base_s(&mut rng, &kp.public, b"stream").unwrap();
        let mut rx = setup_base_r(&enc, &kp, b"stream").unwrap();
        for i in 0..5u8 {
            let msg = vec![i; 10 + i as usize];
            let ct = tx.seal(b"", &msg);
            assert_eq!(rx.open(b"", &ct).unwrap(), msg, "message {i}");
        }
    }

    #[test]
    fn out_of_order_open_fails() {
        let mut rng = rng();
        let kp = Keypair::generate(&mut rng);
        let (enc, mut tx) = setup_base_s(&mut rng, &kp.public, b"").unwrap();
        let mut rx = setup_base_r(&enc, &kp, b"").unwrap();
        let _c0 = tx.seal(b"", b"zero");
        let c1 = tx.seal(b"", b"one");
        // rx expects seq 0; opening c1 must fail, then c0 was skipped so the
        // stream is broken for it too.
        assert!(rx.open(b"", &c1).is_err());
    }

    #[test]
    fn wrong_recipient_fails() {
        let mut rng = rng();
        let kp1 = Keypair::generate(&mut rng);
        let kp2 = Keypair::generate(&mut rng);
        let ct = seal(&mut rng, &kp1.public, b"", b"", b"secret").unwrap();
        assert!(open(&kp2, b"", b"", &ct).is_err());
    }

    #[test]
    fn info_and_aad_binding() {
        let mut rng = rng();
        let kp = Keypair::generate(&mut rng);
        let ct = seal(&mut rng, &kp.public, b"info-a", b"aad-a", b"m").unwrap();
        assert!(open(&kp, b"info-b", b"aad-a", &ct).is_err());
        assert!(open(&kp, b"info-a", b"aad-b", &ct).is_err());
        assert!(open(&kp, b"info-a", b"aad-a", &ct).is_ok());
    }

    #[test]
    fn exporter_agreement_and_separation() {
        let mut rng = rng();
        let kp = Keypair::generate(&mut rng);
        let (enc, tx) = setup_base_s(&mut rng, &kp.public, b"exp").unwrap();
        let rx = setup_base_r(&enc, &kp, b"exp").unwrap();
        assert_eq!(tx.export(b"label-1", 32), rx.export(b"label-1", 32));
        assert_ne!(tx.export(b"label-1", 32), tx.export(b"label-2", 32));
        assert_eq!(tx.export(b"label-1", 64).len(), 64);
    }

    #[test]
    fn psk_mode_roundtrip_and_binding() {
        let mut rng = rng();
        let kp = Keypair::generate(&mut rng);
        let (enc, mut tx) =
            setup_psk_s(&mut rng, &kp.public, b"", b"pre-shared", b"psk-id-1").unwrap();
        let mut rx = setup_psk_r(&enc, &kp, b"", b"pre-shared", b"psk-id-1").unwrap();
        let ct = tx.seal(b"", b"with psk");
        assert_eq!(rx.open(b"", &ct).unwrap(), b"with psk");
        // Wrong PSK cannot open.
        let mut rx_bad = setup_psk_r(&enc, &kp, b"", b"wrong", b"psk-id-1").unwrap();
        let (enc2, mut tx2) =
            setup_psk_s(&mut rng, &kp.public, b"", b"pre-shared", b"psk-id-1").unwrap();
        let _ = enc2;
        let ct2 = tx2.seal(b"", b"x");
        assert!(rx_bad.open(b"", &ct2).is_err());
    }

    #[test]
    fn prepared_recipient_is_byte_identical_to_raw() {
        let kp = Keypair::generate(&mut rng());
        let prepared = x25519::PreparedKey::new(kp.public);
        let (mut raw_rng, mut prep_rng) = (rng(), rng());
        for round in 0..3 {
            let (enc_a, mut a) = setup_base_s(&mut raw_rng, &kp.public, b"i").unwrap();
            let (enc_b, mut b) = setup_base_s(&mut prep_rng, &prepared, b"i").unwrap();
            assert_eq!(enc_a, enc_b, "base enc, round {round}");
            assert_eq!(
                a.seal(b"a", b"m"),
                b.seal(b"a", b"m"),
                "base, round {round}"
            );

            let (enc_a, mut a) =
                setup_psk_s(&mut raw_rng, &kp.public, b"i", b"psk", b"id").unwrap();
            let (enc_b, mut b) =
                setup_psk_s(&mut prep_rng, &prepared, b"i", b"psk", b"id").unwrap();
            assert_eq!(enc_a, enc_b, "psk enc, round {round}");
            assert_eq!(a.seal(b"a", b"m"), b.seal(b"a", b"m"), "psk, round {round}");

            let sealed = seal(&mut raw_rng, &kp.public, b"i", b"a", b"m").unwrap();
            assert_eq!(
                sealed,
                seal(&mut prep_rng, &prepared, b"i", b"a", b"m").unwrap(),
                "single-shot, round {round}"
            );
            assert_eq!(open(&kp, b"i", b"a", &sealed).unwrap(), b"m");
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        let mut rng = rng();
        let kp = Keypair::generate(&mut rng);
        assert!(open(&kp, b"", b"", &[0u8; 10]).is_err());
        // All-zero encapsulated key is a small-order point → rejected.
        let mut msg = vec![0u8; 64];
        msg[40] = 1;
        assert!(open(&kp, b"", b"", &msg).is_err());
        // A message truncated to exactly the encapsulated key (valid curve
        // point, empty AEAD body) must fail closed, not slice out of range.
        let other = Keypair::generate(&mut rng);
        assert!(open(&kp, b"", b"", &other.public).is_err());
        // Tag-only body (shorter than the Poly1305 tag plus one byte).
        let mut short = other.public.to_vec();
        short.extend_from_slice(&[0u8; 15]);
        assert!(open(&kp, b"", b"", &short).is_err());
    }

    // RFC 9180's key schedule written out the plain way, as a reference:
    // each labelled string concatenated, then `hkdf::extract` or
    // `hkdf::expand`, which key their PRK afresh on every call.

    const REF_KEM_SUITE: &[u8] = b"KEM\x00\x20";
    const REF_HPKE_SUITE: &[u8] = b"HPKE\x00\x20\x00\x01\x00\x03";
    const EXPORT_LENS: [usize; 6] = [0, 1, 32, 33, 64, 255];

    fn ref_labeled_extract(suite: &[u8], salt: &[u8], label: &[u8], ikm: &[u8]) -> [u8; 32] {
        hkdf::extract(salt, &[b"HPKE-v1", suite, label, ikm].concat())
    }

    fn ref_labeled_expand(
        suite: &[u8],
        prk: &[u8],
        label: &[u8],
        info: &[u8],
        len: usize,
    ) -> Vec<u8> {
        let labeled_info = [&i2osp(len as u64, 2)[..], b"HPKE-v1", suite, label, info].concat();
        hkdf::expand(prk, &labeled_info, len)
    }

    /// DHKEM's shared secret from `dh` and `kem_context = enc ‖ pk_r`.
    fn ref_shared_secret(dh: &[u8], enc: &[u8], pk_r: &[u8]) -> Vec<u8> {
        let eae_prk = ref_labeled_extract(REF_KEM_SUITE, b"", b"eae_prk", dh);
        let kem_context = [enc, pk_r].concat();
        ref_labeled_expand(REF_KEM_SUITE, &eae_prk, b"shared_secret", &kem_context, 32)
    }

    /// `(key, base_nonce, exporter_secret)` of the key schedule.
    fn ref_key_schedule(
        mode: u8,
        shared_secret: &[u8],
        info: &[u8],
        psk: &[u8],
        psk_id: &[u8],
    ) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let suite = REF_HPKE_SUITE;
        let psk_id_hash = ref_labeled_extract(suite, b"", b"psk_id_hash", psk_id);
        let info_hash = ref_labeled_extract(suite, b"", b"info_hash", info);
        let ks_context = [&[mode][..], &psk_id_hash, &info_hash].concat();
        let secret = ref_labeled_extract(suite, shared_secret, b"secret", psk);
        (
            ref_labeled_expand(suite, &secret, b"key", &ks_context, 32),
            ref_labeled_expand(suite, &secret, b"base_nonce", &ks_context, 12),
            ref_labeled_expand(suite, &secret, b"exp", &ks_context, 32),
        )
    }

    /// `ctx` holds the reference schedule's key and nonce, and exports
    /// what the reference exports, at every length in [`EXPORT_LENS`].
    fn matches_reference(
        ctx: &Context,
        (key, nonce, exporter_secret): &(Vec<u8>, Vec<u8>, Vec<u8>),
        exporter_context: &[u8],
    ) -> bool {
        ctx.key[..] == key[..]
            && ctx.base_nonce[..] == nonce[..]
            && EXPORT_LENS.iter().all(|&len| {
                ctx.export(exporter_context, len)
                    == ref_labeled_expand(
                        REF_HPKE_SUITE,
                        exporter_secret,
                        b"sec",
                        exporter_context,
                        len,
                    )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn key_schedule_matches_reference(
            shared_secret in collection::vec(any::<u8>(), 32),
            info in collection::vec(any::<u8>(), 0..150),
            psk in collection::vec(any::<u8>(), 1..150),
            psk_id in collection::vec(any::<u8>(), 1..150),
            exporter_context in collection::vec(any::<u8>(), 0..150),
        ) {
            let mut shared = [0u8; 32];
            shared.copy_from_slice(&shared_secret);
            for (mode, psk, psk_id) in [(MODE_BASE, &[][..], &[][..]), (MODE_PSK, &psk, &psk_id)] {
                let ctx = Context::key_schedule(mode, &shared, &info, psk, psk_id);
                let want = ref_key_schedule(mode, &shared, &info, psk, psk_id);
                prop_assert!(matches_reference(&ctx, &want, &exporter_context), "mode {}", mode);
            }
        }
    }

    /// `setup_base_s`, or `setup_psk_s` when a `psk` is given.
    fn setup_s<K: Recipient>(
        rng: &mut rand::rngs::StdRng,
        pk_r: &K,
        info: &[u8],
        psk: &[u8],
        psk_id: &[u8],
    ) -> ([u8; ENC_LEN], Context) {
        if psk.is_empty() {
            setup_base_s(rng, pk_r, info).unwrap()
        } else {
            setup_psk_s(rng, pk_r, info, psk, psk_id).unwrap()
        }
    }

    /// `setup_base_r`, or `setup_psk_r` when a `psk` is given.
    fn setup_r(
        enc: &[u8; ENC_LEN],
        kp: &Keypair,
        info: &[u8],
        psk: &[u8],
        psk_id: &[u8],
    ) -> Context {
        if psk.is_empty() {
            setup_base_r(enc, kp, info).unwrap()
        } else {
            setup_psk_r(enc, kp, info, psk, psk_id).unwrap()
        }
    }

    #[test]
    fn setups_match_reference() {
        let mut rng = rng();
        for round in 0..3u8 {
            let kp = Keypair::generate(&mut rng);
            let prepared = x25519::PreparedKey::new(kp.public);
            let info = vec![round; 40 * round as usize];
            let psk = vec![0x70 ^ round; 1 + round as usize];
            for (mode, psk, psk_id) in [(MODE_BASE, &[][..], &[][..]), (MODE_PSK, &psk, b"psk id")]
            {
                // The sender's ephemeral key is the next keypair its RNG
                // draws.
                let eph = Keypair::generate(&mut rng.clone());
                let (enc, tx) = setup_s(&mut rng.clone(), &kp.public, &info, psk, psk_id);
                let (enc_prepared, tx_prepared) = setup_s(&mut rng, &prepared, &info, psk, psk_id);
                let rx = setup_r(&enc, &kp, &info, psk, psk_id);
                assert_eq!(enc, eph.public);
                assert_eq!(enc_prepared, enc);
                let dh = x25519::shared_secret(&eph.private, &kp.public).unwrap();
                let shared = ref_shared_secret(&dh, &enc, &kp.public);
                let want = ref_key_schedule(mode, &shared, &info, psk, psk_id);
                for (side, ctx) in [
                    ("sender", &tx),
                    ("prepared sender", &tx_prepared),
                    ("recipient", &rx),
                ] {
                    assert!(
                        matches_reference(ctx, &want, b"exporter context"),
                        "{side}, round {round}, mode {mode}"
                    );
                }
            }
        }
    }

    /// Fixed-seed known answers, recorded from the concatenating key
    /// schedule that the reference above reproduces. Unlike the
    /// round trips, they fail if sender and recipient drift together.
    #[test]
    fn known_answers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9180);
        let kp = Keypair::generate(&mut rng);
        let info = b"known answer";
        for (psk, psk_id, [want_enc, want_ct, want_export]) in [
            (
                &b""[..],
                &b""[..],
                [
                    "e88a20820c82c946904297786a754952e2ed9d5439a9279aad16958d0d55746a",
                    "83457c15a2f0255e22988913ba4a435a4d164f7d32664e1ebc",
                    "9b44f377a3e90650d65dd2cb3ed3cb4608bcf0b04c0e1da114f7f15731c1da09",
                ],
            ),
            (
                b"pre-shared key",
                b"psk id",
                [
                    "b28a2b5eb2a1b7b197778eeff34ee8306e2639d0b4da917b56462aabb6ef1748",
                    "0e29984fe9909ef9247dd1a4dfe62a97097bbf9e6874be5fde",
                    "b9baa386891d604074a4d0074aaa59588bbdab83ac3ae0f788371a0c358477e8",
                ],
            ),
        ] {
            let (enc, mut tx) = setup_s(&mut rng, &kp.public, info, psk, psk_id);
            let mut rx = setup_r(&enc, &kp, info, psk, psk_id);
            assert_eq!(hex_encode(&enc), want_enc, "psk {psk:?} enc");
            let ct = tx.seal(b"aad", b"decoupled");
            assert_eq!(hex_encode(&ct), want_ct, "psk {psk:?} ciphertext");
            assert_eq!(rx.open(b"aad", &ct).unwrap(), b"decoupled");
            for ctx in [&tx, &rx] {
                let export = hex_encode(&ctx.export(b"exporter", 32));
                assert_eq!(export, want_export, "psk {psk:?} export");
            }
        }
    }
}
