//! Backend-equivalence battery for the pluggable bignum backends.
//!
//! The fast Montgomery backend is only admissible because it is
//! *value-identical* to the reference backend on every operation the
//! protocols use — the DST probes enforce that end to end (byte-identical
//! sweep artifacts across `--backend`), and this battery enforces it at
//! the operation level:
//!
//! * reference/fast agreement on the `modpow`/`mulmod`/`reduce`/`modinv`
//!   byte surfaces over random odd moduli, including the edge exponents
//!   the windowed ladder special-cases (0, 1, m−1, full-width);
//! * blind-RSA signatures byte-identical under either process-global
//!   backend selection;
//! * HPKE session reuse never reuses a nonce and fails closed on
//!   replayed or reordered ciphertexts (the property that makes reuse
//!   safe where the scenarios enable it).

use std::sync::OnceLock;

use decoupling::crypto::backend::{self, BackendKind};
use decoupling::crypto::{hpke, rsa};
use proptest::prelude::*;
use rand::SeedableRng;

/// A shared 512-bit key: RSA keygen is too slow to run per proptest case.
fn test_key() -> &'static rsa::RsaPrivateKey {
    static KEY: OnceLock<rsa::RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xdecaf);
        rsa::RsaPrivateKey::generate(&mut rng, 512).expect("keygen")
    })
}

/// Random modulus bytes, forced odd and > 1 so both backends take their
/// real paths (the fast backend falls back to reference on even moduli —
/// covered separately below).
fn odd_modulus() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..48).prop_map(|mut m| {
        *m.last_mut().unwrap() |= 1;
        if m.iter().all(|&b| b == 0) || (m.len() == 1 && m[0] == 1) {
            m[0] = 3;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn byte_surfaces_agree_across_backends(
        modulus in odd_modulus(),
        base in proptest::collection::vec(any::<u8>(), 0..48),
        exp in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let r = backend::reference();
        let f = backend::fast();
        prop_assert_eq!(
            r.modpow_bytes(&base, &exp, &modulus).unwrap(),
            f.modpow_bytes(&base, &exp, &modulus).unwrap()
        );
        prop_assert_eq!(
            r.mulmod_bytes(&base, &exp, &modulus).unwrap(),
            f.mulmod_bytes(&base, &exp, &modulus).unwrap()
        );
        prop_assert_eq!(
            r.reduce_bytes(&base, &modulus).unwrap(),
            f.reduce_bytes(&base, &modulus).unwrap()
        );
        // modinv either succeeds identically or fails identically.
        match (r.modinv_bytes(&base, &modulus), f.modinv_bytes(&base, &modulus)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "modinv diverged: ref={a:?} fast={b:?}"),
        }
    }

    #[test]
    fn edge_exponents_agree_across_backends(modulus in odd_modulus()) {
        let r = backend::reference();
        let f = backend::fast();
        let minus_one = {
            // m − 1 as bytes, via reduce of (m ‖ 0) − … simpler: decrement.
            let mut m = modulus.clone();
            let last = m.last_mut().unwrap();
            *last -= 1; // modulus is odd, so last byte ≥ 1
            m
        };
        let full_width = vec![0xffu8; modulus.len()];
        for exp in [&[][..], &[0], &[1], &minus_one, &full_width] {
            prop_assert_eq!(
                r.modpow_bytes(&[2], exp, &modulus).unwrap(),
                f.modpow_bytes(&[2], exp, &modulus).unwrap(),
                "exp={exp:02x?}"
            );
        }
    }

    #[test]
    fn even_moduli_agree_via_fallback(
        mut modulus in proptest::collection::vec(any::<u8>(), 1..16),
        base in proptest::collection::vec(any::<u8>(), 0..16),
        exp in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        *modulus.last_mut().unwrap() &= !1;
        if modulus.iter().all(|&b| b == 0) {
            modulus[0] = 2;
        }
        prop_assert_eq!(
            backend::reference().modpow_bytes(&base, &exp, &modulus).unwrap(),
            backend::fast().modpow_bytes(&base, &exp, &modulus).unwrap()
        );
    }

}

/// Zero moduli fail closed on both backends — never panic, never Ok.
#[test]
fn zero_modulus_fails_closed_on_both_backends() {
    for b in [backend::reference(), backend::fast()] {
        assert!(b.modpow_bytes(&[2], &[3], &[0, 0]).is_err(), "{}", b.name());
        assert!(b.mulmod_bytes(&[2], &[3], &[]).is_err(), "{}", b.name());
        assert!(b.modinv_bytes(&[2], &[0]).is_err(), "{}", b.name());
        assert!(b.reduce_bytes(&[2], &[0]).is_err(), "{}", b.name());
    }
}

/// The whole blind-signature flow — blind, sign, finalize, verify, plus
/// the `Unblinder` byte round-trip — yields byte-identical artifacts
/// under either process-global backend. This is the only test in the
/// binary that touches the global selection, so it cannot race another.
#[test]
fn blind_rsa_flow_is_byte_identical_across_global_backends() {
    let sk = test_key();
    let pk = sk.public_key().clone();
    let run = |kind: BackendKind| {
        backend::set_backend(kind);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let blinding = pk.blind(&mut rng, b"serial").unwrap();
        let unblinder = rsa::Unblinder::from_bytes(&blinding.unblinder.to_bytes()).unwrap();
        let blind_sig = sk.blind_sign(&blinding.blinded_msg).unwrap();
        let sig = pk.finalize(b"serial", &blind_sig, &unblinder).unwrap();
        pk.verify(b"serial", &sig).unwrap();
        (blinding.blinded_msg.clone(), sig)
    };
    let fast = run(BackendKind::Fast);
    let reference = run(BackendKind::Reference);
    backend::set_backend(BackendKind::Fast);
    assert_eq!(fast, reference, "backend selection leaked into values");
}

/// Session reuse safety: successive seals in one HPKE context never
/// repeat a ciphertext for equal plaintexts (nonce advances), decrypt
/// in order, and a replayed or reordered ciphertext fails closed rather
/// than silently decrypting under the wrong nonce.
#[test]
fn hpke_session_reuse_advances_nonces_and_rejects_replay() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let kp = hpke::Keypair::generate(&mut rng);
    let (enc, mut tx) = hpke::setup_base_s(&mut rng, &kp.public, b"session").unwrap();
    let ct1 = tx.seal(b"", b"same plaintext");
    let ct2 = tx.seal(b"", b"same plaintext");
    assert_ne!(ct1, ct2, "nonce must advance between seals");

    let mut rx = hpke::setup_base_r(&enc, &kp, b"session").unwrap();
    assert_eq!(rx.open(b"", &ct1).unwrap(), b"same plaintext");
    // Replay of ct1: the receiver nonce has advanced, so this must fail.
    assert!(rx.open(b"", &ct1).is_err(), "replay must not decrypt");
    // After a failed open the sequence is poisoned for ct1, but ct2 at
    // the *current* position still authenticates iff open does not
    // advance on failure.
    let in_order = rx.open(b"", &ct2);
    let mut rx2 = hpke::setup_base_r(&enc, &kp, b"session").unwrap();
    let skipped = rx2.open(b"", &ct2);
    assert!(
        in_order.is_ok() || skipped.is_err(),
        "out-of-order ciphertexts must not silently decrypt"
    );
}
