//! Issuance and redemption logic.

use std::collections::HashSet;

use dcp_crypto::oprf::{self, BlindedElement, DleqProof, EvaluatedElement, PublicKey, ServerKey};
use dcp_crypto::{CryptoError, Result};
use rand::Rng;

/// A spendable token: the client's nonce plus the PRF output over it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Client-chosen random nonce (the PRF input).
    pub nonce: [u8; 32],
    /// `F(k, nonce)` — provable only with the issuer's key.
    pub output: [u8; 32],
}

impl Token {
    /// Wire encoding `nonce ‖ output`.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = self.nonce.to_vec();
        v.extend_from_slice(&self.output);
        v
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> Result<Token> {
        if bytes.len() != 64 {
            return Err(CryptoError::Malformed);
        }
        let mut nonce = [0u8; 32];
        let mut output = [0u8; 32];
        nonce.copy_from_slice(&bytes[..32]);
        output.copy_from_slice(&bytes[32..]);
        Ok(Token { nonce, output })
    }
}

/// Why a redemption failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedeemError {
    /// The PRF output did not match (forged or wrong-issuer token).
    Invalid,
    /// The token was already spent.
    DoubleSpend,
}

/// The token issuer. Knows who it issues to (it authenticates clients) but
/// not what the tokens will be (they are blinded).
pub struct Issuer {
    key: ServerKey,
    /// Nonces already redeemed.
    spent: HashSet<[u8; 32]>,
    /// Issuance counter (capacity accounting / rate limiting).
    pub issued: u64,
}

impl Issuer {
    /// Create with a fresh VOPRF key.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Issuer {
            key: ServerKey::generate(rng),
            spent: HashSet::new(),
            issued: 0,
        }
    }

    /// The published key commitment clients verify DLEQ proofs against.
    pub fn public_key(&self) -> PublicKey {
        self.key.public_key()
    }

    /// Sign a batch of blinded elements. The issuer sees only blinded
    /// group elements — nothing about the eventual tokens.
    pub fn issue<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        blinded: &[BlindedElement],
    ) -> Result<Vec<(EvaluatedElement, DleqProof)>> {
        let out = blinded
            .iter()
            .map(|b| self.key.evaluate(rng, b))
            .collect::<Result<Vec<_>>>()?;
        self.issued += blinded.len() as u64;
        Ok(out)
    }

    /// Redemption check (run by the issuer on behalf of origins): verify
    /// the PRF output and enforce one-time use.
    pub fn redeem(&mut self, token: &Token) -> core::result::Result<(), RedeemError> {
        if self.key.evaluate_direct(&token.nonce) != token.output {
            return Err(RedeemError::Invalid);
        }
        if !self.spent.insert(token.nonce) {
            return Err(RedeemError::DoubleSpend);
        }
        Ok(())
    }
}

/// Client-side token state.
pub struct Client {
    issuer_pk: PublicKey,
    wallet: Vec<Token>,
}

/// In-flight issuance state.
pub struct IssuanceRequest {
    blindings: Vec<oprf::ClientBlinding>,
    /// The blinded elements to send.
    pub blinded: Vec<BlindedElement>,
}

impl Client {
    /// A client trusting `issuer_pk`.
    pub fn new(issuer_pk: PublicKey) -> Self {
        Client {
            issuer_pk,
            wallet: Vec::new(),
        }
    }

    /// Prepare an issuance request for `n` tokens.
    pub fn request_tokens<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> IssuanceRequest {
        let mut blindings = Vec::with_capacity(n);
        let mut blinded = Vec::with_capacity(n);
        for _ in 0..n {
            let mut nonce = [0u8; 32];
            rng.fill_bytes(&mut nonce);
            let b = oprf::blind(rng, &nonce);
            blinded.push(b.blinded_element());
            blindings.push(b);
        }
        IssuanceRequest { blindings, blinded }
    }

    /// Verify proofs, unblind, and bank the tokens. Rejects the whole
    /// batch if any proof fails (issuer misbehavior).
    pub fn accept_issuance(
        &mut self,
        req: IssuanceRequest,
        evaluated: &[(EvaluatedElement, DleqProof)],
    ) -> Result<usize> {
        if evaluated.len() != req.blindings.len() {
            return Err(CryptoError::Malformed);
        }
        let mut tokens = Vec::with_capacity(evaluated.len());
        for (b, (e, p)) in req.blindings.iter().zip(evaluated.iter()) {
            let output = b.finalize(&self.issuer_pk, e, p)?;
            // Recover the nonce from the blinding's input.
            tokens.push((b, output));
        }
        for (b, output) in tokens {
            let mut nonce = [0u8; 32];
            nonce.copy_from_slice(b.input());
            self.wallet.push(Token { nonce, output });
        }
        Ok(self.wallet.len())
    }

    /// Tokens remaining.
    pub fn balance(&self) -> usize {
        self.wallet.len()
    }

    /// Spend one token (None when the wallet is empty).
    pub fn spend(&mut self) -> Option<Token> {
        self.wallet.pop()
    }
}

/// Bytes of one evaluated element and its DLEQ proof `(c, s)` on the
/// wire.
pub const EVAL_LEN: usize = 32 + 64;

/// Bytes that are not the one length their reader accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WrongLength {
    /// The only length accepted.
    pub expected: usize,
    /// The length received.
    pub got: usize,
}

/// Refuse `bytes` unless they are exactly `expected` long.
pub fn exact_len(bytes: &[u8], expected: usize) -> core::result::Result<(), WrongLength> {
    if bytes.len() == expected {
        Ok(())
    } else {
        Err(WrongLength {
            expected,
            got: bytes.len(),
        })
    }
}

/// The issuer's parse of an issuance batch: exactly `n` blinded
/// elements, so no message makes it evaluate more.
pub fn decode_batch(
    bytes: &[u8],
    n: usize,
) -> core::result::Result<Vec<BlindedElement>, WrongLength> {
    exact_len(bytes, n * 32)?;
    Ok(bytes
        .chunks_exact(32)
        .map(|c| BlindedElement(c.try_into().expect("32-byte chunk")))
        .collect())
}

/// The issuer's answer to a batch: each evaluation followed by its proof.
pub fn encode_evals(evals: &[(EvaluatedElement, DleqProof)]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(evals.len() * EVAL_LEN);
    for (e, p) in evals {
        bytes.extend_from_slice(&e.0);
        bytes.extend_from_slice(&p.c);
        bytes.extend_from_slice(&p.s);
    }
    bytes
}

/// The client's parse of the issuer's answer: exactly one evaluation and
/// proof for each of its batch's `n` blinded elements.
pub fn decode_evals(
    bytes: &[u8],
    n: usize,
) -> core::result::Result<Vec<(EvaluatedElement, DleqProof)>, WrongLength> {
    exact_len(bytes, n * EVAL_LEN)?;
    let arr = |b: &[u8]| -> [u8; 32] { b.try_into().expect("32-byte field") };
    Ok(bytes
        .chunks_exact(EVAL_LEN)
        .map(|c| {
            let proof = DleqProof {
                c: arr(&c[32..64]),
                s: arr(&c[64..]),
            };
            (EvaluatedElement(arr(&c[..32])), proof)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(404)
    }

    #[test]
    fn issuance_and_redemption() {
        let mut rng = rng();
        let mut issuer = Issuer::new(&mut rng);
        let mut client = Client::new(issuer.public_key());

        let req = client.request_tokens(&mut rng, 5);
        let evals = issuer.issue(&mut rng, &req.blinded).unwrap();
        assert_eq!(client.accept_issuance(req, &evals).unwrap(), 5);
        assert_eq!(issuer.issued, 5);

        for _ in 0..5 {
            let t = client.spend().unwrap();
            assert_eq!(issuer.redeem(&t), Ok(()));
        }
        assert_eq!(client.balance(), 0);
        assert!(client.spend().is_none());
    }

    #[test]
    fn double_spend_rejected() {
        let mut rng = rng();
        let mut issuer = Issuer::new(&mut rng);
        let mut client = Client::new(issuer.public_key());
        let req = client.request_tokens(&mut rng, 1);
        let evals = issuer.issue(&mut rng, &req.blinded).unwrap();
        client.accept_issuance(req, &evals).unwrap();
        let t = client.spend().unwrap();
        assert_eq!(issuer.redeem(&t), Ok(()));
        assert_eq!(issuer.redeem(&t), Err(RedeemError::DoubleSpend));
    }

    #[test]
    fn forged_token_rejected() {
        let mut rng = rng();
        let mut issuer = Issuer::new(&mut rng);
        let forged = Token {
            nonce: [1u8; 32],
            output: [2u8; 32],
        };
        assert_eq!(issuer.redeem(&forged), Err(RedeemError::Invalid));
    }

    #[test]
    fn token_from_other_issuer_rejected() {
        let mut rng = rng();
        let mut issuer_a = Issuer::new(&mut rng);
        let mut issuer_b = Issuer::new(&mut rng);
        let mut client = Client::new(issuer_a.public_key());
        let req = client.request_tokens(&mut rng, 1);
        let evals = issuer_a.issue(&mut rng, &req.blinded).unwrap();
        client.accept_issuance(req, &evals).unwrap();
        let t = client.spend().unwrap();
        assert_eq!(issuer_b.redeem(&t), Err(RedeemError::Invalid));
    }

    #[test]
    fn per_user_key_attack_caught_by_dleq() {
        let mut rng = rng();
        let honest = Issuer::new(&mut rng);
        let mut evil = Issuer::new(&mut rng); // different key
        let mut client = Client::new(honest.public_key());
        let req = client.request_tokens(&mut rng, 2);
        let evals = evil.issue(&mut rng, &req.blinded).unwrap();
        assert!(client.accept_issuance(req, &evals).is_err());
        assert_eq!(client.balance(), 0, "no tokens banked from bad issuance");
    }

    #[test]
    fn issuance_batch_mismatch_rejected() {
        let mut rng = rng();
        let mut issuer = Issuer::new(&mut rng);
        let mut client = Client::new(issuer.public_key());
        let req = client.request_tokens(&mut rng, 3);
        let evals = issuer.issue(&mut rng, &req.blinded[..2]).unwrap();
        assert!(client.accept_issuance(req, &evals).is_err());
    }

    #[test]
    fn token_encoding_roundtrip() {
        let t = Token {
            nonce: [9u8; 32],
            output: [7u8; 32],
        };
        assert_eq!(Token::decode(&t.encode()).unwrap(), t);
        assert!(Token::decode(&[0u8; 63]).is_err());
    }

    proptest! {
        /// A token round-trips; arbitrary bytes decode exactly when they
        /// are 64 long, and then re-encode to themselves.
        #[test]
        fn token_decoding_round_trips_and_fails_closed(
            nonce in collection::vec(any::<u8>(), 32),
            output in collection::vec(any::<u8>(), 32),
            bytes in collection::vec(any::<u8>(), 0..80),
        ) {
            let token = Token {
                nonce: nonce.try_into().unwrap(),
                output: output.try_into().unwrap(),
            };
            prop_assert_eq!(Token::decode(&token.encode()), Ok(token));
            match Token::decode(&bytes) {
                Ok(token) => prop_assert_eq!(token.encode(), bytes),
                Err(_) => prop_assert_ne!(bytes.len(), 64),
            }
        }
    }

    proptest! {
        /// The issuance codecs accept exactly one length for a batch of
        /// `n`, refuse every other with [`WrongLength`], and what they
        /// accept re-encodes to itself.
        #[test]
        fn issuance_codecs_fail_closed_and_round_trip(
            bytes in collection::vec(any::<u8>(), 0..800),
            n in 0usize..8,
        ) {
            let fit = |len: usize| {
                let mut b = bytes.clone();
                b.resize(len, 0x5a);
                b
            };
            for b in [bytes.clone(), fit(n * 32)] {
                match decode_batch(&b, n) {
                    Ok(batch) => prop_assert_eq!(
                        batch.iter().flat_map(|e| e.0).collect::<Vec<_>>(),
                        b
                    ),
                    Err(e) => prop_assert_eq!(e, WrongLength { expected: n * 32, got: b.len() }),
                }
            }
            for b in [bytes.clone(), fit(n * EVAL_LEN)] {
                match decode_evals(&b, n) {
                    Ok(evals) => prop_assert_eq!(encode_evals(&evals), b),
                    Err(e) => {
                        prop_assert_eq!(e, WrongLength { expected: n * EVAL_LEN, got: b.len() })
                    }
                }
            }
        }
    }

    #[test]
    fn tokens_are_unlinkable_group_elements() {
        // The issuer's view (blinded elements) shares no bytes with the
        // final tokens — structural unlinkability check.
        let mut rng = rng();
        let mut issuer = Issuer::new(&mut rng);
        let mut client = Client::new(issuer.public_key());
        let req = client.request_tokens(&mut rng, 4);
        let issuer_view: Vec<[u8; 32]> = req.blinded.iter().map(|b| b.0).collect();
        let evals = issuer.issue(&mut rng, &req.blinded).unwrap();
        client.accept_issuance(req, &evals).unwrap();
        while let Some(t) = client.spend() {
            assert!(!issuer_view.contains(&t.nonce));
            assert!(!issuer_view.contains(&t.output));
        }
    }
}
