//! ODoH encapsulation after RFC 9230 §6.4–6.5: the query is HPKE-sealed
//! to the target, and the response key is derived from that same HPKE
//! context, so answering costs no second key encapsulation.
//!
//! Wire shapes:
//! * query encapsulation = `enc ‖ ctx.Seal("", dns_query)`, where
//!   `enc, ctx = SetupBaseS(target_pk, "odoh query")`,
//! * response encapsulation = `resp_nonce ‖ AEAD-Seal(key, nonce,
//!   0x02 ‖ len(resp_nonce) ‖ resp_nonce, dns_response)`, where `key` and
//!   `nonce` are expanded from `HKDF-Extract(dns_query ‖ len(resp_nonce)
//!   ‖ resp_nonce, ctx.Export("odoh response", 32))`.
//!
//! Only the client and the target hold the query's HPKE context, so only
//! they can derive the response key. The proxy only ever handles the
//! opaque outer ciphertexts. RFC 9230's message framing (type byte, key
//! id in the query AAD, padding) is not modelled.

use dcp_crypto::aead::{self, AEAD_NONCE_LEN, KEY_LEN};
use dcp_crypto::hmac::HmacSha256;
use dcp_crypto::{hkdf, hpke};
use dcp_crypto::{CryptoError, Result};
use dcp_dns::Message as DnsMessage;
use rand::Rng;

const QUERY_INFO: &[u8] = b"odoh query";
/// `max(Nn, Nk)` for ChaCha20-Poly1305 (RFC 9230 §6.5).
const RESP_NONCE_LEN: usize = 32;

/// What both ends keep between a query and its response: the secret
/// exported from the query's HPKE context and the plaintext query.
pub struct QueryState {
    secret: Vec<u8>,
    query: Vec<u8>,
}

impl QueryState {
    fn new(ctx: &hpke::Context, query: Vec<u8>) -> Self {
        QueryState {
            secret: ctx.export(b"odoh response", KEY_LEN),
            query,
        }
    }

    /// The response AEAD key and nonce for `resp_nonce` (RFC 9230
    /// `derive_secrets`).
    fn response_key(&self, resp_nonce: &[u8]) -> ([u8; KEY_LEN], [u8; AEAD_NONCE_LEN]) {
        let mut salt = self.query.clone();
        salt.extend_from_slice(&(RESP_NONCE_LEN as u16).to_be_bytes());
        salt.extend_from_slice(resp_nonce);
        // Keyed once for both expansions.
        let prk = HmacSha256::new(&hkdf::extract(&salt, &self.secret));
        let mut key = [0u8; KEY_LEN];
        hkdf::expand_keyed(&prk, &[b"odoh key"], &mut key);
        let mut nonce = [0u8; AEAD_NONCE_LEN];
        hkdf::expand_keyed(&prk, &[b"odoh nonce"], &mut nonce);
        (key, nonce)
    }
}

/// The response AAD: `0x02 ‖ len(resp_nonce) ‖ resp_nonce`.
fn response_aad(resp_nonce: &[u8]) -> Vec<u8> {
    let mut aad = vec![0x02];
    aad.extend_from_slice(&(RESP_NONCE_LEN as u16).to_be_bytes());
    aad.extend_from_slice(resp_nonce);
    aad
}

/// Client: encapsulate `query` for the target. Returns the opaque bytes
/// for the proxy and the state needed to open the response. A client
/// that sends many queries to one target passes its key prepared
/// ([`dcp_crypto::x25519::PreparedKey`]); the bytes do not change.
pub fn seal_query<R: Rng + ?Sized, K: hpke::Recipient>(
    rng: &mut R,
    target_pk: &K,
    query: &DnsMessage,
) -> Result<(Vec<u8>, QueryState)> {
    let (enc, mut ctx) = hpke::setup_base_s(rng, target_pk, QUERY_INFO)?;
    let plain = query.encode();
    let mut sealed = enc.to_vec();
    sealed.extend_from_slice(&ctx.seal(b"", &plain));
    Ok((sealed, QueryState::new(&ctx, plain)))
}

/// Target: open an encapsulated query. Returns the DNS query and the
/// state needed to seal its response.
pub fn open_query(kp: &hpke::Keypair, bytes: &[u8]) -> Result<(DnsMessage, QueryState)> {
    if bytes.len() < hpke::ENC_LEN {
        return Err(CryptoError::Malformed);
    }
    let (enc, ct) = bytes.split_at(hpke::ENC_LEN);
    let mut enc_key = [0u8; hpke::ENC_LEN];
    enc_key.copy_from_slice(enc);
    let mut ctx = hpke::setup_base_r(&enc_key, kp, QUERY_INFO)?;
    let plain = ctx.open(b"", ct)?;
    let query = DnsMessage::decode(&plain).map_err(|_| CryptoError::Malformed)?;
    Ok((query, QueryState::new(&ctx, plain)))
}

/// Target: seal the response under the key derived from the query's
/// context and a fresh random `resp_nonce`.
pub fn seal_response<R: Rng + ?Sized>(
    rng: &mut R,
    state: &QueryState,
    response: &DnsMessage,
) -> Vec<u8> {
    let mut resp_nonce = [0u8; RESP_NONCE_LEN];
    rng.fill_bytes(&mut resp_nonce);
    let (key, nonce) = state.response_key(&resp_nonce);
    let ct = aead::seal(&key, &nonce, &response_aad(&resp_nonce), &response.encode());
    let mut out = resp_nonce.to_vec();
    out.extend_from_slice(&ct);
    out
}

/// Client: open the encapsulated response.
pub fn open_response(state: &QueryState, bytes: &[u8]) -> Result<DnsMessage> {
    if bytes.len() < RESP_NONCE_LEN {
        return Err(CryptoError::Malformed);
    }
    let (resp_nonce, ct) = bytes.split_at(RESP_NONCE_LEN);
    let (key, nonce) = state.response_key(resp_nonce);
    let plain = aead::open(&key, &nonce, &response_aad(resp_nonce), ct)?;
    DnsMessage::decode(&plain).map_err(|_| CryptoError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_dns::{DnsName, Message, Rcode, RecordData, ResourceRecord, RrType};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(808)
    }

    fn answer(query: &Message) -> Message {
        let mut resp = Message::response_to(query, Rcode::NoError);
        resp.answers.push(ResourceRecord {
            name: query.questions[0].qname.clone(),
            ttl: 60,
            data: RecordData::A([10, 1, 2, 3]),
        });
        resp
    }

    #[test]
    fn full_odoh_roundtrip() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        // Prepared, as the wiring's clients hold it.
        let target_pk = dcp_crypto::x25519::PreparedKey::new(target.public);
        let query = Message::query(7, DnsName::parse("private.example.com").unwrap(), RrType::A);

        let (sealed, state) = seal_query(&mut rng, &target_pk, &query).unwrap();
        // The sealed blob reveals nothing of the name (ciphertext only).
        assert!(
            !sealed.windows(7).any(|w| w == b"private"),
            "query name must not appear in ciphertext"
        );
        // One encapsulated key and one AEAD tag around the query.
        assert_eq!(sealed.len(), query.encode().len() + hpke::SEAL_OVERHEAD);

        let (opened, target_state) = open_query(&target, &sealed).unwrap();
        assert_eq!(opened, query);

        let resp = answer(&query);
        let sealed_resp = seal_response(&mut rng, &target_state, &resp);
        assert_eq!(
            sealed_resp.len(),
            RESP_NONCE_LEN + resp.encode().len() + aead::OVERHEAD
        );
        let got = open_response(&state, &sealed_resp).unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn wrong_target_key_cannot_open() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let wrong = hpke::Keypair::generate(&mut rng);
        let query = Message::query(1, DnsName::parse("x.test").unwrap(), RrType::A);
        let (sealed, _) = seal_query(&mut rng, &target.public, &query).unwrap();
        assert!(open_query(&wrong, &sealed).is_err());
    }

    /// The ARQ case: a retransmission re-seals the same DNS query under a
    /// fresh encapsulation, and a response sealed for one transmission
    /// must not open under the other's state.
    #[test]
    fn response_bound_to_query_state() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let query = Message::query(1, DnsName::parse("x.test").unwrap(), RrType::A);
        let (sealed1, state1) = seal_query(&mut rng, &target.public, &query).unwrap();
        let (_sealed2, state2) = seal_query(&mut rng, &target.public, &query).unwrap();
        let (_, target_state1) = open_query(&target, &sealed1).unwrap();
        let resp = Message::response_to(&query, Rcode::NoError);
        let sealed_resp = seal_response(&mut rng, &target_state1, &resp);
        assert_eq!(open_response(&state1, &sealed_resp).unwrap(), resp);
        // The retransmission's state cannot open it.
        assert!(open_response(&state2, &sealed_resp).is_err());
    }

    #[test]
    fn tampered_query_rejected() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let query = Message::query(1, DnsName::parse("x.test").unwrap(), RrType::A);
        let (mut sealed, _) = seal_query(&mut rng, &target.public, &query).unwrap();
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert!(open_query(&target, &sealed).is_err());
    }

    #[test]
    fn truncated_responses_fail_closed() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let query = Message::query(5, DnsName::parse("short.test").unwrap(), RrType::A);
        let (sealed, state) = seal_query(&mut rng, &target.public, &query).unwrap();
        let (_, target_state) = open_query(&target, &sealed).unwrap();
        let sealed_resp = seal_response(&mut rng, &target_state, &answer(&query));
        for len in 0..sealed_resp.len() {
            assert!(open_response(&state, &sealed_resp[..len]).is_err(), "{len}");
        }
        for len in 0..sealed.len() {
            assert!(open_query(&target, &sealed[..len]).is_err(), "{len}");
        }
    }

    proptest! {
        #[test]
        fn decoders_fail_closed_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let target = hpke::Keypair::generate(&mut rng);
            let query = Message::query(9, DnsName::parse("fuzz.test").unwrap(), RrType::A);
            let (_, state) = seal_query(&mut rng, &target.public, &query).unwrap();
            prop_assert!(open_query(&target, &bytes).is_err());
            prop_assert!(open_response(&state, &bytes).is_err());
        }

        #[test]
        fn any_bit_flip_in_a_response_fails(seed in any::<u64>(), bit in any::<usize>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let target = hpke::Keypair::generate(&mut rng);
            let query = Message::query(4, DnsName::parse("flip.test").unwrap(), RrType::A);
            let (sealed, state) = seal_query(&mut rng, &target.public, &query).unwrap();
            let (_, target_state) = open_query(&target, &sealed).unwrap();
            let mut sealed_resp = seal_response(&mut rng, &target_state, &answer(&query));
            let bit = bit % (sealed_resp.len() * 8);
            sealed_resp[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(open_response(&state, &sealed_resp).is_err());
        }
    }
}
