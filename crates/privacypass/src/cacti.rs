//! CACTI-style CAPTCHA avoidance via client-side TEEs (§4.3).
//!
//! "CACTI … is a system similar to Privacy Pass that uses TEEs for the
//! purposes of keeping private state." Instead of an issuer learning who
//! solves challenges, a client-side enclave keeps a *rate counter*: the
//! origin trusts the hardware vendor's attestation that a known
//! rate-limiter program produced the response — no server-side identity
//! needed at all. The locus of trust moves to the hardware manufacturer,
//! which is exactly the §4.3 argument for TEEs as decoupling substrates.
//!
//! Protocol (one round trip):
//! 1. origin → client: challenge nonce sealed to the enclave's attested key;
//! 2. enclave: opens it, enforces its rate limit, increments the counter;
//! 3. enclave → origin: (challenge ‖ counter) sealed to the origin's key.
//!
//! Echoing the challenge proves the *enclave* processed the request (only
//! the attested key could open it); the enclave's internal counter bounds
//! the request rate without any cross-site identifier.

use dcp_core::tee::{seal_to_enclave, Attestation, Enclave, SealError, Vendor};
use dcp_crypto::hpke;
use rand::Rng;

/// The canonical rate-limiter program (its bytes are the measurement the
/// origin pins).
pub const RATE_LIMITER_PROGRAM: &[u8] =
    b"dcp-cacti-rate-limiter-v1: open(challenge); assert count < limit; count += 1; reply";

/// Errors from the CACTI flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CactiError {
    /// The enclave refused: the client exhausted its rate budget.
    RateLimited,
    /// Attestation failed (wrong vendor or program).
    BadAttestation,
    /// The response failed to verify (wrong challenge, malformed).
    BadResponse,
    /// Underlying crypto failure.
    Crypto,
}

/// The client-side enclave: a rate counter behind an attested boundary.
pub struct CactiClient {
    enclave: Enclave,
    limit: u64,
    count: u64,
}

impl CactiClient {
    /// Launch the rate-limiter enclave on `vendor` hardware with a request
    /// budget of `limit` per epoch.
    pub fn launch<R: Rng + ?Sized>(rng: &mut R, vendor: &Vendor, limit: u64) -> Self {
        CactiClient {
            enclave: vendor.launch(rng, RATE_LIMITER_PROGRAM),
            limit,
            count: 0,
        }
    }

    /// The attestation to present to origins.
    pub fn attestation(&self) -> &Attestation {
        self.enclave.attestation()
    }

    /// Requests used so far.
    pub fn used(&self) -> u64 {
        self.count
    }

    /// Handle a sealed challenge: enforce the rate limit, then emit the
    /// response sealed to `origin_pk`. The *host OS never sees* the
    /// challenge plaintext or the counter — that is the enclave boundary.
    pub fn respond<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        origin_pk: &[u8; 32],
        sealed_challenge: &[u8],
    ) -> Result<Vec<u8>, CactiError> {
        let challenge = self
            .enclave
            .open(b"cacti-challenge", b"", sealed_challenge)
            .map_err(|_| CactiError::Crypto)?;
        if self.count >= self.limit {
            return Err(CactiError::RateLimited);
        }
        self.count += 1;
        let mut plain = challenge;
        plain.extend_from_slice(&self.count.to_be_bytes());
        hpke::seal(rng, origin_pk, b"cacti-response", b"", &plain).map_err(|_| CactiError::Crypto)
    }
}

/// The origin: challenges clients and verifies enclave responses instead
/// of serving CAPTCHAs.
pub struct CactiOrigin {
    kp: hpke::Keypair,
    vendor_name: String,
    /// Challenges issued and not yet answered (nonce values).
    open_challenges: Vec<[u8; 16]>,
    /// Requests admitted.
    pub admitted: u64,
}

impl CactiOrigin {
    /// Create an origin trusting `vendor`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, vendor: &Vendor) -> Self {
        CactiOrigin {
            kp: hpke::Keypair::generate(rng),
            vendor_name: vendor.name().to_string(),
            open_challenges: Vec::new(),
            admitted: 0,
        }
    }

    /// The origin's public key (clients seal responses to it).
    pub fn public_key(&self) -> [u8; 32] {
        self.kp.public
    }

    /// Issue a challenge sealed to an attested enclave. Fails when the
    /// attestation is not from the pinned vendor/program.
    pub fn challenge<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        vendor: &Vendor,
        att: &Attestation,
    ) -> Result<Vec<u8>, CactiError> {
        assert_eq!(vendor.name(), self.vendor_name, "origin pins one vendor");
        let mut nonce = [0u8; 16];
        rng.fill_bytes(&mut nonce);
        let sealed = seal_to_enclave(
            rng,
            vendor,
            RATE_LIMITER_PROGRAM,
            att,
            b"cacti-challenge",
            b"",
            &nonce,
        )
        .map_err(|e| match e {
            SealError::BadAttestation | SealError::WrongProgram => CactiError::BadAttestation,
            SealError::Crypto => CactiError::Crypto,
        })?;
        self.open_challenges.push(nonce);
        Ok(sealed)
    }

    /// Verify an enclave response; admits the request on success.
    pub fn verify(&mut self, response: &[u8]) -> Result<u64, CactiError> {
        let plain = hpke::open(&self.kp, b"cacti-response", b"", response)
            .map_err(|_| CactiError::BadResponse)?;
        if plain.len() != 16 + 8 {
            return Err(CactiError::BadResponse);
        }
        let mut nonce = [0u8; 16];
        nonce.copy_from_slice(&plain[..16]);
        let Some(pos) = self.open_challenges.iter().position(|n| *n == nonce) else {
            return Err(CactiError::BadResponse); // unknown or replayed
        };
        self.open_challenges.remove(pos);
        self.admitted += 1;
        Ok(u64::from_be_bytes(plain[16..].try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1618)
    }

    #[test]
    fn full_flow_admits_without_identity() {
        let mut rng = rng();
        let vendor = Vendor::new(&mut rng, "chipco");
        let mut client = CactiClient::launch(&mut rng, &vendor, 10);
        let mut origin = CactiOrigin::new(&mut rng, &vendor);

        for i in 1..=3u64 {
            let sealed = origin
                .challenge(&mut rng, &vendor, client.attestation())
                .unwrap();
            let resp = client
                .respond(&mut rng, &origin.public_key(), &sealed)
                .unwrap();
            assert_eq!(origin.verify(&resp).unwrap(), i, "counter visible");
        }
        assert_eq!(origin.admitted, 3);
    }

    #[test]
    fn rate_limit_enforced_inside_the_enclave() {
        let mut rng = rng();
        let vendor = Vendor::new(&mut rng, "chipco");
        let mut client = CactiClient::launch(&mut rng, &vendor, 2);
        let mut origin = CactiOrigin::new(&mut rng, &vendor);
        for _ in 0..2 {
            let sealed = origin
                .challenge(&mut rng, &vendor, client.attestation())
                .unwrap();
            let resp = client
                .respond(&mut rng, &origin.public_key(), &sealed)
                .unwrap();
            origin.verify(&resp).unwrap();
        }
        let sealed = origin
            .challenge(&mut rng, &vendor, client.attestation())
            .unwrap();
        assert_eq!(
            client.respond(&mut rng, &origin.public_key(), &sealed),
            Err(CactiError::RateLimited)
        );
    }

    #[test]
    fn wrong_program_attestation_rejected() {
        let mut rng = rng();
        let vendor = Vendor::new(&mut rng, "chipco");
        let mut origin = CactiOrigin::new(&mut rng, &vendor);
        // A genuine enclave running a *different* program.
        let rogue = vendor.launch(&mut rng, b"while true: reply_yes()");
        assert_eq!(
            origin
                .challenge(&mut rng, &vendor, rogue.attestation())
                .unwrap_err(),
            CactiError::BadAttestation
        );
    }

    #[test]
    fn replayed_response_rejected() {
        let mut rng = rng();
        let vendor = Vendor::new(&mut rng, "chipco");
        let mut client = CactiClient::launch(&mut rng, &vendor, 10);
        let mut origin = CactiOrigin::new(&mut rng, &vendor);
        let sealed = origin
            .challenge(&mut rng, &vendor, client.attestation())
            .unwrap();
        let resp = client
            .respond(&mut rng, &origin.public_key(), &sealed)
            .unwrap();
        origin.verify(&resp).unwrap();
        assert_eq!(origin.verify(&resp), Err(CactiError::BadResponse));
    }

    #[test]
    fn host_cannot_forge_without_reading_challenge() {
        // The host OS (no enclave key) fabricates a response with a
        // guessed nonce: it cannot have read the sealed challenge, so the
        // echo check fails.
        let mut rng = rng();
        let vendor = Vendor::new(&mut rng, "chipco");
        let client = CactiClient::launch(&mut rng, &vendor, 10);
        let mut origin = CactiOrigin::new(&mut rng, &vendor);
        let _sealed = origin
            .challenge(&mut rng, &vendor, client.attestation())
            .unwrap();
        let mut forged_plain = [0u8; 24].to_vec(); // wrong nonce
        forged_plain[23] = 1;
        let forged = hpke::seal(
            &mut rng,
            &origin.public_key(),
            b"cacti-response",
            b"",
            &forged_plain,
        )
        .unwrap();
        assert_eq!(origin.verify(&forged), Err(CactiError::BadResponse));
    }
}
