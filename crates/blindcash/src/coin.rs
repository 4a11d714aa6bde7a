//! Coins: `serial ‖ signature`, one fixed denomination.

use dcp_crypto::rsa::RsaPublicKey;
use dcp_crypto::{CryptoError, Result};
use rand::Rng;

/// Length of a coin serial number.
pub const SERIAL_LEN: usize = 32;

/// A bearer coin: a random serial certified by the bank's blind signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coin {
    /// The (unblinded) serial number.
    pub serial: [u8; SERIAL_LEN],
    /// The bank's PKCS#1 v1.5 signature over the serial.
    pub signature: Vec<u8>,
}

impl Coin {
    /// Draw a fresh random serial.
    pub fn new_serial<R: Rng + ?Sized>(rng: &mut R) -> [u8; SERIAL_LEN] {
        let mut s = [0u8; SERIAL_LEN];
        rng.fill_bytes(&mut s);
        s
    }

    /// Verify the coin against the bank's public key.
    pub fn verify(&self, bank_pk: &RsaPublicKey) -> Result<()> {
        bank_pk.verify(&self.serial, &self.signature)
    }

    /// Wire encoding: `serial ‖ signature`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.serial.to_vec();
        out.extend_from_slice(&self.signature);
        out
    }

    /// Decode from wire bytes given the bank's modulus length.
    pub fn decode(bytes: &[u8], sig_len: usize) -> Result<Coin> {
        if bytes.len().checked_sub(SERIAL_LEN) != Some(sig_len) {
            return Err(CryptoError::Malformed);
        }
        let mut serial = [0u8; SERIAL_LEN];
        serial.copy_from_slice(&bytes[..SERIAL_LEN]);
        Ok(Coin {
            serial,
            signature: bytes[SERIAL_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_crypto::rsa::RsaPrivateKey;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        /// A coin round-trips at any signature length. Arbitrary bytes
        /// decode exactly when they hold a serial and `sig_len` more
        /// bytes, and then re-encode to themselves, even for a `sig_len`
        /// near `usize::MAX`.
        #[test]
        fn coin_decoding_round_trips_and_fails_closed(
            serial in collection::vec(any::<u8>(), SERIAL_LEN),
            signature in collection::vec(any::<u8>(), 0..300),
            bytes in collection::vec(any::<u8>(), 0..80),
            sig_len in prop_oneof![0usize..48, (usize::MAX - 48)..=usize::MAX],
        ) {
            let coin = Coin {
                serial: serial.try_into().unwrap(),
                signature,
            };
            prop_assert_eq!(Coin::decode(&coin.encode(), coin.signature.len()), Ok(coin.clone()));
            match Coin::decode(&bytes, sig_len) {
                Ok(back) => prop_assert_eq!(back.encode(), bytes),
                Err(_) => prop_assert!(bytes.len().checked_sub(SERIAL_LEN) != Some(sig_len)),
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = RsaPrivateKey::generate(&mut rng, 512).unwrap();
        let serial = Coin::new_serial(&mut rng);
        let coin = Coin {
            serial,
            signature: sk.sign(&serial).unwrap(),
        };
        coin.verify(sk.public_key()).unwrap();
        let wire = coin.encode();
        let back = Coin::decode(&wire, sk.public_key().modulus_len()).unwrap();
        assert_eq!(back, coin);
        assert!(Coin::decode(&wire[..10], sk.public_key().modulus_len()).is_err());
    }

    #[test]
    fn forged_coin_fails_verification() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sk = RsaPrivateKey::generate(&mut rng, 512).unwrap();
        let serial = Coin::new_serial(&mut rng);
        let coin = Coin {
            serial,
            signature: vec![0x41; sk.public_key().modulus_len()],
        };
        assert!(coin.verify(sk.public_key()).is_err());
    }
}
