//! Signed relay descriptors: the unit of state the directory gossips.
//!
//! A descriptor is two independent last-writer-wins registers packed in
//! one record, each with a single author:
//!
//! * the **key register** (`epoch`, `pk`, `key`) — authored only by the
//!   relay itself, versioned by `epoch`;
//! * the **membership register** (`member_seq`, `servable`) — authored
//!   only by the lead directory's churn process, versioned by
//!   `member_seq`.
//!
//! [`RelayDescriptor::merge`] takes the newer value of each register
//! independently, which makes the merge commutative, associative, and
//! idempotent — directories converge regardless of gossip order, and a
//! relay rotating its key can never resurrect a membership tombstone
//! (its published descriptors carry `member_seq = 0`). The laws rest on
//! one writer per version: a register's value is a function of its
//! version, which single authorship gives.
//!
//! On the wire every descriptor is authenticated with an HMAC under the
//! fleet's shared directory secret; verification is fail-closed — a
//! truncated or forged record is a typed [`DescriptorError`], never a
//! panic and never a silent partial merge.

use dcp_crypto::hmac::{hmac_sha256, hmac_verify};

/// Fixed encoded length of one descriptor (without its tag).
pub const DESC_LEN: usize = 2 + 2 + 8 + 32 + 8 + 8 + 1;

/// HMAC-SHA256 tag length appended to each signed descriptor.
pub const TAG_LEN: usize = 32;

/// Encoded length of one signed descriptor.
pub const SIGNED_LEN: usize = DESC_LEN + TAG_LEN;

/// One relay's directory entry. See the module docs for the two-register
/// merge semantics.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct RelayDescriptor {
    /// Fleet index of the relay (stable across epochs and churn).
    pub relay: u16,
    /// Protocol address the relay serves on (immutable after genesis).
    pub addr: u16,
    /// Key epoch this descriptor's public key belongs to.
    pub epoch: u64,
    /// The relay's current HPKE public key.
    pub pk: [u8; 32],
    /// Raw [`dcp_core::KeyId`] mirroring the private key in the world.
    pub key: u64,
    /// Version of the membership register (bumped by churn edits).
    pub member_seq: u64,
    /// Whether the relay is currently admitted for selection.
    pub servable: bool,
}

/// Typed failure of descriptor decode/verify — always an error, never a
/// panic or a guess.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DescriptorError {
    /// Frame shorter than the fixed layout requires.
    Truncated {
        /// Bytes present.
        got: usize,
        /// Bytes required.
        need: usize,
    },
    /// HMAC verification failed (forged or corrupted record).
    BadTag {
        /// Claimed relay index, for the log.
        relay: u16,
    },
    /// The `servable` byte was neither 0 nor 1.
    BadBool,
}

impl std::fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DescriptorError::Truncated { got, need } => {
                write!(f, "descriptor truncated: {got} bytes, need {need}")
            }
            DescriptorError::BadTag { relay } => {
                write!(f, "descriptor for relay {relay} failed HMAC verification")
            }
            DescriptorError::BadBool => write!(f, "descriptor servable byte out of range"),
        }
    }
}

impl std::error::Error for DescriptorError {}

impl RelayDescriptor {
    /// Canonical fixed-layout encoding (big-endian throughout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(DESC_LEN);
        out.extend_from_slice(&self.relay.to_be_bytes());
        out.extend_from_slice(&self.addr.to_be_bytes());
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.pk);
        out.extend_from_slice(&self.key.to_be_bytes());
        out.extend_from_slice(&self.member_seq.to_be_bytes());
        out.push(self.servable as u8);
        out
    }

    /// Decode a bare (unsigned) descriptor, fail-closed.
    pub fn decode(bytes: &[u8]) -> Result<RelayDescriptor, DescriptorError> {
        if bytes.len() < DESC_LEN {
            return Err(DescriptorError::Truncated {
                got: bytes.len(),
                need: DESC_LEN,
            });
        }
        let mut pk = [0u8; 32];
        pk.copy_from_slice(&bytes[12..44]);
        let servable = match bytes[60] {
            0 => false,
            1 => true,
            _ => return Err(DescriptorError::BadBool),
        };
        Ok(RelayDescriptor {
            relay: u16::from_be_bytes([bytes[0], bytes[1]]),
            addr: u16::from_be_bytes([bytes[2], bytes[3]]),
            epoch: u64::from_be_bytes(bytes[4..12].try_into().unwrap()),
            pk,
            key: u64::from_be_bytes(bytes[44..52].try_into().unwrap()),
            member_seq: u64::from_be_bytes(bytes[52..60].try_into().unwrap()),
            servable,
        })
    }

    /// Encode and append an HMAC tag under the fleet secret.
    pub fn sign(&self, secret: &[u8; 32]) -> Vec<u8> {
        let mut out = self.encode();
        let tag = hmac_sha256(secret, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verify and decode a signed descriptor, fail-closed: the tag is
    /// checked before any field is interpreted.
    pub fn verify(secret: &[u8; 32], bytes: &[u8]) -> Result<RelayDescriptor, DescriptorError> {
        if bytes.len() < SIGNED_LEN {
            return Err(DescriptorError::Truncated {
                got: bytes.len(),
                need: SIGNED_LEN,
            });
        }
        let (body, tag) = bytes.split_at(DESC_LEN);
        if !hmac_verify(secret, body, &tag[..TAG_LEN]) {
            let relay = u16::from_be_bytes([bytes[0], bytes[1]]);
            return Err(DescriptorError::BadTag { relay });
        }
        RelayDescriptor::decode(body)
    }

    /// Fold `other` into `self`, taking the newer value of each register
    /// independently. Returns `true` if anything changed.
    ///
    /// Commutative, associative and idempotent provided there is one
    /// writer per version: descriptors with equal `epoch`s carry the same
    /// `pk` and `key`, and ones with equal `member_seq`s the same
    /// `servable`. Each register's single author bumps its version on
    /// every write, so this holds. Equal versions with different values
    /// do not commute: each side keeps its own.
    pub fn merge(&mut self, other: &RelayDescriptor) -> bool {
        debug_assert_eq!(self.relay, other.relay, "merge across relay indices");
        let mut changed = false;
        if other.epoch > self.epoch {
            self.epoch = other.epoch;
            self.pk = other.pk;
            self.key = other.key;
            changed = true;
        }
        if other.member_seq > self.member_seq {
            self.member_seq = other.member_seq;
            self.servable = other.servable;
            changed = true;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any descriptor round-trips, bare and signed. Arbitrary bytes
        /// never panic the decoder or the verifier, and bytes that decode
        /// re-encode to their first `DESC_LEN` bytes.
        #[test]
        fn descriptor_decoding_round_trips_and_fails_closed(
            fields in (
                any::<u16>(),
                any::<u16>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<bool>(),
            ),
            pk in collection::vec(any::<u8>(), 32),
            bytes in collection::vec(any::<u8>(), 0..2 * SIGNED_LEN),
        ) {
            let (relay, addr, epoch, key, member_seq, servable) = fields;
            let d = RelayDescriptor {
                relay,
                addr,
                epoch,
                pk: pk.try_into().unwrap(),
                key,
                member_seq,
                servable,
            };
            let secret = [9u8; 32];
            prop_assert_eq!(RelayDescriptor::decode(&d.encode()), Ok(d.clone()));
            prop_assert_eq!(RelayDescriptor::verify(&secret, &d.sign(&secret)), Ok(d));
            if let Ok(back) = RelayDescriptor::decode(&bytes) {
                prop_assert_eq!(&back.encode()[..], &bytes[..DESC_LEN]);
            }
            prop_assert!(RelayDescriptor::verify(&secret, &bytes).is_err());
        }
    }

    fn desc(relay: u16) -> RelayDescriptor {
        RelayDescriptor {
            relay,
            addr: 100 + relay,
            epoch: 0,
            pk: [relay as u8; 32],
            key: 7,
            member_seq: 0,
            servable: true,
        }
    }

    #[test]
    fn roundtrip_signed() {
        let secret = [9u8; 32];
        let d = desc(3);
        let wire = d.sign(&secret);
        assert_eq!(wire.len(), SIGNED_LEN);
        assert_eq!(RelayDescriptor::verify(&secret, &wire).unwrap(), d);
    }

    #[test]
    fn verification_is_fail_closed() {
        let secret = [9u8; 32];
        let mut wire = desc(3).sign(&secret);
        // Truncation at every prefix length is a typed error.
        for cut in 0..SIGNED_LEN {
            assert!(matches!(
                RelayDescriptor::verify(&secret, &wire[..cut]),
                Err(DescriptorError::Truncated { .. })
            ));
        }
        // A single flipped bit anywhere breaks the tag.
        wire[20] ^= 1;
        assert!(matches!(
            RelayDescriptor::verify(&secret, &wire),
            Err(DescriptorError::BadTag { relay: 3 })
        ));
        wire[20] ^= 1;
        // The wrong secret also fails closed.
        assert!(RelayDescriptor::verify(&[0u8; 32], &wire).is_err());
    }

    #[test]
    fn merge_registers_are_independent() {
        // A rotation (epoch register) merged into a tombstoned entry
        // must NOT resurrect membership.
        let mut tombstoned = desc(1);
        tombstoned.member_seq = 4;
        tombstoned.servable = false;

        let mut rotated = desc(1);
        rotated.epoch = 2;
        rotated.pk = [0xAA; 32];
        rotated.key = 99;
        // Relay-published descriptors always carry member_seq = 0.

        assert!(tombstoned.merge(&rotated));
        assert_eq!(tombstoned.epoch, 2);
        assert_eq!(tombstoned.key, 99);
        assert!(!tombstoned.servable, "rotation resurrected a tombstone");

        // And a churn edit does not roll back a newer key.
        let mut fresh = rotated.clone();
        let mut readmit = desc(1);
        readmit.member_seq = 5;
        readmit.servable = true;
        assert!(fresh.merge(&readmit));
        assert_eq!(fresh.epoch, 2, "membership edit rolled back the key");
        assert!(fresh.servable);
    }

    /// Every descriptor of a small domain in which each register's value
    /// is a function of its version (one writer per version).
    fn one_writer_domain() -> Vec<RelayDescriptor> {
        let mut out = Vec::new();
        for epoch in 0..3u64 {
            for member_seq in 0..3u64 {
                out.push(RelayDescriptor {
                    epoch,
                    pk: [epoch as u8; 32],
                    key: 10 + epoch,
                    member_seq,
                    servable: member_seq % 2 == 0,
                    ..desc(5)
                });
            }
        }
        out
    }

    fn merged(a: &RelayDescriptor, b: &RelayDescriptor) -> RelayDescriptor {
        let mut out = a.clone();
        let changed = out.merge(b);
        assert_eq!(changed, out != *a, "merge's flag says whether it changed");
        out
    }

    #[test]
    fn merge_laws_hold_exhaustively_under_one_writer_per_version() {
        let domain = one_writer_domain();
        for a in &domain {
            assert_eq!(merged(a, a), *a, "idempotent");
            for b in &domain {
                let ab = merged(a, b);
                assert_eq!(ab, merged(b, a), "commutative");
                assert_eq!(merged(&ab, b), ab, "absorbs an input");
                for c in &domain {
                    assert_eq!(merged(&ab, c), merged(a, &merged(b, c)), "associative");
                }
            }
        }
    }

    #[test]
    fn equal_versions_with_different_values_do_not_commute() {
        let a = desc(5);
        let b = RelayDescriptor {
            pk: [0xEE; 32],
            servable: false,
            ..desc(5)
        };
        assert_eq!(merged(&a, &b), a);
        assert_eq!(merged(&b, &a), b);
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let mut a = desc(2);
        a.epoch = 3;
        let mut b = desc(2);
        b.member_seq = 7;
        b.servable = false;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert!(!ab.merge(&b), "second merge of same value changed state");
        assert!(!ab.merge(&a));
    }
}
