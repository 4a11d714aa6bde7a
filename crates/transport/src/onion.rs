//! Nested ("onion") encryption with per-layer next-hop addressing.
//!
//! One mechanism, three systems from the paper:
//! * Chaum mix-nets (§3.1.2) — each mix strips one layer;
//! * onion routing / Tor — same structure, circuit-oriented;
//! * Multi-Party Relay (§3.2.4) — two nested CONNECT tunnels.
//!
//! Layer format (before sealing): `next_addr:u16be ‖ inner_bytes`, where
//! `next_addr` is the address of the next hop and `inner_bytes` is either
//! another sealed layer or, at the exit, the application payload.
//! [`DELIVER_LOCAL`] marks "this payload is for you".
//!
//! Labels are wrapped in the same nesting as the real HPKE layers, so an
//! intermediate hop's knowledge ledger shows exactly one layer's worth of
//! visibility.

use dcp_core::{KeyId, Label};
use dcp_crypto::hpke;
use rand::Rng;

use crate::{Result, TransportError};

/// Address constant: the payload is for the node that removed the layer.
pub const DELIVER_LOCAL: u16 = 0xffff;

/// One hop's public material.
#[derive(Clone)]
pub struct Hop {
    /// Protocol-level address of this hop (the *previous* hop forwards to
    /// this address).
    pub addr: u16,
    /// The hop's HPKE public key.
    pub pk: [u8; 32],
    /// The world key id mirroring the hop's private key.
    pub key_id: KeyId,
}

/// Build an onion through `hops` (first element = first hop entered).
///
/// The innermost layer instructs the final hop to deliver locally; every
/// outer layer instructs hop *k* to forward to hop *k+1*. Returns the
/// outermost ciphertext and the identically-nested label.
pub fn wrap<R: Rng + ?Sized>(
    rng: &mut R,
    hops: &[Hop],
    payload: &[u8],
    payload_label: Label,
) -> Result<(Vec<u8>, Label)> {
    assert!(!hops.is_empty(), "onion needs at least one hop");
    let mut bytes = payload.to_vec();
    let mut label = payload_label;
    for (i, hop) in hops.iter().enumerate().rev() {
        let next_addr = if i + 1 < hops.len() {
            hops[i + 1].addr
        } else {
            DELIVER_LOCAL
        };
        let mut plain = next_addr.to_be_bytes().to_vec();
        plain.extend_from_slice(&bytes);
        bytes = hpke::seal(rng, &hop.pk, b"dcp-onion", b"", &plain)?;
        label = label.sealed(hop.key_id);
    }
    Ok((bytes, label))
}

/// Result of removing one layer.
#[derive(Debug, PartialEq, Eq)]
pub enum Unwrapped {
    /// Forward `bytes` to `next`.
    Forward {
        /// Next hop address.
        next: u16,
        /// The remaining onion.
        bytes: Vec<u8>,
    },
    /// The payload is for this hop.
    Deliver {
        /// Application payload.
        payload: Vec<u8>,
    },
}

/// Remove one layer with this hop's keypair.
pub fn unwrap_layer(kp: &hpke::Keypair, bytes: &[u8]) -> Result<Unwrapped> {
    let plain = hpke::open(kp, b"dcp-onion", b"", bytes)?;
    if plain.len() < 2 {
        return Err(TransportError::BadFrame);
    }
    let next = u16::from_be_bytes([plain[0], plain[1]]);
    let rest = plain[2..].to_vec();
    Ok(if next == DELIVER_LOCAL {
        Unwrapped::Deliver { payload: rest }
    } else {
        Unwrapped::Forward { next, bytes: rest }
    })
}

/// Unwrap the matching label layer (callers keep bytes/labels in sync).
///
/// Errors with [`TransportError::LabelDesync`] when the label is not
/// sealed under `key_id`. A hostile or mis-routed message can reach this
/// path, so the desync is a typed error the caller drops on — never a
/// panic.
pub fn unwrap_label(label: &Label, key_id: KeyId) -> Result<Label> {
    match label {
        Label::Sealed { key, inner } if *key == key_id => Ok((**inner).clone()),
        _ => Err(TransportError::LabelDesync),
    }
}

/// Per-layer ciphertext growth: each layer adds the 2-byte address plus
/// HPKE's encapsulated key and AEAD tag.
pub const LAYER_OVERHEAD: usize = 2 + hpke::SEAL_OVERHEAD;

/// Length of the cleartext epoch tag prefixed to every fleet layer.
pub const EPOCH_TAG_LEN: usize = 8;

/// One hop's public material plus the key *epoch* it was published
/// under. Fleet-enabled wirings build their onions from directory
/// descriptors, and every layer carries its epoch in the clear so the
/// receiving relay can select (or fail-closed reject) the matching
/// keypair *before* any decryption is attempted.
#[derive(Clone)]
pub struct EpochHop {
    /// The hop's address, public key, and world key id.
    pub hop: Hop,
    /// Epoch number the public key belongs to (from the hop's signed
    /// relay descriptor).
    pub epoch: u64,
}

/// Build an epoch-tagged onion through `hops`.
///
/// Layer format: `epoch:u64be ‖ sealed(next_addr:u16be ‖ inner)` — like
/// [`wrap`], but each layer is prefixed with the cleartext epoch of the
/// key that sealed it. The innermost layer addresses `exit_addr`:
/// [`DELIVER_LOCAL`] keeps the exit payload at the last hop (MPR's exit
/// relay forwards to the origin itself), while a real address makes the
/// last fleet hop forward the raw `payload` there (a mix-net handing the
/// receiver its own, separately sealed, ciphertext).
///
/// The label nests exactly as in [`wrap`]: epochs are routing metadata,
/// not information content — a fresh epoch key is a fresh `KeyId` held
/// by the *same* entity, so knowledge ledgers are epoch-invariant.
pub fn wrap_epochs<R: Rng + ?Sized>(
    rng: &mut R,
    hops: &[EpochHop],
    exit_addr: u16,
    payload: &[u8],
    payload_label: Label,
) -> Result<(Vec<u8>, Label)> {
    assert!(!hops.is_empty(), "onion needs at least one hop");
    let mut bytes = payload.to_vec();
    let mut label = payload_label;
    for (i, eh) in hops.iter().enumerate().rev() {
        let next_addr = if i + 1 < hops.len() {
            hops[i + 1].hop.addr
        } else {
            exit_addr
        };
        let mut plain = next_addr.to_be_bytes().to_vec();
        plain.extend_from_slice(&bytes);
        let sealed = hpke::seal(rng, &eh.hop.pk, b"dcp-onion", b"", &plain)?;
        bytes = eh.epoch.to_be_bytes().to_vec();
        bytes.extend_from_slice(&sealed);
        label = label.sealed(eh.hop.key_id);
    }
    Ok((bytes, label))
}

/// Split an epoch-tagged layer into `(epoch, ciphertext)`, fail-closed:
/// a frame too short to carry the tag is [`TransportError::BadFrame`],
/// never a panic or a guessed epoch.
pub fn read_epoch(bytes: &[u8]) -> Result<(u64, &[u8])> {
    if bytes.len() < EPOCH_TAG_LEN {
        return Err(TransportError::BadFrame);
    }
    let mut tag = [0u8; EPOCH_TAG_LEN];
    tag.copy_from_slice(&bytes[..EPOCH_TAG_LEN]);
    Ok((u64::from_be_bytes(tag), &bytes[EPOCH_TAG_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{DataKind, InfoItem, UserId};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    fn make_hops<R: Rng>(rng: &mut R, n: usize) -> (Vec<Hop>, Vec<hpke::Keypair>) {
        let mut hops = Vec::new();
        let mut kps = Vec::new();
        for i in 0..n {
            let kp = hpke::Keypair::generate(rng);
            hops.push(Hop {
                addr: 100 + i as u16,
                pk: kp.public,
                key_id: KeyId(i as u64),
            });
            kps.push(kp);
        }
        (hops, kps)
    }

    #[test]
    fn three_hop_onion_peels_in_order() {
        let mut rng = rng();
        let (hops, kps) = make_hops(&mut rng, 3);
        let item = InfoItem::sensitive_data(UserId(0), DataKind::Message);
        let (bytes, label) = wrap(&mut rng, &hops, b"the payload", Label::item(item)).unwrap();
        assert_eq!(label.seal_depth(), 3);

        // Hop 0 forwards to hop 1's address.
        let u0 = unwrap_layer(&kps[0], &bytes).unwrap();
        let (next, bytes1) = match u0 {
            Unwrapped::Forward { next, bytes } => (next, bytes),
            _ => panic!("expected forward"),
        };
        assert_eq!(next, 101);

        let u1 = unwrap_layer(&kps[1], &bytes1).unwrap();
        let (next, bytes2) = match u1 {
            Unwrapped::Forward { next, bytes } => (next, bytes),
            _ => panic!("expected forward"),
        };
        assert_eq!(next, 102);

        // Final hop delivers.
        match unwrap_layer(&kps[2], &bytes2).unwrap() {
            Unwrapped::Deliver { payload } => assert_eq!(payload, b"the payload"),
            _ => panic!("expected deliver"),
        }
    }

    #[test]
    fn single_hop_delivers_immediately() {
        let mut rng = rng();
        let (hops, kps) = make_hops(&mut rng, 1);
        let (bytes, label) = wrap(&mut rng, &hops, b"hi", Label::Public).unwrap();
        assert_eq!(label.seal_depth(), 1);
        assert_eq!(
            unwrap_layer(&kps[0], &bytes).unwrap(),
            Unwrapped::Deliver {
                payload: b"hi".to_vec()
            }
        );
    }

    #[test]
    fn wrong_hop_cannot_peel() {
        let mut rng = rng();
        let (hops, kps) = make_hops(&mut rng, 2);
        let (bytes, _) = wrap(&mut rng, &hops, b"x", Label::Public).unwrap();
        // Hop 1's key cannot remove hop 0's layer.
        assert!(unwrap_layer(&kps[1], &bytes).is_err());
    }

    #[test]
    fn middle_hop_sees_no_payload_or_destination() {
        // The information-flow version of the same fact, via labels.
        let mut rng = rng();
        let (hops, _) = make_hops(&mut rng, 3);
        let item = InfoItem::sensitive_data(UserId(0), DataKind::Destination);
        let (_, label) = wrap(&mut rng, &hops, b"GET /", Label::item(item.clone())).unwrap();
        // Holding only the middle key opens nothing (outer layer blocks).
        let seen = label.observe(|k| k == KeyId(1));
        assert!(seen.is_empty());
        // Holding all three keys reveals the payload item.
        assert!(label.observe(|_| true).contains(&item));
    }

    #[test]
    fn layer_overhead_is_constant() {
        let mut rng = rng();
        let (hops, _) = make_hops(&mut rng, 4);
        let payload = vec![0u8; 64];
        for n in 1..=4 {
            let (bytes, _) = wrap(&mut rng, &hops[..n], &payload, Label::Public).unwrap();
            assert_eq!(
                bytes.len(),
                payload.len() + n * LAYER_OVERHEAD,
                "{n} layers"
            );
        }
    }

    #[test]
    fn tampered_onion_rejected() {
        let mut rng = rng();
        let (hops, kps) = make_hops(&mut rng, 2);
        let (mut bytes, _) = wrap(&mut rng, &hops, b"x", Label::Public).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(unwrap_layer(&kps[0], &bytes).is_err());
    }

    #[test]
    fn epoch_onion_carries_tags_and_peels_in_order() {
        let mut rng = rng();
        let (hops, kps) = make_hops(&mut rng, 3);
        let ehops: Vec<EpochHop> = hops
            .iter()
            .enumerate()
            .map(|(i, h)| EpochHop {
                hop: h.clone(),
                epoch: 10 + i as u64,
            })
            .collect();
        let (bytes, label) = wrap_epochs(
            &mut rng,
            &ehops,
            DELIVER_LOCAL,
            b"exit payload",
            Label::Public,
        )
        .unwrap();
        assert_eq!(label.seal_depth(), 3);

        // Hop 0: tag says epoch 10, layer peels, forwards to hop 1.
        let (epoch, cipher) = read_epoch(&bytes).unwrap();
        assert_eq!(epoch, 10);
        let (next, bytes1) = match unwrap_layer(&kps[0], cipher).unwrap() {
            Unwrapped::Forward { next, bytes } => (next, bytes),
            _ => panic!("expected forward"),
        };
        assert_eq!(next, 101);

        let (epoch, cipher) = read_epoch(&bytes1).unwrap();
        assert_eq!(epoch, 11);
        let (next, bytes2) = match unwrap_layer(&kps[1], cipher).unwrap() {
            Unwrapped::Forward { next, bytes } => (next, bytes),
            _ => panic!("expected forward"),
        };
        assert_eq!(next, 102);

        let (epoch, cipher) = read_epoch(&bytes2).unwrap();
        assert_eq!(epoch, 12);
        match unwrap_layer(&kps[2], cipher).unwrap() {
            Unwrapped::Deliver { payload } => assert_eq!(payload, b"exit payload"),
            _ => panic!("expected deliver"),
        }
    }

    #[test]
    fn epoch_onion_with_real_exit_addr_forwards_raw_payload() {
        // The mix-net shape: the last fleet hop forwards the (separately
        // sealed) receiver ciphertext to the receiver's address.
        let mut rng = rng();
        let (hops, kps) = make_hops(&mut rng, 2);
        let ehops: Vec<EpochHop> = hops
            .iter()
            .map(|h| EpochHop {
                hop: h.clone(),
                epoch: 0,
            })
            .collect();
        let (bytes, _) =
            wrap_epochs(&mut rng, &ehops, 1000, b"receiver-cipher", Label::Public).unwrap();
        let (_, cipher) = read_epoch(&bytes).unwrap();
        let Unwrapped::Forward { bytes: b1, .. } = unwrap_layer(&kps[0], cipher).unwrap() else {
            panic!("expected forward");
        };
        let (_, cipher) = read_epoch(&b1).unwrap();
        match unwrap_layer(&kps[1], cipher).unwrap() {
            Unwrapped::Forward { next, bytes } => {
                assert_eq!(next, 1000, "exit addr is a real address");
                assert_eq!(bytes, b"receiver-cipher", "payload forwarded untouched");
            }
            _ => panic!("expected forward to the exit"),
        }
    }

    #[test]
    fn epoch_tag_read_fails_closed_on_short_frames() {
        for len in 0..EPOCH_TAG_LEN {
            assert_eq!(
                read_epoch(&vec![0u8; len]).unwrap_err(),
                TransportError::BadFrame,
                "{len} bytes"
            );
        }
        let (epoch, rest) = read_epoch(&[0, 0, 0, 0, 0, 0, 0, 7]).unwrap();
        assert_eq!(epoch, 7);
        assert!(rest.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        /// A relay runs `unwrap_layer` on bytes from any sender:
        /// arbitrary bytes, a valid layer with one flipped bit, and a
        /// truncated layer are typed errors, never a panic.
        #[test]
        fn unwrap_layer_fails_closed_on_hostile_bytes(
            junk in proptest::collection::vec(any::<u8>(), 0..160),
            payload in proptest::collection::vec(any::<u8>(), 0..48),
            (at, bit, cut) in (any::<usize>(), 0u8..8, any::<usize>()),
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (hops, kps) = make_hops(&mut rng, 1);
            prop_assert!(unwrap_layer(&kps[0], &junk).is_err());
            let (layer, _) = wrap(&mut rng, &hops, &payload, Label::Public).unwrap();
            prop_assert_eq!(
                unwrap_layer(&kps[0], &layer).unwrap(),
                Unwrapped::Deliver { payload }
            );
            let mut flipped = layer.clone();
            flipped[at % layer.len()] ^= 1 << bit;
            prop_assert!(unwrap_layer(&kps[0], &flipped).is_err());
            prop_assert!(unwrap_layer(&kps[0], &layer[..cut % layer.len()]).is_err());
        }

        /// `read_epoch` accepts any 8 or more bytes and hands back the
        /// tag they carry. On a fleet layer, a flipped bit lands in the
        /// tag (naming another epoch, so another key) or in the sealed
        /// layer (which no longer opens), and a cut-short layer fails in
        /// one of the two steps.
        #[test]
        fn read_epoch_round_trips_and_fails_closed(
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
            epoch in any::<u64>(),
            (at, bit, cut) in (any::<usize>(), 0u8..8, any::<usize>()),
            seed in any::<u64>(),
        ) {
            match read_epoch(&bytes) {
                Ok((tag, rest)) => {
                    prop_assert_eq!(&tag.to_be_bytes()[..], &bytes[..EPOCH_TAG_LEN]);
                    prop_assert_eq!(rest, &bytes[EPOCH_TAG_LEN..]);
                }
                Err(e) => {
                    prop_assert!(bytes.len() < EPOCH_TAG_LEN);
                    prop_assert_eq!(e, TransportError::BadFrame);
                }
            }
            let mut tagged = epoch.to_be_bytes().to_vec();
            tagged.extend_from_slice(&bytes);
            prop_assert_eq!(read_epoch(&tagged).unwrap(), (epoch, &bytes[..]));

            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (hops, kps) = make_hops(&mut rng, 1);
            let ehops = [EpochHop { hop: hops[0].clone(), epoch }];
            let (layer, _) =
                wrap_epochs(&mut rng, &ehops, DELIVER_LOCAL, &bytes, Label::Public).unwrap();
            let mut flipped = layer.clone();
            flipped[at % layer.len()] ^= 1 << bit;
            let (tag, sealed) = read_epoch(&flipped).unwrap();
            prop_assert!(tag != epoch || unwrap_layer(&kps[0], sealed).is_err());
            match read_epoch(&layer[..cut % layer.len()]) {
                Ok((tag, sealed)) => {
                    prop_assert_eq!(tag, epoch);
                    prop_assert!(unwrap_layer(&kps[0], sealed).is_err());
                }
                Err(e) => prop_assert_eq!(e, TransportError::BadFrame),
            }
        }
    }

    #[test]
    fn unwrap_label_peels_one_layer() {
        let label = Label::Public.sealed(KeyId(1)).sealed(KeyId(0));
        let inner = unwrap_label(&label, KeyId(0)).unwrap();
        assert_eq!(inner.seal_depth(), 1);
        let core = unwrap_label(&inner, KeyId(1)).unwrap();
        assert_eq!(core, Label::Public);
    }

    #[test]
    fn unwrap_label_detects_wrong_key() {
        let label = Label::Public.sealed(KeyId(0));
        assert_eq!(
            unwrap_label(&label, KeyId(9)).unwrap_err(),
            TransportError::LabelDesync
        );
        // An unsealed label under any key is equally a desync.
        assert_eq!(
            unwrap_label(&Label::Public, KeyId(0)).unwrap_err(),
            TransportError::LabelDesync
        );
    }
}
