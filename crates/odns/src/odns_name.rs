//! Original-ODNS name obfuscation: carry an encrypted query *inside a
//! domain name* so an unmodified recursive resolver routes it to the
//! oblivious authority for `odns.<suffix>`.
//!
//! The ciphertext is hex-encoded and split into ≤ 60-byte labels:
//! `<hex-chunk-2>.<hex-chunk-1>.<hex-chunk-0>.odns.example`. DNS's
//! 255-byte name budget is tight, so this carries the *question name*
//! (sealed), not a whole message — exactly the original protocol's
//! "obfuscated query" design point.

use dcp_crypto::hpke;
use dcp_crypto::util::{hex_decode, hex_encode};
use dcp_crypto::{CryptoError, Result};
use dcp_dns::DnsName;
use rand::Rng;

/// Max hex characters per DNS label (63 limit, kept at 60 for margin).
const CHUNK: usize = 60;

/// Client: seal `qname` to the oblivious authority's key and encode it as
/// a subdomain of `zone` (e.g. `odns.example`). Also returns the response
/// state.
pub fn obfuscate_query<R: Rng + ?Sized>(
    rng: &mut R,
    target_pk: &[u8; 32],
    qname: &DnsName,
    zone: &DnsName,
) -> Result<(DnsName, hpke::Keypair)> {
    let resp_kp = hpke::Keypair::generate(rng);
    let mut plain = resp_kp.public.to_vec();
    let name_str = qname.to_string();
    plain.extend_from_slice(name_str.as_bytes());
    let sealed = hpke::seal(rng, target_pk, b"odns name", b"", &plain)?;
    let hex = hex_encode(&sealed);

    // Innermost (leftmost) label first; chunks attach right-to-left so the
    // authority can rebuild by reading labels left-to-right.
    let mut name = zone.clone();
    let chunks: Vec<&str> = hex
        .as_bytes()
        .chunks(CHUNK)
        .map(|c| core::str::from_utf8(c).unwrap())
        .collect();
    for chunk in chunks.iter().rev() {
        name = name
            .prepend(chunk.as_bytes())
            .map_err(|_| CryptoError::MessageTooLarge)?;
    }
    Ok((name, resp_kp))
}

/// Authority: recover the sealed blob from an obfuscated name and open it.
/// Returns the original query name and the client's response key.
pub fn deobfuscate_query(
    kp: &hpke::Keypair,
    obfuscated: &DnsName,
    zone: &DnsName,
) -> Result<(DnsName, [u8; 32])> {
    if !obfuscated.is_under(zone) {
        return Err(CryptoError::Malformed);
    }
    let payload_labels = obfuscated.label_count() - zone.label_count();
    let mut hex = String::new();
    for label in obfuscated.labels().iter().take(payload_labels) {
        hex.push_str(core::str::from_utf8(label).map_err(|_| CryptoError::Malformed)?);
    }
    let sealed = hex_decode(&hex).ok_or(CryptoError::Malformed)?;
    let plain = hpke::open(kp, b"odns name", b"", &sealed)?;
    if plain.len() < 32 {
        return Err(CryptoError::Malformed);
    }
    let mut resp_pk = [0u8; 32];
    resp_pk.copy_from_slice(&plain[..32]);
    let qname =
        DnsName::parse(core::str::from_utf8(&plain[32..]).map_err(|_| CryptoError::Malformed)?)
            .map_err(|_| CryptoError::Malformed)?;
    Ok((qname, resp_pk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(606)
    }

    #[test]
    fn obfuscate_roundtrip() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let zone = DnsName::parse("odns.example").unwrap();
        let qname = DnsName::parse("secret.site.com").unwrap();

        let (obf, _resp) = obfuscate_query(&mut rng, &target.public, &qname, &zone).unwrap();
        assert!(obf.is_under(&zone), "routes to the oblivious authority");
        assert!(
            !obf.to_string().contains("secret"),
            "query name hidden: {obf}"
        );
        let (got, resp_pk) = deobfuscate_query(&target, &obf, &zone).unwrap();
        assert_eq!(got, qname);
        assert_eq!(resp_pk.len(), 32);
    }

    #[test]
    fn two_obfuscations_are_unlinkable() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let zone = DnsName::parse("odns.example").unwrap();
        let qname = DnsName::parse("same.site.com").unwrap();
        let (a, _) = obfuscate_query(&mut rng, &target.public, &qname, &zone).unwrap();
        let (b, _) = obfuscate_query(&mut rng, &target.public, &qname, &zone).unwrap();
        assert_ne!(a, b, "same query encrypts differently each time");
    }

    #[test]
    fn wrong_zone_rejected() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let zone = DnsName::parse("odns.example").unwrap();
        let other = DnsName::parse("other.example").unwrap();
        let qname = DnsName::parse("x.test").unwrap();
        let (obf, _) = obfuscate_query(&mut rng, &target.public, &qname, &zone).unwrap();
        assert!(deobfuscate_query(&target, &obf, &other).is_err());
    }

    #[test]
    fn name_length_limit_enforced() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let zone = DnsName::parse("odns.example").unwrap();
        // A long query name blows the 255-byte budget after hex expansion.
        let long = DnsName::parse(&format!("{}.site.com", "a".repeat(60))).unwrap();
        assert!(obfuscate_query(&mut rng, &target.public, &long, &zone).is_err());
    }

    #[test]
    fn wrong_key_cannot_deobfuscate() {
        let mut rng = rng();
        let target = hpke::Keypair::generate(&mut rng);
        let wrong = hpke::Keypair::generate(&mut rng);
        let zone = DnsName::parse("odns.example").unwrap();
        let qname = DnsName::parse("x.test").unwrap();
        let (obf, _) = obfuscate_query(&mut rng, &target.public, &qname, &zone).unwrap();
        assert!(deobfuscate_query(&wrong, &obf, &zone).is_err());
    }

    fn zone() -> DnsName {
        DnsName::parse("odns.example").unwrap()
    }

    /// `labels` prepended to `base`, leftmost last; labels that would
    /// break the name budget are skipped.
    fn under(base: DnsName, labels: &[Vec<u8>]) -> DnsName {
        labels
            .iter()
            .fold(base, |name, l| name.prepend(l).unwrap_or(name))
    }

    proptest! {
        /// The authority decodes every name it is asked for. Labels under
        /// the zone that are not a sealed question — hex or arbitrary
        /// bytes, any count, the bare zone included — are an error.
        #[test]
        fn deobfuscate_rejects_what_is_not_a_sealed_question(
            hex in proptest::collection::vec("[0-9a-f]{1,60}", 0..5),
            raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..=63), 0..3),
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let target = hpke::Keypair::generate(&mut rng);
            let hex: Vec<Vec<u8>> = hex.into_iter().map(String::into_bytes).collect();
            let name = under(under(zone(), &hex), &raw);
            prop_assert!(deobfuscate_query(&target, &name, &zone()).is_err(), "{name}");
        }

        /// Names outside the zone are an error, even when their labels
        /// are a genuine obfuscated question.
        #[test]
        fn deobfuscate_rejects_names_outside_the_zone(
            labels in proptest::collection::vec("[a-z0-9]{1,20}", 0..4),
            suffix in 0usize..5,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let target = hpke::Keypair::generate(&mut rng);
            let qname = DnsName::parse("x.test").unwrap();
            let (obf, _) = obfuscate_query(&mut rng, &target.public, &qname, &zone()).unwrap();
            let sealed = obf.labels()[..obf.label_count() - 2].to_vec();
            let outside = ["", "example", "odns.example.org", "xodns.example", "odns.examples"];
            let base = DnsName::parse(outside[suffix]).unwrap();
            let moved = DnsName::from_labels([sealed, base.labels().to_vec()].concat()).unwrap();
            let labels: Vec<Vec<u8>> = labels.into_iter().map(String::into_bytes).collect();
            for name in [under(base, &labels), moved] {
                prop_assert!(deobfuscate_query(&target, &name, &zone()).is_err(), "{name}");
            }
        }

        /// Obfuscation round-trips every name whose sealed, hex-encoded
        /// form fits the 255-byte name budget, and refuses the rest.
        #[test]
        fn obfuscation_round_trips_names_that_fit(
            labels in proptest::collection::vec("[a-z0-9]{1,16}", 1..5),
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let target = hpke::Keypair::generate(&mut rng);
            let qname = DnsName::parse(&labels.join(".")).unwrap();
            // The sealed plaintext is the response key and the name text.
            let hex = 2 * (32 + qname.to_string().len() + hpke::SEAL_OVERHEAD);
            let wire = hex + hex.div_ceil(CHUNK) + zone().wire_len();
            match obfuscate_query(&mut rng, &target.public, &qname, &zone()) {
                Ok((obf, resp)) => {
                    prop_assert!(wire <= 255, "{qname}: {wire} bytes accepted");
                    let (got, resp_pk) = deobfuscate_query(&target, &obf, &zone()).unwrap();
                    prop_assert_eq!(got, qname);
                    prop_assert_eq!(resp_pk, resp.public);
                }
                Err(_) => prop_assert!(wire > 255, "{qname}: {wire} bytes refused"),
            }
        }
    }
}
