//! The sim/prod duality, held to bytes: each servable wiring — blind
//! cash, Privacy Pass, ODoH, legacy ODNS, direct DNS and MPR — served
//! over real loopback TCP must
//! finish its workload and produce knowledge tables **byte-identical** to the
//! deterministic simulator's run of the same config and seed — and the
//! production decoder must shrug off hostile bytes, both in-process
//! (proptest against `FrameReader`) and on a live socket (a rogue
//! connection spraying garbage mid-run).

use std::time::Duration;

use dcp_blindcash::{blindcash_serve_spec, Blindcash, BlindcashConfig};
use dcp_core::{Scenario, World};
use dcp_faults::dst::KnowledgeFingerprint;
use dcp_mpr::{mpr_serve_spec, ChainConfig, Mpr};
use dcp_odns::serve::{direct_serve_spec, odns_legacy_serve_spec, odoh_serve_spec};
use dcp_odns::{DirectDns, DirectDnsConfig, OdnsLegacy, OdnsLegacyConfig, Odoh, OdohConfig};
use dcp_privacypass::{privacypass_serve_spec, Privacypass, PrivacypassConfig};
use dcp_runtime::seam::ServeSpec;
use dcp_serve::{run_loopback, FrameReader, ServeConfig, MAX_FRAME_PAYLOAD};
use proptest::prelude::*;

fn serve_cfg(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

/// Serve a wiring over loopback TCP and compare against the world of
/// its simulated twin. JSON-serializing both fingerprints makes the
/// comparison literal bytes, not just `PartialEq`.
fn assert_twin(spec: ServeSpec, seed: u64, twin: World) {
    let outcome = run_loopback(spec, &serve_cfg(seed)).expect("serve runs");
    assert_eq!(
        outcome.completed_units, outcome.expected_units,
        "every query answered over real sockets"
    );
    let served = serde_json::to_string(&KnowledgeFingerprint::of(&outcome.world)).unwrap();
    let simmed = serde_json::to_string(&KnowledgeFingerprint::of(&twin)).unwrap();
    assert_eq!(
        served, simmed,
        "served knowledge tables must be byte-identical to the simulated twin"
    );
}

#[test]
fn odoh_over_loopback_matches_simulated_twin() {
    let cfg = OdohConfig::new(1, 4);
    assert_twin(odoh_serve_spec(&cfg, 7), 7, Odoh::run(&cfg, 7).world);
}

#[test]
fn odoh_multi_client_loopback_matches_simulated_twin() {
    // Three clients interleave on real sockets in nondeterministic
    // order; the tables must not care.
    let cfg = OdohConfig::new(3, 4);
    assert_twin(
        odoh_serve_spec(&cfg, 1004),
        1004,
        Odoh::run(&cfg, 1004).world,
    );
}

#[test]
fn odns_legacy_loopback_matches_simulated_twin() {
    let cfg = OdnsLegacyConfig::new(2, 3);
    let twin = OdnsLegacy::run(&cfg, 1005).world;
    assert_twin(odns_legacy_serve_spec(&cfg, 1005), 1005, twin);
}

#[test]
fn direct_dns_loopback_matches_simulated_twin() {
    // Two resolvers: which resolver sees which name is the client's own
    // seeded draw, so it cannot depend on the engine.
    let cfg = DirectDnsConfig::new(2, 3, 2);
    let twin = DirectDns::run(&cfg, 1006).world;
    assert_twin(direct_serve_spec(&cfg, 1006), 1006, twin);
}

#[test]
fn mpr_loopback_matches_simulated_twin() {
    // Two users' fetches interleave through the same two relays; each
    // response must find its way back to the user who asked.
    let cfg = ChainConfig {
        relays: 2,
        users: 2,
        fetches_each: 3,
        geohint: false,
        seed: 1007,
    };
    assert_twin(mpr_serve_spec(&cfg, 1007), 1007, Mpr::run(&cfg, 1007).world);
}

#[test]
fn privacypass_loopback_matches_simulated_twin() {
    // Two clients' redemptions interleave at the origin; each verdict
    // must return to the client whose token it judged.
    let cfg = PrivacypassConfig::new(2, 3);
    let spec = privacypass_serve_spec(&cfg, 1008).expect("one batch covers three redemptions");
    assert_twin(spec, 1008, Privacypass::run(&cfg, 1008).world);
}

#[test]
fn blindcash_loopback_matches_simulated_twin() {
    // Two buyers' coins interleave at the seller and the bank; the
    // signer and the seller name each buyer from the connection it
    // sends on, never from a label.
    let cfg = BlindcashConfig::new(2, 2, 512);
    assert_twin(
        blindcash_serve_spec(&cfg, 1009),
        1009,
        Blindcash::run(&cfg, 1009).world,
    );
}

#[test]
fn rogue_connections_cannot_perturb_the_tables() {
    // A run that also receives hostile traffic from a stranger — raw
    // garbage, an oversize length prefix, a data frame with no hello, a
    // forged hello with an unregistered nonce — must complete normally
    // and produce the exact same knowledge tables. The rogue peer is not
    // part of the spec, so any effect it had would surface as a
    // fingerprint diff, a missing answer, or a wedged run.
    use std::io::Write;
    use std::net::TcpStream;

    let cfg = OdohConfig::new(1, 4);
    let seed = 11;

    let (tx, rx) = std::sync::mpsc::channel();
    let mut hostile_cfg = serve_cfg(seed);
    hostile_cfg.port_report = Some(tx);
    let attacker = std::thread::spawn(move || {
        let addrs = rx.recv().expect("engine reports its ports");
        // One payload per attack class; ignore socket errors — the
        // engine closing on us early is exactly the fail-closed path.
        let mut forged_hello = vec![0x02];
        forged_hello.extend_from_slice(&10u32.to_be_bytes());
        forged_hello.extend_from_slice(&0xdead_beef_dead_beefu64.to_be_bytes());
        forged_hello.extend_from_slice(&7u16.to_be_bytes());
        let mut oversize = vec![0x01];
        oversize.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut no_hello_data = vec![0x01];
        no_hello_data.extend_from_slice(&3u32.to_be_bytes());
        no_hello_data.extend_from_slice(b"pwn");
        let attacks: [&[u8]; 4] = [
            b"\xfftotal garbage",
            &oversize,
            &no_hello_data,
            &forged_hello,
        ];
        for addr in &addrs {
            for attack in attacks {
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.write_all(attack);
                    let _ = s.flush();
                }
            }
        }
    });

    let outcome =
        run_loopback(odoh_serve_spec(&cfg, seed), &hostile_cfg).expect("run survives hostility");
    attacker.join().expect("attacker thread");
    assert_eq!(outcome.completed_units, outcome.expected_units);
    let under_attack = serde_json::to_string(&KnowledgeFingerprint::of(&outcome.world)).unwrap();

    let clean = run_loopback(odoh_serve_spec(&cfg, seed), &serve_cfg(seed)).expect("clean run");
    let clean_fp = serde_json::to_string(&KnowledgeFingerprint::of(&clean.world)).unwrap();
    assert_eq!(
        under_attack, clean_fp,
        "hostile connections must not change what anyone learned"
    );
}

proptest! {
    /// Arbitrary bytes, arbitrarily chunked, can error the production
    /// reader but never panic it — and anything it does accept re-encodes
    /// to well-formed frames.
    #[test]
    fn frame_reader_never_panics_on_hostile_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..64,
    ) {
        let mut r = FrameReader::new();
        for c in bytes.chunks(chunk) {
            match r.push(c) {
                Ok(frames) => {
                    for f in frames {
                        prop_assert!(f.payload.len() <= MAX_FRAME_PAYLOAD);
                        prop_assert!(f.encode().is_ok());
                    }
                }
                Err(_) => break, // fail-closed: the stream is poisoned, stop
            }
        }
        prop_assert!(r.pending() <= 5 + MAX_FRAME_PAYLOAD);
    }

    /// Truncating a valid multi-frame stream at any byte never panics and
    /// never yields a frame that wasn't fully present.
    #[test]
    fn truncation_yields_only_complete_frames(cut in 0usize..200, n in 1usize..5) {
        use dcp_runtime::seam::{Frame, FrameType};
        let mut stream = Vec::new();
        let mut lens = Vec::new();
        for i in 0..n {
            let f = Frame::new(FrameType::Data, vec![i as u8; 17 * (i + 1)]);
            let enc = f.encode().unwrap();
            lens.push(enc.len());
            stream.extend_from_slice(&enc);
        }
        let cut = cut.min(stream.len());
        let mut r = FrameReader::new();
        let got = r.push(&stream[..cut]).expect("prefix of valid stream decodes");
        // Every yielded frame must have been completely inside the cut.
        let mut consumed = 0;
        for (f, l) in got.iter().zip(&lens) {
            consumed += l;
            prop_assert!(consumed <= cut);
            prop_assert_eq!(f.encode().unwrap().len(), *l);
        }
    }
}
