//! The sim/prod duality, held to bytes: each servable wiring of the
//! registry, served over real loopback TCP, must finish its workload and
//! produce knowledge tables **byte-identical** to the deterministic
//! simulator's run of the same config and seed — and the production
//! decoder must shrug off hostile bytes, both in-process (proptest
//! against `FrameReader`) and on a live socket (a rogue connection
//! spraying garbage mid-run). The `dcp serve` front door's refusals are
//! checked here too.

use std::process::Command;
use std::time::Duration;

use dcp_faults::dst::KnowledgeFingerprint;
use dcp_odns::serve::odoh_serve_spec;
use dcp_odns::OdohConfig;
use dcp_serve::{run_loopback, FrameReader, ServeConfig, MAX_FRAME_PAYLOAD};
use decoupling::{registration, REGISTRY};
use proptest::prelude::*;

fn serve_cfg(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

/// `(clients, queries, seed)` at which every servable wiring is served:
/// one client alone, three clients interleaving in nondeterministic
/// order, and two clients whose calls interleave at shared relays,
/// origins, issuers, banks, tunnel servers and cellular cores (each
/// response, verdict or receipt must find its way back to the client who
/// asked).
const TWIN_SHAPES: [(usize, usize, u64); 7] = [
    (1, 4, 7),
    (3, 4, 1004),
    (2, 3, 1005),
    (2, 3, 1006),
    (2, 3, 1007),
    (2, 3, 1008),
    (2, 2, 1009),
];

/// Serve registry entry `name` over loopback TCP at every shape and
/// compare against the world of its simulated twin. JSON-serializing
/// both fingerprints makes the comparison literal bytes, not just
/// `PartialEq`.
fn twin(name: &str) {
    let serve = registration(name)
        .and_then(|reg| reg.serve)
        .unwrap_or_else(|| panic!("{name} is not a servable registration"));
    for (clients, queries, seed) in TWIN_SHAPES {
        let at = format!("{name} at {clients} clients x {queries} queries, seed {seed}");
        let (spec, twin) = serve(clients, queries, seed).unwrap_or_else(|e| panic!("{at}: {e}"));
        let outcome = run_loopback(spec, &serve_cfg(seed)).expect("serve runs");
        assert_eq!(
            outcome.completed_units, outcome.expected_units,
            "{at}: every unit finishes over real sockets"
        );
        let served = serde_json::to_string(&KnowledgeFingerprint::of(&outcome.world)).unwrap();
        let simmed = serde_json::to_string(&KnowledgeFingerprint::of(&twin())).unwrap();
        assert_eq!(
            served, simmed,
            "{at}: served knowledge tables must be byte-identical to the simulated twin"
        );
    }
}

#[test]
fn blindcash_loopback_matches_simulated_twin() {
    twin("blindcash");
}

#[test]
fn privacypass_loopback_matches_simulated_twin() {
    twin("privacypass");
}

#[test]
fn odoh_over_loopback_matches_simulated_twin() {
    twin("odoh");
}

#[test]
fn mpr_loopback_matches_simulated_twin() {
    twin("mpr");
}

#[test]
fn odns_legacy_loopback_matches_simulated_twin() {
    twin("odns_legacy");
}

#[test]
fn direct_dns_loopback_matches_simulated_twin() {
    twin("dns_direct");
}

#[test]
fn vpn_loopback_matches_simulated_twin() {
    twin("vpn");
}

#[test]
fn pgpp_loopback_matches_simulated_twin() {
    twin("pgpp");
}

#[test]
fn ppm_loopback_matches_simulated_twin() {
    twin("ppm");
}

/// A new servable registration fails here until it has its own twin
/// test above.
#[test]
fn every_servable_registration_has_a_twin_test() {
    let tests = include_str!("serve_loopback.rs");
    for reg in REGISTRY.iter().filter(|reg| reg.serve.is_some()) {
        // The call as the whole body of a test fn: a mention in a
        // comment does not count.
        let call = format!("twin(\"{}\");", reg.name);
        assert!(
            tests.contains(&format!("{{\n    {call}\n}}\n")),
            "{}: add a test whose body is {call}",
            reg.name
        );
    }
}

/// Run `dcp` with `args`; its exit code and stderr.
fn dcp(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcp"))
        .args(args)
        .output()
        .expect("dcp runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `dcp serve` refuses what it cannot serve with exit 1: a wiring with no
/// serve spec or no registration gets the servable names; a Privacy Pass
/// client asking past one issuance batch, a PGPP phone whose batch's
/// evaluations would not fit one frame, and a PPM task wider than 32 bits
/// each get their limit.
#[test]
fn dcp_serve_refuses_what_it_cannot_serve() {
    for scenario in ["ech", "nosuch"] {
        let (code, stderr) = dcp(&["serve", scenario]);
        assert_eq!(code, Some(1), "dcp serve {scenario}: {stderr}");
        for reg in REGISTRY.iter().filter(|reg| reg.serve.is_some()) {
            assert!(stderr.contains(reg.name), "dcp serve {scenario}: {stderr}");
        }
    }
    for (scenario, queries, limit) in [
        (
            "privacypass",
            "5",
            "5 redemptions per client: one issuance batch holds 4",
        ),
        ("pgpp", "10923", "fit one frame for at most 10922"),
        (
            "ppm",
            "33",
            "a 33-bit measurement: a task's width is 1 to 32 bits",
        ),
    ] {
        let (code, stderr) = dcp(&["serve", scenario, "--queries", queries]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains(limit), "{stderr}");
    }
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
