//! The parallel sweep engine's load-bearing promise, tested three ways:
//!
//! * **engine** — for arbitrary `(master_seed, worlds, threads)`, a
//!   [`ParallelExecutor`] sweep is equal to the [`SequentialExecutor`]
//!   reference, entry for entry, and the serialized reports are
//!   byte-identical JSON (the same diff CI performs on `dst_sweep`);
//! * **scenarios** — every registered wiring's full DST preset battery
//!   agrees between the two executors, so nothing a wiring aggregates
//!   depends on completion order (one test per wiring; the last of them
//!   keeps that list equal to the registry);
//! * **fail-closed crypto** — the bugfix half of this change: malformed
//!   wire bytes (RSA keys, signatures, HPKE ciphertexts, bignum
//!   encodings) return errors instead of panicking, in sequential *and*
//!   parallel worlds alike.

use decoupling::crypto::{hpke, rsa::RsaPublicKey};
use decoupling::{
    derive_seed, registration, sweep_battery, ParallelExecutor, RunOptions, Scenario,
    SequentialExecutor, SweepBuilder, REGISTRY,
};
use proptest::prelude::*;
use serde::Serialize as _;

/// The executor pair every test compares: the reference and the engine
/// under test at a thread count that forces real interleaving.
fn executors() -> (SequentialExecutor, ParallelExecutor) {
    (SequentialExecutor, ParallelExecutor::with_threads(3))
}

/// Run registry entry `name`'s full DST battery under both executors
/// and demand byte-identical JSON.
fn sweep_agrees(name: &str) {
    let reg = registration(name).unwrap_or_else(|| panic!("{name} is not registered"));
    let builder = SweepBuilder::new(20221114).worlds(3);
    let (seq, par) = executors();
    let a = sweep_battery(reg.name, reg.run, &builder, &seq);
    let b = sweep_battery(reg.name, reg.run, &builder, &par);
    assert_eq!(a, b, "{name}: parallel DST sweep diverged");
    assert_eq!(
        serde_json::to_string_pretty(&a).unwrap(),
        serde_json::to_string_pretty(&b).unwrap(),
        "{name}: JSON not byte-identical"
    );
}

#[test]
fn dst_sweep_blindcash() {
    sweep_agrees("blindcash");
}

#[test]
fn dst_sweep_mixnet() {
    sweep_agrees("mixnet");
}

#[test]
fn dst_sweep_privacypass() {
    sweep_agrees("privacypass");
}

#[test]
fn dst_sweep_odoh() {
    sweep_agrees("odoh");
}

#[test]
fn dst_sweep_pgpp() {
    sweep_agrees("pgpp");
}

#[test]
fn dst_sweep_mpr() {
    sweep_agrees("mpr");
}

#[test]
fn dst_sweep_ppm() {
    sweep_agrees("ppm");
}

#[test]
fn dst_sweep_vpn() {
    sweep_agrees("vpn");
}

#[test]
fn dst_sweep_ech() {
    sweep_agrees("ech");
}

#[test]
fn dst_sweep_odns_legacy() {
    sweep_agrees("odns_legacy");
}

#[test]
fn dst_sweep_dns_direct() {
    sweep_agrees("dns_direct");
}

/// A new registration fails here until it has its own test above.
#[test]
fn every_registration_has_a_sweep_test() {
    let tests = include_str!("sweep_determinism.rs");
    for reg in REGISTRY {
        // The call as the whole body of a test fn: a mention in a
        // comment does not count.
        let call = format!("sweep_agrees(\"{}\");", reg.name);
        assert!(
            tests.contains(&format!("{{\n    {call}\n}}\n")),
            "{}: add a test whose body is {call}",
            reg.name
        );
    }
}

// (The bignum underflow/overflow fail-closed regression moved next to
// the arithmetic it pins — the bigint unit tests in dcp-crypto — when
// raw bigint references outside crates/crypto became lint-forbidden.)

/// Malformed RSA wire bytes — truncated, zero-modulus, non-minimal —
/// must come back as `Err`, never a panic inside the bignum layer.
#[test]
fn malformed_rsa_key_bytes_fail_closed() {
    assert!(RsaPublicKey::from_bytes(&[]).is_err());
    assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 64]).is_err());
    // n = 0 (length prefix says 0 bytes of modulus, e = 3).
    assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 0, 3]).is_err());
    // A modulus of all-zero bytes with a plausible length.
    let mut zeros = vec![0, 0, 0, 64];
    zeros.extend_from_slice(&[0u8; 64]);
    zeros.push(3);
    assert!(RsaPublicKey::from_bytes(&zeros).is_err());
}

/// Malformed HPKE ciphertexts of every length bucket open to `Err`.
#[test]
fn malformed_hpke_ciphertexts_fail_closed() {
    use rand::SeedableRng as _;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let kp = hpke::Keypair::generate(&mut rng);
    for len in [0usize, 1, 31, 32, 33, 47, 48, 64] {
        let junk = vec![0xa5u8; len];
        assert!(
            hpke::open(&kp, b"info", b"aad", &junk).is_err(),
            "junk of len {len} must not open"
        );
    }
    // A real ciphertext with one flipped bit anywhere must also fail.
    let ct = hpke::seal(&mut rng, &kp.public, b"info", b"aad", b"payload").unwrap();
    let mut tampered = ct.clone();
    *tampered.last_mut().unwrap() ^= 1;
    assert!(hpke::open(&kp, b"info", b"aad", &tampered).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine itself, property-tested: any `(master_seed, worlds,
    /// threads)` triple produces the same entries in the same order from
    /// both executors, with the seeds the closed-form `derive_seed`
    /// promises.
    #[test]
    fn parallel_sweep_matches_sequential(
        master_seed in any::<u64>(),
        worlds in 1u64..24,
        threads in 1usize..6,
    ) {
        let builder = SweepBuilder::new(master_seed).worlds(worlds);
        let work = |job: &decoupling::core::sweep::SweepJob| {
            // A cheap but seed-sensitive stand-in for a scenario run.
            (job.index, job.seed, job.seed.rotate_left((job.index % 63) as u32))
        };
        let seq = builder.run_on(&SequentialExecutor, work);
        let par = builder.run_on(&ParallelExecutor::with_threads(threads), work);
        prop_assert_eq!(&seq, &par);
        prop_assert_eq!(seq.seeds(), par.seeds());
        for (i, entry) in par.entries.iter().enumerate() {
            prop_assert_eq!(entry.index, i as u64);
            prop_assert_eq!(entry.seed, derive_seed(master_seed, i as u64));
        }
    }

    /// One real scenario under the proptest lens: arbitrary seeds and
    /// world counts, reports byte-identical across executors.
    #[test]
    fn odoh_sweep_reports_byte_identical(
        master_seed in any::<u64>(),
        worlds in 1u64..5,
    ) {
        let cfg = decoupling::OdohConfig::new(2, 2);
        let builder = SweepBuilder::new(master_seed).worlds(worlds);
        let opts = RunOptions::new();
        let (seq_exec, par_exec) = executors();
        let a = decoupling::Odoh::sweep(&cfg, &builder, &seq_exec, &opts)
            .report(|e| e.result.answered as u64);
        let b = decoupling::Odoh::sweep(&cfg, &builder, &par_exec, &opts)
            .report(|e| e.result.answered as u64);
        prop_assert_eq!(a.serialize_value(), b.serialize_value());
    }
}
