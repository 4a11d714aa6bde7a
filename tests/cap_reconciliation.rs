//! Cap-vs-ledger reconciliation: the compile-time knowledge caps and the
//! runtime knowledge ledgers must tell the same story.
//!
//! Each wiring crate publishes a `declared_caps()` table — entity-name
//! prefixes mapped to the [`KnowledgeCap`] of the role that entity plays.
//! Those caps bound what the *type system* lets an endpoint receive; the
//! simulator's [`World`] ledgers record what each entity actually
//! *learned* during a run. This suite closes the loop: for every §3
//! scenario, under the calm and harsh fault presets, across arbitrary
//! seeds, every entity's final knowledge tuple about every user must sit
//! at or below its declared cap.
//!
//! A failure here means one of two bugs, both serious:
//!
//! * a protocol implementation leaked past its role's cap at runtime
//!   (the ledger outran the type), or
//! * a declared cap overstates how little the role learns (the type
//!   promises decoupling the protocol does not deliver).
//!
//! Matching rule: an entity reconciles against the *longest* declared
//! prefix of its name (so numbered instances like "Relay 2" inherit the
//! "Relay" row), every declared row must match at least one entity (a
//! stale table is itself a bug), and entities with no matching row —
//! bystanders like the VPN wiring's "Network Observer" — are skipped:
//! they play no typed role, so no cap speaks for them.

use decoupling::core::{KnowledgeCap, World};
use decoupling::{FaultConfig, Scenario, ScenarioReport as _};
use proptest::prelude::*;

/// Assert every entity's ledger sits at or below its declared cap.
fn reconcile(world: &World, rows: &[(&'static str, KnowledgeCap)], scenario: &str) {
    for (prefix, _) in rows {
        assert!(
            world.entities().iter().any(|e| e.name.starts_with(prefix)),
            "{scenario}: declared-caps row {prefix:?} matches no entity — stale table?"
        );
    }
    for entity in world.entities() {
        let row = rows
            .iter()
            .filter(|(prefix, _)| entity.name.starts_with(prefix))
            .max_by_key(|(prefix, _)| prefix.len());
        let Some((prefix, cap)) = row else {
            continue; // bystander: no typed role, no cap to reconcile
        };
        for &user in world.users() {
            let tuple = world.tuple(entity.id, user);
            assert!(
                cap.admits_tuple(&tuple),
                "{scenario}: entity {:?} (cap row {prefix:?}, cap {}) learned {tuple:?} \
                 about user {user:?} — the ledger outran the declared cap",
                entity.name,
                cap.render(),
            );
        }
    }
}

/// Run every §3 scenario once at `seed` under `faults` and reconcile its
/// final world against the owning crate's declared-caps table.
fn reconcile_all(seed: u64, faults: &FaultConfig, label: &str) {
    let opts = decoupling::RunOptions::with_faults(faults);
    // DNS, three wirings: ODoH, legacy ODNS, and the coupled direct
    // baseline (whose resolver/origin are declared coupled_by_design —
    // reconciliation documents the coupling rather than hiding it).
    let odoh = decoupling::Odoh::run_with(&decoupling::OdohConfig::new(2, 3), seed, &opts);
    reconcile(
        odoh.world(),
        &decoupling::odns::declared_caps(),
        &format!("odoh/{label}"),
    );

    let legacy = decoupling::odns::OdnsLegacy::run_with(
        &decoupling::odns::OdnsLegacyConfig::new(2, 3),
        seed,
        &opts,
    );
    reconcile(
        legacy.world(),
        &decoupling::odns::declared_caps(),
        &format!("odns-legacy/{label}"),
    );

    let direct = decoupling::DirectDns::run_with(
        &decoupling::DirectDnsConfig {
            clients: 2,
            queries_each: 3,
            resolvers: 2,
        },
        seed,
        &opts,
    );
    reconcile(
        direct.world(),
        &decoupling::odns::direct_declared_caps(),
        &format!("direct-dns/{label}"),
    );

    // The §3.3 cautionary tales: the VPN server and the no-ECH TLS
    // server are coupled_by_design, so their rows admit everything —
    // the reconciliation's job is that nothing *else* couples.
    let vpn = decoupling::Vpn::run_with(&decoupling::VpnConfig::new(2, 2), seed, &opts);
    reconcile(
        vpn.world(),
        &decoupling::vpn::vpn_declared_caps(),
        &format!("vpn/{label}"),
    );

    for ech in [true, false] {
        let report = decoupling::Ech::run_with(&decoupling::EchConfig { ech }, seed, &opts);
        reconcile(
            report.world(),
            &decoupling::vpn::ech_declared_caps(),
            &format!("ech={ech}/{label}"),
        );
    }

    let pp =
        decoupling::Privacypass::run_with(&decoupling::PrivacypassConfig::new(2, 2), seed, &opts);
    reconcile(
        pp.world(),
        &decoupling::privacypass::declared_caps(),
        &format!("privacypass/{label}"),
    );

    // PGPP in both modes: the legacy core's row is the coupled one.
    for (mode, rows) in [
        (
            decoupling::pgpp::Mode::Pgpp,
            decoupling::pgpp::pgpp_declared_caps(),
        ),
        (
            decoupling::pgpp::Mode::Legacy,
            decoupling::pgpp::legacy_declared_caps(),
        ),
    ] {
        let cfg = decoupling::PgppConfig {
            mode,
            users: 3,
            cells: 2,
            epochs: 1,
            moves_per_epoch: 2,
            seed,
        };
        let report = decoupling::Pgpp::run_with(&cfg, seed, &opts);
        reconcile(
            report.world(),
            &rows,
            &format!("pgpp mode={mode:?}/{label}"),
        );
    }

    // MPR with a real chain (relays ≥ 2): a single-relay chain is the
    // coupled degenerate case the paper warns about, and the "Relay" row
    // declares the decoupled union cap.
    let mpr = decoupling::Mpr::run_with(
        &decoupling::ChainConfig {
            relays: 2,
            users: 2,
            fetches_each: 2,
            geohint: false,
            seed,
        },
        seed,
        &opts,
    );
    reconcile(
        mpr.world(),
        &decoupling::mpr::declared_caps(),
        &format!("mpr/{label}"),
    );

    let ppm = decoupling::Ppm::run_with(
        &decoupling::PpmConfig {
            clients: 4,
            bits: 4,
            malicious: 0,
            seed,
        },
        seed,
        &opts,
    );
    reconcile(
        ppm.world(),
        &decoupling::ppm::declared_caps(),
        &format!("ppm/{label}"),
    );

    let mixnet = decoupling::Mixnet::run_with(
        &decoupling::MixnetConfig {
            senders: 4,
            mixes: 2,
            batch_size: 2,
            window_us: 100_000,
            shuffle: true,
            chaff_per_sender: 0,
            mix_max_wait_us: Some(50_000),
            seed,
        },
        seed,
        &opts,
    );
    reconcile(
        mixnet.world(),
        &decoupling::mixnet::declared_caps(),
        &format!("mixnet/{label}"),
    );

    let cash =
        decoupling::Blindcash::run_with(&decoupling::BlindcashConfig::new(1, 1, 512), seed, &opts);
    reconcile(
        cash.world(),
        &decoupling::blindcash::declared_caps(),
        &format!("blindcash/{label}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Calm runs: the happy path must sit under the declared caps at
    /// any seed.
    #[test]
    fn ledgers_stay_under_declared_caps_calm(seed in 0u64..10_000) {
        reconcile_all(seed, &FaultConfig::calm(), "calm");
    }

    /// Harsh runs: drops, delays, and duplicates must not teach any
    /// entity more than its cap — faults may *lose* knowledge, never
    /// mint it.
    #[test]
    fn ledgers_stay_under_declared_caps_harsh(seed in 0u64..10_000) {
        reconcile_all(seed, &FaultConfig::harsh(), "harsh");
    }
}

/// The fixed seeds the paper-table tests use, reconciled explicitly so a
/// regression names the scenario rather than a proptest shrink.
#[test]
fn paper_seed_runs_reconcile() {
    for seed in [101, 104, 108] {
        reconcile_all(seed, &FaultConfig::calm(), "paper-seed");
    }
}
