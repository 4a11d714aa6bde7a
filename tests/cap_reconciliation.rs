//! Cap-vs-ledger reconciliation: the compile-time knowledge caps and the
//! runtime knowledge ledgers must tell the same story.
//!
//! Each wiring crate publishes a `declared_caps()` table — entity-name
//! prefixes mapped to the [`KnowledgeCap`] of the role that entity plays.
//! Those caps bound what the *type system* lets an endpoint receive; the
//! simulator's [`World`] ledgers record what each entity actually
//! *learned* during a run. This suite closes the loop: for every
//! registered wiring (and three variants: PGPP's legacy core, ECH off,
//! and the mix-net with timed flushes),
//! under the calm and harsh fault presets, across arbitrary seeds, every
//! entity's final knowledge tuple about every user must sit at or below
//! its declared cap.
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
use decoupling::{FaultConfig, Scenario, ScenarioReport as _, REGISTRY};
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

/// Run every registered wiring once at `seed` under `faults`, at its
/// battery shape, and reconcile its final world against its own
/// declared-caps table; then the three variants no registration runs.
/// Coupled-by-design rows (the VPN server, plain DNS's resolver and
/// origin, the no-ECH TLS server, PGPP's legacy core) admit everything,
/// so the reconciliation's job there is that nothing *else* couples.
fn reconcile_all(seed: u64, faults: &FaultConfig, label: &str) {
    let opts = decoupling::RunOptions::with_faults(faults);
    for reg in REGISTRY {
        let report = (reg.run)(seed, &opts);
        reconcile(
            report.world(),
            &(reg.declared_caps)(),
            &format!("{}/{label}", reg.name),
        );
    }

    let legacy = decoupling::PgppConfig {
        mode: decoupling::pgpp::Mode::Legacy,
        users: 5,
        cells: 2,
        epochs: 2,
        moves_per_epoch: 2,
        seed,
    };
    let report = decoupling::Pgpp::run_with(&legacy, seed, &opts);
    reconcile(
        report.world(),
        &decoupling::pgpp::legacy_declared_caps(),
        &format!("pgpp mode=Legacy/{label}"),
    );

    let report = decoupling::Ech::run_with(&decoupling::EchConfig::default(), seed, &opts);
    reconcile(
        report.world(),
        &decoupling::vpn::ech_declared_caps(),
        &format!("ech=false/{label}"),
    );

    // The registration's mixes flush once after the window; timed mixes
    // also flush a partial batch, a second path by which knowledge can
    // reach a receiver under faults.
    let timed = decoupling::MixnetConfig {
        senders: 4,
        mixes: 2,
        batch_size: 2,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: Some(50_000),
        seed,
    };
    let report = decoupling::Mixnet::run_with(&timed, seed, &opts);
    reconcile(
        report.world(),
        &decoupling::mixnet::declared_caps(),
        &format!("mixnet timed/{label}"),
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
