//! Multi-seed fleet-mode churn probe over the directory-enabled
//! wirings (mpr, mixnet) — the CI byte-identity bar for `dcp-fleet`.
//!
//! Each world runs a scenario twice at the same derived seed: a calm
//! recovered fixed-relay baseline, and a fleet-enabled run under
//! [`FaultConfig::harsh_fleet`] (relay churn, directory partitions, key
//! rotation all active). The probe asserts, per world:
//!
//! * the fleet run completes its full workload despite the churn;
//! * every directory converged on the same membership state;
//! * the rotation schedule actually fired (no vacuous pass);
//! * directory entities learned **nothing** (their traffic is public);
//! * the knowledge tables of the baseline's entities are
//!   **byte-identical** between the two runs — the directory layer is
//!   knowledge-invisible.
//!
//! The combined [`FleetSweepReport`]s are written as JSON, byte-identical
//! across executors (flags and CI use: [`dcp_bench::probe`]). The probe
//! keeps its own two fleet shapes: the registry's battery shapes run no
//! relay directory.
//!
//! ```text
//! dst_fleet [--worlds N] [--threads N] [--seed S] [--sequential]
//!           [--out PATH]
//! ```

use std::collections::BTreeSet;

use dcp_bench::probe::run_probe;
use decoupling::core::ScenarioReport as _;
use decoupling::{
    entities_silent, restricted_fingerprint, ChainConfig, FaultConfig, FleetConfig, FleetSummary,
    Mixnet, MixnetConfig, Mpr, RunOptions, Scenario, SweepBuilder, SweepExecutor, SweepJob,
};
use serde::Serialize;

/// One world's verdict for one scenario.
#[derive(Clone, Debug, PartialEq, Serialize)]
struct FleetWorldReport {
    seed: u64,
    completed_units: u64,
    expected_units: u64,
    converged: bool,
    rotations: u64,
    stale_rejected: u64,
    directories_silent: bool,
    /// FNV-1a over the baseline-restricted knowledge rows of the fleet
    /// run — byte-compared across executors, and asserted equal to the
    /// baseline's hash before this report is even built.
    knowledge_hash: u64,
}

/// The per-scenario aggregate the CI job byte-diffs.
#[derive(Clone, Debug, PartialEq, Serialize)]
struct FleetSweepReport {
    scenario: String,
    master_seed: u64,
    worlds: u64,
    total_rotations: u64,
    total_stale_rejected: u64,
    entries: Vec<FleetWorldReport>,
}

/// FNV-1a over the rendered knowledge rows, stable across platforms.
fn hash_rows(rows: &[(String, Vec<String>)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (name, tuples) in rows {
        eat(name.as_bytes());
        for t in tuples {
            eat(t.as_bytes());
        }
    }
    h
}

/// Run one scenario's baseline + fleet pair at `seed` and check every
/// bar. Panics (completion-bar style, like `dst_recover`) on any
/// violation so CI fails loudly rather than producing a green artifact.
fn probe<S>(
    cfg: &S::Config,
    seed: u64,
    fleet_of: impl Fn(&S::Report) -> FleetSummary,
) -> FleetWorldReport
where
    S: Scenario,
{
    let baseline = S::run_with(cfg, seed, &RunOptions::recovered(&FaultConfig::calm()));
    let fleet = S::run_with(
        cfg,
        seed,
        &RunOptions::recovered(&FaultConfig::harsh_fleet()).with_fleet(&FleetConfig::standard()),
    );

    let expected = fleet.expected_units().expect("fleet scenarios count units");
    let completed = fleet.completed_units();
    assert_eq!(
        completed,
        expected,
        "{} seed {seed}: fleet run under harsh_fleet left work unfinished",
        S::NAME
    );
    let summary = fleet_of(&fleet);
    assert!(
        summary.enabled,
        "{} seed {seed}: fleet layer inert",
        S::NAME
    );
    assert!(
        summary.converged,
        "{} seed {seed}: directories ended divergent",
        S::NAME
    );
    assert!(
        summary.stats.rotations > 0,
        "{} seed {seed}: rotation schedule never fired (vacuous run)",
        S::NAME
    );
    let silent = entities_silent(fleet.world(), "Directory");
    assert!(
        silent,
        "{} seed {seed}: a directory learned something",
        S::NAME
    );

    let names: BTreeSet<String> = baseline
        .world()
        .entities()
        .iter()
        .map(|e| e.name.clone())
        .collect();
    let fleet_rows = restricted_fingerprint(fleet.world(), &names);
    let base_rows = restricted_fingerprint(baseline.world(), &names);
    assert_eq!(
        fleet_rows,
        base_rows,
        "{} seed {seed}: fleet run changed a baseline entity's knowledge",
        S::NAME
    );

    FleetWorldReport {
        seed,
        completed_units: completed,
        expected_units: expected,
        converged: summary.converged,
        rotations: summary.stats.rotations,
        stale_rejected: summary.stats.stale_rejected,
        directories_silent: silent,
        knowledge_hash: hash_rows(&fleet_rows),
    }
}

fn reduce(scenario: &str, master_seed: u64, entries: Vec<FleetWorldReport>) -> FleetSweepReport {
    FleetSweepReport {
        scenario: scenario.to_string(),
        master_seed,
        worlds: entries.len() as u64,
        total_rotations: entries.iter().map(|e| e.rotations).sum(),
        total_stale_rejected: entries.iter().map(|e| e.stale_rejected).sum(),
        entries,
    }
}

fn sweep_all(builder: &SweepBuilder, exec: &impl SweepExecutor) -> Vec<FleetSweepReport> {
    // The same small workloads the scenario crates' fleet tests pin.
    let mpr = ChainConfig {
        relays: 2,
        users: 2,
        fetches_each: 2,
        geohint: false,
        seed: 0, // overridden by each derived harness seed
    };
    let mixnet = MixnetConfig {
        senders: 4,
        mixes: 2,
        batch_size: 2,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: Some(50_000),
        seed: 0,
    };
    let jobs = builder.jobs();
    let mpr_entries = exec.execute(&jobs, &|job: &SweepJob| {
        probe::<Mpr>(&mpr, job.seed, |r| r.fleet.clone())
    });
    let mixnet_entries = exec.execute(&jobs, &|job: &SweepJob| {
        probe::<Mixnet>(&mixnet, job.seed, |r| r.fleet.clone())
    });
    vec![
        reduce("mpr", builder.master_seed(), mpr_entries),
        reduce("mixnet", builder.master_seed(), mixnet_entries),
    ]
}

fn main() {
    run_probe(4, 20221114, false, sweep_all, |r: &FleetSweepReport| {
        format!(
            "{:<8} worlds={} rotations={} stale-rejected={} all-complete=yes",
            r.scenario, r.worlds, r.total_rotations, r.total_stale_rejected
        )
    });
}
