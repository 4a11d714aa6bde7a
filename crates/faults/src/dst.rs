//! The DST harness: run a scenario under each fault preset, twice, and
//! check the two properties the decoupling analysis demands.
//!
//! * **Determinism** — the same `(seed, FaultConfig)` must reproduce the
//!   identical [`FaultLog`] *and* the identical knowledge fingerprint.
//!   Without this, a safety violation found under chaos cannot be
//!   replayed and debugged.
//! * **Safety** — faults must not *create* couplings. The paper's tables
//!   include one deliberately coupled system (the §3.3 VPN cautionary
//!   tale), so the invariant is baseline-relative: every `(entity, user)`
//!   coupling present under faults must already be present in the
//!   fault-free run of the same scenario. Key compromise is the one
//!   catalog entry exempted — it *models* §4.2 collusion, and the tests
//!   assert it is detected rather than prevented.
//!
//! Liveness is tiered. Under [`FaultConfig::moderate`] a scenario must
//! report `completed` (possibly with degraded throughput) — i.e. fail
//! closed, never fall back to plaintext. Under [`FaultConfig::harsh`]
//! the bar rises to **completion**: with the `dcp-recover` layer enabled
//! every request must be answered (`completed_units == expected_units`
//! where the scenario states a target), the knowledge tables must be
//! *byte-identical* to the fault-free baseline (recovery adds no
//! knowledge anywhere), and no two attempts of one request may share a
//! ciphertext ([`dcp_core::analysis::RetryLinkage`]). Under
//! [`FaultConfig::chaos`] only safety is promised.
//!
//! This crate sits below the scenario crates in the dependency graph, so
//! the harness takes a wiring as a [`Run`]: one run at `(seed,
//! RunOptions)`. Each registered wiring supplies its own
//! (`dcp_runtime::seam::Registration::run`), and every battery below is
//! written once over it; [`run_scenario`] is the primitive beneath them,
//! over any closure `Fn(&FaultConfig, u64) ->` [`DstOutcome`].

use crate::{FaultConfig, FaultLog};
use dcp_core::sweep::{SweepBuilder, SweepExecutor};
use dcp_core::{analyze, RunOptions, ScenarioReport, World};
use serde::Serialize;

/// A stable, comparable rendering of every entity's knowledge about
/// every user: the "knowledge table" the determinism check compares
/// across runs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct KnowledgeFingerprint {
    /// `(entity name, per-user tuples in the paper's notation)` in
    /// entity registration order.
    pub rows: Vec<(String, Vec<String>)>,
}

impl KnowledgeFingerprint {
    /// Snapshot a [`World`]'s ledgers.
    pub fn of(world: &World) -> Self {
        let rows = world
            .entities()
            .iter()
            .map(|e| {
                let tuples = world
                    .users()
                    .iter()
                    .map(|&u| world.tuple(e.id, u).render())
                    .collect();
                (e.name.clone(), tuples)
            })
            .collect();
        KnowledgeFingerprint { rows }
    }
}

/// What one scenario run hands back to the harness.
pub struct DstOutcome {
    /// The final knowledge base.
    pub world: World,
    /// The fault schedule that was injected.
    pub fault_log: FaultLog,
    /// Did the workload make end-to-end progress (scenario-defined:
    /// coins deposited, queries answered, aggregate released, …)?
    pub completed: bool,
    /// Work units that finished end-to-end.
    pub completed_units: u64,
    /// Work units the configuration asked for, where the scenario can
    /// state a target (`None` = best-effort; the harsh completion bar
    /// then only asserts `completed`).
    pub expected_units: Option<u64>,
    /// Retry-linkage violations (attempts correlated by ciphertext
    /// equality) — must be empty under every preset.
    pub retry_linkage: Vec<String>,
}

impl DstOutcome {
    /// Build from any [`ScenarioReport`].
    pub fn from_report<R: ScenarioReport + ?Sized>(report: &R) -> Self {
        DstOutcome {
            world: report.world().clone(),
            fault_log: report.fault_log().clone(),
            completed: report.completed(),
            completed_units: report.completed_units(),
            expected_units: report.expected_units(),
            retry_linkage: report.retry_linkage().to_vec(),
        }
    }
}

/// The harness's verdict for one `(scenario, preset)` cell.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DstReport {
    /// Scenario name (e.g. `"odoh"`).
    pub scenario: String,
    /// Preset name (`"calm"`, `"moderate"`, `"harsh"`, `"chaos"`).
    pub preset: String,
    /// Scenario seed.
    pub seed: u64,
    /// Faults injected (identical across the two replay runs).
    pub faults_injected: usize,
    /// Whether the workload completed (see [`DstOutcome::completed`]).
    pub completed: bool,
    /// Work units that finished end-to-end.
    pub completed_units: u64,
    /// The configuration's work-unit target, where stated.
    pub expected_units: Option<u64>,
    /// Did the faulted run's knowledge tables match the calm baseline
    /// byte-for-byte? (Asserted under `harsh`; reported for the rest.)
    pub tables_match_baseline: bool,
    /// Couplings present under faults but absent from the calm baseline
    /// — any entry here is a safety violation.
    pub new_couplings: Vec<String>,
}

/// Couplings in `faulted` that the fault-free `baseline` does not have,
/// rendered as `"Entity (user N): (▲, ●)"`. The empty vec is the §2.4
/// safety pass.
pub fn new_couplings(baseline: &World, faulted: &World) -> Vec<String> {
    let base = analyze(baseline);
    let in_baseline = |name: &str, subject: u64| {
        base.violations
            .iter()
            .any(|v| v.entity_name == name && v.subject.0 == subject)
    };
    analyze(faulted)
        .violations
        .iter()
        .filter(|v| !in_baseline(&v.entity_name, v.subject.0))
        .map(|v| format!("{} (user {}): {}", v.entity_name, v.subject.0, v.tuple))
        .collect()
}

/// Run `scenario` under every preset, each twice, asserting determinism
/// and baseline-relative safety. Panics (with a replay recipe) on any
/// violation; returns one [`DstReport`] per preset on success.
///
/// The closure must be a pure function of `(&FaultConfig, seed)` — it
/// builds the world, runs the workload, and returns the outcome.
pub fn run_scenario<F>(scenario: &str, seed: u64, run: F) -> Vec<DstReport>
where
    F: Fn(&FaultConfig, u64) -> DstOutcome,
{
    let baseline = calm_baseline(scenario, seed, &run);
    FaultConfig::presets()
        .iter()
        .map(|(preset, config)| check_preset(scenario, seed, preset, config, &baseline, &run))
        .collect()
}

/// The fault-free run every preset is compared against.
fn calm_baseline<F>(scenario: &str, seed: u64, run: &F) -> World
where
    F: Fn(&FaultConfig, u64) -> DstOutcome,
{
    let baseline = run(&FaultConfig::calm(), seed);
    assert!(
        baseline.fault_log.is_empty(),
        "{scenario}: calm preset must inject nothing, got {:?}",
        baseline.fault_log.events()
    );
    baseline.world
}

/// Run one preset twice against `baseline` and assert every property the
/// tier promises (see the module docs); the harsh preset adds the
/// completion bar.
fn check_preset<F>(
    scenario: &str,
    seed: u64,
    preset: &str,
    config: &FaultConfig,
    baseline: &World,
    run: &F,
) -> DstReport
where
    F: Fn(&FaultConfig, u64) -> DstOutcome,
{
    let a = run(config, seed);
    let b = run(config, seed);

    // Determinism: identical fault schedule and knowledge tables.
    assert_eq!(
        a.fault_log, b.fault_log,
        "{scenario}/{preset}: FaultLog diverged between two runs of \
         seed {seed} — the run is not a pure function of (seed, config)"
    );
    let fp_a = KnowledgeFingerprint::of(&a.world);
    let fp_b = KnowledgeFingerprint::of(&b.world);
    assert_eq!(
        fp_a, fp_b,
        "{scenario}/{preset}: knowledge tables diverged between two \
         runs of seed {seed}"
    );

    // Safety: no coupling the calm run doesn't already have.
    let fresh = new_couplings(baseline, &a.world);
    assert!(
        fresh.is_empty(),
        "{scenario}/{preset}: faults created new couplings {fresh:?} \
         — replay with seed {seed} and config {config:?}"
    );

    // Privacy of recovery: re-randomized retransmission means no two
    // attempts of one request ever share a ciphertext, under any tier.
    assert!(
        a.retry_linkage.is_empty(),
        "{scenario}/{preset}: attempts linkable by ciphertext equality \
         {:?} — replay with seed {seed}",
        a.retry_linkage
    );

    let baseline_fp = KnowledgeFingerprint::of(baseline);
    let tables_match_baseline = fp_a == baseline_fp;

    // The harsh completion bar: every request answered, and the
    // recovered run's knowledge tables byte-identical to the
    // fault-free run (retries and failovers taught no entity
    // anything new).
    if preset == "harsh" {
        assert!(
            a.completed,
            "{scenario}/harsh: no end-to-end progress despite the \
             recovery layer — replay with seed {seed}"
        );
        if let Some(expected) = a.expected_units {
            assert_eq!(
                a.completed_units, expected,
                "{scenario}/harsh: completed {}/{} work units — the \
                 recovery layer failed to finish the workload; replay \
                 with seed {seed}",
                a.completed_units, expected
            );
        }
        assert_eq!(
            fp_a, baseline_fp,
            "{scenario}/harsh: recovered run's knowledge tables differ \
             from the fault-free baseline — recovery leaked knowledge; \
             replay with seed {seed}"
        );
    }

    DstReport {
        scenario: scenario.to_string(),
        preset: preset.to_string(),
        seed,
        faults_injected: a.fault_log.len(),
        completed: a.completed,
        completed_units: a.completed_units,
        expected_units: a.expected_units,
        tables_match_baseline,
        new_couplings: fresh,
    }
}

/// One run of a wiring at a seed and [`RunOptions`]: what every battery
/// below drives, and what each registered wiring supplies.
pub type Run = fn(u64, &RunOptions) -> Box<dyn ScenarioReport + Send>;

/// `run` with the standard recovery layer under `config`: the run
/// closure of every battery below.
///
/// Recovery is enabled for the calm baseline too: the baseline must
/// share the faulted runs' topology and provisioning (backup routes,
/// retry-headroom token batches) for the table-equality comparison to
/// mean anything. Calm runs fire zero retries, so this changes no
/// knowledge.
fn recovered_run(run: Run) -> impl Fn(&FaultConfig, u64) -> DstOutcome {
    move |config, seed| DstOutcome::from_report(&*run(seed, &RunOptions::recovered(config)))
}

/// [`run_scenario`] over a wiring's [`Run`]: runs it under every preset
/// (twice each) **with the standard recovery layer enabled** and checks
/// determinism, baseline-relative safety, retry unlinkability, and the
/// harsh completion bar. The canonical way to DST a §3 system.
pub fn run_battery(scenario: &str, seed: u64, run: Run) -> Vec<DstReport> {
    run_scenario(scenario, seed, recovered_run(run))
}

/// The harsh-preset recovery probe for one world: a recovered fault-free
/// baseline plus a recovered [`FaultConfig::harsh`] run (twice, for
/// determinism), asserting the full completion bar — every work unit
/// finished, knowledge tables byte-identical to the baseline, no attempt
/// linkage, no new couplings. Returns the harsh-cell [`DstReport`].
///
/// This is [`run_battery`] narrowed to the one preset that carries the
/// completion bar, so CI can sweep it over more worlds than the full
/// battery affords.
fn run_recovery_probe(scenario: &str, seed: u64, run: Run) -> DstReport {
    let run = recovered_run(run);
    let baseline = calm_baseline(scenario, seed, &run);
    check_preset(
        scenario,
        seed,
        "harsh",
        &FaultConfig::harsh(),
        &baseline,
        &run,
    )
}

/// The aggregate of a multi-seed harsh recovery sweep for one scenario —
/// the artifact the CI `dst_recover` job byte-diffs between the
/// sequential and parallel executors.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RecoverySweepReport {
    /// Scenario name.
    pub scenario: String,
    /// The sweep's master seed (per-world seeds are derived from it).
    pub master_seed: u64,
    /// Number of independent worlds.
    pub worlds: u64,
    /// Total faults injected across all harsh worlds.
    pub total_faults: u64,
    /// Worlds that completed the full workload under harsh — always equal
    /// to `worlds` when the probe returns (the completion bar panics
    /// otherwise).
    pub completed_harsh: u64,
    /// Total work units finished across the sweep.
    pub completed_units: u64,
    /// Per-world harsh reports, in index order.
    pub entries: Vec<DstReport>,
}

/// Run the harsh recovery probe (a recovered calm baseline and a
/// recovered harsh run, twice, under the completion bar) at every seed of
/// `builder`'s sweep, on `exec`. The aggregate is identical for every
/// conforming executor.
pub fn sweep_recovery_probe<X>(
    scenario: &str,
    run: Run,
    builder: &SweepBuilder,
    exec: &X,
) -> RecoverySweepReport
where
    X: SweepExecutor + ?Sized,
{
    let swept = builder.run_on(exec, |job| run_recovery_probe(scenario, job.seed, run));
    let mut report = RecoverySweepReport {
        scenario: scenario.to_string(),
        master_seed: builder.master_seed(),
        worlds: builder.world_count(),
        total_faults: 0,
        completed_harsh: 0,
        completed_units: 0,
        entries: Vec::with_capacity(swept.entries.len()),
    };
    for entry in &swept.entries {
        let r = &entry.result;
        report.total_faults += r.faults_injected as u64;
        report.completed_units += r.completed_units;
        if r.completed {
            report.completed_harsh += 1;
        }
        report.entries.push(r.clone());
    }
    report
}

/// One world of a multi-seed DST sweep: the full preset battery run at
/// one derived seed.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DstSweepEntry {
    /// Zero-based world index.
    pub index: u64,
    /// The world's derived seed ([`dcp_core::sweep::derive_seed`]).
    pub seed: u64,
    /// One [`DstReport`] per fault preset, in preset order.
    pub reports: Vec<DstReport>,
}

/// The aggregate of a multi-seed DST sweep for one scenario. Built by an
/// ordered fold over world index, so the same bytes come out of the
/// parallel and sequential executors — the artifact the CI determinism
/// diff compares.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DstSweepReport {
    /// Scenario name.
    pub scenario: String,
    /// The sweep's master seed (per-world seeds are derived from it).
    pub master_seed: u64,
    /// Number of independent worlds.
    pub worlds: u64,
    /// Total faults injected across all worlds and presets.
    pub total_faults: u64,
    /// Worlds whose workload completed under the `moderate` preset (the
    /// liveness bar; `chaos` only promises safety).
    pub completed_moderate: u64,
    /// Worlds whose workload fully completed under the `harsh` preset —
    /// always equal to `worlds` when the harness returns (the harsh
    /// completion bar panics otherwise).
    pub completed_harsh: u64,
    /// Total fault-created couplings across the sweep — always zero when
    /// the harness returns (any violation panics with a replay recipe).
    pub new_couplings: u64,
    /// Per-world results, in index order.
    pub entries: Vec<DstSweepEntry>,
}

/// Run the full DST battery ([`run_battery`]) at every seed of
/// `builder`'s sweep, on `exec`. Each world independently asserts
/// determinism and baseline-relative safety; the returned aggregate is
/// identical for every conforming executor.
pub fn sweep_battery<X>(
    scenario: &str,
    run: Run,
    builder: &SweepBuilder,
    exec: &X,
) -> DstSweepReport
where
    X: SweepExecutor + ?Sized,
{
    let swept = builder.run_on(exec, |job| run_battery(scenario, job.seed, run));
    let mut report = DstSweepReport {
        scenario: scenario.to_string(),
        master_seed: builder.master_seed(),
        worlds: builder.world_count(),
        total_faults: 0,
        completed_moderate: 0,
        completed_harsh: 0,
        new_couplings: 0,
        entries: Vec::with_capacity(swept.entries.len()),
    };
    for entry in &swept.entries {
        for r in &entry.result {
            report.total_faults += r.faults_injected as u64;
            report.new_couplings += r.new_couplings.len() as u64;
            if r.preset == "moderate" && r.completed {
                report.completed_moderate += 1;
            }
            if r.preset == "harsh" && r.completed {
                report.completed_harsh += 1;
            }
        }
        report.entries.push(DstSweepEntry {
            index: entry.index,
            seed: entry.seed,
            reports: entry.result.clone(),
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use dcp_core::{DataKind, IdentityKind, InfoItem};

    fn toy_world(couple_relay: bool) -> World {
        let mut w = World::new();
        let uo = w.add_org("user");
        let ro = w.add_org("relay-co");
        let alice = w.add_user();
        let client = w.add_entity("Client", uo, Some(alice));
        let relay = w.add_entity("Relay", ro, None);
        w.record(
            client,
            InfoItem::sensitive_identity(alice, IdentityKind::Any),
        );
        w.record(client, InfoItem::sensitive_data(alice, DataKind::Payload));
        w.record(
            relay,
            InfoItem::sensitive_identity(alice, IdentityKind::Any),
        );
        if couple_relay {
            w.record(relay, InfoItem::sensitive_data(alice, DataKind::Payload));
        }
        w
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = KnowledgeFingerprint::of(&toy_world(false));
        let b = KnowledgeFingerprint::of(&toy_world(false));
        assert_eq!(a, b);
        let c = KnowledgeFingerprint::of(&toy_world(true));
        assert_ne!(a, c);
        assert_eq!(a.rows[1].0, "Relay");
        assert_eq!(a.rows[1].1, vec!["(▲, −)".to_string()]);
    }

    #[test]
    fn new_couplings_is_baseline_relative() {
        // Relay coupled in both → not "new". User's own device never counts.
        assert!(new_couplings(&toy_world(true), &toy_world(true)).is_empty());
        assert!(new_couplings(&toy_world(false), &toy_world(false)).is_empty());
        let fresh = new_couplings(&toy_world(false), &toy_world(true));
        assert_eq!(fresh.len(), 1);
        assert!(fresh[0].starts_with("Relay"), "{fresh:?}");
    }

    fn toy_outcome(world: World, log: FaultLog, completed: bool) -> DstOutcome {
        DstOutcome {
            world,
            fault_log: log,
            completed,
            completed_units: completed as u64,
            expected_units: None,
            retry_linkage: Vec::new(),
        }
    }

    #[test]
    fn harness_passes_a_safe_deterministic_scenario() {
        let reports = run_scenario("toy", 11, |config, seed| {
            let mut log = FaultLog::default();
            if config.enabled {
                // A deterministic pretend-fault so logs are nonempty.
                log.push(seed, FaultKind::Drop { src: 0, dst: 1 });
            }
            toy_outcome(toy_world(false), log, true)
        });
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.new_couplings.is_empty()));
        assert!(reports.iter().all(|r| r.tables_match_baseline));
        assert_eq!(reports[0].faults_injected, 0, "calm");
        assert_eq!(reports[2].preset, "harsh");
        assert_eq!(reports[3].faults_injected, 1, "chaos");
    }

    #[test]
    #[should_panic(expected = "created new couplings")]
    fn harness_catches_fault_induced_coupling() {
        run_scenario("leaky", 12, |config, _seed| {
            toy_outcome(toy_world(config.enabled), FaultLog::default(), true)
        });
    }

    #[test]
    #[should_panic(expected = "recovery layer failed to finish")]
    fn harness_enforces_the_harsh_completion_bar() {
        run_scenario("lossy", 13, |config, _seed| {
            // Completes 1 of 2 units whenever faults are on: passes the
            // moderate progress bar but not the harsh completion bar.
            let done = if config.enabled { 1 } else { 2 };
            DstOutcome {
                world: toy_world(false),
                fault_log: FaultLog::default(),
                completed: true,
                completed_units: done,
                expected_units: Some(2),
                retry_linkage: Vec::new(),
            }
        });
    }

    #[test]
    #[should_panic(expected = "linkable by ciphertext equality")]
    fn harness_rejects_linkable_retries() {
        run_scenario("replayer", 14, |config, _seed| {
            let linkage = if config.enabled {
                vec!["flow 0 seq 0: attempts 0 and 1 share ciphertext".into()]
            } else {
                Vec::new()
            };
            DstOutcome {
                world: toy_world(false),
                fault_log: FaultLog::default(),
                completed: true,
                completed_units: 1,
                expected_units: None,
                retry_linkage: linkage,
            }
        });
    }

    #[test]
    #[should_panic(expected = "differ from the fault-free baseline")]
    fn harness_enforces_table_equality_under_harsh() {
        run_scenario("leaky-knowledge", 15, |config, _seed| {
            // Faulted runs accrue extra (uncoupled) relay knowledge: safe
            // by the coupling test, but a table mismatch under harsh.
            let mut w = toy_world(false);
            if config.enabled {
                let relay = w.entity_by_name("Relay").id;
                let alice = w.users()[0];
                w.record(relay, InfoItem::plain_data(alice, DataKind::Payload));
            }
            toy_outcome(w, FaultLog::default(), true)
        });
    }
}
