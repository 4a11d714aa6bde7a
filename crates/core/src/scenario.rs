//! The unified [`Scenario`] API: one way to run every §3 system.
//!
//! Every scenario crate implements one trait. A run is
//! [`Scenario::run_with`] plus a [`RunOptions`] profile;
//! [`Scenario::run`] is the calm, uninstrumented shorthand and
//! [`Scenario::sweep`] the multi-seed form:
//!
//! ```ignore
//! use dcp_core::{FaultConfig, RunOptions, Scenario, ScenarioReport};
//! use dcp_odns::{Odoh, OdohConfig};
//!
//! let report = Odoh::run(&OdohConfig::new(3, 4), 42);
//! assert!(report.completed());
//! let chaos = RunOptions::with_faults(&FaultConfig::chaos());
//! let chaotic = Odoh::run_with(&OdohConfig::default(), 42, &chaos);
//! chaotic.world().assert_decoupled_except_user();
//! ```
//!
//! Every implementor keeps its rich, scenario-specific report struct; the
//! [`ScenarioReport`] trait is the common lens (world, fault log,
//! metrics, liveness) generic harnesses like DST and the obs property
//! tests need.

use crate::faults::{FaultConfig, FaultLog};
use crate::fleet::FleetConfig;
use crate::obs::MetricsReport;
use crate::recover::RecoverConfig;
use crate::sweep::{SweepBuilder, SweepExecutor, SweepRun};
use crate::world::World;

/// How to run a scenario: fault preset, recovery layer, relay fleet,
/// metrics sink, and the two population-scale memory bounds. `Default`
/// is calm, recovery-disabled, and uninstrumented — the zero-overhead
/// path.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Fault-injection configuration ([`FaultConfig::calm`] = none).
    pub faults: FaultConfig,
    /// Retry/timeout/failover configuration
    /// ([`RecoverConfig::disabled`] = no framing, no timers, no retries).
    pub recover: RecoverConfig,
    /// Relay-fleet directory configuration ([`FleetConfig::disabled`] =
    /// static relay sets, no directory nodes, no epoch rotation). Only
    /// the relay-fleet wirings (mpr, mixnet) consult it; everything else
    /// ignores the field entirely.
    pub fleet: FleetConfig,
    /// Install a metrics sink so the report's
    /// [`metrics`](ScenarioReport::metrics) is populated.
    pub observe: bool,
    /// Record the per-packet [`Trace`](ScenarioReport) (default on: DST
    /// and the traffic-analysis attackers read it). Population-scale runs
    /// turn it off — 10⁸ packet records is unbounded memory.
    pub record_trace: bool,
    /// Fold metrics as they arrive instead of retaining the unbounded
    /// per-event vectors (spans, knowledge records). Aggregate counters
    /// stay exact; only the itemised lists are dropped.
    pub streaming_metrics: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            faults: FaultConfig::default(),
            recover: RecoverConfig::default(),
            fleet: FleetConfig::default(),
            observe: false,
            record_trace: true,
            streaming_metrics: false,
        }
    }
}

impl RunOptions {
    /// Calm, uninstrumented, full per-packet trace (same as `Default`).
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// The population-scale profile: metrics sink installed, per-packet
    /// trace **off**, streaming (bounded-memory) metrics folding **on**.
    /// This is the only configuration that survives 10⁸-event worlds —
    /// an unbounded trace or itemised metrics lists would exhaust
    /// memory.
    pub fn population() -> Self {
        RunOptions {
            observe: true,
            record_trace: false,
            streaming_metrics: true,
            ..RunOptions::default()
        }
    }

    /// Calm, with the metrics sink installed.
    pub fn observed() -> Self {
        RunOptions {
            observe: true,
            ..RunOptions::default()
        }
    }

    /// Faulted, uninstrumented.
    pub fn with_faults(faults: &FaultConfig) -> Self {
        RunOptions {
            faults: faults.clone(),
            ..RunOptions::default()
        }
    }

    /// Faulted *and* instrumented.
    pub fn observed_with_faults(faults: &FaultConfig) -> Self {
        RunOptions {
            faults: faults.clone(),
            observe: true,
            ..RunOptions::default()
        }
    }

    /// Replace the recovery configuration (chainable).
    pub fn with_recovery(mut self, recover: &RecoverConfig) -> Self {
        self.recover = recover.clone();
        self
    }

    /// Faulted, with [`RecoverConfig::standard`] recovery — the
    /// combination the DST harness runs under every preset.
    pub fn recovered(faults: &FaultConfig) -> Self {
        RunOptions::with_faults(faults).with_recovery(&RecoverConfig::standard())
    }

    /// Replace the relay-fleet configuration (chainable).
    pub fn with_fleet(mut self, fleet: &FleetConfig) -> Self {
        self.fleet = fleet.clone();
        self
    }

    /// Install (or remove) the metrics sink (chainable).
    pub fn observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }
}

/// The common lens over every scenario's report: enough for generic
/// harnesses (DST determinism/safety, metrics reconciliation, the
/// experiments driver) without flattening away scenario-specific fields.
pub trait ScenarioReport {
    /// The final knowledge base.
    fn world(&self) -> &World;
    /// The fault schedule injected during the run (empty when faults
    /// were disabled).
    fn fault_log(&self) -> &FaultLog;
    /// Run metrics (disabled/empty unless the run was observed).
    fn metrics(&self) -> &MetricsReport;
    /// Packet records in the run's wire trace: every send the wire
    /// carried, and none of the environment's injections.
    fn packets(&self) -> usize;
    /// How many end-to-end work units finished (coins deposited, queries
    /// answered, reports aggregated, …) — the scenario's liveness
    /// measure.
    fn completed_units(&self) -> u64;
    /// Did the workload make any end-to-end progress?
    fn completed(&self) -> bool {
        self.completed_units() > 0
    }
    /// How many work units the configuration *asked for*, when the
    /// scenario can state it (`clients × queries_each`, `users × epochs ×
    /// moves`, …). `None` means the scenario has no well-defined target
    /// (e.g. best-effort one-way traffic); the DST harness's harsh
    /// completion bar only asserts `completed_units == expected_units`
    /// where this is `Some`.
    fn expected_units(&self) -> Option<u64> {
        None
    }
    /// Retry-linkage violations found by the
    /// [`RetryLinkage`](crate::analysis::RetryLinkage) check: pairs of
    /// attempts of the same logical request that an observer could
    /// correlate by ciphertext equality. Empty unless the scenario wired
    /// the check and re-randomization was broken.
    fn retry_linkage(&self) -> &[String] {
        &[]
    }
}

/// One uniform way to run a §3 scenario.
///
/// Implementors supply [`Scenario::run_with`]; [`run`](Scenario::run)
/// and [`sweep`](Scenario::sweep) are provided. A run must be a pure
/// function of `(config, seed, options)` — the DST harness replays it
/// and compares.
pub trait Scenario {
    /// Scenario parameters. `Default` must be a small, fast workload.
    type Config: Default + Clone;
    /// The scenario's rich report type.
    type Report: ScenarioReport;
    /// Stable scenario name (used in DST reports and metrics artifacts).
    const NAME: &'static str;

    /// Run with explicit [`RunOptions`].
    fn run_with(cfg: &Self::Config, seed: u64, opts: &RunOptions) -> Self::Report;

    /// Run fault-free and uninstrumented.
    fn run(cfg: &Self::Config, seed: u64) -> Self::Report {
        Self::run_with(cfg, seed, &RunOptions::default())
    }

    /// Run a multi-seed sweep of this scenario on `exec`: one
    /// independent world per [`SweepBuilder`] job, all sharing `cfg`
    /// and `opts`. Because [`run_with`](Scenario::run_with) is a pure
    /// function of `(config, seed, options)` and per-world seeds are
    /// derived, not chained, the returned [`SweepRun`] is identical for
    /// every conforming executor — the parallel engine in `dcp-sweep`
    /// and [`crate::sweep::SequentialExecutor`] produce the same bytes.
    fn sweep<X>(
        cfg: &Self::Config,
        builder: &SweepBuilder,
        exec: &X,
        opts: &RunOptions,
    ) -> SweepRun<Self::Report>
    where
        X: SweepExecutor + ?Sized,
        Self::Config: Sync,
        Self::Report: Send,
    {
        builder.run_on(exec, |job| Self::run_with(cfg, job.seed, opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ToyReport {
        world: World,
        log: FaultLog,
        metrics: MetricsReport,
        done: u64,
    }

    impl ScenarioReport for ToyReport {
        fn world(&self) -> &World {
            &self.world
        }
        fn fault_log(&self) -> &FaultLog {
            &self.log
        }
        fn metrics(&self) -> &MetricsReport {
            &self.metrics
        }
        fn packets(&self) -> usize {
            0
        }
        fn completed_units(&self) -> u64 {
            self.done
        }
    }

    struct Toy;

    impl Scenario for Toy {
        type Config = u64;
        type Report = ToyReport;
        const NAME: &'static str = "toy";

        fn run_with(cfg: &u64, seed: u64, opts: &RunOptions) -> ToyReport {
            ToyReport {
                world: World::new(),
                log: FaultLog::default(),
                metrics: MetricsReport {
                    enabled: opts.observe,
                    ..MetricsReport::default()
                },
                done: cfg + seed,
            }
        }
    }

    #[test]
    fn provided_entrypoints_delegate() {
        let r = Toy::run(&2, 3);
        assert_eq!(r.completed_units(), 5);
        assert!(r.completed());
        assert!(!r.metrics().enabled);
        assert!(!Toy::run(&0, 0).completed());
        let builder = SweepBuilder::new(9).worlds(3);
        let swept = Toy::sweep(
            &2,
            &builder,
            &crate::SequentialExecutor,
            &RunOptions::observed(),
        );
        for entry in &swept.entries {
            assert_eq!(entry.result.completed_units(), 2 + entry.seed);
            assert!(entry.result.metrics().enabled, "options reach every world");
        }
    }

    #[test]
    fn run_options_builders() {
        assert!(!RunOptions::new().observe);
        assert!(RunOptions::observed().observe);
        let chaos = FaultConfig::chaos();
        assert_eq!(RunOptions::with_faults(&chaos).faults, chaos);
        let both = RunOptions::observed_with_faults(&chaos);
        assert!(both.observe && both.faults.enabled);
        assert!(!both.recover.enabled, "recovery is opt-in");
        let rec = RunOptions::recovered(&chaos);
        assert!(rec.recover.enabled && rec.faults.enabled && !rec.observe);
        assert_eq!(
            RunOptions::observed()
                .with_recovery(&crate::RecoverConfig::standard())
                .recover,
            crate::RecoverConfig::standard()
        );
    }

    #[test]
    fn named_profiles_pin_every_flag() {
        let d = RunOptions::new();
        assert!(!d.observe && d.record_trace && !d.streaming_metrics);
        assert!(!d.faults.enabled && !d.recover.enabled && !d.fleet.enabled);

        let pop = RunOptions::population();
        assert!(pop.observe, "population runs are always instrumented");
        assert!(!pop.record_trace, "an unbounded trace would OOM");
        assert!(pop.streaming_metrics, "metrics fold as they arrive");
        assert!(!pop.faults.enabled && !pop.recover.enabled);

        let fleet = RunOptions::new().with_fleet(&FleetConfig::standard());
        assert!(fleet.fleet.enabled);

        // The profiles compose with the chainable setters.
        let custom = RunOptions::population().observe(false);
        assert!(!custom.observe && custom.streaming_metrics);
    }

    #[test]
    fn report_defaults_for_recovery_lens() {
        let r = Toy::run(&2, 3);
        assert_eq!(r.expected_units(), None);
        assert!(r.retry_linkage().is_empty());
    }
}
