//! # dcp-faults — deterministic fault injection for the simulator
//!
//! Deterministic Simulation Testing (DST) in the FoundationDB/TigerBeetle
//! mold: every fault the network can suffer — drops, duplicates, delays,
//! reorderings, partitions, crashes, relay churn, and modeled key
//! compromise — is drawn from a *seeded* generator behind a single
//! [`buggify!`]-style decision point, and every injected fault is recorded
//! in a [`FaultLog`]. The same `(seed, FaultConfig)` pair therefore
//! replays the exact same failure schedule bit-for-bit, so a failing run
//! is a reproducible artifact, not an anecdote.
//!
//! The decoupling paper's claims are *information-flow* claims, so the
//! invariant DST checks here is unusual: not "the database stays
//! consistent" but "no fault short of key compromise hands any non-user
//! entity a coupled `(▲, ●)` knowledge tuple" (§2.4). Packet chaos may
//! degrade liveness; it must never degrade decoupling — decoupled systems
//! have to *fail closed*.
//!
//! The crate deliberately depends only on `dcp-core` (for the key-
//! compromise fault and the safety verdict) and `rand`: the simulator
//! (`dcp-simnet`) depends on *us* and wires [`Injector`] into its
//! dispatch loop, scenarios pass a [`FaultConfig`] through their
//! builders, and the [`dst`] module gives integration tests a harness to
//! run a scenario under each preset and compare runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dst;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

// The fault *data* types (config, catalog, log) moved to `dcp-core` so
// the unified `Scenario` trait can speak them; they are re-exported here
// at their original paths. This crate keeps the seeded generator.
pub use dcp_core::faults::{FaultConfig, FaultEvent, FaultKind, FaultLog};

/// The seeded fault generator the simulator consults at each injection
/// point.
///
/// The injector owns its *own* `StdRng`, separate from the simulator's
/// traffic RNG: enabling faults must not perturb link jitter or protocol
/// randomness, so a calm-preset run and a faults-disabled run see
/// identical traffic.
#[derive(Clone, Debug)]
pub struct Injector {
    /// The active configuration (public so [`buggify!`] can read
    /// probabilities without a borrow dance).
    pub config: FaultConfig,
    rng: StdRng,
    log: FaultLog,
    injected: u64,
    /// Open partition windows: canonical (min, max) node pair → absolute
    /// closing time in µs.
    partitions: BTreeMap<(usize, usize), u64>,
}

impl Injector {
    /// A fresh injector for one run. `seed` should be derived from the
    /// scenario seed so the whole run stays a pure function of
    /// `(seed, config)`.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        Injector {
            config,
            rng: StdRng::seed_from_u64(seed ^ 0xb166_01f5_u64),
            log: FaultLog::default(),
            injected: 0,
            partitions: BTreeMap::new(),
        }
    }

    /// The log so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Consume the injector, returning the final log.
    pub fn into_log(self) -> FaultLog {
        self.log
    }

    /// The single probabilistic decision point ([`buggify!`] expands to
    /// this): `true` with probability `p`, but never once the
    /// `max_faults` budget is spent. Every `true` consumes budget.
    pub fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 || self.injected >= self.config.max_faults {
            return false;
        }
        let hit = self.rng.gen_bool(p);
        if hit {
            self.injected += 1;
        }
        hit
    }

    /// A uniform draw in `1..=max` (0 if `max` is 0) for fault
    /// parameters like delays.
    pub fn amount(&mut self, max: u64) -> u64 {
        if max == 0 {
            0
        } else {
            self.rng.gen_range(1..=max)
        }
    }

    /// Record an injected fault.
    pub fn record(&mut self, at_us: u64, kind: FaultKind) {
        self.log.push(at_us, kind);
    }

    /// Is the pair `(a, b)` inside an open partition window at `now_us`?
    /// Expired windows are purged as a side effect.
    pub fn partitioned(&mut self, now_us: u64, a: usize, b: usize) -> bool {
        self.partitions.retain(|_, &mut until| until > now_us);
        let key = (a.min(b), a.max(b));
        self.partitions.contains_key(&key)
    }

    /// Open a partition between `a` and `b` lasting
    /// `config.partition_window_us`, and log it.
    pub fn open_partition(&mut self, now_us: u64, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        let until_us = now_us + self.config.partition_window_us;
        self.partitions.insert(key, until_us);
        self.record(
            now_us,
            FaultKind::Partition {
                a: key.0,
                b: key.1,
                until_us,
            },
        );
    }

    /// Open a partition between two *directory* nodes. Same window
    /// mechanics as [`Injector::open_partition`], but logged as
    /// [`FaultKind::DirPartition`] so the replay artifact shows the
    /// anti-entropy path was attacked rather than the data path.
    pub fn open_dir_partition(&mut self, now_us: u64, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        let until_us = now_us + self.config.partition_window_us;
        self.partitions.insert(key, until_us);
        self.record(
            now_us,
            FaultKind::DirPartition {
                a: key.0,
                b: key.1,
                until_us,
            },
        );
    }
}

/// FoundationDB-style fault decision point.
///
/// `buggify!(faults, p_drop)` reads the named probability field off an
/// `Option<Injector>` and rolls it: `false` (one branch, no RNG draw)
/// when faults are disabled, a logged-budget draw when enabled. Keeping
/// every probabilistic decision behind this macro is what makes runs
/// replayable — there is exactly one fault RNG and one place it is
/// consulted.
///
/// ```
/// use dcp_faults::{buggify, FaultConfig, Injector};
/// let mut faults: Option<Injector> = Some(Injector::new(FaultConfig::chaos(), 7));
/// if buggify!(faults, p_drop) {
///     // drop the packet
/// }
/// let mut off: Option<Injector> = None;
/// assert!(!buggify!(off, p_drop));
/// ```
#[macro_export]
macro_rules! buggify {
    ($faults:expr, $field:ident) => {
        match $faults.as_mut() {
            Some(inj) => {
                let p = inj.config.$field;
                inj.roll(p)
            }
            None => false,
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_escalate() {
        let calm = FaultConfig::calm();
        let moderate = FaultConfig::moderate();
        let harsh = FaultConfig::harsh();
        let chaos = FaultConfig::chaos();
        assert!(!calm.enabled);
        assert!(moderate.enabled && harsh.enabled && chaos.enabled);
        assert!(calm.p_drop == 0.0);
        assert!(moderate.p_drop < harsh.p_drop);
        assert!(moderate.max_faults < harsh.max_faults);
        assert!(harsh.max_faults < chaos.max_faults);
        assert_eq!(
            harsh.p_crash, 0.0,
            "harsh carries a completion bar: clients must stay alive"
        );
        assert!(chaos.p_crash > 0.0);
        assert_eq!(FaultConfig::presets().len(), 4);
        let names: Vec<_> = FaultConfig::presets().map(|(n, _)| n).to_vec();
        assert_eq!(names, ["calm", "moderate", "harsh", "chaos"]);
    }

    #[test]
    fn harsh_fleet_extends_harsh_without_touching_presets() {
        let hf = FaultConfig::harsh_fleet();
        assert!(hf.enabled);
        assert!(hf.p_relay_join > 0.0 && hf.p_relay_leave > 0.0 && hf.p_dir_partition > 0.0);
        // Everything else is exactly harsh: the fleet preset is an
        // extension, not a new tier.
        let mut stripped = hf.clone();
        stripped.p_relay_join = 0.0;
        stripped.p_relay_leave = 0.0;
        stripped.p_dir_partition = 0.0;
        assert_eq!(stripped, FaultConfig::harsh());
        // And it is NOT in the sweep battery: the DST baseline artifacts
        // iterate presets() and are byte-pinned in CI.
        assert_eq!(FaultConfig::presets().len(), 4);
        for (name, preset) in FaultConfig::presets() {
            assert_ne!(name, "harsh_fleet");
            assert_eq!(preset.p_relay_join, 0.0, "{name} must stay fleet-free");
            assert_eq!(preset.p_relay_leave, 0.0, "{name} must stay fleet-free");
            assert_eq!(preset.p_dir_partition, 0.0, "{name} must stay fleet-free");
        }
    }

    #[test]
    fn dir_partitions_are_logged_distinctly_but_block_identically() {
        let mut cfg = FaultConfig::harsh_fleet();
        cfg.partition_window_us = 100;
        let mut inj = Injector::new(cfg, 3);
        inj.open_dir_partition(10, 1, 0);
        assert!(inj.partitioned(50, 0, 1), "window blocks traffic");
        assert!(!inj.partitioned(111, 0, 1), "and expires");
        assert!(matches!(
            inj.log().events()[0].kind,
            FaultKind::DirPartition {
                a: 0,
                b: 1,
                until_us: 110
            }
        ));
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed: u64| {
            let mut inj = Injector::new(FaultConfig::chaos(), seed);
            (0..200).map(|_| inj.roll(0.3)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should diverge");
    }

    #[test]
    fn max_faults_budget_is_a_hard_cap() {
        let mut cfg = FaultConfig::chaos();
        cfg.max_faults = 3;
        let mut inj = Injector::new(cfg, 1);
        let hits = (0..10_000).filter(|_| inj.roll(0.9)).count();
        assert_eq!(hits, 3);
    }

    #[test]
    fn partitions_open_and_expire() {
        let mut cfg = FaultConfig::moderate();
        cfg.partition_window_us = 100;
        let mut inj = Injector::new(cfg, 2);
        assert!(!inj.partitioned(0, 1, 2));
        inj.open_partition(10, 2, 1);
        assert!(inj.partitioned(50, 1, 2), "symmetric and open");
        assert!(inj.partitioned(50, 2, 1));
        assert!(!inj.partitioned(111, 1, 2), "expired");
        assert_eq!(inj.log().len(), 1);
        assert!(matches!(
            inj.log().events()[0].kind,
            FaultKind::Partition {
                a: 1,
                b: 2,
                until_us: 110
            }
        ));
    }

    #[test]
    fn buggify_disabled_is_inert() {
        let mut off: Option<Injector> = None;
        for _ in 0..100 {
            assert!(!buggify!(off, p_drop));
        }
    }

    #[test]
    fn log_link_accounting() {
        let mut log = FaultLog::default();
        log.push(1, FaultKind::Drop { src: 0, dst: 1 });
        log.push(
            2,
            FaultKind::Duplicate {
                src: 0,
                dst: 1,
                copies: 3,
            },
        );
        log.push(3, FaultKind::Drop { src: 1, dst: 0 });
        assert_eq!(log.drops_on_link(0, 1), 1);
        assert_eq!(log.drops_on_link(1, 0), 1);
        assert_eq!(log.duplicates_on_link(0, 1), 2);
        assert_eq!(log.duplicates_on_link(1, 0), 0);
        assert_eq!(log.count(|k| matches!(k, FaultKind::Drop { .. })), 2);
    }

    #[test]
    fn fault_log_serializes() {
        let mut log = FaultLog::default();
        log.push(
            7,
            FaultKind::KeyCompromise {
                victim: 1,
                beneficiary: 2,
                key: 9,
            },
        );
        let json = serde_json::to_string(&serde_json::to_value(&log)).unwrap();
        assert!(json.contains("KeyCompromise"), "{json}");
        assert!(json.contains("beneficiary"), "{json}");
    }
}
