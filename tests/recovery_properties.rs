//! Property tests for the `dcp-recover` layer, end to end.
//!
//! Three promises, each checked across arbitrary seeds:
//!
//! * **Knowledge invariance** — a recovered run under harsh faults ends
//!   with the exact knowledge fingerprint of the recovered fault-free
//!   run: retries, failovers, and ack plumbing teach no entity anything.
//! * **Exactly-once under duplication** — with a duplicate-only fault
//!   schedule (every other knob zero), N deliveries of the same message
//!   mutate receiver state exactly once per scenario: the completed-unit
//!   count matches the target, never exceeds it.
//! * **No timer overflow** — pathological backoff configurations
//!   (`u64::MAX` timeouts and jitter) saturate instead of panicking.

use decoupling::faults::dst::KnowledgeFingerprint;
use decoupling::recover::{ReliableCall, TimerVerdict};
use decoupling::{FaultConfig, RecoverConfig, RunOptions, Scenario, ScenarioReport as _};
use proptest::prelude::*;

/// A schedule that *only* duplicates deliveries — the sharpest probe of
/// receiver-side dedup, since nothing is ever lost or delayed.
fn duplicate_only() -> FaultConfig {
    let mut cfg = FaultConfig::calm();
    cfg.enabled = true;
    cfg.p_duplicate = 0.5;
    cfg.max_faults = 400;
    cfg
}

/// Recovered run under `faults` vs the recovered fault-free baseline:
/// the workload must fully complete and the knowledge tables must match
/// byte for byte.
fn assert_invariant<S: Scenario>(cfg: &S::Config, seed: u64, faults: &FaultConfig) {
    let calm = S::run_with(cfg, seed, &RunOptions::recovered(&FaultConfig::calm()));
    let faulted = S::run_with(cfg, seed, &RunOptions::recovered(faults));
    if let Some(expected) = faulted.expected_units() {
        assert_eq!(
            faulted.completed_units(),
            expected,
            "{}/{seed}: recovery failed to finish the workload",
            S::NAME
        );
        assert_eq!(
            calm.completed_units(),
            expected,
            "{}/{seed}: calm recovered run incomplete",
            S::NAME
        );
    }
    assert!(
        faulted.retry_linkage().is_empty(),
        "{}/{seed}: attempts linkable by ciphertext equality: {:?}",
        S::NAME,
        faulted.retry_linkage()
    );
    assert_eq!(
        KnowledgeFingerprint::of(faulted.world()),
        KnowledgeFingerprint::of(calm.world()),
        "{}/{seed}: faulted knowledge tables drifted from the baseline",
        S::NAME
    );
}

fn mpr_cfg() -> decoupling::ChainConfig {
    decoupling::ChainConfig {
        relays: 2,
        users: 2,
        fetches_each: 2,
        geohint: false,
        seed: 0,
    }
}

fn odoh_cfg() -> decoupling::OdohConfig {
    decoupling::OdohConfig::new(2, 3)
}

/// ODoH with a backup proxy: clients rotate over two proxies whose
/// sequence numbers overlap at the target.
fn odoh_backup_cfg() -> decoupling::OdohConfig {
    odoh_cfg().backup_proxies(1)
}

fn mixnet_cfg() -> decoupling::MixnetConfig {
    decoupling::MixnetConfig {
        senders: 4,
        mixes: 2,
        batch_size: 2,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: Some(50_000),
        seed: 0,
    }
}

fn ppm_cfg() -> decoupling::PpmConfig {
    decoupling::PpmConfig {
        clients: 4,
        bits: 4,
        malicious: 0,
        seed: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Harsh faults + recovery = fault-free knowledge, at any seed.
    #[test]
    fn recovered_harsh_matches_fault_free_knowledge(seed in 0u64..10_000) {
        assert_invariant::<decoupling::Mpr>(&mpr_cfg(), seed, &FaultConfig::harsh());
        assert_invariant::<decoupling::Odoh>(&odoh_cfg(), seed, &FaultConfig::harsh());
        assert_invariant::<decoupling::Odoh>(&odoh_backup_cfg(), seed, &FaultConfig::harsh());
    }

    /// Duplicate-only schedules mutate receiver knowledge exactly once
    /// per logical message, in every scenario shape: request/response
    /// (MPR, ODoH), one-way mix custody (mixnet), and one-time
    /// instruments that receivers must dedup (PPM share pairs).
    #[test]
    fn duplicated_deliveries_mutate_knowledge_exactly_once(seed in 0u64..10_000) {
        let dup = duplicate_only();
        assert_invariant::<decoupling::Mpr>(&mpr_cfg(), seed, &dup);
        assert_invariant::<decoupling::Odoh>(&odoh_cfg(), seed, &dup);
        assert_invariant::<decoupling::Odoh>(&odoh_backup_cfg(), seed, &dup);
        assert_invariant::<decoupling::Mixnet>(&mixnet_cfg(), seed, &dup);
        assert_invariant::<decoupling::Ppm>(&ppm_cfg(), seed, &dup);
    }

    /// Pathological backoff configs saturate rather than panic, and the
    /// armed delay never wraps below the configured floor.
    #[test]
    fn extreme_backoff_never_overflows(
        base in prop_oneof![Just(u64::MAX), Just(u64::MAX / 2), 1u64..1_000_000],
        jitter in prop_oneof![Just(u64::MAX), 0u64..1_000_000],
        factor in 1u64..=16,
        seed in any::<u64>(),
    ) {
        let cfg = RecoverConfig::standard()
            .max_attempts(4)
            .base_timeout_us(base)
            .backoff_factor(factor)
            .max_backoff_us(u64::MAX)
            .jitter_us(jitter);
        let mut arq = ReliableCall::new(&cfg, seed);
        let mut att = arq.begin().expect("enabled ARQ begins");
        // Jitter is additive and the add saturates, so the armed delay can
        // never fall below the configured base.
        prop_assert!(att.timer_delay_us >= base);
        // Walk the whole ladder: every verdict must be well-formed.
        loop {
            match arq.on_timer(att.token) {
                TimerVerdict::Retry(next) => att = next,
                TimerVerdict::Exhausted { .. } => break,
                v => prop_assert!(false, "unexpected verdict {v:?}"),
            }
        }
    }
}
