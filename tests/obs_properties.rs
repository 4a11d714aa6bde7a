//! Property tests: the metrics layer stays honest under injected faults.
//!
//! Every registered wiring is run at its battery shape with the sink
//! installed, and the resulting [`decoupling::MetricsReport`] is
//! reconciled against the two other sources of ground truth the
//! simulator produces:
//!
//! * the [`decoupling::FaultLog`] — each per-kind counter in
//!   `metrics.faults` must equal the number of matching replay-log
//!   entries, for every preset;
//! * the wire trace — every send the metrics count that is neither an
//!   environment injection nor a wire drop must appear as exactly one
//!   packet record ([`decoupling::ScenarioReport::packets`]);
//!
//! plus the internal wire-accounting identity (sent = delivered +
//! dropped + lost-to-crash + unserviced) and determinism of the whole
//! report as a pure function of `(config, seed, preset)`.

use decoupling::{FaultConfig, FaultLog, Registration, RunOptions, ScenarioReport, REGISTRY};
use proptest::prelude::*;

/// Run `reg` observed under `faults`: its report carries the metrics
/// and the two ground-truth artifacts they must agree with.
fn observed(reg: &Registration, seed: u64, faults: &FaultConfig) -> Box<dyn ScenarioReport + Send> {
    (reg.run)(seed, &RunOptions::observed_with_faults(faults))
}

/// The metrics-side name of each replay-log fault kind. Every injection
/// site in the dispatch loop records into the log and emits the obs
/// event at the same point, so the counts must match exactly.
fn log_count_by_kind(log: &FaultLog, kind: &str) -> u64 {
    use decoupling::faults::FaultKind as K;
    log.count(|k| {
        matches!(
            (kind, k),
            ("drop", K::Drop { .. })
                | ("duplicate", K::Duplicate { .. })
                | ("extra_delay", K::ExtraDelay { .. })
                | ("reorder", K::Reorder { .. })
                | ("partition", K::Partition { .. })
                | ("crash", K::Crash { .. })
                | ("relay_churn", K::RelayCrash { .. })
                | ("dir_partition", K::DirPartition { .. })
                | ("crash_loss", K::CrashLoss { .. })
                | ("key_compromise", K::KeyCompromise { .. })
        )
    }) as u64
}

const FAULT_KINDS: &[&str] = &[
    "drop",
    "duplicate",
    "extra_delay",
    "reorder",
    "partition",
    "crash",
    "relay_churn",
    "dir_partition",
    "crash_loss",
    "key_compromise",
];

/// The presets every faulted property runs: calm, moderate and harsh.
/// Looped inside each case rather than drawn, like the wirings, so no
/// preset depends on which indices the fixed-seed case generator draws.
fn presets() -> impl Iterator<Item = (&'static str, FaultConfig)> {
    FaultConfig::presets().into_iter().take(3)
}

proptest! {
    // Every case runs every registered wiring under every preset at one
    // seed; only the seed is drawn.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Per-kind fault counters reconcile with the replay log, the wire
    /// accounting identity holds, and span/knowledge bookkeeping is
    /// internally consistent — for every wiring under every preset.
    #[test]
    fn metrics_reconcile_with_fault_log(seed in any::<u64>()) {
        for (preset, faults) in presets() {
            for reg in REGISTRY {
                let name = format!("{} under {preset}", reg.name);
                let obs = observed(reg, seed, &faults);
                let m = obs.metrics();

                prop_assert!(m.enabled);
                prop_assert_eq!(m.scenario.as_str(), reg.name, "{}", name);
                prop_assert_eq!(m.seed, seed);
                prop_assert!(m.wire_accounting_holds(),
                    "{}: sent {} != delivered {} + dropped {} + lost {} + unserviced {}",
                    name, m.messages_sent, m.messages_delivered, m.messages_dropped,
                    m.messages_lost_to_crash, m.messages_unserviced);

                // Every fault the metrics saw is in the log, kind by kind …
                for kind in FAULT_KINDS {
                    prop_assert_eq!(
                        m.faults.get(*kind).copied().unwrap_or(0),
                        log_count_by_kind(obs.fault_log(), kind),
                        "{}: counter/log mismatch for {}", name, kind
                    );
                }
                // … and the metrics invented no kinds of their own.
                for kind in m.faults.keys() {
                    prop_assert!(FAULT_KINDS.contains(&kind.as_str()),
                        "{}: unknown fault kind {}", name, kind);
                }

                // A wire drop is either a drop fault or a partition casualty,
                // so the drop counter is bounded below by the logged drops.
                prop_assert!(m.messages_dropped >= m.faults.get("drop").copied().unwrap_or(0),
                    "{}: fewer wire drops than drop faults", name);

                // Spans close after they open, inside simulated time; the
                // per-entity knowledge rollup covers the timeline exactly.
                for s in &m.spans {
                    prop_assert!(s.start_us <= s.end_us, "{}: span ends before it starts", name);
                    prop_assert!(s.end_us <= m.sim_end_us, "{}: span ends after the run", name);
                }
                prop_assert_eq!(
                    m.knowledge_by_entity.values().sum::<u64>(),
                    m.knowledge.len() as u64,
                    "{}: knowledge rollup", name
                );
            }
        }
    }

    /// Calm observed runs are fault-free in every ledger at once: empty
    /// replay log, empty fault counters, loss-free wire accounting, and
    /// the workload completes — with crypto recorded, except on plain
    /// DNS (`dns_direct`), which by design encrypts nothing.
    #[test]
    fn calm_runs_are_loss_free(seed in any::<u64>()) {
        for reg in REGISTRY {
            let name = reg.name;
            let obs = observed(reg, seed, &FaultConfig::calm());
            let m = obs.metrics();

            prop_assert!(obs.fault_log().is_empty(), "{}: calm run logged faults", name);
            prop_assert!(m.faults.is_empty(), "{}: calm fault counters", name);
            prop_assert_eq!(m.messages_dropped, 0, "{}: {} dropped", name, m.messages_dropped);
            prop_assert_eq!(m.messages_lost_to_crash, 0, "{}: lost to crashes", name);
            prop_assert_eq!(m.messages_unserviced, 0, "{}: unserviced", name);
            prop_assert_eq!(m.messages_sent, m.messages_delivered, "{}: sent != delivered", name);
            prop_assert_eq!(m.bytes_sent, m.bytes_delivered, "{}: bytes sent != delivered", name);
            prop_assert!(obs.completed(), "{}: calm run made no progress", name);
            if name != "dns_direct" {
                prop_assert!(m.crypto_total() > 0, "{}: no crypto ops recorded", name);
            }
        }
    }

    /// Trace/metrics reconciliation across presets: a metrics-counted
    /// send is an environment injection, a wire drop, or exactly one
    /// packet record. Environment injections are a pure function of the
    /// config, so the calm run measures them and the faulted run must
    /// agree: sent − dropped − trace = the same constant.
    #[test]
    fn trace_reconciles_across_presets(seed in any::<u64>()) {
        for reg in REGISTRY {
            let calm = observed(reg, seed, &FaultConfig::calm());
            let env_posts = calm.metrics().messages_sent - calm.packets() as u64;

            for (preset, faults) in presets() {
                let obs = observed(reg, seed, &faults);
                prop_assert_eq!(
                    obs.metrics().messages_sent - obs.metrics().messages_dropped
                        - obs.packets() as u64,
                    env_posts,
                    "{} under {}: sends unaccounted for between trace and metrics",
                    reg.name, preset
                );
            }
        }
    }

    /// The whole report is a pure function of `(config, seed, preset)` —
    /// the metrics layer must not perturb or depend on anything outside
    /// the simulation.
    #[test]
    fn metrics_replay_from_seed(seed in any::<u64>()) {
        for (preset, faults) in presets() {
            for reg in REGISTRY {
                let a = observed(reg, seed, &faults);
                let b = observed(reg, seed, &faults);
                let name = format!("{} under {preset}", reg.name);
                prop_assert_eq!(a.metrics(), b.metrics(), "{}: metrics diverged", name);
                prop_assert_eq!(a.fault_log(), b.fault_log(), "{}: fault log diverged", name);
                prop_assert_eq!(a.packets(), b.packets(), "{}: trace diverged", name);
            }
        }
    }
}
