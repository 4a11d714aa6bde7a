//! Multi-seed harsh-preset recovery sweep over every registered wiring —
//! the CI completion-bar probe.
//!
//! Runs the harsh recovery probe
//! ([`decoupling::faults::dst::sweep_recovery_probe`]) at `--worlds`
//! derived seeds for each wiring of [`decoupling::REGISTRY`], in its
//! order: each world is a recovered fault-free baseline plus a recovered
//! `FaultConfig::harsh()` run, asserting that every work unit completes,
//! that the knowledge tables are byte-identical to the baseline, and that
//! no two attempts of one request share a ciphertext. The combined
//! [`RecoverySweepReport`]s are written as JSON, byte-identical across
//! executors (flags and CI use: [`dcp_bench::probe`]).
//!
//! ```text
//! dst_recover [--worlds N] [--threads N] [--seed S] [--sequential]
//!             [--backend fast|reference] [--out PATH]
//! ```

use dcp_bench::probe::run_probe;
use decoupling::faults::dst::{sweep_recovery_probe, RecoverySweepReport};
use decoupling::REGISTRY;

fn main() {
    run_probe(
        4,
        20230402,
        true,
        |builder, exec| {
            REGISTRY
                .iter()
                .map(|reg| sweep_recovery_probe(reg.name, reg.run, builder, exec))
                .collect()
        },
        |r: &RecoverySweepReport| {
            format!(
                "{:<12} worlds={} harsh-complete={}/{} units={} faults={}",
                r.scenario,
                r.worlds,
                r.completed_harsh,
                r.worlds,
                r.completed_units,
                r.total_faults
            )
        },
    );
}
