//! Multi-seed DST smoke sweep over every registered wiring — the CI
//! determinism probe.
//!
//! Runs the full fault-preset battery
//! ([`decoupling::faults::dst::sweep_battery`]) at `--worlds` derived
//! seeds for each wiring of [`decoupling::REGISTRY`], in its order, and
//! writes the combined [`DstSweepReport`]s as JSON. The point of the
//! binary is the diff: any nondeterminism smuggled into the engine, a
//! scenario, or the aggregation shows up between the sequential and the
//! parallel run (flags and CI use: [`dcp_bench::probe`]).
//!
//! ```text
//! dst_sweep [--worlds N] [--threads N] [--seed S] [--sequential]
//!           [--backend fast|reference] [--out PATH]
//! ```

use dcp_bench::probe::run_probe;
use decoupling::faults::dst::{sweep_battery, DstSweepReport};
use decoupling::REGISTRY;

fn main() {
    run_probe(
        3,
        20221114,
        true,
        |builder, exec| {
            REGISTRY
                .iter()
                .map(|reg| sweep_battery(reg.name, reg.run, builder, exec))
                .collect()
        },
        |r: &DstSweepReport| {
            format!(
                "{:<12} worlds={} faults={} moderate-complete={}/{} new-couplings={}",
                r.scenario,
                r.worlds,
                r.total_faults,
                r.completed_moderate,
                r.worlds,
                r.new_couplings
            )
        },
    );
}
