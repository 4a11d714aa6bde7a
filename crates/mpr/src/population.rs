//! Population-scale bridge: map a [`WorldSpec`] onto the multi-party
//! relay chain and name its abstract decoupled-path topology.

use dcp_runtime::{PopulationScenario, Topology, WorldSpec};

use crate::scenario::{ChainConfig, Mpr};

impl PopulationScenario for Mpr {
    /// One user per population user behind the paper's 2-relay chain.
    /// MPR's roles are seam roles, addressed by `PeerId(u16)` like
    /// ODoH's, so a world holds at most 65,535 roles: 65,532 users
    /// beside the origin and the two relays. A larger spec is not
    /// capped; it panics when the simulator hosts the roles.
    fn population_config(spec: &WorldSpec) -> ChainConfig {
        ChainConfig {
            relays: 2,
            users: spec.users as usize,
            fetches_each: spec.queries_per_user() as usize,
            geohint: false,
            seed: 0, // replaced per run by `run_with`
        }
    }

    fn topology() -> Topology {
        Topology::mpr()
    }
}

#[cfg(test)]
mod tests {
    use dcp_core::ScenarioReport as _;
    use dcp_runtime::{PopulationScenario, WorldSpec};

    use crate::scenario::Mpr;

    #[test]
    fn population_run_completes_all_fetches() {
        let spec = WorldSpec::smoke()
            .users(3)
            .rate_hz(0.4)
            .duration_us(5_000_000);
        let report = Mpr::run_population(&spec, 3);
        assert_eq!(report.completed_units(), 3 * spec.queries_per_user());
        assert!(report.trace.is_empty());
        assert!(report.metrics.enabled);
    }
}
