//! [`WorldSpec`]: one declarative description of a population, and the
//! [`PopulationScenario`] bridge that runs any §3 scenario wiring at
//! population scale.

use dcp_core::{RunOptions, Scenario};
use serde::Serialize;

use crate::gen::{Diurnal, Workload};

/// A population-scale world, declaratively: how many users and names,
/// how skewed, how fast, how diurnal, how long. Everything the workload
/// generators need; the seed arrives separately at run time so one spec
/// sweeps over many seeds.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct WorldSpec {
    /// Simulated user population.
    pub users: u64,
    /// Distinct query names (DNS names, destinations, …).
    pub names: u64,
    /// Zipf exponent of name popularity (`0` = uniform).
    pub name_exponent: f64,
    /// Zipf exponent of per-user activity skew (`0` = homogeneous).
    pub user_exponent: f64,
    /// Mean per-user query rate, Hz of simulated time.
    pub rate_hz: f64,
    /// Diurnal swing around the mean rate, clamped to `[0, 0.99]`.
    pub diurnal_amplitude: f64,
    /// Diurnal cycle length, simulated µs (`0` = flat).
    pub diurnal_period_us: u64,
    /// How long users keep issuing queries, simulated µs.
    pub duration_us: u64,
}

impl Default for WorldSpec {
    fn default() -> Self {
        WorldSpec {
            users: 1_000,
            names: 1_000,
            name_exponent: 1.1,
            user_exponent: 0.6,
            rate_hz: 0.5,
            diurnal_amplitude: 0.5,
            diurnal_period_us: 60_000_000, // one "day" per simulated minute
            duration_us: 60_000_000,
        }
    }
}

impl WorldSpec {
    /// The default mid-size spec.
    pub fn new() -> Self {
        WorldSpec::default()
    }

    /// A small spec for CI smokes and tests (hundreds of users, a few
    /// simulated seconds).
    pub fn smoke() -> Self {
        WorldSpec {
            users: 200,
            names: 100,
            duration_us: 5_000_000,
            rate_hz: 2.0,
            ..WorldSpec::default()
        }
    }

    /// Set the user population (chainable).
    pub fn users(mut self, users: u64) -> Self {
        self.users = users;
        self
    }

    /// Set the name population (chainable).
    pub fn names(mut self, names: u64) -> Self {
        self.names = names;
        self
    }

    /// Set the Zipf exponents for name popularity and user activity
    /// (chainable).
    pub fn exponents(mut self, name_s: f64, user_s: f64) -> Self {
        self.name_exponent = name_s;
        self.user_exponent = user_s;
        self
    }

    /// Set the mean per-user rate in Hz (chainable).
    pub fn rate_hz(mut self, rate_hz: f64) -> Self {
        self.rate_hz = rate_hz;
        self
    }

    /// Set the diurnal envelope (chainable).
    pub fn diurnal(mut self, amplitude: f64, period_us: u64) -> Self {
        self.diurnal_amplitude = amplitude;
        self.diurnal_period_us = period_us;
        self
    }

    /// Set the workload duration in simulated µs (chainable).
    pub fn duration_us(mut self, duration_us: u64) -> Self {
        self.duration_us = duration_us;
        self
    }

    /// Expected queries per user, at least 1 — what scenario configs'
    /// `queries_each`-style knobs are derived from.
    pub fn queries_per_user(&self) -> u64 {
        ((self.rate_hz * (self.duration_us as f64 / 1e6)).round() as u64).max(1)
    }
}

/// Builds the seeded generator assembly ([`Workload`]) for a spec.
/// Fails on empty populations or non-finite exponents rather than
/// producing a silently degenerate world.
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    spec: WorldSpec,
}

impl WorkloadBuilder {
    /// A builder over `spec`.
    pub fn new(spec: &WorldSpec) -> Self {
        WorkloadBuilder { spec: spec.clone() }
    }

    /// Assemble the generators.
    pub fn build(&self) -> Result<Workload, String> {
        let s = &self.spec;
        Workload::assemble(
            s.users as usize,
            s.names as usize,
            s.name_exponent,
            s.user_exponent,
            s.rate_hz,
            Diurnal::new(s.diurnal_amplitude, s.diurnal_period_us),
        )
    }
}

/// Runs a §3 scenario wiring at population scale: the scenario maps a
/// [`WorldSpec`] onto its own config, and the provided entrypoint runs
/// it under the population profile (no per-packet trace, streaming
/// metrics) so memory stays bounded.
///
/// Implemented by all nine wirings via `dcp-runtime`'s re-export; the
/// abstract [`Topology`](crate::engine::Topology) preset (for
/// engine-scale 10⁸-event runs) rides along so every scenario names its
/// population shape once.
pub trait PopulationScenario: Scenario {
    /// Map a population spec onto this scenario's config. Large specs
    /// map to large configs — the implementation must not silently cap.
    /// Wirings written as seam roles (the DNS family, MPR) address their
    /// roles by a `u16` peer id, so their worlds hold at most 65,535
    /// roles, users included; beyond that the simulator host panics.
    fn population_config(spec: &WorldSpec) -> Self::Config;

    /// The abstract decoupled-path topology this wiring corresponds to,
    /// for engine-scale (10⁶ users / 10⁸ events) population runs.
    fn topology() -> crate::engine::Topology;

    /// Run the real protocol wiring over the population described by
    /// `spec`: trace recording off, metrics streaming — the bounded-
    /// memory profile.
    fn run_population(spec: &WorldSpec, seed: u64) -> Self::Report {
        let cfg = Self::population_config(spec);
        Self::run_with(&cfg, seed, &RunOptions::population())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_chain() {
        let s = WorldSpec::new()
            .users(10)
            .names(5)
            .exponents(1.0, 0.0)
            .rate_hz(2.0)
            .diurnal(0.25, 1000)
            .duration_us(3_000_000);
        assert_eq!(s.users, 10);
        assert_eq!(s.names, 5);
        assert_eq!(s.queries_per_user(), 6);
        assert!(WorkloadBuilder::new(&s).build().is_ok());
    }

    #[test]
    fn builder_rejects_empty_populations() {
        assert!(WorkloadBuilder::new(&WorldSpec::new().users(0))
            .build()
            .is_err());
        assert!(WorkloadBuilder::new(&WorldSpec::new().names(0))
            .build()
            .is_err());
    }

    #[test]
    fn queries_per_user_floors_at_one() {
        let s = WorldSpec::new().rate_hz(0.0001).duration_us(1000);
        assert_eq!(s.queries_per_user(), 1);
    }
}
