//! # decoupling — "The Decoupling Principle", executable
//!
//! An umbrella crate for the reproduction of *The Decoupling Principle: A
//! Practical Privacy Framework* (Schmitt, Iyengar, Wood, Raghavan —
//! HotNets '22). It re-exports:
//!
//! * [`core`] — the framework: knowledge tuples, decoupling verdicts,
//!   collusion analysis, degrees of decoupling, the TEE trust model.
//! * [`crypto`] — from-scratch primitives (SHA-256 → HPKE → blind RSA →
//!   VOPRF) that every system here runs on.
//! * [`simnet`] — the deterministic discrete-event simulator with
//!   information-flow tracking.
//! * [`faults`] — deterministic fault injection (buggify) and the DST
//!   harness that replays every scenario under seeded fault schedules.
//! * [`sweep`] — the rayon-backed parallel sweep engine: fan independent
//!   `(scenario, config, seed)` worlds across cores with results
//!   bit-for-bit identical to a sequential run.
//! * [`runtime`] — the typed protocol-role layer the scenario crates are
//!   wired through: the seam roles both engines host
//!   ([`runtime::seam`]), [`runtime::Harness`] run bracketing, and the
//!   [`runtime::Driver`] attempt loop of mixnet, the last wiring still
//!   written as simulator nodes.
//! * [`transport`] — framing, encrypted channels, onion tunnels, traffic
//!   shaping.
//! * [`dns`] — the DNS substrate (wire codec, zones, resolver, workloads).
//! * The paper's systems: [`blindcash`] (§3.1.1), [`mixnet`] (§3.1.2),
//!   [`privacypass`] (§3.2.1), [`odns`] (§3.2.2), [`pgpp`] (§3.2.3),
//!   [`mpr`] (§3.2.4), [`ppm`] (§3.2.5), and the [`vpn`] cautionary tales
//!   (§3.3), each wiring of them listed once in [`REGISTRY`].
//!
//! ## Quickstart
//!
//! ```
//! use decoupling::core::{analyze, World, InfoItem, IdentityKind, DataKind};
//!
//! let mut world = World::new();
//! let user_org = world.add_org("user");
//! let op_org = world.add_org("operator");
//! let alice = world.add_user();
//! let client = world.add_entity("Client", user_org, Some(alice));
//! let server = world.add_entity("Server", op_org, None);
//!
//! // The user knows who they are and what they do — that's allowed.
//! world.record(client, InfoItem::sensitive_identity(alice, IdentityKind::Any));
//! world.record(client, InfoItem::sensitive_data(alice, DataKind::Payload));
//! // The server learns both too: that's a coupling.
//! world.record(server, InfoItem::sensitive_identity(alice, IdentityKind::Any));
//! world.record(server, InfoItem::sensitive_data(alice, DataKind::Payload));
//!
//! let verdict = analyze(&world);
//! assert!(!verdict.decoupled);
//! assert_eq!(verdict.offenders(), vec!["Server"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcp_blindcash as blindcash;
pub use dcp_core as core;
pub use dcp_crypto as crypto;
pub use dcp_dns as dns;
pub use dcp_faults as faults;
pub use dcp_mixnet as mixnet;
pub use dcp_mpr as mpr;
pub use dcp_obs as obs;
pub use dcp_odns as odns;
pub use dcp_pgpp as pgpp;
pub use dcp_ppm as ppm;
pub use dcp_privacypass as privacypass;
pub use dcp_recover as recover;
pub use dcp_runtime as runtime;
pub use dcp_simnet as simnet;
pub use dcp_sweep as sweep;
pub use dcp_transport as transport;
pub use dcp_vpn as vpn;
pub use dcp_worlds as worlds;

// The unified Scenario API, flattened: everything a driver needs to run,
// fault, and observe any §3 scenario without reaching into sub-crates.
pub use dcp_core::{
    derive_seed, MetricsReport, ObsEvent, ObsSink, RecoverConfig, RunOptions, Scenario,
    ScenarioReport, SequentialExecutor, SweepBuilder, SweepExecutor, SweepJob, SweepRun,
};
pub use dcp_faults::dst::{run_battery, sweep_battery, DstReport, DstSweepReport};
pub use dcp_faults::{FaultConfig, FaultLog};
pub use dcp_obs::MetricsHandle;
pub use dcp_runtime::seam::Registration;
pub use dcp_runtime::{entities_silent, restricted_fingerprint, FleetConfig, FleetSummary};
pub use dcp_sweep::ParallelExecutor;

pub use dcp_blindcash::{Blindcash, BlindcashConfig};
pub use dcp_mixnet::{Mixnet, MixnetConfig};
pub use dcp_mpr::{ChainConfig, Mpr};
pub use dcp_odns::{DirectDns, DirectDnsConfig, Odoh, OdohConfig};
pub use dcp_pgpp::{Pgpp, PgppConfig};
pub use dcp_ppm::{Ppm, PpmConfig};
pub use dcp_privacypass::{Privacypass, PrivacypassConfig};
pub use dcp_vpn::{Ech, EchConfig, Vpn, VpnConfig};

/// Every §3 wiring, each registered once by its own crate, in battery
/// order. The DST batteries and probes, the cap reconciliation, the
/// metrics properties, the twin tests and `dcp serve` all iterate this
/// list; the probes' golden files pin its order.
pub const REGISTRY: &[Registration] = &[
    Blindcash::REGISTRATION,
    Mixnet::REGISTRATION,
    Privacypass::REGISTRATION,
    Odoh::REGISTRATION,
    Pgpp::REGISTRATION,
    Mpr::REGISTRATION,
    Ppm::REGISTRATION,
    Vpn::REGISTRATION,
    Ech::REGISTRATION,
    dcp_odns::OdnsLegacy::REGISTRATION,
    DirectDns::REGISTRATION,
];

/// The registered wiring called `name`, if any.
pub fn registration(name: &str) -> Option<&'static Registration> {
    REGISTRY.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::RoleKind;
    use std::collections::BTreeSet;

    #[test]
    fn registered_names_are_unique() {
        let names: BTreeSet<&str> = REGISTRY.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "a name is registered twice");
    }

    /// A report names its wiring as the registry does: the check that a
    /// scenario called one thing in reports and another on the command
    /// line would fail.
    #[test]
    fn observed_runs_report_their_registered_name() {
        for reg in REGISTRY {
            let report = (reg.run)(7, &RunOptions::observed());
            assert_eq!(report.metrics().scenario, reg.name);
        }
    }

    #[test]
    fn servable_specs_name_their_wiring_and_roles() {
        for reg in REGISTRY {
            let Some(serve) = reg.serve else { continue };
            let (spec, _) = serve(2, 2, 7).unwrap_or_else(|e| panic!("{}: {e}", reg.name));
            assert_eq!(spec.scenario, reg.name);
            let roles: BTreeSet<&str> = spec.roles.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(
                roles.len(),
                spec.roles.len(),
                "{}: role names repeat",
                reg.name
            );
            assert!(
                spec.roles.iter().any(|r| r.kind == RoleKind::Initiator),
                "{}: no initiator drives the run",
                reg.name
            );
        }
    }
}
