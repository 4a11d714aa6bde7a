//! The servable DNS wirings: the roles the simulator hosts
//! ([`crate::scenario`]), handed to `dcp-serve` as [`ServeSpec`]s. Each
//! is built without recovery, so ODoH has no backup proxies.

use dcp_core::{RecoverConfig, World};
use dcp_runtime::seam::ServeSpec;

use crate::scenario::{direct, legacy, odoh, DirectDnsConfig, OdnsLegacyConfig, OdohConfig};

/// Build the servable ODoH wiring: the world layout, keys, workload and
/// roles of the simulated run with this `cfg` and `seed`.
///
/// Role order defines peer ids: proxy 0, target 1, origin 2, clients 3+.
pub fn odoh_serve_spec(cfg: &OdohConfig, seed: u64) -> ServeSpec {
    odoh::wiring(cfg, seed, World::new(), &RecoverConfig::disabled()).0
}

/// Build the servable legacy-ODNS wiring of the simulated run with this
/// `cfg` and `seed`.
///
/// Role order defines peer ids: recursive 0, authority 1, origin 2,
/// clients 3+.
pub fn odns_legacy_serve_spec(cfg: &OdnsLegacyConfig, seed: u64) -> ServeSpec {
    legacy::wiring(cfg, seed, World::new(), &RecoverConfig::disabled()).0
}

/// Build the servable direct-DNS wiring of the simulated run with this
/// `cfg` and `seed`.
///
/// Role order defines peer ids: origin 0, resolvers 1..=`resolvers`
/// (`resolver`, `resolver-2`, …), then clients.
pub fn direct_serve_spec(cfg: &DirectDnsConfig, seed: u64) -> ServeSpec {
    direct::wiring(cfg, seed, World::new(), &RecoverConfig::disabled()).0
}
