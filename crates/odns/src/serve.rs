//! The servable ODoH wiring: the same four roles the simulator hosts
//! ([`crate::scenario`]'s ODoH wiring), handed to `dcp-serve` as a
//! [`ServeSpec`].

use dcp_core::{RecoverConfig, World};
use dcp_runtime::seam::ServeSpec;

use crate::scenario::odoh::wiring;
use crate::scenario::OdohConfig;

/// Build the servable ODoH wiring: the world layout, keys, workload and
/// roles of the simulated run with this `cfg` and `seed`, without
/// recovery (so without backup proxies).
///
/// Role order defines peer ids: proxy 0, target 1, origin 2, clients 3+.
pub fn odoh_serve_spec(cfg: &OdohConfig, seed: u64) -> ServeSpec {
    wiring(cfg, seed, World::new(), &RecoverConfig::disabled()).0
}
