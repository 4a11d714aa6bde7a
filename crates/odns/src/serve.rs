//! The servable ODoH wiring: the roles the simulator hosts
//! ([`crate::scenario`]), handed to `dcp-serve` as a [`ServeSpec`] built
//! without recovery, so ODoH has no backup proxies. Each DNS wiring's
//! `REGISTRATION` serves the same way.

use dcp_core::{RecoverConfig, World};
use dcp_runtime::seam::ServeSpec;

use crate::scenario::{odoh, OdohConfig};

/// Build the servable ODoH wiring: the world layout, keys, workload and
/// roles of the simulated run with this `cfg` and `seed`.
///
/// Role order defines peer ids: proxy 0, target 1, origin 2, clients 3+.
pub fn odoh_serve_spec(cfg: &OdohConfig, seed: u64) -> ServeSpec {
    odoh::wiring(cfg, seed, World::new(), &RecoverConfig::disabled()).0
}
