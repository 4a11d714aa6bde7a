//! # dcp-pgpp — Pretty Good Phone Privacy (§3.2.3)
//!
//! Cellular networks bind a permanent IMSI to billing identity, so "usage
//! and physical movements can easily be tracked (and sold) simply as a
//! result of operating a cellular network." PGPP "decouples billing and
//! authentication from the cellular core", moving them to an external
//! gateway, while IMSIs become "identical or shuffled periodically".
//!
//! Paper table (note the ▲ → ▲_H / ▲_N decomposition):
//!
//! | User            | PGPP-GW        | NGC            |
//! |-----------------|----------------|----------------|
//! | (▲_H, ▲_N, ●)   | (▲_H, △_N, ⊙)  | (△_H, △_N, ●)  |
//!
//! * [`cellular`] — the core-network model (NGC): cells, attach/auth,
//!   mobility events, and a trajectory-linking adversary run over the
//!   core's own logs.
//! * [`scenario`] — legacy vs. PGPP runs: permanent IMSIs vs. epoch-
//!   shuffled IMSIs with blind-token authentication against the PGPP-GW
//!   (reusing the Privacy Pass issuer — the same cryptographic decoupling
//!   applied to a different layer of infrastructure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellular;
pub mod population;
pub mod scenario;
pub mod types;

pub use scenario::{Mode, Pgpp, PgppConfig, PgppReport};
pub use types::{legacy_declared_caps, pgpp_declared_caps};
