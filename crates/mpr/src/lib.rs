//! # dcp-mpr — Multi-Party Relays (§3.2.4)
//!
//! iCloud Private Relay-style two-hop relaying: "a user's identity (their
//! network-layer identifier) is known to Relay 1, but their request is
//! hidden in an encrypted stream. Relay 2 is not aware of the user except
//! as an anonymous member of a network aggregate, but may learn limited
//! information about the user's request (such as the FQDN of the origin
//! server)."
//!
//! Paper table:
//!
//! | User   | Relay 1 | Relay 2  | Origin |
//! |--------|---------|----------|--------|
//! | (▲, ●) | (▲, ⊙)  | (△, ⊙/●) | (△, ●) |
//!
//! The implementation generalizes to *k* relays over
//! [`dcp_transport::onion`] nested tunnels:
//!
//! * `k = 0` — direct connection (origin sees `(▲, ●)`),
//! * `k = 1` — a VPN shape (the single relay sees `(▲, ●)`),
//! * `k = 2` — the MPR configuration above,
//! * `k ≥ 3` — Tor-style chains, "albeit at greater performance cost"
//!   (§4.2) — exactly the sweep the degrees-of-decoupling experiment runs.
//!
//! The §4.4 *geohint* regression (revealing coarse location to keep
//! geo-dependent services working) is available as an option.
//!
//! The roles are written once, as seam roles: the simulator hosts them
//! for every run (plain, recovered, fleet-enabled) and `dcp serve mpr`
//! serves the same roles over TCP ([`Mpr::REGISTRATION`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod population;
pub mod scenario;
pub mod types;

pub use scenario::{ChainConfig, Mpr, ScenarioReport};
pub use types::declared_caps;
