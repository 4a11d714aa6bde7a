//! # dcp-odns — Oblivious DNS (§3.2.2)
//!
//! "Nearly all Internet connections are preceded by DNS lookups", and the
//! resolver that answers them can tie queries (●) to users (▲). ODNS and
//! ODoH split that knowledge: the party that knows *who* asked cannot read
//! the query; the party that reads the query does not know who asked.
//!
//! Paper table:
//!
//! | Client | Resolver | Oblivious Resolver | Origin |
//! |--------|----------|--------------------|--------|
//! | (▲, ●) | (▲, ⊙)   | (△, ⊙/●)           | (△, ●) |
//!
//! (*Origin* here is the authoritative server that ultimately answers —
//! it sees the query but only the oblivious resolver's address.)
//!
//! * [`odoh`] — ODoH encapsulation (RFC 9230): the query is HPKE-sealed
//!   to the target's key, and the response is sealed under a key both
//!   ends derive from that query's HPKE context.
//! * [`odns_name`] — the original ODNS trick: the encrypted query hides
//!   inside the *name itself* (`<hex>.odns.example`), so an unmodified
//!   recursive resolver routes it to the oblivious authority.
//! * [`scenario`] — ODoH, legacy-ODNS and direct-DNS runs on the
//!   simulator, plus the §5.1 striping experiment spreading queries over
//!   many resolvers. Each wiring is written once, as seam roles the
//!   simulator hosts; ODoH and legacy ODNS share their proxy, and all
//!   three share their origin.
//! * [`serve`] — the same roles as `ServeSpec`s for `dcp-serve`, so a
//!   served run of any of the three is checked against its simulated
//!   twin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod odns_name;
pub mod odoh;
pub mod population;
pub mod scenario;
pub mod serve;
pub mod types;

pub use scenario::{
    DirectDns, DirectDnsConfig, OdnsLegacy, OdnsLegacyConfig, Odoh, OdohConfig, ScenarioReport,
};
pub use types::{declared_caps, direct_declared_caps};
