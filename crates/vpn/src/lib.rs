//! # dcp-vpn — the §3.3 cautionary tales
//!
//! Two systems that *protect* traffic without *decoupling* it:
//!
//! * **Centralized VPN** — "by funneling all traffic through a single
//!   trusted party, such systems create a single locus of observation."
//!
//!   | Client | VPN Server | Origin |
//!   |--------|------------|--------|
//!   | (▲, ●) | (▲, ●)     | (△, ●) |
//!
//! * **TLS Encrypted ClientHello (ECH)** — hides the SNI from the
//!   *network*, "however, ECH does not alter what information the TLS
//!   server sees." Useful, but not decoupling: the verdict depends on
//!   which adversary you ask.
//!
//! Both are written once as seam roles (`dcp_runtime::seam`), which the
//! simulator hosts and `dcp serve vpn` serves over real sockets. Each
//! wiring carries a passive network observer as a tap, so the derived
//! tables show all three vantage points: client-side network, service,
//! and destination. A served VPN replays the tap on the loopback label
//! bus, and its observer row is held to the simulated twin's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod population;
pub mod scenario;
pub mod types;

pub use scenario::{Ech, EchConfig, EchReport, Vpn, VpnConfig, VpnReport};
pub use types::{ech_declared_caps, vpn_declared_caps};
