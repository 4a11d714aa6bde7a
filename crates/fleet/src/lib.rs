//! # dcp-fleet — the relay directory layer
//!
//! The paper's decoupling deployments assume "two or more independent
//! relays"; this crate supplies the operational machinery that keeps
//! that assumption true under churn:
//!
//! * **membership** — signed relay descriptors gossiped between a small
//!   set of directory nodes with seeded anti-entropy
//!   ([`directory::DirectoryNode`]); merge is a join semilattice, so
//!   convergence is order-independent and byte-reproducible under DST;
//! * **key epochs** — every relay rotates its HPKE keypair on a bounded
//!   schedule ([`setup::FleetRelay`]); ciphertexts carry their sealing
//!   epoch in the clear and relays reject anything outside a bounded
//!   grace window with a typed [`epoch::EpochError`] — fail-closed,
//!   never a guessed key, never a panic;
//! * **selection** — clients draw relay chains from their home
//!   directory weighted by per-epoch load with hot-relay shedding
//!   ([`select::select_chain`]), deterministically from the run seed.
//!
//! The layer is configured by [`dcp_core::FleetConfig`] (re-exported
//! here) and wired through `dcp-runtime`; `FleetConfig::disabled()`
//! keeps every fleet-aware wiring byte-identical to its fixed-relay
//! form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptor;
pub mod directory;
pub mod dst;
pub mod epoch;
pub mod select;
pub mod setup;

pub use dcp_core::fleet::FleetConfig;
pub use descriptor::{DescriptorError, RelayDescriptor};
pub use directory::{DirectoryNode, DirectoryState, GOSSIP_TOKEN};
pub use dst::{entities_silent, restricted_fingerprint, FleetStats, FleetSummary};
pub use epoch::{EpochError, Keyring};
pub use select::{select_chain, LoadTracker, NotEnoughRelays, SelRng};
pub use setup::{FleetClient, FleetRelay, FleetSetup, Rotation, ROTATE_TOKEN};
