//! # dcp-mixnet — Chaum's mix network (§3.1.2, Fig. 1)
//!
//! "A message is encrypted using the mix's public key before being sent.
//! The mix decrypts using its private key and forwards to the receiver or
//! to another mix… Chaum's design thwarted timing attacks by batch
//! forwarding."
//!
//! Paper table:
//!
//! | Sender | Mix 1  | …  | Mix N  | Receiver |
//! |--------|--------|----|--------|----------|
//! | (▲, ●) | (▲, ⊙) | …  | (△, ⊙) | (△, ●)   |
//!
//! * [`mix`] — the batching mix node: pool, threshold flush with
//!   shuffling, one onion layer peeled per message, optional constant-size
//!   cells.
//! * [`adversary`] — a passive timing-correlation attacker scored against
//!   ground truth, plus anonymity-set measurement: the quantitative side
//!   of §4.3's "encryption … does not protect against size and timestamps".
//! * [`scenario`] — end-to-end runs sweeping mix count and batch size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod circuit;
pub mod circuit_scenario;
pub mod mix;
pub mod population;
pub mod scenario;
pub mod types;

pub use scenario::{Mixnet, MixnetConfig, MixnetReport};
pub use types::declared_caps;
