//! # dcp-privacypass — anonymous authorization tokens (§3.2.1, Fig. 2)
//!
//! Privacy Pass "applies the Decoupling Principle to separate
//! privacy-sensitive authentication from authorization": the issuer learns
//! who you are (it challenges you) but not where you go; the origin learns
//! that you are authorized but not who you are.
//!
//! Paper table:
//!
//! | Client | Issuer | Origin |
//! |--------|--------|--------|
//! | (▲, ●) | (▲, ⊙) | (△, ●) |
//!
//! Tokens are VOPRF outputs over client-chosen nonces
//! ([`dcp_crypto::oprf`]); blinding makes issuance and redemption
//! cryptographically unlinkable, and the DLEQ proof stops a malicious
//! issuer from segmenting users with per-user keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cacti;
pub mod population;
pub mod protocol;
pub mod scenario;
pub mod types;

pub use scenario::{Privacypass, PrivacypassConfig, ScenarioReport};
pub use types::declared_caps;

pub use protocol::{Client, Issuer, RedeemError, Token};
