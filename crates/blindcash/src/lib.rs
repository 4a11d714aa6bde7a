//! # dcp-blindcash — Chaum's untraceable digital cash (§3.1.1)
//!
//! The paper's first classic example of the Decoupling Principle: blind
//! signatures let a bank certify value without seeing what it certifies,
//! so "participants' purchases cannot be linked to identities".
//!
//! Paper table (§3.1.1):
//!
//! | Buyer  | Signer (Bank) | Verifier (Bank) | Seller |
//! |--------|---------------|-----------------|--------|
//! | (▲, ●) | (▲, ⊙)        | (△, ⊙/●)        | (△, ●) |
//!
//! * [`bank`] — the mint: account ledger, blind signing (withdrawal), and
//!   deposit verification with a double-spend ledger.
//! * [`coin`] — coins: a random serial plus the bank's (unblinded) RSA
//!   signature over it.
//! * [`scenario`] — the full withdraw → spend → deposit cycle as seam
//!   roles, hosted by the simulator or served by `dcp serve blindcash`,
//!   with information-flow labels that derive the table above from
//!   measured knowledge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod coin;
pub mod population;
pub mod scenario;
pub mod types;

pub use scenario::{Blindcash, BlindcashConfig, ScenarioReport};
pub use types::declared_caps;

pub use bank::{Bank, DepositError};
pub use coin::Coin;

/// Errors in the cash protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CashError {
    /// Account has insufficient balance for the withdrawal.
    InsufficientFunds,
    /// Unknown account.
    NoSuchAccount,
    /// Cryptographic failure.
    Crypto(dcp_crypto::CryptoError),
}

impl From<dcp_crypto::CryptoError> for CashError {
    fn from(e: dcp_crypto::CryptoError) -> Self {
        CashError::Crypto(e)
    }
}

impl core::fmt::Display for CashError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CashError::InsufficientFunds => f.write_str("insufficient funds"),
            CashError::NoSuchAccount => f.write_str("no such account"),
            CashError::Crypto(e) => write!(f, "crypto: {e}"),
        }
    }
}

impl std::error::Error for CashError {}
