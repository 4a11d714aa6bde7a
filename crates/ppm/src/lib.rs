//! # dcp-ppm — Privacy-Preserving Measurement (§3.2.5)
//!
//! "PPM uses multi-party computation between non-colluding entities to
//! privately compute an aggregate output. In this arrangement, only the
//! client sees sensitive data, whereas other parties in the system only
//! see the aggregate (non-sensitive) output computed from many client
//! inputs."
//!
//! Paper table:
//!
//! | Client | Aggregator | Collector |
//! |--------|------------|-----------|
//! | (▲, ●) | (▲, ⊙)     | (△, ⊙)    |
//!
//! * [`field`] — arithmetic in GF(2⁶¹ − 1).
//! * [`share`] — n-party additive secret sharing.
//! * [`prio`] — Prio-style submissions: bit-decomposed values shared to a
//!   leader and helper, per-bit validity verified with Beaver-triple
//!   multiplications (the dealer-based stand-in for Prio's SNIPs — see
//!   DESIGN.md), sum and histogram aggregation, and a collector that only
//!   ever reconstructs the aggregate.
//! * [`scenario`] — the full system on the simulator with derived tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod population;
pub mod prio;
pub mod scenario;
pub mod types;

pub use scenario::{Ppm, PpmConfig, PpmReport};
pub use types::declared_caps;
pub mod share;
