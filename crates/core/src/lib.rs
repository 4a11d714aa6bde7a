//! # dcp-core — an executable model of the Decoupling Principle
//!
//! "The Decoupling Principle" (Schmitt, Iyengar, Wood, Raghavan — HotNets
//! '22) states: *to ensure privacy, information should be divided
//! architecturally and institutionally such that each entity has only the
//! information it needs to perform its relevant function* — in short,
//! **decouple who you are from what you do**.
//!
//! §2.4 of the paper makes this analyzable with knowledge tuples:
//!
//! * `▲` — a **sensitive user identity** known by some entity,
//! * `△` — a non-sensitive user identity,
//! * `●` — **sensitive data**,
//! * `⊙` — non-sensitive data.
//!
//! A system is *decoupled* iff **only the user** holds `(▲, ●)`; every
//! other entity holds at most one of `▲` / `●`.
//!
//! This crate turns that notation into machinery:
//!
//! * [`label`] — information atoms ([`label::InfoItem`]), sensitivity
//!   lattices, and [`label::Label`] trees that mirror the *encryption
//!   structure* of real payloads so observation is computed, not asserted.
//! * [`entity`] — entities, organizations (institutional decoupling), and
//!   user trust domains.
//! * [`world`] — the [`world::World`] knowledge base: entities accumulate
//!   [`label::InfoItem`]s from what their keys actually open, and the
//!   analyzer derives per-entity [`tuple::KnowledgeTuple`]s from those
//!   ledgers.
//! * [`analysis`] — the §2.4 decoupling verdict, with per-entity violation
//!   reporting.
//! * [`cap`] — the same lattice lifted into the type system:
//!   [`cap::WireLabel`] message caps, [`cap::KnowledgeCap`] role bounds,
//!   and the [`cap::Admits`] witness that makes a `(▲, ●)` co-location at
//!   a non-initiator role a *compile error*, with the runtime ledgers as
//!   the empirical cross-check.
//! * [`collusion`] — §4.1/§5.1 collusion closure: which coalitions of
//!   entities (or whole organizations) re-couple a user, and the minimal
//!   collusion set size as a quantitative privacy measure.
//! * [`degrees`] — §4.2 degree-of-decoupling metrics combining the verdict,
//!   collusion resistance, and measured overhead into cost/benefit points.
//! * [`table`] — renders paper-style decoupling tables like
//!   `| Sender | Mix 1 | Mix 2 | Receiver |` / `| (▲, ●) | (▲, ⊙) | … |`
//!   and parses expected tables for test assertions.
//! * [`tee`] — the §4.3 TEE model: enclaves as attestable trust domains
//!   distinct from their operators.
//!
//! The system crates (`dcp-mixnet`, `dcp-odns`, `dcp-mpr`, …) run real
//! protocols over the `dcp-simnet` simulator; every payload carries a
//! [`label::Label`]; this crate's analyzer then reproduces each of the
//! paper's §3 tables *from observed knowledge*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cap;
pub mod collusion;
pub mod degrees;
pub mod entity;
pub mod faults;
pub mod fleet;
pub mod label;
pub mod obs;
pub mod recover;
pub mod role;
pub mod scenario;
pub mod sweep;
pub mod table;
pub mod tee;
pub mod tuple;
pub mod world;

pub use analysis::RetryLinkage;
pub use analysis::{analyze, DecouplingVerdict, Violation};
pub use cap::{Addressed, Admits, Blinded, Control, KnowledgeCap, Sealed, WireLabel};
pub use entity::{EntityId, OrgId, UserId};
pub use faults::{FaultConfig, FaultEvent, FaultKind, FaultLog};
pub use fleet::FleetConfig;
pub use label::{Aspect, DataKind, IdentityKind, InfoItem, InfoSet, KeyId, Label, Sensitivity};
pub use obs::{
    KnowledgeRecord, MetricsReport, ObsEvent, ObsHandle, ObsSink, SpanRecord, SpanStats,
};
pub use recover::RecoverConfig;
pub use role::{Endpoint, Role, RoleKind};
pub use scenario::{RunOptions, Scenario, ScenarioReport};
pub use sweep::{
    derive_seed, SequentialExecutor, SweepBuilder, SweepEntry, SweepExecutor, SweepJob,
    SweepReport, SweepRun,
};
pub use tuple::{DataVis, IdVis, KnowledgeTuple};
pub use world::World;
