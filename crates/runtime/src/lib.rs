//! # dcp-runtime — the typed protocol-role runtime
//!
//! Nine scenario wirings (`blindcash`, `mixnet`, `privacypass`, ODNS's
//! three modes, `pgpp`, `mpr`, `ppm`, the `vpn` tales) grew the same
//! skeleton by copy-paste: a `ReliableCall` attempt loop with
//! re-randomizing retransmission, `Dedup`/`HopMap`/`CheckForwarder`
//! receiver guards, fail-closed `wire` decode, metrics-sink bracketing,
//! and the same run/teardown choreography. This crate owns that skeleton
//! in exactly one place, in the style "Privacy by Design: On the
//! Conformance Between Protocols and Architectures" argues for: the
//! *architecture* (roles, retries, guards, instrumentation) is expressed
//! once, and each protocol only supplies content — how to encode, how to
//! re-randomize, what each hop learns.
//!
//! The pieces compose rather than prescribe:
//!
//! * [`Driver`] — the client-side attempt loop: an ARQ plus a typed
//!   in-flight table, with the `RecoveryRetry`/`RecoveryGiveUp`
//!   observability emits sequenced exactly as every scenario already
//!   ordered them. Scenarios keep their protocol-specific transmit hooks
//!   (each attempt re-seals/re-blinds) and match on [`CallEvent`].
//! * [`Outbox`] — the one-way reliable sender (explicit-ack flows like
//!   PPM's, where a share pair is a one-time instrument retransmitted
//!   byte-identically and deduped receiver-side).
//! * [`Harness`] — run setup/teardown: metrics-sink bracketing, network
//!   construction with fault arming, role-typed node registration, and
//!   [`RunCore`] assembly (world, trace, fault log, metrics) that every
//!   `ScenarioReport` embeds.
//! * [`seam`] — the sim/prod transport seam: [`seam::WireRole`] protocol
//!   logic written once and hosted by both engines. `dcp-serve` runs it
//!   over real TCP sockets, with information-flow labels riding an
//!   out-of-band verification channel (never the socket);
//!   [`Harness::run_spec`] runs it here, on the simulator the DST
//!   drives, each role through a `Node` adapter (the simnet host).
//! * [`TypedSend`] — the label-bounded send path: wirings hold
//!   role-owning [`Endpoint`]s and every forward transmission forces the
//!   [`Admits`] witness, so a message whose plaintext-visible
//!   [`WireLabel`] caps exceed the receiving role's [`KnowledgeCap`]
//!   fails to *compile* (see `docs/ARCHITECTURE.md`, "Compile-time
//!   decoupling").
//! * Re-exports of the full simulator/recovery surface scenarios need
//!   ([`Ctx`], [`Message`], [`Network`], [`wire`], [`Dedup`],
//!   [`HopMap`], [`CheckForwarder`], [`Failover`], …), so scenario
//!   crates depend on *this* crate alone — the CI layering lint holds
//!   them to it.
//!
//! Nothing here may perturb a run: the runtime draws no randomness of its
//! own, sends nothing on its own initiative, and sequences world-ledger
//! effects exactly as the pre-refactor wirings did — the DST probes
//! (`dst_sweep`, `dst_recover`) are byte-identical across the migration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod harness;
mod host;
mod outbox;
pub mod seam;
mod typed;

pub use driver::{CallEvent, Driver};
pub use harness::{mean_us, Harness, RunCore};
pub use outbox::Outbox;
pub use typed::TypedSend;

pub use dcp_core::cap::{Addressed, Admits, Blinded, Control, KnowledgeCap, Sealed, WireLabel};
pub use dcp_core::role::{Endpoint, Role, RoleKind};
pub use dcp_fleet::{
    entities_silent, restricted_fingerprint, DirectoryNode, EpochError, FleetClient, FleetConfig,
    FleetRelay, FleetSetup, FleetStats, FleetSummary, ROTATE_TOKEN,
};
pub use dcp_obs::MetricsHandle;
pub use dcp_recover::{
    emit_give_up, emit_retry, wire, Attempt, CheckForwarder, Dedup, Failover, Forward, HopMap,
    ReliableCall, RetryLinkage, RouteChoice, TimerVerdict, ARQ_TOKEN_BIT,
};
pub use dcp_simnet::{
    Ctx, LinkParams, Message, Network, Node, NodeId, PacketRecord, SimTime, Tap, Trace,
};
pub use dcp_worlds::{PopulationScenario, Topology, WorkloadBuilder, WorldSpec};
