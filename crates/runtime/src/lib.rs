//! # dcp-runtime — the typed protocol-role runtime
//!
//! Every §3 wiring needs the same skeleton: a `ReliableCall` attempt loop
//! with re-randomizing retransmission, `Dedup`/`HopMap`/`CheckForwarder`
//! receiver guards, fail-closed `wire` decode, metrics-sink bracketing,
//! and one run/teardown choreography. This crate owns that skeleton in
//! exactly one place, in the style "Privacy by Design: On the Conformance
//! Between Protocols and Architectures" argues for: the *architecture*
//! (roles, retries, guards, instrumentation) is expressed once, and each
//! protocol only supplies content — how to encode, how to re-randomize,
//! what each hop learns.
//!
//! The pieces compose rather than prescribe:
//!
//! * [`seam`] — the sim/prod transport seam: [`seam::WireRole`] protocol
//!   logic written once and hosted by both engines. The DNS family
//!   (ODoH, legacy ODNS, direct DNS), MPR, Privacy Pass, blind cash,
//!   PGPP, PPM, the VPN and ECH are written this way. `dcp-serve` runs
//!   them over real TCP sockets, with information-flow labels riding an
//!   out-of-band verification channel (never the socket);
//!   [`Harness::run_spec`] runs them here, on the simulator the DST
//!   drives, each role through a `Node` adapter (the simnet host), with
//!   the spec's passive taps installed as wiretaps.
//! * [`Driver`] — the attempt loop of mixnet, the last wiring with
//!   simulator-node clients: an ARQ plus a typed in-flight table,
//!   with the `RecoveryRetry`/`RecoveryGiveUp` observability emits
//!   sequenced in one order. Seam clients get the same emits from
//!   [`seam::WireCtx::arq_timer`].
//! * [`Outbox`] — the sender of a seam role whose messages get only an
//!   ack (PPM's): it frames each message, keeps it open until the peer
//!   it went to acks it, and under recovery resends it byte-identically
//!   (a share pair is a one-time instrument, deduped receiver-side).
//! * [`Harness`] — run setup/teardown: metrics-sink bracketing, network
//!   construction with fault arming, role-typed node registration, and
//!   [`RunCore`] assembly (world, trace, fault log, metrics) that every
//!   `ScenarioReport` embeds.
//! * [`TypedSend`] — the label-bounded send path: wirings hold
//!   role-owning [`Endpoint`]s and every forward transmission forces the
//!   [`Admits`] witness, so a message whose plaintext-visible
//!   [`WireLabel`] caps exceed the receiving role's [`KnowledgeCap`]
//!   fails to *compile* (see `docs/ARCHITECTURE.md`, "Compile-time
//!   decoupling"). Seam roles get the same check from
//!   [`seam::WireCtx::send_to`].
//! * Re-exports of the full simulator/recovery surface scenarios need
//!   ([`Ctx`], [`Message`], [`Network`], [`wire`], [`Dedup`],
//!   [`HopMap`], [`CheckForwarder`], [`Failover`], …), so scenario
//!   crates depend on *this* crate alone — the CI layering lint holds
//!   them to it.
//!
//! Nothing here may perturb a run: the runtime draws no randomness of its
//! own, sends nothing on its own initiative, and sequences world-ledger
//! effects exactly as the hand-written wirings did — the DST probes
//! (`dst_sweep`, `dst_recover`) stay byte-identical across each port.

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
    Ctx, LinkParams, Message, Network, Node, NodeId, PacketRecord, SimTime, Trace,
};
pub use dcp_worlds::{PopulationScenario, Topology, WorkloadBuilder, WorldSpec};
