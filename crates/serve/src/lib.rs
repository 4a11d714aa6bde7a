//! # dcp-serve — the production transport engine
//!
//! Everything else in this workspace runs protocol roles inside the
//! deterministic simulator (`dcp-simnet`). This crate runs the *same*
//! role logic over real TCP sockets: wirings are expressed once as
//! [`dcp_runtime::seam::WireRole`]s, and the engine here hosts them
//! either
//!
//! * **loopback** — every role a thread in one process, traffic over
//!   real `127.0.0.1` sockets, with the knowledge-ledger shadow (the
//!   paper's (▲,●) tables) maintained on an in-memory side channel so a
//!   served run can be byte-compared against its simulated twin; or
//! * **multi-process** — one role per process ([`run_role`]), bytes
//!   only, for actually standing a decoupled deployment up.
//!
//! The engine is deliberately minimal: nonblocking sockets polled by a
//! thread-per-role loop, length-prefixed frames reusing the
//! `dcp-transport` wire format, a bounded connection set whose cap *is*
//! the accept backpressure, and graceful shutdown once every initiator
//! has finished and (in loopback mode) nothing is pending. What it is
//! not minimal about is failure: every byte
//! arriving from a socket is treated as hostile until decoded, and every
//! decode failure closes exactly one connection — nothing in this crate
//! panics on wire input.
//!
//! See `docs/SERVE.md` for the operator view and `docs/ARCHITECTURE.md`
//! for how the sim/prod duality is kept honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcp_transport::TransportError;

pub mod codec;
pub mod engine;

pub use codec::{FrameReader, MAX_FRAME_PAYLOAD};
pub use engine::{run_loopback, run_role, ServeConfig};

/// Everything that can go wrong hosting roles over real sockets.
#[derive(Debug)]
pub enum ServeError {
    /// An OS-level socket failure on the host's own infrastructure
    /// (bind, accept bookkeeping, writing to a peer we initiated).
    /// Failures on *inbound* connections never surface here — they
    /// close that connection and the run continues.
    Io(std::io::Error),
    /// A frame we were about to send failed wire validation — a local
    /// bug (e.g. oversize payload), never a peer's doing.
    Wire(TransportError),
    /// A role thread panicked or the run's shared state was torn down
    /// inconsistently. Hostile wire bytes must never cause this; the
    /// fail-closed decode path exists so they can't.
    RoleCrash(String),
    /// A role tried to send to a peer id with no known address.
    UnknownPeer(u16),
    /// Every dial attempt to a peer failed: the engine retried with
    /// backoff (`ServeConfig::dial_attempts` × `dial_backoff`) and the
    /// peer never accepted. Carries the final OS error so operators can
    /// tell "refused" (peer down) from "unreachable" (network).
    DialExhausted {
        /// The peer id the host was dialing.
        peer: u16,
        /// How many connect attempts were made.
        attempts: u32,
        /// The last attempt's OS error.
        last: std::io::Error,
    },
    /// A role or peer name that isn't part of the wiring's spec.
    UnknownRole(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket error: {e}"),
            ServeError::Wire(e) => write!(f, "wire encode error: {e}"),
            ServeError::RoleCrash(name) => write!(f, "role crashed: {name}"),
            ServeError::UnknownPeer(id) => write!(f, "no address for peer {id}"),
            ServeError::DialExhausted {
                peer,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "peer {peer} unreachable after {attempts} dial attempts: {last}"
                )
            }
            ServeError::UnknownRole(name) => write!(f, "unknown role: {name}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::DialExhausted { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<TransportError> for ServeError {
    fn from(e: TransportError) -> Self {
        ServeError::Wire(e)
    }
}

/// What a completed loopback run hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The knowledge-ledger twin after the run: feed it to
    /// `dcp_obs::KnowledgeFingerprint::of` and compare byte-for-byte
    /// against the simulated twin's fingerprint.
    pub world: dcp_core::World,
    /// Protocol work units the roles reported (for odoh: answered
    /// queries).
    pub completed_units: u64,
    /// What the wiring's spec said a full run completes.
    pub expected_units: u64,
}

impl ServeOutcome {
    /// Did the run do everything the spec promised?
    pub fn complete(&self) -> bool {
        self.completed_units >= self.expected_units
    }
}
