//! The [`Node`] trait and per-dispatch context.

use dcp_core::{EntityId, Label};
use dcp_faults::{FaultConfig, FaultKind, Injector};
use rand::rngs::StdRng;

use crate::SimTime;

/// Identifier of a node inside one [`crate::Network`].
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct NodeId(pub usize);

/// A message traveling between nodes: real protocol bytes plus the
/// information-flow label that mirrors their encryption structure.
#[derive(Clone, Debug)]
pub struct Message {
    /// Encoded (and possibly encrypted) protocol bytes.
    pub bytes: Vec<u8>,
    /// What the bytes reveal, to whom (see [`dcp_core::Label`]).
    pub label: Label,
    /// Ground-truth flow id for adversary *scoring* only. Honest nodes and
    /// attack algorithms never read this; see `record::PacketRecord`.
    pub flow: Option<u64>,
}

impl Message {
    /// A message with no information content (control traffic, chaff).
    pub fn public(bytes: Vec<u8>) -> Self {
        Message {
            bytes,
            label: Label::Public,
            flow: None,
        }
    }

    /// A labeled message.
    pub fn new(bytes: Vec<u8>, label: Label) -> Self {
        Message {
            bytes,
            label,
            flow: None,
        }
    }

    /// Attach a ground-truth flow id (for attack scoring).
    pub fn with_flow(mut self, flow: u64) -> Self {
        self.flow = Some(flow);
        self
    }

    /// Wire size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }
}

/// Everything a node may do while handling an event.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The knowledge base shared by the whole simulation.
    pub world: &'a mut dcp_core::World,
    /// Seeded randomness (deterministic per run).
    pub rng: &'a mut StdRng,
    pub(crate) self_id: NodeId,
    pub(crate) outbox: &'a mut Vec<(NodeId, Message)>,
    pub(crate) timers: &'a mut Vec<(SimTime, u64)>,
    pub(crate) faults: Option<&'a mut Injector>,
}

impl Ctx<'_> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Queue a message for delivery over the link to `to`.
    pub fn send(&mut self, to: NodeId, msg: Message) {
        self.outbox.push((to, msg));
    }

    /// Arrange for `on_timer(token)` after `delay_us` microseconds.
    pub fn set_timer(&mut self, delay_us: u64, token: u64) {
        self.timers.push((self.now.after(delay_us), token));
    }

    /// The active fault configuration, if the run has faults armed.
    ///
    /// Layers above the wire (the fleet directory's join/leave churn)
    /// read their probabilities here so every fault in a run comes from
    /// the one seeded injector.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_deref().map(|inj| &inj.config)
    }

    /// Draw a fault decision from the run's injector: `true` with
    /// probability `p`, never once the `max_faults` budget is spent, and
    /// always `false` when faults are disabled. Same semantics (and same
    /// RNG stream) as the simulator's own `buggify!` sites.
    pub fn roll_fault(&mut self, p: f64) -> bool {
        match self.faults.as_deref_mut() {
            Some(inj) => inj.roll(p),
            None => false,
        }
    }

    /// A uniform draw in `1..=max` from the fault RNG (0 if `max` is 0
    /// or faults are disabled) — for picking fault *parameters* (which
    /// relay leaves, how long a delay) without touching protocol
    /// randomness.
    pub fn fault_amount(&mut self, max: u64) -> u64 {
        match self.faults.as_deref_mut() {
            Some(inj) => inj.amount(max),
            None => 0,
        }
    }

    /// Record an injected fault in the run's replay log (no-op when
    /// faults are disabled).
    pub fn record_fault(&mut self, kind: FaultKind) {
        let now = self.now.as_us();
        if let Some(inj) = self.faults.as_deref_mut() {
            inj.record(now, kind);
        }
    }
}

/// A protocol participant. Implementations hold their own state; all
/// interaction with the outside goes through [`Ctx`].
pub trait Node {
    /// The [`dcp_core`] entity this node acts as (its knowledge ledger).
    fn entity(&self) -> EntityId;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// Called on packet delivery. The simulator has *already* recorded the
    /// node's observation of the label before this runs.
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_constructors() {
        let m = Message::public(vec![1, 2, 3]);
        assert_eq!(m.size(), 3);
        assert_eq!(m.label, Label::Public);
        assert_eq!(m.flow, None);
        let m = Message::new(vec![0; 10], Label::Public).with_flow(7);
        assert_eq!(m.flow, Some(7));
        assert_eq!(m.size(), 10);
    }
}
