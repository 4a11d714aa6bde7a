//! The client-side attempt loop every scenario used to hand-roll.

use std::collections::BTreeMap;

use dcp_core::cap::{Admits, WireLabel};
use dcp_core::recover::RecoverConfig;
use dcp_core::role::{Endpoint, Role};
use dcp_core::Label;
use dcp_recover::{emit_give_up, emit_retry, wire, Attempt, ReliableCall, TimerVerdict};
use dcp_simnet::{Ctx, Message};

use crate::typed::TypedSend;

/// What the [`Driver`] decided about a fired timer token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallEvent<T> {
    /// The token is the scenario's own (not ARQ-minted): dispatch it to
    /// the protocol's application timer logic.
    App(u64),
    /// Stale attempt, completed call, or abandoned request — nothing to
    /// do.
    Ignored,
    /// Deadline expired: re-transmit (re-randomized!) under this
    /// [`Attempt`] and arm its timer. The in-flight entry is still
    /// available via [`Driver::get`].
    Retry(Attempt),
    /// The attempt budget is exhausted; the entry has been removed and
    /// is returned for the protocol's give-up path.
    Exhausted {
        /// The abandoned sequence number.
        seq: u64,
        /// Attempts that were made.
        attempts: u32,
        /// The removed in-flight entry.
        call: T,
    },
}

/// A [`ReliableCall`] paired with a typed in-flight table — the whole
/// client-side retry loop, in one place.
///
/// `T` is whatever the protocol must remember per open request: a send
/// timestamp, a one-time instrument to retransmit verbatim, a
/// which-phase discriminant. The invariant the nine wirings all
/// maintained — *an entry exists exactly while its call is open* — is
/// enforced here: [`begin`](Driver::begin) inserts,
/// [`complete`](Driver::complete) removes on the first response only,
/// and exhaustion removes.
///
/// Observability is sequenced exactly as the hand-rolled loops did:
/// `RecoveryRetry` is emitted *before* the entry lookup, `RecoveryGiveUp`
/// *before* the entry is dropped. When built from a disabled config the
/// driver is inert: `begin` returns `None` (send unframed, arm nothing)
/// and foreign tokens pass straight through as [`CallEvent::App`].
#[derive(Clone, Debug)]
pub struct Driver<T> {
    arq: ReliableCall,
    inflight: BTreeMap<u64, T>,
}

impl<T> Driver<T> {
    /// Build one node's driver. `jitter_seed` must derive from the run
    /// seed (`derive_seed(seed, node_salt)`) so replays draw identical
    /// backoff jitter.
    pub fn new(cfg: &RecoverConfig, jitter_seed: u64) -> Self {
        Driver {
            arq: ReliableCall::new(cfg, jitter_seed),
            inflight: BTreeMap::new(),
        }
    }

    /// Is the recovery layer active?
    pub fn enabled(&self) -> bool {
        self.arq.enabled()
    }

    /// Open a logical request, remembering `call` while it is in flight.
    /// `None` when the layer is disabled — the caller sends unframed and
    /// arms nothing.
    pub fn begin(&mut self, call: T) -> Option<Attempt> {
        let att = self.arq.begin()?;
        self.inflight.insert(att.seq, call);
        Some(att)
    }

    /// The in-flight entry for `seq`, if the call is open.
    pub fn get(&self, seq: u64) -> Option<&T> {
        self.inflight.get(&seq)
    }

    /// Mutable access to the in-flight entry for `seq`.
    #[cfg(test)]
    fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        self.inflight.get_mut(&seq)
    }

    /// Record a response for `seq`. Returns the in-flight entry the
    /// *first* time only — the client-side dedup that makes duplicated
    /// or retried responses mutate completion state exactly once.
    /// Protocol validation (decrypt, verify) belongs *before* this call:
    /// a duplicate's entry is already gone, so validation work happens
    /// exactly once per logical request either way.
    pub fn complete(&mut self, seq: u64) -> Option<T> {
        if self.arq.complete(seq) {
            self.inflight.remove(&seq)
        } else {
            None
        }
    }

    /// Drive a fired timer token through the loop, emitting the
    /// `RecoveryRetry`/`RecoveryGiveUp` observations in the canonical
    /// order. The caller matches on the returned [`CallEvent`].
    pub fn on_timer(&mut self, ctx: &mut Ctx, token: u64) -> CallEvent<T> {
        match self.arq.on_timer(token) {
            TimerVerdict::NotMine => CallEvent::App(token),
            TimerVerdict::Stale => CallEvent::Ignored,
            TimerVerdict::Retry(att) => {
                emit_retry(ctx.world, ctx.id().0, att.seq, att.attempt);
                if self.inflight.contains_key(&att.seq) {
                    CallEvent::Retry(att)
                } else {
                    CallEvent::Ignored
                }
            }
            TimerVerdict::Exhausted { seq, attempts } => {
                emit_give_up(ctx.world, ctx.id().0, seq, attempts);
                match self.inflight.remove(&seq) {
                    Some(call) => CallEvent::Exhausted {
                        seq,
                        attempts,
                        call,
                    },
                    None => CallEvent::Ignored,
                }
            }
        }
    }

    /// One label-bounded (re)transmission of reliable call `att`: frame
    /// the protocol bytes under the attempt's sequence number, send them
    /// through the typed path, and arm the retry timer — the exact step
    /// every wiring's transmit hook performed by hand, now carrying the
    /// [`Admits`] bound so the coupling check happens where the retry
    /// loop's bytes leave the role. The caller still re-randomizes
    /// (re-seals, re-blinds) `bytes` per attempt; this helper never
    /// caches them.
    pub fn transmit<Req, Resp, R>(
        &self,
        ctx: &mut Ctx,
        ep: Endpoint<Req, Resp, R>,
        att: &Attempt,
        bytes: &[u8],
        label: Label,
    ) where
        Req: WireLabel + Admits<R>,
        R: Role,
    {
        debug_assert!(
            self.inflight.contains_key(&att.seq),
            "transmit of a call that is not in flight"
        );
        ctx.send_to(ep, Message::new(wire::frame(att.seq, bytes), label));
        ctx.set_timer(att.timer_delay_us, att.token);
    }

    /// Number of open (incomplete, unabandoned) calls.
    #[cfg(test)]
    fn open_calls(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::World;
    use dcp_simnet::{LinkParams, Message, Network, Node, NodeId};

    fn cfg() -> RecoverConfig {
        RecoverConfig::standard()
            .base_timeout_us(1_000)
            .backoff_factor(2)
            .jitter_us(0)
            .max_attempts(2)
    }

    /// Exercise the driver inside a real simulation so `Ctx` is genuine:
    /// a client that begins one call, never hears back, retries once,
    /// then exhausts.
    struct LonelyClient {
        entity: dcp_core::EntityId,
        driver: Driver<&'static str>,
        events: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
    }

    impl Node for LonelyClient {
        fn entity(&self) -> dcp_core::EntityId {
            self.entity
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            let att = self.driver.begin("payload").expect("enabled");
            assert_eq!((att.seq, att.attempt), (0, 0));
            assert_eq!(self.driver.get(0), Some(&"payload"));
            ctx.set_timer(att.timer_delay_us, att.token);
            // A scenario-owned token must come back as App.
            ctx.set_timer(10, 7);
        }
        fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            match self.driver.on_timer(ctx, token) {
                CallEvent::App(t) => self.events.borrow_mut().push(format!("app:{t}")),
                CallEvent::Ignored => self.events.borrow_mut().push("ignored".into()),
                CallEvent::Retry(att) => {
                    self.events
                        .borrow_mut()
                        .push(format!("retry:{}", att.attempt));
                    ctx.set_timer(att.timer_delay_us, att.token);
                }
                CallEvent::Exhausted {
                    seq,
                    attempts,
                    call,
                } => {
                    self.events
                        .borrow_mut()
                        .push(format!("exhausted:{seq}:{attempts}:{call}"));
                }
            }
        }
    }

    #[test]
    fn drives_retry_then_exhaustion_with_app_passthrough() {
        let events = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut world = World::new();
        let org = world.add_org("t");
        let e = world.add_entity("Client", org, None);
        let mut net = Network::new(world, 1);
        net.set_default_link(LinkParams::lan());
        net.add_node(Box::new(LonelyClient {
            entity: e,
            driver: Driver::new(&cfg(), 9),
            events: events.clone(),
        }));
        net.run();
        assert_eq!(
            *events.borrow(),
            vec!["app:7", "retry:1", "exhausted:0:2:payload"]
        );
    }

    #[test]
    fn complete_returns_the_entry_exactly_once() {
        let mut d: Driver<u32> = Driver::new(&cfg(), 3);
        let att = d.begin(41).unwrap();
        *d.get_mut(att.seq).unwrap() += 1;
        assert_eq!(d.open_calls(), 1);
        assert_eq!(d.complete(att.seq), Some(42), "first response wins");
        assert_eq!(d.complete(att.seq), None, "duplicate finds nothing");
        assert_eq!(d.open_calls(), 0);
        assert!(d.enabled());
    }

    #[test]
    fn disabled_driver_is_inert() {
        let mut d: Driver<()> = Driver::new(&RecoverConfig::disabled(), 3);
        assert!(!d.enabled());
        assert_eq!(d.begin(()), None);
        assert_eq!(d.open_calls(), 0);
    }
}
