//! One-way reliable sending for flows with no natural response.

use std::collections::BTreeMap;

use dcp_core::cap::{Admits, WireLabel};
use dcp_core::role::{Endpoint, Role};
use dcp_core::Label;
use dcp_recover::{wire, ReliableCall, TimerVerdict};

use crate::seam::{PeerId, WireCtx, WireMsg};

/// The sending half of a seam role whose messages get no answer but an
/// explicit ack: every message is framed under a sequence number and
/// stays open until the peer it went to acks that number. The
/// [`ReliableCall`] numbers every message on every run; with recovery on
/// it also arms each message's deadline and retries it on the timer.
///
/// Unlike a client's re-randomized retry, an [`Outbox`] resend is
/// **byte-identical**: the deliberate exception for one-time instruments
/// (a PPM share pair cannot be re-split on one leg without corrupting the
/// sum; see `docs/RECOVERY.md`), so receivers dedup what they took.
#[derive(Clone, Debug)]
pub struct Outbox {
    arq: ReliableCall,
    /// Each open message, framed, and the peer it went to.
    open: BTreeMap<u64, (PeerId, WireMsg)>,
}

impl Outbox {
    /// Build one role's outbox over its ARQ.
    pub fn new(arq: ReliableCall) -> Self {
        Outbox {
            arq,
            open: BTreeMap::new(),
        }
    }

    /// Send `body` under the next sequence number to the peer `ep` names,
    /// and arm its deadline if the ARQ retries. The endpoint's request
    /// type must be admitted by the peer role's declared cap, as in
    /// [`WireCtx::send_to`].
    pub fn send_to<Req, Resp, R>(
        &mut self,
        ctx: &mut WireCtx,
        ep: Endpoint<Req, Resp, R>,
        body: &[u8],
        label: Label,
    ) where
        Req: WireLabel + Admits<R>,
        R: Role,
    {
        let att = self.arq.open();
        let msg = WireMsg::data(wire::frame(att.seq, body), label);
        ctx.send_to(ep, msg.clone());
        ctx.arm(&self.arq, &att);
        self.open.insert(att.seq, (PeerId::at(ep.index()), msg));
    }

    /// Feed a fired timer through the ARQ: resend the message byte for
    /// byte, or give it up. The verdict is returned so a role can handle
    /// tokens of its own ([`TimerVerdict::NotMine`]).
    pub fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) -> TimerVerdict {
        let verdict = ctx.arq_timer(&mut self.arq, token);
        match verdict {
            TimerVerdict::Retry(att) => {
                if let Some((to, msg)) = self.open.get(&att.seq) {
                    ctx.send(*to, msg.clone());
                    ctx.arm(&self.arq, &att);
                }
            }
            TimerVerdict::Exhausted { seq, .. } => {
                self.open.remove(&seq);
            }
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
        }
        verdict
    }

    /// Close message `seq` on an ack from `from`: `true` the first time,
    /// and only from the peer the message went to.
    pub fn ack(&mut self, from: PeerId, seq: u64) -> bool {
        match self.open.get(&seq) {
            Some(&(to, _)) if to == from => {
                self.open.remove(&seq);
                self.arq.complete(seq);
                true
            }
            _ => false,
        }
    }

    /// Has every message been acked or given up?
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seam::WireEffects;
    use dcp_core::cap::Control;
    use dcp_core::recover::RecoverConfig;
    use dcp_core::role::RoleKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Sink;
    impl Role for Sink {
        const KIND: RoleKind = RoleKind::Service;
        const NAME: &'static str = "sink";
    }

    fn sink() -> Endpoint<Control, Control, Sink> {
        Endpoint::new(4)
    }

    /// Send one message on a fresh context; what it queued.
    fn send(ob: &mut Outbox, rng: &mut StdRng) -> WireEffects {
        let mut ctx = WireCtx::new(rng, PeerId(1), 0, false);
        ob.send_to(&mut ctx, sink(), b"share", Label::Public);
        ctx.finish()
    }

    /// The frames `fx` queued, as `(peer, bytes)`.
    fn frames(fx: &WireEffects) -> Vec<(PeerId, &[u8])> {
        fx.out.iter().map(|(to, m)| (*to, &m.payload[..])).collect()
    }

    #[test]
    fn every_message_is_framed_and_only_recovery_arms_a_deadline() {
        let mut rng = StdRng::seed_from_u64(1);
        let framed = wire::frame(0, b"share");
        let mut plain = Outbox::new(ReliableCall::new(&RecoverConfig::disabled(), 1));
        let fx = send(&mut plain, &mut rng);
        assert_eq!(frames(&fx), [(PeerId(4), &framed[..])]);
        assert!(fx.timers.is_empty(), "no recovery: no deadline");
        assert!(!plain.is_empty(), "open until acked");

        let mut arq = Outbox::new(ReliableCall::new(&RecoverConfig::standard(), 1));
        let fx = send(&mut arq, &mut rng);
        assert_eq!(frames(&fx), [(PeerId(4), &framed[..])]);
        assert_eq!(fx.timers.len(), 1);
    }

    /// A retry resends the same bytes until the peer the message went to
    /// acks it; that ack closes it, once.
    #[test]
    fn ack_consumes_the_inflight_entry() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ob = Outbox::new(ReliableCall::new(&RecoverConfig::standard(), 2));
        let sent = send(&mut ob, &mut rng);
        let mut ctx = WireCtx::new(&mut rng, PeerId(1), 0, false);
        assert!(matches!(
            ob.on_timer(&mut ctx, sent.timers[0].1),
            TimerVerdict::Retry(_)
        ));
        let fx = ctx.finish();
        assert_eq!(frames(&fx), frames(&sent), "byte-identical");
        assert_eq!(fx.timers.len(), 1, "the retry's deadline");

        assert!(!ob.ack(PeerId(3), 0), "an ack from another peer");
        assert!(!ob.ack(PeerId(4), 1), "an ack for no message");
        assert!(ob.ack(PeerId(4), 0));
        assert!(ob.is_empty());
        assert!(!ob.ack(PeerId(4), 0), "a duplicated ack");
        let mut ctx = WireCtx::new(&mut rng, PeerId(1), 0, false);
        assert_eq!(ob.on_timer(&mut ctx, fx.timers[0].1), TimerVerdict::Stale);
        assert!(ctx.finish().out.is_empty());
    }
}
