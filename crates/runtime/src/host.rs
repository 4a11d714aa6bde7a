//! The simulator host for seam roles: a wiring written once as
//! [`WireRole`]s runs on simnet here and on `dcp-serve` over sockets.

use dcp_core::EntityId;
use dcp_simnet::{Ctx, Message, Node, NodeId};

use crate::seam::{apply_effects, PeerId, WireCtx, WireEffects, WireMsg, WireRole};

/// One simnet node driving one [`WireRole`]. Each callback gets a
/// [`WireCtx`] over the node's [`Ctx`] — the run's RNG, simulated time,
/// and the node id as the role's [`PeerId`] — and the queued effects are
/// applied before the simulator flushes the node's sends: world effects
/// through [`apply_effects`] in the order queued, then frames and timers.
/// `PeerId(i)` is `NodeId(i)`, so a spec's roles must be registered in
/// role-table order ([`Harness::add_spec`](crate::Harness::add_spec)).
///
/// The effect buffers are lent from one callback to the next, drained
/// but keeping their capacity, as simnet lends its outbox to every
/// `Ctx`: a steady callback allocates nothing to queue its effects.
pub(crate) struct SimHost {
    entity: EntityId,
    role: Box<dyn WireRole>,
    spare: WireEffects,
}

impl SimHost {
    pub(crate) fn new(entity: EntityId, role: Box<dyn WireRole>) -> Self {
        SimHost {
            entity,
            role,
            spare: WireEffects::default(),
        }
    }

    fn call(&mut self, ctx: &mut Ctx, f: impl FnOnce(&mut dyn WireRole, &mut WireCtx)) {
        let me = PeerId::at(ctx.id().0);
        let obs = ctx.world.obs_enabled();
        let spare = std::mem::take(&mut self.spare);
        let mut wctx = WireCtx::lend(ctx.rng, me, ctx.now.as_us(), obs, spare);
        f(self.role.as_mut(), &mut wctx);
        let mut fx = wctx.finish();
        apply_effects(ctx.world, self.entity, &fx);
        fx.world.clear();
        for (to, msg) in fx.out.drain(..) {
            ctx.send(NodeId(to.index()), Message::new(msg.payload, msg.label));
        }
        for (delay_us, token) in fx.timers.drain(..) {
            ctx.set_timer(delay_us, token);
        }
        self.spare = fx;
    }
}

impl Node for SimHost {
    fn entity(&self) -> EntityId {
        self.entity
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.call(ctx, |role, wctx| role.on_start(wctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let msg = WireMsg::data(msg.bytes, msg.label);
        self.call(ctx, |role, wctx| {
            role.on_frame(wctx, PeerId::at(from.0), msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.call(ctx, |role, wctx| role.on_timer(wctx, token));
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use dcp_core::{DataKind, IdentityKind, InfoItem, Label, RunOptions, UserId};
    use dcp_simnet::LinkParams;

    use super::*;
    use crate::seam::RoleSpec;
    use crate::{Harness, RoleKind};

    type Log = Arc<Mutex<Vec<String>>>;

    /// Sends two labeled pings on start, arms a timer, and closes a span
    /// when the timer fires.
    struct Pinger {
        user: UserId,
        log: Log,
    }

    impl WireRole for Pinger {
        fn on_start(&mut self, ctx: &mut WireCtx) {
            ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
            for n in [1u8, 2] {
                let label = Label::items([InfoItem::sensitive_data(self.user, DataKind::Payload)]);
                ctx.send(PeerId(1), WireMsg::data(vec![n], label));
            }
            ctx.set_timer(5_000, 7);
        }
        fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
            let line = format!("pinger<-{}:{:?}@{}", from.0, msg.payload, ctx.now_us());
            self.log.lock().unwrap().push(line);
        }
        fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
            let line = format!("timer:{token}@{}", ctx.now_us());
            self.log.lock().unwrap().push(line);
            ctx.span("ping", 0, ctx.now_us());
        }
    }

    /// Echoes each ping back, counting one crypto op per frame.
    struct Ponger {
        log: Log,
    }

    impl WireRole for Ponger {
        fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
            let line = format!("ponger<-{}:{:?}@{}", from.0, msg.payload, ctx.now_us());
            self.log.lock().unwrap().push(line);
            ctx.crypto_op("hpke_open");
            ctx.send(from, WireMsg::response(msg.payload, Label::Public));
        }
    }

    #[test]
    fn simnet_hosts_a_two_role_wiring() {
        let log: Log = Arc::default();
        let (mut world, harness) = Harness::begin("toy", 3, &RunOptions::observed());
        let org = world.add_org("t");
        let user = world.add_user();
        let pinger = world.add_entity("Pinger", org, Some(user));
        let ponger = world.add_entity("Ponger", org, None);
        let mut net = harness.network(world, LinkParams::lan());
        let roles = [
            RoleSpec {
                name: "pinger".into(),
                entity: pinger,
                kind: RoleKind::Initiator,
                role: Box::new(Pinger {
                    user,
                    log: log.clone(),
                }),
            },
            RoleSpec {
                name: "ponger".into(),
                entity: ponger,
                kind: RoleKind::Service,
                role: Box::new(Ponger { log: log.clone() }),
            },
        ];
        for (i, role) in roles.into_iter().enumerate() {
            assert_eq!(
                Harness::add_spec(&mut net, role).0,
                i,
                "PeerId(i) is NodeId(i)"
            );
        }
        let core = harness.finish(net);

        // LAN links: 500 µs + 1 µs of serialization per one-byte frame.
        assert_eq!(
            *log.lock().unwrap(),
            [
                "ponger<-0:[1]@501",
                "ponger<-0:[2]@501",
                "pinger<-1:[1]@1002",
                "pinger<-1:[2]@1002",
                "timer:7@5000",
            ]
        );
        // The pinger's own record, and the ponger's observation of the
        // labels it was sent.
        assert_eq!(core.world.tuple(pinger, user).render(), "(▲, −)");
        assert_eq!(core.world.tuple(ponger, user).render(), "(−, ●)");
        assert_eq!(core.metrics.crypto_ops.get("hpke_open"), Some(&2));
        assert_eq!(core.metrics.span_count("ping"), 1);
        assert_eq!(core.metrics.messages_delivered, 4);
    }
}
