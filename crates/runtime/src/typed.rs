//! Label-bounded send paths: where the compile-time `(▲, ●)` check bites.
//!
//! Bytes leave a role in exactly two ways — a simulator [`Ctx::send`] or
//! a seam [`WireCtx::send`](crate::seam::WireCtx::send) — so those are
//! the two places the [`Admits`] witness is forced. A wiring that holds
//! label-bounded [`Endpoint`]s and routes every forward-path transmission
//! through [`TypedSend::send_to`] (or the [`Driver`](crate::Driver)
//! helper built on it) or through
//! [`WireCtx::send_to`](crate::seam::WireCtx::send_to) (or the
//! [`Outbox`](crate::Outbox) built on that) cannot deliver a
//! message whose plaintext-visible caps exceed the receiving role's
//! declared [`KnowledgeCap`](dcp_core::KnowledgeCap): the build fails at
//! the send site with a `knowledge-cap violation` const panic.
//!
//! The typed paths are zero-cost and behavior-identical: an [`Endpoint`]
//! is a `usize`, the witness is a unit const, and the underlying send is
//! the same call the wirings always made — the DST probes are
//! byte-identical across the migration.

use dcp_core::cap::{Admits, WireLabel};
use dcp_core::role::{Endpoint, Role};
use dcp_simnet::{Ctx, Message, NodeId};

/// Typed sending over the simulator: the compile-time admission check at
/// the only place simulated bytes leave a role.
pub trait TypedSend {
    /// Send `msg` to the peer the label-bounded endpoint names. Forces
    /// the [`Admits`] witness: compiling this call *is* the proof that
    /// `R`'s knowledge cap admits `Req`'s plaintext-visible labels.
    fn send_to<Req, Resp, R>(&mut self, ep: Endpoint<Req, Resp, R>, msg: Message)
    where
        Req: WireLabel + Admits<R>,
        R: Role;
}

impl TypedSend for Ctx<'_> {
    fn send_to<Req, Resp, R>(&mut self, ep: Endpoint<Req, Resp, R>, msg: Message)
    where
        Req: WireLabel + Admits<R>,
        R: Role,
    {
        let _: () = <Req as Admits<R>>::WITNESS;
        self.send(NodeId(ep.index()), msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::cap::{Addressed, Control, KnowledgeCap, Sealed};
    use dcp_core::role::RoleKind;
    use dcp_core::{Label, Sensitivity, World};
    use dcp_simnet::{LinkParams, Network, Node};

    struct Query;
    impl WireLabel for Query {
        const IDENTITY: Sensitivity = Sensitivity::NonSensitive;
        const DATA: Sensitivity = Sensitivity::Sensitive;
    }

    struct Proxy;
    impl Role for Proxy {
        const KIND: RoleKind = RoleKind::Relay;
        const NAME: &'static str = "proxy";
    }

    struct Target;
    impl Role for Target {
        const KIND: RoleKind = RoleKind::Service;
        const NAME: &'static str = "target";
    }

    /// A client that speaks only through label-bounded endpoints: the
    /// decoupled two-hop shape compiles, and the bytes arrive exactly as
    /// an untyped send would deliver them.
    struct TypedClient {
        entity: dcp_core::EntityId,
        proxy: Endpoint<Addressed<Sealed<Query>>, Control, Proxy>,
    }
    impl Node for TypedClient {
        fn entity(&self) -> dcp_core::EntityId {
            self.entity
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send_to(self.proxy, Message::public(b"q".to_vec()));
        }
        fn on_message(&mut self, _: &mut Ctx, _: NodeId, _: Message) {}
    }

    struct Sink {
        entity: dcp_core::EntityId,
        got: std::rc::Rc<std::cell::RefCell<Vec<Vec<u8>>>>,
        /// Relay → service leg: the bare query type is admitted by the
        /// service cap (△, ●). `None` marks the terminal node.
        origin: Option<Endpoint<Query, Control, Target>>,
    }
    impl Node for Sink {
        fn entity(&self) -> dcp_core::EntityId {
            self.entity
        }
        fn on_message(&mut self, ctx: &mut Ctx, _: NodeId, msg: Message) {
            self.got.borrow_mut().push(msg.bytes.clone());
            if let Some(origin) = self.origin {
                ctx.send_to(origin, Message::new(msg.bytes, Label::Public));
            }
        }
    }

    #[test]
    fn typed_sends_deliver_like_untyped_sends() {
        assert_eq!(Proxy::CAP, KnowledgeCap::RELAY);
        let mut world = World::new();
        let org = world.add_org("t");
        let c = world.add_entity("C", org, None);
        let p = world.add_entity("P", org, None);
        let o = world.add_entity("O", org, None);
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut net = Network::new(world, 1);
        net.set_default_link(LinkParams::lan());
        net.add_node(Box::new(TypedClient {
            entity: c,
            proxy: Endpoint::new(1),
        }));
        net.add_node(Box::new(Sink {
            entity: p,
            got: got.clone(),
            origin: Some(Endpoint::new(2)),
        }));
        net.add_node(Box::new(Sink {
            entity: o,
            got: got.clone(),
            origin: None,
        }));
        net.run();
        // Proxy saw the client's bytes, origin saw the proxy's forward.
        assert_eq!(got.borrow().len(), 2);
        assert_eq!(got.borrow()[0], b"q");
        assert_eq!(got.borrow()[1], b"q");
    }
}
