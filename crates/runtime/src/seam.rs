//! The sim/prod transport seam: role logic written against this module
//! runs unmodified over the deterministic simulator *or* over real TCP
//! sockets (`dcp-serve`).
//!
//! The seam is deliberately narrow — a [`WireRole`] sees typed frames
//! ([`WireMsg`]) from identified peers ([`PeerId`]) and timer tokens it
//! armed itself, and queues effects back through a [`WireCtx`]: frames
//! to send, timers, ledger records, crypto-op counts, spans and
//! observability events. It reads a clock ([`WireCtx::now_us`]) and its
//! own peer id ([`WireCtx::me`]) there too. Everything else (sockets,
//! accept backpressure, shutdown, the knowledge-ledger shadow) belongs
//! to the engine behind the seam. Scenario crates depend on *this*
//! module only; the CI layering lint forbids them from reaching into
//! `dcp-serve`, the same way it forbids direct `dcp-simnet` use.
//!
//! Two engines host the same roles:
//!
//! * the simulator, through [`Harness::run_spec`](crate::Harness::run_spec):
//!   each role becomes one simnet node, `PeerId(i)` is `NodeId(i)`, the
//!   clock is simulated time, and the effects land on the run's world as
//!   the role's own ledger writes — the deterministic twin the DST
//!   probes drive;
//! * `dcp-serve` — real TCP loopback threads or separate processes, with
//!   a wall clock and timers fired from each host's poll loop.
//!
//! Labels never cross a real socket. In loopback mode the engine carries
//! each message's [`Label`] on an in-memory side channel and replays the
//! simulator's delivery rule (`world.observe(entity, &label)`) at frame
//! delivery, which is what makes the knowledge tables of a TCP run
//! byte-comparable to the simulated twin. In multi-process mode there is
//! no shared world; bytes still flow, and the twin check is the loopback
//! run's job.
//!
//! A passive observer is part of the wiring too, as a [`WireTap`], so
//! its row of the knowledge table is held to the twin like every other.
//!
//! A scenario crate hands each of its wirings to the DST batteries and to
//! `dcp serve` as one [`Registration`]; a wiring still written as
//! simulator nodes registers with no serve fn.

use std::sync::{Mutex, MutexGuard};

use dcp_core::cap::{Admits, KnowledgeCap, WireLabel};
use dcp_core::role::{Endpoint, Role, RoleKind};
use dcp_core::{EntityId, InfoItem, Label, ObsEvent, RunOptions, ScenarioReport, World};
use dcp_recover::{Attempt, ReliableCall, TimerVerdict};
use rand::rngs::StdRng;

pub use dcp_transport::frame::{checked_wire_len, Frame, FrameRef, FrameType, MAX_PAYLOAD};
pub use dcp_transport::TransportError;

/// Hard cap on one frame's payload over a real socket (`dcp-serve`
/// refuses a longer length prefix before buffering a byte of it). A
/// wiring whose served workload would need a longer frame refuses that
/// workload up front.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Identifies one role instance inside a [`ServeSpec`] wiring: the index
/// into [`ServeSpec::roles`]. Compact (`u16`) because it rides the
/// connection-hello frame in multi-process mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u16);

impl PeerId {
    /// The peer at `index` in [`ServeSpec::roles`]. Panics past `u16`: a
    /// wiring holds at most 65,535 roles.
    pub fn at(index: usize) -> PeerId {
        PeerId(u16::try_from(index).expect("a wiring holds at most 65,535 roles"))
    }

    /// The index into [`ServeSpec::roles`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A message crossing the seam: a typed frame's content, plus the
/// information-flow label that shadows it for verification. The label is
/// never serialized onto a socket — the engine carries it out-of-band
/// (loopback) or drops it (multi-process).
#[derive(Clone, Debug)]
pub struct WireMsg {
    /// Frame type tag (the wire carries it via [`Frame`]).
    pub ftype: FrameType,
    /// Frame payload bytes.
    pub payload: Vec<u8>,
    /// The verification label riding shotgun.
    pub label: Label,
}

impl WireMsg {
    /// A DATA frame.
    pub fn data(payload: Vec<u8>, label: Label) -> Self {
        WireMsg {
            ftype: FrameType::Data,
            payload,
            label,
        }
    }

    /// A RESPONSE frame.
    pub fn response(payload: Vec<u8>, label: Label) -> Self {
        WireMsg {
            ftype: FrameType::Response,
            payload,
            label,
        }
    }
}

/// What a [`WireRole`] may do during a callback: queue outgoing frames
/// and timers, record knowledge, count crypto work, report spans and
/// events, and draw randomness. The engine constructs one per callback
/// and applies the queued effects afterwards — mirroring the simulator's
/// `Ctx`/outbox discipline so role code has the same shape in both
/// worlds.
pub struct WireCtx<'a> {
    /// Seeded randomness for sealing operations, engine-owned: the
    /// simulator's run RNG, or a per-role RNG under `dcp-serve`.
    /// Ciphertext bytes differ between sim and serve runs, which is fine
    /// — knowledge tables depend on labels and keys, not on ciphertext.
    /// A draw that decides *where* a message goes would differ too, so
    /// routing draws come from role-owned state seeded from the run seed.
    pub rng: &'a mut StdRng,
    me: PeerId,
    now_us: u64,
    obs: bool,
    out: Vec<(PeerId, WireMsg)>,
    timers: Vec<(u64, u64)>,
    world: Vec<WorldEffect>,
    units_done: u64,
}

impl<'a> WireCtx<'a> {
    /// Build a context for the role at `me`, at `now_us` on the engine's
    /// clock. `obs` says whether a metrics sink is installed: without
    /// one, crypto-op counts, spans and events are dropped at a single
    /// branch. Engines call this; roles only consume the methods below.
    pub fn new(rng: &'a mut StdRng, me: PeerId, now_us: u64, obs: bool) -> Self {
        Self::lend(rng, me, now_us, obs, WireEffects::default())
    }

    /// [`new`](WireCtx::new) over buffers the engine lends: the emptied
    /// effects of an earlier callback, whose capacity the role's queued
    /// effects reuse instead of allocating their own.
    pub(crate) fn lend(
        rng: &'a mut StdRng,
        me: PeerId,
        now_us: u64,
        obs: bool,
        spare: WireEffects,
    ) -> Self {
        debug_assert!(
            spare.out.is_empty() && spare.timers.is_empty() && spare.world.is_empty(),
            "lent effect buffers must be empty"
        );
        WireCtx {
            rng,
            me,
            now_us,
            obs,
            out: spare.out,
            timers: spare.timers,
            world: spare.world,
            units_done: 0,
        }
    }

    /// This role's own peer id (for node ids in observability events).
    pub fn me(&self) -> PeerId {
        self.me
    }

    /// The engine's clock in µs: simulated time on the simulator, time
    /// since the run started under `dcp-serve`.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Queue a frame for delivery to `to`.
    pub fn send(&mut self, to: PeerId, msg: WireMsg) {
        self.out.push((to, msg));
    }

    /// Label-bounded variant of [`send`](WireCtx::send): the peer is
    /// named by an [`Endpoint`] over the spec's role table
    /// ([`Endpoint::index`] is the [`PeerId`] index), and the endpoint's
    /// request type must be admitted by the peer role's declared
    /// [`KnowledgeCap`] — served wirings inherit
    /// the same compile-time coupling check as simulated ones, for free.
    pub fn send_to<Req, Resp, R>(&mut self, ep: Endpoint<Req, Resp, R>, msg: WireMsg)
    where
        Req: WireLabel + Admits<R>,
        R: Role,
    {
        let _: () = <Req as Admits<R>>::WITNESS;
        self.send(PeerId::at(ep.index()), msg);
    }

    /// Arrange for [`WireRole::on_timer`]`(token)` after `delay_us` µs
    /// on the engine's clock. Timers cannot be cancelled; a role ignores
    /// the tokens it no longer cares about.
    pub fn set_timer(&mut self, delay_us: u64, token: u64) {
        self.timers.push((delay_us, token));
    }

    /// Record an item into this role's own knowledge ledger (the seam
    /// analogue of `ctx.world.record(self.entity, item)`).
    pub fn record(&mut self, item: InfoItem) {
        self.world.push(WorldEffect::Record(item));
    }

    /// Count a cryptographic operation (metrics only; never affects
    /// knowledge tables).
    pub fn crypto_op(&mut self, op: &'static str) {
        self.emit(ObsEvent::CryptoOp { op });
    }

    /// Report a completed protocol-phase span `[start_us, end_us]` on
    /// the engine's clock (metrics only).
    pub fn span(&mut self, name: &'static str, start_us: u64, end_us: u64) {
        self.emit(ObsEvent::Span {
            name,
            start_us,
            end_us,
        });
    }

    /// Emit an observability event (metrics only). It is stamped with
    /// the world's observability clock when applied, which the
    /// simulator keeps at simulated time.
    pub fn emit(&mut self, event: ObsEvent) {
        if self.obs {
            self.world.push(WorldEffect::Event(event));
        }
    }

    /// Feed a fired timer `token` through a client's `arq` and return the
    /// verdict, first emitting the observation a retry or a give-up
    /// carries (`RecoveryRetry`, `RecoveryGiveUp`).
    pub fn arq_timer(&mut self, arq: &mut ReliableCall, token: u64) -> TimerVerdict {
        let node = self.me.index();
        let verdict = arq.on_timer(token);
        match verdict {
            TimerVerdict::Retry(att) => self.emit(ObsEvent::RecoveryRetry {
                node,
                seq: att.seq,
                attempt: att.attempt,
            }),
            TimerVerdict::Exhausted { seq, attempts } => self.emit(ObsEvent::RecoveryGiveUp {
                node,
                seq,
                attempts,
            }),
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
        }
        verdict
    }

    /// Arm `att`'s deadline, if `arq` retries at all.
    pub fn arm(&mut self, arq: &ReliableCall, att: &Attempt) {
        if arq.enabled() {
            self.set_timer(att.timer_delay_us, att.token);
        }
    }

    /// Mark one end-to-end work unit complete (a resolved query, a
    /// redeemed token, …). The served engine sums these into the run
    /// outcome; simulated reports count work in their own stats.
    pub fn unit_done(&mut self) {
        self.units_done += 1;
    }

    /// Drain the queued effects for the engine to apply.
    pub fn finish(self) -> WireEffects {
        WireEffects {
            out: self.out,
            timers: self.timers,
            world: self.world,
            units_done: self.units_done,
        }
    }
}

/// One effect a role callback has on the run's world, kept in the order
/// the role queued it so both engines emit ledger and metrics events in
/// one sequence.
#[derive(Clone, Debug)]
pub enum WorldEffect {
    /// Knowledge the role recorded about itself.
    Record(InfoItem),
    /// An observability event: a crypto-op count, a span, or any other
    /// [`ObsEvent`].
    Event(ObsEvent),
}

/// The queued effects of one role callback, in order.
#[derive(Default)]
pub struct WireEffects {
    /// Outgoing frames.
    pub out: Vec<(PeerId, WireMsg)>,
    /// Timers to arm: `(delay_us, token)`.
    pub timers: Vec<(u64, u64)>,
    /// Effects on the world, in the order queued.
    pub world: Vec<WorldEffect>,
    /// Work units completed during the callback.
    pub units_done: u64,
}

/// Apply a role callback's world effects to a world, in order — the
/// engine-side half of the simulator's delivery rule. `observe` runs
/// *before* the role sees the frame in engine code; this helper exists so
/// every engine sequences the ledger writes identically.
pub fn apply_effects(world: &mut World, entity: EntityId, effects: &WireEffects) {
    for fx in &effects.world {
        match fx {
            WorldEffect::Record(item) => world.record(entity, item.clone()),
            WorldEffect::Event(event) => world.emit(event),
        }
    }
}

/// Protocol logic for one role instance, written once and hosted by
/// either engine. All methods receive hostile input in production —
/// implementations must drop malformed or unexpected frames, never
/// panic (the engine treats a panic as a role crash and tears the run
/// down). The simulator carries bytes and labels only, so every frame a
/// simulated role receives is [`FrameType::Data`]: role logic must not
/// branch on the frame type.
pub trait WireRole: Send {
    /// Called once before any frame flows (the `on_start` twin): seed
    /// the role's own ledger, send initial requests.
    fn on_start(&mut self, _ctx: &mut WireCtx) {}

    /// A frame arrived from `from`. The engine has already observed the
    /// label into the world (loopback mode) — the role only runs
    /// protocol logic and queues replies.
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg);

    /// A timer armed with [`WireCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut WireCtx, _token: u64) {}

    /// Has this role completed all the work it initiates? Engines stop
    /// the run when every `Initiator` role reports `true`. Non-initiator
    /// roles keep the default `false`; they are shut down by the engine.
    fn finished(&self) -> bool {
        false
    }
}

/// One role instance in a wiring: who it is in the world, what
/// architectural kind it plays, and its protocol logic.
pub struct RoleSpec {
    /// Stable role-instance name (e.g. `"client"`, `"proxy"`); doubles
    /// as the `--role` selector in multi-process mode.
    pub name: String,
    /// The entity whose ledger this role writes (loopback mode).
    pub entity: EntityId,
    /// Architectural kind — engines use it to decide who drives the run
    /// (initiators) and who merely serves.
    pub kind: RoleKind,
    /// The protocol logic.
    pub role: Box<dyn WireRole>,
}

/// A complete wiring of seam roles: the world (entities, users, keys)
/// plus every role. Built by a scenario crate (its
/// [`Registration::serve`], or `dcp_odns::serve::odoh_serve_spec`) and
/// hosted by either engine: [`Harness::run_spec`](crate::Harness::run_spec)
/// on the simulator, `dcp-serve` over sockets.
pub struct ServeSpec {
    /// Scenario name (e.g. `"odoh"`).
    pub scenario: &'static str,
    /// The knowledge world the roles write.
    pub world: World,
    /// All role instances. [`PeerId`]`(i)` addresses `roles[i]`.
    pub roles: Vec<RoleSpec>,
    /// Work units the wiring should complete end-to-end.
    pub expected_units: u64,
    /// Passive observers of the wiring's traffic.
    pub taps: Vec<WireTap>,
}

/// A passive observer: `observer` learns what the label of every frame
/// crossing a watched link reveals without keys. The simulator observes
/// at send, loopback mode as the label enters the side channel.
#[derive(Clone, Debug)]
pub struct WireTap {
    /// The observing entity.
    pub observer: EntityId,
    /// The watched directed links `(from, to)`; `None` watches them all.
    pub links: Option<Vec<(PeerId, PeerId)>>,
}

impl WireTap {
    /// Does this tap watch frames from `from` to `to`?
    pub fn watches(&self, from: PeerId, to: PeerId) -> bool {
        match &self.links {
            None => true,
            Some(links) => links.contains(&(from, to)),
        }
    }
}

impl RoleSpec {
    /// Build a spec whose kind derives from the typed role marker — the
    /// seam twin of [`Harness::add_role`](crate::Harness::add_role), so a
    /// role table carries the same declared caps as a node registered
    /// under `R`.
    pub fn of<R: Role>(name: impl Into<String>, entity: EntityId, role: Box<dyn WireRole>) -> Self {
        RoleSpec {
            name: name.into(),
            entity,
            kind: R::KIND,
            role,
        }
    }
}

impl ServeSpec {
    /// Index of the role named `name`, if any.
    pub fn role_index(&self, name: &str) -> Option<usize> {
        self.roles.iter().position(|r| r.name == name)
    }
}

/// The simulated twin of a served wiring: the simulator's world for the
/// same config and seed, computed only when a caller compares against it.
pub type Twin = Box<dyn FnOnce() -> World>;

/// A seam wiring's spec for `(clients, queries, seed)`, built without
/// recovery, and its twin; `Err` for a workload the wiring cannot serve.
pub type Serve = fn(usize, usize, u64) -> Result<(ServeSpec, Twin), String>;

/// One §3 wiring as every battery, probe and `dcp serve` reaches it.
/// Each scenario crate writes one beside its `Scenario` impl, and the
/// umbrella crate lists them all (`decoupling::REGISTRY`).
pub struct Registration {
    /// The wiring's `Scenario::NAME`.
    pub name: &'static str,
    /// One run of the wiring's battery shape, the small config every DST
    /// battery, probe and property test drives (`dcp_faults::dst::Run`).
    pub run: fn(u64, &RunOptions) -> Box<dyn ScenarioReport + Send>,
    /// Entity-name prefixes and the [`KnowledgeCap`] each declares for
    /// that shape's roles.
    pub declared_caps: fn() -> Vec<(&'static str, KnowledgeCap)>,
    /// Seam wirings only: what `dcp serve` and the twin tests serve.
    pub serve: Option<Serve>,
}

/// The `i`-th (0-based) instance's name: `base`, then `base{sep}2`,
/// `base{sep}3`, … (entity `Client 2`, role `client-2`).
pub fn nth(base: &str, sep: char, i: usize) -> String {
    if i == 0 {
        base.to_string()
    } else {
        format!("{base}{sep}{}", i + 1)
    }
}

/// Lock state a wiring's roles share (run stats, a bank). Roles never
/// panic while holding it, so a poisoned lock is a bug, not an input.
pub fn lock<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
    shared
        .lock()
        .expect("no role panicked holding shared state")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Echo {
        done: bool,
    }
    impl WireRole for Echo {
        fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
            ctx.send(from, WireMsg::response(msg.payload, Label::Public));
            ctx.unit_done();
            self.done = true;
        }
        fn finished(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn ctx_queues_effects_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = WireCtx::new(&mut rng, PeerId(0), 0, false);
        let mut role = Echo { done: false };
        role.on_frame(
            &mut ctx,
            PeerId(3),
            WireMsg::data(b"ping".to_vec(), Label::Public),
        );
        let fx = ctx.finish();
        assert_eq!(fx.out.len(), 1);
        assert_eq!(fx.out[0].0, PeerId(3));
        assert_eq!(fx.out[0].1.payload, b"ping");
        assert_eq!(fx.units_done, 1);
        assert!(role.finished());
    }

    #[test]
    fn apply_effects_writes_the_ledger() {
        use dcp_core::{DataKind, InfoItem};
        let mut world = World::new();
        let org = world.add_org("o");
        let u = world.add_user();
        let e = world.add_entity("E", org, None);
        let mut rng = StdRng::seed_from_u64(2);
        let mut ctx = WireCtx::new(&mut rng, PeerId(0), 0, false);
        ctx.record(InfoItem::sensitive_data(u, DataKind::Payload));
        ctx.crypto_op("hpke_seal");
        apply_effects(&mut world, e, &ctx.finish());
        assert!(world.tuple(e, u).has_sensitive_data());
    }

    #[test]
    fn metrics_effects_need_a_sink_and_keep_their_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut quiet = WireCtx::new(&mut rng, PeerId(1), 40, false);
        quiet.crypto_op("hpke_seal");
        quiet.span("query", 10, 40);
        quiet.emit(ObsEvent::CryptoOp { op: "x" });
        quiet.set_timer(5, 9);
        let fx = quiet.finish();
        assert!(fx.world.is_empty(), "no sink: metrics effects dropped");
        assert_eq!(fx.timers, vec![(5, 9)], "timers are not metrics");

        let mut ctx = WireCtx::new(&mut rng, PeerId(1), 40, true);
        assert_eq!((ctx.me(), ctx.now_us()), (PeerId(1), 40));
        ctx.crypto_op("hpke_seal");
        ctx.span("query", 10, 40);
        let order: Vec<String> = ctx
            .finish()
            .world
            .iter()
            .map(|fx| format!("{fx:?}"))
            .collect();
        assert_eq!(
            order,
            [
                "Event(CryptoOp { op: \"hpke_seal\" })",
                "Event(Span { name: \"query\", start_us: 10, end_us: 40 })"
            ]
        );
    }
}
