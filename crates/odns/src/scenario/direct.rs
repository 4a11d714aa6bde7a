//! Plain DNS — the coupled baseline — optionally striped across several
//! resolvers (§5.1), written as seam roles like ODoH's: clients, one
//! plain resolver per stripe, and the shared `Origin`.
//!
//! Two rules keep a run's knowledge a function of its seed and config
//! alone, whatever faults, retries or engine it meets:
//!
//! * each call's resolver is drawn once, from a client-owned RNG seeded
//!   from the run seed, and its retries go to the same resolver — a
//!   draw from the run's RNG, or one per attempt, would let a fault
//!   show a name to a resolver the calm run never told it to;
//! * a client completes a call only on an answer to the call's own
//!   question, the match a stub resolver makes (RFC 5452). Plain DNS
//!   has no ciphertext to bind an answer to its call, and under
//!   `dcp serve` the answer arrives as bytes from a socket.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::{DataKind, IdentityKind, InfoItem, Label, RecoverConfig, Scenario, UserId, World};
use dcp_dns::workload::ZipfWorkload;
use dcp_dns::{DnsName, Message as DnsMessage, RrType};
use dcp_runtime::seam::{lock, PeerId, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole};
use dcp_runtime::{wire, Attempt, Control, Endpoint, HopMap, ReliableCall, TimerVerdict};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use super::{answered, build_zone, nth, DirectDns, DirectDnsConfig, Origin, Stats, SUFFIX};
use crate::types::{CoupledQuery, CoupledResolver, ExposedOrigin, StubClient};

/// Peer id of the origin (see [`wiring`]).
const ORIGIN: usize = 0;

/// The stub-resolver client: sends each query in the clear to one of
/// its resolvers, picked uniformly at random per call (§5.1 / ref [18]).
struct Client {
    user: UserId,
    /// Coupled on purpose: the endpoint type says each resolver may see
    /// `(▲, ●)` — the baseline the oblivious wirings improve on.
    resolvers: Vec<Endpoint<CoupledQuery, Control, CoupledResolver>>,
    /// The striping draws, seeded from the run seed.
    stripe: StdRng,
    queries: Vec<DnsName>,
    next_id: u16,
    /// Per-request ARQ: numbers every request, and arms deadlines and
    /// retries under recovery only.
    arq: ReliableCall,
    /// Open calls, keyed by sequence number.
    inflight: BTreeMap<u64, Inflight>,
    stats: Arc<Mutex<Stats>>,
}

struct Inflight {
    name: DnsName,
    /// Index into the client's resolvers, kept across retries.
    resolver: usize,
    sent_at: u64,
}

impl Client {
    fn send_next(&mut self, ctx: &mut WireCtx) {
        let Some(name) = self.queries.pop() else {
            return;
        };
        let att = self.arq.open();
        let call = Inflight {
            name,
            resolver: self.stripe.gen_range(0..self.resolvers.len()),
            sent_at: ctx.now_us(),
        };
        self.inflight.insert(att.seq, call);
        self.transmit(ctx, att);
    }

    /// One (re)transmission of call `att.seq` to the call's resolver.
    /// Plain DNS has no ciphertext to re-randomize (the query is
    /// readable anyway — this is the coupled baseline), so nothing is
    /// recorded into the linkage check.
    fn transmit(&mut self, ctx: &mut WireCtx, att: Attempt) {
        let Some(call) = self.inflight.get(&att.seq) else {
            return;
        };
        let q = DnsMessage::query(self.next_id, call.name.clone(), RrType::A);
        self.next_id = self.next_id.wrapping_add(1);
        // Plain DNS: the resolver sees both who (▲_N) and what (●).
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::sensitive_data(self.user, DataKind::DnsQuery),
        ]);
        ctx.send_to(
            self.resolvers[call.resolver],
            WireMsg::data(wire::frame(att.seq, &q.encode()), label),
        );
        ctx.arm(&self.arq, &att);
    }
}

impl WireRole for Client {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::DnsQuery));
        self.send_next(ctx);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, _from: PeerId, msg: WireMsg) {
        // Undecodable, non-response, unknown-call or wrong-question
        // deliveries complete nothing; a duplicate finds its call gone.
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Some(call) = self.inflight.get(&seq) else {
            return;
        };
        let Ok(resp) = DnsMessage::decode(body) else {
            return;
        };
        if !resp.is_response || resp.questions.first().map(|q| &q.qname) != Some(&call.name) {
            return;
        }
        let call = self.inflight.remove(&seq).expect("matched above");
        self.arq.complete(seq);
        answered(&self.stats, ctx, call.sent_at);
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        match ctx.arq_timer(&mut self.arq, token) {
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => self.transmit(ctx, att),
            TimerVerdict::Exhausted { seq, .. } => {
                self.inflight.remove(&seq);
                self.send_next(ctx);
            }
        }
    }

    fn finished(&self) -> bool {
        self.queries.is_empty() && self.inflight.is_empty()
    }
}

/// A plain recursive resolver: reads each question (its view, §5.1),
/// re-keys the query under its own sequence number, and forwards it with
/// the label intact — plain DNS hides nothing from it.
struct Resolver {
    /// This resolver's index into the stats' views.
    slot: usize,
    origin: Endpoint<CoupledQuery, Control, ExposedOrigin>,
    /// Resolver seq → (client, client seq) for the return path. Entries
    /// are consumed on first use, so a duplicated answer is dropped.
    hop: HopMap<(PeerId, u64)>,
    stats: Arc<Mutex<Stats>>,
}

impl WireRole for Resolver {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        if from.index() == self.origin.index() {
            let Some((client, cseq)) = self.hop.take(seq) else {
                return;
            };
            ctx.send(
                client,
                WireMsg::response(wire::frame(cseq, body), msg.label),
            );
            return;
        }
        let Ok(query) = DnsMessage::decode(body) else {
            return;
        };
        let Some(q0) = query.questions.first() else {
            return;
        };
        lock(&self.stats).resolver_views[self.slot].insert(q0.qname.to_string());
        let rseq = self.hop.insert((from, seq));
        ctx.send_to(
            self.origin,
            WireMsg::data(wire::frame(rseq, body), msg.label),
        );
    }
}

/// Build the direct-DNS entities and workload into `world`, and the
/// roles over them, ready for either engine. Peer ids: origin 0,
/// resolvers 1..=`cfg.resolvers`, then clients.
pub(crate) fn wiring(
    cfg: &DirectDnsConfig,
    seed: u64,
    mut world: World,
    recover: &RecoverConfig,
) -> (ServeSpec, Arc<Mutex<Stats>>) {
    let mut wl_rng = StdRng::seed_from_u64(seed ^ 0xd1e7);
    let workload = ZipfWorkload::new(200, 1.0, SUFFIX);

    let auth_org = world.add_org("authoritative");
    let user_org = world.add_org("users");
    let origin_e = world.add_entity("Origin", auth_org, None);
    let origin = Box::new(Origin {
        zone: build_zone(&workload),
    });
    let mut roles = vec![RoleSpec::of::<ExposedOrigin>("origin", origin_e, origin)];

    let stats = Stats::shared(cfg.resolvers);
    for i in 0..cfg.resolvers {
        let org = world.add_org(&format!("resolver-op-{i}"));
        let e = world.add_entity(&nth("Resolver", ' ', i), org, None);
        let resolver = Resolver {
            slot: i,
            origin: Endpoint::new(ORIGIN),
            hop: HopMap::new(),
            stats: stats.clone(),
        };
        roles.push(RoleSpec::of::<CoupledResolver>(
            nth("resolver", '-', i),
            e,
            Box::new(resolver),
        ));
    }

    for ci in 0..cfg.clients {
        let user = world.add_user();
        let e = world.add_entity(&nth("Client", ' ', ci), user_org, Some(user));
        let client = Client {
            user,
            resolvers: (1..=cfg.resolvers).map(Endpoint::new).collect(),
            stripe: StdRng::seed_from_u64(derive_seed(seed, 0x5791 + ci as u64)),
            queries: workload.stream(&mut wl_rng, cfg.queries_each),
            next_id: 1,
            arq: ReliableCall::new(recover, derive_seed(seed, 0x0d11 + ci as u64)),
            inflight: BTreeMap::new(),
            stats: stats.clone(),
        };
        roles.push(RoleSpec::of::<StubClient>(
            nth("client", '-', ci),
            e,
            Box::new(client),
        ));
    }

    let spec = ServeSpec {
        scenario: DirectDns::NAME,
        world,
        roles,
        expected_units: (cfg.clients * cfg.queries_each) as u64,
        taps: Vec::new(),
    };
    (spec, stats)
}

#[cfg(test)]
mod tests {
    use dcp_runtime::seam::WireEffects;

    use super::*;

    fn drive(rng: &mut StdRng, f: impl FnOnce(&mut WireCtx)) -> WireEffects {
        let mut ctx = WireCtx::new(rng, PeerId(2), 0, false);
        f(&mut ctx);
        ctx.finish()
    }

    /// An answer framed for an open call but to another name completes
    /// nothing; the call's own answer completes it, exactly once.
    #[test]
    fn client_completes_a_call_only_on_its_own_question() {
        let cfg = DirectDnsConfig::new(1, 2, 1);
        let (mut spec, stats) = wiring(&cfg, 3, World::new(), &RecoverConfig::disabled());
        let me = spec.role_index("client").expect("the wiring has a client");
        let mut client = spec.roles.swap_remove(me).role;
        let workload = ZipfWorkload::new(200, 1.0, SUFFIX);
        let zone = build_zone(&workload);
        let mut rng = StdRng::seed_from_u64(1);

        let fx = drive(&mut rng, |ctx| client.on_start(ctx));
        let [(to, sent)] = &fx.out[..] else {
            panic!("one query on start, got {}", fx.out.len());
        };
        assert_eq!(*to, PeerId(1), "the only resolver");
        let (seq, body) = wire::unframe(&sent.payload).expect("framed");
        let query = DnsMessage::decode(body).expect("a DNS query");
        let asked = &query.questions[0].qname;
        let other = [0, 1]
            .map(|i| workload.domain(i).clone())
            .into_iter()
            .find(|name| name != asked)
            .expect("two names differ from one");
        let answer_to = |name: DnsName| {
            let q = DnsMessage::query(query.id, name, RrType::A);
            WireMsg::response(wire::frame(seq, &zone.answer(&q).encode()), Label::Public)
        };

        let fx = drive(&mut rng, |ctx| {
            client.on_frame(ctx, PeerId(1), answer_to(other.clone()))
        });
        assert_eq!(
            fx.units_done, 0,
            "an answer to {other} is not an answer to {asked}"
        );
        assert!(fx.out.is_empty(), "and it moves the client on to nothing");

        let fx = drive(&mut rng, |ctx| {
            client.on_frame(ctx, PeerId(1), answer_to(asked.clone()))
        });
        assert_eq!(fx.units_done, 1);
        assert_eq!(fx.out.len(), 1, "the next query goes out");
        let fx = drive(&mut rng, |ctx| {
            client.on_frame(ctx, PeerId(1), answer_to(asked.clone()))
        });
        assert_eq!(fx.units_done, 0, "a duplicate completes nothing");
        assert_eq!(stats.lock().unwrap().answered, 1);
    }
}
