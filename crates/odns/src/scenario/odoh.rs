//! The ODoH wiring, written once as seam roles: clients HPKE-seal
//! queries through proxy → target → origin. [`wiring`] builds the four
//! roles and the world they write; [`Odoh`] hosts them on the simulator
//! and [`crate::serve::odoh_serve_spec`] hands the same roles to
//! `dcp-serve`, so a served run's knowledge tables are byte-comparable to
//! the simulated twin's by construction.
//!
//! ## Sequence numbers on every leg
//!
//! Every leg carries an 8-byte hop-local sequence number
//! (`dcp_runtime::wire` framing), which real sockets need anyway: they
//! interleave, so answers cannot be paired with queries by arrival
//! order. Each hop mints its own numbers and maps them back on the
//! return path — a client-scoped counter forwarded in the clear would
//! hand the target a stable cross-query pseudonym, undoing the
//! decoupling. The proxy re-keys with a [`HopMap`]; the target keys its
//! waiters by `(proxy, proxy seq)`, so backup proxies' numbers never
//! collide, and mints its own numbers for the origin leg. The run's
//! [`RecoverConfig`] only arms the client's retries and adds backup
//! proxies.
//!
//! Every decode on this path is fail-closed: a frame that does not
//! unframe, unseal, or parse is dropped, never answered.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::{
    DataKind, IdentityKind, InfoItem, KeyId, Label, ObsEvent, RecoverConfig, RunOptions, Scenario,
    UserId, World,
};
use dcp_crypto::hpke;
use dcp_crypto::x25519::PreparedKey;
use dcp_dns::workload::ZipfWorkload;
use dcp_dns::{DnsName, Message as DnsMessage, RrType, Zone};
use dcp_runtime::seam::{PeerId, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole};
use dcp_runtime::{
    wire, Attempt, Control, Endpoint, Failover, Harness, HopMap, LinkParams, ReliableCall,
    TimerVerdict,
};

use super::{build_zone, finish_report, Odoh, OdohConfig, ScenarioReport, Stats, SUFFIX};
use crate::odoh;
use crate::types::{
    AuthOrigin, DnsQuery, ObliviousProxy, ObliviousQuery, ObliviousTarget, SealedQuery, StubClient,
};

/// Peer ids of the target and the origin (see [`wiring`]).
const TARGET: usize = 1;
const ORIGIN: usize = 2;

/// The client's envelope label.
///
/// Outer envelope: the proxy knows the client (▲_N) and that a DNS query
/// happened (⊙). Inner seal: the target reads the query content (⊙/●) of
/// an anonymous user (△).
fn envelope_label(user: UserId, target_key: KeyId) -> Label {
    Label::items([
        InfoItem::sensitive_identity(user, IdentityKind::Any),
        InfoItem::plain_data(user, DataKind::DnsQuery),
    ])
    .and(
        Label::items([
            InfoItem::plain_identity(user, IdentityKind::Any),
            InfoItem::partial_data(user, DataKind::DnsQuery),
        ])
        .sealed(target_key),
    )
}

/// The target's response label: the answer (●) about `user`, sealed
/// under the response key that the client and the target derive from
/// the query's HPKE context — intermediaries learn nothing; the client
/// learns the answer it is entitled to. The target derives that key too,
/// but it sends the response and already knows the answer, so the
/// `KeyId` is granted to clients only.
fn response_label(user: UserId, client_resp_key: KeyId) -> Label {
    Label::items([InfoItem::sensitive_data(user, DataKind::DnsQuery)]).sealed(client_resp_key)
}

/// The target→origin label: a plaintext recursive query — the origin
/// sees the query (●) from the resolver's address (△).
fn origin_query_label(user: UserId) -> Label {
    Label::items([
        InfoItem::plain_identity(user, IdentityKind::Any),
        InfoItem::sensitive_data(user, DataKind::DnsQuery),
    ])
}

/// The stub-resolver client: seals each query to the target and sends
/// it through a proxy, counting an answer only when the response opens
/// against the matching in-flight call.
struct Client {
    user: UserId,
    /// The target's key, prepared once per world and shared by every
    /// client: each query encapsulates to it.
    target_pk: Arc<PreparedKey>,
    target_key: KeyId,
    queries: Vec<DnsName>,
    next_id: u16,
    /// Per-request ARQ: arms deadlines and retries under recovery, and
    /// is inert without it.
    arq: ReliableCall,
    /// Call numbers for runs without recovery, where the ARQ numbers
    /// nothing.
    next_seq: u64,
    /// Proxy routes (primary + backups) with the circuit breaker.
    failover: Failover,
    /// RetryLinkage flow id (the client index).
    flow: u64,
    /// Open calls, keyed by sequence number.
    inflight: BTreeMap<u64, Inflight>,
    stats: Arc<Mutex<Stats>>,
}

struct Inflight {
    name: DnsName,
    state: odoh::QueryState,
    route_ordinal: usize,
    sent_at: u64,
}

impl Client {
    fn send_next(&mut self, ctx: &mut WireCtx) {
        let Some(name) = self.queries.pop() else {
            return;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let att = self.arq.begin().unwrap_or(Attempt {
            seq,
            attempt: 0,
            timer_delay_us: 0,
            token: 0,
        });
        let sent_at = ctx.now_us();
        self.transmit(ctx, name, sent_at, att);
    }

    /// One (re)transmission of call `att.seq`: a *fresh* HPKE
    /// encapsulation every attempt (re-randomized retransmission — a
    /// replayed ciphertext would let any on-path observer link the
    /// attempts), framed with the sequence number outside the
    /// ciphertext, routed by the failover's deterministic choice. It
    /// costs one encapsulation and one seal, counted as `vpn` counts a
    /// tunnel setup.
    fn transmit(&mut self, ctx: &mut WireCtx, name: DnsName, sent_at: u64, att: Attempt) {
        let q = DnsMessage::query(self.next_id, name.clone(), RrType::A);
        self.next_id = self.next_id.wrapping_add(1);
        ctx.crypto_op("hpke_encap");
        ctx.crypto_op("hpke_seal");
        let (sealed, state) = odoh::seal_query(ctx.rng, &*self.target_pk, &q).expect("seal");
        let pick = self.failover.route_for(att.seq, att.attempt, ctx.now_us());
        self.stats
            .lock()
            .expect("no client panicked holding the stats")
            .linkage
            .record(self.flow, att.seq, att.attempt, &sealed);
        self.inflight.insert(
            att.seq,
            Inflight {
                name,
                state,
                route_ordinal: pick.ordinal,
                sent_at,
            },
        );
        let label = envelope_label(self.user, self.target_key);
        // Failover picks among the proxies dynamically; every route plays
        // the same role, so the typed endpoint is built from the pick.
        ctx.send_to(
            Endpoint::<SealedQuery, Control, ObliviousProxy>::new(pick.node),
            WireMsg::data(wire::frame(att.seq, &sealed), label),
        );
        if self.arq.enabled() {
            ctx.set_timer(att.timer_delay_us, att.token);
        }
    }
}

impl WireRole for Client {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::DnsQuery));
        self.send_next(ctx);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, _from: PeerId, msg: WireMsg) {
        // The echoed sequence number selects which call's state to open
        // against, so a late response to an earlier query can never
        // clobber a newer one; the state is consumed only once a
        // response opens against it, so a garbled, duplicated or
        // superseded response changes nothing.
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Some(call) = self.inflight.get(&seq) else {
            return;
        };
        ctx.crypto_op("hpke_open");
        match odoh::open_response(&call.state, body) {
            Ok(resp) if resp.is_response => {}
            _ => return,
        }
        let call = self.inflight.remove(&seq).expect("opened against above");
        self.arq.complete(seq);
        self.failover.report_success(call.route_ordinal);
        let now = ctx.now_us();
        ctx.span("query", call.sent_at, now);
        let mut stats = self
            .stats
            .lock()
            .expect("no client panicked holding the stats");
        stats.answered += 1;
        stats.latencies.push(now - call.sent_at);
        drop(stats);
        ctx.unit_done();
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        let node = ctx.me().index();
        match self.arq.on_timer(token) {
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => {
                let Some(call) = self.inflight.get(&att.seq) else {
                    return;
                };
                let (name, sent_at, prev) = (call.name.clone(), call.sent_at, call.route_ordinal);
                let now = ctx.now_us();
                if let Some(until_us) = self.failover.report_failure(prev, now) {
                    ctx.emit(ObsEvent::RecoveryQuarantine {
                        node,
                        route: self.failover.route(prev),
                        until_us,
                    });
                }
                ctx.emit(ObsEvent::RecoveryRetry {
                    node,
                    seq: att.seq,
                    attempt: att.attempt,
                });
                let pick = self.failover.route_for(att.seq, att.attempt, now);
                if pick.ordinal != prev {
                    ctx.emit(ObsEvent::RecoveryFailover {
                        node,
                        seq: att.seq,
                        from_route: self.failover.route(prev),
                        to_route: pick.node,
                    });
                }
                self.transmit(ctx, name, sent_at, att);
            }
            TimerVerdict::Exhausted { seq, attempts } => {
                ctx.emit(ObsEvent::RecoveryGiveUp {
                    node,
                    seq,
                    attempts,
                });
                self.inflight.remove(&seq);
                self.send_next(ctx);
            }
        }
    }

    fn finished(&self) -> bool {
        self.queries.is_empty() && self.inflight.is_empty()
    }
}

/// The oblivious proxy: strips the client-identifying envelope, re-keys
/// each forwarded query under its own sequence number, and carries
/// sealed bytes it cannot read.
struct Proxy {
    target: Endpoint<ObliviousQuery, Control, ObliviousTarget>,
    /// Proxy seq → (client, client seq) for the return path. Entries are
    /// consumed on first use, so a duplicated response is dropped.
    hop: HopMap<(PeerId, u64)>,
}

impl WireRole for Proxy {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        if from.index() == self.target.index() {
            let Some((client, cseq)) = self.hop.take(seq) else {
                return;
            };
            ctx.send(
                client,
                WireMsg::response(wire::frame(cseq, body), msg.label),
            );
            return;
        }
        // The target sees only the sealed inner label.
        let inner = match msg.label {
            Label::Bundle(mut parts) if parts.len() == 2 => parts.swap_remove(1),
            other => other,
        };
        let pseq = self.hop.insert((from, seq));
        ctx.send_to(self.target, WireMsg::data(wire::frame(pseq, body), inner));
    }
}

/// The oblivious target: opens queries it cannot attribute, recurses to
/// the origin, and seals each answer under the response key it derives
/// from the query's HPKE context.
struct Target {
    kp: hpke::Keypair,
    origin: Endpoint<DnsQuery, Control, AuthOrigin>,
    client_resp_key: KeyId,
    /// Maps query names to subjects for label construction (the target
    /// cannot name users — this is scenario bookkeeping keyed by what the
    /// target *does* see).
    subject_of_query: HashMap<String, UserId>,
    /// Opened queries awaiting the origin, keyed by the proxy that
    /// forwarded them and that proxy's sequence number.
    waiters: BTreeMap<(PeerId, u64), odoh::QueryState>,
    /// Origin-leg sequence numbers → the waiter they answer.
    origin_leg: HopMap<(PeerId, u64)>,
}

impl Target {
    fn subject(&self, msg: &DnsMessage) -> Option<UserId> {
        let q0 = msg.questions.first()?;
        self.subject_of_query.get(&q0.qname.to_string()).copied()
    }
}

impl WireRole for Target {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        if from.index() == self.origin.index() {
            let Ok(resp) = DnsMessage::decode(body) else {
                return;
            };
            // The label names the subject of the answer's own question,
            // so an answer delivered to the wrong client would show up in
            // that client's ledger.
            let Some(user) = self.subject(&resp) else {
                return;
            };
            let Some(waiter) = self.origin_leg.take(seq) else {
                return;
            };
            let Some(state) = self.waiters.remove(&waiter) else {
                return; // a duplicated query's second answer
            };
            ctx.crypto_op("hpke_seal");
            let sealed = odoh::seal_response(ctx.rng, &state, &resp);
            let label = response_label(user, self.client_resp_key);
            let (proxy, pseq) = waiter;
            ctx.send(proxy, WireMsg::response(wire::frame(pseq, &sealed), label));
            return;
        }
        // Encapsulated query via a proxy. Undecryptable (tampered or
        // replayed) queries are dropped, never answered.
        ctx.crypto_op("hpke_decap");
        ctx.crypto_op("hpke_open");
        let Ok((query, state)) = odoh::open_query(&self.kp, body) else {
            return;
        };
        let Some(user) = self.subject(&query) else {
            return;
        };
        let waiter = (from, seq);
        self.waiters.insert(waiter, state);
        let tseq = self.origin_leg.insert(waiter);
        ctx.send_to(
            self.origin,
            WireMsg::data(wire::frame(tseq, &query.encode()), origin_query_label(user)),
        );
    }
}

/// The authoritative origin: answers from its zone, echoing the
/// target's sequence number. Stateless, so a retransmission is simply
/// answered again.
struct Origin {
    zone: Zone,
}

impl WireRole for Origin {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Ok(query) = DnsMessage::decode(body) else {
            return;
        };
        let resp = self.zone.answer(&query);
        // The response repeats the query content back to the asker; it
        // carries no *new* subject information beyond what the query
        // already established, so label it Public.
        ctx.send(
            from,
            WireMsg::response(wire::frame(seq, &resp.encode()), Label::Public),
        );
    }
}

/// Build the ODoH entities, keys and workload into `world`, and the
/// roles over them, ready for either engine; the stats are what the
/// clients measure (answers, latencies, retry linkage). Peer ids: proxy
/// 0, target 1, origin 2, then backup proxies (recovered runs only),
/// then clients.
///
/// The world mutation order is load-bearing: a metrics sink installed
/// on `world` observes entity creation in sequence, and the DST probes
/// are byte-identical across refactors only if the order holds.
pub(crate) fn wiring(
    cfg: &OdohConfig,
    seed: u64,
    mut world: World,
    recover: &RecoverConfig,
) -> (ServeSpec, Arc<Mutex<Stats>>) {
    use rand::SeedableRng;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x0d0a);
    let workload = ZipfWorkload::new(200, 1.0, SUFFIX);

    let isp_org = world.add_org("isp");
    let odns_org = world.add_org("oblivious-operator");
    let auth_org = world.add_org("authoritative");
    let user_org = world.add_org("users");
    let proxy_e = world.add_entity("Resolver", isp_org, None);
    let target_e = world.add_entity("Oblivious Resolver", odns_org, None);
    let origin_e = world.add_entity("Origin", auth_org, None);

    // Backup proxies exist only under recovery: each is an independent
    // operator (own org) so failing over genuinely changes trust, and
    // clients rotate across all of them even in calm runs — a backup
    // that only ever saw failure traffic would accrue knowledge only
    // under faults, breaking the DST's table-equality bar.
    let n_backups = if recover.enabled {
        cfg.backup_proxies
    } else {
        0
    };
    let mut backups = Vec::new();
    for i in 0..n_backups {
        let org = world.add_org(&format!("isp-backup-{}", i + 1));
        backups.push(world.add_entity(&format!("Resolver {}", i + 2), org, None));
    }

    let target_kp = hpke::Keypair::generate(&mut setup_rng);
    // Its table is built by the first query, so building the wiring
    // costs nothing more.
    let target_pk = Arc::new(PreparedKey::new(target_kp.public));

    let mut users = Vec::new();
    let mut clients = Vec::new();
    for i in 0..cfg.clients {
        let u = world.add_user();
        let name = if i == 0 {
            "Client".to_string()
        } else {
            format!("Client {}", i + 1)
        };
        clients.push(world.add_entity(&name, user_org, Some(u)));
        users.push(u);
    }

    // Key capabilities: the target holds its HPKE key; clients hold their
    // response keys. (Clients' own ledgers are seeded directly, so the
    // response KeyId is granted to no third party.)
    let target_key = world.new_key(&[target_e]);
    let client_resp_key = world.new_key(&[]);
    for &e in &clients {
        world.grant_key(e, client_resp_key);
    }

    // Assign each client a disjoint slice of names so the "which subject
    // is this query about" bookkeeping is unambiguous.
    let mut subject_of_query = HashMap::new();
    let mut per_client_queries = Vec::new();
    for (ci, &u) in users.iter().enumerate() {
        let mut qs = Vec::new();
        for k in 0..cfg.queries_each {
            let name = workload.domain((ci * cfg.queries_each + k) % workload.domain_count());
            subject_of_query.insert(name.to_string(), u);
            qs.push(name.clone());
        }
        per_client_queries.push(qs);
    }

    let proxy = |entity, name: String| {
        let target = Endpoint::new(TARGET);
        let role = Proxy {
            target,
            hop: HopMap::new(),
        };
        RoleSpec::of::<ObliviousProxy>(name, entity, Box::new(role))
    };
    let mut roles = vec![
        proxy(proxy_e, "proxy".into()),
        RoleSpec::of::<ObliviousTarget>(
            "target",
            target_e,
            Box::new(Target {
                kp: target_kp.clone(),
                origin: Endpoint::new(ORIGIN),
                client_resp_key,
                subject_of_query,
                waiters: BTreeMap::new(),
                origin_leg: HopMap::new(),
            }),
        ),
        RoleSpec::of::<AuthOrigin>(
            "origin",
            origin_e,
            Box::new(Origin {
                zone: build_zone(&workload),
            }),
        ),
    ];
    let mut proxy_routes = vec![0];
    for (i, &e) in backups.iter().enumerate() {
        proxy_routes.push(roles.len());
        roles.push(proxy(e, format!("proxy-{}", i + 2)));
    }
    let stats = Arc::new(Mutex::new(Stats::new(1)));
    for (ci, ((&user, &e), queries)) in users
        .iter()
        .zip(&clients)
        .zip(per_client_queries)
        .enumerate()
    {
        let name = if ci == 0 {
            "client".to_string()
        } else {
            format!("client-{}", ci + 1)
        };
        let client = Client {
            user,
            target_pk: target_pk.clone(),
            target_key,
            queries,
            next_id: 1,
            arq: ReliableCall::new(recover, derive_seed(seed, 0x0a10 + ci as u64)),
            next_seq: 0,
            failover: Failover::new(proxy_routes.clone(), recover),
            flow: ci as u64,
            inflight: BTreeMap::new(),
            stats: stats.clone(),
        };
        roles.push(RoleSpec::of::<StubClient>(name, e, Box::new(client)));
    }

    let spec = ServeSpec {
        scenario: Odoh::NAME,
        world,
        roles,
        expected_units: (cfg.clients * cfg.queries_each) as u64,
    };
    (spec, stats)
}

/// Host the ODoH roles on the simulator.
pub(super) fn odoh_impl(cfg: &OdohConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
    let (world, harness) = Harness::begin(Odoh::NAME, seed, opts);
    let (spec, stats) = wiring(cfg, seed, world, &opts.recover);
    let users = spec.world.users().to_vec();
    let mut net = harness.network(spec.world, LinkParams::wan_ms(8));
    for role in spec.roles {
        Harness::add_spec(&mut net, role);
    }
    let core = harness.finish(net);
    let stats = stats.lock().expect("no client panicked holding the stats");
    finish_report(core, &stats, users, cfg.clients * cfg.queries_each)
}
