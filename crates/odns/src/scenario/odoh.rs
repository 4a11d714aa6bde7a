//! The ODoH wiring: clients HPKE-seal queries through proxy → target →
//! origin.
//!
//! The client here is the one wiring in the workspace that does *not*
//! ride [`dcp_runtime::Driver`]'s canonical timer loop: its retry path
//! interleaves the circuit breaker (quarantine → retry → failover
//! observations, in that order) with the attempt, so it drives the raw
//! [`TimerVerdict`]s the runtime re-exports for exactly this purpose.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcp_core::sweep::derive_seed;
use dcp_core::{
    DataKind, EntityId, IdentityKind, InfoItem, Label, RecoverConfig, RunOptions, Scenario, UserId,
};
use dcp_crypto::hpke;
use dcp_dns::workload::ZipfWorkload;
use dcp_dns::{DnsName, Message as DnsMessage, RrType};
use dcp_runtime::{
    emit_failover, emit_give_up, emit_quarantine, emit_retry, wire, Attempt, Control, Ctx,
    Endpoint, Failover, Harness, HopMap, LinkParams, Message, Node, NodeId, ReliableCall, SimTime,
    TimerVerdict, TypedSend,
};

use super::{assemble, build_zone, Odoh, OdohConfig, OriginNode, ScenarioReport, Stats, SUFFIX};
use crate::odoh;
use crate::types::{
    AuthOrigin, DnsQuery, ObliviousProxy, ObliviousQuery, ObliviousTarget, SealedQuery, StubClient,
};

/// The client's envelope label, shared verbatim by the simulated wiring
/// and the `dcp serve` twin (`crate::serve`): knowledge tables are a
/// function of labels and key grants, so sharing the builders is what
/// makes the two runs byte-comparable.
///
/// Outer envelope: the proxy knows the client (▲_N) and that a DNS query
/// happened (⊙). Inner seal: the target reads the query content (⊙/●) of
/// an anonymous user (△).
pub(crate) fn envelope_label(user: UserId, target_key: dcp_core::KeyId) -> Label {
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

/// The target's response label: sealed under the response key that the
/// client and the target derive from the query's HPKE context —
/// intermediaries learn nothing; the client learns its own answer (●,
/// which it is entitled to). The target derives that key too, but it
/// sends the response and already knows the answer, so the `KeyId` is
/// granted to clients only.
pub(crate) fn response_label(user: UserId, client_resp_key: dcp_core::KeyId) -> Label {
    Label::items([InfoItem::sensitive_data(user, DataKind::DnsQuery)]).sealed(client_resp_key)
}

/// The target→origin label: a plaintext recursive query — the origin
/// sees the query (●) from the resolver's address (△).
pub(crate) fn origin_query_label(user: UserId) -> Label {
    Label::items([
        InfoItem::plain_identity(user, IdentityKind::Any),
        InfoItem::sensitive_data(user, DataKind::DnsQuery),
    ])
}

struct OdohClient {
    entity: EntityId,
    user: UserId,
    proxy: Endpoint<SealedQuery, Control, ObliviousProxy>,
    target_pk: [u8; 32],
    target_key: dcp_core::KeyId,
    queries: Vec<DnsName>,
    state: Option<odoh::QueryState>,
    stats: Rc<RefCell<Stats>>,
    sent_at: SimTime,
    next_id: u16,
    /// Per-request ARQ (inert when the run's recovery is disabled).
    arq: ReliableCall,
    /// Proxy routes (primary + backups) with the circuit breaker.
    failover: Failover,
    /// RetryLinkage flow id (the client index).
    flow: u64,
    /// Open reliable calls, keyed by ARQ sequence number.
    inflight: BTreeMap<u64, OdohInflight>,
}

struct OdohInflight {
    name: DnsName,
    state: odoh::QueryState,
    route_ordinal: usize,
    sent_at: SimTime,
}

impl OdohClient {
    fn envelope_label(&self) -> Label {
        envelope_label(self.user, self.target_key)
    }

    /// Seal `q` to the target: one HPKE encapsulation and one seal on
    /// the fresh context, counted the way `vpn` counts a session setup.
    fn seal(&self, ctx: &mut Ctx, q: &DnsMessage) -> (Vec<u8>, odoh::QueryState) {
        ctx.world.crypto_op("hpke_encap");
        ctx.world.crypto_op("hpke_seal");
        odoh::seal_query(ctx.rng, &self.target_pk, q).expect("seal")
    }

    fn send_next(&mut self, ctx: &mut Ctx) {
        let Some(name) = self.queries.pop() else {
            return;
        };
        if self.arq.enabled() {
            let att = self.arq.begin().expect("enabled ARQ always begins");
            let sent_at = ctx.now;
            self.transmit(ctx, name, sent_at, att);
            return;
        }
        let q = DnsMessage::query(self.next_id, name, RrType::A);
        self.next_id = self.next_id.wrapping_add(1);
        let (sealed, state) = self.seal(ctx, &q);
        self.state = Some(state);
        self.sent_at = ctx.now;
        let label = self.envelope_label();
        ctx.send_to(self.proxy, Message::new(sealed, label));
    }

    /// One (re)transmission of reliable call `att.seq`: a *fresh* HPKE
    /// encapsulation every attempt (re-randomized retransmission — a
    /// replayed ciphertext would let any on-path observer link the
    /// attempts), framed with the ARQ sequence number outside the
    /// ciphertext, routed by the failover's deterministic choice.
    fn transmit(&mut self, ctx: &mut Ctx, name: DnsName, sent_at: SimTime, att: Attempt) {
        let q = DnsMessage::query(self.next_id, name.clone(), RrType::A);
        self.next_id = self.next_id.wrapping_add(1);
        let (sealed, state) = self.seal(ctx, &q);
        let pick = self
            .failover
            .route_for(att.seq, att.attempt, ctx.now.as_us());
        self.stats
            .borrow_mut()
            .linkage
            .record(self.flow, att.seq, att.attempt, &sealed);
        self.inflight.insert(
            att.seq,
            OdohInflight {
                name,
                state,
                route_ordinal: pick.ordinal,
                sent_at,
            },
        );
        let label = self.envelope_label();
        // Failover picks among the proxies dynamically; every route plays
        // the same role, so the typed endpoint is built from the pick.
        ctx.send_to(
            Endpoint::<SealedQuery, Control, ObliviousProxy>::new(pick.node),
            Message::new(wire::frame(att.seq, &sealed), label),
        );
        ctx.set_timer(att.timer_delay_us, att.token);
    }
}

// The target_key field is injected at construction; declared separately to
// keep send_next readable.
impl OdohClient {
    #[allow(clippy::too_many_arguments)]
    fn new(
        entity: EntityId,
        user: UserId,
        proxy: Endpoint<SealedQuery, Control, ObliviousProxy>,
        target_pk: [u8; 32],
        target_key: dcp_core::KeyId,
        queries: Vec<DnsName>,
        stats: Rc<RefCell<Stats>>,
        recover: &RecoverConfig,
        proxy_routes: &[NodeId],
        jitter_seed: u64,
        flow: u64,
    ) -> Self {
        OdohClient {
            entity,
            user,
            proxy,
            target_pk,
            queries,
            state: None,
            stats,
            sent_at: SimTime::ZERO,
            next_id: 1,
            target_key,
            arq: ReliableCall::new(recover, jitter_seed),
            failover: Failover::new(proxy_routes.iter().map(|n| n.0).collect(), recover),
            flow,
            inflight: BTreeMap::new(),
        }
    }
}

impl Node for OdohClient {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.world.record(
            self.entity,
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
        );
        ctx.world.record(
            self.entity,
            InfoItem::sensitive_data(self.user, DataKind::DnsQuery),
        );
        self.send_next(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.arq.on_timer(token) {
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => {
                let Some(entry) = self.inflight.get(&att.seq) else {
                    return;
                };
                let (name, sent_at, prev) =
                    (entry.name.clone(), entry.sent_at, entry.route_ordinal);
                if let Some(until) = self.failover.report_failure(prev, ctx.now.as_us()) {
                    emit_quarantine(ctx.world, ctx.id().0, self.failover.route(prev), until);
                }
                emit_retry(ctx.world, ctx.id().0, att.seq, att.attempt);
                let pick = self
                    .failover
                    .route_for(att.seq, att.attempt, ctx.now.as_us());
                if pick.ordinal != prev {
                    emit_failover(
                        ctx.world,
                        ctx.id().0,
                        att.seq,
                        self.failover.route(prev),
                        pick.node,
                    );
                }
                self.transmit(ctx, name, sent_at, att);
            }
            TimerVerdict::Exhausted { seq, attempts } => {
                emit_give_up(ctx.world, ctx.id().0, seq, attempts);
                self.inflight.remove(&seq);
                self.send_next(ctx);
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, msg: Message) {
        if self.arq.enabled() {
            // Framed response: the echoed sequence number selects which
            // call's state to open against, so late responses to an
            // earlier query can never clobber a newer one.
            let Some((seq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            let Some(entry) = self.inflight.get(&seq) else {
                return;
            };
            ctx.world.crypto_op("hpke_open");
            let Ok(resp) = odoh::open_response(&entry.state, body) else {
                return; // a response to a superseded attempt fails to open
            };
            if !resp.is_response {
                return;
            }
            if !self.arq.complete(seq) {
                return; // duplicated response: counted exactly once
            }
            self.failover.report_success(entry.route_ordinal);
            let sent_at = entry.sent_at;
            ctx.world.span("query", sent_at.as_us(), ctx.now.as_us());
            self.inflight.remove(&seq);
            let mut stats = self.stats.borrow_mut();
            stats.answered += 1;
            stats.latencies.push(ctx.now - sent_at);
            drop(stats);
            self.send_next(ctx);
            return;
        }
        // Only consume the in-flight state once a response actually opens
        // against it — duplicated or stale deliveries must not clobber a
        // newer query's state.
        let Some(state) = self.state.as_ref() else {
            return;
        };
        ctx.world.crypto_op("hpke_open");
        let Ok(resp) = odoh::open_response(state, &msg.bytes) else {
            return;
        };
        if !resp.is_response {
            return;
        }
        self.state = None;
        ctx.world
            .span("query", self.sent_at.as_us(), ctx.now.as_us());
        let mut stats = self.stats.borrow_mut();
        stats.answered += 1;
        stats.latencies.push(ctx.now - self.sent_at);
        drop(stats);
        self.send_next(ctx);
    }
}

struct ProxyNode {
    entity: EntityId,
    target: Endpoint<ObliviousQuery, Control, ObliviousTarget>,
    /// Pending client per in-flight query (FIFO per arrival;
    /// recovery-disabled path only).
    pending: Vec<NodeId>,
    /// Is the run's recovery layer on (same [`RunOptions`] every node)?
    recover: bool,
    /// Recovery path: hop-local sequence per forwarded query. The proxy
    /// must not forward the client's own counter — a client-scoped
    /// counter in the clear would hand the target a stable cross-query
    /// pseudonym, undoing the decoupling.
    hop: HopMap<(NodeId, u64)>,
}

impl Node for ProxyNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if from.0 == self.target.index() {
            if self.recover {
                // The target echoed the proxy's hop-local number: map it
                // back to (client, client seq) and re-frame. A duplicated
                // response finds its entry consumed and is dropped.
                let Some((pseq, body)) = wire::unframe(&msg.bytes) else {
                    return;
                };
                let Some((client, cseq)) = self.hop.take(pseq) else {
                    return;
                };
                let framed = wire::frame(cseq, body);
                ctx.send(client, Message::new(framed, msg.label));
                return;
            }
            // Response going back: forward to the waiting client. A
            // duplicated response with no waiter is dropped.
            let Some(client) = self.pending.pop() else {
                return;
            };
            ctx.send(client, msg);
        } else {
            // Strip the client-identifying envelope: the target sees only
            // the sealed inner part plus an anonymous-aggregate marker.
            let inner = match &msg.label {
                Label::Bundle(parts) if parts.len() == 2 => parts[1].clone(),
                other => other.clone(),
            };
            if self.recover {
                let Some((cseq, body)) = wire::unframe(&msg.bytes) else {
                    return;
                };
                let pseq = self.hop.insert((from, cseq));
                let framed = wire::frame(pseq, body);
                ctx.send_to(self.target, Message::new(framed, inner));
                return;
            }
            self.pending.insert(0, from);
            ctx.send_to(self.target, Message::new(msg.bytes, inner));
        }
    }
}

struct TargetNode {
    entity: EntityId,
    kp: hpke::Keypair,
    origin: Endpoint<DnsQuery, Control, AuthOrigin>,
    client_resp_key: dcp_core::KeyId,
    /// (proxy node, query state, subject) awaiting origin answers
    /// (FIFO; recovery-disabled path only).
    pending: Vec<(NodeId, odoh::QueryState, UserId)>,
    /// Maps query names to subjects for label construction (the target
    /// cannot name users — this is scenario bookkeeping keyed by what the
    /// target *does* see).
    subject_of_query: std::collections::HashMap<String, UserId>,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: awaiting origin answers keyed by the hop-local
    /// sequence (echoed by the origin), so drops between target and
    /// origin can never mispair a late answer with the wrong waiter.
    pending_by_seq: BTreeMap<u64, (NodeId, odoh::QueryState, UserId)>,
}

impl Node for TargetNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if from.0 == self.origin.index() {
            let (seq, body) = if self.recover {
                match wire::unframe(&msg.bytes) {
                    Some((s, b)) => (Some(s), b),
                    None => return,
                }
            } else {
                (None, &msg.bytes[..])
            };
            let Ok(resp) = DnsMessage::decode(body) else {
                return;
            };
            let waiter = match seq {
                Some(s) => self.pending_by_seq.remove(&s),
                None => self.pending.pop(),
            };
            let Some((proxy, state, user)) = waiter else {
                return; // duplicated origin answer: nothing awaits it
            };
            ctx.world.crypto_op("hpke_seal");
            let sealed = odoh::seal_response(ctx.rng, &state, &resp);
            let label = response_label(user, self.client_resp_key);
            let bytes = match seq {
                Some(s) => wire::frame(s, &sealed),
                None => sealed,
            };
            ctx.send(proxy, Message::new(bytes, label));
            return;
        }
        // Encapsulated query from the proxy. Undecryptable (tampered or
        // duplicated-and-replayed) queries are dropped, never answered.
        let (seq, body) = if self.recover {
            match wire::unframe(&msg.bytes) {
                Some((s, b)) => (Some(s), b),
                None => return,
            }
        } else {
            (None, &msg.bytes[..])
        };
        ctx.world.crypto_op("hpke_decap");
        ctx.world.crypto_op("hpke_open");
        let Ok((query, state)) = odoh::open_query(&self.kp, body) else {
            return;
        };
        let Some(q0) = query.questions.first() else {
            return;
        };
        let qname = q0.qname.to_string();
        let Some(&user) = self.subject_of_query.get(&qname) else {
            return;
        };
        match seq {
            Some(s) => {
                self.pending_by_seq.insert(s, (from, state, user));
            }
            None => self.pending.insert(0, (from, state, user)),
        }
        let label = origin_query_label(user);
        let bytes = match seq {
            Some(s) => wire::frame(s, &query.encode()),
            None => query.encode(),
        };
        ctx.send_to(self.origin, Message::new(bytes, label));
    }
}

/// The clients' response key (one `KeyId` stands for "keys only clients
/// hold"); stored on the node for label construction.
impl TargetNode {
    fn new(
        entity: EntityId,
        kp: hpke::Keypair,
        origin: Endpoint<DnsQuery, Control, AuthOrigin>,
        client_resp_key: dcp_core::KeyId,
        subject_of_query: std::collections::HashMap<String, UserId>,
        recover: bool,
    ) -> Self {
        TargetNode {
            entity,
            kp,
            origin,
            pending: Vec::new(),
            subject_of_query,
            client_resp_key,
            recover,
            pending_by_seq: BTreeMap::new(),
        }
    }
}

/// Everything the ODoH wiring derives before any node exists: entities,
/// keys, the target keypair, and the per-client workload. Installed into
/// a [`dcp_core::World`] by [`plan_world`], which both the simulated
/// wiring and the `dcp serve` twin (`crate::serve`) call — the exact
/// same sequence of world mutations is what makes the two runs'
/// knowledge tables byte-comparable.
pub(crate) struct OdohPlan {
    pub(crate) proxy_e: EntityId,
    pub(crate) target_e: EntityId,
    pub(crate) origin_e: EntityId,
    pub(crate) backup_entities: Vec<EntityId>,
    pub(crate) target_kp: hpke::Keypair,
    pub(crate) users: Vec<UserId>,
    pub(crate) client_entities: Vec<EntityId>,
    pub(crate) target_key: dcp_core::KeyId,
    pub(crate) client_resp_key: dcp_core::KeyId,
    pub(crate) subject_of_query: std::collections::HashMap<String, UserId>,
    pub(crate) per_client_queries: Vec<Vec<DnsName>>,
    pub(crate) zone: dcp_dns::Zone,
}

/// Install the ODoH entity/key/workload layout into `world`.
///
/// The mutation order is load-bearing twice over: the sim run's metrics
/// sink observes entity creation in sequence (the DST probes are
/// byte-identical across refactors only if the order holds), and the
/// serve twin relies on producing the *same* entity and key ids.
pub(crate) fn plan_world(
    world: &mut dcp_core::World,
    cfg: &OdohConfig,
    seed: u64,
    recover_on: bool,
) -> OdohPlan {
    use rand::SeedableRng;
    let (n_clients, queries_each) = (cfg.clients, cfg.queries_each);
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x0d0a);
    let workload = ZipfWorkload::new(200, 1.0, SUFFIX);
    let zone = build_zone(&workload);

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
    let n_backups = if recover_on { cfg.backup_proxies } else { 0 };
    let mut backup_entities = Vec::new();
    for i in 0..n_backups {
        let org = world.add_org(&format!("isp-backup-{}", i + 1));
        backup_entities.push(world.add_entity(&format!("Resolver {}", i + 2), org, None));
    }

    let target_kp = hpke::Keypair::generate(&mut setup_rng);

    let mut users = Vec::new();
    let mut client_entities = Vec::new();
    for i in 0..n_clients {
        let u = world.add_user();
        let name = if i == 0 {
            "Client".to_string()
        } else {
            format!("Client {}", i + 1)
        };
        client_entities.push(world.add_entity(&name, user_org, Some(u)));
        users.push(u);
    }

    // Key capabilities: the target holds its HPKE key; clients hold their
    // response keys. (Clients' own ledgers are seeded directly, so the
    // response KeyId is granted to no third party.)
    let target_key = world.new_key(&[target_e]);
    let client_resp_key = world.new_key(&[]);

    // Assign each client a disjoint slice of names so the "which subject
    // is this query about" bookkeeping is unambiguous.
    let mut subject_of_query = std::collections::HashMap::new();
    let mut per_client_queries: Vec<Vec<DnsName>> = Vec::new();
    for (ci, &u) in users.iter().enumerate() {
        let mut qs = Vec::new();
        for k in 0..queries_each {
            let name = workload.domain((ci * queries_each + k) % workload.domain_count());
            subject_of_query.insert(name.to_string(), u);
            qs.push(name.clone());
        }
        per_client_queries.push(qs);
    }

    OdohPlan {
        proxy_e,
        target_e,
        origin_e,
        backup_entities,
        target_kp,
        users,
        client_entities,
        target_key,
        client_resp_key,
        subject_of_query,
        per_client_queries,
        zone,
    }
}

pub(super) fn odoh_impl(cfg: &OdohConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
    let (n_clients, queries_each) = (cfg.clients, cfg.queries_each);
    let (mut world, harness) = Harness::begin(Odoh::NAME, seed, opts);
    let recover_on = opts.recover.enabled;
    let OdohPlan {
        proxy_e,
        target_e,
        origin_e,
        backup_entities,
        target_kp,
        users,
        client_entities,
        target_key,
        client_resp_key,
        subject_of_query,
        per_client_queries,
        zone,
    } = plan_world(&mut world, cfg, seed, recover_on);

    let stats = Rc::new(RefCell::new(Stats::new(1)));

    let mut net = harness.network(world, LinkParams::wan_ms(8));

    let proxy_id: Endpoint<SealedQuery, Control, ObliviousProxy> = Endpoint::new(0);
    let target_id: Endpoint<ObliviousQuery, Control, ObliviousTarget> = Endpoint::new(1);
    let origin_id: Endpoint<DnsQuery, Control, AuthOrigin> = Endpoint::new(2);
    Harness::add_role::<ObliviousProxy>(
        &mut net,
        Box::new(ProxyNode {
            entity: proxy_e,
            target: target_id,
            pending: Vec::new(),
            recover: recover_on,
            hop: HopMap::new(),
        }),
    );
    Harness::add_role::<ObliviousTarget>(
        &mut net,
        Box::new(TargetNode::new(
            target_e,
            target_kp.clone(),
            origin_id,
            client_resp_key,
            subject_of_query,
            recover_on,
        )),
    );
    Harness::add_role::<AuthOrigin>(
        &mut net,
        Box::new(OriginNode {
            entity: origin_e,
            zone,
            recover: recover_on,
        }),
    );
    let mut proxy_routes = vec![NodeId(proxy_id.index())];
    for &e in backup_entities.iter() {
        let id = Harness::add_role::<ObliviousProxy>(
            &mut net,
            Box::new(ProxyNode {
                entity: e,
                target: target_id,
                pending: Vec::new(),
                recover: recover_on,
                hop: HopMap::new(),
            }),
        );
        proxy_routes.push(id);
    }
    for (ci, ((&u, &e), queries)) in users
        .iter()
        .zip(client_entities.iter())
        .zip(per_client_queries)
        .enumerate()
    {
        Harness::add_role::<StubClient>(
            &mut net,
            Box::new(OdohClient::new(
                e,
                u,
                proxy_id,
                target_kp.public,
                target_key,
                queries,
                stats.clone(),
                &opts.recover,
                &proxy_routes,
                derive_seed(seed, 0x0a10 + ci as u64),
                ci as u64,
            )),
        );
    }
    // Grant clients their response key so their observations decrypt.
    for &e in &client_entities {
        net.world_mut().grant_key(e, client_resp_key);
    }

    assemble(harness, net, stats, users, n_clients * queries_each)
}
