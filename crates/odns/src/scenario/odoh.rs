//! The ODoH wiring, written once as seam roles: clients HPKE-seal
//! queries through proxy → target → origin. [`wiring`] builds the roles
//! over the oblivious world layout it shares with legacy ODNS; the
//! simulator hosts them ([`Odoh`]) and [`crate::serve::odoh_serve_spec`]
//! hands the same roles to `dcp-serve`, so a served run's knowledge
//! tables are byte-comparable to the simulated twin's by construction.
//!
//! ## Sequence numbers on every leg
//!
//! Every leg carries an 8-byte hop-local sequence number
//! (`dcp_runtime::wire` framing), which real sockets need anyway: they
//! interleave, so answers cannot be paired with queries by arrival
//! order. Each hop mints its own numbers and maps them back on the
//! return path — a client-scoped counter forwarded in the clear would
//! hand the target a stable cross-query pseudonym, undoing the
//! decoupling. The proxy re-keys with a [`HopMap`](dcp_runtime::HopMap);
//! the target keys its waiters by `(proxy, proxy seq)`, so backup
//! proxies' numbers never collide, and mints its own numbers for the
//! origin leg. The run's [`RecoverConfig`] only arms the client's
//! retries and adds backup proxies.
//!
//! Every decode on this path is fail-closed: a frame that does not
//! unframe, unseal, or parse is dropped, never answered.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::{
    DataKind, IdentityKind, InfoItem, KeyId, ObsEvent, RecoverConfig, Scenario, UserId, World,
};
use dcp_crypto::hpke;
use dcp_crypto::x25519::PreparedKey;
use dcp_dns::{DnsName, Message as DnsMessage, RrType};
use dcp_runtime::seam::{lock, PeerId, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole};
use dcp_runtime::{wire, Attempt, Control, Endpoint, Failover, ReliableCall, TimerVerdict};

use super::{
    answered, envelope_label, nth, oblivious_world, Envelope, Odoh, OdohConfig, Origin, Proxy,
    Stats, Target,
};
use crate::odoh;
use crate::types::{AuthOrigin, ObliviousProxy, ObliviousTarget, SealedQuery, StubClient};

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
    /// Per-request ARQ: numbers every request, and arms deadlines and
    /// retries under recovery only.
    arq: ReliableCall,
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
        let att = self.arq.open();
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
        lock(&self.stats)
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
        answered(&self.stats, ctx, call.sent_at);
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

/// ODoH's envelope (RFC 9230): the query is HPKE-sealed to the target's
/// key, and the answer is sealed under a key both ends derive from that
/// query's HPKE context.
struct Hpke(hpke::Keypair);

impl Envelope for Hpke {
    type Waiter = odoh::QueryState;

    fn open(&self, ctx: &mut WireCtx, body: &[u8]) -> Option<(DnsMessage, odoh::QueryState)> {
        ctx.crypto_op("hpke_decap");
        ctx.crypto_op("hpke_open");
        odoh::open_query(&self.0, body).ok()
    }

    fn seal(
        &self,
        ctx: &mut WireCtx,
        state: odoh::QueryState,
        resp: &DnsMessage,
    ) -> Option<Vec<u8>> {
        ctx.crypto_op("hpke_seal");
        Some(odoh::seal_response(ctx.rng, &state, resp))
    }
}

/// Build the ODoH roles over the oblivious world layout, ready for
/// either engine; the stats are what the clients measure (answers,
/// latencies, retry linkage). Peer ids: proxy 0, target 1, origin 2,
/// then backup proxies (recovered runs only), then clients.
pub(crate) fn wiring(
    cfg: &OdohConfig,
    seed: u64,
    world: World,
    recover: &RecoverConfig,
) -> (ServeSpec, Arc<Mutex<Stats>>) {
    // Backup proxies exist only under recovery, and clients rotate
    // across all of them even in calm runs — a backup that only ever saw
    // failure traffic would accrue knowledge only under faults, breaking
    // the DST's table-equality bar.
    let backups = if recover.enabled {
        cfg.backup_proxies
    } else {
        0
    };
    let w = oblivious_world(world, seed, cfg.clients, cfg.queries_each, backups);
    // Its table is built by the first query, so building the wiring
    // costs nothing more.
    let target_pk = Arc::new(PreparedKey::new(w.target_kp.public));

    let mut roles = vec![
        Proxy::spec("proxy".into(), w.proxy),
        RoleSpec::of::<ObliviousTarget>(
            "target",
            w.target,
            Box::new(Target::new(
                Hpke(w.target_kp),
                w.client_resp_key,
                w.subjects,
            )),
        ),
        RoleSpec::of::<AuthOrigin>("origin", w.origin, Box::new(Origin { zone: w.zone })),
    ];
    let mut proxy_routes = vec![0];
    for (i, &e) in w.backups.iter().enumerate() {
        proxy_routes.push(roles.len());
        roles.push(Proxy::spec(nth("proxy", '-', i + 1), e));
    }
    let stats = Stats::shared(1);
    for (ci, ((&user, &e), queries)) in w.users.iter().zip(&w.clients).zip(w.queries).enumerate() {
        let client = Client {
            user,
            target_pk: target_pk.clone(),
            target_key: w.target_key,
            queries,
            next_id: 1,
            arq: ReliableCall::new(recover, derive_seed(seed, 0x0a10 + ci as u64)),
            failover: Failover::new(proxy_routes.clone(), recover),
            flow: ci as u64,
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
        scenario: Odoh::NAME,
        world: w.world,
        roles,
        expected_units: (cfg.clients * cfg.queries_each) as u64,
        taps: Vec::new(),
    };
    (spec, stats)
}
