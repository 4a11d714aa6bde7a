//! VPN and ECH scenarios with a passive network observer.

use std::cell::RefCell;
use std::rc::Rc;

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, EntityId, FaultLog, IdentityKind, InfoItem, KeyId, Label, MetricsReport, RunOptions,
    Scenario, UserId, World,
};
use dcp_crypto::hpke;
use dcp_runtime::seam::Registration;
use dcp_runtime::{
    mean_us, wire, Attempt, CallEvent, Control, Ctx, Driver, Endpoint, Harness, HopMap, LinkParams,
    Message, Node, NodeId, RetryLinkage, SimTime, Tap, Trace, TypedSend,
};

use crate::types::{
    ech_declared_caps, vpn_declared_caps, Browser, EchHello, HttpRequest, Origin, Subscriber,
    TlsTerminator, TunnelReq, TunnelServer,
};

const REQUEST: &[u8] = b"GET /account/medical-records HTTP/1.1";

// ------------------------------------------------------------------ VPN --

/// Result of the VPN scenario.
pub struct VpnReport {
    /// Knowledge base.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// Completed fetches.
    pub completed: usize,
    /// Mean fetch latency (µs).
    pub mean_fetch_us: f64,
    /// The users.
    pub users: Vec<UserId>,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (`users × fetches_each`).
    pub expected: u64,
    /// Retry-linkage violations: attempts of one fetch an observer could
    /// correlate by ciphertext equality (empty is the pass).
    pub retry_linkage: Vec<String>,
}

impl dcp_core::ScenarioReport for VpnReport {
    fn world(&self) -> &World {
        &self.world
    }
    fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }
    fn metrics(&self) -> &MetricsReport {
        &self.metrics
    }
    fn packets(&self) -> usize {
        self.trace.len()
    }
    fn completed_units(&self) -> u64 {
        self.completed as u64
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

/// Config for the [`Vpn`] scenario.
#[derive(Clone, Debug)]
pub struct VpnConfig {
    /// Number of subscriber clients.
    pub users: usize,
    /// Fetches per client.
    pub fetches_each: usize,
}

impl Default for VpnConfig {
    fn default() -> Self {
        VpnConfig {
            users: 1,
            fetches_each: 2,
        }
    }
}

impl VpnConfig {
    /// `users` clients completing `fetches_each` fetches each.
    pub fn new(users: usize, fetches_each: usize) -> Self {
        VpnConfig {
            users,
            fetches_each,
        }
    }

    /// Set the client count.
    pub fn users(mut self, users: usize) -> Self {
        self.users = users;
        self
    }

    /// Set the per-client fetch count.
    pub fn fetches_each(mut self, fetches_each: usize) -> Self {
        self.fetches_each = fetches_each;
        self
    }
}

/// §3.3 trusted-intermediary VPN: the tunnel hides traffic from the
/// network but the server itself re-couples identity and destination.
pub struct Vpn;

impl Scenario for Vpn {
    type Config = VpnConfig;
    type Report = VpnReport;
    const NAME: &'static str = "vpn";

    fn run_with(cfg: &VpnConfig, seed: u64, opts: &RunOptions) -> VpnReport {
        run_vpn_impl(cfg, seed, opts)
    }
}

impl Vpn {
    /// Three users fetching twice each through the tunnel. The VPN is
    /// the paper's cautionary tale, coupled in its calm run, and the DST
    /// battery's safety check is baseline-relative: faults must couple
    /// no one new (the network observer, say), while the server's
    /// existing coupling is not charged to them.
    pub const REGISTRATION: Registration = Registration {
        name: Vpn::NAME,
        run: |seed, opts| Box::new(Vpn::run_with(&VpnConfig::new(3, 2), seed, opts)),
        declared_caps: vpn_declared_caps,
        serve: None,
    };
}

impl VpnReport {
    /// Derive the §3.3 table for user `i`.
    pub fn table(&self, i: usize) -> DecouplingTable {
        DecouplingTable::derive(
            &self.world,
            self.users[i],
            &["Client", "VPN Server", "Origin"],
        )
    }

    /// The paper's table.
    pub fn paper_table() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("Client", "(▲, ●)"),
            ("VPN Server", "(▲, ●)"),
            ("Origin", "(△, ●)"),
        ])
    }
}

struct VpnStats {
    completed: usize,
    latencies: Vec<u64>,
    /// Retry-linkage check fed by every transmitted tunnel ciphertext.
    linkage: RetryLinkage,
}

/// First byte of a tunnel message when session reuse is on: this
/// message opens a session and carries `enc ‖ ct`.
const SESSION_INIT: u8 = 0x01;
/// First byte of a follow-up message on an open session: `ct` only.
const SESSION_CONT: u8 = 0x02;

struct VpnClient {
    entity: EntityId,
    user: UserId,
    /// The tunnel endpoint: sending here is the typed claim that the VPN
    /// server may see `(▲, ●)` — which compiles only because
    /// [`TunnelServer`] declares itself coupled by design.
    vpn: Endpoint<TunnelReq, Control, TunnelServer>,
    vpn_pk: [u8; 32],
    vpn_key: KeyId,
    fetches_left: usize,
    stats: Rc<RefCell<VpnStats>>,
    sent_at: SimTime,
    /// Per-request reliable-call driver (inert when recovery is
    /// disabled), remembering each fetch's send time. No failover list:
    /// the scenario's whole point is the single trusted hop.
    calls: Driver<SimTime>,
    flow: u64,
    /// HPKE session reuse: one encapsulation, many seals. Only safe when
    /// the recovery layer is off — a reused context would let an on-path
    /// observer link retransmitted attempts of one fetch (the PR-4
    /// `RetryLinkage` invariant), so [`run_vpn_impl`] gates it on
    /// `!recover && !faults`.
    reuse: bool,
    /// The open sender context, once the first fetch has encapsulated.
    tx: Option<hpke::Context>,
}

impl VpnClient {
    fn tunnel_label(&self) -> Label {
        // The tunnel protects the request from the *network*, but the VPN
        // terminates it: the server decrypts and sees destination + content
        // (●) bound to the subscriber's address/account (▲).
        Label::items([InfoItem::sensitive_identity(self.user, IdentityKind::Any)]).and(
            Label::items([InfoItem::sensitive_data(self.user, DataKind::Destination)])
                .sealed(self.vpn_key),
        )
    }

    fn fetch(&mut self, ctx: &mut Ctx) {
        if let Some(att) = self.calls.begin(ctx.now) {
            self.transmit(ctx, att);
            return;
        }
        self.sent_at = ctx.now;
        let sealed = if self.reuse {
            match &mut self.tx {
                // First fetch: encapsulate once, open the session.
                None => {
                    ctx.world.crypto_op("hpke_encap");
                    let (enc, mut tx) =
                        hpke::setup_base_s(ctx.rng, &self.vpn_pk, b"vpn").expect("encap");
                    ctx.world.crypto_op("hpke_seal");
                    let ct = tx.seal(b"", REQUEST);
                    self.tx = Some(tx);
                    let mut bytes = Vec::with_capacity(1 + enc.len() + ct.len());
                    bytes.push(SESSION_INIT);
                    bytes.extend_from_slice(&enc);
                    bytes.extend_from_slice(&ct);
                    bytes
                }
                // Later fetches ride the open session: seal only, no KEM.
                Some(tx) => {
                    ctx.world.crypto_op("hpke_seal");
                    let ct = tx.seal(b"", REQUEST);
                    let mut bytes = Vec::with_capacity(1 + ct.len());
                    bytes.push(SESSION_CONT);
                    bytes.extend_from_slice(&ct);
                    bytes
                }
            }
        } else {
            ctx.world.crypto_op("hpke_seal");
            hpke::seal(ctx.rng, &self.vpn_pk, b"vpn", b"", REQUEST).expect("seal")
        };
        let label = self.tunnel_label();
        ctx.send_to(self.vpn, Message::new(sealed, label));
    }

    /// One (re)transmission of reliable call `att.seq`: a *fresh* HPKE
    /// encapsulation every attempt, so no on-path observer can link two
    /// attempts of the same fetch by ciphertext equality.
    fn transmit(&mut self, ctx: &mut Ctx, att: Attempt) {
        ctx.world.crypto_op("hpke_seal");
        let sealed = hpke::seal(ctx.rng, &self.vpn_pk, b"vpn", b"", REQUEST).expect("seal");
        self.stats
            .borrow_mut()
            .linkage
            .record(self.flow, att.seq, att.attempt, &sealed);
        let label = self.tunnel_label();
        self.calls.transmit(ctx, self.vpn, &att, &sealed, label);
    }

    fn fetch_done(&mut self, ctx: &mut Ctx) {
        if self.fetches_left > 1 {
            self.fetches_left -= 1;
            self.fetch(ctx);
        }
    }
}

impl Node for VpnClient {
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
            InfoItem::sensitive_data(self.user, DataKind::Destination),
        );
        self.fetch(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.calls.on_timer(ctx, token) {
            CallEvent::App(_) | CallEvent::Ignored => {}
            CallEvent::Retry(att) => self.transmit(ctx, att),
            CallEvent::Exhausted { .. } => self.fetch_done(ctx),
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, msg: Message) {
        if self.calls.enabled() {
            let Some((seq, _body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            let Some(sent_at) = self.calls.complete(seq) else {
                return; // duplicated response: counted exactly once
            };
            ctx.world.span("fetch", sent_at.as_us(), ctx.now.as_us());
            let mut s = self.stats.borrow_mut();
            s.completed += 1;
            s.latencies.push(ctx.now - sent_at);
            drop(s);
            self.fetch_done(ctx);
            return;
        }
        ctx.world
            .span("fetch", self.sent_at.as_us(), ctx.now.as_us());
        let mut s = self.stats.borrow_mut();
        s.completed += 1;
        s.latencies.push(ctx.now - self.sent_at);
        drop(s);
        self.fetch_done(ctx);
    }
}

struct VpnServer {
    entity: EntityId,
    kp: hpke::Keypair,
    /// The egress endpoint: the proxied request is admitted by the
    /// origin's default `(△, ●)` service cap.
    origin: Endpoint<HttpRequest, Control, Origin>,
    back: Vec<(NodeId, UserId)>,
    node_user: Vec<(NodeId, UserId)>,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: hop-local sequence per proxied request. Forwarding
    /// the subscriber's own counter to the origin would hand it a stable
    /// cross-fetch pseudonym; the tunnel terminator re-keys instead.
    hop: HopMap<(NodeId, u64)>,
    /// Mirrors the clients' session-reuse gate.
    reuse: bool,
    /// Open receiver contexts, one per subscriber link (`BTreeMap` keeps
    /// iteration — and therefore any future draining — deterministic).
    rx: std::collections::BTreeMap<NodeId, hpke::Context>,
}

impl Node for VpnServer {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if from.0 == self.origin.index() {
            if self.recover {
                let Some((pseq, body)) = wire::unframe(&msg.bytes) else {
                    return;
                };
                let Some((client, cseq)) = self.hop.take(pseq) else {
                    return; // duplicated response: consumed-once fails closed
                };
                ctx.send(client, Message::new(wire::frame(cseq, body), msg.label));
                return;
            }
            let Some((client, _)) = self.back.pop() else {
                return; // duplicated response: no back-route left
            };
            ctx.send(client, msg);
            return;
        }
        // Fail closed: traffic that does not decrypt under the tunnel key,
        // or from an unknown peer, is dropped — never proxied onward.
        let (cseq, sealed) = if self.recover {
            let Some((cseq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            (Some(cseq), body.to_vec())
        } else {
            (None, msg.bytes)
        };
        let req = if self.reuse {
            // Fail closed: unknown discriminators, truncated initiations,
            // and continuations without an open session are all dropped.
            match sealed.split_first() {
                Some((&SESSION_INIT, rest)) if rest.len() >= hpke::ENC_LEN => {
                    ctx.world.crypto_op("hpke_decap");
                    let mut enc = [0u8; hpke::ENC_LEN];
                    enc.copy_from_slice(&rest[..hpke::ENC_LEN]);
                    let Ok(mut rx) = hpke::setup_base_r(&enc, &self.kp, b"vpn") else {
                        return;
                    };
                    ctx.world.crypto_op("hpke_open");
                    let Ok(req) = rx.open(b"", &rest[hpke::ENC_LEN..]) else {
                        return;
                    };
                    self.rx.insert(from, rx);
                    req
                }
                Some((&SESSION_CONT, rest)) => {
                    let Some(rx) = self.rx.get_mut(&from) else {
                        return;
                    };
                    ctx.world.crypto_op("hpke_open");
                    let Ok(req) = rx.open(b"", rest) else {
                        return;
                    };
                    req
                }
                _ => return,
            }
        } else {
            ctx.world.crypto_op("hpke_open");
            let Ok(req) = hpke::open(&self.kp, b"vpn", b"", &sealed) else {
                return;
            };
            req
        };
        let Some(user) = self
            .node_user
            .iter()
            .find(|(n, _)| *n == from)
            .map(|(_, u)| *u)
        else {
            return;
        };
        // Proxied onward in the clear (from the origin's view, the client
        // is the VPN's address).
        let label = Label::items([
            InfoItem::plain_identity(user, IdentityKind::Any),
            InfoItem::sensitive_data(user, DataKind::Destination),
        ]);
        if let Some(cseq) = cseq {
            let pseq = self.hop.insert((from, cseq));
            ctx.send_to(self.origin, Message::new(wire::frame(pseq, &req), label));
        } else {
            self.back.insert(0, (from, user));
            ctx.send_to(self.origin, Message::new(req, label));
        }
    }
}

struct PlainOrigin {
    entity: EntityId,
    /// Recovery path: echo the hop sequence back — the origin is a
    /// stateless responder, idempotent under retransmission.
    recover: bool,
}

impl Node for PlainOrigin {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if self.recover {
            let Some((seq, _body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            ctx.send(from, Message::public(wire::frame(seq, b"200 OK")));
            return;
        }
        ctx.send(from, Message::public(b"200 OK".to_vec()));
    }
}

fn run_vpn_impl(cfg: &VpnConfig, seed: u64, opts: &RunOptions) -> VpnReport {
    use rand::SeedableRng;
    let (n_users, fetches_each) = (cfg.users, cfg.fetches_each);
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1f);
    let (mut world, harness) = Harness::begin(Vpn::NAME, seed, opts);
    let user_org = world.add_org("users");
    let vpn_org = world.add_org("vpn-co");
    let origin_org = world.add_org("origin-co");
    let net_org = world.add_org("network");
    let vpn_e = world.add_entity("VPN Server", vpn_org, None);
    let origin_e = world.add_entity("Origin", origin_org, None);
    let observer_e = world.add_entity("Network Observer", net_org, None);

    let vpn_kp = hpke::Keypair::generate(&mut setup_rng);
    let vpn_key = world.new_key(&[vpn_e]);

    let mut users = Vec::new();
    let mut user_entities = Vec::new();
    for i in 0..n_users {
        let u = world.add_user();
        let name = if i == 0 {
            "Client".to_string()
        } else {
            format!("Client {}", i + 1)
        };
        user_entities.push(world.add_entity(&name, user_org, Some(u)));
        users.push(u);
    }

    let mut net = harness.network(world, LinkParams::wan_ms(10));
    let vpn_id = NodeId(0);
    let vpn_ep: Endpoint<TunnelReq, Control, TunnelServer> = Endpoint::new(0);
    let origin_ep: Endpoint<HttpRequest, Control, Origin> = Endpoint::new(1);

    let node_user: Vec<(NodeId, UserId)> = users
        .iter()
        .enumerate()
        .map(|(i, &u)| (NodeId(2 + i), u))
        .collect();
    let recover_on = opts.recover.enabled;
    // HPKE session reuse is the fast path for the steady tunnel: one
    // encapsulation per subscriber, every later fetch is a pure seal.
    // It is gated OFF whenever retransmission is possible (recovery or
    // fault injection): each attempt must be a fresh encapsulation so no
    // on-path observer can link retries by ciphertext (`RetryLinkage`).
    let reuse_on = !recover_on && !opts.faults.enabled;
    Harness::add_role::<TunnelServer>(
        &mut net,
        Box::new(VpnServer {
            entity: vpn_e,
            kp: vpn_kp.clone(),
            origin: origin_ep,
            back: Vec::new(),
            node_user,
            recover: recover_on,
            hop: HopMap::new(),
            reuse: reuse_on,
            rx: std::collections::BTreeMap::new(),
        }),
    );
    Harness::add_role::<Origin>(
        &mut net,
        Box::new(PlainOrigin {
            entity: origin_e,
            recover: recover_on,
        }),
    );
    let stats = Rc::new(RefCell::new(VpnStats {
        completed: 0,
        latencies: Vec::new(),
        linkage: RetryLinkage::new(),
    }));
    for (ci, (&u, &e)) in users.iter().zip(user_entities.iter()).enumerate() {
        Harness::add_role::<Subscriber>(
            &mut net,
            Box::new(VpnClient {
                entity: e,
                user: u,
                vpn: vpn_ep,
                vpn_pk: vpn_kp.public,
                vpn_key,
                fetches_left: fetches_each,
                stats: stats.clone(),
                sent_at: SimTime::ZERO,
                calls: Driver::new(&opts.recover, derive_seed(seed, 0x0b50 + ci as u64)),
                flow: ci as u64,
                reuse: reuse_on,
                tx: None,
            }),
        );
    }
    // Client-side network observer (the user's ISP): sees the access
    // links in both directions but not the VPN's egress side.
    let access_links: Vec<(NodeId, NodeId)> = (0..n_users)
        .flat_map(|i| [(NodeId(2 + i), vpn_id), (vpn_id, NodeId(2 + i))])
        .collect();
    net.add_tap(Tap {
        observer: observer_e,
        links: Some(access_links),
    });

    let core = harness.finish(net);
    let stats = Rc::try_unwrap(stats).map_err(|_| ()).unwrap().into_inner();
    VpnReport {
        world: core.world,
        trace: core.trace,
        completed: stats.completed,
        mean_fetch_us: mean_us(&stats.latencies),
        users,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected: (n_users * fetches_each) as u64,
        retry_linkage: stats.linkage.violations(),
    }
}

// ------------------------------------------------------------------ ECH --

/// Result of the ECH scenario.
pub struct EchReport {
    /// Knowledge base.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// Was ECH enabled?
    pub ech: bool,
    /// The user.
    pub user: UserId,
    /// Completed handshakes.
    pub completed: usize,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (one handshake).
    pub expected: u64,
    /// Retry-linkage violations over the sealed ClientHello attempts
    /// (only populated with ECH on — a cleartext SNI makes no
    /// unlinkability claim).
    pub retry_linkage: Vec<String>,
}

impl dcp_core::ScenarioReport for EchReport {
    fn world(&self) -> &World {
        &self.world
    }
    fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }
    fn metrics(&self) -> &MetricsReport {
        &self.metrics
    }
    fn packets(&self) -> usize {
        self.trace.len()
    }
    fn completed_units(&self) -> u64 {
        self.completed as u64
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

/// Config for the [`Ech`] scenario.
#[derive(Clone, Debug, Default)]
pub struct EchConfig {
    /// Seal the SNI to the server's ECH key (the §4.1 ablation runs both).
    pub ech: bool,
}

impl EchConfig {
    /// Enable or disable the encrypted ClientHello.
    pub fn ech(mut self, ech: bool) -> Self {
        self.ech = ech;
        self
    }
}

/// §4.1 encrypted ClientHello: hides the SNI from the network observer
/// but leaves the server's coupled view unchanged.
pub struct Ech;

impl Scenario for Ech {
    type Config = EchConfig;
    type Report = EchReport;
    const NAME: &'static str = "ech";

    fn run_with(cfg: &EchConfig, seed: u64, opts: &RunOptions) -> EchReport {
        run_ech_impl(cfg, seed, opts)
    }
}

impl Ech {
    /// One handshake with the encrypted ClientHello on. §4.1's ECH hides
    /// the SNI from the network observer, but the TLS server stays
    /// coupled by design; baseline-relative safety lets it ride the same
    /// battery as the decoupled systems.
    pub const REGISTRATION: Registration = Registration {
        name: Ech::NAME,
        run: |seed, opts| Box::new(Ech::run_with(&EchConfig::default().ech(true), seed, opts)),
        declared_caps: ech_declared_caps,
        serve: None,
    };
}

impl EchReport {
    /// Derive the table over `Client | Network Observer | TLS Server`.
    pub fn table(&self) -> DecouplingTable {
        DecouplingTable::derive(
            &self.world,
            self.user,
            &["Client", "Network Observer", "TLS Server"],
        )
    }
}

struct EchStats {
    completed: usize,
    /// Retry-linkage check over the sealed ClientHello (ECH runs only).
    linkage: RetryLinkage,
}

struct EchClient {
    entity: EntityId,
    user: UserId,
    /// The handshake endpoint: typed `(▲, ●)` — admitted only because
    /// [`TlsTerminator`] declares itself coupled by design (§4.1's
    /// honest admission).
    server: Endpoint<EchHello, Control, TlsTerminator>,
    server_pk: [u8; 32],
    server_key: KeyId,
    ech: bool,
    stats: Rc<RefCell<EchStats>>,
    /// Per-handshake reliable-call driver (inert when recovery is
    /// disabled).
    calls: Driver<()>,
}

impl EchClient {
    /// Build one ClientHello: with ECH the SNI travels sealed to the
    /// server's ECH key (a *fresh* encapsulation per attempt, so retries
    /// stay unlinkable); without it, the SNI is cleartext on the wire —
    /// identical bytes per attempt, and no unlinkability claim to check.
    fn client_hello(&self, ctx: &mut Ctx) -> (Vec<u8>, Label) {
        let sni = b"very-private-site.example".to_vec();
        let sni_item = InfoItem::sensitive_data(self.user, DataKind::Destination);
        let envelope = InfoItem::sensitive_identity(self.user, IdentityKind::Any);
        if self.ech {
            ctx.world.crypto_op("hpke_seal");
            let sealed = hpke::seal(ctx.rng, &self.server_pk, b"ech", b"", &sni).expect("ech seal");
            (
                sealed,
                Label::item(envelope).and(Label::item(sni_item).sealed(self.server_key)),
            )
        } else {
            (sni, Label::items([envelope, sni_item]))
        }
    }

    fn transmit(&mut self, ctx: &mut Ctx, att: Attempt) {
        let (bytes, label) = self.client_hello(ctx);
        if self.ech {
            self.stats
                .borrow_mut()
                .linkage
                .record(0, att.seq, att.attempt, &bytes);
        }
        self.calls.transmit(ctx, self.server, &att, &bytes, label);
    }
}

impl Node for EchClient {
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
            InfoItem::sensitive_data(self.user, DataKind::Destination),
        );
        if let Some(att) = self.calls.begin(()) {
            self.transmit(ctx, att);
            return;
        }
        let (bytes, label) = self.client_hello(ctx);
        ctx.send_to(self.server, Message::new(bytes, label));
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.calls.on_timer(ctx, token) {
            CallEvent::App(_) | CallEvent::Ignored => {}
            CallEvent::Retry(att) => self.transmit(ctx, att),
            CallEvent::Exhausted { .. } => {}
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, msg: Message) {
        if self.calls.enabled() {
            let Some((seq, _body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            if self.calls.complete(seq).is_none() {
                return; // duplicated ServerHello: counted exactly once
            }
            ctx.world.span("handshake", 0, ctx.now.as_us());
            self.stats.borrow_mut().completed += 1;
            return;
        }
        ctx.world.span("handshake", 0, ctx.now.as_us());
        self.stats.borrow_mut().completed += 1;
    }
}

struct TlsServer {
    entity: EntityId,
    kp: hpke::Keypair,
    ech: bool,
    /// Recovery path: echo the client's sequence back — the server is a
    /// stateless responder, idempotent under retransmission.
    recover: bool,
}

impl Node for TlsServer {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let (seq, hello) = if self.recover {
            let Some((seq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            (Some(seq), body.to_vec())
        } else {
            (None, msg.bytes)
        };
        // Fail closed: a ClientHello that does not decrypt, or names an
        // unknown site, is dropped rather than answered.
        let sni = if self.ech {
            ctx.world.crypto_op("hpke_open");
            let Ok(sni) = hpke::open(&self.kp, b"ech", b"", &hello) else {
                return;
            };
            sni
        } else {
            hello
        };
        if sni != b"very-private-site.example" {
            return;
        }
        let reply = match seq {
            Some(seq) => wire::frame(seq, b"ServerHello"),
            None => b"ServerHello".to_vec(),
        };
        ctx.send(from, Message::public(reply));
    }
}

fn run_ech_impl(cfg: &EchConfig, seed: u64, opts: &RunOptions) -> EchReport {
    use rand::SeedableRng;
    let ech = cfg.ech;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xec4);
    let (mut world, harness) = Harness::begin(Ech::NAME, seed, opts);
    let user_org = world.add_org("users");
    let site_org = world.add_org("site-co");
    let net_org = world.add_org("network");
    let server_e = world.add_entity("TLS Server", site_org, None);
    let observer_e = world.add_entity("Network Observer", net_org, None);
    let user = world.add_user();
    let client_e = world.add_entity("Client", user_org, Some(user));

    let kp = hpke::Keypair::generate(&mut setup_rng);
    let server_key = world.new_key(&[server_e]);

    let mut net = harness.network(world, LinkParams::wan_ms(10));
    let server_ep: Endpoint<EchHello, Control, TlsTerminator> = Endpoint::new(0);
    let recover_on = opts.recover.enabled;
    let stats = Rc::new(RefCell::new(EchStats {
        completed: 0,
        linkage: RetryLinkage::new(),
    }));
    Harness::add_role::<TlsTerminator>(
        &mut net,
        Box::new(TlsServer {
            entity: server_e,
            kp: kp.clone(),
            ech,
            recover: recover_on,
        }),
    );
    Harness::add_role::<Browser>(
        &mut net,
        Box::new(EchClient {
            entity: client_e,
            user,
            server: server_ep,
            server_pk: kp.public,
            server_key,
            ech,
            stats: stats.clone(),
            calls: Driver::new(&opts.recover, derive_seed(seed, 0x0ec8)),
        }),
    );
    net.add_tap(Tap {
        observer: observer_e,
        links: None,
    });
    let core = harness.finish(net);
    let stats = Rc::try_unwrap(stats).map_err(|_| ()).unwrap().into_inner();
    EchReport {
        world: core.world,
        trace: core.trace,
        ech,
        user,
        completed: stats.completed,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected: 1,
        retry_linkage: stats.linkage.violations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{analyze, collusion::entity_collusion, FaultConfig};

    fn run_vpn(n_users: usize, fetches_each: usize, seed: u64) -> VpnReport {
        Vpn::run(&VpnConfig::new(n_users, fetches_each), seed)
    }

    fn run_ech(ech: bool, seed: u64) -> EchReport {
        Ech::run(&EchConfig { ech }, seed)
    }

    #[test]
    fn instrumented_vpn_counts_tunnel_crypto() {
        let report = Vpn::run_with(&VpnConfig::new(2, 3), 5, &RunOptions::observed());
        let m = &report.metrics;
        // One seal per fetch at the clients, one open per fetch at the
        // VPN's tunnel terminator.
        assert_eq!(m.crypto_ops["hpke_seal"], 6);
        assert_eq!(m.crypto_ops["hpke_open"], 6);
        assert_eq!(m.span_count("fetch"), 6);
        assert!(m.wire_accounting_holds(), "{m:?}");
        assert_eq!(report.completed, 6);

        let plain = run_vpn(2, 3, 5);
        assert_eq!(plain.metrics.crypto_total(), 0);
        assert_eq!(plain.completed, 6);
    }

    #[test]
    fn instrumented_ech_counts_handshake_crypto() {
        let with = Ech::run_with(&EchConfig { ech: true }, 8, &RunOptions::observed());
        assert_eq!(with.metrics.crypto_ops["hpke_seal"], 1);
        assert_eq!(with.metrics.crypto_ops["hpke_open"], 1);
        assert_eq!(with.metrics.span_count("handshake"), 1);
        assert_eq!(with.completed, 1);

        // Without ECH the handshake does no tunnel crypto at all.
        let without = Ech::run_with(&EchConfig { ech: false }, 8, &RunOptions::observed());
        assert_eq!(without.metrics.crypto_total(), 0);
        assert_eq!(without.completed, 1);
    }

    #[test]
    fn session_reuse_gated_off_under_recovery() {
        use dcp_core::RecoverConfig;
        // Calm instrumented run: reuse is on — exactly one encapsulation
        // (and one decapsulation) per subscriber, while every fetch still
        // pays its per-message seal/open.
        let cfg = VpnConfig::new(2, 3);
        let calm = Vpn::run_with(&cfg, 5, &RunOptions::observed());
        assert_eq!(calm.metrics.crypto_ops["hpke_encap"], 2);
        assert_eq!(calm.metrics.crypto_ops["hpke_decap"], 2);
        assert_eq!(calm.metrics.crypto_ops["hpke_seal"], 6);
        assert_eq!(calm.metrics.crypto_ops["hpke_open"], 6);
        assert_eq!(calm.completed, 6);

        // With the recovery layer on, reuse must be off: every attempt is
        // a fresh single-shot encapsulation (no encap/decap ops recorded —
        // those name the session fast path), and retries stay unlinkable.
        let rec = Vpn::run_with(
            &cfg,
            5,
            &RunOptions::observed().with_recovery(&RecoverConfig::standard()),
        );
        assert!(
            !rec.metrics.crypto_ops.contains_key("hpke_encap"),
            "recovered runs must not open reusable sessions: {:?}",
            rec.metrics.crypto_ops
        );
        assert_eq!(rec.metrics.crypto_ops["hpke_seal"], 6);
        assert_eq!(rec.completed, 6);
        assert!(rec.retry_linkage.is_empty());

        // Fault injection alone (no recovery) also disables reuse.
        let faulted = Vpn::run_with(
            &cfg,
            5,
            &RunOptions::observed_with_faults(&FaultConfig::moderate()),
        );
        assert!(!faulted.metrics.crypto_ops.contains_key("hpke_encap"));

        // Reuse changes the wire format, never the knowledge outcome: the
        // derived decoupling table matches the no-reuse (recovered-calm)
        // run's table.
        assert_eq!(calm.table(0), rec.table(0));
    }

    #[test]
    fn vpn_reproduces_paper_table_and_fails_verdict() {
        let report = run_vpn(1, 2, 31);
        assert_eq!(report.completed, 2);
        let derived = report.table(0);
        let expected = VpnReport::paper_table();
        assert_eq!(
            derived,
            expected,
            "diff:\n{}",
            derived.diff(&expected).unwrap_or_default()
        );
        let verdict = analyze(&report.world);
        assert!(!verdict.decoupled);
        assert!(verdict.offenders().contains(&"VPN Server"));
        // Zero collusion needed: the VPN is a single locus of observation.
        let rep = entity_collusion(&report.world, report.users[0], 2);
        assert_eq!(rep.min_coalition_size, Some(1));
    }

    #[test]
    fn vpn_hides_from_network_observer() {
        // The tunnel *does* protect against the network — the observer
        // never sees the destination. The failure is the trusted hop.
        let report = run_vpn(1, 1, 32);
        let obs = report.world.entity_by_name("Network Observer").id;
        let tuple = report.world.tuple(obs, report.users[0]);
        assert!(tuple.has_sensitive_identity(), "sees the client address");
        assert!(!tuple.has_sensitive_data(), "cannot see into the tunnel");
    }

    #[test]
    fn ech_hides_sni_from_network_only() {
        let without = run_ech(false, 33);
        let with = run_ech(true, 33);

        let obs_t = |r: &EchReport| {
            let e = r.world.entity_by_name("Network Observer").id;
            r.world.tuple(e, r.user)
        };
        let srv_t = |r: &EchReport| {
            let e = r.world.entity_by_name("TLS Server").id;
            r.world.tuple(e, r.user)
        };

        // Without ECH the network observer couples the user all by itself.
        assert!(obs_t(&without).is_coupled());
        // With ECH the observer loses the data half…
        assert!(!obs_t(&with).is_coupled());
        assert!(!obs_t(&with).has_sensitive_data());
        // …but the server's view is unchanged: still (▲, ●).
        assert!(srv_t(&without).is_coupled());
        assert!(
            srv_t(&with).is_coupled(),
            "ECH does not decouple the server"
        );
        assert!(!analyze(&with.world).decoupled);
    }

    #[test]
    fn recovered_harsh_vpn_completes_with_baseline_tables() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        let cfg = VpnConfig::new(2, 4);
        let calm = Vpn::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Vpn::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(calm.completed, 8, "calm recovered run completes everything");
        assert_eq!(
            harsh.completed as u64,
            harsh.expected_units().unwrap(),
            "under harsh faults the recovery layer still finishes the workload"
        );
        assert!(!harsh.fault_log.is_empty(), "harsh actually injected");
        assert!(
            harsh.retry_linkage().is_empty(),
            "re-randomized retries are never linkable by ciphertext equality: {:?}",
            harsh.retry_linkage()
        );
        assert_eq!(
            KnowledgeFingerprint::of(&harsh.world),
            KnowledgeFingerprint::of(&calm.world),
            "recovery must not change anyone's knowledge ledger"
        );
        assert_eq!(harsh.table(0), calm.table(0));
    }

    #[test]
    fn recovered_harsh_ech_completes_both_ways() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        let opts = RunOptions::recovered(&FaultConfig::harsh());
        for ech in [true, false] {
            let cfg = EchConfig::default().ech(ech);
            let calm = Ech::run_with(&cfg, 33, &RunOptions::recovered(&FaultConfig::calm()));
            let harsh = Ech::run_with(&cfg, 33, &opts);
            assert_eq!(harsh.completed as u64, harsh.expected_units().unwrap());
            assert!(harsh.retry_linkage().is_empty());
            assert_eq!(
                KnowledgeFingerprint::of(&harsh.world),
                KnowledgeFingerprint::of(&calm.world),
                "ech={ech}: recovery must not change anyone's knowledge ledger"
            );
        }
    }

    #[test]
    fn recovered_calm_runs_match_plain_completion() {
        // Recovery adds framing and timers but must not change how much
        // work a fault-free run completes, nor perturb knowledge.
        let plain = run_vpn(2, 3, 5);
        let rec = Vpn::run_with(
            &VpnConfig::new(2, 3),
            5,
            &RunOptions::recovered(&FaultConfig::calm()),
        );
        assert_eq!(plain.completed, rec.completed);
        assert_eq!(plain.table(0), rec.table(0));
    }
}
