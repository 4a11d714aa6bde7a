//! VPN and ECH, the §3.3 cautionary tales, written once as seam roles:
//! a subscriber, the VPN server and the origin; a browser and the TLS
//! server. The simulator hosts them ([`Vpn`], [`Ech`]) and
//! [`Vpn::REGISTRATION`] hands the VPN's roles to `dcp-serve`.
//!
//! Every leg carries an 8-byte sequence number (`dcp_runtime::wire`) on
//! every run, outside the tunnel's ciphertext. The VPN server names a
//! request's subscriber from the peer its frame arrives on and re-keys
//! it to the origin through a [`HopMap`], so an answer returns to the
//! subscriber who asked even under drops and duplicates. A run's
//! `RecoverConfig` only arms the clients' retries. The passive network
//! observer is a tap in each wiring's spec.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, FaultLog, IdentityKind, InfoItem, KeyId, Label, MetricsReport, RunOptions, Scenario,
    UserId, World,
};
use dcp_crypto::hpke;
use dcp_runtime::seam::{
    lock, nth, PeerId, Registration, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole, WireTap,
};
use dcp_runtime::{
    mean_us, wire, Attempt, Control, Endpoint, Harness, HopMap, LinkParams, ReliableCall,
    RetryLinkage, TimerVerdict, Trace,
};

use crate::types::{
    self, ech_declared_caps, vpn_declared_caps, Browser, EchHello, HttpRequest, Subscriber,
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
        let (world, harness) = Harness::begin(Vpn::NAME, seed, opts);
        let (spec, stats) = vpn_wiring(cfg, seed, world, opts);
        let users = spec.world.users().to_vec();
        let expected = spec.expected_units;
        let core = harness.run_spec(spec, LinkParams::wan_ms(10), Vec::new());
        let stats = lock(&stats);
        VpnReport {
            world: core.world,
            trace: core.trace,
            completed: stats.completed,
            mean_fetch_us: mean_us(&stats.latencies),
            users,
            fault_log: core.fault_log,
            metrics: core.metrics,
            expected,
            retry_linkage: stats.linkage.violations(),
        }
    }
}

impl Vpn {
    /// Three users fetching twice each through the tunnel. The VPN is
    /// the paper's cautionary tale, coupled in its calm run, and the DST
    /// battery's safety check is baseline-relative: faults must couple
    /// no one new (the network observer, say), while the server's
    /// existing coupling is not charged to them. Served, a subscriber per
    /// client and a fetch per query; every process of a multi-process run
    /// builds the same server key from the seed. Role order defines peer
    /// ids: `vpn` 0, `origin` 1, then `client`, `client-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: Vpn::NAME,
        run: |seed, opts| Box::new(Vpn::run_with(&VpnConfig::new(3, 2), seed, opts)),
        declared_caps: vpn_declared_caps,
        serve: Some(|clients, queries, seed| {
            let cfg = VpnConfig::new(clients, queries);
            let spec = vpn_wiring(&cfg, seed, World::new(), &RunOptions::default()).0;
            Ok((spec, Box::new(move || Vpn::run(&cfg, seed).world)))
        }),
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

/// What the subscribers measure, shared by every role of one run.
struct VpnStats {
    completed: usize,
    latencies: Vec<u64>,
    /// Retry-linkage check fed by every retransmittable tunnel ciphertext.
    linkage: RetryLinkage,
}

/// First byte of a tunnel message when session reuse is on: this
/// message opens a session and carries `enc ‖ ct`.
const SESSION_INIT: u8 = 0x01;
/// First byte of a follow-up message on an open session: `ct` only.
const SESSION_CONT: u8 = 0x02;

/// A tunnel message under session reuse, as the server parses it.
#[derive(Debug, PartialEq, Eq)]
enum Tunnel<'a> {
    /// `SESSION_INIT ‖ enc ‖ ct`: opens the sender's session.
    Init {
        enc: &'a [u8; hpke::ENC_LEN],
        ct: &'a [u8],
    },
    /// `SESSION_CONT ‖ ct`: rides the sender's open session.
    Cont { ct: &'a [u8] },
}

/// Why the server refused a tunnel message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TunnelError {
    /// No bytes at all.
    Empty,
    /// A first byte that names no kind of tunnel message.
    UnknownKind(u8),
    /// An opening with fewer bytes after its kind than a key needs.
    ShortInit { got: usize },
}

impl<'a> Tunnel<'a> {
    fn decode(bytes: &'a [u8]) -> Result<Self, TunnelError> {
        match bytes.split_first() {
            None => Err(TunnelError::Empty),
            Some((&SESSION_INIT, rest)) => match rest.get(..hpke::ENC_LEN) {
                Some(enc) => Ok(Tunnel::Init {
                    enc: enc.try_into().expect("ENC_LEN bytes"),
                    ct: &rest[hpke::ENC_LEN..],
                }),
                None => Err(TunnelError::ShortInit { got: rest.len() }),
            },
            Some((&SESSION_CONT, ct)) => Ok(Tunnel::Cont { ct }),
            Some((&kind, _)) => Err(TunnelError::UnknownKind(kind)),
        }
    }

    /// The message framed under `seq`, written into one buffer.
    fn framed(&self, seq: u64) -> Vec<u8> {
        match self {
            Tunnel::Init { enc, ct } => wire::frame_parts(seq, &[&[SESSION_INIT], *enc, ct]),
            Tunnel::Cont { ct } => wire::frame_parts(seq, &[&[SESSION_CONT], ct]),
        }
    }
}

/// A VPN subscriber: one fetch at a time through the tunnel.
struct Client {
    user: UserId,
    /// The tunnel endpoint: sending here is the typed claim that the VPN
    /// server may see `(▲, ●)` — which compiles only because
    /// [`TunnelServer`] declares itself coupled by design.
    vpn: Endpoint<TunnelReq, Control, TunnelServer>,
    vpn_pk: [u8; 32],
    vpn_key: KeyId,
    /// Fetches not yet begun.
    fetches_left: usize,
    /// Numbers every fetch; retries under recovery only. No failover
    /// list: the scenario's whole point is the single trusted hop.
    arq: ReliableCall,
    /// RetryLinkage flow id (the client index).
    flow: u64,
    /// The open fetch: its sequence number and send time.
    inflight: Option<(u64, u64)>,
    /// HPKE session reuse: one encapsulation, many seals. A reused
    /// context would let an observer link retried attempts of one fetch,
    /// so [`vpn_wiring`] gates it on `!recover && !faults`.
    reuse: bool,
    /// The open sender context, once the first fetch has encapsulated.
    tx: Option<hpke::Context>,
    stats: Arc<Mutex<VpnStats>>,
}

impl Client {
    fn tunnel_label(&self) -> Label {
        // The tunnel protects the request from the *network*, but the VPN
        // terminates it: the server decrypts and sees destination + content
        // (●) bound to the subscriber's address/account (▲).
        Label::items([InfoItem::sensitive_identity(self.user, IdentityKind::Any)]).and(
            Label::items([InfoItem::sensitive_data(self.user, DataKind::Destination)])
                .sealed(self.vpn_key),
        )
    }

    /// Begin the next fetch, if one is left.
    fn fetch(&mut self, ctx: &mut WireCtx) {
        if self.fetches_left == 0 {
            return;
        }
        self.fetches_left -= 1;
        let att = self.arq.open();
        self.inflight = Some((att.seq, ctx.now_us()));
        self.transmit(ctx, att);
    }

    /// (Re)transmit fetch `att.seq`: on the reused session, or as a
    /// *fresh* single-shot encapsulation, so no observer can link two
    /// attempts of one fetch by ciphertext equality.
    fn transmit(&mut self, ctx: &mut WireCtx, att: Attempt) {
        let bytes = if self.reuse {
            self.session_frame(ctx, att.seq)
        } else {
            ctx.crypto_op("hpke_seal");
            let sealed = hpke::seal(ctx.rng, &self.vpn_pk, b"vpn", b"", REQUEST).expect("seal");
            if self.arq.enabled() {
                lock(&self.stats)
                    .linkage
                    .record(self.flow, att.seq, att.attempt, &sealed);
            }
            wire::frame(att.seq, &sealed)
        };
        let label = self.tunnel_label();
        ctx.send_to(self.vpn, WireMsg::data(bytes, label));
        ctx.arm(&self.arq, &att);
    }

    /// The next message on the reused session, framed under `seq`: the
    /// first encapsulates and opens it, later ones only seal.
    fn session_frame(&mut self, ctx: &mut WireCtx, seq: u64) -> Vec<u8> {
        match &mut self.tx {
            None => {
                ctx.crypto_op("hpke_encap");
                let (enc, mut tx) =
                    hpke::setup_base_s(ctx.rng, &self.vpn_pk, b"vpn").expect("encap");
                ctx.crypto_op("hpke_seal");
                let ct = tx.seal(b"", REQUEST);
                self.tx = Some(tx);
                Tunnel::Init { enc: &enc, ct: &ct }.framed(seq)
            }
            Some(tx) => {
                ctx.crypto_op("hpke_seal");
                let ct = tx.seal(b"", REQUEST);
                Tunnel::Cont { ct: &ct }.framed(seq)
            }
        }
    }
}

impl WireRole for Client {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::Destination));
        self.fetch(ctx);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        // Only an answer numbered for the open fetch, from the VPN
        // server, completes it; a duplicated or late one changes nothing.
        let Some((seq, _body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Some((open, sent_at)) = self.inflight else {
            return;
        };
        if seq != open || from.index() != self.vpn.index() {
            return;
        }
        self.inflight = None;
        self.arq.complete(open);
        let now = ctx.now_us();
        ctx.span("fetch", sent_at, now);
        let mut stats = lock(&self.stats);
        stats.completed += 1;
        stats.latencies.push(now - sent_at);
        drop(stats);
        ctx.unit_done();
        self.fetch(ctx);
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        match ctx.arq_timer(&mut self.arq, token) {
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => self.transmit(ctx, att),
            TimerVerdict::Exhausted { .. } => {
                self.inflight = None;
                self.fetch(ctx);
            }
        }
    }

    fn finished(&self) -> bool {
        self.fetches_left == 0 && self.inflight.is_none()
    }
}

/// The §3.3 VPN server: terminates each subscriber's tunnel and proxies
/// the request to the origin in the clear, as its own client.
struct Server {
    kp: hpke::Keypair,
    /// The egress endpoint: the proxied request is admitted by the
    /// origin's default `(△, ●)` service cap.
    origin: Endpoint<HttpRequest, Control, types::Origin>,
    /// The user behind each subscriber's peer.
    subscribers: BTreeMap<PeerId, UserId>,
    /// Each origin-leg number's subscriber and its number (forwarding the
    /// subscriber's own counter would hand the origin a cross-fetch
    /// pseudonym). Take-once, so a duplicated answer dies here.
    hop: HopMap<(PeerId, u64)>,
    /// Mirrors the clients' session-reuse gate.
    reuse: bool,
    /// Open receiver contexts, one per subscriber.
    rx: BTreeMap<PeerId, hpke::Context>,
}

impl Server {
    /// Open one tunnel message from `from`, or `None` (fail closed) for
    /// one that does not decode or decrypt, or continues no session.
    fn open(&mut self, ctx: &mut WireCtx, from: PeerId, tunnel: &[u8]) -> Option<Vec<u8>> {
        if !self.reuse {
            ctx.crypto_op("hpke_open");
            return hpke::open(&self.kp, b"vpn", b"", tunnel).ok();
        }
        match Tunnel::decode(tunnel).ok()? {
            Tunnel::Init { enc, ct } => {
                ctx.crypto_op("hpke_decap");
                let mut rx = hpke::setup_base_r(enc, &self.kp, b"vpn").ok()?;
                ctx.crypto_op("hpke_open");
                let req = rx.open(b"", ct).ok()?;
                self.rx.insert(from, rx);
                Some(req)
            }
            Tunnel::Cont { ct } => {
                let rx = self.rx.get_mut(&from)?;
                ctx.crypto_op("hpke_open");
                rx.open(b"", ct).ok()
            }
        }
    }
}

impl WireRole for Server {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        if from.index() == self.origin.index() {
            // An answer goes back to the subscriber its number was minted
            // for, renumbered in place under that subscriber's sequence.
            let mut answer = msg.payload;
            let Some((hop_seq, _)) = wire::unframe(&answer) else {
                return;
            };
            let Some((client, client_seq)) = self.hop.take(hop_seq) else {
                return; // duplicated answer: its route was consumed
            };
            wire::reframe(&mut answer, client_seq);
            ctx.send(client, WireMsg::response(answer, msg.label));
            return;
        }
        // Fail closed: traffic from a peer that is no subscriber, or that
        // does not open under the tunnel key, is dropped — never proxied.
        let Some(&user) = self.subscribers.get(&from) else {
            return;
        };
        let Some((client_seq, tunnel)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Some(req) = self.open(ctx, from, tunnel) else {
            return;
        };
        // Proxied onward in the clear (from the origin's view, the client
        // is the VPN's address).
        let label = Label::items([
            InfoItem::plain_identity(user, IdentityKind::Any),
            InfoItem::sensitive_data(user, DataKind::Destination),
        ]);
        let hop_seq = self.hop.insert((from, client_seq));
        ctx.send_to(
            self.origin,
            WireMsg::data(wire::frame(hop_seq, &req), label),
        );
    }
}

/// The origin behind the VPN: answers every request under its number —
/// statelessly, so a retransmission is simply answered again and the
/// subscriber's ARQ dedups.
struct Origin;

impl WireRole for Origin {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, _request)) = wire::unframe(&msg.payload) else {
            return;
        };
        ctx.send(
            from,
            WireMsg::response(wire::frame(seq, b"200 OK"), Label::Public),
        );
    }
}

/// Build the VPN's world, roles and observer for either engine, and the
/// stats its subscribers share. Peer ids: the VPN server 0, the origin 1,
/// then the subscribers.
///
/// The world mutation order and the setup RNG's draws are load-bearing:
/// a metrics sink observes entity creation in sequence, and the DST
/// probes are byte-identical across refactors only if both hold.
fn vpn_wiring(
    cfg: &VpnConfig,
    seed: u64,
    mut world: World,
    opts: &RunOptions,
) -> (ServeSpec, Arc<Mutex<VpnStats>>) {
    use rand::SeedableRng;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1f);
    let user_org = world.add_org("users");
    let vpn_org = world.add_org("vpn-co");
    let origin_org = world.add_org("origin-co");
    let net_org = world.add_org("network");
    let vpn_e = world.add_entity("VPN Server", vpn_org, None);
    let origin_e = world.add_entity("Origin", origin_org, None);
    let observer_e = world.add_entity("Network Observer", net_org, None);

    let vpn_kp = hpke::Keypair::generate(&mut setup_rng);
    let vpn_key = world.new_key(&[vpn_e]);

    // HPKE session reuse, the steady tunnel's fast path, is off whenever
    // an attempt may be retransmitted (recovery or fault injection).
    let reuse = !opts.recover.enabled && !opts.faults.enabled;
    let stats = Arc::new(Mutex::new(VpnStats {
        completed: 0,
        latencies: Vec::new(),
        linkage: RetryLinkage::new(),
    }));
    let mut subscribers = BTreeMap::new();
    let mut clients = Vec::new();
    for i in 0..cfg.users {
        let user = world.add_user();
        let e = world.add_entity(&nth("Client", ' ', i), user_org, Some(user));
        subscribers.insert(PeerId::at(2 + i), user);
        let client = Client {
            user,
            vpn: Endpoint::new(0),
            vpn_pk: vpn_kp.public,
            vpn_key,
            fetches_left: cfg.fetches_each,
            arq: ReliableCall::new(&opts.recover, derive_seed(seed, 0x0b50 + i as u64)),
            flow: i as u64,
            inflight: None,
            reuse,
            tx: None,
            stats: stats.clone(),
        };
        clients.push(RoleSpec::of::<Subscriber>(
            nth("client", '-', i),
            e,
            Box::new(client),
        ));
    }
    let server = Server {
        kp: vpn_kp,
        origin: Endpoint::new(1),
        subscribers,
        hop: HopMap::new(),
        reuse,
        rx: BTreeMap::new(),
    };
    let mut roles = vec![
        RoleSpec::of::<TunnelServer>("vpn", vpn_e, Box::new(server)),
        RoleSpec::of::<types::Origin>("origin", origin_e, Box::new(Origin)),
    ];
    roles.extend(clients);
    // Client-side network observer (the user's ISP): sees the access
    // links in both directions but not the VPN's egress side.
    let access_links = (0..cfg.users)
        .flat_map(|i| {
            let client = PeerId::at(2 + i);
            [(client, PeerId(0)), (PeerId(0), client)]
        })
        .collect();
    let spec = ServeSpec {
        scenario: Vpn::NAME,
        world,
        roles,
        expected_units: (cfg.users * cfg.fetches_each) as u64,
        taps: vec![WireTap {
            observer: observer_e,
            links: Some(access_links),
        }],
    };
    (spec, stats)
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
        let (world, harness) = Harness::begin(Ech::NAME, seed, opts);
        let (spec, stats) = ech_wiring(cfg, seed, world, opts);
        let user = spec.world.users()[0];
        let expected = spec.expected_units;
        let core = harness.run_spec(spec, LinkParams::wan_ms(10), Vec::new());
        let stats = lock(&stats);
        EchReport {
            world: core.world,
            trace: core.trace,
            ech: cfg.ech,
            user,
            completed: stats.completed,
            fault_log: core.fault_log,
            metrics: core.metrics,
            expected,
            retry_linkage: stats.linkage.violations(),
        }
    }
}

impl Ech {
    /// One handshake with the encrypted ClientHello on. §4.1's ECH hides
    /// the SNI from the network observer, but the TLS server stays
    /// coupled by design; baseline-relative safety lets it ride the same
    /// battery as the decoupled systems. Not served: the config
    /// describes one browser and one handshake.
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

/// What the browser measures.
struct EchStats {
    completed: usize,
    /// Retry-linkage check over the sealed ClientHello (ECH runs only).
    linkage: RetryLinkage,
}

/// The server name every ClientHello asks for.
const SNI: &[u8] = b"very-private-site.example";

/// The browser: one handshake.
struct EchBrowser {
    user: UserId,
    /// The handshake endpoint: typed `(▲, ●)` — admitted only because
    /// [`TlsTerminator`] declares itself coupled by design (§4.1's
    /// honest admission).
    server: Endpoint<EchHello, Control, TlsTerminator>,
    server_pk: [u8; 32],
    server_key: KeyId,
    ech: bool,
    /// Numbers the handshake; arms deadlines and retries under recovery
    /// only.
    arq: ReliableCall,
    /// The handshake's sequence number while it is open.
    inflight: Option<u64>,
    stats: Arc<Mutex<EchStats>>,
}

impl EchBrowser {
    /// Build one ClientHello: with ECH the SNI travels sealed to the
    /// server's ECH key (a *fresh* encapsulation per attempt); without
    /// it, in cleartext, with no unlinkability claim to check.
    fn client_hello(&self, ctx: &mut WireCtx) -> (Vec<u8>, Label) {
        let sni_item = InfoItem::sensitive_data(self.user, DataKind::Destination);
        let envelope = InfoItem::sensitive_identity(self.user, IdentityKind::Any);
        if self.ech {
            ctx.crypto_op("hpke_seal");
            let sealed = hpke::seal(ctx.rng, &self.server_pk, b"ech", b"", SNI).expect("ech seal");
            (
                sealed,
                Label::item(envelope).and(Label::item(sni_item).sealed(self.server_key)),
            )
        } else {
            (SNI.to_vec(), Label::items([envelope, sni_item]))
        }
    }

    /// (Re)transmit the handshake under `att`.
    fn transmit(&mut self, ctx: &mut WireCtx, att: Attempt) {
        let (hello, label) = self.client_hello(ctx);
        if self.ech && self.arq.enabled() {
            lock(&self.stats)
                .linkage
                .record(0, att.seq, att.attempt, &hello);
        }
        ctx.send_to(
            self.server,
            WireMsg::data(wire::frame(att.seq, &hello), label),
        );
        ctx.arm(&self.arq, &att);
    }
}

impl WireRole for EchBrowser {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::Destination));
        let att = self.arq.open();
        self.inflight = Some(att.seq);
        self.transmit(ctx, att);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        // Only the ServerHello numbered for the open handshake completes
        // it; a duplicated one changes nothing.
        let Some((seq, _body)) = wire::unframe(&msg.payload) else {
            return;
        };
        if self.inflight != Some(seq) || from.index() != self.server.index() {
            return;
        }
        self.inflight = None;
        self.arq.complete(seq);
        ctx.span("handshake", 0, ctx.now_us());
        lock(&self.stats).completed += 1;
        ctx.unit_done();
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        match ctx.arq_timer(&mut self.arq, token) {
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => self.transmit(ctx, att),
            TimerVerdict::Exhausted { .. } => {
                self.inflight = None;
            }
        }
    }

    fn finished(&self) -> bool {
        self.inflight.is_none()
    }
}

/// The TLS server: answers a ClientHello that names its site, echoing
/// the hello's number — statelessly, so a retransmission is simply
/// answered again.
struct EchServer {
    kp: hpke::Keypair,
    ech: bool,
}

impl WireRole for EchServer {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, hello)) = wire::unframe(&msg.payload) else {
            return;
        };
        // Fail closed: a ClientHello that does not decrypt, or names an
        // unknown site, is dropped rather than answered.
        let ours = if self.ech {
            ctx.crypto_op("hpke_open");
            hpke::open(&self.kp, b"ech", b"", hello).is_ok_and(|sni| sni == SNI)
        } else {
            hello == SNI
        };
        if ours {
            ctx.send(
                from,
                WireMsg::response(wire::frame(seq, b"ServerHello"), Label::Public),
            );
        }
    }
}

/// Build the ECH world, roles and observer. Peer ids: the TLS server 0,
/// the browser 1. The world mutation order and the setup RNG's draws are
/// load-bearing, as in [`vpn_wiring`].
fn ech_wiring(
    cfg: &EchConfig,
    seed: u64,
    mut world: World,
    opts: &RunOptions,
) -> (ServeSpec, Arc<Mutex<EchStats>>) {
    use rand::SeedableRng;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xec4);
    let user_org = world.add_org("users");
    let site_org = world.add_org("site-co");
    let net_org = world.add_org("network");
    let server_e = world.add_entity("TLS Server", site_org, None);
    let observer_e = world.add_entity("Network Observer", net_org, None);
    let user = world.add_user();
    let client_e = world.add_entity("Client", user_org, Some(user));

    let kp = hpke::Keypair::generate(&mut setup_rng);
    let server_key = world.new_key(&[server_e]);
    let stats = Arc::new(Mutex::new(EchStats {
        completed: 0,
        linkage: RetryLinkage::new(),
    }));
    let browser = EchBrowser {
        user,
        server: Endpoint::new(0),
        server_pk: kp.public,
        server_key,
        ech: cfg.ech,
        arq: ReliableCall::new(&opts.recover, derive_seed(seed, 0x0ec8)),
        inflight: None,
        stats: stats.clone(),
    };
    let server = EchServer { kp, ech: cfg.ech };
    let spec = ServeSpec {
        scenario: Ech::NAME,
        world,
        roles: vec![
            RoleSpec::of::<TlsTerminator>("server", server_e, Box::new(server)),
            RoleSpec::of::<Browser>("client", client_e, Box::new(browser)),
        ],
        expected_units: 1,
        // A global passive observer: every link, both directions.
        taps: vec![WireTap {
            observer: observer_e,
            links: None,
        }],
    };
    (spec, stats)
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

    /// The server sends each answer to the subscriber whose request its
    /// number was minted for, under that subscriber's own number,
    /// whatever order the origin answers in; a duplicated answer goes
    /// nowhere. A server that pairs answers with waiting subscribers by
    /// arrival order sends the first answer here to the wrong one.
    #[test]
    fn answers_return_to_the_subscriber_who_asked() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let kp = hpke::Keypair::generate(&mut rng);
        let pk = kp.public;
        let (a, b, origin) = (PeerId(2), PeerId(3), PeerId(1));
        let mut server = Server {
            kp,
            origin: Endpoint::new(1),
            subscribers: BTreeMap::from([(a, UserId(0)), (b, UserId(1))]),
            hop: HopMap::new(),
            reuse: false,
            rx: BTreeMap::new(),
        };
        let deliver = |server: &mut Server, from: PeerId, payload: Vec<u8>| {
            let mut ctx_rng = rand::rngs::StdRng::seed_from_u64(4);
            let mut ctx = WireCtx::new(&mut ctx_rng, PeerId(0), 0, false);
            server.on_frame(&mut ctx, from, WireMsg::data(payload, Label::Public));
            let out = ctx.finish().out.into_iter();
            out.map(|(to, msg)| (to, msg.payload)).collect::<Vec<_>>()
        };
        let mut hops = Vec::new();
        for (from, seq) in [(a, 5), (b, 9)] {
            let sealed = hpke::seal(&mut rng, &pk, b"vpn", b"", REQUEST).unwrap();
            let out = deliver(&mut server, from, wire::frame(seq, &sealed));
            let [(to, proxied)] = &out[..] else {
                panic!("one request to the origin: {out:?}")
            };
            let (hop, request) = wire::unframe(proxied).unwrap();
            assert_eq!((*to, request), (origin, REQUEST));
            hops.push(hop);
        }
        let ok = |seq| wire::frame(seq, b"200 OK");
        assert_eq!(deliver(&mut server, origin, ok(hops[1])), [(b, ok(9))]);
        assert_eq!(deliver(&mut server, origin, ok(hops[0])), [(a, ok(5))]);
        assert!(deliver(&mut server, origin, ok(hops[1])).is_empty());
        // Nothing from a stranger is proxied, nor, with session reuse, a
        // continuation on no open session or a frame that does not
        // unframe.
        let sealed = hpke::seal(&mut rng, &pk, b"vpn", b"", REQUEST).unwrap();
        assert!(deliver(&mut server, PeerId(7), wire::frame(1, &sealed)).is_empty());
        server.reuse = true;
        let cont = Tunnel::Cont { ct: &sealed }.framed(2);
        assert!(deliver(&mut server, a, cont).is_empty());
        assert!(deliver(&mut server, a, vec![SESSION_CONT; 7]).is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        /// The tunnel decoder never panics: arbitrary bytes decode to a
        /// message that re-encodes to them, or fail closed with the
        /// reason; every encoded opening and continuation decodes back.
        #[test]
        fn tunnel_decoder_fails_closed_and_round_trips(
            bytes in proptest::collection::vec(any::<u8>(), 0..80),
            seq in any::<u64>(),
        ) {
            match Tunnel::decode(&bytes) {
                Ok(msg) => prop_assert_eq!(&msg.framed(seq)[wire::SEQ_LEN..], &bytes[..]),
                Err(TunnelError::Empty) => prop_assert!(bytes.is_empty()),
                Err(TunnelError::UnknownKind(kind)) => {
                    prop_assert_eq!(kind, bytes[0]);
                    prop_assert!(kind != SESSION_INIT && kind != SESSION_CONT);
                }
                Err(TunnelError::ShortInit { got }) => {
                    prop_assert_eq!(bytes[0], SESSION_INIT);
                    prop_assert_eq!(got, bytes.len() - 1);
                    prop_assert!(got < hpke::ENC_LEN);
                }
            }
            let mut enc = [0u8; hpke::ENC_LEN];
            for (e, b) in enc.iter_mut().zip(&bytes) {
                *e = *b;
            }
            let ct = &bytes[bytes.len() / 2..];
            for sent in [Tunnel::Init { enc: &enc, ct }, Tunnel::Cont { ct }] {
                let framed = sent.framed(seq);
                prop_assert_eq!(wire::unframe(&framed), Some((seq, &framed[wire::SEQ_LEN..])));
                prop_assert_eq!(Tunnel::decode(&framed[wire::SEQ_LEN..]), Ok(sent));
            }
        }
    }
}
