//! k-relay chain scenarios over nested encrypted tunnels, written once
//! as seam roles: a user, a relay serving every chain position, and the
//! origin. One `wiring` builds them; the simulator hosts them ([`Mpr`])
//! and [`Mpr::REGISTRATION`] hands the same roles to `dcp-serve`.
//!
//! Every leg carries an 8-byte hop-local sequence number
//! (`dcp_runtime::wire` framing). Each relay re-keys what it forwards
//! with a [`HopMap`] and retraces the way back from a response's number,
//! so no relay pairs responses with requests by arrival order, and a
//! response returns to the user who asked even under drops and
//! duplicates. Responses carry `RESP_BIT` in their number, so a relay
//! tells direction the same way in a fixed chain and in a
//! directory-drawn full mesh. A run's `RecoverConfig` only arms the
//! users' retries.
//!
//! The origin learns whom a response is about from what it decrypts:
//! each user fetches their own account page, as a DNS question names its
//! asker's slice of names. Nothing rides outside the bytes, so a served
//! origin labels its responses exactly as the simulated one does.
//!
//! Fleet runs draw chains from a gossiped relay directory: the relays
//! are the same role, holding an epoch keyring, and the directory nodes
//! stay simulator nodes, registered after the roles.

use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, FaultLog, IdentityKind, InfoItem, KeyId, Label, MetricsReport, RunOptions, Scenario,
    UserId, World,
};
use dcp_crypto::hpke;
use dcp_runtime::seam::{
    lock, nth, PeerId, Registration, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole,
};
use dcp_runtime::{
    mean_us, wire, Attempt, Control, DirectoryNode, Endpoint, FleetClient, FleetRelay, FleetSetup,
    FleetSummary, Harness, HopMap, LinkParams, NodeId, ReliableCall, RetryLinkage, TimerVerdict,
    Trace, ROTATE_TOKEN,
};
use dcp_transport::onion::{self, Hop, Unwrapped};

use crate::types::{
    declared_caps, ChainOrigin, ChainRelay, ChainUser, DirectFetch, DirectOrigin, OnionedFetch,
};

/// Configuration for a chain run.
#[derive(Clone, Copy, Debug)]
pub struct ChainConfig {
    /// Number of relays between user and origin (0 = direct).
    pub relays: usize,
    /// Users fetching concurrently.
    pub users: usize,
    /// Fetches per user.
    pub fetches_each: usize,
    /// Reveal a coarse location hint to the origin (§4.4 regression).
    pub geohint: bool,
    /// RNG / topology seed.
    pub seed: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            relays: 2,
            users: 1,
            fetches_each: 1,
            geohint: false,
            seed: 0,
        }
    }
}

/// Result of a chain run.
pub struct ScenarioReport {
    /// Knowledge base.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// Completed fetches.
    pub completed: usize,
    /// Mean request→response latency (µs).
    pub mean_fetch_us: f64,
    /// Total wire bytes per application-payload byte delivered.
    pub bytes_factor: f64,
    /// The users.
    pub users: Vec<UserId>,
    /// Relay entity names in chain order (for table derivation).
    pub relay_names: Vec<String>,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (`users × fetches_each`).
    pub expected: u64,
    /// Retry-linkage violations over the re-wrapped onion attempts.
    pub retry_linkage: Vec<String>,
    /// Fleet-layer summary ([`FleetSummary::disabled`] when the run had
    /// no directory).
    pub fleet: FleetSummary,
}

impl dcp_core::ScenarioReport for ScenarioReport {
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

/// §3.2.4 multi-party relay: a k-relay chain over nested tunnels.
pub struct Mpr;

impl Scenario for Mpr {
    type Config = ChainConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "mpr";

    fn run_with(cfg: &ChainConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        let config = ChainConfig { seed, ..*cfg };
        run_impl(&config, opts)
    }
}

impl Mpr {
    /// Three users fetching twice each through the paper's two-relay
    /// chain. Served, the same chain with a user per client and a fetch
    /// per query, without recovery or a relay directory. Role order
    /// defines peer ids: `origin` 0, `relay` 1, `relay-2` 2, then
    /// `user`, `user-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: Mpr::NAME,
        run: |seed, opts| {
            let cfg = ChainConfig {
                relays: 2,
                users: 3,
                fetches_each: 2,
                geohint: false,
                seed: 0, // overridden by the run seed
            };
            Box::new(Mpr::run_with(&cfg, seed, opts))
        },
        declared_caps,
        serve: Some(|clients, queries, seed| {
            let cfg = ChainConfig {
                relays: 2,
                users: clients,
                fetches_each: queries,
                geohint: false,
                seed,
            };
            let spec = wiring(&cfg, World::new(), &RunOptions::default()).spec;
            Ok((spec, Box::new(move || Mpr::run(&cfg, seed).world)))
        }),
    };
}

impl ScenarioReport {
    /// Derive the decoupling table for user `i` over
    /// `User | Relay 1 | … | Relay k | Origin`.
    pub fn table(&self, i: usize) -> DecouplingTable {
        let mut cols: Vec<&str> = vec!["User"];
        cols.extend(self.relay_names.iter().map(String::as_str));
        cols.push("Origin");
        DecouplingTable::derive(&self.world, self.users[i], &cols)
    }

    /// The paper's §3.2.4 MPR table (k = 2).
    pub fn paper_table() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("User", "(▲, ●)"),
            ("Relay 1", "(▲, ⊙)"),
            ("Relay 2", "(△, ⊙/●)"),
            ("Origin", "(△, ●)"),
        ])
    }
}

/// Each user fetches their own account page, `GET
/// /profile/account-NNNNNN HTTP/1.1`: 36 bytes for every account, since
/// a wiring holds at most 65,535 roles.
const REQUEST_PREFIX: &[u8] = b"GET /profile/account-";
const REQUEST_SUFFIX: &[u8] = b" HTTP/1.1";
const ACCOUNT_DIGITS: usize = 6;
const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\n\r\n<private content>";

/// Direction bit in a response's sequence number. Every response carries
/// it, so a relay needs no topology to tell a response from a request —
/// which a directory-drawn chain, a full mesh, does not offer.
const RESP_BIT: u64 = 1 << 63;

/// Protocol addresses: the origin, and relay `i` at `RELAY_ADDR + i`.
const ORIGIN_ADDR: u16 = 9000;
const RELAY_ADDR: u16 = 100;

/// A request the origin cannot attribute: malformed, or naming no
/// account. It gets no response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BadRequest;

/// Account numbers → users: scenario bookkeeping for the origin's
/// response labels, keyed by what the origin *does* read (it cannot name
/// users).
struct Accounts(Vec<UserId>);

impl Accounts {
    /// The request the holder of `account` sends.
    fn request(account: usize) -> Vec<u8> {
        format!("GET /profile/account-{account:0ACCOUNT_DIGITS$} HTTP/1.1").into_bytes()
    }

    /// The subject of a decrypted request, fail-closed. A response is
    /// labelled with the subject of its own request, so one delivered to
    /// the wrong user would show up in that user's ledger.
    fn subject(&self, plain: &[u8]) -> Result<UserId, BadRequest> {
        let digits = plain
            .strip_prefix(REQUEST_PREFIX)
            .and_then(|rest| rest.strip_suffix(REQUEST_SUFFIX))
            .filter(|d| d.len() == ACCOUNT_DIGITS && d.iter().all(u8::is_ascii_digit))
            .ok_or(BadRequest)?;
        let account = digits.iter().fold(0, |n, d| n * 10 + usize::from(d - b'0'));
        self.0.get(account).copied().ok_or(BadRequest)
    }
}

/// What the users measure, shared by every role of one run.
struct Stats {
    completed: usize,
    latencies: Vec<u64>,
    payload_bytes: usize,
    /// Retry-linkage check fed by every attempt's outermost wire bytes.
    linkage: RetryLinkage,
}

/// How a user's requests reach the origin. The endpoint types carry the
/// knowledge-cap check: a direct fetch is admitted only by the
/// explicitly coupled [`DirectOrigin`].
enum Route {
    /// No relays, the §3.3 negative example: the origin sees who asks.
    Direct(Endpoint<DirectFetch, Control, DirectOrigin>),
    /// Through a chain of relays, entered at its first.
    Relayed(Endpoint<OnionedFetch, Control, ChainRelay>, Hops),
}

/// A relayed user's chain.
enum Hops {
    /// Fixed relays, in chain order.
    Fixed(Vec<Hop>),
    /// A chain pinned from the directory at t = 0, whose hops are
    /// re-read on every wrap, so a retry after a stale-epoch rejection
    /// seals under rotated keys.
    Fleet(FleetClient),
}

/// The fetching user: one fetch in flight at a time, each attempt
/// re-sealed and re-wrapped.
struct User {
    user: UserId,
    request: Vec<u8>,
    route: Route,
    origin_pk: [u8; 32],
    origin_key: KeyId,
    geohint: bool,
    /// Fetches not yet begun.
    fetches_left: usize,
    /// Numbers every call; arms deadlines and retries under recovery
    /// only.
    arq: ReliableCall,
    /// The open fetch: its sequence number and send time.
    inflight: Option<(u64, u64)>,
    stats: Arc<Mutex<Stats>>,
}

impl User {
    /// Build one fully wrapped request: a fresh end-to-end seal and a
    /// fresh onion on every call, which is exactly what a re-randomized
    /// retransmission needs.
    fn wrap_request(&self, ctx: &mut WireCtx) -> (Vec<u8>, Label) {
        // End-to-end sealed request: only the origin reads the full
        // request; its label gives the origin (△, ●) — plus a coarse
        // location item when the geohint regression is enabled.
        let mut origin_items = vec![
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::sensitive_data(self.user, DataKind::Destination),
        ];
        if self.geohint {
            origin_items.push(InfoItem::partial_data(self.user, DataKind::Location));
        }
        ctx.crypto_op("hpke_seal");
        let e2e = hpke::seal(ctx.rng, &self.origin_pk, b"e2e", b"", &self.request)
            .expect("seal to origin");
        let e2e_label = Label::items(origin_items).sealed(self.origin_key);
        // The user's own envelope: the first hop sees the user's network
        // identity (▲) and that traffic is flowing.
        let envelope = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Payload),
        ]);
        let Route::Relayed(_, chain) = &self.route else {
            return (e2e, envelope.and(e2e_label));
        };

        // Exit-visible part: the destination FQDN (⊙/●) of an anonymous
        // user (△); the exit must see it to connect.
        let mut exit_plain = ORIGIN_ADDR.to_be_bytes().to_vec();
        exit_plain.extend_from_slice(&e2e);
        let exit_label = Label::items([
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::partial_data(self.user, DataKind::Destination),
        ])
        .and(e2e_label);
        let (bytes, onion_label) = match chain {
            Hops::Fixed(hops) => {
                for _ in hops {
                    ctx.crypto_op("hpke_seal");
                }
                onion::wrap(ctx.rng, hops, &exit_plain, exit_label)
            }
            Hops::Fleet(client) => {
                for _ in client.chain() {
                    ctx.crypto_op("hpke_seal");
                }
                let hops = client.hops();
                onion::wrap_epochs(
                    ctx.rng,
                    &hops,
                    onion::DELIVER_LOCAL,
                    &exit_plain,
                    exit_label,
                )
            }
        }
        .expect("onion");
        // Relay 1 opens the envelope but not the onion (⊙).
        (bytes, envelope.and(onion_label))
    }

    /// Begin the next fetch, if one is left.
    fn fetch(&mut self, ctx: &mut WireCtx) {
        if self.fetches_left == 0 {
            return;
        }
        self.fetches_left -= 1;
        lock(&self.stats).payload_bytes += self.request.len();
        let att = self.arq.open();
        self.inflight = Some((att.seq, ctx.now_us()));
        self.transmit(ctx, att);
    }

    /// (Re)transmit fetch `att.seq`: every attempt re-seals and re-wraps,
    /// so no two attempts share a byte of ciphertext on any wire.
    fn transmit(&mut self, ctx: &mut WireCtx, att: Attempt) {
        let (bytes, label) = self.wrap_request(ctx);
        lock(&self.stats)
            .linkage
            .record(self.user.0, att.seq, att.attempt, &bytes);
        let msg = WireMsg::data(wire::frame(att.seq, &bytes), label);
        match &self.route {
            Route::Direct(origin) => ctx.send_to(*origin, msg),
            Route::Relayed(entry, _) => ctx.send_to(*entry, msg),
        }
        ctx.arm(&self.arq, &att);
    }
}

impl WireRole for User {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::Destination));
        self.fetch(ctx);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, _from: PeerId, msg: WireMsg) {
        // Only a response numbered for the open fetch completes it, so a
        // duplicated or late response changes nothing.
        let Some((seq, _body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Some((open, sent_at)) = self.inflight else {
            return;
        };
        if seq & !RESP_BIT != open {
            return;
        }
        self.inflight = None;
        self.arq.complete(open);
        let now = ctx.now_us();
        ctx.span("fetch", sent_at, now);
        let mut stats = lock(&self.stats);
        stats.completed += 1;
        stats.latencies.push(now - sent_at);
        stats.payload_bytes += RESPONSE.len();
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

/// A relay's decryption material: one fixed keypair (plain runs) or an
/// epoch keyring fed by the fleet directory (fleet runs), whose
/// rotations publish to the `home` directory.
enum RelayKeys {
    Plain { kp: hpke::Keypair, key_id: KeyId },
    Fleet { relay: FleetRelay, home: PeerId },
}

impl RelayKeys {
    /// Peel one onion layer, returning its content and the world key
    /// that sealed it; `None` for a layer that does not open. Fleet
    /// layers carry their sealing epoch in the clear: the matching
    /// keypair is selected first, and a stale or future epoch is a
    /// typed rejection (counted in the run stats), never a guessed key.
    fn peel(&mut self, cipher: &[u8]) -> Option<(Unwrapped, KeyId)> {
        match self {
            RelayKeys::Plain { kp, key_id } => {
                Some((onion::unwrap_layer(kp, cipher).ok()?, *key_id))
            }
            RelayKeys::Fleet { relay, .. } => {
                let (epoch, sealed) = onion::read_epoch(cipher).ok()?;
                let (kp, key_id) = relay.open_epoch(epoch).ok()?;
                Some((onion::unwrap_layer(kp, sealed).ok()?, key_id))
            }
        }
    }
}

/// The sealed part of a two-part label bundle (what the next hop may
/// open), or the label itself.
fn sealed_part(label: Label) -> Label {
    match label {
        Label::Bundle(mut parts) if parts.len() == 2 => parts.swap_remove(1),
        other => other,
    }
}

/// Peel `label` in step with the bytes it shadows: the layer sealed
/// under `key`. A `Public` label stays `Public` — in multi-process mode
/// frames arrive without labels. Any other mismatch means bytes and
/// labels no longer describe one message: `None`, and the frame drops.
fn peel_label(label: Label, key: KeyId) -> Option<Label> {
    match label {
        Label::Public => Some(Label::Public),
        other => onion::unwrap_label(&other, key).ok(),
    }
}

/// A chain relay, any position: peels one layer forward, re-keying the
/// request under its own sequence number, and routes each response back
/// along the route that number recorded.
struct Relay {
    keys: RelayKeys,
    /// Next-hop address → peer: the origin and the next relay (every
    /// other relay, on a fleet run's full mesh).
    addr_map: Vec<(u16, PeerId)>,
    /// Back-routes keyed by the sequence number this relay minted:
    /// take-once, so a duplicated response dies here instead of riding
    /// another request's route.
    hop: HopMap<(PeerId, u64)>,
}

impl WireRole for Relay {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        if let RelayKeys::Fleet { relay, .. } = &self.keys {
            if let Some(delay_us) = relay.first_tick_us() {
                ctx.set_timer(delay_us, ROTATE_TOKEN);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        let RelayKeys::Fleet { relay, home } = &mut self.keys else {
            return;
        };
        if token != ROTATE_TOKEN {
            return;
        }
        if let Some(rot) = relay.rotate() {
            ctx.send(*home, WireMsg::data(rot.frame, Label::Public));
            if let Some(delay_us) = rot.next_us {
                ctx.set_timer(delay_us, ROTATE_TOKEN);
            }
        }
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        if seq & RESP_BIT != 0 {
            let Some((prev, prev_seq)) = self.hop.take(seq & !RESP_BIT) else {
                return; // duplicated response: its route was consumed
            };
            let back = wire::frame(prev_seq | RESP_BIT, body);
            ctx.send(prev, WireMsg::response(back, msg.label));
            return;
        }
        // Forward: peel one layer of bytes and label. A layer that fails
        // to peel is dropped — a relay never forwards traffic it cannot
        // vouch for.
        ctx.crypto_op("hpke_open");
        let Some((unwrapped, layer_key)) = self.keys.peel(body) else {
            return;
        };
        let Some(inner) = peel_label(sealed_part(msg.label), layer_key) else {
            return;
        };
        let (next, bytes, label) = match unwrapped {
            Unwrapped::Forward { next, bytes } => (next, bytes, inner),
            // Exit relay: payload = origin address ‖ e2e-sealed request;
            // the origin gets only the sealed part of the label.
            Unwrapped::Deliver { payload } => match payload.as_slice() {
                [hi, lo, request @ ..] => (
                    u16::from_be_bytes([*hi, *lo]),
                    request.to_vec(),
                    sealed_part(inner),
                ),
                _ => return, // truncated exit payload
            },
        };
        let Some(&(_, to)) = self.addr_map.iter().find(|(a, _)| *a == next) else {
            return; // unroutable hop: drop, never misdeliver
        };
        let pseq = self.hop.insert((from, seq));
        ctx.send(to, WireMsg::data(wire::frame(pseq, &bytes), label));
    }
}

/// The origin: opens each request, names its subject from the account
/// it fetches, and answers — statelessly, so a retransmission is simply
/// answered again and the user's ARQ dedups.
struct Origin {
    kp: hpke::Keypair,
    resp_key: KeyId,
    accounts: Accounts,
}

impl WireRole for Origin {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, cipher)) = wire::unframe(&msg.payload) else {
            return;
        };
        // Fail closed: an undecryptable or unattributable request gets
        // no response at all.
        ctx.crypto_op("hpke_open");
        let Ok(request) = hpke::open(&self.kp, b"e2e", b"", cipher) else {
            return;
        };
        let Ok(user) = self.accounts.subject(&request) else {
            return;
        };
        // Response content is the user's sensitive data, sealed end to
        // end back to them.
        let label = Label::items([InfoItem::sensitive_data(user, DataKind::Destination)])
            .sealed(self.resp_key);
        let response = wire::frame(seq | RESP_BIT, RESPONSE);
        ctx.send(from, WireMsg::response(response, label));
    }
}

/// A built MPR run: its roles, what they measure, the relay names the
/// table is derived over, and — on fleet runs — the fleet setup the
/// summary is read from and the directory nodes the simulator hosts
/// after the roles.
struct Wiring {
    spec: ServeSpec,
    stats: Arc<Mutex<Stats>>,
    relay_names: Vec<String>,
    fleet: Option<(FleetSetup, Vec<DirectoryNode>)>,
}

/// Build the chain's world and roles for either engine. Peer ids: origin
/// 0, relays 1..=pool, then users; a fleet run's directory nodes follow.
///
/// The world mutation order and the setup RNG's draws are load-bearing:
/// a metrics sink observes entity creation in sequence, and the DST
/// probes are byte-identical across refactors only if both hold.
fn wiring(cfg: &ChainConfig, mut world: World, opts: &RunOptions) -> Wiring {
    use rand::SeedableRng;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x33bb);

    let user_org = world.add_org("users");
    let origin_org = world.add_org("origin-co");
    let origin_e = world.add_entity("Origin", origin_org, None);

    // Fleet mode: relays come from a gossiped directory instead of
    // static wiring. `pool = 0` means "the wiring's own relay count".
    let fleet_on = opts.fleet.enabled && cfg.relays > 0;
    assert!(
        !fleet_on || opts.recover.enabled,
        "fleet mode requires the recovery runtime (RunOptions::recovered): \
         churn survival rides the ARQ's re-sealed retransmissions"
    );
    let pool = if fleet_on {
        cfg.relays.max(opts.fleet.pool as usize)
    } else {
        cfg.relays
    };

    let mut relay_entities = Vec::new();
    let mut relay_names = Vec::new();
    for i in 0..pool {
        let org = world.add_org(&format!("relay-op-{i}"));
        let name = format!("Relay {}", i + 1);
        relay_entities.push(world.add_entity(&name, org, None));
        relay_names.push(name);
    }

    let mut users = Vec::new();
    let mut user_entities = Vec::new();
    for i in 0..cfg.users {
        let u = world.add_user();
        user_entities.push(world.add_entity(&nth("User", ' ', i), user_org, Some(u)));
        users.push(u);
    }

    // Directory entities register after every baseline entity so the
    // byte-identity probe can compare fleet runs against the fixed-relay
    // baseline on the baseline's own rows.
    let relay_addrs: Vec<u16> = (0..pool).map(|i| RELAY_ADDR + i as u16).collect();
    let mut dir_entities = Vec::new();
    let mut fleet_setup = fleet_on.then(|| {
        let dir_org = world.add_org("directory-auth");
        for j in 0..opts.fleet.directories.max(1) {
            dir_entities.push(world.add_entity(&format!("Directory {}", j + 1), dir_org, None));
        }
        FleetSetup::build(
            &mut world,
            &opts.fleet,
            cfg.seed,
            &relay_entities,
            &relay_addrs,
        )
    });

    // Keys: one per relay (fleet mode mints them per epoch instead),
    // one for the origin's e2e, one for responses.
    let relay_kps: Vec<hpke::Keypair> = if fleet_on {
        Vec::new()
    } else {
        (0..pool)
            .map(|_| hpke::Keypair::generate(&mut setup_rng))
            .collect()
    };
    let hops: Vec<Hop> = relay_kps
        .iter()
        .zip(&relay_entities)
        .zip(&relay_addrs)
        .map(|((kp, &e), &addr)| Hop {
            addr,
            pk: kp.public,
            key_id: world.new_key(&[e]),
        })
        .collect();
    let origin_kp = hpke::Keypair::generate(&mut setup_rng);
    let origin_key = world.new_key(&[origin_e]);
    let resp_key = world.new_key(&[]);
    for &e in &user_entities {
        world.grant_key(e, resp_key);
    }

    let origin = Origin {
        kp: origin_kp.clone(),
        resp_key,
        accounts: Accounts(users.clone()),
    };
    // A zero-relay wiring puts the origin in the coupled direct role:
    // both are services, only the knowledge cap differs.
    let mut roles = vec![if cfg.relays == 0 {
        RoleSpec::of::<DirectOrigin>("origin", origin_e, Box::new(origin))
    } else {
        RoleSpec::of::<ChainOrigin>("origin", origin_e, Box::new(origin))
    }];

    let dir_peers: Vec<PeerId> = (0..dir_entities.len())
        .map(|j| PeerId::at(1 + pool + cfg.users + j))
        .collect();
    for (i, &e) in relay_entities.iter().enumerate() {
        // Plain mode: each relay forwards to the next relay or to the
        // origin. Fleet mode: chains are directory-drawn, so every relay
        // can route to every other relay.
        let mut addr_map = vec![(ORIGIN_ADDR, PeerId(0))];
        for (j, &addr) in relay_addrs.iter().enumerate() {
            if (fleet_on && j != i) || (!fleet_on && j == i + 1) {
                addr_map.push((addr, PeerId::at(1 + j)));
            }
        }
        let keys = match &mut fleet_setup {
            Some(fs) => RelayKeys::Fleet {
                relay: fs.relay(i as u16),
                home: dir_peers[i % dir_peers.len()],
            },
            None => RelayKeys::Plain {
                kp: relay_kps[i].clone(),
                key_id: hops[i].key_id,
            },
        };
        let relay = Relay {
            keys,
            addr_map,
            hop: HopMap::new(),
        };
        roles.push(RoleSpec::of::<ChainRelay>(
            nth("relay", '-', i),
            e,
            Box::new(relay),
        ));
    }

    let stats = Arc::new(Mutex::new(Stats {
        completed: 0,
        latencies: Vec::new(),
        payload_bytes: 0,
        linkage: RetryLinkage::new(),
    }));
    for (i, (&user, &e)) in users.iter().zip(&user_entities).enumerate() {
        // Fleet mode: pin this user's chain from the genesis directory
        // (t = 0) — churn is survived through the pinned chain's ARQ, so
        // knowledge tables stay byte-identical to the fixed-relay run.
        let route = match &mut fleet_setup {
            Some(fs) => {
                let chain = fs.chain(cfg.relays).expect("fleet pool < chain length");
                let entry = Endpoint::new(1 + chain[0] as usize);
                Route::Relayed(entry, Hops::Fleet(fs.client(i, chain)))
            }
            None if cfg.relays == 0 => Route::Direct(Endpoint::new(0)),
            None => Route::Relayed(Endpoint::new(1), Hops::Fixed(hops.clone())),
        };
        let role = User {
            user,
            request: Accounts::request(i),
            route,
            origin_pk: origin_kp.public,
            origin_key,
            geohint: cfg.geohint,
            fetches_left: cfg.fetches_each,
            arq: ReliableCall::new(&opts.recover, derive_seed(cfg.seed, 0x3b50 + i as u64)),
            inflight: None,
            stats: stats.clone(),
        };
        roles.push(RoleSpec::of::<ChainUser>(
            nth("user", '-', i),
            e,
            Box::new(role),
        ));
    }

    let fleet = fleet_setup.map(|mut fs| {
        let dirs = dir_entities
            .iter()
            .enumerate()
            .map(|(j, &entity)| {
                let peers = dir_peers
                    .iter()
                    .enumerate()
                    .filter(|&(p, _)| p != j)
                    .map(|(_, p)| NodeId(p.index()))
                    .collect();
                fs.directory_node(j, entity, peers)
            })
            .collect();
        (fs, dirs)
    });

    Wiring {
        spec: ServeSpec {
            scenario: Mpr::NAME,
            world,
            roles,
            expected_units: (cfg.users * cfg.fetches_each) as u64,
            taps: Vec::new(),
        },
        stats,
        relay_names,
        fleet,
    }
}

fn run_impl(cfg: &ChainConfig, opts: &RunOptions) -> ScenarioReport {
    let (world, harness) = Harness::begin(Mpr::NAME, cfg.seed, opts);
    let w = wiring(cfg, world, opts);
    let users = w.spec.world.users().to_vec();
    let expected = w.spec.expected_units;
    let (fleet, directories) = match w.fleet {
        Some((fs, dirs)) => (Some(fs), dirs),
        None => (None, Vec::new()),
    };
    let core = harness.run_spec(w.spec, LinkParams::wan_ms(10), directories);
    let stats = lock(&w.stats);
    let bytes_factor = if stats.payload_bytes == 0 {
        0.0
    } else {
        core.trace.total_bytes() as f64 / stats.payload_bytes as f64
    };
    ScenarioReport {
        world: core.world,
        trace: core.trace,
        completed: stats.completed,
        expected,
        mean_fetch_us: mean_us(&stats.latencies),
        bytes_factor,
        users,
        relay_names: w.relay_names,
        fault_log: core.fault_log,
        retry_linkage: stats.linkage.violations(),
        metrics: core.metrics,
        fleet: fleet.map_or_else(FleetSummary::disabled, |fs| fs.summary()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{analyze, collusion::entity_collusion, FaultConfig};

    fn run_chain(config: ChainConfig) -> ScenarioReport {
        Mpr::run(&config, config.seed)
    }

    #[test]
    fn instrumented_run_scales_crypto_with_relays() {
        let r2 = Mpr::run_with(&cfg(2), 5, &RunOptions::observed());
        let r3 = Mpr::run_with(&cfg(3), 5, &RunOptions::observed());
        assert!(r2.metrics.wire_accounting_holds());
        assert_eq!(r2.metrics.span_count("fetch"), r2.completed);
        // Each extra relay adds one seal and one open per fetch.
        assert!(
            r3.metrics.crypto_total() > r2.metrics.crypto_total(),
            "{} vs {}",
            r3.metrics.crypto_total(),
            r2.metrics.crypto_total()
        );
        assert!(
            r3.metrics.mean_span_us("fetch").unwrap() > r2.metrics.mean_span_us("fetch").unwrap(),
            "relays cost latency in the span data too"
        );
    }

    fn cfg(relays: usize) -> ChainConfig {
        ChainConfig {
            relays,
            users: 1,
            fetches_each: 2,
            geohint: false,
            seed: 5,
        }
    }

    #[test]
    fn two_hop_reproduces_paper_table() {
        let report = run_chain(cfg(2));
        assert_eq!(report.completed, 2);
        let derived = report.table(0);
        let expected = ScenarioReport::paper_table();
        assert_eq!(
            derived,
            expected,
            "diff:\n{}",
            derived.diff(&expected).unwrap_or_default()
        );
        assert!(analyze(&report.world).decoupled);
    }

    #[test]
    fn direct_couples_at_origin() {
        let report = run_chain(cfg(0));
        let verdict = analyze(&report.world);
        assert!(!verdict.decoupled);
        assert!(verdict.offenders().contains(&"Origin"));
    }

    #[test]
    fn single_relay_is_a_vpn_shape() {
        // With one relay, the exit *is* the entry: it sees both ▲ and the
        // destination — the §3.3 cautionary tale emerges naturally.
        let report = run_chain(cfg(1));
        let verdict = analyze(&report.world);
        assert!(!verdict.decoupled);
        assert!(verdict.offenders().contains(&"Relay 1"));
        let rep = entity_collusion(&report.world, report.users[0], 2);
        assert_eq!(rep.min_coalition_size, Some(1));
    }

    #[test]
    fn collusion_bar_rises_with_relays() {
        let mut last = 1;
        for k in [2usize, 3, 4] {
            let report = run_chain(cfg(k));
            assert!(analyze(&report.world).decoupled, "k={k}");
            let rep = entity_collusion(&report.world, report.users[0], k + 1);
            let min = rep.min_coalition_size.unwrap();
            assert!(min >= 2, "k={k}: {min}");
            assert!(min >= last, "non-decreasing in k");
            last = min;
        }
    }

    #[test]
    fn latency_grows_with_relays() {
        let l: Vec<f64> = [0usize, 1, 2, 3]
            .iter()
            .map(|&k| run_chain(cfg(k)).mean_fetch_us)
            .collect();
        assert!(l[0] < l[1] && l[1] < l[2] && l[2] < l[3], "{l:?}");
    }

    #[test]
    fn bytes_overhead_grows_with_relays() {
        let b0 = run_chain(cfg(0)).bytes_factor;
        let b3 = run_chain(cfg(3)).bytes_factor;
        assert!(b3 > b0, "onion layers cost bytes: {b0} vs {b3}");
    }

    #[test]
    fn geohint_adds_location_knowledge_at_origin() {
        let without = run_chain(cfg(2));
        let with = run_chain(ChainConfig {
            geohint: true,
            ..cfg(2)
        });
        let origin_plain = without
            .world
            .ledger(without.world.entity_by_name("Origin").id)
            .len();
        let origin_geo = with
            .world
            .ledger(with.world.entity_by_name("Origin").id)
            .len();
        assert_eq!(origin_geo, origin_plain + 1, "one extra location item");
        // Still nominally decoupled (no ▲ at the origin) — the regression
        // is a *knowledge increase*, which is the paper's point about
        // metadata requirements eroding the principle.
        assert!(analyze(&with.world).decoupled);
    }

    #[test]
    fn multi_user_chains_complete() {
        let report = run_chain(ChainConfig {
            relays: 2,
            users: 3,
            fetches_each: 2,
            geohint: false,
            seed: 9,
        });
        assert_eq!(report.completed, 6);
        assert!(analyze(&report.world).decoupled);
    }

    #[test]
    fn recovered_harsh_run_completes_every_fetch_exactly_once() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        let cfg = ChainConfig {
            relays: 2,
            users: 2,
            fetches_each: 2,
            geohint: false,
            seed: 31,
        };
        let calm = Mpr::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Mpr::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(calm.completed, 4, "calm recovered run fetches everything");
        assert_eq!(
            harsh.completed as u64,
            harsh.expected_units().unwrap(),
            "under harsh faults the recovery layer still finishes the workload"
        );
        assert!(!harsh.fault_log.is_empty(), "harsh actually injected");
        assert!(
            harsh.retry_linkage().is_empty(),
            "re-wrapped onion attempts are never linkable: {:?}",
            harsh.retry_linkage()
        );
        assert_eq!(
            KnowledgeFingerprint::of(&harsh.world),
            KnowledgeFingerprint::of(&calm.world),
            "recovery must not change anyone's knowledge ledger"
        );
        assert_eq!(harsh.table(0), calm.table(0));
        assert!(analyze(&harsh.world).decoupled);
    }

    /// The tentpole acceptance bar: a fleet-enabled run under
    /// `harsh_fleet()` (wire faults + directory churn + key rotation +
    /// directory partitions) completes its whole workload with knowledge
    /// tables byte-identical to the fixed-relay, fault-free baseline.
    #[test]
    fn fleet_run_survives_churn_with_baseline_knowledge() {
        use dcp_core::ScenarioReport as _;
        use dcp_runtime::{entities_silent, restricted_fingerprint, FleetConfig};
        use std::collections::BTreeSet;

        let cfg = ChainConfig {
            relays: 2,
            users: 2,
            fetches_each: 2,
            geohint: false,
            seed: 17,
        };
        let baseline = Mpr::run_with(&cfg, 17, &RunOptions::recovered(&FaultConfig::calm()));
        let fleet = Mpr::run_with(
            &cfg,
            17,
            &RunOptions::recovered(&FaultConfig::harsh_fleet())
                .with_fleet(&FleetConfig::standard()),
        );

        assert_eq!(
            fleet.completed as u64,
            fleet.expected_units().unwrap(),
            "fleet run under harsh_fleet left fetches unfinished"
        );
        assert!(fleet.fleet.enabled);
        assert!(fleet.fleet.converged, "directories ended divergent");
        assert!(
            fleet.fleet.stats.rotations > 0,
            "rotation schedule never fired"
        );
        assert!(entities_silent(&fleet.world, "Directory"));

        let names: BTreeSet<String> = baseline
            .world
            .entities()
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(
            restricted_fingerprint(&fleet.world, &names),
            restricted_fingerprint(&baseline.world, &names),
            "fleet run changed a baseline entity's knowledge"
        );
        assert!(analyze(&fleet.world).decoupled);
    }

    /// Mid-run key rotation is knowledge-invariant: the same run with
    /// rotation disabled produces identical knowledge tables.
    #[test]
    fn fleet_rotation_never_changes_knowledge() {
        use dcp_faults::dst::KnowledgeFingerprint;
        use dcp_runtime::FleetConfig;

        let cfg = ChainConfig {
            relays: 2,
            users: 2,
            fetches_each: 2,
            geohint: false,
            seed: 23,
        };
        let rotating = Mpr::run_with(
            &cfg,
            23,
            &RunOptions::recovered(&FaultConfig::calm()).with_fleet(&FleetConfig::standard()),
        );
        let frozen = Mpr::run_with(
            &cfg,
            23,
            &RunOptions::recovered(&FaultConfig::calm())
                .with_fleet(&FleetConfig::standard().max_rotations(0)),
        );
        assert!(rotating.fleet.stats.rotations > 0);
        assert_eq!(frozen.fleet.stats.rotations, 0);
        assert_eq!(
            KnowledgeFingerprint::of(&rotating.world),
            KnowledgeFingerprint::of(&frozen.world),
            "key rotation leaked into a knowledge ledger"
        );
        assert_eq!(rotating.completed, frozen.completed);
    }

    /// Without recovery a drop or a duplicate must not shift a response
    /// onto the wrong user: every leg is sequence-framed and each relay
    /// routes a response back by the number it minted, and a response
    /// is labelled with the subject of its own request. A relay that
    /// pairs responses with requests by arrival order (a FIFO back-route
    /// stack) hands another user's destination to a user at each of
    /// these seeds.
    #[test]
    fn drops_without_recovery_never_cross_answers() {
        let cfg = ChainConfig {
            relays: 2,
            users: 2,
            fetches_each: 3,
            ..ChainConfig::default()
        };
        let opts = RunOptions::with_faults(&FaultConfig::moderate());
        for seed in [0, 1, 2, 4] {
            let report = Mpr::run_with(&cfg, seed, &opts);
            assert!(!report.fault_log.is_empty(), "seed {seed}: no faults");
            for e in report.world.entities() {
                let Some(own) = e.user_domain else { continue };
                let foreign: Vec<_> = report
                    .world
                    .ledger(e.id)
                    .iter()
                    .filter(|item| item.subject != own)
                    .collect();
                assert!(
                    foreign.is_empty(),
                    "seed {seed}: {} holds {foreign:?}",
                    e.name
                );
            }
        }
    }

    /// Process mode delivers frames without labels: a relay carries a
    /// `Public` label through unchanged, peels a sealed one only under
    /// its own key, and drops any other mismatch.
    #[test]
    fn relays_peel_only_sealed_labels() {
        let item = InfoItem::sensitive_data(UserId(0), DataKind::Destination);
        let sealed = Label::item(item.clone()).sealed(KeyId(3));
        assert_eq!(peel_label(Label::Public, KeyId(3)), Some(Label::Public));
        assert_eq!(
            peel_label(sealed.clone(), KeyId(3)),
            Some(Label::item(item.clone()))
        );
        assert_eq!(peel_label(sealed, KeyId(4)), None);
        assert_eq!(peel_label(Label::item(item), KeyId(3)), None);
    }

    use proptest::prelude::*;

    proptest! {
        /// The origin's request parser runs on decrypted bytes from any
        /// sender: arbitrary plaintext names a known user or fails
        /// closed, and every user's own request names that user.
        #[test]
        fn request_parser_fails_closed_and_round_trips(
            plain in proptest::collection::vec(any::<u8>(), 0..48),
            users in 1usize..64,
            account in 0usize..65_535,
            (at, bits) in (any::<usize>(), any::<u8>()),
        ) {
            let accounts = Accounts((0..users as u64).map(UserId).collect());
            if let Ok(user) = accounts.subject(&plain) {
                prop_assert!(accounts.0.contains(&user));
            }
            let request = Accounts::request(account);
            prop_assert_eq!(request.len(), 36);
            let big = Accounts((0..65_535).map(UserId).collect());
            prop_assert_eq!(big.subject(&request), Ok(UserId(account as u64)));
            let mut bent = request.clone();
            let at = at % bent.len();
            bent[at] ^= bits;
            match big.subject(&bent) {
                Ok(user) => prop_assert!(bits == 0 || user != UserId(account as u64)),
                Err(BadRequest) => prop_assert!(bits != 0),
            }
            prop_assert_eq!(big.subject(&request[..request.len() - 1]), Err(BadRequest));
        }
    }

    #[test]
    fn recovered_calm_run_matches_plain_completion() {
        let plain = run_chain(ChainConfig { seed: 7, ..cfg(2) });
        let rec = Mpr::run_with(&cfg(2), 7, &RunOptions::recovered(&FaultConfig::calm()));
        assert_eq!(plain.completed, rec.completed);
        assert_eq!(plain.table(0), rec.table(0));
    }
}
