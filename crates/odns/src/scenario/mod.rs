//! Simulator scenarios: ODoH, legacy ODNS, direct DNS (the coupled
//! baseline), and the §5.1 striping experiment.
//!
//! Each wiring is written once, as seam roles that the simulator hosts
//! here and `dcp-serve` hosts over sockets (each wiring's
//! `REGISTRATION`): `odoh`
//! (proxy → target encapsulation), `legacy` (the 2019 protocol, where
//! the ciphertext hides in the queried *name*) and `direct` (plain DNS,
//! optionally striped). Every leg carries a hop-local sequence number
//! (`dcp_runtime::wire` framing) that each hop re-keys with a `HopMap`,
//! so no hop pairs answers with queries by arrival order, and a run's
//! `RecoverConfig` only arms the clients' retries (and ODoH's backup
//! proxies).
//!
//! This hub holds what the wirings share: the report, the configs, the
//! workload zone, the `Origin` all three terminate at, and the
//! one-host-per-role run path. ODNS and ODoH are one decoupling
//! (§3.2.2), so they also share their world layout, their labels and the
//! `Proxy`: legacy ODNS's unmodified recursive resolver is ODoH's proxy.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, EntityId, IdentityKind, InfoItem, KeyId, Label, MetricsReport, RecoverConfig,
    RunOptions, Scenario, UserId, World,
};
use dcp_crypto::hpke;
use dcp_dns::workload::ZipfWorkload;
use dcp_dns::{DnsName, Message as DnsMessage, RecordData, Zone};
use dcp_faults::FaultLog;
use dcp_runtime::seam::{
    lock, nth, PeerId, Registration, RoleSpec, ServeSpec, Twin, WireCtx, WireMsg, WireRole,
};
use dcp_runtime::{
    mean_us, wire, Control, Endpoint, Harness, HopMap, LinkParams, RetryLinkage, Trace,
};
use rand::SeedableRng;

use crate::types::{
    declared_caps, direct_declared_caps, AuthOrigin, DnsQuery, ObliviousProxy, ObliviousQuery,
    ObliviousTarget,
};

pub(crate) mod direct;
pub(crate) mod legacy;
pub(crate) mod odoh;

/// Outcome of a DNS scenario run.
pub struct ScenarioReport {
    /// Knowledge base.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// Queries answered end-to-end.
    pub answered: usize,
    /// Mean end-to-end query latency (µs).
    pub mean_query_us: f64,
    /// The client users.
    pub users: Vec<UserId>,
    /// Distinct query names each resolver saw (striping metric; one entry
    /// per resolver in node order; for ODoH the proxy sees zero).
    pub resolver_views: Vec<usize>,
    /// Total distinct names queried.
    pub distinct_names: usize,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (`clients × queries_each`).
    pub expected: u64,
    /// Retry-linkage violations: attempts of one query an observer could
    /// correlate by ciphertext equality (empty is the pass).
    pub retry_linkage: Vec<String>,
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
        self.answered as u64
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

impl ScenarioReport {
    /// Derive the §3.2.2 table for user `i` (ODoH runs).
    pub fn table(&self, i: usize) -> DecouplingTable {
        DecouplingTable::derive(
            &self.world,
            self.users[i],
            &["Client", "Resolver", "Oblivious Resolver", "Origin"],
        )
    }

    /// The paper's ODNS/ODoH table.
    pub fn paper_table() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("Client", "(▲, ●)"),
            ("Resolver", "(▲, ⊙)"),
            ("Oblivious Resolver", "(△, ⊙/●)"),
            ("Origin", "(△, ●)"),
        ])
    }
}

// ------------------------------------------------------ unified Scenario --

/// Config for the [`Odoh`] scenario.
#[derive(Clone, Debug)]
pub struct OdohConfig {
    /// Number of clients.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_each: usize,
    /// Backup proxies behind the primary, used only when the run's
    /// [`RecoverConfig`] is enabled: clients
    /// rotate across all proxies by sequence number (so every proxy
    /// serves calm traffic too) and the circuit breaker fails over
    /// between them. `0` (the default) keeps the classic single-proxy
    /// topology.
    pub backup_proxies: usize,
}

impl Default for OdohConfig {
    fn default() -> Self {
        OdohConfig {
            clients: 1,
            queries_each: 4,
            backup_proxies: 0,
        }
    }
}

impl OdohConfig {
    /// `clients` clients issuing `queries_each` queries each.
    pub fn new(clients: usize, queries_each: usize) -> Self {
        OdohConfig {
            clients,
            queries_each,
            backup_proxies: 0,
        }
    }

    /// Set the client count.
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Set the per-client query count.
    pub fn queries_each(mut self, queries_each: usize) -> Self {
        self.queries_each = queries_each;
        self
    }

    /// Set the backup-proxy count (effective only under recovery).
    pub fn backup_proxies(mut self, backup_proxies: usize) -> Self {
        self.backup_proxies = backup_proxies;
        self
    }
}

/// Config for the [`DirectDns`] scenario.
#[derive(Clone, Debug)]
pub struct DirectDnsConfig {
    /// Number of clients.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_each: usize,
    /// Resolvers to stripe across (`1` = the coupled direct baseline).
    pub resolvers: usize,
}

impl Default for DirectDnsConfig {
    fn default() -> Self {
        DirectDnsConfig {
            clients: 1,
            queries_each: 4,
            resolvers: 1,
        }
    }
}

impl DirectDnsConfig {
    /// `clients` clients, `queries_each` queries each, striped across
    /// `resolvers` resolvers.
    pub fn new(clients: usize, queries_each: usize, resolvers: usize) -> Self {
        DirectDnsConfig {
            clients,
            queries_each,
            resolvers,
        }
    }

    /// Set the client count.
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Set the per-client query count.
    pub fn queries_each(mut self, queries_each: usize) -> Self {
        self.queries_each = queries_each;
        self
    }

    /// Set the resolver count.
    pub fn resolvers(mut self, resolvers: usize) -> Self {
        self.resolvers = resolvers;
        self
    }
}

/// Config for the [`OdnsLegacy`] scenario.
#[derive(Clone, Debug)]
pub struct OdnsLegacyConfig {
    /// Number of clients.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_each: usize,
}

impl Default for OdnsLegacyConfig {
    fn default() -> Self {
        OdnsLegacyConfig {
            clients: 1,
            queries_each: 4,
        }
    }
}

impl OdnsLegacyConfig {
    /// `clients` clients issuing `queries_each` queries each.
    pub fn new(clients: usize, queries_each: usize) -> Self {
        OdnsLegacyConfig {
            clients,
            queries_each,
        }
    }

    /// Set the client count.
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Set the per-client query count.
    pub fn queries_each(mut self, queries_each: usize) -> Self {
        self.queries_each = queries_each;
        self
    }
}

/// §3.2.2 ODoH: clients query through proxy → target → origin.
pub struct Odoh;

impl Scenario for Odoh {
    type Config = OdohConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "odoh";

    fn run_with(cfg: &OdohConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        simulate(Self::NAME, cfg, seed, opts, odoh::wiring)
    }
}

impl Odoh {
    /// Three clients asking four queries each. Served, one proxy (no
    /// backups). Role order defines peer ids: `proxy` 0, `target` 1,
    /// `origin` 2, then `client`, `client-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: Odoh::NAME,
        run: |seed, opts| Box::new(Odoh::run_with(&OdohConfig::new(3, 4), seed, opts)),
        declared_caps,
        serve: Some(|clients, queries, seed| {
            served::<Odoh>(OdohConfig::new(clients, queries), seed, odoh::wiring)
        }),
    };
}

/// Plain DNS (the coupled baseline), optionally striped across several
/// resolvers (§5.1).
pub struct DirectDns;

impl Scenario for DirectDns {
    type Config = DirectDnsConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "dns_direct";

    fn run_with(cfg: &DirectDnsConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        simulate(Self::NAME, cfg, seed, opts, direct::wiring)
    }
}

impl DirectDns {
    /// Three clients asking four queries each, striped over two
    /// resolvers, the smallest striped wiring; served the same way. The
    /// harsh bar holds only because a call's resolver is the client's
    /// own seeded draw, which does not depend on what the faults did.
    /// Role order defines peer ids: `origin` 0, `resolver` 1,
    /// `resolver-2` 2, then `client`, `client-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: DirectDns::NAME,
        run: |seed, opts| {
            Box::new(DirectDns::run_with(
                &DirectDnsConfig::new(3, 4, 2),
                seed,
                opts,
            ))
        },
        declared_caps: direct_declared_caps,
        serve: Some(|clients, queries, seed| {
            served::<DirectDns>(
                DirectDnsConfig::new(clients, queries, 2),
                seed,
                direct::wiring,
            )
        }),
    };
}

/// The original ODNS (2019): obfuscated names through an unmodified
/// recursive resolver to the oblivious authority.
pub struct OdnsLegacy;

impl Scenario for OdnsLegacy {
    type Config = OdnsLegacyConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "odns_legacy";

    fn run_with(cfg: &OdnsLegacyConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        simulate(Self::NAME, cfg, seed, opts, legacy::wiring)
    }
}

impl OdnsLegacy {
    /// Three clients asking four queries each; served the same way. Role
    /// order defines peer ids: `recursive` 0, `authority` 1, `origin` 2,
    /// then `client`, `client-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: OdnsLegacy::NAME,
        run: |seed, opts| {
            Box::new(OdnsLegacy::run_with(
                &OdnsLegacyConfig::new(3, 4),
                seed,
                opts,
            ))
        },
        declared_caps,
        serve: Some(|clients, queries, seed| {
            served::<OdnsLegacy>(
                OdnsLegacyConfig::new(clients, queries),
                seed,
                legacy::wiring,
            )
        }),
    };
}

/// A DNS wiring's spec for `dcp-serve`, built without recovery, and its
/// simulated twin.
fn served<S>(
    cfg: S::Config,
    seed: u64,
    wiring: Wiring<S::Config>,
) -> Result<(ServeSpec, Twin), String>
where
    S: Scenario<Report = ScenarioReport>,
    S::Config: 'static,
{
    let spec = wiring(&cfg, seed, World::new(), &RecoverConfig::disabled()).0;
    Ok((spec, Box::new(move || S::run(&cfg, seed).world)))
}

/// Zone suffix used by the synthetic workloads.
pub const SUFFIX: &str = "bench.example";

/// The oblivious zone the authority serves.
pub const ODNS_ZONE: &str = "odns.example";

fn build_zone(workload: &ZipfWorkload) -> Zone {
    let mut zone = Zone::new(DnsName::parse(SUFFIX).unwrap());
    zone.add(
        DnsName::parse(SUFFIX).unwrap(),
        3600,
        RecordData::Soa {
            mname: DnsName::parse(&format!("ns1.{SUFFIX}")).unwrap(),
            rname: DnsName::parse(&format!("admin.{SUFFIX}")).unwrap(),
            serial: 1,
            minimum: 60,
        },
    );
    for i in 0..workload.domain_count() {
        let name = workload.domain(i).clone();
        let o = (i >> 8) as u8;
        zone.add(name, 300, RecordData::A([10, 0, o, (i & 0xff) as u8]));
    }
    zone
}

/// What a wiring's roles measure, shared by every role of one run (seam
/// roles are `Send`, so behind a mutex).
pub(crate) struct Stats {
    answered: usize,
    latencies: Vec<u64>,
    /// Per-resolver distinct names seen (indexed by resolver slot).
    resolver_views: Vec<HashSet<String>>,
    /// Ciphertext-equality check over every encrypted attempt (ODoH and
    /// legacy-ODNS clients record here; plain DNS makes no unlinkability
    /// claim and records nothing).
    linkage: RetryLinkage,
}

impl Stats {
    fn shared(resolver_slots: usize) -> Arc<Mutex<Stats>> {
        Arc::new(Mutex::new(Stats {
            answered: 0,
            latencies: Vec::new(),
            resolver_views: vec![HashSet::new(); resolver_slots],
            linkage: RetryLinkage::new(),
        }))
    }
}

/// Count one answered query: its span, its latency and its work unit.
fn answered(stats: &Mutex<Stats>, ctx: &mut WireCtx, sent_at: u64) {
    let now = ctx.now_us();
    ctx.span("query", sent_at, now);
    let mut stats = lock(stats);
    stats.answered += 1;
    stats.latencies.push(now - sent_at);
    drop(stats);
    ctx.unit_done();
}

/// A wiring's builder: its roles over `world`, and the stats they share.
type Wiring<C> = fn(&C, u64, World, &RecoverConfig) -> (ServeSpec, Arc<Mutex<Stats>>);

/// Host a wiring's roles on the simulator, run it to quiescence, and
/// fold what the roles measured into a [`ScenarioReport`]: the run path
/// of all three wirings.
fn simulate<C>(
    name: &'static str,
    cfg: &C,
    seed: u64,
    opts: &RunOptions,
    wiring: Wiring<C>,
) -> ScenarioReport {
    let (world, harness) = Harness::begin(name, seed, opts);
    let (spec, stats) = wiring(cfg, seed, world, &opts.recover);
    let users = spec.world.users().to_vec();
    let expected = spec.expected_units;
    let core = harness.run_spec(spec, LinkParams::wan_ms(8), Vec::new());
    let stats = lock(&stats);
    let all_names: HashSet<&String> = stats.resolver_views.iter().flatten().collect();
    ScenarioReport {
        world: core.world,
        trace: core.trace,
        answered: stats.answered,
        mean_query_us: mean_us(&stats.latencies),
        users,
        resolver_views: stats.resolver_views.iter().map(HashSet::len).collect(),
        distinct_names: all_names.len(),
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected,
        retry_linkage: stats.linkage.violations(),
    }
}

// ------------------------------------------------- the oblivious wirings --

/// Peer ids of the oblivious target and of the origin behind it.
const TARGET: usize = 1;
const ORIGIN: usize = 2;

/// The client's envelope label, whether the sealed query rides an ODoH
/// body or hex inside a domain name.
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
/// under the client response key — intermediaries learn nothing; the
/// client learns the answer it is entitled to. An ODoH target derives
/// that key too, but it sends the response and already knows the
/// answer, so the `KeyId` is granted to clients only.
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

/// Query names → the user who asks them. Clients ask disjoint names, so
/// a question names its subject: scenario bookkeeping for labels, keyed
/// by what the oblivious target *does* see (it cannot name users).
struct Subjects(HashMap<String, UserId>);

impl Subjects {
    /// The subject of `msg`'s first question. An answer is labelled with
    /// the subject of its own question, not with the user remembered for
    /// the waiter, so an answer delivered to the wrong client would show
    /// up in that client's ledger.
    fn of(&self, msg: &DnsMessage) -> Option<UserId> {
        let q0 = msg.questions.first()?;
        self.0.get(&q0.qname.to_string()).copied()
    }
}

/// The oblivious proxy — ODoH's proxy, and legacy ODNS's unmodified
/// recursive resolver: it strips the client-identifying envelope,
/// re-keys each forwarded query under its own sequence number, and
/// carries sealed bytes it cannot read. Nothing here is specific to
/// either protocol.
struct Proxy {
    target: Endpoint<ObliviousQuery, Control, ObliviousTarget>,
    /// Proxy seq → (client, client seq) for the return path. Entries are
    /// consumed on first use, so a duplicated response is dropped.
    hop: HopMap<(PeerId, u64)>,
}

impl Proxy {
    fn spec(name: String, entity: EntityId) -> RoleSpec {
        let role = Proxy {
            target: Endpoint::new(TARGET),
            hop: HopMap::new(),
        };
        RoleSpec::of::<ObliviousProxy>(name, entity, Box::new(role))
    }
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

/// How queries reach an oblivious target sealed, and how its answers
/// leave: ODoH's HPKE envelope or legacy ODNS's obfuscated name. The
/// rest of the target is one decoupling (§3.2.2), written once in
/// [`Target`].
trait Envelope: Send {
    /// What answering one query takes, kept while the origin resolves it.
    type Waiter: Send;
    /// Open a query frame's body into the plain question to resolve and
    /// its waiter; `None` (tampered, replayed, malformed) drops it.
    fn open(&self, ctx: &mut WireCtx, body: &[u8]) -> Option<(DnsMessage, Self::Waiter)>;
    /// Seal the origin's answer for the waiting client; `None` drops it,
    /// so an answer never leaves in the clear.
    fn seal(&self, ctx: &mut WireCtx, waiter: Self::Waiter, resp: &DnsMessage) -> Option<Vec<u8>>;
}

/// The oblivious target — ODoH's target, legacy ODNS's authority: opens
/// queries it cannot attribute, recurses to the origin, and seals each
/// answer back through the proxy that forwarded the query.
struct Target<E: Envelope> {
    envelope: E,
    origin: Endpoint<DnsQuery, Control, AuthOrigin>,
    client_resp_key: KeyId,
    subjects: Subjects,
    /// Opened queries awaiting the origin, keyed by the proxy that
    /// forwarded them and that proxy's sequence number, so backup
    /// proxies' numbers never collide.
    waiters: BTreeMap<(PeerId, u64), E::Waiter>,
    /// Origin-leg sequence numbers → the waiter they answer.
    origin_leg: HopMap<(PeerId, u64)>,
}

impl<E: Envelope> Target<E> {
    fn new(envelope: E, client_resp_key: KeyId, subjects: Subjects) -> Self {
        Target {
            envelope,
            origin: Endpoint::new(ORIGIN),
            client_resp_key,
            subjects,
            waiters: BTreeMap::new(),
            origin_leg: HopMap::new(),
        }
    }
}

impl<E: Envelope> WireRole for Target<E> {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        if from.index() == self.origin.index() {
            let Ok(resp) = DnsMessage::decode(body) else {
                return;
            };
            let Some(user) = self.subjects.of(&resp) else {
                return;
            };
            let Some(waiter) = self.origin_leg.take(seq) else {
                return;
            };
            let Some(state) = self.waiters.remove(&waiter) else {
                return; // a duplicated query's second answer
            };
            let Some(sealed) = self.envelope.seal(ctx, state, &resp) else {
                return;
            };
            let label = response_label(user, self.client_resp_key);
            let (proxy, pseq) = waiter;
            ctx.send(proxy, WireMsg::response(wire::frame(pseq, &sealed), label));
            return;
        }
        let Some((query, state)) = self.envelope.open(ctx, body) else {
            return;
        };
        let Some(user) = self.subjects.of(&query) else {
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

/// The authoritative origin every wiring terminates at (registered as
/// `AuthOrigin` behind an oblivious target, `ExposedOrigin` behind plain
/// resolvers): answers from its zone, echoing the asker's sequence
/// number. Stateless, so a retransmission is simply answered again.
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

/// The world ODoH and legacy ODNS write, and what their roles are built
/// from. Peer ids follow the entity order: proxy 0, target 1, origin 2,
/// then backup proxies, then clients.
struct ObliviousWorld {
    world: World,
    proxy: EntityId,
    target: EntityId,
    origin: EntityId,
    backups: Vec<EntityId>,
    users: Vec<UserId>,
    clients: Vec<EntityId>,
    target_kp: hpke::Keypair,
    target_key: KeyId,
    client_resp_key: KeyId,
    subjects: Subjects,
    /// Each client's disjoint slice of query names.
    queries: Vec<Vec<DnsName>>,
    zone: Zone,
}

/// Build the oblivious wirings' entities, keys and workload into
/// `world`: `clients` clients asking `queries_each` names each, behind
/// a proxy and `backups` backup proxies.
///
/// The world mutation order is load-bearing: a metrics sink installed
/// on `world` observes entity creation in sequence, and the DST probes
/// are byte-identical across refactors only if the order holds.
fn oblivious_world(
    mut world: World,
    seed: u64,
    clients: usize,
    queries_each: usize,
    backups: usize,
) -> ObliviousWorld {
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x0d0a);
    let workload = ZipfWorkload::new(200, 1.0, SUFFIX);

    let isp_org = world.add_org("isp");
    let odns_org = world.add_org("oblivious-operator");
    let auth_org = world.add_org("authoritative");
    let user_org = world.add_org("users");
    let proxy = world.add_entity("Resolver", isp_org, None);
    let target = world.add_entity("Oblivious Resolver", odns_org, None);
    let origin = world.add_entity("Origin", auth_org, None);

    // Each backup is an independent operator (own org), so failing over
    // genuinely changes trust.
    let backups = (1..=backups)
        .map(|i| {
            let org = world.add_org(&format!("isp-backup-{i}"));
            world.add_entity(&nth("Resolver", ' ', i), org, None)
        })
        .collect();

    let target_kp = hpke::Keypair::generate(&mut setup_rng);

    let mut users = Vec::new();
    let mut client_entities = Vec::new();
    for i in 0..clients {
        let u = world.add_user();
        client_entities.push(world.add_entity(&nth("Client", ' ', i), user_org, Some(u)));
        users.push(u);
    }

    // Key capabilities: the target holds its HPKE key; clients hold their
    // response keys. (Clients' own ledgers are seeded directly, so the
    // response KeyId is granted to no third party.)
    let target_key = world.new_key(&[target]);
    let client_resp_key = world.new_key(&[]);
    for &e in &client_entities {
        world.grant_key(e, client_resp_key);
    }

    // Assign each client a disjoint slice of names so the "which subject
    // is this query about" bookkeeping is unambiguous.
    let mut subjects = HashMap::new();
    let mut queries = Vec::new();
    for (ci, &u) in users.iter().enumerate() {
        let mut qs = Vec::new();
        for k in 0..queries_each {
            let name = workload.domain((ci * queries_each + k) % workload.domain_count());
            subjects.insert(name.to_string(), u);
            qs.push(name.clone());
        }
        queries.push(qs);
    }

    ObliviousWorld {
        world,
        proxy,
        target,
        origin,
        backups,
        users,
        clients: client_entities,
        target_kp,
        target_key,
        client_resp_key,
        subjects: Subjects(subjects),
        queries,
        zone: build_zone(&workload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{analyze, collusion::entity_collusion};

    fn run_odoh(clients: usize, queries_each: usize, seed: u64) -> ScenarioReport {
        Odoh::run(&OdohConfig::new(clients, queries_each), seed)
    }

    fn run_direct(
        clients: usize,
        queries_each: usize,
        resolvers: usize,
        seed: u64,
    ) -> ScenarioReport {
        DirectDns::run(
            &DirectDnsConfig::new(clients, queries_each, resolvers),
            seed,
        )
    }

    #[test]
    fn odoh_reproduces_paper_table() {
        let report = run_odoh(1, 3, 21);
        assert_eq!(report.answered, 3);
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
    fn odoh_needs_collusion_to_recouple() {
        let report = run_odoh(1, 2, 22);
        let rep = entity_collusion(&report.world, report.users[0], 3);
        assert_eq!(
            rep.min_coalition_size,
            Some(2),
            "{:?}",
            rep.minimal_coalitions
        );
    }

    #[test]
    fn direct_dns_is_coupled() {
        let report = run_direct(1, 3, 1, 23);
        assert_eq!(report.answered, 3);
        let verdict = analyze(&report.world);
        assert!(!verdict.decoupled);
        assert!(verdict.offenders().contains(&"Resolver"));
        // The single resolver needs no collusion at all.
        let rep = entity_collusion(&report.world, report.users[0], 2);
        assert_eq!(rep.min_coalition_size, Some(1));
    }

    #[test]
    fn odoh_costs_more_latency_than_direct() {
        let odoh = run_odoh(1, 4, 24);
        let direct = run_direct(1, 4, 1, 24);
        assert!(
            odoh.mean_query_us > direct.mean_query_us,
            "odoh {} vs direct {}",
            odoh.mean_query_us,
            direct.mean_query_us
        );
    }

    #[test]
    fn striping_reduces_per_resolver_view() {
        let striped = run_direct(2, 30, 4, 25);
        assert_eq!(striped.answered, 60);
        let total = striped.distinct_names;
        // Each resolver sees a strict subset of the name space.
        for &v in &striped.resolver_views {
            assert!(v < total, "view {v} of {total}");
            assert!(v > 0, "uniform striping uses every resolver");
        }
    }

    #[test]
    fn plain_run_leaves_metrics_disabled() {
        let report = run_odoh(1, 2, 26);
        assert!(!report.metrics.enabled);
        assert_eq!(report.metrics.messages_sent, 0);
    }

    #[test]
    fn instrumented_run_collects_metrics() {
        let report = Odoh::run_with(&OdohConfig::new(1, 3), 21, &RunOptions::observed());
        assert_eq!(report.answered, 3);
        assert!(report.metrics.enabled);
        assert_eq!(report.metrics.scenario, "odoh");
        assert!(
            report.metrics.wire_accounting_holds(),
            "{:?}",
            report.metrics
        );
        assert_eq!(
            report.metrics.span_count("query"),
            report.answered,
            "one query span per answered query"
        );
        // Per query, an encapsulation and a seal (client) and a
        // decapsulation and an open (target); the answer rides the
        // query's context, so it costs one seal and one open, no KEM.
        let expected: std::collections::BTreeMap<String, u64> = [
            ("hpke_decap", 3),
            ("hpke_encap", 3),
            ("hpke_open", 6),
            ("hpke_seal", 6),
        ]
        .into_iter()
        .map(|(op, n)| (op.to_string(), n))
        .collect();
        assert_eq!(report.metrics.crypto_ops, expected);
        assert!(report.metrics.knowledge_by_entity.contains_key("Resolver"));
        assert_eq!(
            report.metrics.messages_delivered as usize,
            report.trace.len(),
            "trace and metrics agree on delivered wire messages"
        );
    }

    #[test]
    fn instrumentation_does_not_change_outcomes() {
        let plain = run_odoh(1, 3, 27);
        let inst = Odoh::run_with(&OdohConfig::new(1, 3), 27, &RunOptions::observed());
        assert_eq!(plain.answered, inst.answered);
        assert_eq!(plain.mean_query_us, inst.mean_query_us);
        assert_eq!(plain.trace.len(), inst.trace.len());
        assert_eq!(plain.table(0), inst.table(0));
    }

    #[test]
    fn direct_runs_support_faults_now() {
        use dcp_faults::FaultConfig;
        let report = DirectDns::run_with(
            &DirectDnsConfig::new(2, 10, 2),
            29,
            &RunOptions::with_faults(&FaultConfig::moderate()),
        );
        assert!(
            !report.fault_log.is_empty(),
            "moderate preset injects faults on the direct path"
        );
    }

    #[test]
    fn recovered_harsh_odoh_completes_with_baseline_tables() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        use dcp_faults::FaultConfig;
        let cfg = OdohConfig::new(2, 4).backup_proxies(1);
        let calm = Odoh::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Odoh::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(calm.answered, 8, "calm recovered run answers everything");
        assert_eq!(
            harsh.answered as u64,
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

    /// Two proxies mint overlapping sequence numbers, so the target must
    /// key each waiter by its proxy too, or an answer reaches the wrong
    /// client — and lands in that client's ledger, since a response
    /// label names the answer's own subject. A target keyed by the proxy
    /// sequence alone fails at these seeds.
    #[test]
    fn backup_proxies_never_cross_answers() {
        use dcp_faults::dst::KnowledgeFingerprint;
        use dcp_faults::FaultConfig;
        let cfg = OdohConfig::new(2, 3).backup_proxies(1);
        for seed in [0, 36, 43, 45] {
            let calm = Odoh::run_with(&cfg, seed, &RunOptions::recovered(&FaultConfig::calm()));
            let harsh = Odoh::run_with(&cfg, seed, &RunOptions::recovered(&FaultConfig::harsh()));
            assert_eq!(
                KnowledgeFingerprint::of(&harsh.world),
                KnowledgeFingerprint::of(&calm.world),
                "seed {seed}: harsh tables drifted from the calm twin"
            );
        }
    }

    /// Without recovery a drop must not shift answers onto the wrong
    /// client: every leg is sequence-framed, so no hop pairs answers
    /// with queries by arrival order. Arrival-order pairing fails at
    /// these seeds — ODoH's at the first four, legacy ODNS's at the
    /// rest.
    #[test]
    fn drops_without_recovery_never_cross_answers() {
        use dcp_faults::FaultConfig;
        let opts = RunOptions::with_faults(&FaultConfig::moderate());
        let odoh = [3, 8, 11, 12].map(|seed| {
            let report = Odoh::run_with(&OdohConfig::new(2, 3), seed, &opts);
            ("odoh", seed, report)
        });
        let legacy = [0, 3, 4, 16].map(|seed| {
            let report = OdnsLegacy::run_with(&OdnsLegacyConfig::new(2, 3), seed, &opts);
            ("legacy", seed, report)
        });
        for (name, seed, report) in odoh.iter().chain(&legacy) {
            assert!(
                !report.fault_log.is_empty(),
                "{name} seed {seed}: no faults"
            );
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
                    "{name} seed {seed}: {} holds {foreign:?}",
                    e.name
                );
            }
        }
    }

    /// Recovery must finish the workload without teaching anyone
    /// anything the calm run did not. For direct DNS that needs each
    /// call's resolver drawn once, independent of faults: a draw from
    /// the run's RNG, or one per retry, shows names to resolvers the
    /// calm run never asked at these seeds.
    #[test]
    fn recovered_harsh_legacy_and_direct_complete() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        use dcp_faults::FaultConfig;
        let calm = RunOptions::recovered(&FaultConfig::calm());
        let opts = RunOptions::recovered(&FaultConfig::harsh());
        let cfg = OdnsLegacyConfig::new(1, 4);
        let legacy = OdnsLegacy::run_with(&cfg, 33, &opts);
        assert_eq!(legacy.answered as u64, legacy.expected_units().unwrap());
        assert!(legacy.retry_linkage().is_empty());
        assert_eq!(
            KnowledgeFingerprint::of(&legacy.world),
            KnowledgeFingerprint::of(&OdnsLegacy::run_with(&cfg, 33, &calm).world),
            "legacy: harsh tables drifted from the calm twin"
        );
        let cfg = DirectDnsConfig::new(2, 4, 2);
        for seed in [5, 10, 12, 14, 34] {
            let direct = DirectDns::run_with(&cfg, seed, &opts);
            assert_eq!(direct.answered as u64, direct.expected_units().unwrap());
            assert_eq!(
                KnowledgeFingerprint::of(&direct.world),
                KnowledgeFingerprint::of(&DirectDns::run_with(&cfg, seed, &calm).world),
                "direct seed {seed}: harsh tables drifted from the calm twin"
            );
        }
    }

    #[test]
    fn recovery_emits_observable_retry_metrics() {
        use dcp_core::RecoverConfig;
        use dcp_faults::FaultConfig;
        let opts = RunOptions::observed_with_faults(&FaultConfig::harsh())
            .with_recovery(&RecoverConfig::standard());
        let report = Odoh::run_with(&OdohConfig::new(1, 6).backup_proxies(1), 35, &opts);
        assert!(report.metrics.enabled);
        assert!(
            report.metrics.recovery_retries > 0,
            "harsh faults should force at least one retransmission: {:?}",
            report.metrics
        );
        assert_eq!(report.answered, 6);
    }

    #[test]
    fn recovered_runs_are_deterministic() {
        use dcp_faults::FaultConfig;
        let cfg = OdohConfig::new(1, 4).backup_proxies(1);
        let opts = RunOptions::recovered(&FaultConfig::harsh());
        let a = Odoh::run_with(&cfg, 41, &opts);
        let b = Odoh::run_with(&cfg, 41, &opts);
        assert_eq!(a.answered, b.answered);
        assert_eq!(a.mean_query_us, b.mean_query_us);
        assert_eq!(a.trace.len(), b.trace.len());
        assert_eq!(a.fault_log.len(), b.fault_log.len());
    }
}
