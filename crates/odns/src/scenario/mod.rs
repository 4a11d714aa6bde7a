//! Simulator scenarios: ODoH, direct DNS (the coupled baseline), and the
//! §5.1 striping experiment.
//!
//! The three wirings live in one submodule each — [`odoh`](self::odoh)
//! (proxy → target encapsulation, written as seam roles that `dcp-serve`
//! hosts too), [`direct`](self::direct) (plain DNS, optionally striped),
//! [`legacy`](self::legacy) (the 2019 name-hiding protocol) — sharing
//! this hub's report, configs and workload zone; the last two also share
//! the [`OriginNode`] authoritative responder.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use dcp_core::table::DecouplingTable;
use dcp_core::{EntityId, Label, MetricsReport, RunOptions, Scenario, UserId, World};
use dcp_dns::workload::ZipfWorkload;
use dcp_dns::{DnsName, Message as DnsMessage, RecordData, Zone};
use dcp_faults::FaultLog;
use dcp_runtime::{
    mean_us, wire, Ctx, Harness, Message, Network, Node, NodeId, RetryLinkage, RunCore, Trace,
};

mod direct;
mod legacy;
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
    /// [`RecoverConfig`](dcp_core::RecoverConfig) is enabled: clients
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
    const NAME: &'static str = "odns";

    fn run_with(cfg: &OdohConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        odoh::odoh_impl(cfg, seed, opts)
    }
}

/// Plain DNS (the coupled baseline), optionally striped across several
/// resolvers (§5.1).
pub struct DirectDns;

impl Scenario for DirectDns {
    type Config = DirectDnsConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "dns_direct";

    fn run_with(cfg: &DirectDnsConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        direct::direct_impl(cfg, seed, opts)
    }
}

/// The original ODNS (2019): obfuscated names through an unmodified
/// recursive resolver to the oblivious authority.
pub struct OdnsLegacy;

impl Scenario for OdnsLegacy {
    type Config = OdnsLegacyConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "odns_legacy";

    fn run_with(cfg: &OdnsLegacyConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        legacy::legacy_impl(cfg, seed, opts)
    }
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
    fn new(resolver_slots: usize) -> Self {
        Stats {
            answered: 0,
            latencies: Vec::new(),
            resolver_views: vec![HashSet::new(); resolver_slots],
            linkage: RetryLinkage::new(),
        }
    }
}

/// The authoritative server every DNS variant terminates at. Under
/// recovery it is a pure echo responder: unframe the hop sequence,
/// answer, re-frame — statelessly idempotent, so retransmissions just get
/// re-answered.
struct OriginNode {
    entity: EntityId,
    zone: Zone,
    recover: bool,
}

impl Node for OriginNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let (seq, body) = if self.recover {
            match wire::unframe(&msg.bytes) {
                Some((s, b)) => (Some(s), b),
                None => return,
            }
        } else {
            (None, &msg.bytes[..])
        };
        let Ok(query) = DnsMessage::decode(body) else {
            return;
        };
        let resp = self.zone.answer(&query);
        // The response repeats the query content back to the asker; it
        // carries no *new* subject information beyond what the query
        // already established, so label it Public.
        let bytes = match seq {
            Some(s) => wire::frame(s, &resp.encode()),
            None => resp.encode(),
        };
        ctx.send(from, Message::new(bytes, Label::Public));
    }
}

/// The shared run tail for every DNS variant: run the network to
/// quiescence, harvest the [`RunCore`] through the harness, and fold the
/// stats into a [`ScenarioReport`].
fn assemble(
    harness: Harness,
    net: Network,
    stats: Rc<RefCell<Stats>>,
    users: Vec<UserId>,
    expected_queries: usize,
) -> ScenarioReport {
    let core = harness.finish(net);
    finish_report(core, &stats.borrow(), users, expected_queries)
}

fn finish_report(
    core: RunCore,
    stats: &Stats,
    users: Vec<UserId>,
    expected_queries: usize,
) -> ScenarioReport {
    let mean = mean_us(&stats.latencies);
    let mut all_names: HashSet<String> = HashSet::new();
    for v in &stats.resolver_views {
        all_names.extend(v.iter().cloned());
    }
    ScenarioReport {
        world: core.world,
        trace: core.trace,
        answered: stats.answered,
        mean_query_us: mean,
        users,
        resolver_views: stats.resolver_views.iter().map(HashSet::len).collect(),
        distinct_names: all_names.len(),
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected: expected_queries as u64,
        retry_linkage: stats.linkage.violations(),
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
        assert_eq!(report.metrics.scenario, "odns");
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
    /// these seeds.
    #[test]
    fn drops_without_recovery_never_cross_answers() {
        use dcp_faults::FaultConfig;
        let opts = RunOptions::with_faults(&FaultConfig::moderate());
        for seed in [3, 8, 11, 12] {
            let report = Odoh::run_with(&OdohConfig::new(2, 3), seed, &opts);
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

    #[test]
    fn recovered_harsh_legacy_and_direct_complete() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::FaultConfig;
        let opts = RunOptions::recovered(&FaultConfig::harsh());
        let legacy = OdnsLegacy::run_with(&OdnsLegacyConfig::new(1, 4), 33, &opts);
        assert_eq!(legacy.answered as u64, legacy.expected_units().unwrap());
        assert!(legacy.retry_linkage().is_empty());
        let direct = DirectDns::run_with(&DirectDnsConfig::new(2, 5, 2), 34, &opts);
        assert_eq!(direct.answered as u64, direct.expected_units().unwrap());
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
