//! The original ODNS (2019): the encrypted query hides inside the *name
//! itself* (`<hex>.odns.example`), so an unmodified recursive resolver
//! routes it to the oblivious authority.
//!
//! Written as seam roles over the world layout ODoH builds: the
//! recursive *is* ODoH's `Proxy` (an unmodified resolver forwards,
//! re-keys and strips the envelope — nothing ODNS-specific) and the
//! origin is the shared `Origin`. Only the client and the authority are
//! this protocol's own. Every leg is sequence-framed like ODoH's; the
//! authority keys its waiters by `(recursive, recursive seq)` and mints
//! its own numbers for the origin leg.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::{DataKind, IdentityKind, InfoItem, KeyId, RecoverConfig, Scenario, UserId, World};
use dcp_crypto::hpke;
use dcp_dns::{DnsName, Message as DnsMessage, Rcode, RecordData, ResourceRecord, RrType};
use dcp_runtime::seam::{lock, PeerId, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole};
use dcp_runtime::{wire, Attempt, Control, Endpoint, ReliableCall, TimerVerdict};

use super::{
    answered, envelope_label, nth, oblivious_world, Envelope, OdnsLegacy, OdnsLegacyConfig, Origin,
    Proxy, Stats, Target, ODNS_ZONE,
};
use crate::odns_name;
use crate::types::{AuthOrigin, ObliviousProxy, ObliviousTarget, SealedQuery, StubClient};

/// The stub-resolver client: seals each question name to the authority
/// inside a TXT query for `<hex>.odns.example`, sends it through its
/// ordinary recursive resolver, and counts an answer only when it opens
/// under the matching in-flight call's response key.
struct Client {
    user: UserId,
    recursive: Endpoint<SealedQuery, Control, ObliviousProxy>,
    target_pk: [u8; 32],
    target_key: KeyId,
    /// The oblivious zone the obfuscated names live under.
    zone: DnsName,
    queries: Vec<DnsName>,
    next_id: u16,
    /// Per-request ARQ: numbers every request, and arms deadlines and
    /// retries under recovery only.
    arq: ReliableCall,
    /// RetryLinkage flow id (the client index).
    flow: u64,
    /// Open calls, keyed by sequence number.
    inflight: BTreeMap<u64, Inflight>,
    stats: Arc<Mutex<Stats>>,
}

struct Inflight {
    name: DnsName,
    /// The *latest* attempt's ephemeral response keypair — each
    /// retransmission re-obfuscates under a fresh one, superseding the
    /// old (a response to an earlier attempt then fails to open).
    resp_kp: hpke::Keypair,
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

    /// One (re)transmission of call `att.seq`: a *fresh* obfuscation
    /// every attempt — new ephemeral response keypair, new encapsulated
    /// name — so no two attempts share bytes anywhere on the path
    /// (re-randomized retransmission). To the recursive resolver it is
    /// just another domain to resolve.
    fn transmit(&mut self, ctx: &mut WireCtx, name: DnsName, sent_at: u64, att: Attempt) {
        ctx.crypto_op("hpke_seal");
        let (obfuscated, resp_kp) =
            odns_name::obfuscate_query(ctx.rng, &self.target_pk, &name, &self.zone)
                .expect("workload names fit the obfuscated-name budget");
        let q = DnsMessage::query(self.next_id, obfuscated, RrType::Txt);
        self.next_id = self.next_id.wrapping_add(1);
        let encoded = q.encode();
        lock(&self.stats)
            .linkage
            .record(self.flow, att.seq, att.attempt, &encoded);
        self.inflight.insert(
            att.seq,
            Inflight {
                name,
                resp_kp,
                sent_at,
            },
        );
        let label = envelope_label(self.user, self.target_key);
        ctx.send_to(
            self.recursive,
            WireMsg::data(wire::frame(att.seq, &encoded), label),
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
        // A TXT response carrying the sealed answer. The echoed sequence
        // number selects the call; its response key is consumed only once
        // an answer opens under it, so a tampered, duplicated or
        // superseded response changes nothing.
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Some(call) = self.inflight.get(&seq) else {
            return;
        };
        let Ok(resp) = DnsMessage::decode(body) else {
            return;
        };
        let Some(RecordData::Txt(strings)) = resp.answers.first().map(|rr| &rr.data) else {
            return;
        };
        ctx.crypto_op("hpke_open");
        match hpke::open(&call.resp_kp, b"odns answer", b"", &strings.concat()) {
            // Anything but an IPv4 answer is ignored rather than trusted.
            Ok(answer) if answer.len() == 4 => {}
            _ => return,
        }
        let call = self.inflight.remove(&seq).expect("opened against above");
        self.arq.complete(seq);
        answered(&self.stats, ctx, call.sent_at);
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        match ctx.arq_timer(&mut self.arq, token) {
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => {
                let Some(call) = self.inflight.get(&att.seq) else {
                    return;
                };
                let (name, sent_at) = (call.name.clone(), call.sent_at);
                self.transmit(ctx, name, sent_at, att);
            }
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

/// Legacy ODNS's envelope: the question name is sealed to the
/// authority inside the queried name (the authority is authoritative
/// for `odns.example`), and the answer is sealed to the client's
/// ephemeral key inside a TXT record.
struct ObfuscatedName {
    kp: hpke::Keypair,
    zone: DnsName,
}

/// What answering a query takes: its id and obfuscated name, which the
/// TXT response echoes, and the client's ephemeral key.
struct Waiter {
    qid: u16,
    obf_name: DnsName,
    resp_pk: [u8; 32],
}

impl Envelope for ObfuscatedName {
    type Waiter = Waiter;

    fn open(&self, ctx: &mut WireCtx, body: &[u8]) -> Option<(DnsMessage, Waiter)> {
        let query = DnsMessage::decode(body).ok()?;
        let obf_name = query.questions.first()?.qname.clone();
        ctx.crypto_op("hpke_open");
        let (qname, resp_pk) =
            odns_name::deobfuscate_query(&self.kp, &obf_name, &self.zone).ok()?;
        let waiter = Waiter {
            qid: query.id,
            obf_name,
            resp_pk,
        };
        Some((DnsMessage::query(query.id, qname, RrType::A), waiter))
    }

    /// Seals the first A record; an answerless response is dropped.
    fn seal(&self, ctx: &mut WireCtx, w: Waiter, resp: &DnsMessage) -> Option<Vec<u8>> {
        let addr = resp.answers.iter().find_map(|rr| match rr.data {
            RecordData::A(a) => Some(a),
            _ => None,
        })?;
        ctx.crypto_op("hpke_seal");
        let sealed = hpke::seal(ctx.rng, &w.resp_pk, b"odns answer", b"", &addr).ok()?;
        let echo = DnsMessage::query(w.qid, w.obf_name.clone(), RrType::Txt);
        let mut txt = DnsMessage::response_to(&echo, Rcode::NoError);
        txt.aa = true;
        txt.answers.push(ResourceRecord {
            name: w.obf_name,
            ttl: 0, // per-query ciphertext must not be cached
            // TXT strings hold at most 255 bytes each.
            data: RecordData::Txt(sealed.chunks(255).map(<[u8]>::to_vec).collect()),
        });
        Some(txt.encode())
    }
}

/// Build the legacy-ODNS roles over the oblivious world layout (no
/// backup proxies), ready for either engine. Peer ids: recursive 0,
/// authority 1, origin 2, then clients.
pub(crate) fn wiring(
    cfg: &OdnsLegacyConfig,
    seed: u64,
    world: World,
    recover: &RecoverConfig,
) -> (ServeSpec, Arc<Mutex<Stats>>) {
    let w = oblivious_world(world, seed, cfg.clients, cfg.queries_each, 0);
    let target_pk = w.target_kp.public;
    let zone = DnsName::parse(ODNS_ZONE).expect("the oblivious zone is a valid name");
    let mut roles = vec![
        Proxy::spec("recursive".into(), w.proxy),
        RoleSpec::of::<ObliviousTarget>(
            "authority",
            w.target,
            Box::new(Target::new(
                ObfuscatedName {
                    kp: w.target_kp,
                    zone: zone.clone(),
                },
                w.client_resp_key,
                w.subjects,
            )),
        ),
        RoleSpec::of::<AuthOrigin>("origin", w.origin, Box::new(Origin { zone: w.zone })),
    ];
    let stats = Stats::shared(1);
    for (ci, ((&user, &e), queries)) in w.users.iter().zip(&w.clients).zip(w.queries).enumerate() {
        let client = Client {
            user,
            recursive: Endpoint::new(0),
            target_pk,
            target_key: w.target_key,
            zone: zone.clone(),
            queries,
            next_id: 1,
            arq: ReliableCall::new(recover, derive_seed(seed, 0x0d15 + ci as u64)),
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
        scenario: OdnsLegacy::NAME,
        world: w.world,
        roles,
        expected_units: (cfg.clients * cfg.queries_each) as u64,
        taps: Vec::new(),
    };
    (spec, stats)
}

#[cfg(test)]
mod tests {
    use super::super::{Odoh, OdohConfig, ScenarioReport};
    use super::*;
    use dcp_core::analyze;

    fn run_odns_legacy(clients: usize, queries_each: usize, seed: u64) -> ScenarioReport {
        OdnsLegacy::run(&OdnsLegacyConfig::new(clients, queries_each), seed)
    }

    fn run_odoh(clients: usize, queries_each: usize, seed: u64) -> ScenarioReport {
        Odoh::run(&OdohConfig::new(clients, queries_each), seed)
    }

    #[test]
    fn odns_legacy_reproduces_paper_table() {
        let report = run_odns_legacy(1, 2, 71);
        assert_eq!(report.answered, 2);
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
    fn odns_and_odoh_agree_on_knowledge_shape() {
        // The two protocols are different encodings of the same decoupling:
        // their derived tables must be identical.
        let legacy = run_odns_legacy(1, 2, 72);
        let odoh = run_odoh(1, 2, 72);
        assert_eq!(legacy.table(0), odoh.table(0));
    }

    #[test]
    fn odns_pays_more_than_odoh_in_bytes() {
        // Hex expansion inside domain names is the original protocol's
        // known overhead vs. ODoH's binary encapsulation.
        let legacy = run_odns_legacy(1, 4, 73);
        let odoh = run_odoh(1, 4, 73);
        assert!(
            legacy.trace.total_bytes() > odoh.trace.total_bytes(),
            "{} vs {}",
            legacy.trace.total_bytes(),
            odoh.trace.total_bytes()
        );
    }
}
