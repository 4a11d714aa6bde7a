//! The Fig. 2 flow — challenge → issuance → redemption — written once as
//! seam roles: a client, the issuer and the origin. One `wiring` builds
//! them; the simulator hosts them ([`Privacypass`]) and
//! [`Privacypass::REGISTRATION`] hands the same roles to `dcp-serve`.
//!
//! Every leg carries an 8-byte sequence number (`dcp_runtime::wire`
//! framing) on every run. The origin keys each redemption check by the
//! client's `(peer, seq)` and asks the issuer under a number of its own
//! ([`CheckForwarder`]), so a verdict returns to the client whose token
//! it judged, and a duplicated or retransmitted redemption is answered
//! from the first verdict instead of being refused as a double spend. A
//! run's `RecoverConfig` only arms the clients' retries.
//!
//! Every decoder on received bytes fails closed with a typed error: a
//! frame that does not parse is dropped, never answered.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, FaultLog, IdentityKind, InfoItem, Label, MetricsReport, RunOptions, Scenario, UserId,
    World,
};
use dcp_runtime::seam::{
    lock, nth, PeerId, Registration, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole,
};
use dcp_runtime::{
    mean_us, wire, Attempt, CheckForwarder, Control, Endpoint, Forward, Harness, LinkParams,
    ReliableCall, RetryLinkage, TimerVerdict, Trace,
};
use dcp_transport::frame::{Frame, FrameRef, FrameType};

use crate::protocol::{
    self, decode_batch, decode_evals, encode_evals, exact_len, IssuanceRequest, Token, WrongLength,
};
use crate::types::{
    declared_caps, AccessRequest, IssuanceReq, RedeemCheckReq, TokenClient, TokenIssuer,
    TokenOrigin,
};

/// Result of a scenario run.
pub struct ScenarioReport {
    /// Knowledge base after the run.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// Successful redemptions at the origin.
    pub redeemed: usize,
    /// Redemptions refused (forged/double-spend).
    pub refused: usize,
    /// Mean time from a redemption's first transmission to its verdict,
    /// microseconds.
    pub mean_fetch_us: f64,
    /// The client users.
    pub users: Vec<UserId>,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (`clients × fetches_each`).
    pub expected: u64,
    /// Retry-linkage violations over the re-blinded issuance attempts
    /// (redemption retransmits the *same* one-time token by design — see
    /// `docs/RECOVERY.md` on instruments the receiver must dedup).
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
        self.redeemed as u64
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

/// Config for the [`Privacypass`] scenario.
#[derive(Clone, Debug)]
pub struct PrivacypassConfig {
    /// Number of clients.
    pub clients: usize,
    /// Token redemptions per client (one issuance batch of four tokens
    /// covers them, so at most four).
    pub fetches_each: usize,
}

impl Default for PrivacypassConfig {
    fn default() -> Self {
        PrivacypassConfig {
            clients: 1,
            fetches_each: 2,
        }
    }
}

impl PrivacypassConfig {
    /// `clients` clients redeeming `fetches_each` tokens each.
    pub fn new(clients: usize, fetches_each: usize) -> Self {
        PrivacypassConfig {
            clients,
            fetches_each,
        }
    }

    /// Set the client count.
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Set the per-client redemption count.
    pub fn fetches_each(mut self, fetches_each: usize) -> Self {
        self.fetches_each = fetches_each;
        self
    }
}

/// §3.2.1 Privacy Pass: blind-token issuance and unlinkable redemption.
pub struct Privacypass;

impl Scenario for Privacypass {
    type Config = PrivacypassConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "privacypass";

    fn run_with(cfg: &PrivacypassConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        let (world, harness) = Harness::begin(Privacypass::NAME, seed, opts);
        let w = wiring(cfg, seed, world, opts);
        let users = w.spec.world.users().to_vec();
        let expected = w.spec.expected_units;
        let core = harness.run_spec(w.spec, LinkParams::wan_ms(15), Vec::new());
        let stats = lock(&w.stats);
        ScenarioReport {
            world: core.world,
            trace: core.trace,
            redeemed: stats.redeemed,
            refused: stats.refused,
            mean_fetch_us: mean_us(&stats.fetch_times),
            users,
            fault_log: core.fault_log,
            metrics: core.metrics,
            expected,
            retry_linkage: stats.linkage.violations(),
        }
    }
}

impl Privacypass {
    /// Three clients redeeming two tokens each. Served, each client
    /// redeems one token per query from a single issuance batch, so a
    /// served client takes at most four queries; every
    /// process of a multi-process run builds the same issuer key from the
    /// seed. Role order defines peer ids: `issuer` 0, `origin` 1, then
    /// `client`, `client-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: Privacypass::NAME,
        run: |seed, opts| {
            Box::new(Privacypass::run_with(
                &PrivacypassConfig::new(3, 2),
                seed,
                opts,
            ))
        },
        declared_caps,
        serve: Some(|clients, queries, seed| {
            if queries > TOKENS_PER_BATCH {
                return Err(format!(
                    "{queries} redemptions per client: one issuance batch holds \
                     {TOKENS_PER_BATCH}"
                ));
            }
            let cfg = PrivacypassConfig::new(clients, queries);
            let spec = wiring(&cfg, seed, World::new(), &RunOptions::default()).spec;
            Ok((spec, Box::new(move || Privacypass::run(&cfg, seed).world)))
        }),
    };
}

impl ScenarioReport {
    /// Derive the §3.2.1 table for user `i`.
    pub fn table(&self, i: usize) -> DecouplingTable {
        DecouplingTable::derive(&self.world, self.users[i], &["Client", "Issuer", "Origin"])
    }

    /// The paper's table.
    pub fn paper_table() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("Client", "(▲, ●)"),
            ("Issuer", "(▲, ⊙)"),
            ("Origin", "(△, ●)"),
        ])
    }
}

/// Tokens one issuance batch holds, and so the most redemptions a client
/// makes.
const TOKENS_PER_BATCH: usize = 4;

/// Bytes of an encoded [`Token`].
const TOKEN_LEN: usize = 64;

/// The one resource the origin serves, requested after the token.
const RESOURCE: &[u8] = b"GET /private-resource";

/// The origin's answers: content for a good token, a refusal otherwise.
const VERDICT_OK: &[u8] = b"200 OK content";
const VERDICT_REFUSED: &[u8] = b"403";

/// Why the origin refused a redemption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DecodeError {
    /// A redemption of the wrong length.
    Length(WrongLength),
    /// A redemption for a resource the origin does not serve.
    Resource,
}

/// The origin's parse of a redemption: a token, then the resource it
/// serves. Returns the token's bytes.
fn decode_redemption(payload: &[u8]) -> Result<&[u8], DecodeError> {
    exact_len(payload, TOKEN_LEN + RESOURCE.len()).map_err(DecodeError::Length)?;
    let (token, request) = payload.split_at(TOKEN_LEN);
    if request != RESOURCE {
        return Err(DecodeError::Resource);
    }
    Ok(token)
}

/// What the clients and the origin measure, shared by every role of one
/// run.
struct Stats {
    redeemed: usize,
    refused: usize,
    fetch_times: Vec<u64>,
    /// Retry-linkage check fed by every issuance attempt's blinded batch.
    linkage: RetryLinkage,
}

/// A client's open call.
enum Call {
    /// The issuance round, re-blinded on every attempt.
    Issuance,
    /// One redemption: the *same* token payload on every attempt (a
    /// fresh token per attempt would either double-spend or drain the
    /// wallet); the origin answers copies from its first verdict.
    Fetch { payload: Vec<u8>, started_at: u64 },
}

/// The token client: one issuance round, then one redemption at a time.
struct Client {
    user: UserId,
    /// The issuance endpoint: the typed claim that the issuer sees
    /// `(▲, ⊙)` — an authenticated account, a blinded batch.
    issuer: Endpoint<IssuanceReq, Control, TokenIssuer>,
    /// The redemption endpoint: the origin sees `(△, ●)`.
    origin: Endpoint<AccessRequest, Control, TokenOrigin>,
    wallet: protocol::Client,
    /// The blinding of the latest issuance attempt.
    state: Option<IssuanceRequest>,
    /// Redemptions not yet begun.
    fetches_left: usize,
    /// Numbers every call; arms deadlines and retries under recovery
    /// only.
    arq: ReliableCall,
    /// RetryLinkage flow id (the client index).
    flow: u64,
    /// The open call and its sequence number.
    inflight: Option<(u64, Call)>,
    stats: Arc<Mutex<Stats>>,
}

impl Client {
    /// (Re)transmit the issuance round: a fresh blinded batch on every
    /// attempt, which is exactly what a re-randomized retransmission
    /// needs. The client authenticates (solves the issuer's challenge):
    /// the issuer learns ▲ but only blinded elements ⊙.
    fn transmit_issuance(&mut self, ctx: &mut WireCtx, att: Attempt) {
        for _ in 0..TOKENS_PER_BATCH {
            ctx.crypto_op("voprf_blind");
        }
        let req = self.wallet.request_tokens(ctx.rng, TOKENS_PER_BATCH);
        let bytes: Vec<u8> = req.blinded.iter().flat_map(|b| b.0).collect();
        self.state = Some(req);
        lock(&self.stats)
            .linkage
            .record(self.flow, att.seq, att.attempt, &bytes);
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Activity),
        ]);
        let frame = Frame::new(FrameType::Token, bytes)
            .encode()
            .expect("bounded payload");
        ctx.send_to(
            self.issuer,
            WireMsg::data(wire::frame(att.seq, &frame), label),
        );
        ctx.arm(&self.arq, &att);
    }

    /// (Re)transmit redemption `att.seq`. The token payload is
    /// deliberately byte-identical across attempts — a one-time
    /// instrument cannot be re-randomized without double-spending — so it
    /// is *not* recorded into the linkage check.
    fn transmit_fetch(&mut self, ctx: &mut WireCtx, payload: &[u8], att: Attempt) {
        // The origin sees the request content (●) from an anonymous but
        // authorized client (△).
        let label = Label::items([
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::sensitive_data(self.user, DataKind::Activity),
        ]);
        let frame = Frame::new(FrameType::Data, payload.to_vec())
            .encode()
            .expect("bounded payload");
        ctx.send_to(
            self.origin,
            WireMsg::data(wire::frame(att.seq, &frame), label),
        );
        ctx.arm(&self.arq, &att);
    }

    /// Begin the next redemption, if one is left. An empty wallet means
    /// no further fetches — never unauthenticated ones.
    fn fetch(&mut self, ctx: &mut WireCtx) {
        if self.fetches_left == 0 {
            return;
        }
        self.fetches_left -= 1;
        let Some(token) = self.wallet.spend() else {
            return;
        };
        let mut payload = token.encode();
        payload.extend_from_slice(RESOURCE);
        let att = self.arq.open();
        let started_at = ctx.now_us();
        self.inflight = Some((
            att.seq,
            Call::Fetch {
                payload: payload.clone(),
                started_at,
            },
        ));
        self.transmit_fetch(ctx, &payload, att);
    }
}

impl WireRole for Client {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::Activity));
        let att = self.arq.open();
        self.inflight = Some((att.seq, Call::Issuance));
        self.transmit_issuance(ctx, att);
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        // Only an answer numbered for the open call, from the peer that
        // call went to, completes it; a duplicated or late one changes
        // nothing.
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        match &self.inflight {
            Some((open, Call::Issuance)) if *open == seq && from.index() == self.issuer.index() => {
                let Ok(frame) = FrameRef::decode(body) else {
                    return;
                };
                let Ok(evals) = decode_evals(frame.payload, TOKENS_PER_BATCH) else {
                    return;
                };
                let Some(req) = self.state.take() else {
                    return;
                };
                for _ in 0..evals.len() {
                    ctx.crypto_op("voprf_finalize");
                }
                // A superseded attempt's batch fails against the
                // re-blinded state, and a bad DLEQ proof refuses the
                // batch: drop it, a retry re-blinds. The client never
                // falls back to unblinded tokens.
                if self.wallet.accept_issuance(req, &evals).is_err() {
                    return;
                }
                self.inflight = None;
                self.arq.complete(seq);
                self.fetch(ctx);
            }
            Some((open, Call::Fetch { started_at, .. }))
                if *open == seq && from.index() == self.origin.index() =>
            {
                let started_at = *started_at;
                self.inflight = None;
                self.arq.complete(seq);
                let now = ctx.now_us();
                ctx.span("fetch", started_at, now);
                lock(&self.stats).fetch_times.push(now - started_at);
                if body == VERDICT_OK {
                    ctx.unit_done();
                }
                self.fetch(ctx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        match ctx.arq_timer(&mut self.arq, token) {
            TimerVerdict::NotMine | TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => match &self.inflight {
                Some((seq, Call::Issuance)) if *seq == att.seq => self.transmit_issuance(ctx, att),
                Some((seq, Call::Fetch { payload, .. })) if *seq == att.seq => {
                    let payload = payload.clone();
                    self.transmit_fetch(ctx, &payload, att);
                }
                _ => {}
            },
            TimerVerdict::Exhausted { seq, .. } => {
                match self.inflight.take_if(|(open, _)| *open == seq) {
                    Some((_, Call::Fetch { .. })) => self.fetch(ctx),
                    // An abandoned issuance leaves an empty wallet: the
                    // client stops — it never falls back to
                    // unauthenticated fetches.
                    Some((_, Call::Issuance)) | None => {}
                }
            }
        }
    }

    fn finished(&self) -> bool {
        // Every path that leaves nothing in flight has nothing left to
        // begin: the last redemption answered or abandoned, an issuance
        // abandoned, or an empty wallet.
        self.inflight.is_none()
    }
}

/// The Fig. 2 issuer: evaluates blinded batches statelessly and judges
/// redemption checks once each.
struct Issuer {
    issuer: protocol::Issuer,
    /// Verdict per `(origin, hop seq)`: a re-forwarded check replays its
    /// first verdict instead of reading the retransmitted token as a
    /// double spend.
    verdicts: BTreeMap<(PeerId, u64), bool>,
}

impl WireRole for Issuer {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Ok(frame) = FrameRef::decode(body) else {
            return;
        };
        let answer = match frame.ftype {
            // Issuance: evaluation is stateless, so a retransmission is
            // simply answered again under its own number.
            FrameType::Token => {
                let Ok(blinded) = decode_batch(frame.payload, TOKENS_PER_BATCH) else {
                    return;
                };
                for _ in 0..blinded.len() {
                    ctx.crypto_op("voprf_evaluate");
                }
                let Ok(evals) = self.issuer.issue(ctx.rng, &blinded) else {
                    return; // malformed element: refuse to issue
                };
                encode_evals(&evals)
            }
            // A redemption check forwarded by the origin. Tokens are
            // unlinkable: the issuer learns that *some* token was
            // redeemed — attributable to no one (`Label::Public` on the
            // way in). A token that fails to decode is refused.
            FrameType::Data => {
                let issuer = &mut self.issuer;
                let ok = *self.verdicts.entry((from, seq)).or_insert_with(|| {
                    let Ok(token) = Token::decode(frame.payload) else {
                        return false;
                    };
                    ctx.crypto_op("voprf_redeem");
                    issuer.redeem(&token).is_ok()
                });
                vec![u8::from(ok)]
            }
            _ => return,
        };
        let frame = Frame::new(FrameType::Response, answer)
            .encode()
            .expect("bounded payload");
        ctx.send(
            from,
            WireMsg::response(wire::frame(seq, &frame), Label::Public),
        );
    }
}

/// The origin: serves a redemption once the issuer vouches for its
/// token, forwarding only the token, which carries nothing
/// user-attributable.
struct Origin {
    /// The redemption-check endpoint: the forwarded token is unlinkable,
    /// well under the issuer's `(▲, ⊙)` cap.
    issuer: Endpoint<RedeemCheckReq, Control, TokenIssuer>,
    /// One check per `(client, client seq)`, keyed to the issuer leg by
    /// a number of the origin's own.
    checks: CheckForwarder<(PeerId, u64), bool>,
    stats: Arc<Mutex<Stats>>,
}

fn verdict(client_seq: u64, ok: bool) -> WireMsg {
    let body = if ok { VERDICT_OK } else { VERDICT_REFUSED };
    WireMsg::response(wire::frame(client_seq, body), Label::Public)
}

impl WireRole for Origin {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Ok(frame) = FrameRef::decode(body) else {
            return;
        };
        if from.index() == self.issuer.index() {
            let Some(((client, client_seq), &ok, first)) =
                self.checks.resolve(seq, frame.payload == [1u8])
            else {
                return;
            };
            if first {
                let mut stats = lock(&self.stats);
                if ok {
                    stats.redeemed += 1;
                } else {
                    stats.refused += 1;
                }
            }
            ctx.send(client, verdict(client_seq, ok));
            return;
        }
        // A truncated or foreign request is not served.
        let Ok(token) = decode_redemption(frame.payload) else {
            return;
        };
        match self.checks.forward((from, seq), token) {
            Forward::Replay(&ok) => ctx.send(from, verdict(seq, ok)),
            Forward::Upstream { hop, body } => {
                let check = Frame::new(FrameType::Data, body.to_vec())
                    .encode()
                    .expect("bounded payload");
                ctx.send_to(
                    self.issuer,
                    WireMsg::data(wire::frame(hop, &check), Label::Public),
                );
            }
        }
    }
}

/// A built Privacy Pass run: its roles and what they measure.
struct Wiring {
    spec: ServeSpec,
    stats: Arc<Mutex<Stats>>,
}

/// Build the Fig. 2 world and roles for either engine. Peer ids: issuer
/// 0, origin 1, then the clients.
///
/// The world mutation order and the setup RNG's draws are load-bearing:
/// a metrics sink observes entity creation in sequence, and the DST
/// probes are byte-identical across refactors only if both hold.
fn wiring(cfg: &PrivacypassConfig, seed: u64, mut world: World, opts: &RunOptions) -> Wiring {
    use rand::SeedableRng;
    assert!(
        cfg.fetches_each <= TOKENS_PER_BATCH,
        "one issuance batch covers at most {TOKENS_PER_BATCH} redemptions"
    );
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9a55);

    let issuer_org = world.add_org("issuer-co");
    let origin_org = world.add_org("origin-co");
    let user_org = world.add_org("users");
    let issuer_e = world.add_entity("Issuer", issuer_org, None);
    let origin_e = world.add_entity("Origin", origin_org, None);
    let issuer = protocol::Issuer::new(&mut setup_rng);
    let issuer_pk = issuer.public_key();

    let stats = Arc::new(Mutex::new(Stats {
        redeemed: 0,
        refused: 0,
        fetch_times: Vec::new(),
        linkage: RetryLinkage::new(),
    }));
    let mut roles = vec![
        RoleSpec::of::<TokenIssuer>(
            "issuer",
            issuer_e,
            Box::new(Issuer {
                issuer,
                verdicts: BTreeMap::new(),
            }),
        ),
        RoleSpec::of::<TokenOrigin>(
            "origin",
            origin_e,
            Box::new(Origin {
                issuer: Endpoint::new(0),
                checks: CheckForwarder::new(),
                stats: stats.clone(),
            }),
        ),
    ];
    for i in 0..cfg.clients {
        let user = world.add_user();
        let e = world.add_entity(&nth("Client", ' ', i), user_org, Some(user));
        let client = Client {
            user,
            issuer: Endpoint::new(0),
            origin: Endpoint::new(1),
            wallet: protocol::Client::new(issuer_pk),
            state: None,
            fetches_left: cfg.fetches_each,
            arq: ReliableCall::new(&opts.recover, derive_seed(seed, 0x9a50 + i as u64)),
            flow: i as u64,
            inflight: None,
            stats: stats.clone(),
        };
        roles.push(RoleSpec::of::<TokenClient>(
            nth("client", '-', i),
            e,
            Box::new(client),
        ));
    }
    Wiring {
        spec: ServeSpec {
            scenario: Privacypass::NAME,
            world,
            roles,
            expected_units: (cfg.clients * cfg.fetches_each) as u64,
            taps: Vec::new(),
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::collusion::entity_collusion;
    use dcp_core::{analyze, FaultConfig};

    fn run(n_clients: usize, fetches_each: usize, seed: u64) -> ScenarioReport {
        Privacypass::run(&PrivacypassConfig::new(n_clients, fetches_each), seed)
    }

    #[test]
    fn instrumented_run_counts_voprf_ops() {
        let report =
            Privacypass::run_with(&PrivacypassConfig::new(2, 2), 7, &RunOptions::observed());
        let m = &report.metrics;
        // Each client blinds a full batch; the issuer evaluates every
        // blinded element; the client finalizes each evaluation; one
        // redemption check per fetch.
        assert_eq!(m.crypto_ops["voprf_blind"], 2 * TOKENS_PER_BATCH as u64);
        assert_eq!(m.crypto_ops["voprf_evaluate"], 2 * TOKENS_PER_BATCH as u64);
        assert_eq!(m.crypto_ops["voprf_finalize"], 2 * TOKENS_PER_BATCH as u64);
        assert_eq!(m.crypto_ops["voprf_redeem"], 4);
        assert_eq!(m.span_count("fetch"), 4);
        assert!(m.wire_accounting_holds(), "{m:?}");
        assert_eq!(report.redeemed, 4);

        // The plain path stays dark and behaves identically.
        let plain = run(2, 2, 7);
        assert_eq!(plain.metrics.crypto_total(), 0);
        assert_eq!(plain.redeemed, 4);
    }

    #[test]
    fn scenario_reproduces_paper_table() {
        let report = run(1, 2, 42);
        assert_eq!(report.redeemed, 2);
        assert_eq!(report.refused, 0);
        let derived = report.table(0);
        let expected = ScenarioReport::paper_table();
        assert_eq!(
            derived,
            expected,
            "diff:\n{}",
            derived.diff(&expected).unwrap_or_default()
        );
    }

    #[test]
    fn scenario_is_decoupled_and_needs_collusion() {
        let report = run(2, 1, 43);
        let verdict = analyze(&report.world);
        assert!(verdict.decoupled, "offenders: {:?}", verdict.offenders());
        // Re-coupling a user requires Issuer + Origin together.
        let rep = entity_collusion(&report.world, report.users[0], 3);
        assert_eq!(rep.min_coalition_size, Some(2));
    }

    #[test]
    fn recovered_harsh_run_completes_without_double_spend_refusals() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        let cfg = PrivacypassConfig::new(2, 2);
        let calm = Privacypass::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Privacypass::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(calm.redeemed, 4, "calm recovered run redeems everything");
        assert_eq!(calm.refused, 0);
        assert_eq!(
            harsh.redeemed as u64,
            harsh.expected_units().unwrap(),
            "under harsh faults the recovery layer still finishes the workload"
        );
        assert_eq!(
            harsh.refused, 0,
            "retransmitted tokens must be deduped, never refused as double-spends"
        );
        assert!(!harsh.fault_log.is_empty(), "harsh actually injected");
        assert!(
            harsh.retry_linkage().is_empty(),
            "re-blinded issuance attempts are never linkable: {:?}",
            harsh.retry_linkage()
        );
        assert_eq!(
            KnowledgeFingerprint::of(&harsh.world),
            KnowledgeFingerprint::of(&calm.world),
            "recovery must not change anyone's knowledge ledger"
        );
        assert_eq!(harsh.table(0), calm.table(0));
    }

    /// Without recovery, a duplicated redemption is answered from the
    /// first verdict, never refused as a double spend: every leg is
    /// numbered and the origin keys each check by `(client, seq)`. An
    /// origin that forwards every copy as a fresh check, pairing the
    /// issuer's verdicts with waiting clients by arrival order, refuses
    /// an honest client at each of these seeds.
    #[test]
    fn honest_clients_are_never_refused_without_recovery() {
        let cfg = PrivacypassConfig::new(2, 2);
        let opts = RunOptions::with_faults(&FaultConfig::moderate());
        for seed in [5, 21, 25, 57] {
            let report = Privacypass::run_with(&cfg, seed, &opts);
            assert!(!report.fault_log.is_empty(), "seed {seed}: no faults");
            assert_eq!(report.refused, 0, "seed {seed}");
        }
    }

    #[test]
    fn a_served_client_asks_for_at_most_one_batch() {
        let serve = Privacypass::REGISTRATION.serve.expect("servable");
        assert_eq!(
            serve(1, 5, 7).err().as_deref(),
            Some("5 redemptions per client: one issuance batch holds 4")
        );
        let (spec, _) = serve(2, 4, 7).unwrap();
        let names: Vec<&str> = spec.roles.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["issuer", "origin", "client", "client-2"]);
        assert_eq!(spec.expected_units, 8);
    }

    use proptest::prelude::*;

    proptest! {
        /// The origin's decoder accepts exactly one length and one
        /// resource, refuses everything else with a typed error, and
        /// returns the token it accepts (the issuance codecs are pinned in
        /// `protocol`).
        #[test]
        fn decoders_fail_closed_and_round_trip(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            (at, bits) in (any::<usize>(), 1u8..),
        ) {
            let fit = |n: usize| {
                let mut b = bytes.clone();
                b.resize(n, 0x5a);
                b
            };
            let mut redemption = fit(TOKEN_LEN);
            redemption.extend_from_slice(RESOURCE);
            prop_assert_eq!(decode_redemption(&redemption), Ok(&redemption[..TOKEN_LEN]));
            let mut bent = redemption.clone();
            let at = TOKEN_LEN + at % RESOURCE.len();
            bent[at] ^= bits;
            prop_assert_eq!(decode_redemption(&bent), Err(DecodeError::Resource));
            match decode_redemption(&bytes) {
                Ok(token) => prop_assert_eq!(token, &bytes[..TOKEN_LEN]),
                Err(DecodeError::Length(WrongLength { expected, got })) => {
                    prop_assert_eq!(expected, TOKEN_LEN + RESOURCE.len());
                    prop_assert_ne!(got, expected);
                }
                Err(DecodeError::Resource) => prop_assert_ne!(&bytes[TOKEN_LEN..], RESOURCE),
            }
        }
    }

    #[test]
    fn recovered_calm_run_matches_plain_completion() {
        let plain = run(2, 2, 7);
        let rec = Privacypass::run_with(
            &PrivacypassConfig::new(2, 2),
            7,
            &RunOptions::recovered(&FaultConfig::calm()),
        );
        assert_eq!(plain.redeemed, rec.redeemed);
        assert_eq!(rec.refused, 0);
        assert_eq!(plain.table(0), rec.table(0));
    }
}
