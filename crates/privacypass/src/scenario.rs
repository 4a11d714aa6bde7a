//! The Fig. 2 flow on the simulator: challenge → issuance → redemption.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, EntityId, FaultLog, IdentityKind, InfoItem, Label, MetricsReport, RunOptions,
    Scenario, UserId, World,
};
use dcp_crypto::oprf::{BlindedElement, DleqProof, EvaluatedElement};
use dcp_runtime::{
    mean_us, wire, Attempt, CallEvent, Control, Ctx, Driver, Endpoint, Harness, LinkParams,
    Message, Node, NodeId, RetryLinkage, SimTime, Trace, TypedSend,
};
use dcp_transport::frame::{Frame, FrameRef, FrameType};

use crate::protocol::{Client, Issuer, Token};
use crate::types::{
    AccessRequest, IssuanceReq, RedeemCheckReq, TokenClient, TokenIssuer, TokenOrigin,
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
    /// Mean time from first request to content served, microseconds.
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
    /// Token redemptions per client (one issuance batch covers them;
    /// must be ≤ 4).
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
        run_impl(cfg, seed, opts)
    }
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

struct Shared {
    issuer: Issuer,
    redeemed: usize,
    refused: usize,
    fetch_times: Vec<u64>,
    /// Retry-linkage check fed by every issuance attempt's blinded batch.
    linkage: RetryLinkage,
}

const TOKENS_PER_BATCH: usize = 4;

/// What reliable call `seq` of one client stands for.
enum PpInflight {
    /// The issuance round (re-blinded fresh on every attempt).
    Issuance,
    /// One redemption: the *same* token payload is retransmitted verbatim
    /// (a fresh token per attempt would either double-spend or drain the
    /// wallet); the origin and issuer dedup instead.
    Fetch {
        payload: Vec<u8>,
        started_at: SimTime,
    },
}

struct ClientNode {
    entity: EntityId,
    user: UserId,
    /// The issuance endpoint: the typed claim that the issuer sees
    /// `(▲, ⊙)` — an authenticated account, a blinded batch.
    issuer: Endpoint<IssuanceReq, Control, TokenIssuer>,
    /// The redemption endpoint: the origin sees `(△, ●)`.
    origin: Endpoint<AccessRequest, Control, TokenOrigin>,
    shared: Rc<RefCell<Shared>>,
    state: Option<crate::protocol::IssuanceRequest>,
    client: Client,
    fetches_left: usize,
    started_at: SimTime,
    /// Per-request reliable-call driver (inert when recovery is disabled).
    calls: Driver<PpInflight>,
    flow: u64,
}

impl Node for ClientNode {
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
            InfoItem::sensitive_data(self.user, DataKind::Activity),
        );
        self.started_at = ctx.now;
        if let Some(att) = self.calls.begin(PpInflight::Issuance) {
            self.transmit_issuance(ctx, att);
            return;
        }
        // Issuance: the client authenticates (solves the issuer's
        // challenge) — the issuer learns ▲ but only blinded elements ⊙.
        let (bytes, label) = self.issuance_request(ctx);
        ctx.send_to(
            self.issuer,
            Message::new(
                Frame::new(FrameType::Token, bytes)
                    .encode()
                    .expect("bounded payload"),
                label,
            ),
        );
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.calls.on_timer(ctx, token) {
            CallEvent::App(_) | CallEvent::Ignored => {}
            CallEvent::Retry(att) => match self.calls.get(att.seq) {
                Some(PpInflight::Issuance) => self.transmit_issuance(ctx, att),
                Some(PpInflight::Fetch { payload, .. }) => {
                    let payload = payload.clone();
                    self.transmit_fetch(ctx, &payload, att);
                }
                None => {}
            },
            CallEvent::Exhausted {
                call: PpInflight::Fetch { .. },
                ..
            } => self.fetch_done(ctx),
            // An abandoned issuance leaves an empty wallet: the client
            // stops — it never falls back to unauthenticated fetches.
            CallEvent::Exhausted {
                call: PpInflight::Issuance,
                ..
            } => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if self.calls.enabled() {
            let Some((seq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            match self.calls.get(seq) {
                Some(PpInflight::Issuance) if from.0 == self.issuer.index() => {
                    let Ok(frame) = FrameRef::decode(body) else {
                        return;
                    };
                    let evals = decode_evals(frame.payload);
                    let Some(req) = self.state.take() else {
                        return;
                    };
                    for _ in 0..evals.len() {
                        ctx.world.crypto_op("voprf_finalize");
                    }
                    if self.client.accept_issuance(req, &evals).is_err() {
                        // A superseded attempt's response fails against the
                        // re-blinded state: drop it, the timer retries.
                        return;
                    }
                    if self.calls.complete(seq).is_none() {
                        return;
                    }
                    self.fetch(ctx);
                }
                Some(PpInflight::Fetch { started_at, .. }) if from.0 == self.origin.index() => {
                    let started_at = *started_at;
                    if self.calls.complete(seq).is_none() {
                        return; // duplicated verdict: counted exactly once
                    }
                    ctx.world.span("fetch", started_at.as_us(), ctx.now.as_us());
                    self.shared
                        .borrow_mut()
                        .fetch_times
                        .push(ctx.now - started_at);
                    self.fetch_done(ctx);
                }
                _ => {}
            }
            return;
        }
        if from.0 == self.issuer.index() {
            // Fail closed: a malformed or duplicated issuance response is
            // ignored — the client never falls back to unblinded tokens.
            let Ok(frame) = FrameRef::decode(&msg.bytes) else {
                return;
            };
            let evals = decode_evals(frame.payload);
            let Some(req) = self.state.take() else {
                return; // duplicate response: issuance already consumed
            };
            for _ in 0..evals.len() {
                ctx.world.crypto_op("voprf_finalize");
            }
            if self.client.accept_issuance(req, &evals).is_err() {
                return; // bad DLEQ proof: refuse the batch
            }
            self.fetch(ctx);
        } else if from.0 == self.origin.index() {
            ctx.world
                .span("fetch", self.started_at.as_us(), ctx.now.as_us());
            self.shared
                .borrow_mut()
                .fetch_times
                .push(ctx.now - self.started_at);
            if self.fetches_left > 1 {
                self.fetches_left -= 1;
                self.started_at = ctx.now;
                self.fetch(ctx);
            }
        }
    }
}

fn decode_evals(payload: &[u8]) -> Vec<(EvaluatedElement, DleqProof)> {
    let mut evals = Vec::new();
    for chunk in payload.chunks_exact(32 + 64) {
        let mut e = [0u8; 32];
        e.copy_from_slice(&chunk[..32]);
        let mut c = [0u8; 32];
        c.copy_from_slice(&chunk[32..64]);
        let mut s = [0u8; 32];
        s.copy_from_slice(&chunk[64..96]);
        evals.push((EvaluatedElement(e), DleqProof { c, s }));
    }
    evals
}

impl ClientNode {
    /// Draw a fresh blinded issuance batch (the §3.2.1 request). Each call
    /// re-blinds from scratch, which is exactly what a re-randomized
    /// retransmission needs.
    fn issuance_request(&mut self, ctx: &mut Ctx) -> (Vec<u8>, Label) {
        for _ in 0..TOKENS_PER_BATCH {
            ctx.world.crypto_op("voprf_blind");
        }
        let req = self.client.request_tokens(ctx.rng, TOKENS_PER_BATCH);
        let mut bytes = Vec::new();
        for b in &req.blinded {
            bytes.extend_from_slice(&b.0);
        }
        self.state = Some(req);
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Activity),
        ]);
        (bytes, label)
    }

    fn transmit_issuance(&mut self, ctx: &mut Ctx, att: Attempt) {
        let (bytes, label) = self.issuance_request(ctx);
        self.shared
            .borrow_mut()
            .linkage
            .record(self.flow, att.seq, att.attempt, &bytes);
        let encoded = Frame::new(FrameType::Token, bytes)
            .encode()
            .expect("bounded payload");
        self.calls.transmit(ctx, self.issuer, &att, &encoded, label);
    }

    /// Retransmit redemption `att.seq`. The token payload is deliberately
    /// byte-identical across attempts — a one-time instrument cannot be
    /// re-randomized without double-spending — so it is *not* recorded
    /// into the linkage check; the origin dedups by `(client, seq)`.
    fn transmit_fetch(&mut self, ctx: &mut Ctx, payload: &[u8], att: Attempt) {
        let label = self.fetch_label();
        let encoded = Frame::new(FrameType::Data, payload.to_vec())
            .encode()
            .expect("bounded payload");
        self.calls.transmit(ctx, self.origin, &att, &encoded, label);
    }

    fn fetch_label(&self) -> Label {
        // The origin sees the request content (●) from an anonymous but
        // authorized client (△).
        Label::items([
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::sensitive_data(self.user, DataKind::Activity),
        ])
    }

    fn fetch_done(&mut self, ctx: &mut Ctx) {
        if self.fetches_left > 1 {
            self.fetches_left -= 1;
            self.fetch(ctx);
        }
    }

    fn fetch(&mut self, ctx: &mut Ctx) {
        // An empty wallet (possible when responses are duplicated under
        // faults) simply means no further fetches — never unauthenticated.
        let Some(token) = self.client.spend() else {
            return;
        };
        let mut payload = token.encode();
        payload.extend_from_slice(b"GET /private-resource");
        if let Some(att) = self.calls.begin(PpInflight::Fetch {
            payload: payload.clone(),
            started_at: ctx.now,
        }) {
            self.transmit_fetch(ctx, &payload, att);
            return;
        }
        let label = self.fetch_label();
        ctx.send_to(
            self.origin,
            Message::new(
                Frame::new(FrameType::Data, payload)
                    .encode()
                    .expect("bounded payload"),
                label,
            ),
        );
    }
}

struct IssuerNode {
    entity: EntityId,
    shared: Rc<RefCell<Shared>>,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: verdict per origin hop sequence, so a re-forwarded
    /// redemption check replays the first verdict instead of reading the
    /// retransmission as a double-spend.
    verdicts: BTreeMap<u64, bool>,
}

impl Node for IssuerNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let (seq, body) = if self.recover {
            let Some((seq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            (Some(seq), body.to_vec())
        } else {
            (None, msg.bytes)
        };
        let Ok(frame) = FrameRef::decode(&body) else {
            return;
        };
        match frame.ftype {
            FrameType::Token => {
                // Issuance request: batch of blinded elements.
                let blinded: Vec<BlindedElement> = frame
                    .payload
                    .chunks_exact(32)
                    .map(|c| {
                        let mut b = [0u8; 32];
                        b.copy_from_slice(c);
                        BlindedElement(b)
                    })
                    .collect();
                for _ in 0..blinded.len() {
                    ctx.world.crypto_op("voprf_evaluate");
                }
                let Ok(evals) = self.shared.borrow_mut().issuer.issue(ctx.rng, &blinded) else {
                    return; // malformed batch: refuse to issue
                };
                let mut bytes = Vec::new();
                for (e, p) in &evals {
                    bytes.extend_from_slice(&e.0);
                    bytes.extend_from_slice(&p.c);
                    bytes.extend_from_slice(&p.s);
                }
                let encoded = Frame::new(FrameType::Response, bytes)
                    .encode()
                    .expect("bounded payload");
                let reply = match seq {
                    // Echo the client's sequence: issuance evaluation is
                    // stateless, so retransmissions are simply re-answered.
                    Some(seq) => wire::frame(seq, &encoded),
                    None => encoded,
                };
                ctx.send(from, Message::new(reply, Label::Public));
            }
            FrameType::Data => {
                // Redemption check forwarded by the origin. Tokens are
                // unlinkable: the issuer learns that *some* token was
                // redeemed — attributable to no one (Label::Public on the
                // way in).
                if let Some(seq) = seq {
                    if let Some(&ok) = self.verdicts.get(&seq) {
                        // Replay: the first check's verdict stands — a
                        // retransmitted token is never a double-spend.
                        let encoded = Frame::new(FrameType::Response, vec![u8::from(ok)])
                            .encode()
                            .expect("bounded payload");
                        ctx.send(
                            from,
                            Message::new(wire::frame(seq, &encoded), Label::Public),
                        );
                        return;
                    }
                }
                // A token that fails to even decode is refused outright —
                // the reply keeps the origin's pending queue in sync.
                let ok = match Token::decode(frame.payload) {
                    Ok(token) => {
                        ctx.world.crypto_op("voprf_redeem");
                        self.shared.borrow_mut().issuer.redeem(&token).is_ok()
                    }
                    Err(_) => false,
                };
                let encoded = Frame::new(FrameType::Response, vec![u8::from(ok)])
                    .encode()
                    .expect("bounded payload");
                let reply = match seq {
                    Some(seq) => {
                        self.verdicts.insert(seq, ok);
                        wire::frame(seq, &encoded)
                    }
                    None => encoded,
                };
                ctx.send(from, Message::new(reply, Label::Public));
            }
            _ => {} // unexpected frame type: ignore
        }
    }
}

/// One redemption check the origin is driving (recovery path).
struct RedeemCheck {
    /// The token bytes, kept for re-forwarding while the issuer leg is
    /// still unresolved.
    token: Vec<u8>,
    /// The origin's hop-local sequence on the issuer leg.
    hopseq: u64,
    /// The issuer's verdict, once known — replayed to retransmissions.
    verdict: Option<bool>,
}

struct OriginNode {
    entity: EntityId,
    /// The redemption-check endpoint: the forwarded token is unlinkable,
    /// well under the issuer's `(▲, ⊙)` cap.
    issuer: Endpoint<RedeemCheckReq, Control, TokenIssuer>,
    shared: Rc<RefCell<Shared>>,
    /// Requests awaiting issuer verification: (client node, request label).
    pending: Vec<(NodeId, Label)>,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: one check per `(client node, client seq)`. The
    /// client's ARQ drives the whole chain — each retransmission either
    /// gets the stored verdict replayed or re-nudges the issuer leg.
    checks: BTreeMap<(usize, u64), RedeemCheck>,
    /// Reverse map: issuer-leg hop sequence → (client node, client seq).
    by_hop: BTreeMap<u64, (NodeId, u64)>,
    next_hop: u64,
}

impl OriginNode {
    fn verdict_bytes(ok: bool) -> Vec<u8> {
        if ok {
            b"200 OK content".to_vec()
        } else {
            b"403".to_vec()
        }
    }
}

impl Node for OriginNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if from.0 == self.issuer.index() {
            if self.recover {
                let Some((hopseq, body)) = wire::unframe(&msg.bytes) else {
                    return;
                };
                let Ok(frame) = FrameRef::decode(body) else {
                    return;
                };
                let ok = frame.payload == [1u8];
                let Some(&(client, cseq)) = self.by_hop.get(&hopseq) else {
                    return;
                };
                let Some(check) = self.checks.get_mut(&(client.0, cseq)) else {
                    return;
                };
                if check.verdict.is_none() {
                    // First verdict: count it exactly once.
                    check.verdict = Some(ok);
                    let mut shared = self.shared.borrow_mut();
                    if ok {
                        shared.redeemed += 1;
                    } else {
                        shared.refused += 1;
                    }
                }
                let reply = wire::frame(cseq, &Self::verdict_bytes(ok));
                ctx.send(client, Message::public(reply));
                return;
            }
            let Ok(frame) = FrameRef::decode(&msg.bytes) else {
                return;
            };
            let ok = frame.payload == [1u8];
            let Some((client, _label)) = self.pending.pop() else {
                return; // duplicated verdict: no request left to answer
            };
            let mut shared = self.shared.borrow_mut();
            if ok {
                shared.redeemed += 1;
            } else {
                shared.refused += 1;
            }
            drop(shared);
            ctx.send(client, Message::public(Self::verdict_bytes(ok)));
            return;
        }
        if self.recover {
            let Some((cseq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            let Ok(frame) = FrameRef::decode(body) else {
                return;
            };
            if frame.payload.len() < 64 {
                return; // truncated request: fail closed, no content served
            }
            let key = (from.0, cseq);
            if let Some(check) = self.checks.get(&key) {
                match check.verdict {
                    // Idempotent replay: the retransmitted token is never
                    // re-checked (and never re-counted).
                    Some(ok) => {
                        let reply = wire::frame(cseq, &Self::verdict_bytes(ok));
                        ctx.send(from, Message::public(reply));
                    }
                    // Still checking: re-nudge the issuer leg under the
                    // *same* hop sequence (the issuer replays its verdict).
                    None => {
                        let fwd = Frame::new(FrameType::Data, check.token.clone())
                            .encode()
                            .expect("bounded payload");
                        ctx.send_to(
                            self.issuer,
                            Message::new(wire::frame(check.hopseq, &fwd), Label::Public),
                        );
                    }
                }
                return;
            }
            let token = frame.payload[..64].to_vec();
            let hopseq = self.next_hop;
            self.next_hop += 1;
            self.checks.insert(
                key,
                RedeemCheck {
                    token: token.clone(),
                    hopseq,
                    verdict: None,
                },
            );
            self.by_hop.insert(hopseq, (from, cseq));
            let fwd = Frame::new(FrameType::Data, token)
                .encode()
                .expect("bounded payload");
            ctx.send_to(
                self.issuer,
                Message::new(wire::frame(hopseq, &fwd), Label::Public),
            );
            return;
        }
        // Client request: token (64 bytes) + request body.
        let Ok(frame) = FrameRef::decode(&msg.bytes) else {
            return;
        };
        if frame.payload.len() < 64 {
            return; // truncated request: fail closed, no content served
        }
        let token_bytes = &frame.payload[..64];
        self.pending.insert(0, (from, msg.label.clone()));
        // Forward only the token to the issuer — carries no user-
        // attributable information (unlinkable).
        ctx.send_to(
            self.issuer,
            Message::new(
                Frame::new(FrameType::Data, token_bytes.to_vec())
                    .encode()
                    .expect("bounded payload"),
                Label::Public,
            ),
        );
    }
}

fn run_impl(cfg: &PrivacypassConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
    use rand::SeedableRng;
    let (n_clients, fetches_each) = (cfg.clients, cfg.fetches_each);
    assert!(fetches_each <= TOKENS_PER_BATCH);
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9a55);

    let (mut world, harness) = Harness::begin(Privacypass::NAME, seed, opts);
    let issuer_org = world.add_org("issuer-co");
    let origin_org = world.add_org("origin-co");
    let user_org = world.add_org("users");
    let issuer_e = world.add_entity("Issuer", issuer_org, None);
    let origin_e = world.add_entity("Origin", origin_org, None);

    let issuer = Issuer::new(&mut setup_rng);
    let issuer_pk = issuer.public_key();
    let shared = Rc::new(RefCell::new(Shared {
        issuer,
        redeemed: 0,
        refused: 0,
        fetch_times: Vec::new(),
        linkage: RetryLinkage::new(),
    }));

    let mut users = Vec::new();
    let mut client_entities = Vec::new();
    for i in 0..n_clients {
        let u = world.add_user();
        let name = if i == 0 {
            "Client".to_string()
        } else {
            format!("Client {}", i + 1)
        };
        let e = world.add_entity(&name, user_org, Some(u));
        users.push(u);
        client_entities.push(e);
    }

    let mut net = harness.network(world, LinkParams::wan_ms(15));

    let issuance_ep: Endpoint<IssuanceReq, Control, TokenIssuer> = Endpoint::new(0);
    let check_ep: Endpoint<RedeemCheckReq, Control, TokenIssuer> = Endpoint::new(0);
    let origin_ep: Endpoint<AccessRequest, Control, TokenOrigin> = Endpoint::new(1);
    let recover_on = opts.recover.enabled;
    Harness::add_role::<TokenIssuer>(
        &mut net,
        Box::new(IssuerNode {
            entity: issuer_e,
            shared: shared.clone(),
            recover: recover_on,
            verdicts: BTreeMap::new(),
        }),
    );
    Harness::add_role::<TokenOrigin>(
        &mut net,
        Box::new(OriginNode {
            entity: origin_e,
            issuer: check_ep,
            shared: shared.clone(),
            pending: Vec::new(),
            recover: recover_on,
            checks: BTreeMap::new(),
            by_hop: BTreeMap::new(),
            next_hop: 0,
        }),
    );
    for (ci, (&u, &e)) in users.iter().zip(client_entities.iter()).enumerate() {
        Harness::add_role::<TokenClient>(
            &mut net,
            Box::new(ClientNode {
                entity: e,
                user: u,
                issuer: issuance_ep,
                origin: origin_ep,
                shared: shared.clone(),
                state: None,
                client: Client::new(issuer_pk),
                fetches_left: fetches_each,
                started_at: SimTime::ZERO,
                calls: Driver::new(&opts.recover, derive_seed(seed, 0x9a50 + ci as u64)),
                flow: ci as u64,
            }),
        );
    }

    let core = harness.finish(net);
    let shared = Rc::try_unwrap(shared)
        .map_err(|_| ())
        .expect("sim released")
        .into_inner();
    ScenarioReport {
        world: core.world,
        trace: core.trace,
        redeemed: shared.redeemed,
        refused: shared.refused,
        mean_fetch_us: mean_us(&shared.fetch_times),
        users,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected: (n_clients * fetches_each) as u64,
        retry_linkage: shared.linkage.violations(),
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
