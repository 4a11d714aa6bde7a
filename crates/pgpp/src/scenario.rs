//! Legacy vs. PGPP cellular runs on the simulator.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, EntityId, FaultLog, IdentityKind, InfoItem, Label, MetricsReport, RunOptions,
    Scenario, UserId, World,
};
use dcp_privacypass::protocol::{Client as TokenClient, Issuer, Token};
use dcp_runtime::seam::Registration;
use dcp_runtime::{
    wire, Admits, Attempt, CallEvent, Control, Ctx, Driver, Endpoint, Harness, LinkParams, Message,
    Node, NodeId, RetryLinkage, Role, Trace, TypedSend, WireLabel,
};
use rand::Rng as _;

use crate::cellular::{trajectory_linkage, CellId, CoreNetwork, Imsi, LinkageResult};
use crate::types::{
    pgpp_declared_caps, Handset, IssueTokensReq, LegacyAttach, LegacyCore, PgppAttach, PgppCore,
    PgppGateway, VerifyTokenReq,
};

/// Operating mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Permanent IMSIs, billing identity inside the core.
    Legacy,
    /// Epoch-shuffled IMSIs, blind-token auth against the PGPP-GW.
    Pgpp,
}

/// Configuration.
#[derive(Clone, Copy, Debug)]
pub struct PgppConfig {
    /// Operating mode.
    pub mode: Mode,
    /// Subscribers.
    pub users: usize,
    /// Cells in the network.
    pub cells: usize,
    /// Epochs (IMSI shuffle periods).
    pub epochs: u32,
    /// Moves per user per epoch.
    pub moves_per_epoch: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for PgppConfig {
    fn default() -> Self {
        PgppConfig {
            mode: Mode::Pgpp,
            users: 8,
            cells: 3,
            epochs: 3,
            moves_per_epoch: 2,
            seed: 0,
        }
    }
}

/// Report.
pub struct PgppReport {
    /// Knowledge base.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// Successful attaches at the core.
    pub attaches: usize,
    /// Trajectory-linking attack outcome over the core's log.
    pub linkage: LinkageResult,
    /// Distinct IMSIs the core observed.
    pub distinct_imsis: usize,
    /// The subscribers.
    pub users: Vec<UserId>,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (`users × epochs × moves_per_epoch`).
    pub expected: u64,
    /// Retry-linkage violations over the re-blinded issuance attempts
    /// (attach retransmissions carry the *same* one-time token by design —
    /// see `docs/RECOVERY.md` on instruments the receiver must dedup).
    pub retry_linkage: Vec<String>,
}

impl dcp_core::ScenarioReport for PgppReport {
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
        self.attaches as u64
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

/// §3.2.3 PGPP cellular: epoch-shuffled IMSIs with blind-token attach
/// auth (or the coupled legacy mode, per config).
pub struct Pgpp;

impl Scenario for Pgpp {
    type Config = PgppConfig;
    type Report = PgppReport;
    const NAME: &'static str = "pgpp";

    fn run_with(cfg: &PgppConfig, seed: u64, opts: &RunOptions) -> PgppReport {
        let config = PgppConfig { seed, ..*cfg };
        run_impl(&config, opts)
    }
}

impl Pgpp {
    /// Five handsets moving twice per epoch between two cells for two
    /// epochs, in PGPP mode.
    pub const REGISTRATION: Registration = Registration {
        name: Pgpp::NAME,
        run: |seed, opts| {
            let cfg = PgppConfig {
                mode: Mode::Pgpp,
                users: 5,
                cells: 2,
                epochs: 2,
                moves_per_epoch: 2,
                seed: 0, // overridden by the run seed
            };
            Box::new(Pgpp::run_with(&cfg, seed, opts))
        },
        declared_caps: pgpp_declared_caps,
        serve: None,
    };
}

impl PgppReport {
    /// Derive the §3.2.3 table for user `i`.
    pub fn table(&self, i: usize) -> DecouplingTable {
        DecouplingTable::derive(&self.world, self.users[i], &["User", "PGPP-GW", "NGC"])
    }

    /// The paper's table.
    pub fn paper_table() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("User", "(▲_H, ▲_N, ●)"),
            ("PGPP-GW", "(▲_H, △_N, ⊙)"),
            ("NGC", "(△_H, △_N, ⊙/●)"),
        ])
    }
}

const TIMER_MOVE: u64 = 1;

struct Shared {
    core: CoreNetwork,
    issuer: Issuer,
    /// Ground truth (epoch, imsi) → subscriber index.
    truth: HashMap<(u32, Imsi), usize>,
    /// Retry-linkage check fed by every issuance attempt's blinded batch.
    linkage: RetryLinkage,
}

/// What reliable call `seq` of one phone stands for.
enum PgInflight {
    /// The token-issuance round (re-blinded fresh on every attempt).
    Issuance,
    /// One attach: the *same* payload is retransmitted verbatim (a fresh
    /// token per attempt would drain the wallet); the NGC and gateway
    /// dedup instead.
    Attach { payload: Vec<u8> },
}

/// The handset, generic over which core it attaches to: `PhoneNode<
/// PgppCore, PgppAttach>` compiles against the core's `(△, ⊙/●)` cap,
/// while `PhoneNode<LegacyCore, LegacyAttach>` compiles *only* because
/// [`LegacyCore`] declares itself coupled by design — instantiating it
/// against [`PgppCore`] is a build error.
struct PhoneNode<R: Role, M: WireLabel> {
    entity: EntityId,
    user: UserId,
    index: usize,
    mode: Mode,
    ngc: Endpoint<M, Control, R>,
    gw: Endpoint<IssueTokensReq, Control, PgppGateway>,
    cells: usize,
    epochs: u32,
    moves_per_epoch: usize,
    epoch_len_us: u64,
    shared: Rc<RefCell<Shared>>,
    wallet: TokenClient,
    pending_issuance: Option<dcp_privacypass::protocol::IssuanceRequest>,
    moves_done: usize,
    /// Per-request reliable-call driver (inert when recovery is disabled).
    calls: Driver<PgInflight>,
    flow: u64,
}

impl<R: Role, M: WireLabel + Admits<R>> PhoneNode<R, M> {
    fn current_epoch(&self, now_us: u64) -> u32 {
        ((now_us / self.epoch_len_us) as u32).min(self.epochs - 1)
    }

    /// Draw a fresh blinded issuance batch. Each call re-blinds from
    /// scratch, which is exactly what a re-randomized retransmission needs.
    fn issuance_request(&mut self, ctx: &mut Ctx) -> (Vec<u8>, Label) {
        let need = (self.epochs as usize) * self.moves_per_epoch;
        for _ in 0..need {
            ctx.world.crypto_op("voprf_blind");
        }
        let req = self.wallet.request_tokens(ctx.rng, need);
        let mut bytes = vec![0x01u8]; // tag: issuance request
        for b in &req.blinded {
            bytes.extend_from_slice(&b.0);
        }
        self.pending_issuance = Some(req);
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Human),
            InfoItem::plain_identity(self.user, IdentityKind::Network),
            InfoItem::plain_data(self.user, DataKind::Payload),
        ]);
        (bytes, label)
    }

    fn transmit_issuance(&mut self, ctx: &mut Ctx, att: Attempt) {
        let (bytes, label) = self.issuance_request(ctx);
        self.shared
            .borrow_mut()
            .linkage
            .record(self.flow, att.seq, att.attempt, &bytes);
        self.calls.transmit(ctx, self.gw, &att, &bytes, label);
    }

    /// Retransmit attach `att.seq`. The payload is deliberately
    /// byte-identical across attempts — the one-time attach token cannot
    /// be re-randomized without draining the wallet — so it is *not*
    /// recorded into the linkage check; the NGC dedups by `(phone, seq)`.
    fn transmit_attach(&mut self, ctx: &mut Ctx, payload: &[u8], att: Attempt) {
        let label = self.attach_label();
        self.calls.transmit(ctx, self.ngc, &att, payload, label);
    }

    fn attach_label(&self) -> Label {
        // What the core learns from an attach: the serving cell (location,
        // ●-grade data) bound to whatever identity the IMSI is. Legacy:
        // the IMSI *is* the subscriber (▲_N, and via the billing database
        // ▲_H). PGPP: a shuffled pseudonym (△_N) — the human identity
        // never appears (△_H comes from "a member of the subscriber
        // aggregate").
        match self.mode {
            Mode::Legacy => Label::items([
                InfoItem::sensitive_identity(self.user, IdentityKind::Network),
                InfoItem::sensitive_identity(self.user, IdentityKind::Human),
                InfoItem::sensitive_data(self.user, DataKind::Location),
            ]),
            Mode::Pgpp => Label::items([
                InfoItem::plain_identity(self.user, IdentityKind::Network),
                InfoItem::plain_identity(self.user, IdentityKind::Human),
                InfoItem::partial_data(self.user, DataKind::Location),
            ]),
        }
    }

    fn imsi_for(&self, epoch: u32) -> Imsi {
        match self.mode {
            // Permanent: derived from the subscriber index only.
            Mode::Legacy => Imsi(1000 + self.index as u64),
            // Shuffled per epoch: a per-epoch pseudonym. (In deployment
            // this comes from the SIM's PGPP profile; the simulation uses
            // a deterministic mix so ground truth is recordable.)
            Mode::Pgpp => Imsi(
                0x5eed_0000_0000
                    + (epoch as u64) * 10_000
                    + ((self.index as u64 * 7919 + epoch as u64 * 104729) % 10_000),
            ),
        }
    }

    fn attach(&mut self, ctx: &mut Ctx) {
        let epoch = self.current_epoch(ctx.now.as_us());
        let imsi = self.imsi_for(epoch);
        let cell = CellId(ctx.rng.gen_range(0..self.cells) as u32);
        self.shared
            .borrow_mut()
            .truth
            .insert((epoch, imsi), self.index);

        let mut payload = imsi.0.to_be_bytes().to_vec();
        payload.extend_from_slice(&cell.0.to_be_bytes());
        payload.extend_from_slice(&epoch.to_be_bytes());
        let token = if self.mode == Mode::Pgpp {
            // No token (issuance lost under faults): skip the attach
            // entirely rather than attach unauthenticated.
            let Some(t) = self.wallet.spend() else {
                return;
            };
            t.encode()
        } else {
            Vec::new()
        };
        payload.extend_from_slice(&token);

        if let Some(att) = self.calls.begin(PgInflight::Attach {
            payload: payload.clone(),
        }) {
            self.transmit_attach(ctx, &payload, att);
            return;
        }
        let label = self.attach_label();
        ctx.send_to(self.ngc, Message::new(payload, label));
    }

    /// Schedule every attach up front: `moves_per_epoch` attaches inside
    /// each epoch, jittered within their slot so arrival order varies but
    /// every user is active in every epoch.
    fn schedule_all_moves(&mut self, ctx: &mut Ctx) {
        let slot = self.epoch_len_us / (self.moves_per_epoch as u64 + 1);
        for e in 0..self.epochs as u64 {
            for m in 0..self.moves_per_epoch as u64 {
                let jitter = ctx.rng.gen_range(0..slot / 4);
                let at = e * self.epoch_len_us + (m + 1) * slot + jitter;
                ctx.set_timer(at.saturating_sub(ctx.now.as_us()), TIMER_MOVE);
            }
        }
    }
}

impl<R: Role + 'static, M: WireLabel + Admits<R> + 'static> Node for PhoneNode<R, M> {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.world.record(
            self.entity,
            InfoItem::sensitive_identity(self.user, IdentityKind::Human),
        );
        ctx.world.record(
            self.entity,
            InfoItem::sensitive_identity(self.user, IdentityKind::Network),
        );
        ctx.world.record(
            self.entity,
            InfoItem::sensitive_data(self.user, DataKind::Location),
        );
        if self.mode == Mode::Pgpp {
            // Buy service: authenticate to the gateway with the billing
            // identity (▲_H) and obtain blinded attach tokens (⊙).
            if let Some(att) = self.calls.begin(PgInflight::Issuance) {
                self.transmit_issuance(ctx, att);
                return;
            }
            let (bytes, label) = self.issuance_request(ctx);
            ctx.send_to(self.gw, Message::new(bytes, label));
        } else {
            self.schedule_all_moves(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if self.calls.enabled() {
            let Some((seq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            match self.calls.get(seq) {
                Some(PgInflight::Issuance) if from.0 == self.gw.index() => {
                    let evals = decode_evals(body);
                    let Some(req) = self.pending_issuance.take() else {
                        return;
                    };
                    for _ in 0..evals.len() {
                        ctx.world.crypto_op("voprf_finalize");
                    }
                    if self.wallet.accept_issuance(req, &evals).is_err() {
                        // A superseded attempt's response fails against the
                        // re-blinded state: drop it, the timer retries.
                        return;
                    }
                    if self.calls.complete(seq).is_none() {
                        return;
                    }
                    ctx.world.span("issuance", 0, ctx.now.as_us());
                    self.schedule_all_moves(ctx);
                }
                Some(PgInflight::Attach { .. }) if from.0 == self.ngc.index() => {
                    // Duplicated acks complete (and count) exactly once.
                    self.calls.complete(seq);
                }
                _ => {}
            }
            return;
        }
        if from.0 == self.gw.index() {
            // Token issuance response.
            let evals = decode_evals(&msg.bytes);
            let Some(req) = self.pending_issuance.take() else {
                return; // duplicate issuance response: already consumed
            };
            for _ in 0..evals.len() {
                ctx.world.crypto_op("voprf_finalize");
            }
            if self.wallet.accept_issuance(req, &evals).is_err() {
                return; // bad proof: refuse the batch, attach nothing
            }
            ctx.world.span("issuance", 0, ctx.now.as_us());
            self.schedule_all_moves(ctx);
        }
        // Attach acks need no action.
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.calls.on_timer(ctx, token) {
            CallEvent::App(_) => {
                // A scheduled move (the only non-ARQ timer this node sets).
                self.attach(ctx);
                self.moves_done += 1;
            }
            CallEvent::Ignored => {}
            CallEvent::Retry(att) => match self.calls.get(att.seq) {
                Some(PgInflight::Issuance) => self.transmit_issuance(ctx, att),
                Some(PgInflight::Attach { payload }) => {
                    let payload = payload.clone();
                    self.transmit_attach(ctx, &payload, att);
                }
                None => {}
            },
            // An abandoned issuance leaves an empty wallet, an abandoned
            // attach an unserved move: the phone never attaches
            // unauthenticated.
            CallEvent::Exhausted { .. } => {}
        }
    }
}

fn decode_evals(
    payload: &[u8],
) -> Vec<(
    dcp_crypto::oprf::EvaluatedElement,
    dcp_crypto::oprf::DleqProof,
)> {
    let mut evals = Vec::new();
    for chunk in payload.chunks_exact(96) {
        let mut e = [0u8; 32];
        e.copy_from_slice(&chunk[..32]);
        let mut c = [0u8; 32];
        c.copy_from_slice(&chunk[32..64]);
        let mut s = [0u8; 32];
        s.copy_from_slice(&chunk[64..96]);
        evals.push((
            dcp_crypto::oprf::EvaluatedElement(e),
            dcp_crypto::oprf::DleqProof { c, s },
        ));
    }
    evals
}

/// One attach the core is driving (recovery path).
struct AttachCheck {
    /// Arrival time of the first transmission (the recorded attach time).
    t: u64,
    imsi: Imsi,
    cell: CellId,
    epoch: u32,
    /// Bare token bytes, kept for re-nudging the gateway leg (PGPP).
    token: Vec<u8>,
    /// The core's hop-local sequence on the gateway leg.
    hopseq: u64,
    /// Has the verdict landed (attach recorded or rejected)?
    resolved: bool,
}

struct NgcNode {
    entity: EntityId,
    mode: Mode,
    /// The over-the-top verification endpoint: forwarded tokens are
    /// unlinkable, well under the gateway's `(▲, ⊙)` cap.
    gw: Endpoint<VerifyTokenReq, Control, PgppGateway>,
    shared: Rc<RefCell<Shared>>,
    /// Attaches awaiting gateway token verification (PGPP mode).
    awaiting: Vec<(u64, Imsi, CellId, u32)>,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: one recorded attach per `(phone node, phone seq)` —
    /// the phone's ARQ drives the chain; retransmitted attaches mutate the
    /// core log exactly once.
    checks: BTreeMap<(usize, u64), AttachCheck>,
    /// Reverse map: gateway-leg hop sequence → (phone node, phone seq).
    by_hop: BTreeMap<u64, (NodeId, u64)>,
    next_hop: u64,
}

impl Node for NgcNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if self.recover {
            self.on_message_recover(ctx, from, msg);
            return;
        }
        if from.0 == self.gw.index() {
            // Verification verdict for the oldest awaiting attach.
            let ok = msg.bytes == [1u8];
            let Some((t, imsi, cell, epoch)) = self.awaiting.pop() else {
                return; // duplicated verdict: nothing awaits it
            };
            let mut shared = self.shared.borrow_mut();
            if ok {
                shared.core.record_attach(t, imsi, cell, epoch);
            } else {
                shared.core.rejected += 1;
            }
            return;
        }
        if msg.bytes.len() < 16 {
            return; // truncated attach: reject
        }
        let imsi = Imsi(u64::from_be_bytes(msg.bytes[..8].try_into().unwrap()));
        let cell = CellId(u32::from_be_bytes(msg.bytes[8..12].try_into().unwrap()));
        let epoch = u32::from_be_bytes(msg.bytes[12..16].try_into().unwrap());
        match self.mode {
            Mode::Legacy => {
                // Billing database lookup inside the core authenticates the
                // IMSI directly.
                self.shared
                    .borrow_mut()
                    .core
                    .record_attach(ctx.now.as_us(), imsi, cell, epoch);
            }
            Mode::Pgpp => {
                // Over-the-top auth: forward the bare token to the gateway.
                // The token is unlinkable — it attributes to no subject.
                let mut token = vec![0x02u8]; // tag: verification request
                token.extend_from_slice(&msg.bytes[16..]);
                self.awaiting
                    .insert(0, (ctx.now.as_us(), imsi, cell, epoch));
                ctx.send_to(self.gw, Message::new(token, Label::Public));
            }
        }
    }
}

impl NgcNode {
    /// Recovery-mode message handling: everything is seq-framed, every
    /// attach is acknowledged, and duplicates replay rather than re-record.
    fn on_message_recover(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        if from.0 == self.gw.index() {
            // Verification verdict, addressed by our hop sequence.
            let Some((hopseq, body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            let Some(&(phone, cseq)) = self.by_hop.get(&hopseq) else {
                return;
            };
            let Some(check) = self.checks.get_mut(&(phone.0, cseq)) else {
                return;
            };
            if check.resolved {
                return; // duplicated verdict: recorded exactly once
            }
            check.resolved = true;
            let ok = body == [1u8];
            let mut shared = self.shared.borrow_mut();
            if ok {
                shared
                    .core
                    .record_attach(check.t, check.imsi, check.cell, check.epoch);
            } else {
                shared.core.rejected += 1;
            }
            drop(shared);
            ctx.send(phone, Message::public(wire::frame(cseq, b"ok")));
            return;
        }
        let Some((cseq, body)) = wire::unframe(&msg.bytes) else {
            return;
        };
        if body.len() < 16 {
            return; // truncated attach: reject
        }
        let key = (from.0, cseq);
        if let Some(check) = self.checks.get(&key) {
            if check.resolved {
                // Idempotent replay: the attach is on record, ack again.
                ctx.send(from, Message::public(wire::frame(cseq, b"ok")));
            } else {
                // Still verifying: re-nudge the gateway under the *same*
                // hop sequence (the gateway replays its verdict).
                let mut fwd = vec![0x02u8];
                fwd.extend_from_slice(&check.token);
                ctx.send_to(
                    self.gw,
                    Message::new(wire::frame(check.hopseq, &fwd), Label::Public),
                );
            }
            return;
        }
        let imsi = Imsi(u64::from_be_bytes(body[..8].try_into().unwrap()));
        let cell = CellId(u32::from_be_bytes(body[8..12].try_into().unwrap()));
        let epoch = u32::from_be_bytes(body[12..16].try_into().unwrap());
        match self.mode {
            Mode::Legacy => {
                // No gateway leg: record immediately, remember the ack.
                self.checks.insert(
                    key,
                    AttachCheck {
                        t: ctx.now.as_us(),
                        imsi,
                        cell,
                        epoch,
                        token: Vec::new(),
                        hopseq: 0,
                        resolved: true,
                    },
                );
                self.shared
                    .borrow_mut()
                    .core
                    .record_attach(ctx.now.as_us(), imsi, cell, epoch);
                ctx.send(from, Message::public(wire::frame(cseq, b"ok")));
            }
            Mode::Pgpp => {
                let token = body[16..].to_vec();
                let hopseq = self.next_hop;
                self.next_hop += 1;
                let mut fwd = vec![0x02u8];
                fwd.extend_from_slice(&token);
                self.checks.insert(
                    key,
                    AttachCheck {
                        t: ctx.now.as_us(),
                        imsi,
                        cell,
                        epoch,
                        token,
                        hopseq,
                        resolved: false,
                    },
                );
                self.by_hop.insert(hopseq, (from, cseq));
                ctx.send_to(
                    self.gw,
                    Message::new(wire::frame(hopseq, &fwd), Label::Public),
                );
            }
        }
    }
}

struct GwNode {
    entity: EntityId,
    shared: Rc<RefCell<Shared>>,
    /// Is the run's recovery layer on?
    recover: bool,
    /// Recovery path: verdict per NGC hop sequence, so a re-forwarded
    /// verification replays the first verdict instead of reading the
    /// retransmission as a double-spent token.
    verdicts: BTreeMap<u64, bool>,
}

impl Node for GwNode {
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
        let Some(&tag) = body.first() else {
            return;
        };
        if tag == 0x02 {
            // Token verification from the NGC. A token that fails to even
            // decode is refused — the reply keeps the NGC queue in sync.
            if let Some(seq) = seq {
                if let Some(&ok) = self.verdicts.get(&seq) {
                    // Replay: the first verification's outcome stands.
                    ctx.send(
                        from,
                        Message::new(wire::frame(seq, &[u8::from(ok)]), Label::Public),
                    );
                    return;
                }
            }
            ctx.world.crypto_op("voprf_redeem");
            let ok = match Token::decode(&body[1..]) {
                Ok(token) => self.shared.borrow_mut().issuer.redeem(&token).is_ok(),
                Err(_) => false,
            };
            let reply = vec![u8::from(ok)];
            let bytes = match seq {
                Some(s) => {
                    self.verdicts.insert(s, ok);
                    wire::frame(s, &reply)
                }
                None => reply,
            };
            ctx.send(from, Message::new(bytes, Label::Public));
        } else {
            // Issuance request from a phone (batch of 32-byte blinded
            // elements). Stateless: a retransmitted (re-blinded) batch is
            // simply evaluated again — no debit to protect.
            let blinded: Vec<dcp_crypto::oprf::BlindedElement> = body[1..]
                .chunks_exact(32)
                .map(|c| {
                    let mut b = [0u8; 32];
                    b.copy_from_slice(c);
                    dcp_crypto::oprf::BlindedElement(b)
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
            let out = match seq {
                Some(s) => wire::frame(s, &bytes),
                None => bytes,
            };
            ctx.send(from, Message::new(out, Label::Public));
        }
    }
}

/// Register one handset against the mode's typed core: the `(R, M)` pair
/// is where the wiring states, in types, what its attaches reveal.
#[allow(clippy::too_many_arguments)]
fn add_phone<R: Role + 'static, M: WireLabel + dcp_core::Admits<R> + 'static>(
    net: &mut dcp_runtime::Network,
    config: &PgppConfig,
    opts: &RunOptions,
    i: usize,
    u: UserId,
    e: EntityId,
    shared: &Rc<RefCell<Shared>>,
    issuer_pk: dcp_crypto::oprf::PublicKey,
    epoch_len_us: u64,
) {
    Harness::add_role::<Handset>(
        net,
        Box::new(PhoneNode::<R, M> {
            entity: e,
            user: u,
            index: i,
            mode: config.mode,
            ngc: Endpoint::new(1),
            gw: Endpoint::new(0),
            cells: config.cells,
            epochs: config.epochs,
            moves_per_epoch: config.moves_per_epoch,
            epoch_len_us,
            shared: shared.clone(),
            wallet: TokenClient::new(issuer_pk),
            pending_issuance: None,
            moves_done: 0,
            calls: Driver::new(&opts.recover, derive_seed(config.seed, 0x9690 + i as u64)),
            flow: i as u64,
        }),
    );
}

fn run_impl(config: &PgppConfig, opts: &RunOptions) -> PgppReport {
    use rand::SeedableRng;
    let config = *config;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0x9699);
    assert!(config.epochs >= 1);

    let (mut world, harness) = Harness::begin(Pgpp::NAME, config.seed, opts);
    let user_org = world.add_org("subscribers");
    let core_org = world.add_org("mobile-operator");
    let gw_org = world.add_org("pgpp-operator");
    let gw_e = world.add_entity("PGPP-GW", gw_org, None);
    let ngc_e = world.add_entity("NGC", core_org, None);

    let issuer = Issuer::new(&mut setup_rng);
    let issuer_pk = issuer.public_key();
    let shared = Rc::new(RefCell::new(Shared {
        core: CoreNetwork::new(),
        issuer,
        truth: HashMap::new(),
        linkage: RetryLinkage::new(),
    }));

    let mut users = Vec::new();
    let mut phone_entities = Vec::new();
    for i in 0..config.users {
        let u = world.add_user();
        let name = if i == 0 {
            "User".to_string()
        } else {
            format!("User {}", i + 1)
        };
        phone_entities.push(world.add_entity(&name, user_org, Some(u)));
        users.push(u);
        if config.mode == Mode::Legacy {
            // The operator's billing DB binds IMSI → human identity.
            world.record(ngc_e, InfoItem::sensitive_identity(u, IdentityKind::Human));
        } else {
            // The gateway bills the subscriber (▲_H) but sees only token
            // traffic (⊙); it also knows its customers exist as network
            // users (△_N).
            world.record(gw_e, InfoItem::sensitive_identity(u, IdentityKind::Human));
        }
    }

    let mut net = harness.network(world, LinkParams::wan_ms(5));
    let gw_ep: Endpoint<VerifyTokenReq, Control, PgppGateway> = Endpoint::new(0);
    let recover_on = opts.recover.enabled;
    Harness::add_role::<PgppGateway>(
        &mut net,
        Box::new(GwNode {
            entity: gw_e,
            shared: shared.clone(),
            recover: recover_on,
            verdicts: BTreeMap::new(),
        }),
    );
    let ngc = Box::new(NgcNode {
        entity: ngc_e,
        mode: config.mode,
        gw: gw_ep,
        shared: shared.clone(),
        awaiting: Vec::new(),
        recover: recover_on,
        checks: BTreeMap::new(),
        by_hop: BTreeMap::new(),
        next_hop: 0,
    });
    match config.mode {
        Mode::Legacy => Harness::add_role::<LegacyCore>(&mut net, ngc),
        Mode::Pgpp => Harness::add_role::<PgppCore>(&mut net, ngc),
    };
    let epoch_len_us = 1_000_000;
    for (i, (&u, &e)) in users.iter().zip(phone_entities.iter()).enumerate() {
        match config.mode {
            Mode::Legacy => add_phone::<LegacyCore, LegacyAttach>(
                &mut net,
                &config,
                opts,
                i,
                u,
                e,
                &shared,
                issuer_pk,
                epoch_len_us,
            ),
            Mode::Pgpp => add_phone::<PgppCore, PgppAttach>(
                &mut net,
                &config,
                opts,
                i,
                u,
                e,
                &shared,
                issuer_pk,
                epoch_len_us,
            ),
        }
    }

    let core = harness.finish(net);
    let shared = Rc::try_unwrap(shared).map_err(|_| ()).unwrap().into_inner();
    let linkage = trajectory_linkage(&shared.core.log, &shared.truth);
    PgppReport {
        world: core.world,
        trace: core.trace,
        attaches: shared.core.log.len(),
        linkage,
        distinct_imsis: shared.core.distinct_imsis(),
        users,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected: (config.users * config.epochs as usize * config.moves_per_epoch) as u64,
        retry_linkage: shared.linkage.violations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{analyze, FaultConfig};

    fn run(config: PgppConfig) -> PgppReport {
        Pgpp::run(&config, config.seed)
    }

    #[test]
    fn instrumented_run_counts_voprf_ops() {
        let report = Pgpp::run_with(&cfg(Mode::Pgpp), 11, &RunOptions::observed());
        assert!(report.metrics.wire_accounting_holds());
        // 6 users × 6 tokens: blinded, evaluated, finalized once each;
        // redeemed once per attach.
        assert_eq!(report.metrics.crypto_ops["voprf_blind"], 36);
        assert_eq!(report.metrics.crypto_ops["voprf_evaluate"], 36);
        assert_eq!(report.metrics.crypto_ops["voprf_finalize"], 36);
        assert_eq!(
            report.metrics.crypto_ops["voprf_redeem"] as usize,
            report.attaches
        );
        assert_eq!(report.metrics.span_count("issuance"), 6);
        // Legacy mode does no token crypto at all.
        let legacy = Pgpp::run_with(&cfg(Mode::Legacy), 11, &RunOptions::observed());
        assert_eq!(legacy.metrics.crypto_total(), 0);
    }

    fn cfg(mode: Mode) -> PgppConfig {
        PgppConfig {
            mode,
            users: 6,
            cells: 2,
            epochs: 3,
            moves_per_epoch: 2,
            seed: 11,
        }
    }

    #[test]
    fn pgpp_reproduces_paper_table() {
        let report = run(cfg(Mode::Pgpp));
        assert!(report.attaches > 0);
        let derived = report.table(0);
        let expected = PgppReport::paper_table();
        assert_eq!(
            derived,
            expected,
            "diff:\n{}",
            derived.diff(&expected).unwrap_or_default()
        );
        assert!(analyze(&report.world).decoupled);
    }

    #[test]
    fn legacy_couples_at_the_core() {
        let report = run(cfg(Mode::Legacy));
        let verdict = analyze(&report.world);
        assert!(!verdict.decoupled);
        assert!(verdict.offenders().contains(&"NGC"));
    }

    #[test]
    fn legacy_trajectories_fully_linkable() {
        let report = run(cfg(Mode::Legacy));
        assert!(report.linkage.attempts > 0);
        assert!(
            (report.linkage.accuracy - 1.0).abs() < 1e-9,
            "{:?}",
            report.linkage
        );
        assert_eq!(report.distinct_imsis, 6, "one permanent IMSI per user");
    }

    #[test]
    fn pgpp_shuffling_breaks_linkage() {
        let legacy = run(cfg(Mode::Legacy));
        let pgpp = run(cfg(Mode::Pgpp));
        assert!(pgpp.distinct_imsis > legacy.distinct_imsis);
        assert!(
            pgpp.linkage.accuracy < legacy.linkage.accuracy,
            "pgpp {:?} vs legacy {:?}",
            pgpp.linkage,
            legacy.linkage
        );
        // With 6 users over 2 cells the same-cell guess is mostly wrong.
        assert!(pgpp.linkage.accuracy < 0.7, "{:?}", pgpp.linkage);
    }

    #[test]
    fn all_attaches_authenticated_in_pgpp() {
        let report = run(cfg(Mode::Pgpp));
        // Every move produced exactly one recorded attach (tokens all
        // valid and fresh).
        assert_eq!(report.attaches, 6 * 3 * 2);
    }

    #[test]
    fn recovered_harsh_run_records_every_attach_exactly_once() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        let c = cfg(Mode::Pgpp);
        let calm = Pgpp::run_with(&c, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Pgpp::run_with(&c, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(
            calm.attaches as u64,
            calm.expected_units().unwrap(),
            "calm recovered run attaches every move"
        );
        assert_eq!(
            harsh.attaches as u64,
            harsh.expected_units().unwrap(),
            "under harsh faults the recovery layer still finishes the workload"
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
    fn recovered_harsh_legacy_still_couples() {
        use dcp_core::ScenarioReport as _;
        let harsh = Pgpp::run_with(
            &cfg(Mode::Legacy),
            31,
            &RunOptions::recovered(&FaultConfig::harsh()),
        );
        assert_eq!(harsh.attaches as u64, harsh.expected_units().unwrap());
        // Recovery restores liveness but never repairs the coupling:
        // legacy mode still concentrates knowledge at the core.
        assert!(!analyze(&harsh.world).decoupled);
    }

    #[test]
    fn recovered_calm_run_matches_plain_completion() {
        let plain = run(cfg(Mode::Pgpp));
        let rec = Pgpp::run_with(
            &cfg(Mode::Pgpp),
            11,
            &RunOptions::recovered(&FaultConfig::calm()),
        );
        assert_eq!(plain.attaches, rec.attaches);
        assert_eq!(plain.table(0), rec.table(0));
    }
}
