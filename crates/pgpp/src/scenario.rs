//! Legacy vs. PGPP cellular runs, written once as seam roles: a handset
//! per subscriber, the PGPP gateway and the cellular core (NGC). One
//! `wiring` builds them; the simulator hosts them ([`Pgpp`]) and
//! [`Pgpp::REGISTRATION`] hands the same roles to `dcp-serve`.
//!
//! Every leg carries an 8-byte sequence number (`dcp_runtime::wire`
//! framing) on every run. The core keys each attach by the handset's
//! `(peer, seq)` and asks the gateway under a number of its own
//! ([`CheckForwarder`]), so a verdict settles the attach whose token it
//! judged, and a duplicated or retransmitted attach is answered from the
//! first verdict instead of being refused as a double spend. A run's
//! `RecoverConfig` only arms the handsets' retries.
//!
//! Every decoder on received bytes fails closed with a typed error: a
//! frame that does not parse is dropped, never answered.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, FaultLog, IdentityKind, InfoItem, Label, MetricsReport, RunOptions, Scenario, UserId,
    World,
};
use dcp_crypto::oprf::{BlindedElement, PublicKey};
use dcp_privacypass::protocol::{
    decode_batch, decode_evals, encode_evals, exact_len, Client as TokenClient, IssuanceRequest,
    Issuer, Token, WrongLength, EVAL_LEN,
};
use dcp_runtime::seam::{
    lock, nth, PeerId, Registration, RoleSpec, ServeSpec, WireCtx, WireMsg, WireRole,
    MAX_FRAME_PAYLOAD,
};
use dcp_runtime::{
    wire, Admits, Attempt, CheckForwarder, Control, Endpoint, Forward, Harness, LinkParams,
    ReliableCall, RetryLinkage, Role, TimerVerdict, Trace, WireLabel,
};
use rand::Rng as _;

use crate::cellular::{trajectory_linkage, AttachEvent, CellId, CoreNetwork, Imsi, LinkageResult};
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
        simulate(cfg, seed, opts).0
    }
}

/// The battery shape: five handsets moving twice per epoch between two
/// cells for two epochs, in PGPP mode.
const BATTERY: PgppConfig = PgppConfig {
    mode: Mode::Pgpp,
    users: 5,
    cells: 2,
    epochs: 2,
    moves_per_epoch: 2,
    seed: 0, // overridden by the run seed
};

impl Pgpp {
    /// The [`BATTERY`] shape. Served, each client is a handset that makes
    /// one attach per query within a single epoch, 1 s on the engine's
    /// clock, and at most [`MOST_SERVED_ATTACHES`]; every process of a
    /// multi-process run builds the same gateway key from the seed. Role
    /// order defines peer ids: `gateway` 0, `core` 1, then `phone`,
    /// `phone-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: Pgpp::NAME,
        run: |seed, opts| Box::new(Pgpp::run_with(&BATTERY, seed, opts)),
        declared_caps: pgpp_declared_caps,
        serve: Some(|clients, queries, seed| {
            if queries > MOST_SERVED_ATTACHES {
                return Err(format!(
                    "{queries} attaches per phone: the gateway's evaluations of one \
                     batch fit one frame for at most {MOST_SERVED_ATTACHES}"
                ));
            }
            let cfg = PgppConfig {
                mode: Mode::Pgpp,
                users: clients,
                cells: 2,
                epochs: 1,
                moves_per_epoch: queries,
                seed,
            };
            let spec = wiring(&cfg, seed, World::new(), &RunOptions::default()).spec;
            Ok((spec, Box::new(move || Pgpp::run(&cfg, seed).world)))
        }),
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

/// The most attaches a served handset makes: one issuance batch's
/// evaluations, framed, must fit in one served frame.
const MOST_SERVED_ATTACHES: usize = (MAX_FRAME_PAYLOAD - wire::SEQ_LEN) / EVAL_LEN;

/// The token of a scheduled move, the handset's only timer of its own.
const TIMER_MOVE: u64 = 1;

/// One IMSI epoch on the engine's clock, µs.
const EPOCH_LEN_US: u64 = 1_000_000;

/// First byte of a handset's issuance batch to the gateway.
const BATCH_TAG: u8 = 0x01;
/// First byte of the core's token check to the gateway.
const CHECK_TAG: u8 = 0x02;

/// Bytes of an attach's header: the IMSI, the cell and the epoch.
const HEADER_LEN: usize = 8 + 4 + 4;

/// Bytes of an encoded [`Token`].
const TOKEN_LEN: usize = 64;

/// The gateway's verdicts on a token.
const GOOD: &[u8] = &[1];
const BAD: &[u8] = &[0];

/// The core's answers to an attach, of one length, so a refusal costs on
/// the wire what a record does.
const RECORDED: &[u8] = b"ok";
const REFUSED: &[u8] = b"no";

/// Why a role refused bytes it received.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DecodeError {
    /// A batch, a token check or an attach of the wrong length.
    Length(WrongLength),
    /// A gateway message whose first byte, if any, names neither an
    /// issuance batch nor a token check.
    Tag(Option<u8>),
    /// A verdict or an answer that is neither of its two.
    Unknown,
}

/// Tokens in one handset's issuance batch: one per move.
fn batch_len(cfg: &PgppConfig) -> usize {
    cfg.epochs as usize * cfg.moves_per_epoch
}

/// What the gateway takes.
enum ToGateway {
    /// A handset's blinded issuance batch.
    Batch(Vec<BlindedElement>),
    /// A token the core forwards for checking.
    Check(Token),
}

impl ToGateway {
    /// The gateway's parse: exactly one batch of `batch` blinded
    /// elements, so no frame makes it evaluate more, or exactly one token.
    fn decode(payload: &[u8], batch: usize) -> Result<Self, DecodeError> {
        match payload.split_first() {
            Some((&BATCH_TAG, elements)) => decode_batch(elements, batch)
                .map(ToGateway::Batch)
                .map_err(DecodeError::Length),
            Some((&CHECK_TAG, token)) => {
                exact_len(token, TOKEN_LEN).map_err(DecodeError::Length)?;
                Ok(ToGateway::Check(Token::decode(token).expect("64 bytes")))
            }
            other => Err(DecodeError::Tag(other.map(|(&tag, _)| tag))),
        }
    }
}

/// An attach: the IMSI presented, the serving cell and the epoch, then
/// the token (none in legacy mode).
fn encode_attach(imsi: Imsi, cell: CellId, epoch: u32, token: &[u8]) -> Vec<u8> {
    [
        &imsi.0.to_be_bytes()[..],
        &cell.0.to_be_bytes(),
        &epoch.to_be_bytes(),
        token,
    ]
    .concat()
}

/// The core's parse of an attach arriving at `time_us`: the header, then
/// exactly one token in PGPP mode or nothing in legacy mode. Returns the
/// attach as the core would record it, and the token's bytes.
fn decode_attach(
    payload: &[u8],
    mode: Mode,
    time_us: u64,
) -> Result<(AttachEvent, &[u8]), DecodeError> {
    let token_len = match mode {
        Mode::Legacy => 0,
        Mode::Pgpp => TOKEN_LEN,
    };
    exact_len(payload, HEADER_LEN + token_len).map_err(DecodeError::Length)?;
    let (h, token) = payload.split_at(HEADER_LEN);
    let attach = AttachEvent {
        time_us,
        imsi: Imsi(u64::from_be_bytes(h[..8].try_into().expect("8 bytes"))),
        cell: CellId(u32::from_be_bytes(h[8..12].try_into().expect("4 bytes"))),
        epoch: u32::from_be_bytes(h[12..].try_into().expect("4 bytes")),
    };
    Ok((attach, token))
}

/// The core's parse of a verdict ([`GOOD`] or [`BAD`]) and the handset's
/// of an answer ([`RECORDED`] or [`REFUSED`]): exactly `yes` or `no`.
fn decode_choice(payload: &[u8], yes: &[u8], no: &[u8]) -> Result<bool, DecodeError> {
    match payload {
        p if p == yes => Ok(true),
        p if p == no => Ok(false),
        _ => Err(DecodeError::Unknown),
    }
}

/// What the roles of one run keep, shared by all of them.
struct Stats {
    /// The core's mobility log.
    core: CoreNetwork,
    /// Ground truth (epoch, IMSI) → subscriber index.
    truth: HashMap<(u32, Imsi), usize>,
    /// Retry-linkage check fed by every issuance attempt's blinded batch.
    linkage: RetryLinkage,
}

/// A handset's open call.
enum Call {
    /// The issuance round, re-blinded on every attempt.
    Issuance,
    /// One attach: the *same* payload on every attempt (a fresh token per
    /// attempt would drain the wallet); the core answers copies from its
    /// first verdict.
    Attach { payload: Vec<u8> },
}

/// The handset, generic over which core it attaches to: `Phone<PgppCore,
/// PgppAttach>` compiles against the core's `(△, ⊙/●)` cap, while
/// `Phone<LegacyCore, LegacyAttach>` compiles *only* because
/// [`LegacyCore`] declares itself coupled by design — instantiating it
/// against [`PgppCore`] is a build error.
struct Phone<R: Role, M: WireLabel> {
    user: UserId,
    /// The subscriber index: it derives the IMSIs, is the ground truth's
    /// value and the retry-linkage flow id.
    index: usize,
    cfg: PgppConfig,
    core: Endpoint<M, Control, R>,
    gateway: Endpoint<IssueTokensReq, Control, PgppGateway>,
    wallet: TokenClient,
    /// The blinding of the latest issuance attempt.
    state: Option<IssuanceRequest>,
    /// Moves not yet made.
    moves_left: usize,
    /// Numbers every call; arms deadlines and retries under recovery
    /// only.
    arq: ReliableCall,
    /// Open calls by sequence number: a move can fire while an earlier
    /// attach still retries.
    calls: BTreeMap<u64, Call>,
    stats: Arc<Mutex<Stats>>,
}

impl<R: Role, M: WireLabel + Admits<R>> Phone<R, M> {
    fn new(
        user: UserId,
        index: usize,
        cfg: PgppConfig,
        issuer_pk: PublicKey,
        arq: ReliableCall,
        stats: Arc<Mutex<Stats>>,
    ) -> Self {
        Phone {
            user,
            index,
            cfg,
            core: Endpoint::new(1),
            gateway: Endpoint::new(0),
            wallet: TokenClient::new(issuer_pk),
            state: None,
            moves_left: batch_len(&cfg),
            arq,
            calls: BTreeMap::new(),
            stats,
        }
    }

    fn current_epoch(&self, now_us: u64) -> u32 {
        ((now_us / EPOCH_LEN_US) as u32).min(self.cfg.epochs - 1)
    }

    /// (Re)transmit the issuance round: a fresh blinded batch on every
    /// attempt, which is exactly what a re-randomized retransmission
    /// needs.
    fn transmit_issuance(&mut self, ctx: &mut WireCtx, att: Attempt) {
        let need = batch_len(&self.cfg);
        for _ in 0..need {
            ctx.crypto_op("voprf_blind");
        }
        let req = self.wallet.request_tokens(ctx.rng, need);
        let blinded = req.blinded.iter().flat_map(|b| b.0);
        let bytes: Vec<u8> = std::iter::once(BATCH_TAG).chain(blinded).collect();
        self.state = Some(req);
        lock(&self.stats)
            .linkage
            .record(self.index as u64, att.seq, att.attempt, &bytes);
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Human),
            InfoItem::plain_identity(self.user, IdentityKind::Network),
            InfoItem::plain_data(self.user, DataKind::Payload),
        ]);
        ctx.send_to(
            self.gateway,
            WireMsg::data(wire::frame(att.seq, &bytes), label),
        );
        ctx.arm(&self.arq, &att);
    }

    /// (Re)transmit attach `att.seq`. The payload is deliberately
    /// byte-identical across attempts — the one-time attach token cannot
    /// be re-randomized without draining the wallet — so it is *not*
    /// recorded into the linkage check.
    fn transmit_attach(&mut self, ctx: &mut WireCtx, payload: &[u8], att: Attempt) {
        let label = self.attach_label();
        ctx.send_to(
            self.core,
            WireMsg::data(wire::frame(att.seq, payload), label),
        );
        ctx.arm(&self.arq, &att);
    }

    fn attach_label(&self) -> Label {
        // What the core learns from an attach: the serving cell (location,
        // ●-grade data) bound to whatever identity the IMSI is. Legacy:
        // the IMSI *is* the subscriber (▲_N, and via the billing database
        // ▲_H). PGPP: a shuffled pseudonym (△_N) — the human identity
        // never appears (△_H comes from "a member of the subscriber
        // aggregate").
        match self.cfg.mode {
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
        match self.cfg.mode {
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

    /// One move: attach from a freshly drawn cell. With no token left
    /// (issuance lost), the move is skipped rather than attached
    /// unauthenticated.
    fn make_move(&mut self, ctx: &mut WireCtx) {
        self.moves_left = self.moves_left.saturating_sub(1);
        let epoch = self.current_epoch(ctx.now_us());
        let imsi = self.imsi_for(epoch);
        let cell = CellId(ctx.rng.gen_range(0..self.cfg.cells) as u32);
        lock(&self.stats).truth.insert((epoch, imsi), self.index);
        let token = match self.cfg.mode {
            Mode::Legacy => Vec::new(),
            Mode::Pgpp => {
                let Some(token) = self.wallet.spend() else {
                    return;
                };
                token.encode()
            }
        };
        let payload = encode_attach(imsi, cell, epoch, &token);
        let att = self.arq.open();
        self.transmit_attach(ctx, &payload, att);
        self.calls.insert(att.seq, Call::Attach { payload });
    }

    /// Schedule every move up front: `moves_per_epoch` inside each epoch,
    /// jittered within their slot so arrival order varies but every user
    /// is active in every epoch. A slot too short to jitter in (under
    /// 4 µs) draws no jitter.
    fn schedule_moves(&mut self, ctx: &mut WireCtx) {
        let slot = EPOCH_LEN_US / (self.cfg.moves_per_epoch as u64 + 1);
        for e in 0..self.cfg.epochs as u64 {
            for m in 0..self.cfg.moves_per_epoch as u64 {
                let jitter = match slot / 4 {
                    0 => 0,
                    room => ctx.rng.gen_range(0..room),
                };
                let at = e * EPOCH_LEN_US + (m + 1) * slot + jitter;
                ctx.set_timer(at.saturating_sub(ctx.now_us()), TIMER_MOVE);
            }
        }
    }
}

impl<R: Role + 'static, M: WireLabel + Admits<R> + 'static> WireRole for Phone<R, M> {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Human));
        ctx.record(InfoItem::sensitive_identity(
            self.user,
            IdentityKind::Network,
        ));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::Location));
        match self.cfg.mode {
            // Buy service: authenticate to the gateway with the billing
            // identity (▲_H) and obtain blinded attach tokens (⊙).
            Mode::Pgpp => {
                let att = self.arq.open();
                self.calls.insert(att.seq, Call::Issuance);
                self.transmit_issuance(ctx, att);
            }
            Mode::Legacy => self.schedule_moves(ctx),
        }
    }

    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        // Only an answer numbered for an open call, from the peer that
        // call went to, settles it; a duplicated or late one changes
        // nothing.
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        match self.calls.get(&seq) {
            Some(Call::Issuance) if from.index() == self.gateway.index() => {
                let Ok(evals) = decode_evals(body, batch_len(&self.cfg)) else {
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
                // batch: drop it, a retry re-blinds.
                if self.wallet.accept_issuance(req, &evals).is_err() {
                    return;
                }
                self.calls.remove(&seq);
                self.arq.complete(seq);
                ctx.span("issuance", 0, ctx.now_us());
                self.schedule_moves(ctx);
            }
            Some(Call::Attach { .. }) if from.index() == self.core.index() => {
                let Ok(recorded) = decode_choice(body, RECORDED, REFUSED) else {
                    return;
                };
                self.calls.remove(&seq);
                self.arq.complete(seq);
                if recorded {
                    ctx.unit_done();
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        match ctx.arq_timer(&mut self.arq, token) {
            TimerVerdict::NotMine => self.make_move(ctx),
            TimerVerdict::Stale => {}
            TimerVerdict::Retry(att) => match self.calls.get(&att.seq) {
                Some(Call::Issuance) => self.transmit_issuance(ctx, att),
                Some(Call::Attach { payload }) => {
                    let payload = payload.clone();
                    self.transmit_attach(ctx, &payload, att);
                }
                None => {}
            },
            // An abandoned issuance leaves an empty wallet, so no move
            // follows; an abandoned attach leaves its move unserved. The
            // handset never attaches unauthenticated.
            TimerVerdict::Exhausted { seq, .. } => {
                if let Some(Call::Issuance) = self.calls.remove(&seq) {
                    self.moves_left = 0;
                }
            }
        }
    }

    fn finished(&self) -> bool {
        self.moves_left == 0 && self.calls.is_empty()
    }
}

/// The PGPP gateway: bills the subscribers, evaluates their blinded
/// batches statelessly, and judges each token the core forwards once.
struct Gateway {
    issuer: Issuer,
    /// Blinded elements in one issuance batch.
    batch: usize,
    /// Verdict per `(core, hop seq)`: a re-forwarded check replays its
    /// first verdict instead of reading the retransmitted token as a
    /// double spend.
    verdicts: BTreeMap<(PeerId, u64), bool>,
}

impl WireRole for Gateway {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        let Ok(request) = ToGateway::decode(body, self.batch) else {
            return;
        };
        let answer = match request {
            // Issuance: evaluation is stateless, so a retransmitted
            // (re-blinded) batch is simply evaluated again under its own
            // number.
            ToGateway::Batch(blinded) => {
                for _ in 0..blinded.len() {
                    ctx.crypto_op("voprf_evaluate");
                }
                let Ok(evals) = self.issuer.issue(ctx.rng, &blinded) else {
                    return; // malformed element: refuse to issue
                };
                encode_evals(&evals)
            }
            // A token check from the core. Tokens are unlinkable: the
            // gateway learns that *some* attach was paid for, attributable
            // to no one (`Label::Public` on the way in).
            ToGateway::Check(token) => {
                let issuer = &mut self.issuer;
                let ok = *self.verdicts.entry((from, seq)).or_insert_with(|| {
                    ctx.crypto_op("voprf_redeem");
                    issuer.redeem(&token).is_ok()
                });
                if ok { GOOD } else { BAD }.to_vec()
            }
        };
        ctx.send(
            from,
            WireMsg::response(wire::frame(seq, &answer), Label::Public),
        );
    }
}

/// The cellular core (NGC): records each attach once. In PGPP mode it
/// forwards only the attach's token to the gateway and records on a good
/// verdict; in legacy mode its billing database authenticates the IMSI
/// itself, at once.
struct Core {
    mode: Mode,
    /// The over-the-top verification endpoint: forwarded tokens are
    /// unlinkable, well under the gateway's `(▲, ⊙)` cap.
    gateway: Endpoint<VerifyTokenReq, Control, PgppGateway>,
    /// One check per `(handset, handset seq)`, keyed to the gateway leg
    /// by a number of the core's own.
    checks: CheckForwarder<(PeerId, u64), bool>,
    /// The attach behind each unsettled check, as its first copy arrived.
    pending: BTreeMap<(PeerId, u64), AttachEvent>,
    stats: Arc<Mutex<Stats>>,
}

/// The core's answer to attach `seq`.
fn answer(seq: u64, recorded: bool) -> WireMsg {
    let body = if recorded { RECORDED } else { REFUSED };
    WireMsg::response(wire::frame(seq, body), Label::Public)
}

impl Core {
    /// Verdict `ok` on check `hop`. The first settles its attach,
    /// recorded or refused, and answers the handset; a later one changes
    /// nothing, since copies of the attach are answered from the first.
    fn settle(&mut self, ctx: &mut WireCtx, hop: u64, ok: bool) {
        let Some(((phone, phone_seq), &recorded, true)) = self.checks.resolve(hop, ok) else {
            return;
        };
        if let Some(attach) = self.pending.remove(&(phone, phone_seq)) {
            let mut stats = lock(&self.stats);
            if recorded {
                stats.core.log.push(attach);
            } else {
                stats.core.rejected += 1;
            }
        }
        ctx.send(phone, answer(phone_seq, recorded));
    }
}

impl WireRole for Core {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        if from.index() == self.gateway.index() {
            if let Ok(ok) = decode_choice(body, GOOD, BAD) {
                self.settle(ctx, seq, ok);
            }
            return;
        }
        let Ok((attach, token)) = decode_attach(body, self.mode, ctx.now_us()) else {
            return;
        };
        let key = (from, seq);
        let hop = match self.checks.forward(key, token) {
            Forward::Replay(&recorded) => {
                ctx.send(from, answer(seq, recorded));
                return;
            }
            Forward::Upstream { hop, body } => {
                self.pending.entry(key).or_insert(attach);
                if self.mode == Mode::Pgpp {
                    // Over-the-top auth: only the bare token goes to the
                    // gateway, and a copy of the attach re-forwards it
                    // under the same number.
                    let check = wire::frame_parts(hop, &[&[CHECK_TAG], body]);
                    ctx.send_to(self.gateway, WireMsg::data(check, Label::Public));
                    return;
                }
                hop
            }
        };
        // Legacy: the billing database inside the core authenticates the
        // IMSI directly.
        self.settle(ctx, hop, true);
    }
}

/// A built PGPP run: its roles and what they keep.
struct Wiring {
    spec: ServeSpec,
    stats: Arc<Mutex<Stats>>,
}

/// Build the cellular world and roles for either engine. Peer ids: the
/// gateway 0, the core 1, then the handsets.
///
/// The world mutation order and the setup RNG's draws are load-bearing:
/// a metrics sink observes entity creation in sequence, and the DST
/// probes are byte-identical across refactors only if both hold.
fn wiring(cfg: &PgppConfig, seed: u64, mut world: World, opts: &RunOptions) -> Wiring {
    use rand::SeedableRng;
    assert!(cfg.epochs >= 1);
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9699);

    let user_org = world.add_org("subscribers");
    let core_org = world.add_org("mobile-operator");
    let gw_org = world.add_org("pgpp-operator");
    let gw_e = world.add_entity("PGPP-GW", gw_org, None);
    let ngc_e = world.add_entity("NGC", core_org, None);
    let issuer = Issuer::new(&mut setup_rng);
    let issuer_pk = issuer.public_key();

    let stats = Arc::new(Mutex::new(Stats {
        core: CoreNetwork::new(),
        truth: HashMap::new(),
        linkage: RetryLinkage::new(),
    }));
    let gateway = Gateway {
        issuer,
        batch: batch_len(cfg),
        verdicts: BTreeMap::new(),
    };
    let core = Box::new(Core {
        mode: cfg.mode,
        gateway: Endpoint::new(0),
        checks: CheckForwarder::new(),
        pending: BTreeMap::new(),
        stats: stats.clone(),
    });
    let mut roles = vec![
        RoleSpec::of::<PgppGateway>("gateway", gw_e, Box::new(gateway)),
        match cfg.mode {
            Mode::Legacy => RoleSpec::of::<LegacyCore>("core", ngc_e, core),
            Mode::Pgpp => RoleSpec::of::<PgppCore>("core", ngc_e, core),
        },
    ];
    for i in 0..cfg.users {
        let user = world.add_user();
        let e = world.add_entity(&nth("User", ' ', i), user_org, Some(user));
        // Who bills the subscriber (▲_H): in legacy mode the operator's
        // billing DB, which binds IMSI → human identity inside the core;
        // in PGPP mode the gateway, which sees only token traffic (⊙).
        let billing = match cfg.mode {
            Mode::Legacy => ngc_e,
            Mode::Pgpp => gw_e,
        };
        world.record(
            billing,
            InfoItem::sensitive_identity(user, IdentityKind::Human),
        );
        let arq = ReliableCall::new(&opts.recover, derive_seed(seed, 0x9690 + i as u64));
        let stats = stats.clone();
        // The `(R, M)` pair is where the wiring states, in types, what a
        // handset's attaches reveal to its core.
        let phone: Box<dyn WireRole> = match cfg.mode {
            Mode::Legacy => Box::new(Phone::<LegacyCore, LegacyAttach>::new(
                user, i, *cfg, issuer_pk, arq, stats,
            )),
            Mode::Pgpp => Box::new(Phone::<PgppCore, PgppAttach>::new(
                user, i, *cfg, issuer_pk, arq, stats,
            )),
        };
        roles.push(RoleSpec::of::<Handset>(nth("phone", '-', i), e, phone));
    }
    Wiring {
        spec: ServeSpec {
            scenario: Pgpp::NAME,
            world,
            roles,
            expected_units: (cfg.users * batch_len(cfg)) as u64,
            taps: Vec::new(),
        },
        stats,
    }
}

/// One simulated run: its report, and the stats its roles kept.
fn simulate(cfg: &PgppConfig, seed: u64, opts: &RunOptions) -> (PgppReport, Arc<Mutex<Stats>>) {
    let (world, harness) = Harness::begin(Pgpp::NAME, seed, opts);
    let w = wiring(cfg, seed, world, opts);
    let users = w.spec.world.users().to_vec();
    let expected = w.spec.expected_units;
    let core = harness.run_spec(w.spec, LinkParams::wan_ms(5), Vec::new());
    let stats = lock(&w.stats);
    let report = PgppReport {
        world: core.world,
        trace: core.trace,
        attaches: stats.core.log.len(),
        linkage: trajectory_linkage(&stats.core.log, &stats.truth),
        distinct_imsis: stats.core.distinct_imsis(),
        users,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected,
        retry_linkage: stats.linkage.violations(),
    };
    drop(stats);
    (report, w.stats)
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

    /// Without recovery, a duplicated attach is answered from its first
    /// verdict and recorded once: every leg is numbered and the core keys
    /// each attach by the handset's `(peer, seq)`. A core that pairs the
    /// gateway's verdicts with waiting attaches by arrival order records
    /// some IMSI more often in an epoch than its handset moved, at each
    /// of these seeds.
    #[test]
    fn no_attach_is_recorded_twice_without_recovery() {
        let opts = RunOptions::with_faults(&FaultConfig::moderate());
        for seed in [6, 15, 24, 28, 39] {
            let (report, stats) = simulate(&BATTERY, seed, &opts);
            assert!(!report.fault_log.is_empty(), "seed {seed}: no faults");
            let mut records = BTreeMap::new();
            for attach in &lock(&stats).core.log {
                *records.entry((attach.imsi, attach.epoch)).or_insert(0) += 1;
            }
            assert!(
                records.values().all(|&n| n <= BATTERY.moves_per_epoch),
                "seed {seed}: {records:?}"
            );
        }
    }

    /// A verdict other than `[0]` or `[1]` is dropped, not read as a
    /// refusal: the handset's retry re-forwards its token under the same
    /// number, the gateway replays its verdict, and every attach is
    /// recorded once.
    #[test]
    fn a_mangled_verdict_is_dropped_and_the_retry_records() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// The core, behind a link that pads the first verdict it carries.
        struct PadFirstVerdict(Box<dyn WireRole>, Arc<AtomicUsize>);
        impl WireRole for PadFirstVerdict {
            fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, mut msg: WireMsg) {
                if from == PeerId(0) && self.1.fetch_add(1, Ordering::SeqCst) == 0 {
                    msg.payload.push(0);
                }
                self.0.on_frame(ctx, from, msg);
            }
        }
        let c = cfg(Mode::Pgpp);
        let opts = RunOptions::recovered(&FaultConfig::calm());
        let (world, harness) = Harness::begin(Pgpp::NAME, 11, &opts);
        let mut w = wiring(&c, 11, world, &opts);
        let verdicts = Arc::new(AtomicUsize::new(0));
        let core = w.spec.roles.remove(1);
        w.spec.roles.insert(
            1,
            RoleSpec {
                role: Box::new(PadFirstVerdict(core.role, verdicts.clone())),
                ..core
            },
        );
        harness.run_spec(w.spec, LinkParams::wan_ms(5), Vec::new());
        let stats = lock(&w.stats);
        assert_eq!(stats.core.rejected, 0, "the padded verdict refused nothing");
        assert_eq!(stats.core.log.len(), batch_len(&c) * c.users);
        // One verdict per attach, plus the replay the retry drew.
        assert_eq!(verdicts.load(Ordering::SeqCst), stats.core.log.len() + 1);
    }

    /// From 250,000 moves an epoch a slot is under 4 µs: every move is
    /// still scheduled, with no jitter drawn.
    #[test]
    fn moves_too_dense_to_jitter_are_scheduled_unjittered() {
        use rand::SeedableRng;
        let mut setup = rand::rngs::StdRng::seed_from_u64(1);
        let issuer_pk = Issuer::new(&mut setup).public_key();
        let cfg = PgppConfig {
            users: 1,
            epochs: 1,
            moves_per_epoch: 250_000,
            ..cfg(Mode::Legacy)
        };
        let stats = Arc::new(Mutex::new(Stats {
            core: CoreNetwork::new(),
            truth: HashMap::new(),
            linkage: RetryLinkage::new(),
        }));
        let arq = ReliableCall::new(&RunOptions::default().recover, 0);
        let mut phone =
            Phone::<LegacyCore, LegacyAttach>::new(UserId(0), 0, cfg, issuer_pk, arq, stats);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut ctx = WireCtx::new(&mut rng, PeerId(2), 0, false);
        phone.schedule_moves(&mut ctx);
        let timers = ctx.finish().timers;
        assert_eq!(timers.len(), 250_000);
        // Slot 1 s / 250,001 is 3 µs: move m falls at (m + 1) × 3 µs.
        assert_eq!(timers[..2], [(3, TIMER_MOVE), (6, TIMER_MOVE)]);
    }

    /// A served phone's issuance batch is evaluated into one frame, so a
    /// phone may ask for as many attaches as one frame of evaluations
    /// holds, and no more.
    #[test]
    fn a_served_phone_asks_for_at_most_one_frame_of_evaluations() {
        let serve = Pgpp::REGISTRATION.serve.expect("servable");
        let most = MOST_SERVED_ATTACHES;
        assert!(wire::SEQ_LEN + most * EVAL_LEN <= MAX_FRAME_PAYLOAD);
        assert!(wire::SEQ_LEN + (most + 1) * EVAL_LEN > MAX_FRAME_PAYLOAD);
        let (spec, _) = serve(1, most, 7).expect("one frame's worth");
        assert_eq!(spec.expected_units, most as u64);
        let refused = serve(1, most + 1, 7).err().expect("past one frame");
        assert!(refused.contains(&format!("at most {most}")), "{refused}");
    }

    #[test]
    fn served_roles_are_the_gateway_the_core_then_the_phones() {
        let serve = Pgpp::REGISTRATION.serve.expect("servable");
        let (spec, _) = serve(2, 3, 7).unwrap();
        let names: Vec<&str> = spec.roles.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["gateway", "core", "phone", "phone-2"]);
        assert_eq!(spec.expected_units, 6, "three attaches per phone");
    }

    use proptest::prelude::*;

    proptest! {
        /// Each decoder on received bytes accepts exactly one shape,
        /// refuses everything else with a typed error, and what it
        /// accepts re-encodes to itself. (The batch and evaluation
        /// codecs are Privacy Pass's, pinned in its `protocol`.)
        #[test]
        fn decoders_fail_closed_and_round_trip(
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
            batch in 0usize..8,
            time_us in any::<u64>(),
        ) {
            let fit = |n: usize| {
                let mut b = bytes.clone();
                b.resize(n, 0x5a);
                b
            };
            let tagged = |tag: u8, n: usize| [vec![tag], fit(n)].concat();
            for b in [bytes.clone(), tagged(BATCH_TAG, batch * 32), tagged(CHECK_TAG, TOKEN_LEN)] {
                match ToGateway::decode(&b, batch) {
                    Ok(ToGateway::Batch(blinded)) => {
                        let elements = blinded.iter().flat_map(|e| e.0);
                        prop_assert_eq!(std::iter::once(BATCH_TAG).chain(elements).collect::<Vec<_>>(), b)
                    }
                    Ok(ToGateway::Check(token)) => {
                        prop_assert_eq!([vec![CHECK_TAG], token.encode()].concat(), b)
                    }
                    Err(DecodeError::Length(WrongLength { expected, got })) => {
                        let want = if b[0] == BATCH_TAG { batch * 32 } else { TOKEN_LEN };
                        prop_assert_eq!((expected, got), (want, b.len() - 1));
                        prop_assert_ne!(got, expected);
                    }
                    Err(DecodeError::Tag(tag)) => {
                        prop_assert_eq!(tag, b.first().copied());
                        prop_assert!(tag != Some(BATCH_TAG) && tag != Some(CHECK_TAG));
                    }
                    Err(e) => prop_assert!(false, "{e:?}"),
                }
            }
            for (mode, len) in [(Mode::Legacy, HEADER_LEN), (Mode::Pgpp, HEADER_LEN + TOKEN_LEN)] {
                for b in [bytes.clone(), fit(len)] {
                    match decode_attach(&b, mode, time_us) {
                        Ok((a, token)) => {
                            prop_assert_eq!(a.time_us, time_us);
                            prop_assert_eq!(encode_attach(a.imsi, a.cell, a.epoch, token), b)
                        }
                        Err(e) => prop_assert_eq!(
                            e,
                            DecodeError::Length(WrongLength { expected: len, got: b.len() })
                        ),
                    }
                }
            }
            for (yes, no) in [(GOOD, BAD), (RECORDED, REFUSED)] {
                for b in [&bytes[..bytes.len().min(2)], yes, no, &[0, 1]] {
                    match decode_choice(b, yes, no) {
                        Ok(choice) => prop_assert_eq!(b, if choice { yes } else { no }),
                        Err(e) => {
                            prop_assert_eq!(e, DecodeError::Unknown);
                            prop_assert!(b != yes && b != no);
                        }
                    }
                }
            }
        }
    }
}
