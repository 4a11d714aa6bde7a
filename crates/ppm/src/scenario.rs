//! PPM written once as seam roles: clients → leader + helper → collector,
//! built by one `wiring` for the simulator ([`Ppm`]) and `dcp-serve`
//! ([`Ppm::REGISTRATION`]). Every message is framed and acked on every
//! run (the flow is one-way), and a run's `RecoverConfig` only arms the
//! senders' [`Outbox`] retries. An aggregator or collector input that
//! does not decode, is not of the task's width, comes from a peer that
//! does not send its kind, or is a submission under another client's id
//! is dropped unacked, before any work.

use std::collections::{HashMap, HashSet};
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
use dcp_runtime::{wire, Control, Endpoint, Harness, LinkParams, Outbox, ReliableCall, Trace};
use rand::Rng as _;

use crate::field::Fe;
use crate::prio::{Aggregator, SubmissionShare, TripleShare, VerifyMsg};
use crate::types::{
    declared_caps, AccumShare, AggCollector, PrioAggregator, Reporter, ShareSubmission,
};

/// Wire tags for the PPM protocol.
const TAG_SUBMIT: u8 = 1;
const TAG_LEADER_R1: u8 = 2;
const TAG_HELPER_R1Z: u8 = 3;
const TAG_LEADER_Z: u8 = 4;
const TAG_ACCUM: u8 = 5;
/// The acknowledgment of a framed protocol message. The PPM flow is
/// one-way (no natural responses), so the senders need explicit acks.
const TAG_ACK: u8 = 6;

/// Peer ids: the leader 0, the helper 1, the collector 2, then the
/// clients.
const LEADER: PeerId = PeerId(0);
const HELPER: PeerId = PeerId(1);
const FIRST_CLIENT: usize = 3;

/// Configuration.
#[derive(Clone, Copy, Debug)]
pub struct PpmConfig {
    /// Number of reporting clients.
    pub clients: usize,
    /// Bit width of each contribution.
    pub bits: usize,
    /// Number of malicious clients (submit a non-bit share).
    pub malicious: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for PpmConfig {
    fn default() -> Self {
        PpmConfig {
            clients: 10,
            bits: 8,
            malicious: 0,
            seed: 0,
        }
    }
}

impl PpmConfig {
    /// Set the client count.
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Set the contribution bit width.
    pub fn bits(mut self, bits: usize) -> Self {
        self.bits = bits;
        self
    }

    /// Set the number of malicious clients.
    pub fn malicious(mut self, malicious: usize) -> Self {
        self.malicious = malicious;
        self
    }
}

/// Report.
pub struct PpmReport {
    /// Knowledge base.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// The reconstructed aggregate at the collector.
    pub aggregate: Option<u64>,
    /// The true sum of honest contributions.
    pub expected_sum: u64,
    /// Accepted submissions.
    pub accepted: usize,
    /// Rejected submissions.
    pub rejected: usize,
    /// The client users.
    pub users: Vec<UserId>,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (honest clients folded into the aggregate).
    pub expected: u64,
    /// Always empty: a share pair cannot be re-randomized per attempt (a
    /// fresh split on one leg while the other aggregator holds the old
    /// share corrupts the sum), so every retransmission is byte-identical
    /// by design and the receivers dedup — see `docs/RECOVERY.md`.
    pub retry_linkage: Vec<String>,
}

impl dcp_core::ScenarioReport for PpmReport {
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
        // `accepted` is the static expectation; the aggregate only
        // releases when every share actually survived the network.
        if self.aggregate.is_some() {
            self.accepted as u64
        } else {
            0
        }
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

/// §3.2.5 privacy-preserving measurement (Prio-style split aggregation).
pub struct Ppm;

impl Scenario for Ppm {
    type Config = PpmConfig;
    type Report = PpmReport;
    const NAME: &'static str = "ppm";

    fn run_with(cfg: &PpmConfig, seed: u64, opts: &RunOptions) -> PpmReport {
        simulate(cfg, seed, opts)
    }
}

/// The battery shape: five honest clients reporting four bits each.
const BATTERY: PpmConfig = PpmConfig {
    clients: 5,
    bits: 4,
    malicious: 0,
    seed: 0, // overridden by the run seed
};

/// The widths `prio::submit` takes.
const WIDTHS: std::ops::RangeInclusive<usize> = 1..=32;

impl Ppm {
    /// The [`BATTERY`] shape. The aggregate is released only once every
    /// share has arrived, so any verified submission that reaches both
    /// aggregators counts as progress. Served, `--queries` is the bit
    /// width of each client's one measurement, and the collector counts
    /// the submissions the released aggregate holds. Role order defines
    /// peer ids: `leader` 0, `helper` 1, `collector` 2, then `client`,
    /// `client-2`, ….
    pub const REGISTRATION: Registration = Registration {
        name: Ppm::NAME,
        run: |seed, opts| Box::new(Ppm::run_with(&BATTERY, seed, opts)),
        declared_caps,
        serve: Some(|clients, bits, seed| {
            if !WIDTHS.contains(&bits) {
                return Err(format!(
                    "a {bits}-bit measurement: a task's width is {} to {} bits",
                    WIDTHS.start(),
                    WIDTHS.end()
                ));
            }
            let cfg = PpmConfig {
                clients,
                bits,
                malicious: 0,
                seed,
            };
            let spec = wiring(&cfg, seed, World::new(), &RunOptions::default()).spec;
            Ok((spec, Box::new(move || Ppm::run(&cfg, seed).world)))
        }),
    };
}

impl PpmReport {
    /// Derive the §3.2.5 table for user `i`.
    pub fn table(&self, i: usize) -> DecouplingTable {
        DecouplingTable::derive(
            &self.world,
            self.users[i],
            &["Client", "Aggregator", "Collector"],
        )
    }

    /// The paper's table.
    pub fn paper_table() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("Client", "(▲, ●)"),
            ("Aggregator", "(▲, ⊙)"),
            ("Collector", "(△, ⊙)"),
        ])
    }
}

fn encode_fes(out: &mut Vec<u8>, fes: &[Fe]) {
    out.extend_from_slice(&(fes.len() as u32).to_be_bytes());
    for f in fes {
        out.extend_from_slice(&f.to_bytes());
    }
}

/// Why a PPM frame is dropped. The decoders return one of these for any
/// malformed input, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DecodeError {
    /// The frame ends inside a field, or announces more field elements
    /// than its remaining bytes hold.
    Truncated,
    /// A field element is not below the modulus.
    NonCanonical,
    /// A submission does not carry one triple share per bit share.
    TripleCount,
    /// Bytes follow the last field.
    TrailingBytes,
    /// A tag the receiving role does not decode.
    Tag,
    /// A message whose shares, openings or products are not one per bit
    /// of the task, or an accumulator share folding more submissions
    /// than there are clients.
    Width,
    /// A message from a peer that does not send its kind, or a
    /// submission under another client's id.
    Sender,
}

/// The `N` bytes at `*pos`, advancing past them.
fn take<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], DecodeError> {
    let mut field = [0u8; N];
    field.copy_from_slice(bytes.get(*pos..*pos + N).ok_or(DecodeError::Truncated)?);
    *pos += N;
    Ok(field)
}

fn decode_fes(bytes: &[u8], pos: &mut usize) -> Result<Vec<Fe>, DecodeError> {
    let n = u32::from_be_bytes(take(bytes, pos)?) as usize;
    // Bound the wire's count by the bytes left before reserving for it.
    if n > (bytes.len() - *pos) / 8 {
        return Err(DecodeError::Truncated);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Fe::from_bytes(&take(bytes, pos)?).ok_or(DecodeError::NonCanonical)?);
    }
    Ok(out)
}

fn expect_end(bytes: &[u8], pos: usize) -> Result<(), DecodeError> {
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(DecodeError::TrailingBytes)
    }
}

fn encode_submission(id: u64, sub: &SubmissionShare) -> Vec<u8> {
    let mut out = vec![TAG_SUBMIT];
    out.extend_from_slice(&id.to_be_bytes());
    encode_fes(&mut out, &sub.bits);
    let flat: Vec<Fe> = sub.triples.iter().flat_map(|t| [t.a, t.b, t.c]).collect();
    encode_fes(&mut out, &flat);
    out
}

fn decode_submission(bytes: &[u8]) -> Result<(u64, SubmissionShare), DecodeError> {
    let mut pos = 1; // past the tag, which the caller has matched
    let id = u64::from_be_bytes(take(bytes, &mut pos)?);
    let bits = decode_fes(bytes, &mut pos)?;
    let flat = decode_fes(bytes, &mut pos)?;
    expect_end(bytes, pos)?;
    if flat.len() != 3 * bits.len() {
        return Err(DecodeError::TripleCount);
    }
    let triples = flat
        .chunks_exact(3)
        .map(|c| TripleShare {
            a: c[0],
            b: c[1],
            c: c[2],
        })
        .collect();
    Ok((id, SubmissionShare { bits, triples }))
}

fn encode_verify(tag: u8, id: u64, m: &VerifyMsg, z: Option<&[Fe]>) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(&id.to_be_bytes());
    encode_fes(&mut out, &m.d);
    encode_fes(&mut out, &m.e);
    if let Some(z) = z {
        encode_fes(&mut out, z);
    }
    out
}

fn decode_verify(bytes: &[u8], with_z: bool) -> Result<(u64, VerifyMsg, Vec<Fe>), DecodeError> {
    let mut pos = 1; // past the tag, which the caller has matched
    let id = u64::from_be_bytes(take(bytes, &mut pos)?);
    let d = decode_fes(bytes, &mut pos)?;
    let e = decode_fes(bytes, &mut pos)?;
    let z = if with_z {
        decode_fes(bytes, &mut pos)?
    } else {
        Vec::new()
    };
    expect_end(bytes, pos)?;
    Ok((id, VerifyMsg { d, e }, z))
}

/// A message for an aggregator, decoded.
enum AggMsg {
    Submit(u64, SubmissionShare),
    LeaderR1(u64, VerifyMsg),
    HelperR1Z(u64, VerifyMsg, Vec<Fe>),
    LeaderZ(u64, Vec<Fe>),
}

/// An aggregator's parse of a message for a task `bits` wide: every
/// share, opening and product vector holds one entry per bit, and a
/// leader's Z carries no openings.
fn decode_agg(bytes: &[u8], bits: usize) -> Result<AggMsg, DecodeError> {
    let msg = match bytes.first() {
        Some(&TAG_SUBMIT) => decode_submission(bytes).map(|(id, sub)| AggMsg::Submit(id, sub)),
        Some(&TAG_LEADER_R1) => {
            decode_verify(bytes, false).map(|(id, r1, _)| AggMsg::LeaderR1(id, r1))
        }
        Some(&TAG_HELPER_R1Z) => {
            decode_verify(bytes, true).map(|(id, r1, z)| AggMsg::HelperR1Z(id, r1, z))
        }
        Some(&TAG_LEADER_Z) => match decode_verify(bytes, true)? {
            (id, r1, z) if r1 == VerifyMsg::default() => Ok(AggMsg::LeaderZ(id, z)),
            _ => Err(DecodeError::Width),
        },
        _ => Err(DecodeError::Tag),
    }?;
    let wide = |v: &[Fe]| v.len() == bits;
    let fits = match &msg {
        AggMsg::Submit(_, sub) => wide(&sub.bits),
        AggMsg::LeaderR1(_, r1) => wide(&r1.d) && wide(&r1.e),
        AggMsg::HelperR1Z(_, r1, z) => wide(&r1.d) && wide(&r1.e) && wide(z),
        AggMsg::LeaderZ(_, z) => wide(z),
    };
    if fits {
        Ok(msg)
    } else {
        Err(DecodeError::Width)
    }
}

/// An aggregator's accumulator share for the collector: the share, then
/// how many submissions it folded.
fn encode_accum(agg: &Aggregator) -> Vec<u8> {
    let mut bytes = vec![TAG_ACCUM];
    bytes.extend_from_slice(&agg.accum.to_bytes());
    bytes.extend_from_slice(&(agg.accepted as u64).to_be_bytes());
    bytes
}

/// The collector's parse of an accumulator share from a task with
/// `clients` clients: the share, and how many submissions it folds.
fn decode_accum(bytes: &[u8], clients: usize) -> Result<(Fe, u64), DecodeError> {
    if bytes.first() != Some(&TAG_ACCUM) {
        return Err(DecodeError::Tag);
    }
    let mut pos = 1;
    let share = Fe::from_bytes(&take(bytes, &mut pos)?).ok_or(DecodeError::NonCanonical)?;
    let folded = u64::from_be_bytes(take(bytes, &mut pos)?);
    expect_end(bytes, pos)?;
    if folded > clients as u64 {
        return Err(DecodeError::Width);
    }
    Ok((share, folded))
}

/// The ack of framed message `seq`.
fn ack(seq: u64) -> WireMsg {
    WireMsg::data(wire::frame(seq, &[TAG_ACK]), Label::Public)
}

/// The collector's label for an accumulator share: every contributor
/// appears as an anonymous member with non-sensitive data.
fn accum_label(clients: &[UserId]) -> Label {
    Label::items(clients.iter().flat_map(|&u| {
        [
            InfoItem::plain_identity(u, IdentityKind::Any),
            InfoItem::plain_data(u, DataKind::Measurement),
        ]
    }))
}

/// A reporting client: splits its measurement into one share per
/// aggregator and is done once both are acked.
struct Client {
    user: UserId,
    leader: Endpoint<ShareSubmission, Control, PrioAggregator>,
    helper: Endpoint<ShareSubmission, Control, PrioAggregator>,
    value: u64,
    bits: usize,
    malicious: bool,
    outbox: Outbox,
}

impl WireRole for Client {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        ctx.record(InfoItem::sensitive_identity(self.user, IdentityKind::Any));
        ctx.record(InfoItem::sensitive_data(self.user, DataKind::Measurement));
        ctx.crypto_op("prio_share");
        let shares = if self.malicious {
            crate::prio::submit_malicious(ctx.rng, self.bits)
        } else {
            crate::prio::submit(ctx.rng, self.value, self.bits)
        };
        // Each aggregator sees who reports (▲) but only an information-
        // theoretically uniform share (⊙).
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Measurement),
        ]);
        // Unused: the draw keeps the run RNG's order of draws, which the
        // DST probes pin, from when it delayed the submissions.
        ctx.rng.gen_range(0..50_000u64);
        let id = self.user.0;
        let leader = encode_submission(id, &shares[0]);
        self.outbox
            .send_to(ctx, self.leader, &leader, label.clone());
        let helper = encode_submission(id, &shares[1]);
        self.outbox.send_to(ctx, self.helper, &helper, label);
    }

    fn on_frame(&mut self, _ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        if let Some((seq, [TAG_ACK])) = wire::unframe(&msg.payload) {
            self.outbox.ack(from, seq);
        }
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        self.outbox.on_timer(ctx, token);
    }

    fn finished(&self) -> bool {
        self.outbox.is_empty()
    }
}

/// A submission in verification at one aggregator.
struct Pending {
    sub: SubmissionShare,
    my_r1: VerifyMsg,
    my_z: Option<Vec<Fe>>,
}

/// What the leader and the helper share: the task, who may send them
/// what, their Prio state and the collector leg.
struct Party {
    bits: usize,
    /// The clients' users in peer order: peer `FIRST_CLIENT + i` submits
    /// under `clients[i]`'s id.
    clients: Vec<UserId>,
    agg: Aggregator,
    collector: Endpoint<AccumShare, Control, AggCollector>,
    /// Submissions verified, valid or not: at most one per client, since
    /// each client submits only under its own id.
    done: usize,
    outbox: Outbox,
}

impl Party {
    /// The parse of a message from `from`: of the task's width, of a kind
    /// `from` sends in the wiring, and a submission under `from`'s own id.
    fn accept(&self, from: PeerId, body: &[u8]) -> Result<AggMsg, DecodeError> {
        let msg = decode_agg(body, self.bits)?;
        let sent = match &msg {
            AggMsg::Submit(id, _) => {
                let client = from.index().checked_sub(FIRST_CLIENT);
                client.and_then(|i| self.clients.get(i)).map(|u| u.0) == Some(*id)
            }
            AggMsg::LeaderR1(..) | AggMsg::LeaderZ(..) => from == LEADER,
            AggMsg::HelperR1Z(..) => from == HELPER,
        };
        if sent {
            Ok(msg)
        } else {
            Err(DecodeError::Sender)
        }
    }

    /// Take a delivery. An ack closes the message it names; any other
    /// body that [`accept`](Party::accept)s is acked at once, as the
    /// callback's first send, replays included (the previous ack may have
    /// been lost in flight). A body that fails is dropped unacked, so an
    /// honest sender retries it.
    fn receive(&mut self, ctx: &mut WireCtx, from: PeerId, msg: &WireMsg) -> Option<AggMsg> {
        let (seq, body) = wire::unframe(&msg.payload)?;
        if body == [TAG_ACK] {
            self.outbox.ack(from, seq);
            return None;
        }
        let msg = self.accept(from, body).ok()?;
        ctx.send(from, ack(seq));
        Some(msg)
    }

    /// Count one verified submission; once every client's is in, send the
    /// collector this party's accumulator share. The collector learns
    /// only the aggregate.
    fn count_done(&mut self, ctx: &mut WireCtx) {
        self.done += 1;
        if self.done == self.clients.len() {
            let label = accum_label(&self.clients);
            self.outbox
                .send_to(ctx, self.collector, &encode_accum(&self.agg), label);
        }
    }
}

/// The leader: opens round 1 for each submission and decides it on the
/// helper's openings and products.
struct Leader {
    party: Party,
    helper: Endpoint<Control, Control, PrioAggregator>,
    pending: HashMap<u64, Pending>,
    /// Round-1 messages that arrived before our own share did.
    early_r1: HashMap<u64, (VerifyMsg, Vec<Fe>)>,
}

impl Leader {
    fn finish_verification(
        &mut self,
        ctx: &mut WireCtx,
        id: u64,
        their_r1: VerifyMsg,
        their_z: Vec<Fe>,
    ) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        if p.my_z.is_some() {
            return; // duplicated round-1: this submission already finished
        }
        ctx.crypto_op("prio_verify_r2");
        let agg = &mut self.party.agg;
        // The helper's openings or products do not match the submission:
        // drop its message.
        let Ok(my_z) = agg.verify_round2(&p.sub, &p.my_r1, &their_r1) else {
            return;
        };
        if agg.finish(&p.sub, &my_z, &their_z).is_err() {
            return;
        }
        // Tell the helper our product shares so it can decide identically.
        let z = encode_verify(TAG_LEADER_Z, id, &VerifyMsg::default(), Some(&my_z));
        p.my_z = Some(my_z);
        let party = &mut self.party;
        party.outbox.send_to(ctx, self.helper, &z, Label::Public);
        party.count_done(ctx);
    }
}

impl WireRole for Leader {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some(msg) = self.party.receive(ctx, from, &msg) else {
            return;
        };
        match msg {
            AggMsg::Submit(id, sub) => {
                if self.pending.contains_key(&id) {
                    return; // duplicated submission: first copy wins
                }
                ctx.crypto_op("prio_verify_r1");
                let my_r1 = self.party.agg.verify_round1(&sub);
                let r1 = encode_verify(TAG_LEADER_R1, id, &my_r1, None);
                self.party
                    .outbox
                    .send_to(ctx, self.helper, &r1, Label::Public);
                self.pending.insert(
                    id,
                    Pending {
                        sub,
                        my_r1,
                        my_z: None,
                    },
                );
                if let Some((their_r1, their_z)) = self.early_r1.remove(&id) {
                    self.finish_verification(ctx, id, their_r1, their_z);
                }
            }
            AggMsg::HelperR1Z(id, their_r1, their_z) => {
                if self.pending.contains_key(&id) {
                    self.finish_verification(ctx, id, their_r1, their_z);
                } else {
                    self.early_r1.insert(id, (their_r1, their_z));
                }
            }
            AggMsg::LeaderR1(..) | AggMsg::LeaderZ(..) => {} // the leader's own kinds
        }
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        self.party.outbox.on_timer(ctx, token);
    }
}

/// The helper: answers the leader's openings with its own and its
/// products, and decides each submission on the leader's products.
struct Helper {
    party: Party,
    leader: Endpoint<Control, Control, PrioAggregator>,
    pending: HashMap<u64, Pending>,
    /// Submission ids ever accepted (dedup under duplicated deliveries).
    seen: HashSet<u64>,
    early_r1: HashMap<u64, VerifyMsg>,
    early_z: HashMap<u64, Vec<Fe>>,
}

impl Helper {
    fn try_round2(&mut self, ctx: &mut WireCtx, id: u64) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        if p.my_z.is_some() {
            return;
        }
        let Some(their_r1) = self.early_r1.get(&id) else {
            return;
        };
        ctx.crypto_op("prio_verify_r2");
        let Ok(my_z) = self.party.agg.verify_round2(&p.sub, &p.my_r1, their_r1) else {
            // The leader's openings do not match the submission: drop them.
            self.early_r1.remove(&id);
            return;
        };
        // Send round1 + z to the leader.
        let r1z = encode_verify(TAG_HELPER_R1Z, id, &p.my_r1, Some(&my_z));
        p.my_z = Some(my_z);
        let leader = self.leader;
        self.party.outbox.send_to(ctx, leader, &r1z, Label::Public);
        self.try_finish(ctx, id);
    }

    fn try_finish(&mut self, ctx: &mut WireCtx, id: u64) {
        let (Some(leader_z), Some(p)) = (self.early_z.get(&id), self.pending.get(&id)) else {
            return;
        };
        let Some(my_z) = &p.my_z else { return };
        let verdict = self.party.agg.finish(&p.sub, my_z, leader_z);
        self.early_z.remove(&id);
        if verdict.is_err() {
            return; // the leader's products do not match the submission: drop them
        }
        self.pending.remove(&id);
        self.party.count_done(ctx);
    }
}

impl WireRole for Helper {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some(msg) = self.party.receive(ctx, from, &msg) else {
            return;
        };
        match msg {
            AggMsg::Submit(id, sub) => {
                if !self.seen.insert(id) {
                    return; // duplicated submission: first copy wins
                }
                ctx.crypto_op("prio_verify_r1");
                let my_r1 = self.party.agg.verify_round1(&sub);
                self.pending.insert(
                    id,
                    Pending {
                        sub,
                        my_r1,
                        my_z: None,
                    },
                );
                self.try_round2(ctx, id);
            }
            AggMsg::LeaderR1(id, their_r1) => {
                self.early_r1.insert(id, their_r1);
                self.try_round2(ctx, id);
            }
            AggMsg::LeaderZ(id, leader_z) => {
                self.early_z.insert(id, leader_z);
                self.try_finish(ctx, id);
            }
            AggMsg::HelperR1Z(..) => {} // the helper's own kind
        }
    }

    fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
        self.party.outbox.on_timer(ctx, token);
    }
}

/// The collector: takes one accumulator share from each aggregator and
/// releases their sum once both fold the same number of submissions.
struct Collector {
    /// Clients in the task: no share folds more submissions.
    clients: usize,
    /// One `(sender, share, submissions folded)` per aggregator.
    shares: Vec<(PeerId, Fe, u64)>,
    aggregate: Arc<Mutex<Option<u64>>>,
}

impl WireRole for Collector {
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let Some((seq, body)) = wire::unframe(&msg.payload) else {
            return;
        };
        // Only the two aggregators send accumulator shares.
        if from != LEADER && from != HELPER {
            return;
        }
        let Ok((share, folded)) = decode_accum(body, self.clients) else {
            return;
        };
        ctx.send(from, ack(seq));
        if self.shares.iter().any(|s| s.0 == from) {
            return; // duplicated accumulator share from the same aggregator
        }
        self.shares.push((from, share, folded));
        if let [(_, a, n), (_, b, m)] = self.shares[..] {
            if n != m {
                return; // the shares sum different submissions: release nothing
            }
            *lock(&self.aggregate) = Some(crate::prio::collect(a, b));
            // The whole aggregation round, submission through reconstruction.
            ctx.span("aggregate", 0, ctx.now_us());
            for _ in 0..n {
                ctx.unit_done();
            }
        }
    }
}

/// A built PPM run: its roles, where the collector leaves the aggregate,
/// and the sum of the honest clients' values.
struct Wiring {
    spec: ServeSpec,
    aggregate: Arc<Mutex<Option<u64>>>,
    expected_sum: u64,
}

/// Build the PPM world and roles for either engine. Peer ids: the leader
/// 0, the helper 1, the collector 2, then the clients.
///
/// The world mutation order and the setup RNG's draws are load-bearing:
/// a metrics sink observes entity creation in sequence, and the DST
/// probes are byte-identical across refactors only if both hold.
fn wiring(cfg: &PpmConfig, seed: u64, mut world: World, opts: &RunOptions) -> Wiring {
    use rand::SeedableRng;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x99a1);

    let user_org = world.add_org("users");
    let leader_org = world.add_org("aggregator-a");
    let helper_org = world.add_org("aggregator-b");
    let collector_org = world.add_org("collector-co");
    let leader_e = world.add_entity("Aggregator", leader_org, None);
    let helper_e = world.add_entity("Helper Aggregator", helper_org, None);
    let collector_e = world.add_entity("Collector", collector_org, None);

    let mut clients = Vec::new();
    let mut expected_sum = 0;
    for i in 0..cfg.clients {
        let user = world.add_user();
        let e = world.add_entity(&nth("Client", ' ', i), user_org, Some(user));
        let value = setup_rng.gen_range(0..(1u64 << cfg.bits));
        if i >= cfg.malicious {
            expected_sum += value;
        }
        clients.push((user, e, value));
    }
    let users: Vec<UserId> = clients.iter().map(|c| c.0).collect();
    let outbox = |salt| Outbox::new(ReliableCall::new(&opts.recover, derive_seed(seed, salt)));
    let party = |agg, salt| Party {
        bits: cfg.bits,
        clients: users.clone(),
        agg,
        collector: Endpoint::new(2),
        done: 0,
        outbox: outbox(salt),
    };
    let leader = Leader {
        party: party(Aggregator::new(0), 0x991d),
        helper: Endpoint::new(1),
        pending: HashMap::new(),
        early_r1: HashMap::new(),
    };
    let helper = Helper {
        party: party(Aggregator::new(1), 0x991e),
        leader: Endpoint::new(0),
        pending: HashMap::new(),
        seen: HashSet::new(),
        early_r1: HashMap::new(),
        early_z: HashMap::new(),
    };
    let aggregate = Arc::new(Mutex::new(None));
    let collector = Collector {
        clients: cfg.clients,
        shares: Vec::new(),
        aggregate: aggregate.clone(),
    };
    let mut roles = vec![
        RoleSpec::of::<PrioAggregator>("leader", leader_e, Box::new(leader)),
        RoleSpec::of::<PrioAggregator>("helper", helper_e, Box::new(helper)),
        RoleSpec::of::<AggCollector>("collector", collector_e, Box::new(collector)),
    ];
    for (i, (user, e, value)) in clients.into_iter().enumerate() {
        let client = Client {
            user,
            leader: Endpoint::new(0),
            helper: Endpoint::new(1),
            value,
            bits: cfg.bits,
            malicious: i < cfg.malicious,
            outbox: outbox(0x99a0 + i as u64),
        };
        roles.push(RoleSpec::of::<Reporter>(
            nth("client", '-', i),
            e,
            Box::new(client),
        ));
    }
    Wiring {
        spec: ServeSpec {
            scenario: Ppm::NAME,
            world,
            roles,
            expected_units: (cfg.clients - cfg.malicious) as u64,
            taps: Vec::new(),
        },
        aggregate,
        expected_sum,
    }
}

/// One simulated run.
fn simulate(cfg: &PpmConfig, seed: u64, opts: &RunOptions) -> PpmReport {
    let (world, harness) = Harness::begin(Ppm::NAME, seed, opts);
    let w = wiring(cfg, seed, world, opts);
    let users = w.spec.world.users().to_vec();
    let expected = w.spec.expected_units;
    let core = harness.run_spec(w.spec, LinkParams::wan_ms(10), Vec::new());
    let aggregate = *lock(&w.aggregate);
    PpmReport {
        world: core.world,
        trace: core.trace,
        aggregate,
        expected_sum: w.expected_sum,
        accepted: cfg.clients - cfg.malicious,
        rejected: cfg.malicious,
        users,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected,
        retry_linkage: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::P;
    use crate::prio::tests::laid;
    use dcp_core::{analyze, collusion::entity_collusion, FaultConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(config: PpmConfig) -> PpmReport {
        Ppm::run(&config, config.seed)
    }

    fn fes(raw: &[u64]) -> Vec<Fe> {
        raw.iter().map(|&v| Fe::new(v)).collect()
    }

    fn triples(sub: &SubmissionShare) -> Vec<(Fe, Fe, Fe)> {
        sub.triples.iter().map(|t| (t.a, t.b, t.c)).collect()
    }

    /// `bytes` with bit `bit` (taken modulo its length) flipped.
    fn flip(bytes: &[u8], bit: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let bit = bit % (8 * out.len());
        out[bit / 8] ^= 1 << (bit % 8);
        out
    }

    proptest! {
        /// A submission round-trips. Every proper prefix of its encoding
        /// is an error, and a bit-flipped encoding either fails or
        /// re-encodes to itself (past the tag byte, which the caller
        /// matches before decoding).
        #[test]
        fn submissions_round_trip_and_fail_closed(
            id in any::<u64>(),
            raw in collection::vec((0..P, 0..P, 0..P, 0..P), 0..10),
            bit in any::<usize>(),
        ) {
            let sub = SubmissionShare {
                bits: raw.iter().map(|r| Fe::new(r.0)).collect(),
                triples: raw
                    .iter()
                    .map(|r| TripleShare { a: Fe::new(r.1), b: Fe::new(r.2), c: Fe::new(r.3) })
                    .collect(),
            };
            let bytes = encode_submission(id, &sub);
            let (back_id, back) = decode_submission(&bytes).expect("own encoding decodes");
            prop_assert_eq!(back_id, id);
            prop_assert_eq!(&back.bits, &sub.bits);
            prop_assert_eq!(triples(&back), triples(&sub));
            for cut in 0..bytes.len() {
                prop_assert!(decode_submission(&bytes[..cut]).is_err());
            }
            let flipped = flip(&bytes, bit);
            if let Ok((id, sub)) = decode_submission(&flipped) {
                prop_assert_eq!(&encode_submission(id, &sub)[1..], &flipped[1..]);
            }
        }

        /// The same three properties for both verification messages.
        #[test]
        fn verify_messages_round_trip_and_fail_closed(
            id in any::<u64>(),
            d in collection::vec(0..P, 0..8),
            e in collection::vec(0..P, 0..8),
            z in collection::vec(0..P, 0..8),
            with_z in any::<bool>(),
            bit in any::<usize>(),
        ) {
            let msg = VerifyMsg { d: fes(&d), e: fes(&e) };
            let z = if with_z { fes(&z) } else { Vec::new() };
            let bytes = encode_verify(TAG_HELPER_R1Z, id, &msg, with_z.then_some(&z[..]));
            prop_assert_eq!(decode_verify(&bytes, with_z), Ok((id, msg, z)));
            for cut in 0..bytes.len() {
                prop_assert!(decode_verify(&bytes[..cut], with_z).is_err());
            }
            let flipped = flip(&bytes, bit);
            if let Ok((id, msg, z)) = decode_verify(&flipped, with_z) {
                let again = encode_verify(flipped[0], id, &msg, with_z.then_some(&z[..]));
                prop_assert_eq!(again, flipped);
            }
        }

        /// Arbitrary bytes never panic a decoder.
        #[test]
        fn arbitrary_frames_fail_closed(bytes in collection::vec(any::<u8>(), 0..64)) {
            let _ = decode_submission(&bytes);
            let _ = decode_verify(&bytes, false);
            let _ = decode_verify(&bytes, true);
        }
    }

    /// Run `cfg` with role `at` wrapped by `wrap`: the aggregate, the
    /// honest sum, and the run's metrics.
    fn run_wrapped(
        cfg: &PpmConfig,
        opts: &RunOptions,
        at: usize,
        wrap: impl FnOnce(Box<dyn WireRole>) -> Box<dyn WireRole>,
    ) -> (Option<u64>, u64, MetricsReport) {
        let (world, harness) = Harness::begin(Ppm::NAME, cfg.seed, opts);
        let mut w = wiring(cfg, cfg.seed, world, opts);
        let spec = w.spec.roles.remove(at);
        let role = wrap(spec.role);
        w.spec.roles.insert(at, RoleSpec { role, ..spec });
        let core = harness.run_spec(w.spec, LinkParams::wan_ms(10), Vec::new());
        let aggregate = *lock(&w.aggregate);
        (aggregate, w.expected_sum, core.metrics)
    }

    /// Hands its role, once, the first framed protocol body it receives
    /// cut to its tag byte: a frame that cannot decode.
    struct CutFirst {
        inner: Box<dyn WireRole>,
        cut: bool,
    }

    impl WireRole for CutFirst {
        fn on_start(&mut self, ctx: &mut WireCtx) {
            self.inner.on_start(ctx);
        }
        fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, mut msg: WireMsg) {
            match wire::unframe(&msg.payload) {
                Some((_, body)) if !self.cut && body != [TAG_ACK] => {
                    self.cut = true;
                    msg.payload.truncate(wire::SEQ_LEN + 1);
                    self.inner.on_frame(ctx, from, msg);
                }
                _ => self.inner.on_frame(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
            self.inner.on_timer(ctx, token);
        }
    }

    #[test]
    fn an_undecodable_frame_gets_no_ack_and_its_retry_completes() {
        let config = PpmConfig {
            clients: 3,
            bits: 4,
            malicious: 0,
            seed: 9,
        };
        let opts = RunOptions::recovered(&FaultConfig::calm()).observe(true);
        let calm = Ppm::run_with(&config, config.seed, &opts);
        assert_eq!(calm.aggregate, Some(calm.expected_sum));
        assert_eq!(calm.metrics.recovery_retries, 0, "a calm run never retries");
        for role in ["leader", "helper", "collector"].into_iter().enumerate() {
            let (aggregate, expected_sum, metrics) = run_wrapped(&config, &opts, role.0, |inner| {
                Box::new(CutFirst { inner, cut: false })
            });
            // An ack would have closed the sender's call: only its retry
            // can deliver the body the role never decoded.
            assert!(metrics.recovery_retries > 0, "{role:?}: no retry");
            assert_eq!(aggregate, Some(expected_sum), "{role:?}");
        }
    }

    /// A client that first sends each of `forged` to its peer, framed
    /// under a number from 100 on, which its outbox never uses, then runs
    /// as itself. It logs the numbers of the acks it gets.
    struct Forger {
        inner: Box<dyn WireRole>,
        forged: Vec<(PeerId, Vec<u8>)>,
        acks: Arc<Mutex<Vec<u64>>>,
    }

    impl WireRole for Forger {
        fn on_start(&mut self, ctx: &mut WireCtx) {
            for (seq, (to, body)) in (100..).zip(self.forged.drain(..)) {
                ctx.send(to, WireMsg::data(wire::frame(seq, &body), Label::Public));
            }
            self.inner.on_start(ctx);
        }
        fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
            if let Some((seq, [TAG_ACK])) = wire::unframe(&msg.payload) {
                lock(&self.acks).push(seq);
            }
            self.inner.on_frame(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut WireCtx, token: u64) {
            self.inner.on_timer(ctx, token);
        }
        fn finished(&self) -> bool {
            self.inner.finished()
        }
    }

    /// Three clients in a task `bits` wide, the first of them (user 0, at
    /// peer 3) a [`Forger`] of what `forge` builds, on a recovered calm
    /// run. Asserts that no forged frame is acked and that the aggregate
    /// is the honest sum.
    fn forge_at_first_client(
        bits: usize,
        forge: impl FnOnce(&mut StdRng) -> Vec<(PeerId, Vec<u8>)>,
    ) {
        let config = PpmConfig {
            clients: 3,
            bits,
            malicious: 0,
            seed: 12,
        };
        let opts = RunOptions::recovered(&FaultConfig::calm());
        let forged = forge(&mut StdRng::seed_from_u64(5));
        let acks = Arc::new(Mutex::new(Vec::new()));
        let log = acks.clone();
        let (aggregate, expected_sum, _) = run_wrapped(&config, &opts, FIRST_CLIENT, |inner| {
            Box::new(Forger {
                inner,
                forged,
                acks: log,
            })
        });
        let acks = lock(&acks).clone();
        assert_eq!(acks, [0, 1], "only the client's own two shares are acked");
        assert_eq!(aggregate, Some(expected_sum));
    }

    #[test]
    fn submissions_of_another_width_are_dropped_unacked() {
        forge_at_first_client(32, |rng| {
            let mut forged = Vec::new();
            // 40 and 65 bits, under the client's own id.
            for parts in [&[(1, 32), (1, 8)][..], &[(1, 32), (1, 32), (1, 1)]] {
                let [a, b] = laid(rng, parts);
                forged.push((LEADER, encode_submission(0, &a)));
                forged.push((HELPER, encode_submission(0, &b)));
            }
            forged
        });
    }

    #[test]
    fn a_submission_under_another_clients_id_is_dropped_unacked() {
        forge_at_first_client(4, |rng| {
            // Client 2's id (user 1), with every bit set.
            let [a, b] = crate::prio::submit(rng, 15, 4);
            vec![
                (LEADER, encode_submission(1, &a)),
                (HELPER, encode_submission(1, &b)),
            ]
        });
    }

    #[test]
    fn aggregator_and_collector_messages_from_a_client_change_nothing() {
        forge_at_first_client(4, |rng| {
            let fes = |rng: &mut StdRng| (0..4).map(|_| Fe::random(rng)).collect::<Vec<_>>();
            let r1 = VerifyMsg {
                d: fes(rng),
                e: fes(rng),
            };
            let z = fes(rng);
            let mut accum = Aggregator::new(0);
            accum.accum = Fe::random(rng);
            accum.accepted = 1;
            // For client 2's submission (user 1), at the peer each kind
            // goes to in the wiring.
            vec![
                (HELPER, encode_verify(TAG_LEADER_R1, 1, &r1, None)),
                (
                    HELPER,
                    encode_verify(TAG_LEADER_Z, 1, &VerifyMsg::default(), Some(&z)),
                ),
                (LEADER, encode_verify(TAG_HELPER_R1Z, 1, &r1, Some(&z))),
                (PeerId(2), encode_accum(&accum)),
            ]
        });
    }

    #[test]
    fn served_roles_are_the_aggregators_the_collector_then_the_clients() {
        let serve = Ppm::REGISTRATION.serve.expect("servable");
        let (spec, _) = serve(2, 3, 7).unwrap();
        let names: Vec<&str> = spec.roles.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["leader", "helper", "collector", "client", "client-2"]
        );
        assert_eq!(spec.expected_units, 2, "one measurement per client");
        for bits in [0, 33] {
            let refused = serve(2, bits, 7).err().expect("outside 1..=32");
            assert!(refused.contains(&format!("{bits}-bit")), "{refused}");
        }
    }

    #[test]
    fn wire_counts_are_bounded_before_reserving() {
        let mut frame = vec![TAG_SUBMIT];
        frame.extend_from_slice(&7u64.to_be_bytes());
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_submission(&frame).map(|_| ()),
            Err(DecodeError::Truncated)
        );
        let mut bad = frame[..9].to_vec();
        bad.extend_from_slice(&1u32.to_be_bytes());
        bad.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_verify(&bad, false).map(|_| ()),
            Err(DecodeError::NonCanonical)
        );
    }

    #[test]
    fn instrumented_run_counts_prio_ops() {
        let config = PpmConfig {
            clients: 4,
            bits: 8,
            malicious: 0,
            seed: 11,
        };
        let report = Ppm::run_with(&config, config.seed, &RunOptions::observed());
        let m = &report.metrics;
        // One share split per client; each of the two aggregators runs
        // round 1 and round 2 once per submission.
        assert_eq!(m.crypto_ops["prio_share"], 4, "{m:?}");
        assert_eq!(m.crypto_ops["prio_verify_r1"], 8, "{m:?}");
        assert_eq!(m.crypto_ops["prio_verify_r2"], 8, "{m:?}");
        assert_eq!(m.span_count("aggregate"), 1, "{m:?}");
        assert!(m.messages_delivered > 0);
        assert_eq!(report.aggregate, Some(report.expected_sum));

        // The plain path stays dark.
        let plain = run(config);
        assert_eq!(plain.metrics.crypto_total(), 0);
        assert_eq!(plain.aggregate, Some(plain.expected_sum));
    }

    #[test]
    fn reproduces_paper_table() {
        let report = run(PpmConfig {
            clients: 5,
            bits: 8,
            malicious: 0,
            seed: 2,
        });
        assert_eq!(report.aggregate, Some(report.expected_sum));
        let derived = report.table(0);
        let expected = PpmReport::paper_table();
        assert_eq!(
            derived,
            expected,
            "diff:\n{}",
            derived.diff(&expected).unwrap_or_default()
        );
        assert!(analyze(&report.world).decoupled);
    }

    #[test]
    fn malicious_contributions_excluded() {
        let report = run(PpmConfig {
            clients: 6,
            bits: 8,
            malicious: 2,
            seed: 3,
        });
        assert_eq!(report.aggregate, Some(report.expected_sum));
        assert_eq!(report.rejected, 2);
        assert_eq!(report.accepted, 4);
    }

    #[test]
    fn aggregators_must_collude_to_recouple() {
        let report = run(PpmConfig {
            clients: 3,
            bits: 4,
            malicious: 0,
            seed: 4,
        });
        let rep = entity_collusion(&report.world, report.users[0], 3);
        // No coalition holds the client's raw value: shares are uniform,
        // so even full collusion reveals only ▲ + ⊙ in label terms — the
        // collusion analysis reports "uncouplable" for the data axis.
        assert_eq!(rep.min_coalition_size, None, "{:?}", rep.minimal_coalitions);
    }

    #[test]
    fn larger_populations_aggregate_exactly() {
        let report = run(PpmConfig {
            clients: 40,
            bits: 8,
            malicious: 0,
            seed: 5,
        });
        assert_eq!(report.aggregate, Some(report.expected_sum));
    }

    #[test]
    fn recovered_harsh_run_releases_the_exact_aggregate() {
        use dcp_faults::dst::KnowledgeFingerprint;
        let config = PpmConfig {
            clients: 6,
            bits: 8,
            malicious: 1,
            seed: 31,
        };
        let calm = Ppm::run_with(&config, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Ppm::run_with(&config, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(calm.aggregate, Some(calm.expected_sum));
        assert_eq!(
            harsh.aggregate,
            Some(harsh.expected_sum),
            "under harsh faults the recovery layer still releases the aggregate"
        );
        assert!(!harsh.fault_log.is_empty(), "harsh actually injected");
        assert_eq!(
            KnowledgeFingerprint::of(&harsh.world),
            KnowledgeFingerprint::of(&calm.world),
            "recovery must not change anyone's knowledge ledger"
        );
        assert_eq!(harsh.table(0), calm.table(0));
    }

    #[test]
    fn recovered_calm_run_matches_plain_completion() {
        let config = PpmConfig {
            clients: 5,
            bits: 8,
            malicious: 0,
            seed: 2,
        };
        let plain = run(config);
        let rec = Ppm::run_with(&config, 2, &RunOptions::recovered(&FaultConfig::calm()));
        assert_eq!(plain.aggregate, Some(plain.expected_sum));
        assert_eq!(rec.aggregate, Some(rec.expected_sum));
        assert_eq!(plain.table(0), rec.table(0));
    }
}
