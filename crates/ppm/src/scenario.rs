//! The PPM system on the simulator: clients → leader + helper → collector.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, EntityId, FaultLog, IdentityKind, InfoItem, Label, MetricsReport, RunOptions,
    Scenario, UserId, World,
};
use dcp_runtime::seam::Registration;
use dcp_runtime::{
    wire, Control, Ctx, Endpoint, Harness, LinkParams, Message, Node, NodeId, Outbox, Trace,
};
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
/// Recovery-mode acknowledgment of a seq-framed protocol message. The PPM
/// flow is one-way (no natural responses), so the ARQ needs explicit acks.
const TAG_ACK: u8 = 6;

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
        let config = PpmConfig { seed, ..*cfg };
        run_impl(&config, opts, &|_, node| node)
    }
}

impl Ppm {
    /// Five honest clients reporting four bits each. The aggregate is
    /// released only once every share has arrived, so any verified
    /// submission that reaches both aggregators counts as progress.
    pub const REGISTRATION: Registration = Registration {
        name: Ppm::NAME,
        run: |seed, opts| {
            let cfg = PpmConfig {
                clients: 5,
                bits: 4,
                malicious: 0,
                seed: 0, // overridden by the run seed
            };
            Box::new(Ppm::run_with(&cfg, seed, opts))
        },
        declared_caps,
        serve: None,
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

fn decode_agg(bytes: &[u8]) -> Result<AggMsg, DecodeError> {
    match bytes.first() {
        Some(&TAG_SUBMIT) => decode_submission(bytes).map(|(id, sub)| AggMsg::Submit(id, sub)),
        Some(&TAG_LEADER_R1) => {
            decode_verify(bytes, false).map(|(id, r1, _)| AggMsg::LeaderR1(id, r1))
        }
        Some(&TAG_HELPER_R1Z) => {
            decode_verify(bytes, true).map(|(id, r1, z)| AggMsg::HelperR1Z(id, r1, z))
        }
        Some(&TAG_LEADER_Z) => decode_verify(bytes, true).map(|(id, _, z)| AggMsg::LeaderZ(id, z)),
        _ => Err(DecodeError::Tag),
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

fn decode_accum(bytes: &[u8]) -> Result<Fe, DecodeError> {
    if bytes.first() != Some(&TAG_ACCUM) {
        return Err(DecodeError::Tag);
    }
    let mut pos = 1;
    let share = Fe::from_bytes(&take(bytes, &mut pos)?).ok_or(DecodeError::NonCanonical)?;
    take::<8>(bytes, &mut pos)?; // the accepted count, which the collector does not use
    expect_end(bytes, pos)?;
    Ok(share)
}

/// Decode a delivery. With recovery on, its frame comes off first: an ack
/// goes to `outbox`, and a body that decodes is acked at once, as the
/// callback's first send, replays included (the previous ack may have
/// been lost in flight). A body that does not decode is dropped unacked,
/// so its sender retries it.
fn receive<T>(
    ctx: &mut Ctx,
    from: NodeId,
    msg: &Message,
    recover: bool,
    outbox: Option<&mut Outbox>,
    decode: impl FnOnce(&[u8]) -> Result<T, DecodeError>,
) -> Option<T> {
    if !recover {
        return decode(&msg.bytes).ok();
    }
    let (seq, body) = wire::unframe(&msg.bytes)?;
    if body == [TAG_ACK] {
        if let Some(outbox) = outbox {
            outbox.ack(seq);
        }
        return None;
    }
    let decoded = decode(body).ok()?;
    ctx.send(from, Message::public(wire::frame(seq, &[TAG_ACK])));
    Some(decoded)
}

/// The collector's label for an accumulator share: every contributor
/// appears as an anonymous member with non-sensitive data.
fn accum_label(user_items: &[(u64, UserId)]) -> Label {
    Label::items(user_items.iter().flat_map(|&(_, u)| {
        [
            InfoItem::plain_identity(u, IdentityKind::Any),
            InfoItem::plain_data(u, DataKind::Measurement),
        ]
    }))
}

struct ClientNode {
    entity: EntityId,
    user: UserId,
    leader: Endpoint<ShareSubmission, Control, PrioAggregator>,
    helper: Endpoint<ShareSubmission, Control, PrioAggregator>,
    value: u64,
    bits: usize,
    malicious: bool,
    outbox: Outbox,
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
            InfoItem::sensitive_data(self.user, DataKind::Measurement),
        );
        ctx.world.crypto_op("prio_share");
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
        let delay = ctx.rng.gen_range(0..50_000u64);
        let _ = delay; // submissions may race; the protocol is id-keyed
        let leader = self.leader;
        let helper = self.helper;
        self.outbox.send_to(
            ctx,
            leader,
            encode_submission(self.user.0, &shares[0]),
            label.clone(),
        );
        self.outbox.send_to(
            ctx,
            helper,
            encode_submission(self.user.0, &shares[1]),
            label,
        );
    }
    fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, msg: Message) {
        if !self.outbox.enabled() {
            return;
        }
        let Some((seq, body)) = wire::unframe(&msg.bytes) else {
            return;
        };
        if body == [TAG_ACK] {
            self.outbox.ack(seq);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.outbox.on_timer(ctx, token);
    }
}

struct Pending {
    sub: SubmissionShare,
    my_r1: VerifyMsg,
    my_z: Option<Vec<Fe>>,
}

struct LeaderNode {
    entity: EntityId,
    helper: Endpoint<Control, Control, PrioAggregator>,
    collector: Endpoint<AccumShare, Control, AggCollector>,
    agg: Aggregator,
    pending: HashMap<u64, Pending>,
    /// Round-1 messages that arrived before our own share did.
    early_r1: HashMap<u64, (VerifyMsg, Vec<Fe>)>,
    expected: usize,
    done: usize,
    user_items: Vec<(u64, UserId)>,
    sent_accum: bool,
    recover: bool,
    outbox: Outbox,
}

impl LeaderNode {
    fn maybe_finish(&mut self, ctx: &mut Ctx) {
        if self.done == self.expected && !self.sent_accum {
            self.sent_accum = true;
            // The collector learns only the aggregate.
            let collector = self.collector;
            let label = accum_label(&self.user_items);
            self.outbox
                .send_to(ctx, collector, encode_accum(&self.agg), label);
        }
    }
}

impl Node for LeaderNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let Some(msg) = receive(
            ctx,
            from,
            &msg,
            self.recover,
            Some(&mut self.outbox),
            decode_agg,
        ) else {
            return;
        };
        match msg {
            AggMsg::Submit(id, sub) => {
                if self.pending.contains_key(&id) {
                    return; // duplicated submission: first copy wins
                }
                ctx.world.crypto_op("prio_verify_r1");
                let my_r1 = self.agg.verify_round1(&sub);
                let helper = self.helper;
                self.outbox.send_to(
                    ctx,
                    helper,
                    encode_verify(TAG_LEADER_R1, id, &my_r1, None),
                    Label::Public,
                );
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
            AggMsg::LeaderR1(..) | AggMsg::LeaderZ(..) => {} // the helper's: ignore
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.outbox.on_timer(ctx, token);
    }
}

impl LeaderNode {
    fn finish_verification(
        &mut self,
        ctx: &mut Ctx,
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
        ctx.world.crypto_op("prio_verify_r2");
        // The helper's openings or products do not match the submission:
        // drop its message.
        let Ok(my_z) = self.agg.verify_round2(&p.sub, &p.my_r1, &their_r1) else {
            return;
        };
        if self.agg.finish(&p.sub, &my_z, &their_z).is_err() {
            return;
        }
        p.my_z = Some(my_z.clone());
        self.done += 1;
        // Tell the helper our product shares so it can decide identically.
        let helper = self.helper;
        self.outbox.send_to(
            ctx,
            helper,
            encode_verify(TAG_LEADER_Z, id, &VerifyMsg::default(), Some(&my_z)),
            Label::Public,
        );
        self.maybe_finish(ctx);
    }
}

struct HelperNode {
    entity: EntityId,
    leader: Endpoint<Control, Control, PrioAggregator>,
    collector: Endpoint<AccumShare, Control, AggCollector>,
    agg: Aggregator,
    pending: HashMap<u64, Pending>,
    /// Submission ids ever accepted (dedup under duplicated deliveries).
    seen: std::collections::HashSet<u64>,
    early_r1: HashMap<u64, VerifyMsg>,
    early_z: HashMap<u64, Vec<Fe>>,
    expected: usize,
    done: usize,
    user_items: Vec<(u64, UserId)>,
    sent_accum: bool,
    recover: bool,
    outbox: Outbox,
}

impl HelperNode {
    fn try_round2(&mut self, ctx: &mut Ctx, id: u64) {
        let Some(p) = self.pending.get(&id) else {
            return;
        };
        if p.my_z.is_some() {
            return;
        }
        let Some(their_r1) = self.early_r1.get(&id) else {
            return;
        };
        ctx.world.crypto_op("prio_verify_r2");
        let Ok(my_z) = self.agg.verify_round2(&p.sub, &p.my_r1, their_r1) else {
            // The leader's openings do not match the submission: drop them.
            self.early_r1.remove(&id);
            return;
        };
        // Send round1 + z to the leader.
        let my_r1 = p.my_r1.clone();
        let leader = self.leader;
        self.outbox.send_to(
            ctx,
            leader,
            encode_verify(TAG_HELPER_R1Z, id, &my_r1, Some(&my_z)),
            Label::Public,
        );
        self.pending.get_mut(&id).unwrap().my_z = Some(my_z);
        self.try_finish(ctx, id);
    }

    fn try_finish(&mut self, ctx: &mut Ctx, id: u64) {
        let (Some(leader_z), Some(p)) = (self.early_z.get(&id), self.pending.get(&id)) else {
            return;
        };
        let Some(my_z) = &p.my_z else { return };
        let verdict = self.agg.finish(&p.sub, my_z, leader_z);
        self.early_z.remove(&id);
        if verdict.is_err() {
            return; // the leader's products do not match the submission: drop them
        }
        self.pending.remove(&id);
        self.done += 1;
        if self.done == self.expected && !self.sent_accum {
            self.sent_accum = true;
            let collector = self.collector;
            let label = accum_label(&self.user_items);
            self.outbox
                .send_to(ctx, collector, encode_accum(&self.agg), label);
        }
    }
}

impl Node for HelperNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let Some(msg) = receive(
            ctx,
            from,
            &msg,
            self.recover,
            Some(&mut self.outbox),
            decode_agg,
        ) else {
            return;
        };
        match msg {
            AggMsg::Submit(id, sub) => {
                if !self.seen.insert(id) {
                    return; // duplicated submission: first copy wins
                }
                ctx.world.crypto_op("prio_verify_r1");
                let my_r1 = self.agg.verify_round1(&sub);
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
            AggMsg::HelperR1Z(..) => {} // the leader's: ignore
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.outbox.on_timer(ctx, token);
    }
}

struct CollectorNode {
    entity: EntityId,
    /// One accumulator share per aggregator node (dedup by sender).
    shares: Vec<(NodeId, Fe)>,
    result: Rc<RefCell<Option<u64>>>,
    /// Is the run's recovery layer on?
    recover: bool,
}

impl Node for CollectorNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let Some(share) = receive(ctx, from, &msg, self.recover, None, decode_accum) else {
            return;
        };
        if self.shares.iter().any(|(n, _)| *n == from) {
            return; // duplicated accumulator share from the same node
        }
        self.shares.push((from, share));
        if self.shares.len() == 2 {
            *self.result.borrow_mut() =
                Some(crate::prio::collect(self.shares[0].1, self.shares[1].1));
            // The whole aggregation round, submission through reconstruction.
            ctx.world.span("aggregate", 0, ctx.now.as_us());
        }
    }
}

/// Build and run one world. `wrap` gets each service role's node
/// (leader 0, helper 1, collector 2) as it joins the network.
fn run_impl(
    config: &PpmConfig,
    opts: &RunOptions,
    wrap: &dyn Fn(usize, Box<dyn Node>) -> Box<dyn Node>,
) -> PpmReport {
    use rand::SeedableRng;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0x99a1);

    let (mut world, harness) = Harness::begin(Ppm::NAME, config.seed, opts);
    let user_org = world.add_org("users");
    let leader_org = world.add_org("aggregator-a");
    let helper_org = world.add_org("aggregator-b");
    let collector_org = world.add_org("collector-co");
    let leader_e = world.add_entity("Aggregator", leader_org, None);
    let helper_e = world.add_entity("Helper Aggregator", helper_org, None);
    let collector_e = world.add_entity("Collector", collector_org, None);

    let mut users = Vec::new();
    let mut client_entities = Vec::new();
    let mut values = Vec::new();
    for i in 0..config.clients {
        let u = world.add_user();
        let name = if i == 0 {
            "Client".to_string()
        } else {
            format!("Client {}", i + 1)
        };
        client_entities.push(world.add_entity(&name, user_org, Some(u)));
        users.push(u);
        values.push(setup_rng.gen_range(0..(1u64 << config.bits)));
    }
    let expected_sum: u64 = values
        .iter()
        .enumerate()
        .filter(|(i, _)| *i >= config.malicious)
        .map(|(_, &v)| v)
        .sum();

    let mut net = harness.network(world, LinkParams::wan_ms(10));
    // One node, several typed views: the helper is a `Control` peer to
    // the leader but a `ShareSubmission` sink to the clients.
    let collector_ep: Endpoint<AccumShare, Control, AggCollector> = Endpoint::new(2);
    let user_items: Vec<(u64, UserId)> = users.iter().map(|&u| (u.0, u)).collect();

    let recover_on = opts.recover.enabled;
    Harness::add_role::<PrioAggregator>(
        &mut net,
        wrap(
            0,
            Box::new(LeaderNode {
                entity: leader_e,
                helper: Endpoint::new(1),
                collector: collector_ep,
                agg: Aggregator::new(0),
                pending: HashMap::new(),
                early_r1: HashMap::new(),
                expected: config.clients,
                done: 0,
                user_items: user_items.clone(),
                sent_accum: false,
                recover: recover_on,
                outbox: Outbox::from_config(&opts.recover, derive_seed(config.seed, 0x991d)),
            }),
        ),
    );
    Harness::add_role::<PrioAggregator>(
        &mut net,
        wrap(
            1,
            Box::new(HelperNode {
                entity: helper_e,
                leader: Endpoint::new(0),
                collector: collector_ep,
                agg: Aggregator::new(1),
                pending: HashMap::new(),
                seen: std::collections::HashSet::new(),
                early_r1: HashMap::new(),
                early_z: HashMap::new(),
                expected: config.clients,
                done: 0,
                user_items,
                sent_accum: false,
                recover: recover_on,
                outbox: Outbox::from_config(&opts.recover, derive_seed(config.seed, 0x991e)),
            }),
        ),
    );
    let result = Rc::new(RefCell::new(None));
    Harness::add_role::<AggCollector>(
        &mut net,
        wrap(
            2,
            Box::new(CollectorNode {
                entity: collector_e,
                shares: Vec::new(),
                result: result.clone(),
                recover: recover_on,
            }),
        ),
    );
    for (i, ((&u, &e), &v)) in users
        .iter()
        .zip(client_entities.iter())
        .zip(values.iter())
        .enumerate()
    {
        Harness::add_role::<Reporter>(
            &mut net,
            Box::new(ClientNode {
                entity: e,
                user: u,
                leader: Endpoint::new(0),
                helper: Endpoint::new(1),
                value: v,
                bits: config.bits,
                malicious: i < config.malicious,
                outbox: Outbox::from_config(
                    &opts.recover,
                    derive_seed(config.seed, 0x99a0 + i as u64),
                ),
            }),
        );
    }

    let core = harness.finish(net);
    let aggregate = *result.borrow();

    // Accepted/rejected counts are symmetric; read them from the trace-
    // independent expectation: recompute from aggregate presence.
    let rejected = config.malicious;
    let accepted = config.clients - config.malicious;
    PpmReport {
        world: core.world,
        trace: core.trace,
        aggregate,
        expected_sum,
        accepted,
        rejected,
        users,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected: (config.clients - config.malicious) as u64,
        retry_linkage: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::P;
    use dcp_core::{analyze, collusion::entity_collusion, FaultConfig};
    use proptest::prelude::*;

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

    /// Hands its role, once, the first framed protocol body it receives
    /// cut to its tag byte: a frame that cannot decode.
    struct CutFirst {
        inner: Box<dyn Node>,
        cut: bool,
    }

    impl Node for CutFirst {
        fn entity(&self) -> EntityId {
            self.inner.entity()
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.inner.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
            match wire::unframe(&msg.bytes) {
                Some((seq, body)) if !self.cut && body != [TAG_ACK] => {
                    self.cut = true;
                    let cut = Message::new(wire::frame(seq, &body[..1]), msg.label.clone());
                    self.inner.on_message(ctx, from, cut);
                }
                _ => self.inner.on_message(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
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
        let calm = run_impl(&config, &opts, &|_, node| node);
        assert_eq!(calm.aggregate, Some(calm.expected_sum));
        assert_eq!(calm.metrics.recovery_retries, 0, "a calm run never retries");
        for role in ["leader", "helper", "collector"].into_iter().enumerate() {
            let report = run_impl(&config, &opts, &|i, node| {
                if i == role.0 {
                    Box::new(CutFirst {
                        inner: node,
                        cut: false,
                    })
                } else {
                    node
                }
            });
            // An ack would have closed the sender's call: only its retry
            // can deliver the body the role never decoded.
            assert!(report.metrics.recovery_retries > 0, "{role:?}: no retry");
            assert_eq!(report.aggregate, Some(report.expected_sum), "{role:?}");
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
