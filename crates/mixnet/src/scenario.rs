//! End-to-end mix-net runs: Fig. 1's topology with measurable anonymity.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, EntityId, FaultLog, IdentityKind, InfoItem, KeyId, Label, MetricsReport, RunOptions,
    Scenario, UserId, World,
};
use dcp_crypto::hpke;
use dcp_runtime::seam::Registration;
use dcp_runtime::{
    mean_us, wire, Attempt, CallEvent, Control, Ctx, Driver, Endpoint, FleetClient, FleetSetup,
    FleetSummary, Harness, LinkParams, Message, Node, NodeId, RetryLinkage, Trace, TypedSend,
};
use dcp_transport::onion::{self, Hop, Unwrapped};
use rand::Rng as _;

use crate::adversary::{self, AttackResult};
use crate::mix::{MixNode, RESP_BIT};
use crate::types::{declared_caps, BatchMix, MailReceiver, MailSender, MixedMail};

/// Configuration of a mix-net run.
#[derive(Clone, Copy, Debug)]
pub struct MixnetConfig {
    /// Number of senders (= receivers; each sender messages one receiver).
    pub senders: usize,
    /// Mixes in the chain.
    pub mixes: usize,
    /// Threshold batch size at each mix.
    pub batch_size: usize,
    /// Senders start uniformly at random within this window (µs).
    pub window_us: u64,
    /// Shuffle batches at each mix (disable for the broken-mix ablation).
    pub shuffle: bool,
    /// Decoy messages each sender emits alongside its real one (§4.3
    /// "adding additional chaff").
    pub chaff_per_sender: usize,
    /// Override the mixes' flush deadline (µs). `None` = one terminal
    /// flush after the window. Short deadlines turn the threshold mixes
    /// into *timed* mixes — the configuration where chaff pays off.
    pub mix_max_wait_us: Option<u64>,
    /// Seed.
    pub seed: u64,
}

impl Default for MixnetConfig {
    fn default() -> Self {
        MixnetConfig {
            senders: 8,
            mixes: 2,
            batch_size: 4,
            window_us: 200_000,
            shuffle: true,
            chaff_per_sender: 0,
            mix_max_wait_us: None,
            seed: 0,
        }
    }
}

/// Report from a run.
pub struct MixnetReport {
    /// Knowledge base.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// Messages delivered end-to-end.
    pub delivered: usize,
    /// Mean sender→receiver latency (µs).
    pub mean_latency_us: f64,
    /// Timing-correlation attack outcome.
    pub attack: AttackResult,
    /// Mean final-hop anonymity-set size.
    pub mean_anonymity_set: f64,
    /// Sender users.
    pub users: Vec<UserId>,
    /// Mix column names in chain order.
    pub mix_names: Vec<String>,
    /// Receiver entity name for each sender (post-shuffle).
    pub receiver_of: Vec<String>,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target: one real message per sender.
    pub expected: u64,
    /// Retry-linkage violations over the re-wrapped onion attempts.
    pub retry_linkage: Vec<String>,
    /// Fleet-layer summary ([`FleetSummary::disabled`] when the run had
    /// no directory).
    pub fleet: FleetSummary,
}

impl dcp_core::ScenarioReport for MixnetReport {
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
        self.delivered as u64
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

/// §3.1.2 mix chain: Fig. 1's topology with measurable anonymity.
pub struct Mixnet;

impl Scenario for Mixnet {
    type Config = MixnetConfig;
    type Report = MixnetReport;
    const NAME: &'static str = "mixnet";

    fn run_with(cfg: &MixnetConfig, seed: u64, opts: &RunOptions) -> MixnetReport {
        let config = MixnetConfig { seed, ..*cfg };
        run_impl(&config, opts)
    }
}

impl Mixnet {
    /// Six senders through two shuffling mixes that flush every three
    /// messages.
    pub const REGISTRATION: Registration = Registration {
        name: Mixnet::NAME,
        run: |seed, opts| {
            let cfg = MixnetConfig {
                senders: 6,
                mixes: 2,
                batch_size: 3,
                window_us: 100_000,
                shuffle: true,
                chaff_per_sender: 0,
                mix_max_wait_us: None,
                seed: 0, // overridden by the run seed
            };
            Box::new(Mixnet::run_with(&cfg, seed, opts))
        },
        declared_caps,
        serve: None,
    };
}

impl MixnetReport {
    /// Derive the §3.1.2 table for sender `i`.
    pub fn table(&self, i: usize) -> DecouplingTable {
        let sender_col = if i == 0 {
            "Sender".to_string()
        } else {
            format!("Sender {}", i + 1)
        };
        let mut cols: Vec<&str> = vec![&sender_col];
        cols.extend(self.mix_names.iter().map(String::as_str));
        cols.push(&self.receiver_of[i]);
        let mut t = DecouplingTable::derive(&self.world, self.users[i], &cols);
        // Normalize headers to the paper's generic column names.
        t.columns[0] = "Sender".to_string();
        *t.columns.last_mut().unwrap() = "Receiver".to_string();
        t
    }

    /// The paper's table for a 2-mix chain.
    pub fn paper_table_two_mixes() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("Sender", "(▲, ●)"),
            ("Mix 1", "(▲, ⊙)"),
            ("Mix 2", "(△, ⊙)"),
            ("Receiver", "(△, ●)"),
        ])
    }
}

struct Stats {
    delivered: usize,
    latencies: Vec<u64>,
    /// Retry-linkage check fed by every real attempt's outermost bytes.
    linkage: RetryLinkage,
}

const TOKEN_REAL: u64 = 0;
const TOKEN_CHAFF: u64 = 1;

/// Chaff copies are framed one-shot (never retried), in a seq space that
/// can never collide with the sender's ARQ seqs.
const CHAFF_SEQ_BASE: u64 = 1 << 62;

/// Payload discriminators (inside the innermost encryption layer).
const BODY_REAL: u8 = 0;
const BODY_CHAFF: u8 = 1;

struct SenderNode {
    entity: EntityId,
    user: UserId,
    first_mix: Endpoint<MixedMail, Control, BatchMix>,
    /// Plain mode: the full mix+receiver hop stack. Fleet mode: the
    /// receiver's single hop (mix hops come from the directory per wrap).
    hops: Vec<Hop>,
    /// Alternative hop stacks ending at other receivers (chaff targets).
    chaff_hops: Vec<Vec<Hop>>,
    mix_keys: Vec<KeyId>,
    /// Fleet mode: the home-directory handle the mix chain's hops are
    /// read from on every wrap (so retries pick up rotated keys).
    fleet: Option<FleetClient>,
    receiver_key: KeyId,
    delay_us: u64,
    chaff_delays: Vec<u64>,
    sent: bool,
    stats: Rc<RefCell<Stats>>,
    /// Per-message reliable-call driver (inert when recovery is
    /// disabled); the single open call is the real message.
    calls: Driver<()>,
    /// The real body, built once at first transmission so every attempt
    /// carries the same send-time stamp and the receiver can dedup.
    real_body: Vec<u8>,
    /// One-shot chaff seq counter (recovery framing only).
    chaff_seq: u64,
}

impl SenderNode {
    /// Emit one decoy: same size, same onion structure, random receiver,
    /// no information content. On the wire it is indistinguishable from a
    /// real message.
    fn send_chaff(&mut self, ctx: &mut Ctx) {
        use rand::Rng as _;
        let idx = ctx.rng.gen_range(0..self.chaff_hops.len());
        let hops = self.chaff_hops[idx].clone();
        let mut body = vec![BODY_CHAFF];
        body.extend_from_slice(&[0u8; 8]);
        body.extend_from_slice(format!("dear receiver, love sender {}", self.user.0).as_bytes());
        let (bytes, chaff_keys) = if let Some(client) = &self.fleet {
            // Fleet: seal the receiver's layer, then route it through the
            // directory-drawn chain with epoch-tagged layers.
            let ehops = client.hops();
            for _ in 0..(ehops.len() + hops.len()) {
                ctx.world.crypto_op("hpke_seal");
            }
            let (recv_cipher, _) =
                onion::wrap(ctx.rng, &hops, &body, Label::Public).expect("chaff recv seal");
            let (bytes, _) =
                onion::wrap_epochs(ctx.rng, &ehops, hops[0].addr, &recv_cipher, Label::Public)
                    .expect("chaff onion");
            let mut keys: Vec<KeyId> = ehops.iter().map(|h| h.hop.key_id).collect();
            keys.extend(hops.iter().map(|h| h.key_id));
            (bytes, keys)
        } else {
            for _ in 0..hops.len() {
                ctx.world.crypto_op("hpke_seal");
            }
            let (bytes, _) =
                onion::wrap(ctx.rng, &hops, &body, Label::Public).expect("chaff onion");
            (bytes, hops.iter().map(|h| h.key_id).collect())
        };
        // Chaff reveals the same envelope facts (someone at this address is
        // sending into the mix-net) but protects nothing further: every
        // layer seals emptiness.
        let mut label = Label::Public;
        for &k in chaff_keys.iter().rev() {
            label = label.sealed(k);
        }
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Payload),
        ])
        .and(label);
        if self.calls.enabled() {
            // Framed so recovered mixes can parse it, but fire-and-forget:
            // chaff that faults eat is just less cover, never lost work.
            self.chaff_seq += 1;
            let seq = CHAFF_SEQ_BASE | self.chaff_seq;
            ctx.send_to(
                self.first_mix,
                Message::new(wire::frame(seq, &bytes), label),
            );
            return;
        }
        ctx.send_to(self.first_mix, Message::new(bytes, label));
    }

    /// Wrap the stored real body in a fresh onion with the hand-built
    /// label nesting: every intermediate mix sees the (△, ⊙) "someone is
    /// using the mix-net" facts the paper ascribes to it, while only the
    /// receiver opens the message itself.
    fn wrap_real(&mut self, ctx: &mut Ctx) -> (Vec<u8>, Label) {
        let (bytes, layer_keys) = if let Some(client) = &self.fleet {
            // Fleet: the receiver's layer is sealed under its fixed key,
            // then routed through the directory-drawn mix chain with
            // epoch-tagged layers; the exit mix forwards the receiver's
            // ciphertext to its address. Hops are re-read from the
            // directory on every wrap, so after a stale-epoch rejection
            // the ARQ's next attempt seals under rotated keys.
            let ehops = client.hops();
            for _ in 0..(ehops.len() + self.hops.len()) {
                ctx.world.crypto_op("hpke_seal");
            }
            let (recv_cipher, _) = onion::wrap(ctx.rng, &self.hops, &self.real_body, Label::Public)
                .expect("recv seal");
            let (bytes, _) = onion::wrap_epochs(
                ctx.rng,
                &ehops,
                self.hops[0].addr,
                &recv_cipher,
                Label::Public,
            )
            .expect("onion");
            (
                bytes,
                ehops.iter().map(|h| h.hop.key_id).collect::<Vec<_>>(),
            )
        } else {
            for _ in 0..self.hops.len() {
                ctx.world.crypto_op("hpke_seal");
            }
            let (bytes, _auto_label) =
                onion::wrap(ctx.rng, &self.hops, &self.real_body, Label::Public).expect("onion");
            (bytes, self.mix_keys.clone())
        };
        let mut label = Label::items([
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::sensitive_data(self.user, DataKind::Message),
        ])
        .sealed(self.receiver_key);
        for &k in layer_keys.iter().rev() {
            label = Label::items([
                InfoItem::plain_identity(self.user, IdentityKind::Any),
                InfoItem::plain_data(self.user, DataKind::Payload),
            ])
            .and(label)
            .sealed(k);
        }
        // Envelope: the first mix (and any tap on the access link) sees
        // the sender's address.
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Payload),
        ])
        .and(label);
        (bytes, label)
    }

    /// (Re)transmit the real message: every attempt is a fresh onion over
    /// the same body, so no two attempts share a byte on any wire.
    fn transmit_real(&mut self, ctx: &mut Ctx, att: Attempt) {
        let (bytes, label) = self.wrap_real(ctx);
        self.stats
            .borrow_mut()
            .linkage
            .record(self.user.0, att.seq, att.attempt, &bytes);
        ctx.send_to(
            self.first_mix,
            Message::new(wire::frame(att.seq, &bytes), label).with_flow(self.user.0),
        );
        ctx.set_timer(att.timer_delay_us, att.token);
    }
}

impl Node for SenderNode {
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
            InfoItem::sensitive_data(self.user, DataKind::Message),
        );
        ctx.set_timer(self.delay_us, TOKEN_REAL);
        for (i, &d) in self.chaff_delays.iter().enumerate() {
            let _ = i;
            ctx.set_timer(d, TOKEN_CHAFF);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.calls.on_timer(ctx, token) {
            CallEvent::App(_) => {} // an app timer: fall through
            CallEvent::Ignored => return,
            CallEvent::Retry(att) => {
                self.transmit_real(ctx, att);
                return;
            }
            // The one real message is abandoned; chaff keeps flowing.
            CallEvent::Exhausted { .. } => return,
        }
        if token == TOKEN_CHAFF {
            self.send_chaff(ctx);
            return;
        }
        if self.sent {
            return;
        }
        self.sent = true;
        let payload = format!("dear receiver, love sender {}", self.user.0);
        // Send-time stamp rides in the payload so the receiver can compute
        // latency without out-of-band state.
        let mut body = vec![BODY_REAL];
        body.extend_from_slice(&ctx.now.as_us().to_be_bytes());
        body.extend_from_slice(payload.as_bytes());
        self.real_body = body;
        if let Some(att) = self.calls.begin(()) {
            self.transmit_real(ctx, att);
            return;
        }
        let (bytes, label) = self.wrap_real(ctx);
        ctx.send_to(
            self.first_mix,
            Message::new(bytes, label).with_flow(self.user.0),
        );
    }
    fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, msg: Message) {
        // The only traffic a sender ever receives is its own ack, retraced
        // hop by hop from the receiver. Acks for chaff seqs (or duplicated
        // acks) simply don't match an open call.
        if self.calls.enabled() {
            if let Some((seq, _)) = wire::unframe(&msg.bytes) {
                self.calls.complete(seq);
            }
        }
    }
}

struct ReceiverNode {
    entity: EntityId,
    kp: hpke::Keypair,
    key_id: KeyId,
    stats: Rc<RefCell<Stats>>,
    /// Recovery wiring: unframe deliveries and ack every copy.
    recover: bool,
    /// Fleet runs: mark acks with [`RESP_BIT`] so full-mesh mixes can
    /// tell direction without topology.
    resp_bit: bool,
    /// Real payloads already counted (a retransmitted copy carries the
    /// same body, so content is the dedup key).
    seen: BTreeSet<Vec<u8>>,
}

impl Node for ReceiverNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let cipher: &[u8] = if self.recover {
            let Some((seq, body)) = wire::unframe(&msg.bytes) else {
                return; // unframed delivery on a recovered run: drop
            };
            // Ack every copy (chaff and duplicates included): the ack
            // retraces the mix chain, and a copy that arrived must stop
            // its sender's retries regardless of what it decodes to.
            let out_seq = if self.resp_bit { seq | RESP_BIT } else { seq };
            ctx.send(from, Message::public(wire::frame(out_seq, &[])));
            body
        } else {
            &msg.bytes
        };
        // Final onion layer: the receiver peels its own seal. Undecodable
        // or misrouted deliveries are dropped — fail closed.
        ctx.world.crypto_op("hpke_open");
        let Ok(unwrapped) = onion::unwrap_layer(&self.kp, cipher) else {
            return;
        };
        let Unwrapped::Deliver { payload } = unwrapped else {
            return;
        };
        if onion::unwrap_label(
            match &msg.label {
                Label::Bundle(parts) if parts.len() == 2 => &parts[1],
                other => other,
            },
            self.key_id,
        )
        .is_err()
        {
            return; // label desync: bytes and labels disagree — drop
        }
        if payload.len() < 9 || payload[0] == BODY_CHAFF {
            return; // decoy (or truncated): drop silently
        }
        if self.recover && !self.seen.insert(payload.clone()) {
            return; // another copy of a counted message: exactly-once
        }
        let sent_at = u64::from_be_bytes(payload[1..9].try_into().unwrap());
        ctx.world.span("e2e", sent_at, ctx.now.as_us());
        let mut stats = self.stats.borrow_mut();
        stats.delivered += 1;
        stats.latencies.push(ctx.now.as_us() - sent_at);
    }
}

fn run_impl(config: &MixnetConfig, opts: &RunOptions) -> MixnetReport {
    use rand::SeedableRng;
    let config = *config;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0x317);
    assert!(config.mixes >= 1 && config.senders >= 1);

    let (mut world, harness) = Harness::begin(Mixnet::NAME, config.seed, opts);
    let user_org = world.add_org("senders");
    let recv_org = world.add_org("receivers");

    // Fleet mode: mixes come from a gossiped directory instead of static
    // wiring. `pool = 0` means "the wiring's own mix count".
    let fleet_on = opts.fleet.enabled && config.mixes > 0;
    assert!(
        !fleet_on || opts.recover.enabled,
        "fleet mode requires the recovery runtime (RunOptions::recovered): \
         churn survival rides the ARQ's re-sealed retransmissions"
    );
    let pool = if fleet_on {
        config.mixes.max(opts.fleet.pool as usize)
    } else {
        config.mixes
    };

    let mut mix_entities = Vec::new();
    let mut pool_names = Vec::new();
    for i in 0..pool {
        let org = world.add_org(&format!("mix-op-{i}"));
        let name = format!("Mix {}", i + 1);
        mix_entities.push(world.add_entity(&name, org, None));
        pool_names.push(name);
    }

    let mut users = Vec::new();
    let mut sender_entities = Vec::new();
    for i in 0..config.senders {
        let u = world.add_user();
        let name = if i == 0 {
            "Sender".to_string()
        } else {
            format!("Sender {}", i + 1)
        };
        sender_entities.push(world.add_entity(&name, user_org, Some(u)));
        users.push(u);
    }
    let mut receiver_entities = Vec::new();
    for i in 0..config.senders {
        let name = if i == 0 {
            "Receiver".to_string()
        } else {
            format!("Receiver {}", i + 1)
        };
        receiver_entities.push(world.add_entity(&name, recv_org, None));
    }

    // Directory entities register after every baseline entity so the
    // byte-identity probe can compare fleet runs against the fixed-mix
    // baseline on the baseline's own rows.
    let mix_addrs: Vec<u16> = (0..pool).map(|i| 100 + i as u16).collect();
    let mut dir_entities = Vec::new();
    let mut fleet_setup = if fleet_on {
        let dir_org = world.add_org("directory-auth");
        for j in 0..opts.fleet.directories.max(1) {
            dir_entities.push(world.add_entity(&format!("Directory {}", j + 1), dir_org, None));
        }
        Some(FleetSetup::build(
            &mut world,
            &opts.fleet,
            config.seed,
            &mix_entities,
            &mix_addrs,
        ))
    } else {
        None
    };
    // One shared chain: a mix-net batches, so every sender traverses the
    // same mixes in the same order (fleet runs pin it at t = 0 from the
    // genesis directory; churn is survived through the pinned chain's
    // ARQ, keeping knowledge byte-identical to the fixed-mix run).
    let chain: Vec<u16> = match &mut fleet_setup {
        Some(fs) => fs.chain(config.mixes).expect("fleet pool < chain length"),
        None => (0..config.mixes as u16).collect(),
    };
    let mix_names: Vec<String> = chain
        .iter()
        .map(|&m| pool_names[m as usize].clone())
        .collect();

    // Keys: one per mix (fleet mode mints them per epoch instead — the
    // keypairs are still drawn so the seed stream, and with it the
    // sender→receiver permutation below, matches the fixed-mix baseline).
    let mix_kps: Vec<hpke::Keypair> = (0..config.mixes)
        .map(|_| hpke::Keypair::generate(&mut setup_rng))
        .collect();
    let mix_keys: Vec<KeyId> = if fleet_on {
        Vec::new()
    } else {
        mix_entities.iter().map(|&e| world.new_key(&[e])).collect()
    };
    let recv_kps: Vec<hpke::Keypair> = (0..config.senders)
        .map(|_| hpke::Keypair::generate(&mut setup_rng))
        .collect();
    let recv_keys: Vec<KeyId> = receiver_entities
        .iter()
        .map(|&e| world.new_key(&[e]))
        .collect();

    let mut net = harness.network(world, LinkParams::wan_ms(5));

    // Node layout: mixes 0..pool, receivers after, senders after those,
    // then (fleet runs) the directory nodes.
    let mix_ids: Vec<NodeId> = (0..pool).map(NodeId).collect();
    let recv_ids: Vec<NodeId> = (0..config.senders).map(|i| NodeId(pool + i)).collect();
    let dir_ids: Vec<NodeId> = (0..dir_entities.len())
        .map(|j| NodeId(pool + 2 * config.senders + j))
        .collect();
    let mix_addr = |i: usize| 100 + i as u16;
    let recv_addr = |i: usize| 1000 + i as u16;

    for i in 0..pool {
        // Plain mode: each mix forwards to the next (the last one to the
        // receivers). Fleet mode: chains are directory-drawn, so every
        // mix can route to every other mix and to every receiver.
        let mut addr_map: Vec<(u16, NodeId)> = Vec::new();
        if fleet_on {
            for (j, &m) in mix_ids.iter().enumerate().take(pool) {
                if j != i {
                    addr_map.push((mix_addr(j), m));
                }
            }
            for (j, &r) in recv_ids.iter().enumerate() {
                addr_map.push((recv_addr(j), r));
            }
        } else if i + 1 < config.mixes {
            addr_map.push((mix_addr(i + 1), mix_ids[i + 1]));
        } else {
            for (j, &r) in recv_ids.iter().enumerate() {
                addr_map.push((recv_addr(j), r));
            }
        }
        let max_wait = config.mix_max_wait_us.unwrap_or(config.window_us + 200_000);
        let mut mix = match &mut fleet_setup {
            Some(fs) => MixNode::new_fleet(
                mix_entities[i],
                fs.relay(i as u16),
                dir_ids[i % dir_ids.len()],
                config.batch_size,
                max_wait,
                addr_map,
            ),
            None => MixNode::new(
                mix_entities[i],
                mix_kps[i].clone(),
                mix_keys[i],
                config.batch_size,
                max_wait,
                addr_map,
            ),
        }
        .with_recovery(opts.recover.enabled);
        if !config.shuffle {
            mix = mix.without_shuffle();
        }
        Harness::add_role::<BatchMix>(&mut net, Box::new(mix));
    }
    let stats = Rc::new(RefCell::new(Stats {
        delivered: 0,
        latencies: Vec::new(),
        linkage: RetryLinkage::new(),
    }));
    for i in 0..config.senders {
        Harness::add_role::<MailReceiver>(
            &mut net,
            Box::new(ReceiverNode {
                entity: receiver_entities[i],
                kp: recv_kps[i].clone(),
                key_id: recv_keys[i],
                stats: stats.clone(),
                recover: opts.recover.enabled,
                resp_bit: fleet_on,
                seen: BTreeSet::new(),
            }),
        );
    }

    // Sender i messages receiver perm[i] (a seeded derangement-ish shuffle).
    let mut perm: Vec<usize> = (0..config.senders).collect();
    use rand::seq::SliceRandom;
    perm.shuffle(&mut setup_rng);
    let receiver_name = |i: usize| {
        if i == 0 {
            "Receiver".to_string()
        } else {
            format!("Receiver {}", i + 1)
        }
    };
    let receiver_of: Vec<String> = perm.iter().map(|&t| receiver_name(t)).collect();

    for (i, (&u, &e)) in users.iter().zip(sender_entities.iter()).enumerate() {
        let target = perm[i];
        let recv_hop = |r: usize| Hop {
            addr: recv_addr(r),
            pk: recv_kps[r].public,
            key_id: recv_keys[r],
        };
        let hops: Vec<Hop> = if fleet_on {
            // Fleet: only the receiver's hop is static; the mix hops are
            // read from the directory on every wrap.
            vec![recv_hop(target)]
        } else {
            let mut hops: Vec<Hop> = (0..config.mixes)
                .map(|m| Hop {
                    addr: mix_addr(m),
                    pk: mix_kps[m].public,
                    key_id: mix_keys[m],
                })
                .collect();
            hops.push(recv_hop(target));
            hops
        };
        let delay_us = setup_rng.gen_range(0..config.window_us.max(1));
        let chaff_hops: Vec<Vec<Hop>> = (0..config.senders)
            .map(|r| {
                if fleet_on {
                    vec![recv_hop(r)]
                } else {
                    let mut hs: Vec<Hop> = (0..config.mixes)
                        .map(|m| Hop {
                            addr: mix_addr(m),
                            pk: mix_kps[m].public,
                            key_id: mix_keys[m],
                        })
                        .collect();
                    hs.push(recv_hop(r));
                    hs
                }
            })
            .collect();
        let chaff_delays: Vec<u64> = (0..config.chaff_per_sender)
            .map(|_| setup_rng.gen_range(0..config.window_us.max(1)))
            .collect();
        let client = fleet_setup.as_mut().map(|fs| fs.client(i, chain.clone()));
        Harness::add_role::<MailSender>(
            &mut net,
            Box::new(SenderNode {
                entity: e,
                user: u,
                first_mix: Endpoint::new(mix_ids[chain[0] as usize].0),
                hops,
                chaff_hops,
                mix_keys: mix_keys.clone(),
                fleet: client,
                receiver_key: recv_keys[target],
                delay_us,
                chaff_delays,
                sent: false,
                stats: stats.clone(),
                calls: Driver::new(&opts.recover, derive_seed(config.seed, 0x3170 + i as u64)),
                real_body: Vec::new(),
                chaff_seq: 0,
            }),
        );
    }

    if let Some(fs) = &mut fleet_setup {
        for (j, &dir_entity) in dir_entities.iter().enumerate() {
            let peers: Vec<NodeId> = dir_ids
                .iter()
                .enumerate()
                .filter(|&(p, _)| p != j)
                .map(|(_, &id)| id)
                .collect();
            Harness::add_directory(&mut net, Box::new(fs.directory_node(j, dir_entity, peers)));
        }
    }

    let core = harness.finish(net);
    let fleet = fleet_setup
        .map(|fs| fs.summary())
        .unwrap_or_else(FleetSummary::disabled);
    let stats = Rc::try_unwrap(stats).map_err(|_| ()).unwrap().into_inner();
    let trace = core.trace;
    let entry_mix = mix_ids[chain[0] as usize];
    let exit_mix = mix_ids[*chain.last().unwrap() as usize];
    let attack = adversary::timing_correlation(&trace, entry_mix, &[exit_mix]);
    let anon = adversary::mean_anonymity_set(&trace, &[exit_mix]);
    MixnetReport {
        world: core.world,
        trace,
        delivered: stats.delivered,
        mean_latency_us: mean_us(&stats.latencies),
        attack,
        mean_anonymity_set: anon,
        users,
        mix_names,
        receiver_of,
        fault_log: core.fault_log,
        metrics: core.metrics,
        expected: config.senders as u64,
        retry_linkage: stats.linkage.violations(),
        fleet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{analyze, collusion::entity_collusion, FaultConfig};

    fn run(config: MixnetConfig) -> MixnetReport {
        Mixnet::run(&config, config.seed)
    }

    #[test]
    fn instrumented_run_counts_onion_layers() {
        let report = Mixnet::run_with(&cfg(), 77, &RunOptions::observed());
        assert_eq!(report.delivered, 6);
        assert!(report.metrics.wire_accounting_holds());
        assert_eq!(report.metrics.span_count("e2e"), 6);
        // Each sender wraps mixes+1 layers; each layer is opened exactly
        // once along the chain (2 mixes + receiver here).
        assert_eq!(report.metrics.crypto_ops["hpke_seal"], 6 * 3);
        assert_eq!(report.metrics.crypto_ops["hpke_open"], 6 * 3);
    }

    fn cfg() -> MixnetConfig {
        MixnetConfig {
            senders: 6,
            mixes: 2,
            batch_size: 3,
            window_us: 100_000,
            shuffle: true,
            chaff_per_sender: 0,
            mix_max_wait_us: None,
            seed: 77,
        }
    }

    #[test]
    fn reproduces_paper_table() {
        let report = run(cfg());
        assert_eq!(report.delivered, 6);
        let derived = report.table(0);
        let expected = MixnetReport::paper_table_two_mixes();
        assert_eq!(
            derived,
            expected,
            "diff:\n{}",
            derived.diff(&expected).unwrap_or_default()
        );
        assert!(analyze(&report.world).decoupled);
    }

    #[test]
    fn recoupling_requires_first_and_last_knowledge() {
        let report = run(cfg());
        let rep = entity_collusion(&report.world, report.users[0], 4);
        assert_eq!(
            rep.min_coalition_size,
            Some(2),
            "{:?}",
            rep.minimal_coalitions
        );
        // Mix 1 alone never suffices.
        assert!(rep
            .minimal_coalitions
            .iter()
            .all(|c| c != &vec!["Mix 1".to_string()]));
    }

    #[test]
    fn batching_grows_anonymity_sets() {
        let no_batch = run(MixnetConfig {
            batch_size: 1,
            seed: 3,
            ..cfg()
        });
        let batched = run(MixnetConfig {
            batch_size: 6,
            seed: 3,
            ..cfg()
        });
        assert!(no_batch.mean_anonymity_set <= 1.0 + 1e-9);
        assert!(
            batched.mean_anonymity_set > no_batch.mean_anonymity_set,
            "{} vs {}",
            batched.mean_anonymity_set,
            no_batch.mean_anonymity_set
        );
    }

    #[test]
    fn batching_degrades_timing_attack() {
        // Averaged over seeds: unbatched FIFO mixes leak ordering, big
        // batches push the attacker toward the random baseline.
        let mean_acc = |batch: usize| -> f64 {
            let runs = 5;
            (0..runs)
                .map(|s| {
                    run(MixnetConfig {
                        senders: 8,
                        mixes: 2,
                        batch_size: batch,
                        window_us: 400_000,
                        shuffle: true,
                        chaff_per_sender: 0,
                        mix_max_wait_us: None,
                        seed: 1000 + s,
                    })
                    .attack
                    .accuracy
                })
                .sum::<f64>()
                / runs as f64
        };
        let unbatched = mean_acc(1);
        let batched = mean_acc(8);
        assert!(
            unbatched > 0.8,
            "FIFO ordering should correlate well: {unbatched}"
        );
        assert!(
            batched < unbatched - 0.2,
            "batching should hurt the attacker: {batched} vs {unbatched}"
        );
    }

    #[test]
    fn batching_costs_latency() {
        let fast = run(MixnetConfig {
            batch_size: 1,
            seed: 5,
            ..cfg()
        });
        let slow = run(MixnetConfig {
            batch_size: 6,
            seed: 5,
            ..cfg()
        });
        assert!(
            slow.mean_latency_us > fast.mean_latency_us,
            "{} vs {}",
            slow.mean_latency_us,
            fast.mean_latency_us
        );
    }

    #[test]
    fn deeper_chains_still_deliver_and_decouple() {
        let report = run(MixnetConfig {
            senders: 4,
            mixes: 4,
            batch_size: 2,
            window_us: 100_000,
            shuffle: true,
            chaff_per_sender: 0,
            mix_max_wait_us: None,
            seed: 8,
        });
        assert_eq!(report.delivered, 4);
        assert!(analyze(&report.world).decoupled);
        // Middle mixes know only (△, ⊙).
        let t = report.table(0);
        assert_eq!(t.tuples[2], "(△, ⊙)");
        assert_eq!(t.tuples[3], "(△, ⊙)");
    }
    #[test]
    fn batching_without_shuffle_is_a_broken_mix() {
        // Ablation: threshold batching with FIFO output preserves the
        // arrival order, so the correlation attack stays strong even
        // though every message waits for a full batch.
        let mean_acc = |shuffle: bool| -> f64 {
            let runs = 5;
            (0..runs)
                .map(|s| {
                    run(MixnetConfig {
                        senders: 8,
                        mixes: 2,
                        batch_size: 8,
                        window_us: 400_000,
                        shuffle,
                        chaff_per_sender: 0,
                        mix_max_wait_us: None,
                        seed: 2000 + s,
                    })
                    .attack
                    .accuracy
                })
                .sum::<f64>()
                / runs as f64
        };
        let fifo = mean_acc(false);
        let mixed = mean_acc(true);
        assert!(fifo > 0.8, "FIFO batching leaks ordering: {fifo}");
        assert!(
            mixed < fifo - 0.3,
            "shuffling is load-bearing: {mixed} vs {fifo}"
        );
    }

    #[test]
    fn chaff_degrades_the_attacker_at_a_bandwidth_cost() {
        let mean = |chaff: usize| {
            let runs = 5;
            let mut acc = 0.0;
            let mut bytes = 0usize;
            for s in 0..runs {
                let r = run(MixnetConfig {
                    senders: 6,
                    mixes: 2,
                    batch_size: 2,
                    window_us: 300_000,
                    shuffle: true,
                    chaff_per_sender: chaff,
                    mix_max_wait_us: None,
                    seed: 3000 + s,
                });
                assert_eq!(r.delivered, 6, "real messages still arrive");
                acc += r.attack.accuracy;
                bytes += r.trace.total_bytes();
            }
            (acc / runs as f64, bytes / runs as usize)
        };
        let (acc0, bytes0) = mean(0);
        let (acc3, bytes3) = mean(3);
        assert!(
            acc3 < acc0,
            "chaff must hurt the attacker: {acc3} vs {acc0}"
        );
        assert!(
            bytes3 > bytes0 * 2,
            "and it costs bandwidth: {bytes3} vs {bytes0}"
        );
    }

    #[test]
    fn recovered_harsh_run_delivers_every_message_exactly_once() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        let cfg = MixnetConfig {
            senders: 4,
            mixes: 2,
            batch_size: 2,
            window_us: 100_000,
            shuffle: true,
            chaff_per_sender: 0,
            mix_max_wait_us: Some(50_000),
            seed: 31,
        };
        let calm = Mixnet::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Mixnet::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(calm.delivered, 4, "calm recovered run delivers everything");
        assert_eq!(
            harsh.delivered as u64,
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

    /// The tentpole acceptance bar, mix-net edition: a fleet-enabled run
    /// under `harsh_fleet()` delivers the whole workload with knowledge
    /// tables byte-identical to the fixed-mix, fault-free baseline.
    #[test]
    fn fleet_run_survives_churn_with_baseline_knowledge() {
        use dcp_core::ScenarioReport as _;
        use dcp_runtime::{entities_silent, restricted_fingerprint, FleetConfig};

        let cfg = MixnetConfig {
            senders: 4,
            mixes: 2,
            batch_size: 2,
            window_us: 100_000,
            shuffle: true,
            chaff_per_sender: 0,
            mix_max_wait_us: Some(50_000),
            seed: 41,
        };
        let baseline = Mixnet::run_with(&cfg, 41, &RunOptions::recovered(&FaultConfig::calm()));
        let fleet = Mixnet::run_with(
            &cfg,
            41,
            &RunOptions::recovered(&FaultConfig::harsh_fleet())
                .with_fleet(&FleetConfig::standard()),
        );

        assert_eq!(
            fleet.delivered as u64,
            fleet.expected_units().unwrap(),
            "fleet run under harsh_fleet lost messages"
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

        let cfg = MixnetConfig {
            senders: 4,
            mixes: 2,
            batch_size: 2,
            window_us: 100_000,
            shuffle: true,
            chaff_per_sender: 1,
            mix_max_wait_us: Some(50_000),
            seed: 43,
        };
        let rotating = Mixnet::run_with(
            &cfg,
            43,
            &RunOptions::recovered(&FaultConfig::calm()).with_fleet(&FleetConfig::standard()),
        );
        let frozen = Mixnet::run_with(
            &cfg,
            43,
            &RunOptions::recovered(&FaultConfig::calm())
                .with_fleet(&FleetConfig::standard().max_rotations(0)),
        );
        assert!(rotating.fleet.stats.rotations > 0);
        assert_eq!(frozen.fleet.stats.rotations, 0);
        assert_eq!(rotating.delivered, 4, "rotation must not lose messages");
        assert_eq!(frozen.delivered, 4);
        assert_eq!(
            KnowledgeFingerprint::of(&rotating.world),
            KnowledgeFingerprint::of(&frozen.world),
            "key rotation leaked into a knowledge ledger"
        );
    }

    #[test]
    fn recovered_calm_run_matches_plain_completion() {
        let plain = run(cfg());
        let rec = Mixnet::run_with(&cfg(), 77, &RunOptions::recovered(&FaultConfig::calm()));
        assert_eq!(plain.delivered, rec.delivered);
        assert_eq!(plain.table(0), rec.table(0));
    }

    #[test]
    fn recovered_run_keeps_chaff_flowing() {
        // Chaff is framed one-shot on recovered runs: a calm recovered
        // run must still deliver every real message and drop every decoy.
        let rec = Mixnet::run_with(
            &MixnetConfig {
                chaff_per_sender: 2,
                ..cfg()
            },
            77,
            &RunOptions::recovered(&FaultConfig::calm()),
        );
        assert_eq!(rec.delivered, 6, "chaff never counts, reals all arrive");
    }
}
