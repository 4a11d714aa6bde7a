//! k-relay chain scenarios over nested encrypted tunnels.

use std::cell::RefCell;
use std::rc::Rc;

use dcp_core::sweep::derive_seed;
use dcp_core::table::DecouplingTable;
use dcp_core::{
    DataKind, EntityId, FaultLog, IdentityKind, InfoItem, KeyId, Label, MetricsReport, RunOptions,
    Scenario, UserId, World,
};
use dcp_crypto::hpke;
use dcp_runtime::{
    mean_us, wire, Admits, Attempt, CallEvent, Control, Ctx, Driver, Endpoint, FleetClient,
    FleetRelay, FleetSetup, FleetSummary, Harness, HopMap, LinkParams, Message, Node, NodeId,
    RetryLinkage, Role, SimTime, Trace, TypedSend, WireLabel,
};
use dcp_transport::onion::{self, Hop, Unwrapped};

use crate::types::{ChainOrigin, ChainRelay, ChainUser, DirectFetch, DirectOrigin, OnionedFetch};

/// Configuration for a chain run.
#[derive(Clone, Copy, Debug)]
pub struct ChainConfig {
    /// Number of relays between user and origin (0 = direct).
    pub relays: usize,
    /// Users fetching concurrently.
    pub users: usize,
    /// Fetches per user.
    pub fetches_each: usize,
    /// Reveal a coarse location hint to the origin (§4.4 regression).
    pub geohint: bool,
    /// RNG / topology seed.
    pub seed: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            relays: 2,
            users: 1,
            fetches_each: 1,
            geohint: false,
            seed: 0,
        }
    }
}

/// Result of a chain run.
pub struct ScenarioReport {
    /// Knowledge base.
    pub world: World,
    /// Packet trace.
    pub trace: Trace,
    /// Completed fetches.
    pub completed: usize,
    /// Mean request→response latency (µs).
    pub mean_fetch_us: f64,
    /// Total wire bytes per application-payload byte delivered.
    pub bytes_factor: f64,
    /// The users.
    pub users: Vec<UserId>,
    /// Relay entity names in chain order (for table derivation).
    pub relay_names: Vec<String>,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
    /// The workload's target (`users × fetches_each`).
    pub expected: u64,
    /// Retry-linkage violations over the re-wrapped onion attempts.
    pub retry_linkage: Vec<String>,
    /// Fleet-layer summary ([`FleetSummary::disabled`] when the run had
    /// no directory).
    pub fleet: FleetSummary,
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
        self.completed as u64
    }
    fn expected_units(&self) -> Option<u64> {
        Some(self.expected)
    }
    fn retry_linkage(&self) -> &[String] {
        &self.retry_linkage
    }
}

/// §3.2.4 multi-party relay: a k-relay chain over nested tunnels.
pub struct Mpr;

impl Scenario for Mpr {
    type Config = ChainConfig;
    type Report = ScenarioReport;
    const NAME: &'static str = "mpr";

    fn run_with(cfg: &ChainConfig, seed: u64, opts: &RunOptions) -> ScenarioReport {
        let config = ChainConfig { seed, ..*cfg };
        run_impl(&config, opts)
    }
}

impl ScenarioReport {
    /// Derive the decoupling table for user `i` over
    /// `User | Relay 1 | … | Relay k | Origin`.
    pub fn table(&self, i: usize) -> DecouplingTable {
        let mut cols: Vec<&str> = vec!["User"];
        cols.extend(self.relay_names.iter().map(String::as_str));
        cols.push("Origin");
        DecouplingTable::derive(&self.world, self.users[i], &cols)
    }

    /// The paper's §3.2.4 MPR table (k = 2).
    pub fn paper_table() -> DecouplingTable {
        DecouplingTable::expect(&[
            ("User", "(▲, ●)"),
            ("Relay 1", "(▲, ⊙)"),
            ("Relay 2", "(△, ⊙/●)"),
            ("Origin", "(△, ●)"),
        ])
    }
}

const REQUEST: &[u8] = b"GET /profile/sensitive-page HTTP/1.1";
const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\n\r\n<private content>";

/// Direction bit on fleet-mode response frames. Plain chains infer
/// direction from topology (a response can only arrive from the one node
/// a relay forwards to); directory-drawn chains are a full mesh, where
/// that inference misreads a request from the previous hop as a response.
/// Fleet responses therefore carry the direction explicitly.
const RESP_BIT: u64 = 1 << 63;

struct Stats {
    completed: usize,
    latencies: Vec<u64>,
    payload_bytes: usize,
    /// Retry-linkage check fed by every attempt's outermost wire bytes.
    linkage: RetryLinkage,
}

struct UserNode<R: Role, M: WireLabel> {
    entity: EntityId,
    user: UserId,
    first_hop: Endpoint<M, Control, R>,
    hops: Vec<Hop>,
    /// Fleet mode: the home-directory handle the chain's hops are read
    /// from on every wrap (so retries pick up rotated keys).
    fleet: Option<FleetClient>,
    origin_addr: u16,
    origin_pk: [u8; 32],
    origin_key: KeyId,
    geohint: bool,
    fetches_left: usize,
    stats: Rc<RefCell<Stats>>,
    sent_at: SimTime,
    /// The runtime attempt loop, remembering each call's send time
    /// (inert when the run's recovery is disabled).
    calls: Driver<SimTime>,
}

impl<R: Role, M: WireLabel + Admits<R>> UserNode<R, M> {
    /// Build one fully wrapped request: a fresh end-to-end seal and a
    /// fresh onion on every call, which is exactly what a re-randomized
    /// retransmission needs.
    fn wrap_request(&mut self, ctx: &mut Ctx) -> (Vec<u8>, Label) {
        // End-to-end sealed request: only the origin reads the full
        // request; its label gives the origin (△, ●) — plus a coarse
        // location item when the geohint regression is enabled.
        let mut origin_items = vec![
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::sensitive_data(self.user, DataKind::Destination),
        ];
        if self.geohint {
            origin_items.push(InfoItem::partial_data(self.user, DataKind::Location));
        }
        ctx.world.crypto_op("hpke_seal");
        let e2e =
            hpke::seal(ctx.rng, &self.origin_pk, b"e2e", b"", REQUEST).expect("seal to origin");
        let e2e_label = Label::items(origin_items).sealed(self.origin_key);

        if self.hops.is_empty() && self.fleet.is_none() {
            // Direct: the origin additionally sees the user's address (▲).
            let label = Label::items([
                InfoItem::sensitive_identity(self.user, IdentityKind::Any),
                InfoItem::plain_data(self.user, DataKind::Payload),
            ])
            .and(e2e_label);
            return (e2e, label);
        }

        // Exit-visible part: the destination FQDN (⊙/●) of an anonymous
        // user (△); the exit must see it to connect.
        let mut exit_plain = self.origin_addr.to_be_bytes().to_vec();
        exit_plain.extend_from_slice(&e2e);
        let exit_label = Label::items([
            InfoItem::plain_identity(self.user, IdentityKind::Any),
            InfoItem::partial_data(self.user, DataKind::Destination),
        ])
        .and(e2e_label);

        let chain_len = self
            .fleet
            .as_ref()
            .map(|c| c.chain().len())
            .unwrap_or(self.hops.len());
        for _ in 0..chain_len {
            ctx.world.crypto_op("hpke_seal");
        }
        let (bytes, onion_label) = if let Some(client) = &self.fleet {
            // Re-read the directory on every wrap: after a stale-epoch
            // rejection the ARQ's next attempt seals under fresh keys.
            let ehops = client.hops();
            onion::wrap_epochs(
                ctx.rng,
                &ehops,
                onion::DELIVER_LOCAL,
                &exit_plain,
                exit_label,
            )
            .expect("onion")
        } else {
            onion::wrap(ctx.rng, &self.hops, &exit_plain, exit_label).expect("onion")
        };
        // Envelope: relay 1 sees the user's network identity (▲) and that
        // opaque traffic is flowing (⊙).
        let label = Label::items([
            InfoItem::sensitive_identity(self.user, IdentityKind::Any),
            InfoItem::plain_data(self.user, DataKind::Payload),
        ])
        .and(onion_label);
        (bytes, label)
    }

    fn fetch(&mut self, ctx: &mut Ctx) {
        self.sent_at = ctx.now;
        self.stats.borrow_mut().payload_bytes += REQUEST.len();
        if let Some(att) = self.calls.begin(ctx.now) {
            self.transmit(ctx, att);
            return;
        }
        let (bytes, label) = self.wrap_request(ctx);
        ctx.send_to(
            self.first_hop,
            Message::new(bytes, label).with_flow(self.user.0),
        );
    }

    /// (Re)transmit fetch `att.seq`: every attempt re-seals and re-wraps,
    /// so no two attempts share a byte of ciphertext on any wire.
    fn transmit(&mut self, ctx: &mut Ctx, att: Attempt) {
        let (bytes, label) = self.wrap_request(ctx);
        self.stats
            .borrow_mut()
            .linkage
            .record(self.user.0, att.seq, att.attempt, &bytes);
        ctx.send_to(
            self.first_hop,
            Message::new(wire::frame(att.seq, &bytes), label).with_flow(self.user.0),
        );
        ctx.set_timer(att.timer_delay_us, att.token);
    }

    fn fetch_done(&mut self, ctx: &mut Ctx) {
        if self.fetches_left > 1 {
            self.fetches_left -= 1;
            self.fetch(ctx);
        }
    }
}

impl<R: Role + 'static, M: WireLabel + Admits<R> + 'static> Node for UserNode<R, M> {
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
            InfoItem::sensitive_data(self.user, DataKind::Destination),
        );
        self.fetch(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, msg: Message) {
        if self.calls.enabled() {
            let Some((seq, _body)) = wire::unframe(&msg.bytes) else {
                return;
            };
            let Some(sent) = self.calls.complete(seq) else {
                return; // duplicated response: counted exactly once
            };
            ctx.world.span("fetch", sent.as_us(), ctx.now.as_us());
            let mut stats = self.stats.borrow_mut();
            stats.completed += 1;
            stats.latencies.push(ctx.now - sent);
            stats.payload_bytes += RESPONSE.len();
            drop(stats);
            self.fetch_done(ctx);
            return;
        }
        // Response sealed to our resp key.
        let _ = msg;
        ctx.world
            .span("fetch", self.sent_at.as_us(), ctx.now.as_us());
        let mut stats = self.stats.borrow_mut();
        stats.completed += 1;
        stats.latencies.push(ctx.now - self.sent_at);
        stats.payload_bytes += RESPONSE.len();
        drop(stats);
        self.fetch_done(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.calls.on_timer(ctx, token) {
            CallEvent::Retry(att) => self.transmit(ctx, att),
            CallEvent::Exhausted { .. } => self.fetch_done(ctx),
            CallEvent::App(_) | CallEvent::Ignored => {}
        }
    }
}

/// A relay's decryption material: one fixed keypair (plain runs) or an
/// epoch keyring fed by the fleet directory (fleet runs).
enum RelayKeys {
    Plain { kp: hpke::Keypair, key_id: KeyId },
    Fleet(FleetRelay),
}

struct RelayNode {
    entity: EntityId,
    keys: RelayKeys,
    /// addr → node mapping for forwarding.
    addr_map: Vec<(u16, NodeId)>,
    /// Back-routes for responses: stack of previous hops. The FIFO
    /// stack misroutes under drops and duplicates, which is precisely
    /// why the recovery path replaces it with `hop`.
    back: Vec<NodeId>,
    /// Recovery wiring: frame/unframe hop sequence numbers.
    recover: bool,
    /// Per-request back-routes keyed by the hop seq this relay minted:
    /// take-once, so duplicated responses die here instead of
    /// consuming another request's route.
    hop: HopMap<(NodeId, u64)>,
}

impl Node for RelayNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        if let RelayKeys::Fleet(f) = &self.keys {
            f.arm(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if let RelayKeys::Fleet(f) = &mut self.keys {
            f.on_timer(ctx, token);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        // Response coming back (from a node we forwarded to): relay it to
        // the stored previous hop.
        if self.recover {
            let fleet = matches!(self.keys, RelayKeys::Fleet(_));
            let is_resp = if fleet {
                wire::unframe(&msg.bytes).is_some_and(|(s, _)| s & RESP_BIT != 0)
            } else {
                self.addr_map.iter().any(|(_, n)| *n == from)
            };
            if is_resp {
                let Some((pseq, body)) = wire::unframe(&msg.bytes) else {
                    return; // unframed response on a recovered run: drop
                };
                let Some((prev, prev_seq)) = self.hop.take(pseq & !RESP_BIT) else {
                    return; // duplicated response: its route was consumed
                };
                // Relay-bound responses keep the direction bit; the final
                // hop back to the user carries the bare ARQ seq.
                let to_relay = fleet && self.addr_map.iter().any(|(_, n)| *n == prev);
                let out_seq = if to_relay {
                    prev_seq | RESP_BIT
                } else {
                    prev_seq
                };
                let label = msg.label.clone();
                ctx.send(
                    prev,
                    Message::new(wire::frame(out_seq, body), label).with_flow_opt(msg.flow),
                );
                return;
            }
        } else if let Some(pos) = self
            .addr_map
            .iter()
            .position(|(_, n)| *n == from)
            .filter(|_| !self.back.is_empty())
        {
            let _ = pos;
            let Some(prev) = self.back.pop() else {
                return; // duplicated response: no back-route left
            };
            ctx.send(prev, msg);
            return;
        }

        // Forward direction: peel one onion layer (bytes and label). A
        // layer that fails to peel is dropped — a relay never forwards
        // traffic it cannot vouch for.
        let (cseq, cipher): (u64, &[u8]) = if self.recover {
            match wire::unframe(&msg.bytes) {
                Some((s, b)) => (s, b),
                None => return, // unframed request on a recovered run: drop
            }
        } else {
            (0, &msg.bytes)
        };
        ctx.world.crypto_op("hpke_open");
        let (unwrapped, layer_key) = match &mut self.keys {
            RelayKeys::Plain { kp, key_id } => match onion::unwrap_layer(kp, cipher) {
                Ok(u) => (u, *key_id),
                Err(_) => return,
            },
            RelayKeys::Fleet(f) => {
                // Fleet layers carry their sealing epoch in the clear:
                // select the matching keypair first, fail-closed — a
                // stale or future epoch is a typed rejection (counted in
                // the run stats), never a guessed key.
                let Ok((epoch, sealed)) = onion::read_epoch(cipher) else {
                    return; // missing epoch tag: drop
                };
                let Ok((kp, key_id)) = f.open_epoch(epoch) else {
                    return; // stale/future epoch: typed, fail-closed
                };
                match onion::unwrap_layer(kp, sealed) {
                    Ok(u) => (u, key_id),
                    Err(_) => return,
                }
            }
        };
        let outer_label = match &msg.label {
            Label::Bundle(parts) if parts.len() == 2 => parts[1].clone(),
            other => other.clone(),
        };
        // Label desync is the same failure class as a failed peel: the
        // bytes and labels no longer describe one message. Drop it.
        let Ok(inner_label) = onion::unwrap_label(&outer_label, layer_key) else {
            return;
        };
        match unwrapped {
            Unwrapped::Forward { next, bytes } => {
                let Some(next_node) = self
                    .addr_map
                    .iter()
                    .find(|(a, _)| *a == next)
                    .map(|(_, n)| *n)
                else {
                    return; // unroutable hop: drop, never misdeliver
                };
                if self.recover {
                    let pseq = self.hop.insert((from, cseq));
                    ctx.send(
                        next_node,
                        Message::new(wire::frame(pseq, &bytes), inner_label)
                            .with_flow_opt(msg.flow),
                    );
                    return;
                }
                self.back.insert(0, from);
                ctx.send(
                    next_node,
                    Message::new(bytes, inner_label).with_flow_opt(msg.flow),
                );
            }
            Unwrapped::Deliver { payload } => {
                // Exit relay: payload = origin_addr ‖ e2e-sealed request.
                if payload.len() < 2 {
                    return; // truncated exit payload: drop
                }
                let addr = u16::from_be_bytes([payload[0], payload[1]]);
                let Some(next_node) = self
                    .addr_map
                    .iter()
                    .find(|(a, _)| *a == addr)
                    .map(|(_, n)| *n)
                else {
                    return; // unroutable origin: drop, never misdeliver
                };
                // Forward only the sealed part of the label bundle.
                let fwd_label = match &inner_label {
                    Label::Bundle(parts) if parts.len() == 2 => parts[1].clone(),
                    other => other.clone(),
                };
                if self.recover {
                    let pseq = self.hop.insert((from, cseq));
                    ctx.send(
                        next_node,
                        Message::new(wire::frame(pseq, &payload[2..]), fwd_label)
                            .with_flow_opt(msg.flow),
                    );
                    return;
                }
                self.back.insert(0, from);
                ctx.send(
                    next_node,
                    Message::new(payload[2..].to_vec(), fwd_label).with_flow_opt(msg.flow),
                );
            }
        }
    }
}

struct OriginNode {
    entity: EntityId,
    kp: hpke::Keypair,
    resp_key: KeyId,
    /// Subjects by flow id (scenario bookkeeping for response labels).
    flow_user: Vec<(u64, UserId)>,
    /// Recovery wiring: unframe requests and echo their seq back. The
    /// origin serves an idempotent GET, so it answers every delivery
    /// (retransmissions included) statelessly; the user's ARQ dedups.
    recover: bool,
    /// Fleet runs: mark responses with [`RESP_BIT`] so full-mesh relays
    /// can tell direction without topology.
    resp_bit: bool,
}

impl Node for OriginNode {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, msg: Message) {
        let (seq, cipher): (u64, &[u8]) = if self.recover {
            match wire::unframe(&msg.bytes) {
                Some((s, b)) => (s, b),
                None => return, // unframed request on a recovered run: drop
            }
        } else {
            (0, &msg.bytes)
        };
        // Fail closed: an undecryptable or unattributable request gets no
        // response at all.
        ctx.world.crypto_op("hpke_open");
        let Ok(req) = hpke::open(&self.kp, b"e2e", b"", cipher) else {
            return;
        };
        if req != REQUEST {
            return;
        }
        let Some(user) = msg
            .flow
            .and_then(|f| self.flow_user.iter().find(|(id, _)| *id == f))
            .map(|(_, u)| *u)
        else {
            return;
        };
        // Response content is the user's sensitive data, sealed end-to-end
        // back to them.
        let resp_label = Label::items([InfoItem::sensitive_data(user, DataKind::Destination)])
            .sealed(self.resp_key);
        let body = if self.recover {
            let out_seq = if self.resp_bit { seq | RESP_BIT } else { seq };
            wire::frame(out_seq, RESPONSE)
        } else {
            RESPONSE.to_vec()
        };
        ctx.send(from, Message::new(body, resp_label).with_flow_opt(msg.flow));
    }
}

/// Extension trait to thread the optional ground-truth flow id.
trait WithFlowOpt {
    fn with_flow_opt(self, flow: Option<u64>) -> Self;
}
impl WithFlowOpt for Message {
    fn with_flow_opt(mut self, flow: Option<u64>) -> Self {
        self.flow = flow;
        self
    }
}

fn run_impl(config: &ChainConfig, opts: &RunOptions) -> ScenarioReport {
    use rand::SeedableRng;
    let config = *config;
    let mut setup_rng = rand::rngs::StdRng::seed_from_u64(config.seed ^ 0x33bb);

    let (mut world, harness) = Harness::begin(Mpr::NAME, config.seed, opts);
    let user_org = world.add_org("users");
    let origin_org = world.add_org("origin-co");
    let origin_e = world.add_entity("Origin", origin_org, None);

    // Fleet mode: relays come from a gossiped directory instead of
    // static wiring. `pool = 0` means "the wiring's own relay count".
    let fleet_on = opts.fleet.enabled && config.relays > 0;
    assert!(
        !fleet_on || opts.recover.enabled,
        "fleet mode requires the recovery runtime (RunOptions::recovered): \
         churn survival rides the ARQ's re-sealed retransmissions"
    );
    let pool = if fleet_on {
        config.relays.max(opts.fleet.pool as usize)
    } else {
        config.relays
    };

    let mut relay_entities = Vec::new();
    let mut relay_names = Vec::new();
    for i in 0..pool {
        let org = world.add_org(&format!("relay-op-{i}"));
        let name = format!("Relay {}", i + 1);
        relay_entities.push(world.add_entity(&name, org, None));
        relay_names.push(name);
    }

    let mut users = Vec::new();
    let mut user_entities = Vec::new();
    for i in 0..config.users {
        let u = world.add_user();
        let name = if i == 0 {
            "User".to_string()
        } else {
            format!("User {}", i + 1)
        };
        user_entities.push(world.add_entity(&name, user_org, Some(u)));
        users.push(u);
    }

    // Directory entities register after every baseline entity so the
    // byte-identity probe can compare fleet runs against the fixed-relay
    // baseline on the baseline's own rows.
    let relay_addrs: Vec<u16> = (0..pool).map(|i| 100 + i as u16).collect();
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
            &relay_entities,
            &relay_addrs,
        ))
    } else {
        None
    };

    // Keys: one per relay (fleet mode mints them per epoch instead),
    // one for the origin's e2e, one for responses.
    let relay_kps: Vec<hpke::Keypair> = if fleet_on {
        Vec::new()
    } else {
        (0..pool)
            .map(|_| hpke::Keypair::generate(&mut setup_rng))
            .collect()
    };
    let relay_keys: Vec<KeyId> = if fleet_on {
        Vec::new()
    } else {
        relay_entities
            .iter()
            .map(|&e| world.new_key(&[e]))
            .collect()
    };
    let origin_kp = hpke::Keypair::generate(&mut setup_rng);
    let origin_key = world.new_key(&[origin_e]);
    let resp_key = world.new_key(&[]);
    for &e in &user_entities {
        world.grant_key(e, resp_key);
    }

    let mut net = harness.network(world, LinkParams::wan_ms(10));

    // Topology: origin = node 0, relays 1..=pool, users after, then
    // (fleet runs) the directory nodes.
    let origin_id = NodeId(0);
    let relay_ids: Vec<NodeId> = (0..pool).map(|i| NodeId(1 + i)).collect();
    let origin_addr: u16 = 9000;
    let dir_ids: Vec<NodeId> = (0..dir_entities.len())
        .map(|j| NodeId(1 + pool + config.users + j))
        .collect();

    let hops: Vec<Hop> = if fleet_on {
        Vec::new()
    } else {
        (0..pool)
            .map(|i| Hop {
                addr: relay_addrs[i],
                pk: relay_kps[i].public,
                key_id: relay_keys[i],
            })
            .collect()
    };

    let recover_on = opts.recover.enabled;
    let flow_user: Vec<(u64, UserId)> = users.iter().map(|&u| (u.0, u)).collect();
    let origin_node = Box::new(OriginNode {
        entity: origin_e,
        kp: origin_kp.clone(),
        resp_key,
        flow_user,
        recover: recover_on,
        resp_bit: fleet_on,
    });
    // A zero-relay wiring puts the origin in the coupled direct role; the
    // registration behaviour is identical (both are `Service`), only the
    // knowledge cap differs.
    if config.relays == 0 {
        Harness::add_role::<DirectOrigin>(&mut net, origin_node);
    } else {
        Harness::add_role::<ChainOrigin>(&mut net, origin_node);
    }
    for i in 0..pool {
        // Plain mode: each relay can forward to the next relay and to
        // the origin. Fleet mode: chains are directory-drawn, so every
        // relay can route to every other relay (and the origin).
        let mut addr_map: Vec<(u16, NodeId)> = vec![(origin_addr, origin_id)];
        if fleet_on {
            for j in 0..pool {
                if j != i {
                    addr_map.push((relay_addrs[j], relay_ids[j]));
                }
            }
        } else if i + 1 < pool {
            addr_map.push((relay_addrs[i + 1], relay_ids[i + 1]));
        }
        let keys = match &mut fleet_setup {
            Some(fs) => RelayKeys::Fleet(fs.relay(i as u16, dir_ids[i % dir_ids.len()])),
            None => RelayKeys::Plain {
                kp: relay_kps[i].clone(),
                key_id: relay_keys[i],
            },
        };
        Harness::add_role::<ChainRelay>(
            &mut net,
            Box::new(RelayNode {
                entity: relay_entities[i],
                keys,
                addr_map,
                back: Vec::new(),
                recover: recover_on,
                hop: HopMap::new(),
            }),
        );
    }
    let stats = Rc::new(RefCell::new(Stats {
        completed: 0,
        latencies: Vec::new(),
        payload_bytes: 0,
        linkage: RetryLinkage::new(),
    }));
    let first_hop = if config.relays == 0 {
        origin_id
    } else {
        relay_ids[0]
    };
    for (i, (&u, &e)) in users.iter().zip(user_entities.iter()).enumerate() {
        // Fleet mode: pin this user's chain from the genesis directory
        // (t = 0) — churn is survived through the pinned chain's ARQ, so
        // knowledge tables stay byte-identical to the fixed-relay run.
        let (client, user_first) = match &mut fleet_setup {
            Some(fs) => {
                let chain = fs.chain(config.relays).expect("fleet pool < chain length");
                let entry = relay_ids[chain[0] as usize];
                (Some(fs.client(i, chain)), entry)
            }
            None => (None, first_hop),
        };
        #[allow(clippy::too_many_arguments)]
        fn add_user<R: Role + 'static, M: WireLabel + Admits<R> + 'static>(
            net: &mut dcp_runtime::Network,
            first_hop: Endpoint<M, Control, R>,
            e: EntityId,
            u: UserId,
            i: usize,
            hops: Vec<Hop>,
            fleet: Option<FleetClient>,
            origin_addr: u16,
            origin_pk: [u8; 32],
            origin_key: KeyId,
            config: &ChainConfig,
            opts: &RunOptions,
            stats: &Rc<RefCell<Stats>>,
        ) {
            Harness::add_role::<ChainUser>(
                net,
                Box::new(UserNode::<R, M> {
                    entity: e,
                    user: u,
                    first_hop,
                    hops,
                    fleet,
                    origin_addr,
                    origin_pk,
                    origin_key,
                    geohint: config.geohint,
                    fetches_left: config.fetches_each,
                    stats: stats.clone(),
                    sent_at: SimTime::ZERO,
                    calls: Driver::new(&opts.recover, derive_seed(config.seed, 0x3b50 + i as u64)),
                }),
            );
        }
        // Direct runs couple at the origin and must say so in the type:
        // `DirectFetch` only clears the knowledge-cap witness against the
        // explicitly coupled `DirectOrigin`.
        if config.relays == 0 {
            add_user::<DirectOrigin, DirectFetch>(
                &mut net,
                Endpoint::new(user_first.0),
                e,
                u,
                i,
                hops.clone(),
                client,
                origin_addr,
                origin_kp.public,
                origin_key,
                &config,
                opts,
                &stats,
            );
        } else {
            add_user::<ChainRelay, OnionedFetch>(
                &mut net,
                Endpoint::new(user_first.0),
                e,
                u,
                i,
                hops.clone(),
                client,
                origin_addr,
                origin_kp.public,
                origin_key,
                &config,
                opts,
                &stats,
            );
        }
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
    let bytes_factor = if stats.payload_bytes == 0 {
        0.0
    } else {
        core.trace.total_bytes() as f64 / stats.payload_bytes as f64
    };
    ScenarioReport {
        world: core.world,
        trace: core.trace,
        completed: stats.completed,
        expected: (config.users * config.fetches_each) as u64,
        mean_fetch_us: mean_us(&stats.latencies),
        bytes_factor,
        users,
        relay_names,
        fault_log: core.fault_log,
        retry_linkage: stats.linkage.violations(),
        metrics: core.metrics,
        fleet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::{analyze, collusion::entity_collusion, FaultConfig};

    fn run_chain(config: ChainConfig) -> ScenarioReport {
        Mpr::run(&config, config.seed)
    }

    #[test]
    fn instrumented_run_scales_crypto_with_relays() {
        let r2 = Mpr::run_with(&cfg(2), 5, &RunOptions::observed());
        let r3 = Mpr::run_with(&cfg(3), 5, &RunOptions::observed());
        assert!(r2.metrics.wire_accounting_holds());
        assert_eq!(r2.metrics.span_count("fetch"), r2.completed);
        // Each extra relay adds one seal and one open per fetch.
        assert!(
            r3.metrics.crypto_total() > r2.metrics.crypto_total(),
            "{} vs {}",
            r3.metrics.crypto_total(),
            r2.metrics.crypto_total()
        );
        assert!(
            r3.metrics.mean_span_us("fetch").unwrap() > r2.metrics.mean_span_us("fetch").unwrap(),
            "relays cost latency in the span data too"
        );
    }

    fn cfg(relays: usize) -> ChainConfig {
        ChainConfig {
            relays,
            users: 1,
            fetches_each: 2,
            geohint: false,
            seed: 5,
        }
    }

    #[test]
    fn two_hop_reproduces_paper_table() {
        let report = run_chain(cfg(2));
        assert_eq!(report.completed, 2);
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
    fn direct_couples_at_origin() {
        let report = run_chain(cfg(0));
        let verdict = analyze(&report.world);
        assert!(!verdict.decoupled);
        assert!(verdict.offenders().contains(&"Origin"));
    }

    #[test]
    fn single_relay_is_a_vpn_shape() {
        // With one relay, the exit *is* the entry: it sees both ▲ and the
        // destination — the §3.3 cautionary tale emerges naturally.
        let report = run_chain(cfg(1));
        let verdict = analyze(&report.world);
        assert!(!verdict.decoupled);
        assert!(verdict.offenders().contains(&"Relay 1"));
        let rep = entity_collusion(&report.world, report.users[0], 2);
        assert_eq!(rep.min_coalition_size, Some(1));
    }

    #[test]
    fn collusion_bar_rises_with_relays() {
        let mut last = 1;
        for k in [2usize, 3, 4] {
            let report = run_chain(cfg(k));
            assert!(analyze(&report.world).decoupled, "k={k}");
            let rep = entity_collusion(&report.world, report.users[0], k + 1);
            let min = rep.min_coalition_size.unwrap();
            assert!(min >= 2, "k={k}: {min}");
            assert!(min >= last, "non-decreasing in k");
            last = min;
        }
    }

    #[test]
    fn latency_grows_with_relays() {
        let l: Vec<f64> = [0usize, 1, 2, 3]
            .iter()
            .map(|&k| run_chain(cfg(k)).mean_fetch_us)
            .collect();
        assert!(l[0] < l[1] && l[1] < l[2] && l[2] < l[3], "{l:?}");
    }

    #[test]
    fn bytes_overhead_grows_with_relays() {
        let b0 = run_chain(cfg(0)).bytes_factor;
        let b3 = run_chain(cfg(3)).bytes_factor;
        assert!(b3 > b0, "onion layers cost bytes: {b0} vs {b3}");
    }

    #[test]
    fn geohint_adds_location_knowledge_at_origin() {
        let without = run_chain(cfg(2));
        let with = run_chain(ChainConfig {
            geohint: true,
            ..cfg(2)
        });
        let origin_plain = without
            .world
            .ledger(without.world.entity_by_name("Origin").id)
            .len();
        let origin_geo = with
            .world
            .ledger(with.world.entity_by_name("Origin").id)
            .len();
        assert_eq!(origin_geo, origin_plain + 1, "one extra location item");
        // Still nominally decoupled (no ▲ at the origin) — the regression
        // is a *knowledge increase*, which is the paper's point about
        // metadata requirements eroding the principle.
        assert!(analyze(&with.world).decoupled);
    }

    #[test]
    fn multi_user_chains_complete() {
        let report = run_chain(ChainConfig {
            relays: 2,
            users: 3,
            fetches_each: 2,
            geohint: false,
            seed: 9,
        });
        assert_eq!(report.completed, 6);
        assert!(analyze(&report.world).decoupled);
    }

    #[test]
    fn recovered_harsh_run_completes_every_fetch_exactly_once() {
        use dcp_core::ScenarioReport as _;
        use dcp_faults::dst::KnowledgeFingerprint;
        let cfg = ChainConfig {
            relays: 2,
            users: 2,
            fetches_each: 2,
            geohint: false,
            seed: 31,
        };
        let calm = Mpr::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::calm()));
        let harsh = Mpr::run_with(&cfg, 31, &RunOptions::recovered(&FaultConfig::harsh()));
        assert_eq!(calm.completed, 4, "calm recovered run fetches everything");
        assert_eq!(
            harsh.completed as u64,
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

    /// The tentpole acceptance bar: a fleet-enabled run under
    /// `harsh_fleet()` (wire faults + directory churn + key rotation +
    /// directory partitions) completes its whole workload with knowledge
    /// tables byte-identical to the fixed-relay, fault-free baseline.
    #[test]
    fn fleet_run_survives_churn_with_baseline_knowledge() {
        use dcp_core::ScenarioReport as _;
        use dcp_runtime::{entities_silent, restricted_fingerprint, FleetConfig};
        use std::collections::BTreeSet;

        let cfg = ChainConfig {
            relays: 2,
            users: 2,
            fetches_each: 2,
            geohint: false,
            seed: 17,
        };
        let baseline = Mpr::run_with(&cfg, 17, &RunOptions::recovered(&FaultConfig::calm()));
        let fleet = Mpr::run_with(
            &cfg,
            17,
            &RunOptions::recovered(&FaultConfig::harsh_fleet())
                .with_fleet(&FleetConfig::standard()),
        );

        assert_eq!(
            fleet.completed as u64,
            fleet.expected_units().unwrap(),
            "fleet run under harsh_fleet left fetches unfinished"
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

        let cfg = ChainConfig {
            relays: 2,
            users: 2,
            fetches_each: 2,
            geohint: false,
            seed: 23,
        };
        let rotating = Mpr::run_with(
            &cfg,
            23,
            &RunOptions::recovered(&FaultConfig::calm()).with_fleet(&FleetConfig::standard()),
        );
        let frozen = Mpr::run_with(
            &cfg,
            23,
            &RunOptions::recovered(&FaultConfig::calm())
                .with_fleet(&FleetConfig::standard().max_rotations(0)),
        );
        assert!(rotating.fleet.stats.rotations > 0);
        assert_eq!(frozen.fleet.stats.rotations, 0);
        assert_eq!(
            KnowledgeFingerprint::of(&rotating.world),
            KnowledgeFingerprint::of(&frozen.world),
            "key rotation leaked into a knowledge ledger"
        );
        assert_eq!(rotating.completed, frozen.completed);
    }

    #[test]
    fn recovered_calm_run_matches_plain_completion() {
        let plain = run_chain(ChainConfig { seed: 7, ..cfg(2) });
        let rec = Mpr::run_with(&cfg(2), 7, &RunOptions::recovered(&FaultConfig::calm()));
        assert_eq!(plain.completed, rec.completed);
        assert_eq!(plain.table(0), rec.table(0));
    }
}
