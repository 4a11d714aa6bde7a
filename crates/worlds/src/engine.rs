//! The population engine: a compact discrete-event model of a decoupled
//! query path, built to push 10⁶ users / 10⁸ events through one host
//! with bounded memory.
//!
//! The full simulator (`dcp-simnet`) runs real protocol bytes through
//! boxed nodes — the right tool for correctness, too heavy for
//! population-scale measurement. This engine keeps the same event
//! discipline (the shared [`TimerWheel`], a `(time, seq)` total order, a
//! serializable RNG) but models the *architecture* of a decoupled path:
//!
//! ```text
//! users → ingress relay(s) (batching) → relay hops → striped resolvers
//!       ←            responses, padded           ←
//! ```
//!
//! and folds, as it goes, exactly the paper's §4–5 population measures:
//!
//! * **anonymity-set size vs. batch window** — distinct users per
//!   ingress batch (§4.3: batching is what buys metadata privacy);
//! * **linkage success vs. padding** — a response is linkable when its
//!   padded size is unique among in-flight responses (§4.3 traffic
//!   analysis);
//! * **per-resolver knowledge vs. striping** — what fraction of the user
//!   population each resolver sees, and how much of one user's query
//!   stream the busiest resolver for that user captures (§5's "limits
//!   how much any single entity learns").
//!
//! Every per-event cost is O(1) on compact state (counters, histograms,
//! bitsets); a batch flush costs O(1) per batched query. Memory is
//! allocated as the queues, the batch buffers and the map of in-flight
//! response sizes grow, not per event: the wheel's buckets and the map's
//! nodes are allocated and freed as they fill and drain, the lane and the
//! batch buffers keep their capacity.
//!
//! **Three sources, one order.** Every hop transit (`Up`/`Down`) takes
//! the same `topo.link_us`, and the clock never runs backwards, so hop
//! transits fall due in the order they are sent. They wait in a FIFO
//! lane, which stays sorted by `(time, seq)` at O(1) per push and pop. A
//! topology with per-hop latencies would break the lane's invariant;
//! `schedule_hop`'s `debug_assert!` guards it. Batch flushes ride the
//! wheel, at most one per ingress, and its front is kept beside it
//! (`wheel_front`), so only a wheel pop reads the wheel. Arrivals are one
//! merged Poisson stream ([`Workload::next_arrival`]), and the engine
//! holds its single pending arrival. `Engine::new` draws the first one;
//! from the first arrival handled on, a producer thread draws the rest
//! ahead (`DrawnAhead`), each arrival's user and name and then the
//! stream's next arrival. Handling an arrival takes one drawn query and
//! keeps its generator state and clock as the engine's own, so a
//! checkpoint records the event loop's position, never the producer's
//! read-ahead. The event loop pops the smallest of the three fronts by
//! `(time, seq)`, exactly the order one queue would give.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::Serialize;

use dcp_simnet::TimerWheel;

use crate::gen::{DrawnAhead, Workload};
use crate::rng::SplitMix64;
use crate::spec::{WorkloadBuilder, WorldSpec};

/// The abstract shape of one decoupled query path — which of the nine
/// wirings a population run is modelling.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Topology {
    /// Wiring name (matches the scenario crate).
    pub scenario: String,
    /// Relay hops between client and resolver (0 = direct).
    pub hops: u32,
    /// Ingress relays (the batching points). Ignored when `hops == 0`.
    pub ingresses: u32,
    /// Ingress batch window, µs (0 = no batching).
    pub batch_window_us: u64,
    /// Pad query/response sizes up to a multiple of this (0 = no
    /// padding).
    pub pad_to: u64,
    /// Resolver/service instances queries are striped over.
    pub resolvers: u32,
    /// Stripe by query name (true) or by user (false).
    pub stripe_by_name: bool,
    /// Per-hop one-way latency, µs.
    pub link_us: u64,
    /// Base query size, bytes.
    pub query_bytes: u64,
    /// Base response size, bytes.
    pub resp_bytes: u64,
}

impl Topology {
    fn named(scenario: &str) -> Topology {
        Topology {
            scenario: scenario.to_string(),
            hops: 1,
            ingresses: 1,
            batch_window_us: 0,
            pad_to: 0,
            resolvers: 1,
            stripe_by_name: true,
            link_us: 10_000,
            query_bytes: 128,
            resp_bytes: 256,
        }
    }

    /// Oblivious DoH: client → proxy (batching) → striped target
    /// resolvers, padded DNS messages.
    pub fn odoh() -> Topology {
        Topology {
            hops: 1,
            ingresses: 2,
            batch_window_us: 5_000,
            pad_to: 128,
            resolvers: 2,
            stripe_by_name: true,
            query_bytes: 64,
            resp_bytes: 196,
            ..Topology::named("odoh")
        }
    }

    /// A 3-hop mix cascade with heavy batching and uniform padding.
    pub fn mixnet() -> Topology {
        Topology {
            hops: 3,
            ingresses: 1,
            batch_window_us: 20_000,
            pad_to: 512,
            resolvers: 1,
            link_us: 15_000,
            query_bytes: 256,
            resp_bytes: 256,
            ..Topology::named("mixnet")
        }
    }

    /// Multi-Party Relay: two non-colluding hops, egress striped wide.
    pub fn mpr() -> Topology {
        Topology {
            hops: 2,
            ingresses: 2,
            batch_window_us: 2_000,
            pad_to: 256,
            resolvers: 4,
            link_us: 8_000,
            query_bytes: 200,
            resp_bytes: 600,
            ..Topology::named("mpr")
        }
    }

    /// Trusted-relay VPN: one hop, no padding, one egress.
    pub fn vpn() -> Topology {
        Topology {
            hops: 1,
            ingresses: 1,
            batch_window_us: 0,
            pad_to: 0,
            resolvers: 1,
            query_bytes: 180,
            resp_bytes: 800,
            ..Topology::named("vpn")
        }
    }

    /// The coupled baseline: clients talk straight to one resolver.
    pub fn direct() -> Topology {
        Topology {
            hops: 0,
            ingresses: 0,
            batch_window_us: 0,
            pad_to: 0,
            resolvers: 1,
            query_bytes: 64,
            resp_bytes: 196,
            ..Topology::named("direct")
        }
    }

    /// PGPP-style cellular core: gateway batching, identity stripped,
    /// backends striped by user-session.
    pub fn pgpp() -> Topology {
        Topology {
            hops: 1,
            ingresses: 4,
            batch_window_us: 10_000,
            pad_to: 64,
            resolvers: 4,
            stripe_by_name: false,
            query_bytes: 96,
            resp_bytes: 96,
            ..Topology::named("pgpp")
        }
    }

    /// PPM-style split aggregation: leader batches reports toward two
    /// helper shares.
    pub fn ppm() -> Topology {
        Topology {
            hops: 1,
            ingresses: 1,
            batch_window_us: 50_000,
            pad_to: 128,
            resolvers: 2,
            stripe_by_name: false,
            query_bytes: 160,
            resp_bytes: 32,
            ..Topology::named("ppm")
        }
    }

    /// Privacy Pass issuance/redemption through an edge.
    pub fn privacypass() -> Topology {
        Topology {
            hops: 1,
            ingresses: 1,
            batch_window_us: 0,
            pad_to: 64,
            resolvers: 2,
            query_bytes: 96,
            resp_bytes: 96,
            ..Topology::named("privacypass")
        }
    }

    /// Blind-signature cash: mint and merchants behind one relay hop.
    pub fn blindcash() -> Topology {
        Topology {
            hops: 1,
            ingresses: 1,
            batch_window_us: 1_000,
            pad_to: 256,
            resolvers: 2,
            query_bytes: 300,
            resp_bytes: 300,
            ..Topology::named("blindcash")
        }
    }

    /// Look a preset up by scenario name (the bench CLI's `--preset`).
    pub fn by_name(name: &str) -> Option<Topology> {
        Some(match name {
            "odoh" => Topology::odoh(),
            "mixnet" => Topology::mixnet(),
            "mpr" => Topology::mpr(),
            "vpn" => Topology::vpn(),
            "direct" => Topology::direct(),
            "pgpp" => Topology::pgpp(),
            "ppm" => Topology::ppm(),
            "privacypass" => Topology::privacypass(),
            "blindcash" => Topology::blindcash(),
            _ => return None,
        })
    }

    /// All preset names, in a stable order.
    pub fn preset_names() -> &'static [&'static str] {
        &[
            "odoh",
            "mixnet",
            "mpr",
            "vpn",
            "direct",
            "pgpp",
            "ppm",
            "privacypass",
            "blindcash",
        ]
    }

    fn pad(&self, size: u64) -> u64 {
        if self.pad_to == 0 {
            size
        } else {
            size.div_ceil(self.pad_to) * self.pad_to
        }
    }
}

/// One pending engine event, as the event loop handles it and as a
/// checkpoint stores it. The lane holds hop transits (`Up`/`Down`) as
/// `(time, seq, PopEvent)`, 40 bytes each, one per packet in flight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum PopEvent {
    /// The merged stream's next query is issued now.
    Arrival,
    /// A query travelling up, about to arrive at path element `hop`
    /// (elements `0..hops` are relays; element `hops` is the resolver).
    Up {
        user: u32,
        name: u32,
        size: u32,
        hop: u8,
        sent_us: u64,
    },
    /// A response travelling down; `hop` is the number of hops left
    /// (`0` = arriving at the client).
    Down {
        user: u32,
        size: u32,
        hop: u8,
        sent_us: u64,
    },
    /// Ingress `ingress` flushes its batch now.
    Flush { ingress: u32 },
}

/// Streaming statistics — all bounded: counters, fixed histograms, and
/// per-resolver bitsets and counts over the user population.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Stats {
    pub queries_sent: u64,
    pub queries_answered: u64,
    pub messages: u64,
    pub batches: u64,
    pub batch_users_sum: u64,
    /// log₂ buckets of distinct users per batch: `[1, 2, 4, …, ≥2¹⁵]`.
    pub anon_hist: Vec<u64>,
    pub linkage_attempts: u64,
    pub linkage_linked: u64,
    /// log₂ buckets of end-to-end latency in ms.
    pub latency_hist: Vec<u64>,
    /// Wide enough for any number of `u64` latencies a run can answer.
    pub latency_sum_us: u128,
    /// Per-resolver query counts.
    pub resolver_queries: Vec<u64>,
    /// Per-resolver seen-user bitsets (`users/64` words each).
    pub resolver_seen: Vec<Vec<u64>>,
    /// `users × resolvers` per-user-per-resolver query counts, each
    /// saturating at `u32::MAX`.
    pub per_user_resolver: Vec<u32>,
    /// In-flight responses by padded size — the linkage observer's view.
    pub inflight_sizes: std::collections::BTreeMap<u32, u32>,
}

pub(crate) const ANON_BUCKETS: usize = 16;
pub(crate) const LATENCY_BUCKETS: usize = 20;

impl Stats {
    fn new(users: usize, resolvers: usize) -> Stats {
        Stats {
            anon_hist: vec![0; ANON_BUCKETS],
            latency_hist: vec![0; LATENCY_BUCKETS],
            resolver_queries: vec![0; resolvers],
            resolver_seen: vec![vec![0u64; users.div_ceil(64)]; resolvers],
            per_user_resolver: vec![0; users * resolvers],
            ..Stats::default()
        }
    }
}

fn log2_bucket(v: u64, buckets: usize) -> usize {
    ((64 - v.max(1).leading_zeros()) as usize - 1).min(buckets - 1)
}

/// The final report of one population run: the spec and topology it ran,
/// exact event/message accounting, and the three §4–5 population
/// measures. A pure function of `(spec, topology, seed)` — byte-stable
/// JSON, which is what the checkpoint/resume gate diffs.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct PopReport {
    /// The topology preset this world modelled.
    pub scenario: String,
    /// Run seed.
    pub seed: u64,
    /// User population.
    pub users: u64,
    /// Simulated duration that was configured, µs.
    pub duration_us: u64,
    /// Sim-time of the last processed event, µs.
    pub final_time_us: u64,
    /// Events processed.
    pub events: u64,
    /// Protocol messages carried (each scheduled hop transit).
    pub messages: u64,
    /// Queries issued by users.
    pub queries_sent: u64,
    /// Responses delivered back to users.
    pub queries_answered: u64,
    /// Ingress batches flushed.
    pub batches: u64,
    /// Mean distinct users per batch — the anonymity-set size.
    pub mean_anonymity_set: f64,
    /// log₂ histogram of batch anonymity-set sizes (`[1,2),[2,4),…`).
    pub anonymity_set_hist: Vec<u64>,
    /// Size-uniqueness linkage attempts (= deliveries observed).
    pub linkage_attempts: u64,
    /// Deliveries whose padded size was unique in flight — linkable.
    pub linkage_linked: u64,
    /// `linkage_linked / linkage_attempts` (0 when no deliveries).
    pub linkage_rate: f64,
    /// Resolver instances.
    pub resolvers: u32,
    /// Mean over resolvers of (fraction of user population seen).
    pub resolver_user_coverage: f64,
    /// Mean over active users of (share of that user's queries at the
    /// user's busiest resolver) — 1.0 means no striping benefit.
    pub max_resolver_share: f64,
    /// log₂ histogram of end-to-end latency in ms.
    pub latency_hist_ms: Vec<u64>,
    /// Mean end-to-end latency, µs.
    pub mean_latency_us: f64,
}

/// The longest `duration_us` a world may run: below 2⁵², the arrival
/// stream's `f64` clock resolves better than 1 µs.
const MAX_DURATION_US: u64 = 1 << 52;

/// The population engine: the hop lane, the wheel of batch flushes and
/// the one pending arrival, the seeded workload, compact streaming stats,
/// and (via [`checkpoint`](crate::checkpoint)) a serializable snapshot of
/// all of it. A live engine owns at most one producer thread, which
/// dropping it joins.
#[derive(Debug)]
pub struct Engine {
    pub(crate) spec: WorldSpec,
    pub(crate) topo: Topology,
    pub(crate) seed: u64,
    pub(crate) workload: Arc<Workload>,
    /// Batch flushes, by ingress: at most one per ingress.
    pub(crate) wheel: TimerWheel<u32>,
    /// The wheel's `(time, seq)` minimum, `None` when it is empty: always
    /// what `wheel.peek()` would return. A push can only lower it, and
    /// only a pop reads the wheel again.
    wheel_front: Option<(u64, u64)>,
    /// Hop transits (`Up`/`Down`), due `topo.link_us` after they were
    /// sent and therefore already in `(time, seq)` order.
    pub(crate) lane: VecDeque<(u64, u64, PopEvent)>,
    /// The arrival stream's continuous time, µs. Below
    /// `spec.duration_us` exactly while an arrival is pending, at its
    /// time rounded up; `spec.duration_us` once the stream has ended.
    pub(crate) clock_us: f64,
    /// The stream's one pending arrival, `(time, seq)`.
    pub(crate) arrival: Option<(u64, u64)>,
    /// The stream's generator just after the pending arrival was drawn,
    /// as `clock_us` is its clock: where a producer starts drawing.
    pub(crate) rng: SplitMix64,
    /// The stream drawn ahead; started by the first arrival handled.
    ahead: Option<DrawnAhead>,
    pub(crate) now_us: u64,
    pub(crate) next_seq: u64,
    pub(crate) events: u64,
    pub(crate) stats: Stats,
    /// Per-ingress batch buffers: `(user, name, size, sent_us)`.
    pub(crate) batches: Vec<Vec<(u32, u32, u32, u64)>>,
    /// One bit per user, set while a flush counts its batch's distinct
    /// users and all zero between events, so no checkpoint holds it.
    pub(crate) batch_seen: Vec<u64>,
}

impl Engine {
    /// Build a world and draw its first arrival.
    pub fn new(spec: &WorldSpec, topo: &Topology, seed: u64) -> Result<Engine, String> {
        let mut e = Engine::empty(spec, topo, seed)?;
        let first = e
            .workload
            .next_arrival(&mut e.clock_us, spec.duration_us, &mut e.rng);
        e.arrival = first.map(|t| (t, e.take_seq()));
        Ok(e)
    }

    /// A world with *no* scheduled events — the checkpoint restore path,
    /// which overlays queue and state from the snapshot.
    pub(crate) fn empty(spec: &WorldSpec, topo: &Topology, seed: u64) -> Result<Engine, String> {
        if topo.resolvers == 0 {
            return Err("topology needs at least one resolver".into());
        }
        if topo.hops > 0 && topo.ingresses == 0 {
            return Err("relayed topology needs at least one ingress".into());
        }
        if topo.hops > u8::MAX as u32 {
            return Err("topology has more than 255 relay hops".into());
        }
        // Events carry sizes as `u32`. The largest message is a base size
        // plus under 256 bytes of jitter, padded up; checking it here
        // keeps the per-event size arithmetic from overflowing.
        let largest = topo.query_bytes.max(topo.resp_bytes).saturating_add(255);
        if largest > u32::MAX as u64 || topo.pad(largest) > u32::MAX as u64 {
            return Err("topology's padded message sizes exceed u32".into());
        }
        if spec.users > u32::MAX as u64 || spec.names > u32::MAX as u64 {
            return Err("population exceeds u32 index space".into());
        }
        if spec.duration_us > MAX_DURATION_US {
            return Err("duration exceeds 2^52 µs, past the arrival clock's µs resolution".into());
        }
        let workload = WorkloadBuilder::new(spec).build()?;
        Ok(Engine {
            spec: spec.clone(),
            topo: topo.clone(),
            seed,
            workload: Arc::new(workload),
            wheel: TimerWheel::new(),
            wheel_front: None,
            lane: VecDeque::new(),
            clock_us: 0.0,
            arrival: None,
            rng: SplitMix64::new(seed),
            ahead: None,
            now_us: 0,
            next_seq: 0,
            events: 0,
            stats: Stats::new(spec.users as usize, topo.resolvers as usize),
            batches: vec![Vec::new(); topo.ingresses as usize],
            batch_seen: vec![0; (spec.users as usize).div_ceil(64)],
        })
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Push a flush onto the wheel, keeping `wheel_front` its minimum.
    pub(crate) fn push_wheel(&mut self, t: u64, seq: u64, ingress: u32) {
        self.wheel.push(t, seq, ingress);
        debug_assert!(
            self.wheel.len() <= self.batches.len(),
            "one flush per ingress"
        );
        if self.wheel_front.map_or(true, |front| (t, seq) < front) {
            self.wheel_front = Some((t, seq));
        }
    }

    /// Put a message on the wire: it arrives one link latency from now.
    fn schedule_hop(&mut self, ev: PopEvent) {
        let at = self.now_us.saturating_add(self.topo.link_us);
        let seq = self.take_seq();
        debug_assert!(
            self.lane
                .back()
                .map_or(true, |&(t, s, _)| (t, s) < (at, seq)),
            "hop transits must fall due in the order they are sent"
        );
        self.stats.messages += 1;
        self.lane.push_back((at, seq, ev));
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Pending events: packets in flight, batch flushes and the next
    /// arrival.
    pub fn pending(&self) -> usize {
        self.wheel.len() + self.lane.len() + usize::from(self.arrival.is_some())
    }

    /// Process events until every source drains or `max_events` have
    /// been processed *in total* (across resumes). Returns `true` when
    /// the world ran to quiescence.
    pub fn run_until_events(&mut self, max_events: u64) -> bool {
        while self.events < max_events {
            let Some((t, ev)) = self.pop_next() else {
                return true;
            };
            self.now_us = t;
            self.events += 1;
            self.handle(ev);
        }
        self.pending() == 0
    }

    /// The `(time, seq)`-minimum pending event, from the lane's front,
    /// the pending arrival or the wheel.
    fn pop_next(&mut self) -> Option<(u64, PopEvent)> {
        debug_assert_eq!(self.wheel_front, self.wheel.peek(), "stale wheel front");
        // No event has this key: sequence numbers stay below 2⁶².
        const NONE: (u64, u64) = (u64::MAX, u64::MAX);
        let lane = self.lane.front().map_or(NONE, |&(t, s, _)| (t, s));
        let arrival = self.arrival.unwrap_or(NONE);
        let wheel = self.wheel_front.unwrap_or(NONE);
        if lane < arrival && lane < wheel {
            self.lane.pop_front().map(|(t, _, ev)| (t, ev))
        } else if arrival < wheel {
            self.arrival = None;
            Some((arrival.0, PopEvent::Arrival))
        } else {
            let (t, _, ingress) = self.wheel.pop()?;
            self.wheel_front = self.wheel.peek();
            Some((t, PopEvent::Flush { ingress }))
        }
    }

    /// Run to quiescence.
    pub fn run_to_end(&mut self) {
        self.run_until_events(u64::MAX);
    }

    fn handle(&mut self, ev: PopEvent) {
        match ev {
            PopEvent::Arrival => self.on_arrival(),
            PopEvent::Up {
                user,
                name,
                size,
                hop,
                sent_us,
            } => self.on_up(user, name, size, hop, sent_us),
            PopEvent::Down {
                user,
                size,
                hop,
                sent_us,
            } => self.on_down(user, size, hop, sent_us),
            PopEvent::Flush { ingress } => self.on_flush(ingress),
        }
    }

    /// One query of the merged stream: its user, then its name, then the
    /// stream's next arrival, as the producer drew them.
    fn on_arrival(&mut self) {
        let query = self
            .ahead
            .get_or_insert_with(|| {
                DrawnAhead::spawn(
                    Arc::clone(&self.workload),
                    self.spec.duration_us,
                    self.rng.clone(),
                    self.clock_us,
                )
            })
            .next();
        let jitter = (query.name as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58; // 0..64
        let size = self.topo.pad(self.topo.query_bytes + jitter) as u32;
        self.stats.queries_sent += 1;
        self.send_up(query.user, query.name, size, 0, self.now_us);
        self.rng = SplitMix64::from_state(query.rng);
        self.clock_us = query.clock_us;
        self.arrival = query.next.map(|t| (t, self.take_seq()));
    }

    /// Put a query on the wire toward path element `hop`.
    fn send_up(&mut self, user: u32, name: u32, size: u32, hop: u8, sent_us: u64) {
        self.schedule_hop(PopEvent::Up {
            user,
            name,
            size,
            hop,
            sent_us,
        });
    }

    fn on_up(&mut self, user: u32, name: u32, size: u32, hop: u8, sent_us: u64) {
        let hops = self.topo.hops as u8;
        if hop < hops {
            // A relay. The ingress (hop 0) batches when configured.
            if hop == 0 && self.topo.batch_window_us > 0 {
                let ingress = (user % self.topo.ingresses) as usize;
                self.batches[ingress].push((user, name, size, sent_us));
                if self.batches[ingress].len() == 1 {
                    let at = self.now_us.saturating_add(self.topo.batch_window_us);
                    let seq = self.take_seq();
                    self.push_wheel(at, seq, ingress as u32);
                }
            } else {
                self.send_up(user, name, size, hop + 1, sent_us);
            }
        } else {
            // The resolver stripe.
            let key = if self.topo.stripe_by_name { name } else { user };
            let r = (key % self.topo.resolvers) as usize;
            self.stats.resolver_queries[r] += 1;
            self.stats.resolver_seen[r][user as usize / 64] |= 1u64 << (user % 64);
            let n =
                &mut self.stats.per_user_resolver[user as usize * self.topo.resolvers as usize + r];
            *n = n.saturating_add(1);

            let jitter = (name as u64).wrapping_mul(0xD1B5_4A32_D192_ED03) >> 56; // 0..256
            let rsize = self.topo.pad(self.topo.resp_bytes + jitter) as u32;
            *self.stats.inflight_sizes.entry(rsize).or_insert(0) += 1;
            self.schedule_hop(PopEvent::Down {
                user,
                size: rsize,
                hop: hops,
                sent_us,
            });
        }
    }

    fn on_down(&mut self, user: u32, size: u32, hop: u8, sent_us: u64) {
        if hop == 0 {
            // Delivered to the client: latency + the padding-linkage
            // measure (a response whose padded size is unique among
            // in-flight responses is trivially linkable by size).
            self.stats.queries_answered += 1;
            let latency = self.now_us.saturating_sub(sent_us);
            self.stats.latency_sum_us += u128::from(latency);
            self.stats.latency_hist[log2_bucket(latency / 1000, LATENCY_BUCKETS)] += 1;

            self.stats.linkage_attempts += 1;
            match self.stats.inflight_sizes.get_mut(&size) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    self.stats.inflight_sizes.remove(&size);
                    self.stats.linkage_linked += 1;
                }
            }
        } else {
            self.schedule_hop(PopEvent::Down {
                user,
                size,
                hop: hop - 1,
                sent_us,
            });
        }
    }

    fn on_flush(&mut self, ingress: u32) {
        let ingress = ingress as usize;
        if self.batches[ingress].is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.batches[ingress]);
        // Anonymity set = distinct users in the batch: the first sighting
        // of a user sets their bit.
        let mut distinct = 0u64;
        for &(user, ..) in &batch {
            let word = &mut self.batch_seen[user as usize / 64];
            let bit = 1u64 << (user % 64);
            distinct += u64::from(*word & bit == 0);
            *word |= bit;
        }
        self.stats.batches += 1;
        self.stats.batch_users_sum += distinct;
        self.stats.anon_hist[log2_bucket(distinct, ANON_BUCKETS)] += 1;
        for (user, name, size, sent_us) in batch.drain(..) {
            self.batch_seen[user as usize / 64] = 0;
            self.send_up(user, name, size, 1, sent_us);
        }
        // Forwarding never batches again, so the drained buffer goes back
        // with its capacity.
        self.batches[ingress] = batch;
    }

    /// The final (or in-progress) report. Deterministic: a pure fold of
    /// the processed event prefix.
    pub fn report(&self) -> PopReport {
        let s = &self.stats;
        let users = self.spec.users.max(1);
        let coverage = if s.resolver_seen.is_empty() {
            0.0
        } else {
            let per: f64 = s
                .resolver_seen
                .iter()
                .map(|bits| bits.iter().map(|w| w.count_ones() as u64).sum::<u64>() as f64)
                .sum();
            per / (s.resolver_seen.len() as f64 * users as f64)
        };
        let resolvers = self.topo.resolvers as usize;
        let mut active_users = 0u64;
        let mut share_sum = 0.0f64;
        for u in 0..self.spec.users as usize {
            // Only users whose queries actually reached a resolver have a
            // defined share.
            let row = &s.per_user_resolver[u * resolvers..(u + 1) * resolvers];
            let reached: u64 = row.iter().map(|&n| u64::from(n)).sum();
            if reached == 0 {
                continue;
            }
            let max = row.iter().copied().max().unwrap_or(0);
            active_users += 1;
            share_sum += max as f64 / reached as f64;
        }
        PopReport {
            scenario: self.topo.scenario.clone(),
            seed: self.seed,
            users: self.spec.users,
            duration_us: self.spec.duration_us,
            final_time_us: self.now_us,
            events: self.events,
            messages: s.messages,
            queries_sent: s.queries_sent,
            queries_answered: s.queries_answered,
            batches: s.batches,
            mean_anonymity_set: if s.batches == 0 {
                0.0
            } else {
                s.batch_users_sum as f64 / s.batches as f64
            },
            anonymity_set_hist: s.anon_hist.clone(),
            linkage_attempts: s.linkage_attempts,
            linkage_linked: s.linkage_linked,
            linkage_rate: if s.linkage_attempts == 0 {
                0.0
            } else {
                s.linkage_linked as f64 / s.linkage_attempts as f64
            },
            resolvers: self.topo.resolvers,
            resolver_user_coverage: coverage,
            max_resolver_share: if active_users == 0 {
                0.0
            } else {
                share_sum / active_users as f64
            },
            latency_hist_ms: s.latency_hist.clone(),
            mean_latency_us: if s.queries_answered == 0 {
                0.0
            } else {
                s.latency_sum_us as f64 / s.queries_answered as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::gen::BLOCK;

    fn tiny_spec() -> WorldSpec {
        WorldSpec::smoke()
            .users(50)
            .names(30)
            .duration_us(2_000_000)
    }

    #[test]
    fn world_runs_to_quiescence_and_answers_queries() {
        let mut e = Engine::new(&tiny_spec(), &Topology::odoh(), 7).unwrap();
        e.run_to_end();
        let r = e.report();
        assert!(r.queries_sent > 0, "{r:?}");
        assert_eq!(r.queries_answered, r.queries_sent, "calm world: all done");
        assert!(r.batches > 0, "odoh batches");
        assert!(r.mean_anonymity_set >= 1.0);
        assert!(r.events > 0 && r.messages > 0);
        assert!(r.final_time_us >= r.duration_us || e.pending() == 0);
    }

    #[test]
    fn identical_seeds_identical_reports() {
        let run = |seed| {
            let mut e = Engine::new(&tiny_spec(), &Topology::mixnet(), seed).unwrap();
            e.run_to_end();
            e.report()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seed, different world");
    }

    #[test]
    fn direct_topology_couples_and_links() {
        // No batching, no padding, one resolver: every response is
        // linkable-ish and the single resolver sees every user who asks.
        // About one world in seven leaves 5 of its 50 users silent, so
        // the coverage bound is on the mean over seeds.
        let mut coverage = 0.0;
        for seed in 1..=20 {
            let mut e = Engine::new(&tiny_spec(), &Topology::direct(), seed).unwrap();
            e.run_to_end();
            let r = e.report();
            assert_eq!(r.batches, 0);
            assert_eq!(r.resolvers, 1);
            assert_eq!(r.max_resolver_share, 1.0, "one resolver sees all");
            let asked = e.stats.per_user_resolver.iter().filter(|&&n| n > 0).count();
            assert_eq!(r.resolver_user_coverage, asked as f64 / 50.0, "seed {seed}");
            coverage += r.resolver_user_coverage / 20.0;
        }
        assert!(coverage > 0.9, "{coverage}");
    }

    #[test]
    fn striping_reduces_per_resolver_share() {
        let run = |topo: Topology| {
            let mut e = Engine::new(&tiny_spec().users(200).rate_hz(5.0), &topo, 9).unwrap();
            e.run_to_end();
            e.report()
        };
        let wide = run(Topology::mpr()); // 4 resolvers, stripe by name
        let single = run(Topology::vpn()); // 1 resolver
        assert!(
            wide.max_resolver_share < single.max_resolver_share,
            "striping must cut the busiest resolver's share: {} vs {}",
            wide.max_resolver_share,
            single.max_resolver_share
        );
        assert!(wide.resolver_user_coverage < 1.0);
    }

    #[test]
    fn padding_reduces_linkage() {
        let spec = tiny_spec().users(300).rate_hz(5.0);
        let run = |pad| {
            let mut t = Topology::odoh();
            t.pad_to = pad;
            let mut e = Engine::new(&spec, &t, 11).unwrap();
            e.run_to_end();
            e.report()
        };
        let padded = run(4096); // one big bucket → collisions everywhere
        let bare = run(0);
        assert!(
            padded.linkage_rate < bare.linkage_rate,
            "padding must cut size-linkage: {} vs {}",
            padded.linkage_rate,
            bare.linkage_rate
        );
    }

    #[test]
    fn wider_batch_window_grows_anonymity_sets() {
        let spec = tiny_spec().users(400).rate_hz(5.0);
        let run = |window| {
            let mut t = Topology::odoh();
            t.batch_window_us = window;
            let mut e = Engine::new(&spec, &t, 13).unwrap();
            e.run_to_end();
            e.report()
        };
        let narrow = run(1_000);
        let wide = run(50_000);
        assert!(
            wide.mean_anonymity_set > narrow.mean_anonymity_set,
            "bigger window, bigger sets: {} vs {}",
            wide.mean_anonymity_set,
            narrow.mean_anonymity_set
        );
    }

    #[test]
    fn rejects_degenerate_topologies() {
        let mut t = Topology::odoh();
        t.resolvers = 0;
        assert!(Engine::new(&tiny_spec(), &t, 1).is_err());
        let mut t = Topology::odoh();
        t.ingresses = 0;
        assert!(Engine::new(&tiny_spec(), &t, 1).is_err());
        assert!(Engine::new(&tiny_spec().users(0), &Topology::odoh(), 1).is_err());
        // 256 hops would wrap to a direct path in the events' `u8`.
        let mut t = Topology::mixnet();
        t.hops = 256;
        assert!(Engine::new(&tiny_spec(), &t, 1).is_err());
        t.hops = 255;
        assert!(Engine::new(&tiny_spec(), &t, 1).is_ok());
        // Padded sizes must fit the events' `u32`.
        let mut t = Topology::odoh();
        t.resp_bytes = u64::from(u32::MAX);
        assert!(Engine::new(&tiny_spec(), &t, 1).is_err());
        let mut t = Topology::odoh();
        t.pad_to = u64::MAX;
        assert!(Engine::new(&tiny_spec(), &t, 1).is_err());
        // Names are `u32` in the events, too.
        let spec = tiny_spec().names(u64::from(u32::MAX) + 1);
        assert!(Engine::new(&spec, &Topology::odoh(), 1).is_err());
        // The arrival clock resolves µs up to 2⁵².
        let spec = tiny_spec().rate_hz(0.0);
        assert!(Engine::new(&spec.clone().duration_us(1 << 52), &Topology::odoh(), 1).is_ok());
        assert!(Engine::new(&spec.duration_us((1 << 52) + 1), &Topology::odoh(), 1).is_err());
    }

    #[test]
    fn run_until_events_pauses_and_resumes_exactly() {
        let spec = tiny_spec();
        let mut straight = Engine::new(&spec, &Topology::odoh(), 21).unwrap();
        straight.run_to_end();

        let mut stepped = Engine::new(&spec, &Topology::odoh(), 21).unwrap();
        let mut budget = 500;
        while !stepped.run_until_events(budget) {
            budget += 500;
        }
        assert_eq!(stepped.report(), straight.report());
    }

    /// Each arrival's user is drawn by activity: the 20 most active users
    /// and one cell for the rest pass a χ² test against `N · wᵤ` at the
    /// 0.999 quantile of χ²(20), 45.31.
    #[test]
    fn arrivals_pick_users_by_activity() {
        let spec = tiny_spec()
            .users(1_000)
            .rate_hz(20.0)
            .duration_us(5_000_000)
            .diurnal(0.0, 0);
        let activity = crate::Zipf::new(1_000, spec.user_exponent).unwrap();
        for seed in 1..=3 {
            let mut e = Engine::new(&spec, &Topology::direct(), seed).unwrap();
            e.run_to_end();
            // One resolver: a user's row is its one count.
            let counts = &e.stats.per_user_resolver;
            let n: f64 = counts.iter().map(|&c| f64::from(c)).sum();
            let cell = |observed: f64, expected: f64| (observed - expected).powi(2) / expected;
            let head: f64 = (0..20)
                .map(|u| cell(f64::from(counts[u]), n * activity.weight(u)))
                .sum();
            let rest_observed: f64 = counts[20..].iter().map(|&c| f64::from(c)).sum();
            let rest_expected: f64 = (20..1_000).map(|u| n * activity.weight(u)).sum();
            let chi2 = head + cell(rest_observed, rest_expected);
            assert!(chi2 < 45.31, "seed {seed}: χ² = {chi2:.1} over {n} queries");
        }
    }

    /// Latencies near 2⁶³ µs add up past a `u64` in two answers; the sum
    /// is a `u128`, so the mean stays exact.
    #[test]
    fn huge_link_latencies_sum_without_overflow() {
        let mut t = Topology::direct();
        t.link_us = 1 << 62;
        let mut e = Engine::new(&tiny_spec().users(2), &t, 1).unwrap();
        e.run_to_end();
        let r = e.report();
        assert!(r.queries_answered >= 2, "{r:?}");
        assert_eq!(r.mean_latency_us, 2f64.powi(63));
    }

    /// Each arrival's time, user and name, then the stream's generator
    /// state and clock after its draws.
    type Drawn = (u64, u32, u32, u64, f64);

    /// At most `limit` arrivals of the stream, drawn inline from one
    /// generator: `next_arrival`, then at each arrival `sample_user`,
    /// `sample_name` and `next_arrival` again.
    fn inline_stream(w: &Workload, end_us: u64, seed: u64, limit: usize) -> Vec<Drawn> {
        let (mut clock, mut rng) = (0.0, SplitMix64::new(seed));
        let mut next = w.next_arrival(&mut clock, end_us, &mut rng);
        let mut drawn = Vec::new();
        while let Some(t) = next.filter(|_| drawn.len() < limit) {
            let user = w.sample_user(&mut rng);
            let name = w.sample_name(&mut rng);
            next = w.next_arrival(&mut clock, end_us, &mut rng);
            drawn.push((t, user, name, rng.state(), clock));
        }
        drawn
    }

    /// The arrivals the engine handles, one event at a time: each query
    /// as its first hop at the lane's back, then the engine's generator
    /// state and clock.
    fn engine_stream(e: &mut Engine) -> Vec<Drawn> {
        let mut drawn = Vec::new();
        loop {
            let sent = e.stats.queries_sent;
            let done = e.run_until_events(e.events + 1);
            if e.stats.queries_sent > sent {
                match e.lane.back() {
                    Some(&(
                        _,
                        _,
                        PopEvent::Up {
                            user,
                            name,
                            sent_us,
                            ..
                        },
                    )) => {
                        drawn.push((sent_us, user, name, e.rng.state(), e.clock_us));
                    }
                    last => panic!("an arrival sends its query up the lane, not {last:?}"),
                }
            }
            if done {
                return drawn;
            }
        }
    }

    /// Stream lengths around the block boundaries: empty, one or two
    /// arrivals, one short of, on and one past a block, and two blocks.
    const LENGTHS: [usize; 7] = [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The arrivals the engine handles, drawn ahead on the producer
        /// thread, are the inline draws from one generator: the same
        /// times, users and names, and after each the same generator
        /// state and clock. Each case runs one small spec at a zero rate,
        /// for a random duration, and for durations that end its stream
        /// after each of [`LENGTHS`] arrivals.
        #[test]
        fn drawn_ahead_arrivals_are_the_inline_draws(
            population in (1u64..40, 1u64..30),
            exponents in (0u32..200, 0u32..200),
            rate_hz in (2_000u32..40_000).prop_map(|r| f64::from(r) / 100.0),
            diurnal in (0u32..99, 0u64..2_000_000),
            preset in (0..Topology::preset_names().len()).prop_map(|i| Topology::preset_names()[i]),
            duration_us in 0u64..3_000_000,
            seed in any::<u64>(),
        ) {
            let hundredths = |x: u32| f64::from(x) / 100.0;
            let spec = WorldSpec::smoke()
                .users(population.0)
                .names(population.1)
                .exponents(hundredths(exponents.0), hundredths(exponents.1))
                .rate_hz(rate_hz)
                .diurnal(hundredths(diurnal.0), diurnal.1);
            let w = WorkloadBuilder::new(&spec).build().unwrap();
            let times: Vec<u64> = inline_stream(&w, 1 << 40, seed, 2 * BLOCK + 1)
                .iter()
                .map(|d| d.0)
                .collect();
            let mut runs = vec![
                (spec.clone().rate_hz(0.0), Some(0)),
                (spec.clone().duration_us(duration_us), None),
            ];
            // A stream holds exactly `n` arrivals when it ends at arrival
            // `n + 1`, unless arrival `n` shares its µs.
            for n in LENGTHS.into_iter().filter(|&n| n == 0 || times[n - 1] < times[n]) {
                runs.push((spec.clone().duration_us(times[n]), Some(n)));
            }
            let topo = Topology::by_name(preset).unwrap();
            for (spec, length) in runs {
                let w = WorkloadBuilder::new(&spec).build().unwrap();
                let inline = inline_stream(&w, spec.duration_us, seed, usize::MAX);
                prop_assert!(length.is_none_or(|n| n == inline.len()));
                let mut e = Engine::new(&spec, &topo, seed).unwrap();
                prop_assert_eq!(engine_stream(&mut e), inline.clone());
                prop_assert_eq!(e.ahead.is_some(), !inline.is_empty(), "a producer once an arrival is handled");
            }
        }
    }

    #[test]
    fn every_preset_resolves_and_runs() {
        for name in Topology::preset_names() {
            let topo = Topology::by_name(name).unwrap();
            assert_eq!(&topo.scenario, name);
            let mut e = Engine::new(&tiny_spec().users(20), &topo, 1).unwrap();
            e.run_to_end();
            assert!(e.report().queries_sent > 0, "{name}");
        }
        assert!(Topology::by_name("nope").is_none());
    }
}
