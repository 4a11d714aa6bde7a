//! # dcp-recover — deterministic retry, timeout, and failover
//!
//! The paper's §4 argues a decoupled architecture must tolerate relay
//! failure without collapsing back onto a single trusted path. This crate
//! is the recovery layer the §3 scenario crates share: per-request ARQ
//! with sequence numbers and per-attempt deadlines, exponential backoff
//! with seeded jitter, and an ordered backup-route list guarded by a
//! deterministic circuit breaker.
//!
//! Three properties are non-negotiable:
//!
//! * **Determinism.** A run is a pure function of `(seed, FaultConfig,
//!   RecoverConfig)`. Backoff jitter comes from a dedicated SplitMix64
//!   stream derived from the run seed — never from the protocol RNG — so
//!   enabling recovery perturbs no protocol randomness, and the parallel
//!   sweep engine still reproduces byte-identical artifacts.
//! * **Zero cost when disabled.** With [`RecoverConfig::disabled`] no
//!   timer is armed and no retry state allocated. Whether a sequence
//!   number is framed is the wiring's choice ([`wire`]): seam-role
//!   wirings (the DNS family, MPR, Privacy Pass, blind cash, PGPP, PPM,
//!   the VPN and ECH) always frame, mixnet's nodes only under recovery.
//! * **Re-randomized retransmission.** A retry never replays bytes; the
//!   client re-runs the encryption/blinding step (fresh HPKE
//!   encapsulation, fresh blind factor). Byte-identical retries would let
//!   any on-path observer link attempts across paths — the
//!   [`RetryLinkage`] check in `dcp_core::analysis` (re-exported here)
//!   fails the DST if that ever regresses. See `docs/RECOVERY.md` for the
//!   rule and its deliberate exceptions (instruments the receiver must
//!   dedup, like coins and share pairs).
//!
//! The state machines here are *pure*: they know nothing of `dcp-simnet`.
//! A node calls [`ReliableCall::begin`] when it sends, arms the returned
//! timer via `Ctx::set_timer`, feeds timer tokens back through
//! [`ReliableCall::on_timer`], and reports responses via
//! [`ReliableCall::complete`] — which doubles as receiver-style dedup for
//! duplicate responses. Keeping the machinery free of simulator types is
//! what lets every scenario crate reuse it unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

pub use dcp_core::analysis::RetryLinkage;
pub use dcp_core::recover::RecoverConfig;
use dcp_core::sweep::splitmix64;
use dcp_core::{ObsEvent, World};

pub mod wire;

/// Timer tokens minted by [`ReliableCall`] set this bit, keeping the ARQ
/// namespace disjoint from every scenario's own small-integer tokens.
pub const ARQ_TOKEN_BIT: u64 = 1 << 63;

const ATTEMPT_BITS: u32 = 8;

/// One scheduled transmission of a logical request: what the node must
/// send, and the deadline timer it must arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// ARQ sequence number of the logical request.
    pub seq: u64,
    /// 0-based attempt ordinal (0 = first transmission).
    pub attempt: u32,
    /// Deadline delay to arm via `Ctx::set_timer`, in µs (backoff +
    /// seeded jitter).
    pub timer_delay_us: u64,
    /// The token to arm the deadline timer with.
    pub token: u64,
}

/// What [`ReliableCall::on_timer`] decided about a fired token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerVerdict {
    /// The token was not minted by this ARQ — dispatch it to the
    /// scenario's own timer handling.
    NotMine,
    /// The call already completed (or the token belongs to a superseded
    /// attempt): ignore.
    Stale,
    /// Deadline expired — retransmit (re-randomized!) and arm the new
    /// deadline.
    Retry(Attempt),
    /// The attempt budget is exhausted; the request is abandoned.
    Exhausted {
        /// The abandoned sequence number.
        seq: u64,
        /// Attempts that were made.
        attempts: u32,
    },
}

#[derive(Clone, Debug)]
struct CallState {
    attempt: u32,
    done: bool,
}

/// Per-request ARQ: sequence numbers, per-attempt deadlines, exponential
/// backoff with seeded jitter, and first-completion dedup.
///
/// One instance per sending node. The machine is inert when built from a
/// disabled config: [`begin`](ReliableCall::begin) returns `None` and the
/// node sends exactly as it would without the layer.
#[derive(Clone, Debug)]
pub struct ReliableCall {
    cfg: RecoverConfig,
    next_seq: u64,
    calls: BTreeMap<u64, CallState>,
    /// SplitMix64 jitter stream state (advanced per scheduled deadline).
    jitter_state: u64,
}

impl ReliableCall {
    /// Build the ARQ for one node. `jitter_seed` must be derived from the
    /// run seed (e.g. `derive_seed(seed, node_salt)`) so two runs of the
    /// same seed draw identical jitter.
    pub fn new(cfg: &RecoverConfig, jitter_seed: u64) -> Self {
        ReliableCall {
            cfg: cfg.clone(),
            next_seq: 0,
            calls: BTreeMap::new(),
            jitter_state: jitter_seed,
        }
    }

    /// Is the layer active?
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    fn next_jitter(&mut self) -> u64 {
        if self.cfg.jitter_us == 0 {
            return 0;
        }
        self.jitter_state = self.jitter_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let draw = splitmix64(self.jitter_state);
        match self.cfg.jitter_us.checked_add(1) {
            Some(m) => draw % m,
            None => draw, // jitter_us == u64::MAX: any draw is in range
        }
    }

    fn token_for(seq: u64, attempt: u32) -> u64 {
        ARQ_TOKEN_BIT | (seq << ATTEMPT_BITS) | (attempt as u64 & 0xff)
    }

    fn deadline(&mut self, attempt: u32) -> u64 {
        let jitter = self.next_jitter();
        self.cfg.backoff_for(attempt).saturating_add(jitter)
    }

    /// Open a new logical request: assigns the next sequence number and
    /// returns the first [`Attempt`] (send + arm its timer). `None` when
    /// the layer is disabled: arm nothing, and a node wiring sends
    /// unframed. Seam wirings call [`open`](ReliableCall::open).
    pub fn begin(&mut self) -> Option<Attempt> {
        if !self.cfg.enabled {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.calls.insert(
            seq,
            CallState {
                attempt: 0,
                done: false,
            },
        );
        let timer_delay_us = self.deadline(0);
        Some(Attempt {
            seq,
            attempt: 0,
            timer_delay_us,
            token: Self::token_for(seq, 0),
        })
    }

    /// Open a new logical request, numbered whether or not the layer is
    /// on: [`begin`](ReliableCall::begin)'s first attempt when enabled,
    /// else the next number with no timer behind it, so arm
    /// `timer_delay_us`/`token` only when [`enabled`](ReliableCall::enabled).
    /// Seam wirings frame every request, so their `RecoverConfig` only
    /// arms retries.
    pub fn open(&mut self) -> Attempt {
        if let Some(att) = self.begin() {
            return att;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Attempt {
            seq,
            attempt: 0,
            timer_delay_us: 0,
            token: 0,
        }
    }

    /// Feed a fired timer token through the ARQ. Tokens without
    /// [`ARQ_TOKEN_BIT`] return [`TimerVerdict::NotMine`]; tokens of
    /// completed or superseded attempts are [`TimerVerdict::Stale`]
    /// (timers cannot be cancelled in the simulator, so stale tokens are
    /// routine, not errors).
    pub fn on_timer(&mut self, token: u64) -> TimerVerdict {
        if token & ARQ_TOKEN_BIT == 0 {
            return TimerVerdict::NotMine;
        }
        let seq = (token & !ARQ_TOKEN_BIT) >> ATTEMPT_BITS;
        let attempt = (token & 0xff) as u32;
        let Some(call) = self.calls.get(&seq) else {
            return TimerVerdict::Stale;
        };
        if call.done || call.attempt != attempt {
            return TimerVerdict::Stale;
        }
        let next = attempt + 1;
        if next >= self.cfg.max_attempts {
            let attempts = next;
            self.calls.remove(&seq);
            return TimerVerdict::Exhausted { seq, attempts };
        }
        let timer_delay_us = self.deadline(next);
        if let Some(call) = self.calls.get_mut(&seq) {
            call.attempt = next;
        }
        TimerVerdict::Retry(Attempt {
            seq,
            attempt: next,
            timer_delay_us,
            token: Self::token_for(seq, next),
        })
    }

    /// Record a response for `seq`. Returns `true` only the *first* time
    /// — the client-side dedup that makes duplicated or retried responses
    /// mutate completion state exactly once. Unknown sequence numbers
    /// (stale responses to abandoned calls, or garbage) return `false`.
    pub fn complete(&mut self, seq: u64) -> bool {
        match self.calls.get_mut(&seq) {
            Some(call) if !call.done => {
                call.done = true;
                true
            }
            _ => false,
        }
    }

    /// Is `seq` open (begun, not yet completed or abandoned)?
    #[cfg(test)]
    fn is_open(&self, seq: u64) -> bool {
        self.calls.get(&seq).is_some_and(|c| !c.done)
    }

    /// Number of open (incomplete, unabandoned) calls.
    #[cfg(test)]
    fn open_calls(&self) -> usize {
        self.calls.values().filter(|c| !c.done).count()
    }

    /// The current attempt ordinal of `seq`, if the call is known.
    #[cfg(test)]
    fn attempts_of(&self, seq: u64) -> Option<u32> {
        self.calls.get(&seq).map(|c| c.attempt)
    }
}

/// A hop-local sequence mapper for relays.
///
/// A relay that shuttles reliable requests between two legs cannot reuse
/// the sender's sequence number downstream: sequence spaces of different
/// senders collide, and forwarding a sender-scoped counter to the far
/// side would hand the far entity a stable cross-request pseudonym —
/// exactly the linkage the decoupled path is supposed to prevent. The
/// relay instead mints its *own* per-forward sequence and remembers what
/// it stood for; the response echoes the hop-local number and
/// [`take`](HopMap::take) maps it back. Entries are consumed on first
/// use, so a duplicated response finds nothing and is dropped.
#[derive(Clone, Debug, Default)]
pub struct HopMap<K> {
    next: u64,
    pending: BTreeMap<u64, K>,
}

impl<K> HopMap<K> {
    /// An empty map.
    pub fn new() -> Self {
        HopMap {
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Mint the next hop-local sequence number and remember `value`
    /// (typically "which upstream asked, under which upstream seq").
    pub fn insert(&mut self, value: K) -> u64 {
        let seq = self.next;
        self.next += 1;
        self.pending.insert(seq, value);
        seq
    }

    /// Consume the entry for `seq`. `None` for unknown or already-used
    /// numbers — duplicated responses fail closed.
    pub fn take(&mut self, seq: u64) -> Option<K> {
        self.pending.remove(&seq)
    }

    /// Entries still awaiting a response.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Receiver-side at-most-once guard.
///
/// Keyed by `(flow, seq)` — where `flow` disambiguates senders sharing a
/// sequence space (use the sender's node index). The contract is
/// "at-most-once state mutation, always respond": a receiver calls
/// [`first`](Dedup::first) before mutating and re-sends its (idempotent)
/// response regardless, so a client whose response was dropped still gets
/// an answer from the retransmission.
#[derive(Clone, Debug, Default)]
pub struct Dedup {
    seen: std::collections::BTreeSet<(u64, u64)>,
}

impl Dedup {
    /// An empty guard.
    pub fn new() -> Self {
        Dedup::default()
    }

    /// `true` exactly once per `(flow, seq)` — the caller mutates state
    /// only on `true`, and responds either way.
    pub fn first(&mut self, flow: u64, seq: u64) -> bool {
        self.seen.insert((flow, seq))
    }

    /// Has `(flow, seq)` been seen?
    pub fn seen(&self, flow: u64, seq: u64) -> bool {
        self.seen.contains(&(flow, seq))
    }

    /// Distinct `(flow, seq)` pairs recorded.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Is the guard empty?
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

/// Idempotent forwarding of one-time checks, for a service that asks an
/// upstream judge before it answers its client: Privacy Pass's origin
/// asks the issuer whether a token is good, blind cash's seller asks the
/// bank's verifier whether a coin is.
///
/// A check is keyed by its client's request (typically `(sender, seq)`)
/// and gets a hop-local number of its own on the judge's leg, minted
/// once. While the check is unresolved, every copy of the request — a
/// retransmission or a network duplicate — re-forwards the stored body
/// under that *same* number, so the judge replays its first verdict
/// instead of reading the repeated instrument as a double spend. The
/// first verdict stands, and later copies are answered from it without
/// asking again. A verdict returns to the client its number was minted
/// for, never to whichever client happens to be waiting.
#[derive(Clone, Debug, Default)]
pub struct CheckForwarder<K, V> {
    checks: BTreeMap<K, Check<V>>,
    /// Hop number → the check it was minted for; numbers are dense
    /// from 0 and never reused.
    by_hop: BTreeMap<u64, K>,
}

#[derive(Clone, Debug)]
struct Check<V> {
    /// The body to re-forward while the check is unresolved.
    body: Vec<u8>,
    hop: u64,
    verdict: Option<V>,
}

/// What to do with one copy of a client's request
/// ([`CheckForwarder::forward`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Forward<'a, V> {
    /// Send `body` to the judge under hop number `hop`.
    Upstream {
        /// The check's hop-local number.
        hop: u64,
        /// The body the check was first forwarded with.
        body: &'a [u8],
    },
    /// The check is settled: answer the client with this verdict.
    Replay(&'a V),
}

impl<K: Ord + Copy, V> CheckForwarder<K, V> {
    /// No checks yet.
    pub fn new() -> Self {
        CheckForwarder {
            checks: BTreeMap::new(),
            by_hop: BTreeMap::new(),
        }
    }

    /// A copy of request `key` arrived carrying `body`. The first copy
    /// opens the check under the next hop number; every copy is then
    /// forwarded with the first body, or answered from the verdict.
    pub fn forward(&mut self, key: K, body: &[u8]) -> Forward<'_, V> {
        if !self.checks.contains_key(&key) {
            let hop = self.by_hop.len() as u64;
            self.by_hop.insert(hop, key);
            self.checks.insert(
                key,
                Check {
                    body: body.to_vec(),
                    hop,
                    verdict: None,
                },
            );
        }
        let check = &self.checks[&key];
        match &check.verdict {
            Some(verdict) => Forward::Replay(verdict),
            None => Forward::Upstream {
                hop: check.hop,
                body: &check.body,
            },
        }
    }

    /// The judge answered hop number `hop` with `verdict`. Returns the
    /// check's client key, the verdict that stands (the first one to
    /// arrive) and whether this answer settled the check; `None` for a
    /// number this forwarder never minted.
    pub fn resolve(&mut self, hop: u64, verdict: V) -> Option<(K, &V, bool)> {
        let key = *self.by_hop.get(&hop)?;
        let check = self.checks.get_mut(&key)?;
        let first = check.verdict.is_none();
        Some((key, check.verdict.get_or_insert(verdict), first))
    }
}

/// One route's breaker state.
#[derive(Clone, Debug, Default)]
struct BreakerState {
    consecutive_failures: u32,
    quarantined_until_us: u64,
}

/// The route the failover picked for one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteChoice {
    /// Ordinal into the route list.
    pub ordinal: usize,
    /// The route value (a node index, in scenario use).
    pub node: usize,
    /// The ordinal the deterministic schedule *wanted* before quarantine
    /// skipped it (equal to `ordinal` when no failover happened).
    pub preferred: usize,
}

/// An ordered backup-route list with a deterministic circuit breaker.
///
/// Route selection is a pure function of `(seq, attempt, quarantine
/// state)`: attempt `a` of request `s` prefers route `(s + a) % n`, and
/// quarantined routes are skipped in order. Rotating by `seq` means calm
/// runs exercise *every* route — the reason a backup relay's knowledge
/// ledger under faults is byte-identical to the fault-free run (a backup
/// used only during failures would accrue envelope knowledge only under
/// faults, breaking the DST's table-equality bar).
///
/// After [`RecoverConfig::breaker_threshold`] consecutive failures a
/// route is quarantined for [`RecoverConfig::quarantine_us`]; when every
/// route is quarantined the one whose quarantine expires first is used
/// (fail-open toward liveness — the alternative is certain starvation).
#[derive(Clone, Debug)]
pub struct Failover {
    routes: Vec<usize>,
    breakers: Vec<BreakerState>,
    threshold: u32,
    quarantine_us: u64,
}

impl Failover {
    /// Build over an ordered route list (panics if empty).
    pub fn new(routes: Vec<usize>, cfg: &RecoverConfig) -> Self {
        assert!(!routes.is_empty(), "Failover needs at least one route");
        let breakers = vec![BreakerState::default(); routes.len()];
        Failover {
            routes,
            breakers,
            threshold: cfg.breaker_threshold,
            quarantine_us: cfg.quarantine_us,
        }
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Always false (construction rejects empty lists); here for clippy's
    /// `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route value at `ordinal`.
    pub fn route(&self, ordinal: usize) -> usize {
        self.routes[ordinal]
    }

    /// Is `ordinal` quarantined at `now_us`?
    pub fn is_quarantined(&self, ordinal: usize, now_us: u64) -> bool {
        self.breakers[ordinal].quarantined_until_us > now_us
    }

    /// Pick the route for `attempt` of request `seq` at `now_us`.
    pub fn route_for(&self, seq: u64, attempt: u32, now_us: u64) -> RouteChoice {
        let n = self.routes.len();
        let preferred = ((seq + attempt as u64) % n as u64) as usize;
        for off in 0..n {
            let ordinal = (preferred + off) % n;
            if !self.is_quarantined(ordinal, now_us) {
                return RouteChoice {
                    ordinal,
                    node: self.routes[ordinal],
                    preferred,
                };
            }
        }
        // Every route quarantined: take the earliest-expiring one.
        let ordinal = (0..n)
            .min_by_key(|&i| (self.breakers[i].quarantined_until_us, i))
            .expect("nonempty");
        RouteChoice {
            ordinal,
            node: self.routes[ordinal],
            preferred,
        }
    }

    /// Report that an attempt via `ordinal` failed (its deadline
    /// expired). Trips the breaker — returning the quarantine expiry —
    /// once the consecutive-failure count reaches the threshold.
    pub fn report_failure(&mut self, ordinal: usize, now_us: u64) -> Option<u64> {
        let b = &mut self.breakers[ordinal];
        b.consecutive_failures += 1;
        if b.consecutive_failures >= self.threshold {
            b.consecutive_failures = 0;
            let until = now_us.saturating_add(self.quarantine_us);
            b.quarantined_until_us = b.quarantined_until_us.max(until);
            return Some(b.quarantined_until_us);
        }
        None
    }

    /// Report that an attempt via `ordinal` succeeded: resets its
    /// consecutive-failure count.
    pub fn report_success(&mut self, ordinal: usize) {
        self.breakers[ordinal].consecutive_failures = 0;
    }
}

/// Emit [`ObsEvent::RecoveryRetry`] (one branch when obs is disabled).
pub fn emit_retry(world: &World, node: usize, seq: u64, attempt: u32) {
    if world.obs_enabled() {
        world.emit(&ObsEvent::RecoveryRetry { node, seq, attempt });
    }
}

/// Emit [`ObsEvent::RecoveryGiveUp`].
pub fn emit_give_up(world: &World, node: usize, seq: u64, attempts: u32) {
    if world.obs_enabled() {
        world.emit(&ObsEvent::RecoveryGiveUp {
            node,
            seq,
            attempts,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RecoverConfig {
        RecoverConfig::standard()
            .base_timeout_us(1_000)
            .backoff_factor(2)
            .max_backoff_us(8_000)
            .jitter_us(0)
            .max_attempts(4)
    }

    #[test]
    fn disabled_machine_is_inert() {
        let mut arq = ReliableCall::new(&RecoverConfig::disabled(), 42);
        assert!(!arq.enabled());
        assert_eq!(arq.begin(), None);
        assert_eq!(arq.open_calls(), 0);
        // `open` still numbers requests, and keeps no call state.
        assert_eq!((arq.open().seq, arq.open().seq), (0, 1));
        assert_eq!(arq.open_calls(), 0);
        assert!(!arq.complete(0));
    }

    #[test]
    fn open_numbers_like_begin_when_enabled() {
        let mut a = ReliableCall::new(&cfg(), 7);
        let mut b = ReliableCall::new(&cfg(), 7);
        for _ in 0..3 {
            assert_eq!(a.open(), b.begin().unwrap());
        }
        assert_eq!(a.open_calls(), 3);
    }

    #[test]
    fn arq_walks_the_backoff_ladder_then_exhausts() {
        let mut arq = ReliableCall::new(&cfg(), 7);
        let a0 = arq.begin().unwrap();
        assert_eq!((a0.seq, a0.attempt, a0.timer_delay_us), (0, 0, 1_000));
        let TimerVerdict::Retry(a1) = arq.on_timer(a0.token) else {
            panic!("expected retry");
        };
        assert_eq!((a1.attempt, a1.timer_delay_us), (1, 2_000));
        let TimerVerdict::Retry(a2) = arq.on_timer(a1.token) else {
            panic!("expected retry");
        };
        assert_eq!((a2.attempt, a2.timer_delay_us), (2, 4_000));
        let TimerVerdict::Retry(a3) = arq.on_timer(a2.token) else {
            panic!("expected retry");
        };
        assert_eq!((a3.attempt, a3.timer_delay_us), (3, 8_000));
        assert_eq!(
            arq.on_timer(a3.token),
            TimerVerdict::Exhausted {
                seq: 0,
                attempts: 4
            }
        );
        assert!(!arq.is_open(0));
    }

    #[test]
    fn stale_and_foreign_tokens_are_classified() {
        let mut arq = ReliableCall::new(&cfg(), 7);
        let a0 = arq.begin().unwrap();
        assert_eq!(arq.on_timer(1), TimerVerdict::NotMine, "scenario token");
        let TimerVerdict::Retry(a1) = arq.on_timer(a0.token) else {
            panic!("expected retry");
        };
        // The superseded attempt-0 token fires later: stale, not a retry.
        assert_eq!(arq.on_timer(a0.token), TimerVerdict::Stale);
        assert!(arq.complete(a1.seq));
        // Completed call's timer fires: stale.
        assert_eq!(arq.on_timer(a1.token), TimerVerdict::Stale);
    }

    #[test]
    fn complete_dedups_duplicate_responses() {
        let mut arq = ReliableCall::new(&cfg(), 7);
        let a = arq.begin().unwrap();
        assert!(arq.complete(a.seq), "first response wins");
        assert!(!arq.complete(a.seq), "duplicate response is a no-op");
        assert!(!arq.complete(999), "unknown seq is a no-op");
        assert_eq!(arq.open_calls(), 0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let jittery = cfg().jitter_us(500);
        let mut a = ReliableCall::new(&jittery, 1234);
        let mut b = ReliableCall::new(&jittery, 1234);
        let mut c = ReliableCall::new(&jittery, 5678);
        let da: Vec<u64> = (0..8).map(|_| a.begin().unwrap().timer_delay_us).collect();
        let db: Vec<u64> = (0..8).map(|_| b.begin().unwrap().timer_delay_us).collect();
        let dc: Vec<u64> = (0..8).map(|_| c.begin().unwrap().timer_delay_us).collect();
        assert_eq!(da, db, "same seed, same jitter");
        assert_ne!(da, dc, "different stream, different jitter");
        assert!(da.iter().all(|&d| (1_000..=1_500).contains(&d)));
    }

    #[test]
    fn u64_max_backoff_does_not_panic() {
        let absurd = RecoverConfig::standard()
            .base_timeout_us(u64::MAX)
            .max_backoff_us(0)
            .jitter_us(u64::MAX);
        let mut arq = ReliableCall::new(&absurd, 9);
        let a = arq.begin().unwrap();
        assert!(a.timer_delay_us >= u64::MAX - 1 || a.timer_delay_us == u64::MAX);
        let v = arq.on_timer(a.token);
        assert!(matches!(v, TimerVerdict::Retry(_)));
    }

    #[test]
    fn sequence_numbers_are_distinct_and_tokens_namespaced() {
        let mut arq = ReliableCall::new(&cfg(), 7);
        let a = arq.begin().unwrap();
        let b = arq.begin().unwrap();
        assert_ne!(a.seq, b.seq);
        assert_ne!(a.token, b.token);
        assert!(a.token & ARQ_TOKEN_BIT != 0);
        assert!(b.token & ARQ_TOKEN_BIT != 0);
        assert_eq!(arq.open_calls(), 2);
        assert_eq!(arq.attempts_of(a.seq), Some(0));
    }

    #[test]
    fn hop_map_mints_distinct_seqs_and_consumes_once() {
        let mut map: HopMap<(usize, u64)> = HopMap::new();
        let a = map.insert((3, 0));
        let b = map.insert((4, 0));
        assert_ne!(a, b, "two upstreams sharing seq 0 must not collide");
        assert_eq!(map.len(), 2);
        assert_eq!(map.take(a), Some((3, 0)));
        assert_eq!(map.take(a), None, "duplicated response finds nothing");
        assert_eq!(map.take(999), None);
        assert_eq!(map.take(b), Some((4, 0)));
        assert!(map.is_empty());
    }

    #[test]
    fn dedup_guards_at_most_once_per_flow() {
        let mut d = Dedup::new();
        assert!(d.first(1, 0), "first delivery mutates");
        assert!(!d.first(1, 0), "retransmission does not");
        assert!(d.first(2, 0), "same seq, different flow is distinct");
        assert!(d.seen(1, 0));
        assert!(!d.seen(1, 1));
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn check_forwarder_re_forwards_under_one_hop_and_replays_the_first_verdict() {
        let mut checks: CheckForwarder<(u16, u64), bool> = CheckForwarder::new();
        assert_eq!(
            checks.forward((3, 0), b"token-a"),
            Forward::Upstream {
                hop: 0,
                body: b"token-a"
            }
        );
        // Two clients sharing seq 0 get distinct hop numbers.
        assert_eq!(
            checks.forward((4, 0), b"token-b"),
            Forward::Upstream {
                hop: 1,
                body: b"token-b"
            }
        );
        // A copy of an unresolved request re-forwards the first body
        // under the same number.
        assert_eq!(
            checks.forward((3, 0), b"other"),
            Forward::Upstream {
                hop: 0,
                body: b"token-a"
            }
        );
        // The verdict for hop 1 returns to the client it was minted for.
        assert_eq!(checks.resolve(1, true), Some(((4, 0), &true, true)));
        // The first verdict stands; a later one changes nothing.
        assert_eq!(checks.resolve(1, false), Some(((4, 0), &true, false)));
        assert_eq!(checks.forward((4, 0), b"token-b"), Forward::Replay(&true));
        assert_eq!(checks.resolve(7, true), None, "never minted");
        assert_eq!(checks.resolve(0, false), Some(((3, 0), &false, true)));
        assert_eq!(checks.forward((3, 0), b"token-a"), Forward::Replay(&false));
        assert_eq!(
            checks.forward((3, 1), b"token-c"),
            Forward::Upstream {
                hop: 2,
                body: b"token-c"
            }
        );
    }

    #[test]
    fn failover_rotates_and_covers_all_routes_in_calm_runs() {
        let f = Failover::new(vec![10, 20], &RecoverConfig::standard());
        // Calm (attempt 0) traffic round-robins by seq: both routes appear.
        assert_eq!(f.route_for(0, 0, 0).node, 10);
        assert_eq!(f.route_for(1, 0, 0).node, 20);
        assert_eq!(f.route_for(2, 0, 0).node, 10);
        // A retry shifts to the backup deterministically.
        assert_eq!(f.route_for(0, 1, 0).node, 20);
        assert_eq!(f.route_for(0, 2, 0).node, 10);
    }

    #[test]
    fn breaker_trips_after_k_consecutive_failures_and_recovers() {
        let cfg = RecoverConfig::standard()
            .breaker_threshold(2)
            .quarantine_us(1_000);
        let mut f = Failover::new(vec![10, 20], &cfg);
        assert_eq!(f.report_failure(0, 100), None, "first failure: no trip");
        let until = f.report_failure(0, 200).expect("second failure trips");
        assert_eq!(until, 1_200);
        assert!(f.is_quarantined(0, 500));
        // Quarantined route is skipped even when preferred.
        let pick = f.route_for(0, 0, 500);
        assert_eq!((pick.ordinal, pick.node, pick.preferred), (1, 20, 0));
        // Quarantine lifts at its expiry.
        assert!(!f.is_quarantined(0, 1_200));
        assert_eq!(f.route_for(0, 0, 1_200).node, 10);
        // Success resets the consecutive counter.
        f.report_failure(1, 0);
        f.report_success(1);
        assert_eq!(f.report_failure(1, 0), None);
    }

    #[test]
    fn all_routes_quarantined_picks_earliest_expiry() {
        let cfg = RecoverConfig::standard()
            .breaker_threshold(1)
            .quarantine_us(1_000);
        let mut f = Failover::new(vec![10, 20], &cfg);
        f.report_failure(0, 0); // quarantined until 1_000
        f.report_failure(1, 500); // quarantined until 1_500
        let pick = f.route_for(3, 0, 600);
        assert_eq!(pick.node, 10, "earliest expiry wins");
    }

    #[test]
    fn single_route_failover_degenerates_gracefully() {
        let cfg = RecoverConfig::standard()
            .breaker_threshold(1)
            .quarantine_us(1_000);
        let mut f = Failover::new(vec![5], &cfg);
        f.report_failure(0, 0);
        // Nowhere else to go: keep using the only route.
        assert_eq!(f.route_for(0, 1, 10).node, 5);
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
    }
}
