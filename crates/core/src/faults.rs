//! Fault-injection *data* types: configuration, catalog, and replay log.
//!
//! These live in `dcp-core` (rather than `dcp-faults`, which hosts the
//! seeded [`Injector`](https://docs.rs) machinery) because the unified
//! [`Scenario`](crate::Scenario) trait takes a [`FaultConfig`] and every
//! report carries a [`FaultLog`] — the *vocabulary* of faults is part of
//! the core API surface, while the *generator* stays in `dcp-faults`.
//! `dcp-faults` re-exports everything here at its original paths, so
//! `dcp_faults::FaultConfig` keeps working.

use serde::{Deserialize, Serialize};

/// Probabilities and parameters for every fault the injector can draw.
///
/// All probabilities are per-opportunity (per packet send, per node
/// dispatch, …) in `[0, 1]`. The three presets — [`FaultConfig::calm`],
/// [`FaultConfig::moderate`], [`FaultConfig::chaos`] — are the tiers the
/// DST harness sweeps; hand-tuned configs are fine too.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Master switch. `false` means the injector is never even
    /// constructed, so the disabled-faults overhead inside the simulator
    /// is a single `Option` branch.
    pub enabled: bool,
    /// P(drop a packet on the wire).
    pub p_drop: f64,
    /// P(deliver a packet twice).
    pub p_duplicate: f64,
    /// P(add extra queueing delay to a delivery).
    pub p_extra_delay: f64,
    /// Upper bound on the extra delay, in µs.
    pub max_extra_delay_us: u64,
    /// P(reorder: hold a packet long enough that later traffic on the
    /// same link overtakes it).
    pub p_reorder: f64,
    /// P(open a bidirectional partition between the endpoints of the
    /// packet being sent). While a partition window is open, everything
    /// between the pair is silently dropped.
    pub p_partition: f64,
    /// How long a partition window stays open, in µs.
    pub partition_window_us: u64,
    /// P(a node crashes when an event is dispatched to it). The node
    /// loses every message and timer that arrives while it is down, then
    /// restarts with its state intact.
    pub p_crash: f64,
    /// How long a crashed node stays down, in µs.
    pub crash_down_us: u64,
    /// P(crash) for nodes marked as *relays* — the mid-circuit churn the
    /// multi-hop systems (mix-nets, MPR, ODoH proxies) must survive.
    pub p_relay_churn: f64,
    /// P(a relay *joins* the fleet) per directory gossip tick — a
    /// departed or spare relay is re-admitted to the directory. Only
    /// meaningful for fleet-enabled runs (`dcp-fleet`); the fixed-relay
    /// wirings never consult it.
    pub p_relay_join: f64,
    /// P(a relay *leaves* the fleet) per directory gossip tick — its
    /// descriptor is tombstoned and new chains stop selecting it (in-
    /// flight circuits finish; departure is membership churn, not a
    /// crash). Fleet-only, like [`FaultConfig::p_relay_join`].
    pub p_relay_leave: f64,
    /// P(open a bidirectional partition between two *directory* nodes on
    /// a gossip send) — the anti-entropy healing test. Uses the same
    /// window length as [`FaultConfig::partition_window_us`]. Fleet-only.
    pub p_dir_partition: f64,
    /// Hard cap on injected faults per run: a liveness backstop so chaos
    /// tiers cannot starve a protocol forever (TigerBeetle caps its
    /// storage faults the same way).
    pub max_faults: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::calm()
    }
}

impl FaultConfig {
    /// No faults at all — the baseline every DST comparison is made
    /// against.
    pub fn calm() -> Self {
        FaultConfig {
            enabled: false,
            p_drop: 0.0,
            p_duplicate: 0.0,
            p_extra_delay: 0.0,
            max_extra_delay_us: 0,
            p_reorder: 0.0,
            p_partition: 0.0,
            partition_window_us: 0,
            p_crash: 0.0,
            crash_down_us: 0,
            p_relay_churn: 0.0,
            p_relay_join: 0.0,
            p_relay_leave: 0.0,
            p_dir_partition: 0.0,
            max_faults: 0,
        }
    }

    /// Realistic bad-day network: a few percent of packets misbehave,
    /// relays occasionally blip. Scenarios are expected to *complete or
    /// fail closed* under this tier.
    pub fn moderate() -> Self {
        FaultConfig {
            enabled: true,
            p_drop: 0.01,
            p_duplicate: 0.02,
            p_extra_delay: 0.05,
            max_extra_delay_us: 20_000,
            p_reorder: 0.03,
            p_partition: 0.002,
            partition_window_us: 30_000,
            p_crash: 0.0,
            crash_down_us: 20_000,
            p_relay_churn: 0.002,
            p_relay_join: 0.0,
            p_relay_leave: 0.0,
            p_dir_partition: 0.0,
            max_faults: 200,
        }
    }

    /// Hostile *infrastructure*: heavy loss, duplication, reordering,
    /// partitions, and relay churn — but no client crashes (`p_crash =
    /// 0`), because the harsh tier carries a **completion** bar: with the
    /// recovery layer enabled every request must eventually be answered,
    /// and a scenario whose client dies mid-protocol has no one left to
    /// retry. The finite [`FaultConfig::max_faults`] budget is the
    /// liveness lever — once it is exhausted, retransmissions run
    /// fault-free and the ARQ completes.
    pub fn harsh() -> Self {
        FaultConfig {
            enabled: true,
            p_drop: 0.10,
            p_duplicate: 0.08,
            p_extra_delay: 0.10,
            max_extra_delay_us: 40_000,
            p_reorder: 0.06,
            p_partition: 0.004,
            partition_window_us: 40_000,
            p_crash: 0.0,
            crash_down_us: 30_000,
            p_relay_churn: 0.006,
            p_relay_join: 0.0,
            p_relay_leave: 0.0,
            p_dir_partition: 0.0,
            max_faults: 600,
        }
    }

    /// [`FaultConfig::harsh`] plus fleet-level churn: relays join and
    /// leave the directory mid-run, directory gossip links partition, and
    /// (in fleet-enabled wirings) relay keys rotate underneath in-flight
    /// traffic. Like `harsh` it carries a **completion** bar: every
    /// fleet-enabled wiring must finish its whole workload with knowledge
    /// tables byte-identical to the fixed-relay, fault-free baseline.
    ///
    /// Deliberately *not* part of [`FaultConfig::presets`]: the DST sweep
    /// battery iterates that array, and its baseline artifacts are
    /// byte-pinned in CI. Fleet probes (`dst_fleet`) call this directly.
    pub fn harsh_fleet() -> Self {
        FaultConfig {
            p_relay_join: 0.10,
            p_relay_leave: 0.15,
            p_dir_partition: 0.02,
            ..FaultConfig::harsh()
        }
    }

    /// Hostile network: heavy loss, duplication, partitions, and node
    /// crashes. Liveness is *not* promised here — only safety (the
    /// knowledge ledgers stay decoupled).
    pub fn chaos() -> Self {
        FaultConfig {
            enabled: true,
            p_drop: 0.08,
            p_duplicate: 0.08,
            p_extra_delay: 0.15,
            max_extra_delay_us: 100_000,
            p_reorder: 0.10,
            p_partition: 0.01,
            partition_window_us: 80_000,
            p_crash: 0.005,
            crash_down_us: 50_000,
            p_relay_churn: 0.01,
            p_relay_join: 0.0,
            p_relay_leave: 0.0,
            p_dir_partition: 0.0,
            max_faults: 2_000,
        }
    }

    /// The four presets with their names, in escalating order — what the
    /// DST harness sweeps. `harsh` sits between `moderate` and `chaos`:
    /// heavier wire faults than `moderate`, but no client crashes, so the
    /// harness can demand full completion (every query answered, every
    /// token redeemed) when the recovery layer is on.
    pub fn presets() -> [(&'static str, FaultConfig); 4] {
        [
            ("calm", FaultConfig::calm()),
            ("moderate", FaultConfig::moderate()),
            ("harsh", FaultConfig::harsh()),
            ("chaos", FaultConfig::chaos()),
        ]
    }
}

/// One injected fault, as recorded in the [`FaultLog`].
///
/// Node ids are raw `usize` indices (the simulator's `NodeId` payload):
/// this crate sits *below* `dcp-simnet` in the dependency graph, so it
/// speaks indices, and the log still replays and compares exactly.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A packet from `src` to `dst` vanished on the wire.
    Drop {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
    },
    /// A packet was delivered `copies` times instead of once.
    Duplicate {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
        /// Total deliveries (≥ 2).
        copies: u32,
    },
    /// A delivery was held back by `delay_us` extra microseconds.
    ExtraDelay {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
        /// Extra queueing delay in µs.
        delay_us: u64,
    },
    /// A delivery was held back far enough for later same-link traffic to
    /// overtake it (distinct from [`FaultKind::ExtraDelay`] so logs show
    /// *intent*).
    Reorder {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
        /// The hold-back applied, in µs.
        delay_us: u64,
    },
    /// A bidirectional partition opened between `a` and `b`.
    Partition {
        /// One endpoint (lower index).
        a: usize,
        /// Other endpoint.
        b: usize,
        /// Absolute µs timestamp at which the window closes.
        until_us: u64,
    },
    /// Node `node` crashed; it restarts (state intact) at `until_us`.
    Crash {
        /// The crashed node.
        node: usize,
        /// Absolute µs timestamp of the restart.
        until_us: u64,
    },
    /// A relay node crashed mid-circuit (drawn from `p_relay_churn`
    /// rather than `p_crash`). This used to be called `RelayChurn` back
    /// when a crash was the *only* churn the injector modeled; the
    /// observability event stream still names the draw `relay_churn` so
    /// recorded fault logs stay readable.
    RelayCrash {
        /// The crashed relay.
        node: usize,
        /// Absolute µs timestamp of the restart.
        until_us: u64,
    },
    /// A relay joined (or re-joined) the fleet: its directory descriptor
    /// became servable again. Drawn from `p_relay_join` at a directory
    /// gossip tick; `node` is the relay's fleet index, not a simulator
    /// node id (the fleet layer sits above the simulator).
    RelayJoin {
        /// Fleet index of the joining relay.
        node: usize,
    },
    /// A relay left the fleet: its descriptor was tombstoned, so new
    /// chains stop selecting it while in-flight circuits finish. Drawn
    /// from `p_relay_leave` at a directory gossip tick.
    RelayLeave {
        /// Fleet index of the departing relay.
        node: usize,
    },
    /// A bidirectional partition opened between two *directory* nodes —
    /// recorded distinctly from [`FaultKind::Partition`] so logs show
    /// that the anti-entropy path, not the data path, was attacked.
    DirPartition {
        /// One directory endpoint (lower index).
        a: usize,
        /// Other directory endpoint.
        b: usize,
        /// Absolute µs timestamp at which the window closes.
        until_us: u64,
    },
    /// A message or timer arrived at a node while it was down and was
    /// lost.
    CrashLoss {
        /// The down node that missed the event.
        node: usize,
    },
    /// `beneficiary` acquired one of `victim`'s decryption capabilities —
    /// the §4.2 collusion model. The only catalog entry allowed to break
    /// decoupling.
    KeyCompromise {
        /// Entity whose key leaked (raw `EntityId` payload).
        victim: u64,
        /// Entity that gained the key.
        beneficiary: u64,
        /// The leaked key (raw `KeyId` payload).
        key: u64,
    },
}

/// One timestamped entry of the [`FaultLog`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulated time of injection, µs.
    pub at_us: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// The replay artifact: every fault injected during one run, in
/// injection order. Two runs from the same `(seed, FaultConfig)` must
/// produce `==` logs — the DST harness asserts exactly that.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// All events, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Were any faults injected?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count events matching a predicate (e.g. "how many drops?").
    pub fn count(&self, pred: impl Fn(&FaultKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Packets lost on the directed link `src → dst`: wire drops plus
    /// deliveries swallowed by a down receiver. The trace property tests
    /// reconcile `Trace::on_link` against this.
    pub fn drops_on_link(&self, src: usize, dst: usize) -> usize {
        self.count(|k| matches!(k, FaultKind::Drop { src: s, dst: d } if *s == src && *d == dst))
    }

    /// Extra copies delivered on the directed link `src → dst`.
    pub fn duplicates_on_link(&self, src: usize, dst: usize) -> usize {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                FaultKind::Duplicate {
                    src: s,
                    dst: d,
                    copies,
                } if *s == src && *d == dst => Some(*copies as usize - 1),
                _ => None,
            })
            .sum()
    }

    /// Append an event (the injector and hand-built test logs both use
    /// this).
    pub fn push(&mut self, at_us: u64, kind: FaultKind) {
        self.events.push(FaultEvent { at_us, kind });
    }
}
