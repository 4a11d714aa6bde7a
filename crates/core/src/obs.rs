//! Observability: the [`ObsSink`] hook and the [`MetricsReport`] data
//! model.
//!
//! The decoupling analysis is a *final verdict*; this module makes the
//! events leading up to it first-class. A single sink trait is installed
//! into the [`World`](crate::World) and everything — the simulator's
//! dispatch loop, the fault injector's wire catalog, and the scenario
//! protocols — emits through it:
//!
//! * wire accounting ([`ObsEvent::MessageSent`] and friends) from the
//!   simulator,
//! * injected faults ([`ObsEvent::FaultInjected`]) alongside the
//!   `FaultLog`,
//! * crypto invocations ([`ObsEvent::CryptoOp`]) from protocol code,
//! * protocol-phase spans ([`ObsEvent::Span`]) with sim-time durations,
//! * knowledge accrual ([`ObsEvent::Knowledge`]) emitted automatically by
//!   `World::observe` / `World::record` whenever a ledger actually grows —
//!   *which label reached which entity at what sim-time*.
//!
//! The design constraint is zero cost when disabled: the `World` holds an
//! `Option` around the sink, every emission point is one branch on that
//! option, and no event is even constructed unless a sink is installed.
//! `crates/obs` provides the standard collector (`MetricsSink`) that folds
//! the event stream into a [`MetricsReport`]; the report type lives here
//! because every `ScenarioReport` embeds one.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::entity::EntityId;
use crate::label::InfoItem;

/// One structured observability event. Emission points construct these
/// only when a sink is installed.
#[derive(Clone, Debug, PartialEq)]
pub enum ObsEvent {
    /// A wire copy was enqueued for delivery (duplicated packets count
    /// once per copy; dropped packets are counted `Sent` *and*
    /// `Dropped`, so `sent == delivered + dropped + lost + unserviced`).
    MessageSent {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A message reached a live node and was dispatched to it.
    MessageDelivered {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A message was lost on the wire (drop fault or partition window).
    MessageDropped {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
        /// Payload size in bytes.
        bytes: usize,
        /// Why: `"drop"` or `"partition"`.
        reason: &'static str,
    },
    /// A delivery was swallowed by a crashed/down node.
    MessageLostToCrash {
        /// The node that was down.
        node: usize,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A delivery was still queued when the simulation was torn down
    /// (deadline hit before quiescence).
    MessageUnserviced {
        /// Payload size in bytes.
        bytes: usize,
    },
    /// A fault was injected (mirrors the `FaultLog` entry).
    FaultInjected {
        /// Catalog name, e.g. `"drop"`, `"crash"`, `"key_compromise"`.
        kind: &'static str,
    },
    /// A cryptographic operation ran (RSA blind-signature step, VOPRF
    /// evaluation, HPKE seal/open, AEAD, …).
    CryptoOp {
        /// Operation name, e.g. `"rsa_sign"`, `"hpke_open"`.
        op: &'static str,
    },
    /// A protocol phase completed, with its sim-time extent.
    Span {
        /// Phase name, e.g. `"withdraw"`, `"fetch"`, `"aggregate"`.
        name: &'static str,
        /// Phase start, µs of sim-time.
        start_us: u64,
        /// Phase end, µs of sim-time.
        end_us: u64,
    },
    /// An entity's ledger grew: `entity` learned `item` at the event's
    /// sim-time.
    Knowledge {
        /// The learning entity.
        entity: EntityId,
        /// What it learned.
        item: InfoItem,
    },
    /// The recovery layer re-sent a logical request: `attempt` (1-based
    /// for the first *retry*) of sequence number `seq` at `node`. The
    /// retransmission is re-randomized (fresh HPKE enc / blind factor /
    /// shares), never a byte replay — see `dcp-recover`.
    RecoveryRetry {
        /// The retrying node index.
        node: usize,
        /// ARQ sequence number of the logical request.
        seq: u64,
        /// Attempt number just sent (0 = first transmission).
        attempt: u32,
    },
    /// The recovery layer routed an attempt to a backup relay.
    RecoveryFailover {
        /// The failing-over node index.
        node: usize,
        /// ARQ sequence number of the logical request.
        seq: u64,
        /// Ordinal of the route the attempt left.
        from_route: usize,
        /// Ordinal of the route the attempt now takes.
        to_route: usize,
    },
    /// The deterministic circuit breaker quarantined a route after K
    /// consecutive failures.
    RecoveryQuarantine {
        /// The node whose breaker tripped.
        node: usize,
        /// Ordinal of the quarantined route.
        route: usize,
        /// Absolute µs sim-time at which the quarantine lifts.
        until_us: u64,
    },
    /// The recovery layer exhausted its attempt budget and abandoned a
    /// request (only reachable under fault tiers harsher than the DST
    /// completion bar).
    RecoveryGiveUp {
        /// The abandoning node index.
        node: usize,
        /// ARQ sequence number of the abandoned request.
        seq: u64,
        /// Attempts that were made.
        attempts: u32,
    },
    /// One world of a multi-seed sweep finished ([`crate::sweep`]). In a
    /// parallel sweep these arrive in **completion** order, which is not
    /// deterministic — progress events must never feed a report artifact.
    SweepProgress {
        /// Zero-based index of the finished world within the sweep.
        index: u64,
        /// The derived per-world seed.
        seed: u64,
        /// Worlds finished so far (including this one).
        done: u64,
        /// Total worlds in the sweep.
        total: u64,
    },
}

/// The single observability interface: everything in the workspace emits
/// through one installed sink.
///
/// Implementations must not call back into the `World` that hosts them
/// (the sink is locked during emission). Sinks are `Send` so a `World`
/// (and every report embedding one) can cross threads — the property the
/// parallel sweep engine ([`crate::sweep`]) fans worlds out on.
pub trait ObsSink: Send {
    /// Handle one event at sim-time `at_us`.
    fn on_event(&mut self, at_us: u64, event: &ObsEvent);
}

/// The `World`'s handle on an installed sink: a shared, optional
/// reference. `Default` is "no sink", so the disabled path through
/// [`ObsHandle::emit`] is a single `Option` branch; the enabled path
/// takes one uncontended mutex lock per event (a world and its sink live
/// on one thread — the lock exists so the *types* are `Send` and whole
/// worlds can be fanned across sweep workers).
#[derive(Clone, Default)]
pub struct ObsHandle {
    sink: Option<Arc<Mutex<dyn ObsSink>>>,
}

impl fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsHandle")
            .field("installed", &self.sink.is_some())
            .finish()
    }
}

impl ObsHandle {
    /// Wrap an installed sink.
    pub fn new(sink: Arc<Mutex<dyn ObsSink>>) -> Self {
        ObsHandle { sink: Some(sink) }
    }

    /// Is a sink installed?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit one event; a no-op (one branch) when no sink is installed.
    #[inline]
    pub fn emit(&self, at_us: u64, event: &ObsEvent) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("obs sink poisoned")
                .on_event(at_us, event);
        }
    }

    /// Remove the sink (so a retained `World` stops emitting).
    pub fn clear(&mut self) {
        self.sink = None;
    }
}

/// One recorded protocol-phase span.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Phase name.
    pub name: String,
    /// Start, µs of sim-time.
    pub start_us: u64,
    /// End, µs of sim-time.
    pub end_us: u64,
}

impl SpanRecord {
    /// Span duration in µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Fold-as-you-go aggregate over the spans of one name: the streaming
/// counterpart of the itemised [`SpanRecord`] list, always maintained by
/// the collector so population-scale runs (which drop the list) keep
/// exact counts, totals, and extremes.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStats {
    /// How many spans completed under this name.
    pub count: u64,
    /// Sum of span durations, µs.
    pub total_us: u64,
    /// Shortest span, µs (0 when `count == 0`).
    pub min_us: u64,
    /// Longest span, µs.
    pub max_us: u64,
}

impl SpanStats {
    /// Fold one span duration into the aggregate.
    pub fn fold(&mut self, duration_us: u64) {
        if self.count == 0 {
            self.min_us = duration_us;
            self.max_us = duration_us;
        } else {
            self.min_us = self.min_us.min(duration_us);
            self.max_us = self.max_us.max(duration_us);
        }
        self.count += 1;
        self.total_us += duration_us;
    }

    /// Mean duration in µs, or `None` when no span was folded.
    pub fn mean_us(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.total_us as f64 / self.count as f64)
        }
    }
}

/// One knowledge-accrual event: which label reached which entity at what
/// sim-time. `entity` is resolved to a name when the collector is
/// finalized against the final `World`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnowledgeRecord {
    /// Sim-time of the accrual, µs.
    pub at_us: u64,
    /// Raw `EntityId` payload of the learner.
    pub entity_id: u64,
    /// Entity name (filled in at finalization; empty until then).
    pub entity: String,
    /// The learned item.
    pub item: InfoItem,
}

/// Aggregated metrics for one scenario run, embedded in every
/// `ScenarioReport`. When the run was not instrumented, `enabled` is
/// `false` and everything else is zero/empty.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Was a sink installed for this run?
    pub enabled: bool,
    /// Scenario name (e.g. `"odoh"`).
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Sim-time of the last observed event, µs.
    pub sim_end_us: u64,
    /// Wire copies enqueued (duplicates count per copy; dropped sends
    /// count here too).
    pub messages_sent: u64,
    /// Messages dispatched to a live node.
    pub messages_delivered: u64,
    /// Messages lost on the wire (drop faults + partition windows).
    pub messages_dropped: u64,
    /// Deliveries swallowed by crashed nodes.
    pub messages_lost_to_crash: u64,
    /// Deliveries still queued at teardown (deadline runs).
    pub messages_unserviced: u64,
    /// Bytes across all sent copies.
    pub bytes_sent: u64,
    /// Bytes across delivered messages.
    pub bytes_delivered: u64,
    /// Retransmissions sent by the recovery layer
    /// ([`ObsEvent::RecoveryRetry`]).
    pub recovery_retries: u64,
    /// Attempts that switched to a backup route
    /// ([`ObsEvent::RecoveryFailover`]).
    pub recovery_failovers: u64,
    /// Circuit-breaker trips ([`ObsEvent::RecoveryQuarantine`]).
    pub recovery_quarantines: u64,
    /// Requests abandoned after the attempt budget
    /// ([`ObsEvent::RecoveryGiveUp`]).
    pub recovery_give_ups: u64,
    /// Crypto invocations by operation name.
    pub crypto_ops: BTreeMap<String, u64>,
    /// Injected faults by catalog name.
    pub faults: BTreeMap<String, u64>,
    /// Knowledge-accrual events per entity name (filled at finalization).
    pub knowledge_by_entity: BTreeMap<String, u64>,
    /// Fold-as-you-go span aggregates by name — always populated, even
    /// when the itemised `spans` list is dropped (streaming mode).
    pub span_stats: BTreeMap<String, SpanStats>,
    /// Every completed protocol-phase span. Empty in streaming mode;
    /// `span_stats` keeps the aggregates.
    pub spans: Vec<SpanRecord>,
    /// The knowledge-accrual timeline, in emission order. Empty in
    /// streaming mode; `knowledge_by_entity` keeps the counts.
    pub knowledge: Vec<KnowledgeRecord>,
}

impl MetricsReport {
    /// A report for an uninstrumented run.
    pub fn disabled() -> Self {
        MetricsReport::default()
    }

    /// Total crypto invocations across all operations.
    pub fn crypto_total(&self) -> u64 {
        self.crypto_ops.values().sum()
    }

    /// Count of spans with the given name. Prefers the streaming
    /// aggregate (always folded by the collector); falls back to the
    /// itemised list for hand-built reports.
    pub fn span_count(&self, name: &str) -> usize {
        match self.span_stats.get(name) {
            Some(s) => s.count as usize,
            None => self.spans.iter().filter(|s| s.name == name).count(),
        }
    }

    /// Mean duration (µs) of spans with the given name, or `None` if
    /// there are none. Same streaming-first sourcing as
    /// [`span_count`](MetricsReport::span_count).
    pub fn mean_span_us(&self, name: &str) -> Option<f64> {
        if let Some(s) = self.span_stats.get(name) {
            return s.mean_us();
        }
        let durations: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::duration_us)
            .collect();
        if durations.is_empty() {
            return None;
        }
        Some(durations.iter().sum::<u64>() as f64 / durations.len() as f64)
    }

    /// A fixed-bucket histogram of span durations (µs) for `name`:
    /// `bounds` are inclusive upper edges, the returned vector has
    /// `bounds.len() + 1` counts (last bucket = overflow).
    pub fn span_histogram(&self, name: &str, bounds: &[u64]) -> Vec<u64> {
        let mut counts = vec![0u64; bounds.len() + 1];
        for s in self.spans.iter().filter(|s| s.name == name) {
            let d = s.duration_us();
            let idx = bounds.iter().position(|&b| d <= b).unwrap_or(bounds.len());
            counts[idx] += 1;
        }
        counts
    }

    /// The wire-accounting identity every run must satisfy at
    /// quiescence; the obs property tests assert this across presets.
    pub fn wire_accounting_holds(&self) -> bool {
        self.messages_sent
            == self.messages_delivered
                + self.messages_dropped
                + self.messages_lost_to_crash
                + self.messages_unserviced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingSink {
        events: Vec<(u64, ObsEvent)>,
    }

    impl ObsSink for CountingSink {
        fn on_event(&mut self, at_us: u64, event: &ObsEvent) {
            self.events.push((at_us, event.clone()));
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = ObsHandle::default();
        assert!(!h.is_enabled());
        h.emit(5, &ObsEvent::CryptoOp { op: "noop" });
    }

    #[test]
    fn handle_forwards_events() {
        let sink = Arc::new(Mutex::new(CountingSink { events: Vec::new() }));
        let h = ObsHandle::new(sink.clone());
        assert!(h.is_enabled());
        h.emit(7, &ObsEvent::CryptoOp { op: "rsa_sign" });
        h.emit(
            9,
            &ObsEvent::MessageSent {
                src: 0,
                dst: 1,
                bytes: 32,
            },
        );
        assert_eq!(sink.lock().unwrap().events.len(), 2);
        assert_eq!(sink.lock().unwrap().events[0].0, 7);
    }

    #[test]
    fn report_helpers() {
        let mut r = MetricsReport::default();
        r.spans.push(SpanRecord {
            name: "fetch".into(),
            start_us: 0,
            end_us: 100,
        });
        r.spans.push(SpanRecord {
            name: "fetch".into(),
            start_us: 10,
            end_us: 310,
        });
        r.crypto_ops.insert("hpke_seal".into(), 3);
        r.crypto_ops.insert("hpke_open".into(), 2);
        assert_eq!(r.span_count("fetch"), 2);
        assert_eq!(r.mean_span_us("fetch"), Some(200.0));
        assert_eq!(r.mean_span_us("absent"), None);
        assert_eq!(r.crypto_total(), 5);
        assert_eq!(r.span_histogram("fetch", &[150, 500]), vec![1, 1, 0]);
    }

    #[test]
    fn wire_accounting_identity() {
        let mut r = MetricsReport {
            messages_sent: 10,
            messages_delivered: 7,
            messages_dropped: 2,
            messages_lost_to_crash: 1,
            ..MetricsReport::default()
        };
        assert!(r.wire_accounting_holds());
        r.messages_delivered = 8;
        assert!(!r.wire_accounting_holds());
    }
}
