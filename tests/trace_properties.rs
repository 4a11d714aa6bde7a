//! Property tests: `Trace` accounting stays honest under injected faults.
//!
//! The workload is a fixed pipe — the environment posts `n` uniquely
//! flow-tagged messages to a forwarder `A`, which relays each to a sink
//! `B` — so the *offered* load on the `A → B` link is known exactly and
//! every divergence in the observed trace must be explained by the
//! [`FaultLog`]:
//!
//! * duplicated / reordered / delayed packets never change the per-flow
//!   byte accounting (dedup by send event recovers the calm trace);
//! * `on_link` / `at_node` counts reconcile with `drops_on_link` /
//!   `duplicates_on_link`;
//! * the whole (trace, log) pair is a pure function of `(seed, config)`.

use std::collections::BTreeMap;

use decoupling::core::{EntityId, World};
use decoupling::faults::{FaultConfig, FaultKind, FaultLog};
use decoupling::simnet::{Ctx, LinkParams, Message, Network, Node, NodeId, SimTime, Trace};
use proptest::prelude::*;

/// Relay every message, preserving its ground-truth flow tag.
struct Pipe {
    entity: EntityId,
    next: Option<NodeId>,
}

impl Node for Pipe {
    fn entity(&self) -> EntityId {
        self.entity
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, msg: Message) {
        if let Some(next) = self.next {
            let flow = msg.flow;
            let mut fwd = Message::public(msg.bytes);
            fwd.flow = flow;
            ctx.send(next, fwd);
        }
    }
}

const SINK: NodeId = NodeId(0);
const FWD: NodeId = NodeId(1);

/// Run the pipe workload: `n` messages of `size` bytes, one flow id each.
/// Returns the wire trace and the fault log.
fn run_pipe(n: usize, size: usize, config: &FaultConfig, seed: u64) -> (Trace, FaultLog) {
    let mut world = World::new();
    let ao = world.add_org("a-co");
    let bo = world.add_org("b-co");
    let ea = world.add_entity("A", ao, None);
    let eb = world.add_entity("B", bo, None);

    let mut net = Network::new(world, seed);
    net.set_default_link(LinkParams::wan_ms(5));
    net.enable_faults(config.clone(), seed);
    let sink = net.add_node(Box::new(Pipe {
        entity: eb,
        next: None,
    }));
    assert_eq!(sink, SINK);
    let fwd = net.add_node(Box::new(Pipe {
        entity: ea,
        next: Some(sink),
    }));
    assert_eq!(fwd, FWD);

    // Environment posts bypass the wire (no trace record, no wire fault),
    // so the forwarder offers exactly `n` sends on the A → B link.
    for i in 0..n {
        net.post_at(
            fwd,
            Message::public(vec![0u8; size]).with_flow(i as u64),
            SimTime(i as u64 * 1_000),
        );
    }
    net.run();
    let log = net.fault_log();
    let (_, trace) = net.into_parts();
    (trace, log)
}

/// Per-flow byte totals, counting each *send event* once: duplicate
/// copies share `(src, dst, flow, send_time, size)` and collapse.
fn bytes_per_flow_dedup(trace: &Trace) -> BTreeMap<u64, usize> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = BTreeMap::new();
    for r in trace.records() {
        let flow = r.true_flow.expect("pipe workload tags every message");
        if seen.insert((r.src, r.dst, flow, r.send_time, r.size)) {
            *out.entry(flow).or_insert(0) += r.size;
        }
    }
    out
}

/// A config that duplicates, delays, and reorders but never *loses*
/// anything: no drops, partitions, crashes, or churn.
fn lossless_config(p_dup: f64, p_reorder: f64, p_delay: f64) -> FaultConfig {
    FaultConfig {
        enabled: true,
        p_duplicate: p_dup,
        p_reorder,
        p_extra_delay: p_delay,
        max_extra_delay_us: 40_000,
        max_faults: u64::MAX,
        ..FaultConfig::calm()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Duplication and reordering never change per-flow byte accounting:
    /// dedup by send event recovers exactly the calm run's per-flow
    /// totals, and no flow is lost or invented.
    #[test]
    fn dup_reorder_preserve_per_flow_bytes(
        n in 1usize..24,
        size in 1usize..1200,
        p_dup_pm in 0u32..600,
        p_reorder_pm in 0u32..400,
        p_delay_pm in 0u32..400,
        seed in any::<u64>(),
    ) {
        let (p_dup, p_reorder, p_delay) = (
            f64::from(p_dup_pm) / 1000.0,
            f64::from(p_reorder_pm) / 1000.0,
            f64::from(p_delay_pm) / 1000.0,
        );
        let (calm_trace, calm_log) =
            run_pipe(n, size, &FaultConfig::calm(), seed);
        prop_assert!(calm_log.is_empty());

        let cfg = lossless_config(p_dup, p_reorder, p_delay);
        let (trace, log) = run_pipe(n, size, &cfg, seed);

        prop_assert_eq!(
            bytes_per_flow_dedup(&trace),
            bytes_per_flow_dedup(&calm_trace)
        );
        // Lossless faults only: nothing in the log may be a loss.
        prop_assert_eq!(
            log.count(|k| !matches!(
                k,
                FaultKind::Duplicate { .. }
                    | FaultKind::Reorder { .. }
                    | FaultKind::ExtraDelay { .. }
            )),
            0
        );
    }

    /// `on_link` / `at_node` counts reconcile exactly with the fault log:
    /// offered sends − drops + extra duplicate copies = observed records.
    #[test]
    fn link_counts_reconcile_with_fault_log(
        n in 1usize..24,
        size in 1usize..1200,
        p_drop_pm in 0u32..400,
        p_dup_pm in 0u32..400,
        seed in any::<u64>(),
    ) {
        let cfg = FaultConfig {
            enabled: true,
            p_drop: f64::from(p_drop_pm) / 1000.0,
            p_duplicate: f64::from(p_dup_pm) / 1000.0,
            max_faults: u64::MAX,
            ..FaultConfig::calm()
        };
        let (trace, log) = run_pipe(n, size, &cfg, seed);

        let drops = log.drops_on_link(FWD.0, SINK.0);
        let dups = log.duplicates_on_link(FWD.0, SINK.0);
        let observed = trace.on_link(FWD, SINK).len();
        prop_assert_eq!(observed, n - drops + dups);
        prop_assert_eq!(
            trace.on_link(FWD, SINK).iter().map(|r| r.size).sum::<usize>(),
            (n - drops + dups) * size
        );

        // The pipe has a single link, so both endpoint views match it and
        // the whole-trace totals agree.
        prop_assert_eq!(trace.at_node(FWD).len(), observed);
        prop_assert_eq!(trace.at_node(SINK).len(), observed);
        prop_assert_eq!(trace.len(), observed);
        prop_assert_eq!(trace.total_bytes(), (n - drops + dups) * size);
    }

    /// The `(trace, log)` pair is a pure function of `(seed, config)`,
    /// under every preset in every case.
    #[test]
    fn trace_and_log_replay_from_seed(
        n in 1usize..16,
        size in 1usize..600,
        seed in any::<u64>(),
    ) {
        for (name, cfg) in FaultConfig::presets() {
            let (t1, l1) = run_pipe(n, size, &cfg, seed);
            let (t2, l2) = run_pipe(n, size, &cfg, seed);
            prop_assert_eq!(l1, l2, "{}", name);
            prop_assert_eq!(t1.records(), t2.records(), "{}", name);
        }
    }
}
