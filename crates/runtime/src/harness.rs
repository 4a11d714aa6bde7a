//! Run setup/teardown: the choreography every scenario wiring repeated.

use dcp_core::faults::{FaultConfig, FaultLog};
use dcp_core::role::{Role, RoleKind};
use dcp_core::{MetricsReport, RunOptions, World};
use dcp_fleet::DirectoryNode;
use dcp_obs::MetricsHandle;
use dcp_simnet::{LinkParams, Network, Node, NodeId, Tap, Trace};

use crate::host::SimHost;
use crate::seam::{PeerId, RoleSpec, ServeSpec};

/// What every run produces beyond protocol-specific fields: the final
/// knowledge base, the packet trace, the injected fault schedule, and the
/// (possibly disabled) metrics report. Scenario reports embed these four
/// and add their own measures.
pub struct RunCore {
    /// The final knowledge base.
    pub world: World,
    /// The packet trace.
    pub trace: Trace,
    /// Faults injected during the run (empty when faults are disabled).
    pub fault_log: FaultLog,
    /// Run metrics (populated on instrumented runs).
    pub metrics: MetricsReport,
}

/// Brackets one scenario run: installs the metrics sink before any
/// entity exists, arms fault injection when the network is built, and
/// finalizes the [`RunCore`] after quiescence. The sequencing is
/// load-bearing — the sink must observe entity creation, and
/// fault-injection RNG must be seeded with the run seed — so it lives
/// here instead of in nine copies.
pub struct Harness {
    seed: u64,
    faults: FaultConfig,
    obs: Option<MetricsHandle>,
    record_trace: bool,
}

impl Harness {
    /// Start a run: a fresh [`World`] with the metrics sink installed iff
    /// `opts.observe`. Register entities and keys on the returned world,
    /// then call [`network`](Harness::network).
    pub fn begin(name: &'static str, seed: u64, opts: &RunOptions) -> (World, Harness) {
        let mut world = World::new();
        let obs = MetricsHandle::install_with(
            &mut world,
            opts.observe,
            opts.streaming_metrics,
            name,
            seed,
        );
        (
            world,
            Harness {
                seed,
                faults: opts.faults.clone(),
                obs,
                record_trace: opts.record_trace,
            },
        )
    }

    /// Build the simulator over the prepared world: default link set,
    /// fault injection armed from the run seed, trace recording per the
    /// run's [`RunOptions`].
    pub fn network(&self, world: World, link: LinkParams) -> Network {
        let mut net = Network::new(world, self.seed);
        net.set_trace_recording(self.record_trace);
        net.set_default_link(link);
        net.enable_faults(self.faults.clone(), self.seed);
        net
    }

    /// Register a node under its architectural role. Relays get the
    /// simulator's relay treatment (crash-fault targeting); initiators
    /// and services do not.
    pub fn add(net: &mut Network, kind: RoleKind, node: Box<dyn Node>) -> NodeId {
        let id = net.add_node(node);
        if kind == RoleKind::Relay {
            net.mark_relay(id);
        }
        id
    }

    /// Register a node under its typed role: simulator treatment derives
    /// from `R::KIND` exactly as in [`add`](Harness::add), and the
    /// registration names the [`KnowledgeCap`](dcp_core::KnowledgeCap)
    /// this node is bounded by — the [`Endpoint`](dcp_core::Endpoint)s
    /// other roles hold toward it carry `R`, so every typed send toward
    /// this node is admission-checked at compile time.
    pub fn add_role<R: Role>(net: &mut Network, node: Box<dyn Node>) -> NodeId {
        Self::add(net, R::KIND, node)
    }

    /// Register a seam role (the simnet host for wirings written once as
    /// [`WireRole`](crate::seam::WireRole)s), treated by its spec's
    /// [`RoleKind`] exactly as in [`add`](Harness::add). Register a
    /// spec's roles in role-table order: the host maps `PeerId(i)` to
    /// `NodeId(i)`.
    pub fn add_spec(net: &mut Network, spec: RoleSpec) -> NodeId {
        Self::add(
            net,
            spec.kind,
            Box::new(SimHost::new(spec.entity, spec.role)),
        )
    }

    /// Register a fleet directory node: marked on the simulator so the
    /// directory-partition fault (`p_dir_partition`) targets only
    /// directory↔directory links.
    pub fn add_directory(net: &mut Network, node: Box<dyn Node>) -> NodeId {
        let id = net.add_node(node);
        net.mark_directory(id);
        id
    }

    /// The run path of every seam wiring: build the simulator over the
    /// spec's world with `link`, host its roles in role-table order (so
    /// `PeerId(i)` is `NodeId(i)`), register fleet `directories` after
    /// them, install the spec's taps, and run to quiescence. Read what
    /// the report needs from the spec (its users, its expected units)
    /// before handing it over.
    pub fn run_spec(
        self,
        spec: ServeSpec,
        link: LinkParams,
        directories: Vec<DirectoryNode>,
    ) -> RunCore {
        let mut net = self.network(spec.world, link);
        for role in spec.roles {
            Self::add_spec(&mut net, role);
        }
        for dir in directories {
            Self::add_directory(&mut net, Box::new(dir));
        }
        let node = |p: PeerId| NodeId(p.index());
        for tap in spec.taps {
            net.add_tap(Tap {
                observer: tap.observer,
                links: tap
                    .links
                    .map(|links| links.into_iter().map(|(a, b)| (node(a), node(b))).collect()),
            });
        }
        self.finish(net)
    }

    /// Run the network to quiescence and assemble the [`RunCore`].
    pub fn finish(self, mut net: Network) -> RunCore {
        net.run();
        self.collect(net)
    }

    /// Assemble the [`RunCore`] from an already-run network (deadline
    /// runs that used `run_until` collect here).
    pub fn collect(self, net: Network) -> RunCore {
        let fault_log = net.fault_log();
        let (mut world, trace) = net.into_parts();
        let metrics = MetricsHandle::finish_opt(self.obs.as_ref(), &mut world);
        RunCore {
            world,
            trace,
            fault_log,
            metrics,
        }
    }
}

/// Mean of a latency sample in µs, `0.0` when empty — the scenario
/// reports' shared convention.
pub fn mean_us(latencies: &[u64]) -> f64 {
    if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_us_convention() {
        assert_eq!(mean_us(&[]), 0.0);
        assert_eq!(mean_us(&[10, 20]), 15.0);
    }

    #[test]
    fn harness_brackets_an_observed_run() {
        let opts = RunOptions::observed();
        let (mut world, h) = Harness::begin("toy", 7, &opts);
        assert!(world.obs_enabled(), "sink installed before entities");
        let org = world.add_org("t");
        let e = world.add_entity("Svc", org, None);
        let mut net = h.network(world, LinkParams::lan());
        struct Idle(dcp_core::EntityId);
        impl Node for Idle {
            fn entity(&self) -> dcp_core::EntityId {
                self.0
            }
            fn on_message(&mut self, _: &mut dcp_simnet::Ctx, _: NodeId, _: dcp_simnet::Message) {}
        }
        let id = Harness::add(&mut net, RoleKind::Service, Box::new(Idle(e)));
        assert_eq!(id, NodeId(0));
        let core = h.finish(net);
        assert!(core.metrics.enabled);
        assert_eq!(core.metrics.scenario, "toy");
        assert_eq!(core.metrics.seed, 7);
        assert!(core.fault_log.is_empty());
        assert!(!core.world.obs_enabled(), "sink cleared at finalization");
    }

    #[test]
    fn uninstrumented_run_yields_disabled_metrics() {
        let opts = RunOptions::new();
        let (world, h) = Harness::begin("toy", 1, &opts);
        let net = h.network(world, LinkParams::lan());
        let core = h.finish(net);
        assert!(!core.metrics.enabled);
        assert_eq!(core.metrics, MetricsReport::disabled());
    }
}
