//! # dcp-worlds — population-scale world engine
//!
//! The paper's argument is population-scale: decoupling matters because
//! *what any one entity learns across millions of users* shrinks, not
//! because one query's bytes look different. This crate makes that
//! measurable on one machine:
//!
//! * **Seeded workload generators** ([`gen`]): Zipf name popularity,
//!   Zipf per-user activity skew, and the users' Poisson arrivals as one
//!   merged stream under a diurnal envelope — all driven by a
//!   serializable [`SplitMix64`] stream, so a world is a pure function of
//!   `(WorldSpec, Topology, seed)`.
//! * **A declarative [`WorldSpec`]** ([`spec`]) plus the
//!   [`PopulationScenario`] bridge that runs any of the nine §3 scenario
//!   wirings over a generated population (via `dcp-runtime`'s
//!   re-export).
//! * **The population [`Engine`]** ([`engine`]): an abstract
//!   decoupled-path model (ingress batching → relay hops → striped
//!   resolvers) over a FIFO lane for hop transits, the shared
//!   [`dcp_simnet::TimerWheel`] for batch flushes and one pending
//!   arrival, whose stream a producer thread draws ahead, folding the
//!   paper's §4–5 measures — anonymity-set size vs. batch window,
//!   size-linkage vs. padding, per-resolver knowledge vs. striping — as
//!   it goes. All per-event state is O(1); 10⁶ users / 10⁸ events fit
//!   comfortably in memory.
//! * **Checkpoint/resume** ([`checkpoint`]): a complete byte snapshot at
//!   any event boundary; a resumed run's report is byte-identical to a
//!   straight-through run's, and bytes that are no checkpoint are a
//!   [`CheckpointError`].
//!
//! ```
//! use dcp_worlds::{Engine, Topology, WorldSpec};
//!
//! let spec = WorldSpec::smoke();
//! let mut world = Engine::new(&spec, &Topology::odoh(), 42).unwrap();
//! world.run_until_events(10_000);
//! let snapshot = world.checkpoint(); // pause…
//! let mut world = Engine::restore(&snapshot).unwrap(); // …resume
//! world.run_to_end();
//! let report = world.report();
//! assert!(report.mean_anonymity_set >= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod gen;
pub mod rng;
pub mod spec;

pub use checkpoint::CheckpointError;
pub use engine::{Engine, PopReport, Topology};
pub use gen::{Diurnal, Poisson, Workload, Zipf};
pub use rng::SplitMix64;
pub use spec::{PopulationScenario, WorkloadBuilder, WorldSpec};
