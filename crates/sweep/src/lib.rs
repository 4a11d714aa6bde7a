//! # dcp-sweep — the parallel deterministic sweep engine
//!
//! `dcp_core::sweep` defines the contract: a [`SweepBuilder`] describes
//! a multi-seed sweep, a [`SweepExecutor`] runs the independent worlds,
//! and the ordered reduction in [`SweepRun`](dcp_core::SweepRun) guarantees that any
//! conforming executor yields identical results. This crate supplies the
//! executor worth having: [`ParallelExecutor`] fans the worlds across
//! cores with rayon and is **bit-for-bit identical** to
//! [`SequentialExecutor`](dcp_core::SequentialExecutor) — same `SweepRun`, same fault logs, same
//! metrics, same JSON bytes — because
//!
//! * per-world seeds are *derived* (SplitMix64 closed form), never
//!   chained, so world *i* is the same computation on any thread;
//! * scenario runs are pure functions of `(config, seed, options)` (the
//!   discipline the DST harness already enforces);
//! * results are gathered positionally and re-sorted by world index
//!   before anything folds.
//!
//! The crate sits *above* `dcp-core` and *below* nothing: scenarios
//! sweep through the provided
//! [`Scenario::sweep`](dcp_core::Scenario::sweep) over any
//! [`SweepExecutor`], and only binaries/harnesses that actually want
//! parallelism link this crate (and thereby rayon).
//!
//! ```
//! use dcp_core::{Scenario, SweepBuilder, SequentialExecutor, RunOptions};
//! use dcp_sweep::ParallelExecutor;
//! # use dcp_core::{ScenarioReport, World, FaultLog, MetricsReport};
//! # struct ToyReport(u64);
//! # impl ScenarioReport for ToyReport {
//! #     fn world(&self) -> &World { unimplemented!() }
//! #     fn fault_log(&self) -> &FaultLog { unimplemented!() }
//! #     fn metrics(&self) -> &MetricsReport { unimplemented!() }
//! #     fn packets(&self) -> usize { 0 }
//! #     fn completed_units(&self) -> u64 { self.0 }
//! # }
//! # struct Toy;
//! # impl Scenario for Toy {
//! #     type Config = u64;
//! #     type Report = ToyReport;
//! #     const NAME: &'static str = "toy";
//! #     fn run_with(cfg: &u64, seed: u64, _o: &RunOptions) -> ToyReport {
//! #         ToyReport(cfg.wrapping_add(seed))
//! #     }
//! # }
//! let sweep = SweepBuilder::new(42).worlds(16);
//! let opts = RunOptions::new();
//! let par = Toy::sweep(&7, &sweep, &ParallelExecutor::new(), &opts);
//! let seq = Toy::sweep(&7, &sweep, &SequentialExecutor, &opts);
//! assert_eq!(
//!     par.results().map(|r| r.completed_units()).collect::<Vec<_>>(),
//!     seq.results().map(|r| r.completed_units()).collect::<Vec<_>>(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcp_core::sweep::{SweepBuilder, SweepExecutor, SweepJob};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

/// The rayon-backed executor: runs sweep jobs across threads, gathering
/// results in job order (rayon's indexed collect), so the downstream
/// reduction sees exactly what
/// [`SequentialExecutor`](dcp_core::SequentialExecutor) would produce.
#[derive(Debug, Default)]
pub struct ParallelExecutor {
    /// `Some` pins the thread count; `None` defers to rayon's ambient
    /// default (`RAYON_NUM_THREADS`, then available parallelism).
    pool: Option<ThreadPool>,
}

impl ParallelExecutor {
    /// An executor using rayon's default thread count
    /// (`RAYON_NUM_THREADS` env var, then available parallelism).
    pub fn new() -> Self {
        ParallelExecutor::default()
    }

    /// An executor capped at `threads` worker threads (`0` = default,
    /// same as [`new`](ParallelExecutor::new)). The cap changes wall
    /// clock only, never results.
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            return ParallelExecutor::new();
        }
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool build");
        ParallelExecutor { pool: Some(pool) }
    }

    /// The executor honoring `builder`'s
    /// [`thread_cap`](SweepBuilder::thread_cap).
    pub fn for_builder(builder: &SweepBuilder) -> Self {
        ParallelExecutor::with_threads(builder.thread_cap())
    }

    /// The number of threads this executor will use.
    pub fn num_threads(&self) -> usize {
        match &self.pool {
            Some(pool) => pool.current_num_threads(),
            None => rayon::current_num_threads(),
        }
    }
}

impl SweepExecutor for ParallelExecutor {
    fn execute<T: Send>(&self, jobs: &[SweepJob], f: &(dyn Fn(&SweepJob) -> T + Sync)) -> Vec<T> {
        let run = || jobs.into_par_iter().map(f).collect();
        match &self.pool {
            Some(pool) => pool.install(run),
            None => run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_core::sweep::derive_seed;
    use dcp_core::SequentialExecutor;
    use serde::Serialize as _;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn toy(job: &SweepJob) -> u64 {
        // Thread-order sensitive if anything leaked: a nontrivial mix of
        // index and seed.
        (0..200).fold(job.seed ^ job.index, |acc, k| {
            acc.wrapping_mul(6364136223846793005).wrapping_add(k)
        })
    }

    #[test]
    fn parallel_matches_sequential_at_every_thread_cap() {
        let builder = SweepBuilder::new(0xdecaf).worlds(33);
        let seq = builder.run_on(&SequentialExecutor, toy);
        for threads in [0usize, 1, 2, 4, 8] {
            let par = builder.run_on(&ParallelExecutor::with_threads(threads), toy);
            assert_eq!(par, seq, "divergence at {threads} threads");
        }
    }

    #[test]
    fn report_json_is_byte_identical() {
        let builder = SweepBuilder::new(31337).worlds(17).threads(4);
        let summarize = |e: &dcp_core::SweepEntry<u64>| e.result;
        let seq = builder.run_on(&SequentialExecutor, toy).report(summarize);
        let par = builder
            .run_on(&ParallelExecutor::for_builder(&builder), toy)
            .report(summarize);
        assert_eq!(seq.serialize_value(), par.serialize_value());
        assert_eq!(
            serde_json::to_string_pretty(&seq).unwrap(),
            serde_json::to_string_pretty(&par).unwrap()
        );
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let builder = SweepBuilder::new(1).worlds(50).threads(4);
        let calls = AtomicUsize::new(0);
        let run = builder.run_on(&ParallelExecutor::for_builder(&builder), |job| {
            calls.fetch_add(1, Ordering::Relaxed);
            job.index
        });
        assert_eq!(calls.load(Ordering::Relaxed), 50);
        assert_eq!(run.into_results(), (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn seeds_are_derived_not_chained() {
        let builder = SweepBuilder::new(77).worlds(8).threads(3);
        let run = builder.run_on(&ParallelExecutor::for_builder(&builder), |job| job.seed);
        for (i, seed) in run.into_results().into_iter().enumerate() {
            assert_eq!(seed, derive_seed(77, i as u64));
        }
    }

    #[test]
    fn thread_cap_is_honored() {
        assert_eq!(ParallelExecutor::with_threads(3).num_threads(), 3);
        assert!(ParallelExecutor::new().num_threads() >= 1);
    }
}
