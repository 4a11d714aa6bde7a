//! The scaffold the DST probe binaries (`dst_sweep`, `dst_recover`,
//! `dst_fleet`) share: their flags, the executor the flags pick, the
//! timing line and the JSON they write. Each binary supplies only its
//! defaults, its sweep and its summary line.
//!
//! ```text
//! PROBE [--worlds N] [--threads N] [--seed S] [--sequential]
//!       [--backend fast|reference] [--out PATH]
//! ```
//!
//! CI runs each probe twice — once `--sequential`, once parallel with
//! `RAYON_NUM_THREADS=2` — and requires the two output files to be
//! byte-identical. `--backend` selects the process-global bignum backend
//! ([`dcp_crypto::backend::set_backend`]); CI diffs the two selections
//! against each other too — the fast path must be *value*-identical, not
//! just fast. Only probes whose wirings use that backend (RSA, VOPRF,
//! prime generation) accept the flag: `dst_fleet`'s runs use none of it
//! and reject `--backend` as unknown.

use dcp_core::sweep::{SequentialExecutor, SweepBuilder, SweepExecutor, SweepJob};
use decoupling::ParallelExecutor;
use serde::Serialize;

/// The executor a probe runs on: the sequential reference under
/// `--sequential`, the parallel engine otherwise.
pub enum ProbeExecutor {
    /// [`SequentialExecutor`].
    Sequential,
    /// [`ParallelExecutor`], capped by `--threads`.
    Parallel(ParallelExecutor),
}

impl SweepExecutor for ProbeExecutor {
    fn execute<T: Send>(&self, jobs: &[SweepJob], f: &(dyn Fn(&SweepJob) -> T + Sync)) -> Vec<T> {
        match self {
            ProbeExecutor::Sequential => SequentialExecutor.execute(jobs, f),
            ProbeExecutor::Parallel(exec) => exec.execute(jobs, f),
        }
    }
}

/// Parse the probe flags, with `worlds` and `seed` as their defaults and
/// `--backend` accepted only when `backend` is set; run `sweep` on the
/// executor they pick; print one `summary` line per report and the timing
/// to stderr; and write the reports as JSON to `--out`, or to stdout
/// without it.
pub fn run_probe<R: Serialize>(
    mut worlds: u64,
    mut seed: u64,
    backend: bool,
    sweep: impl FnOnce(&SweepBuilder, &ProbeExecutor) -> Vec<R>,
    summary: impl Fn(&R) -> String,
) {
    let mut threads = 0;
    let mut sequential = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--worlds" => worlds = value("--worlds").parse().expect("--worlds: integer"),
            "--threads" => threads = value("--threads").parse().expect("--threads: integer"),
            "--seed" => seed = value("--seed").parse().expect("--seed: integer"),
            "--sequential" => sequential = true,
            "--backend" if backend => {
                let raw = value("--backend");
                let kind = dcp_crypto::backend::BackendKind::parse(&raw)
                    .unwrap_or_else(|| panic!("--backend: expected fast|reference, got {raw}"));
                dcp_crypto::backend::set_backend(kind);
            }
            "--out" => out = Some(value("--out")),
            other => panic!("unknown flag {other} (see the binary's docs for usage)"),
        }
    }

    let builder = SweepBuilder::new(seed).worlds(worlds).threads(threads);
    let exec = if sequential {
        ProbeExecutor::Sequential
    } else {
        ProbeExecutor::Parallel(ParallelExecutor::for_builder(&builder))
    };
    let started = std::time::Instant::now();
    let reports = sweep(&builder, &exec);
    let elapsed = started.elapsed();

    for r in &reports {
        eprintln!("{}", summary(r));
    }
    let (mode, threads) = match &exec {
        ProbeExecutor::Sequential => ("sequential", 1),
        ProbeExecutor::Parallel(exec) => ("parallel", exec.num_threads()),
    };
    eprintln!(
        "mode={mode} threads={threads} elapsed={:.2}s",
        elapsed.as_secs_f64()
    );

    match &out {
        Some(path) => {
            dcp_obs::write_json(&reports, path).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => println!("{}", dcp_obs::to_json(&reports)),
    }
}
