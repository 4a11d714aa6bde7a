//! Dispatch-loop overhead of the observability hooks.
//!
//! The design claim (see docs/OBSERVABILITY.md): with no sink installed,
//! every emission site reduces to one `Option` branch — `World::obs` is
//! `None`, the event enum is never even constructed. So the same scenario
//! run plain and run through `run_with` + `observe: false` must land
//! within noise of each other. The instrumented run is benchmarked
//! alongside to price the enabled path (event construction + sink fold).

use criterion::{criterion_group, criterion_main, Criterion};
use decoupling::Scenario as _;
use decoupling::{Odoh, OdohConfig, RunOptions};

fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs-overhead");
    g.sample_size(20);
    let cfg = OdohConfig::new(2, 5);

    // Baseline: the plain entry point (RunOptions::default — no sink).
    let mut seed = 0u64;
    g.bench_function("odoh-plain", |b| {
        b.iter(|| {
            seed += 1;
            Odoh::run(&cfg, seed)
        })
    });

    // Explicit observe=false through the full RunOptions path: the sink
    // is still never installed. Must match odoh-plain within noise.
    let mut seed = 0u64;
    g.bench_function("odoh-sink-disabled", |b| {
        b.iter(|| {
            seed += 1;
            Odoh::run_with(&cfg, seed, &RunOptions::default())
        })
    });

    // Enabled path: every message, crypto op, span, and knowledge event
    // is constructed and folded into the MetricsReport.
    let mut seed = 0u64;
    g.bench_function("odoh-instrumented", |b| {
        b.iter(|| {
            seed += 1;
            Odoh::run_with(&cfg, seed, &RunOptions::observed())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
