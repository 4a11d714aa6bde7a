//! Dispatch-loop overhead of the fault-injection hooks.
//!
//! The design claim (see docs/DST_GUIDE.md): with faults disabled the
//! injector is never constructed, so every `buggify!` site costs one
//! `Option` branch — the same scenario with and without `enable_faults`
//! wired in must land within noise of each other. The enabled presets
//! are benchmarked alongside for scale.

use criterion::{criterion_group, criterion_main, Criterion};
use decoupling::Scenario as _;
use decoupling::{FaultConfig, Mixnet, MixnetConfig, RunOptions};

fn run(config: MixnetConfig) -> decoupling::mixnet::MixnetReport {
    Mixnet::run(&config, config.seed)
}

fn run_faulted(config: MixnetConfig, faults: &FaultConfig) -> decoupling::mixnet::MixnetReport {
    Mixnet::run_with(&config, config.seed, &RunOptions::with_faults(faults))
}

fn config(seed: u64) -> MixnetConfig {
    MixnetConfig {
        senders: 8,
        mixes: 2,
        batch_size: 4,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: None,
        seed,
    }
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("faults-overhead");
    g.sample_size(20);

    // Baseline: the plain entry point (delegates to calm — injector off).
    let mut seed = 0u64;
    g.bench_function("mixnet-plain", |b| {
        b.iter(|| {
            seed += 1;
            run(config(seed))
        })
    });

    // Explicit calm: same path through run_faulted, injector still
    // never constructed. Must match mixnet-plain within noise.
    let mut seed = 0u64;
    g.bench_function("mixnet-faults-disabled", |b| {
        b.iter(|| {
            seed += 1;
            run_faulted(config(seed), &FaultConfig::calm())
        })
    });

    for (name, faults) in [
        ("mixnet-moderate", FaultConfig::moderate()),
        ("mixnet-chaos", FaultConfig::chaos()),
    ] {
        let mut seed = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                seed += 1;
                run_faulted(config(seed), &faults)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dispatch_overhead);
criterion_main!(benches);
