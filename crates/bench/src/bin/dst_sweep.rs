//! Multi-seed DST smoke sweep over every §3 scenario — the CI
//! determinism probe.
//!
//! Runs the full fault-preset battery
//! ([`decoupling::faults::dst::sweep_scenario_for`]) at `--worlds`
//! derived seeds for each of the ten scenarios and writes the combined
//! [`DstSweepReport`]s as JSON. The point of the binary is the diff: CI
//! runs it twice — once `--sequential`, once parallel with
//! `RAYON_NUM_THREADS=2` — and requires the two output files to be
//! **byte-identical**. Any nondeterminism smuggled into the engine, a
//! scenario, or the aggregation shows up as a diff.
//!
//! ```text
//! dst_sweep [--worlds N] [--threads N] [--seed S] [--sequential]
//!           [--backend fast|reference] [--out PATH]
//! ```
//!
//! `--backend` selects the process-global bignum backend
//! ([`dcp_crypto::backend::set_backend`]); CI diffs the two selections
//! against each other too — the fast path must be *value*-identical,
//! not just fast.

use decoupling::faults::dst::{sweep_scenario_for, DstSweepReport};
use decoupling::{ParallelExecutor, SequentialExecutor, SweepBuilder, SweepExecutor};

struct Args {
    worlds: u64,
    threads: usize,
    seed: u64,
    sequential: bool,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        worlds: 3,
        threads: 0,
        seed: 20221114,
        sequential: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--worlds" => args.worlds = value("--worlds").parse().expect("--worlds: integer"),
            "--threads" => args.threads = value("--threads").parse().expect("--threads: integer"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--sequential" => args.sequential = true,
            "--backend" => {
                let raw = value("--backend");
                let kind = dcp_crypto::backend::BackendKind::parse(&raw)
                    .unwrap_or_else(|| panic!("--backend: expected fast|reference, got {raw}"));
                dcp_crypto::backend::set_backend(kind);
            }
            "--out" => args.out = Some(value("--out")),
            other => panic!("unknown flag {other} (see the module docs for usage)"),
        }
    }
    args
}

fn sweep_all(builder: &SweepBuilder, exec: &impl SweepExecutor) -> Vec<DstSweepReport> {
    // The same small workloads tests/dst_scenarios.rs smokes.
    let mixnet = decoupling::MixnetConfig {
        senders: 6,
        mixes: 2,
        batch_size: 3,
        window_us: 100_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: None,
        seed: 0, // overridden by each derived harness seed
    };
    let pgpp = decoupling::PgppConfig {
        mode: decoupling::pgpp::Mode::Pgpp,
        users: 5,
        cells: 2,
        epochs: 2,
        moves_per_epoch: 2,
        seed: 0,
    };
    let mpr = decoupling::ChainConfig {
        relays: 2,
        users: 3,
        fetches_each: 2,
        geohint: false,
        seed: 0,
    };
    let ppm = decoupling::PpmConfig {
        clients: 5,
        bits: 4,
        malicious: 0,
        seed: 0,
    };
    vec![
        sweep_scenario_for::<decoupling::Blindcash, _>(
            &decoupling::BlindcashConfig::new(2, 2, 512),
            builder,
            exec,
        ),
        sweep_scenario_for::<decoupling::Mixnet, _>(&mixnet, builder, exec),
        sweep_scenario_for::<decoupling::Privacypass, _>(
            &decoupling::PrivacypassConfig::new(3, 2),
            builder,
            exec,
        ),
        sweep_scenario_for::<decoupling::Odoh, _>(
            &decoupling::OdohConfig::new(3, 4),
            builder,
            exec,
        ),
        sweep_scenario_for::<decoupling::Pgpp, _>(&pgpp, builder, exec),
        sweep_scenario_for::<decoupling::Mpr, _>(&mpr, builder, exec),
        sweep_scenario_for::<decoupling::Ppm, _>(&ppm, builder, exec),
        sweep_scenario_for::<decoupling::Vpn, _>(&decoupling::VpnConfig::new(3, 2), builder, exec),
        sweep_scenario_for::<decoupling::odns::OdnsLegacy, _>(
            &decoupling::odns::OdnsLegacyConfig::new(3, 4),
            builder,
            exec,
        ),
        sweep_scenario_for::<decoupling::DirectDns, _>(
            &decoupling::DirectDnsConfig::new(3, 4, 2),
            builder,
            exec,
        ),
    ]
}

fn main() {
    let args = parse_args();
    let builder = SweepBuilder::new(args.seed)
        .worlds(args.worlds)
        .threads(args.threads);

    let started = std::time::Instant::now();
    let reports = if args.sequential {
        sweep_all(&builder, &SequentialExecutor)
    } else {
        sweep_all(&builder, &ParallelExecutor::for_builder(&builder))
    };
    let elapsed = started.elapsed();

    for r in &reports {
        eprintln!(
            "{:<12} worlds={} faults={} moderate-complete={}/{} new-couplings={}",
            r.scenario, r.worlds, r.total_faults, r.completed_moderate, r.worlds, r.new_couplings
        );
    }
    eprintln!(
        "mode={} threads={} elapsed={:.2}s",
        if args.sequential {
            "sequential"
        } else {
            "parallel"
        },
        if args.sequential {
            1
        } else {
            ParallelExecutor::for_builder(&builder).num_threads()
        },
        elapsed.as_secs_f64()
    );

    match &args.out {
        Some(path) => {
            dcp_obs::write_json(&reports, path).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => println!("{}", dcp_obs::to_json(&reports)),
    }
}
