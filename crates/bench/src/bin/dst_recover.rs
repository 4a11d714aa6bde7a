//! Multi-seed harsh-preset recovery sweep over every §3 scenario plus
//! Ech — the CI completion-bar probe.
//!
//! Runs the harsh recovery probe
//! ([`decoupling::faults::dst::sweep_recovery_probe_for`]) at `--worlds`
//! derived seeds per scenario: each world is a recovered fault-free
//! baseline plus a recovered `FaultConfig::harsh()` run, asserting that
//! every work unit completes, that the knowledge tables are byte-identical
//! to the baseline, and that no two attempts of one request share a
//! ciphertext. The combined [`RecoverySweepReport`]s are written as JSON;
//! CI runs the binary twice — once `--sequential`, once parallel with
//! `RAYON_NUM_THREADS=2` — and requires the two files to be
//! **byte-identical**.
//!
//! ```text
//! dst_recover [--worlds N] [--threads N] [--seed S] [--sequential]
//!             [--backend fast|reference] [--out PATH]
//! ```

use decoupling::faults::dst::{sweep_recovery_probe_for, RecoverySweepReport};
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
        worlds: 4,
        threads: 0,
        seed: 20230402,
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

fn sweep_all(builder: &SweepBuilder, exec: &impl SweepExecutor) -> Vec<RecoverySweepReport> {
    // The same small workloads tests/dst_scenarios.rs smokes, plus Ech.
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
        sweep_recovery_probe_for::<decoupling::Blindcash, _>(
            &decoupling::BlindcashConfig::new(2, 2, 512),
            builder,
            exec,
        ),
        sweep_recovery_probe_for::<decoupling::Mixnet, _>(&mixnet, builder, exec),
        sweep_recovery_probe_for::<decoupling::Privacypass, _>(
            &decoupling::PrivacypassConfig::new(3, 2),
            builder,
            exec,
        ),
        sweep_recovery_probe_for::<decoupling::Odoh, _>(
            &decoupling::OdohConfig::new(3, 4),
            builder,
            exec,
        ),
        sweep_recovery_probe_for::<decoupling::Pgpp, _>(&pgpp, builder, exec),
        sweep_recovery_probe_for::<decoupling::Mpr, _>(&mpr, builder, exec),
        sweep_recovery_probe_for::<decoupling::Ppm, _>(&ppm, builder, exec),
        sweep_recovery_probe_for::<decoupling::Vpn, _>(
            &decoupling::VpnConfig::new(3, 2),
            builder,
            exec,
        ),
        sweep_recovery_probe_for::<decoupling::Ech, _>(
            &decoupling::EchConfig::default().ech(true),
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
            "{:<12} worlds={} harsh-complete={}/{} units={} faults={}",
            r.scenario, r.worlds, r.completed_harsh, r.worlds, r.completed_units, r.total_faults
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
