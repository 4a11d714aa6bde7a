//! Population-scale world runner: drives `dcp-worlds` engines at 10⁶
//! users / 10⁸ events, measures throughput, exercises checkpoint/resume,
//! and runs the real scenario wirings at population smoke scale.
//!
//! Modes (composable flags, hand-rolled parsing — no CLI dep):
//!
//! ```text
//! cargo run --release -p dcp-bench --bin worlds -- \
//!     --preset odoh --users 1000000 --names 100000 --rate 0.5 \
//!     --duration-s 40 --out out/world_odoh.json
//!
//! --bench                 run the throughput battery (3 presets, fastest
//!                         of 5 interleaved rounds) and write
//!                         out/BENCH_throughput.json
//! --verify-resume         straight-through vs checkpoint/resume byte-diff,
//!                         and the restored engine's checkpoint vs the bytes
//! --smoke                 10⁴ users through the real ODoH wiring
//!                         (PopulationScenario, streaming metrics)
//! --checkpoint-at N       pause after N events, write out/world.ckpt,
//!                         restore from bytes, continue
//! ```

use std::time::Instant;

use dcp_worlds::{Engine, PopulationScenario, Topology, WorldSpec};
use serde::Serialize;

#[derive(Clone, Debug)]
struct Args {
    preset: String,
    users: u64,
    names: u64,
    rate_hz: f64,
    duration_us: u64,
    seed: u64,
    max_events: u64,
    checkpoint_at: u64,
    out: Option<String>,
    bench: bool,
    verify_resume: bool,
    smoke: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            preset: "odoh".into(),
            users: 100_000,
            names: 10_000,
            rate_hz: 0.5,
            duration_us: 20_000_000,
            seed: 20221114,
            max_events: u64::MAX,
            checkpoint_at: 0,
            out: None,
            bench: false,
            verify_resume: false,
            smoke: false,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--preset" => args.preset = val("--preset"),
            "--users" => args.users = val("--users").parse().expect("--users"),
            "--names" => args.names = val("--names").parse().expect("--names"),
            "--rate" => args.rate_hz = val("--rate").parse().expect("--rate"),
            "--duration-s" => {
                let s: f64 = val("--duration-s").parse().expect("--duration-s");
                args.duration_us = (s * 1e6) as u64;
            }
            "--seed" => args.seed = val("--seed").parse().expect("--seed"),
            "--max-events" => args.max_events = val("--max-events").parse().expect("--max-events"),
            "--checkpoint-at" => {
                args.checkpoint_at = val("--checkpoint-at").parse().expect("--checkpoint-at")
            }
            "--out" => args.out = Some(val("--out")),
            "--bench" => args.bench = true,
            "--verify-resume" => args.verify_resume = true,
            "--smoke" => args.smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn spec_of(a: &Args) -> WorldSpec {
    WorldSpec::new()
        .users(a.users)
        .names(a.names)
        .rate_hz(a.rate_hz)
        .duration_us(a.duration_us)
}

fn write_out(path: &str, json: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("mkdir out");
    }
    std::fs::write(path, json).expect("write output");
    println!("wrote {path}");
}

#[derive(Serialize)]
struct ThroughputRow {
    scenario: String,
    users: u64,
    events: u64,
    messages: u64,
    queries: u64,
    /// The fastest round's engine wall time; the rates derive from it.
    wall_ms: u64,
    wall_ms_min: u64,
    wall_ms_max: u64,
    events_per_sec: u64,
    sim_messages_per_sec: u64,
}

#[derive(Serialize)]
struct ThroughputRecord {
    bench: &'static str,
    source: &'static str,
    command: &'static str,
    host: String,
    rounds: usize,
    results: Vec<ThroughputRow>,
    note: &'static str,
}

fn run_one(preset: &str, spec: &WorldSpec, seed: u64) -> (dcp_worlds::PopReport, u64) {
    let topo = Topology::by_name(preset).unwrap_or_else(|| panic!("unknown preset {preset}"));
    let mut engine = Engine::new(spec, &topo, seed).expect("engine");
    let t0 = Instant::now();
    engine.run_to_end();
    (engine.report(), t0.elapsed().as_millis() as u64)
}

/// Rounds of the battery: one run of a preset moves with the host's
/// load, so each row records the fastest of this many, interleaved, which
/// drops the bursts of outside load shorter than a round.
const BENCH_ROUNDS: usize = 5;

fn bench_battery(seed: u64) {
    // Three contrasting wirings at identical population scale: the
    // coupled baseline, the light decoupled path, the heavy mix path.
    let presets = ["direct", "odoh", "mixnet"];
    let spec = WorldSpec::new()
        .users(100_000)
        .names(10_000)
        .rate_hz(1.0)
        .duration_us(20_000_000);
    let mut reports: Vec<Option<dcp_worlds::PopReport>> = vec![None; presets.len()];
    let mut walls = vec![Vec::with_capacity(BENCH_ROUNDS); presets.len()];
    for round in 0..BENCH_ROUNDS {
        for (i, preset) in presets.iter().enumerate() {
            let (report, wall_ms) = run_one(preset, &spec, seed);
            println!("round {round} {preset:8} wall={wall_ms} ms");
            match &reports[i] {
                Some(first) => assert_eq!(
                    &report, first,
                    "{preset}: round {round}'s report differs from the first run's"
                ),
                None => reports[i] = Some(report),
            }
            walls[i].push(wall_ms);
        }
    }
    let mut rows = Vec::new();
    for ((preset, report), walls) in presets.iter().zip(reports).zip(walls) {
        let report = report.expect("every preset ran");
        let wall_ms = walls.iter().copied().min().expect("every preset ran");
        let wall_ms_max = walls.iter().copied().max().expect("every preset ran");
        let secs = (wall_ms as f64 / 1000.0).max(1e-9);
        println!(
            "{preset:12} events={:>12} messages={:>12} wall={wall_ms} ms [up to {wall_ms_max}]  ({:.1}M events/s)",
            report.events,
            report.messages,
            report.events as f64 / secs / 1e6,
        );
        rows.push(ThroughputRow {
            scenario: preset.to_string(),
            users: spec.users,
            events: report.events,
            messages: report.messages,
            queries: report.queries_sent,
            wall_ms,
            wall_ms_min: wall_ms,
            wall_ms_max,
            events_per_sec: (report.events as f64 / secs) as u64,
            sim_messages_per_sec: (report.messages as f64 / secs) as u64,
        });
    }
    let record = ThroughputRecord {
        bench: "worlds-throughput",
        source: "crates/bench/src/bin/worlds.rs",
        command: "cargo run --release -p dcp-bench --bin worlds -- --bench",
        host: format!(
            "nproc={}",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        rounds: BENCH_ROUNDS,
        results: rows,
        note: "population engine: hop transits wait in a FIFO lane, batch flushes on the \
               hierarchical timer wheel, and arrivals are one merged stream with one pending \
               arrival, drawn ahead on a producer thread; each row is the fastest (with min \
               and max) of `rounds` interleaved runs, every run's report equal to the first; \
               sim_messages_per_sec = simulated protocol messages per wall-clock second",
    };
    write_out(
        "out/BENCH_throughput.json",
        &serde_json::to_string_pretty(&record).unwrap(),
    );
}

fn verify_resume(a: &Args) {
    let spec = spec_of(a);
    let topo = Topology::by_name(&a.preset).expect("preset");

    let mut straight = Engine::new(&spec, &topo, a.seed).expect("engine");
    straight.run_to_end();
    let want = serde_json::to_string_pretty(&straight.report()).unwrap();

    let mut paused = Engine::new(&spec, &topo, a.seed).expect("engine");
    let half = straight.events_processed() / 2;
    paused.run_until_events(half);
    let bytes = paused.checkpoint();
    drop(paused);
    let mut resumed = Engine::restore(&bytes).expect("restore");
    // A checkpoint records the event loop's position, so the restored
    // engine's own checkpoint is the same bytes.
    if resumed.checkpoint() != bytes {
        eprintln!("CHECKPOINT MISMATCH: the restored engine's checkpoint differs from the bytes it was restored from");
        std::process::exit(1);
    }
    resumed.run_to_end();
    let got = serde_json::to_string_pretty(&resumed.report()).unwrap();

    if want == got {
        println!(
            "resume OK: {} bytes of checkpoint at event {half}, re-checkpointed identically, report byte-identical",
            bytes.len()
        );
    } else {
        eprintln!("RESUME MISMATCH\n--- straight ---\n{want}\n--- resumed ---\n{got}");
        std::process::exit(1);
    }
}

fn smoke() {
    // The real ODoH wiring (protocol bytes, HPKE, the full simulator) at
    // population smoke scale, under the bounded-memory profile.
    use dcp_core::ScenarioReport as _;
    let spec = WorldSpec::new()
        .users(10_000)
        .names(2_000)
        .rate_hz(0.2)
        .duration_us(5_000_000);
    let t0 = Instant::now();
    let report = decoupling::Odoh::run_population(&spec, 20221114);
    let wall = t0.elapsed();
    assert!(report.completed_units() > 0, "smoke must answer queries");
    assert!(
        report.trace.is_empty(),
        "population profile must not retain the packet trace"
    );
    assert!(
        report.metrics.spans.is_empty(),
        "population profile must stream metrics, not itemise them"
    );
    println!(
        "population smoke OK: {} users, {} queries answered, {} span kinds streamed, {:.1}s wall",
        spec.users,
        report.completed_units(),
        report.metrics.span_stats.len(),
        wall.as_secs_f64()
    );
}

fn main() {
    let a = parse_args();
    if a.bench {
        bench_battery(a.seed);
        return;
    }
    if a.verify_resume {
        verify_resume(&a);
        return;
    }
    if a.smoke {
        smoke();
        return;
    }

    let spec = spec_of(&a);
    let topo = Topology::by_name(&a.preset).expect("preset");
    println!(
        "world: preset={} users={} names={} rate={}Hz duration={}s seed={}",
        a.preset,
        spec.users,
        spec.names,
        spec.rate_hz,
        spec.duration_us / 1_000_000,
        a.seed
    );
    let mut engine = Engine::new(&spec, &topo, a.seed).expect("engine");
    let t0 = Instant::now();

    if a.checkpoint_at > 0 {
        engine.run_until_events(a.checkpoint_at);
        let bytes = engine.checkpoint();
        write_out("out/world.ckpt", "");
        std::fs::write("out/world.ckpt", &bytes).expect("write checkpoint");
        println!(
            "checkpoint at event {}: {} bytes -> out/world.ckpt (restoring and continuing)",
            engine.events_processed(),
            bytes.len()
        );
        engine = Engine::restore(&bytes).expect("restore");
    }
    let done = engine.run_until_events(a.max_events);
    let wall = t0.elapsed().as_secs_f64();
    let report = engine.report();
    println!(
        "{} events ({}), {} messages, {} queries answered, {:.1}s wall, {:.1}M events/s",
        report.events,
        if done { "drained" } else { "event budget hit" },
        report.messages,
        report.queries_answered,
        wall,
        report.events as f64 / wall.max(1e-9) / 1e6
    );
    let json = serde_json::to_string_pretty(&report).unwrap();
    match &a.out {
        Some(path) => write_out(path, &json),
        None => println!("{json}"),
    }
}
