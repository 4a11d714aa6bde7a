//! Population-scale properties, end to end:
//!
//! * **generator edges** (proptest) — Zipf at `s = 0` and extreme `s`,
//!   Poisson at rate 0/negative/non-finite, empty populations, and
//!   bit-for-bit sampling determinism;
//! * **thread invariance** — population engine reports are byte-identical
//!   whether worlds run sequentially or on a parallel executor at any
//!   thread count (the `RAYON_NUM_THREADS` axis of the sweep engine);
//! * **trace opt-out** (`RunOptions::record_trace`) — dropping the
//!   per-packet trace changes *nothing* except the trace itself;
//! * **streaming metrics** (`RunOptions::population`) — folded
//!   aggregates equal the itemised ones, with the unbounded vectors
//!   empty;
//! * **golden files** — every preset's reports, and digests of its
//!   checkpoints, byte for byte (`tests/golden/README.md`).

use decoupling::crypto::sha256::sha256;
use decoupling::crypto::util::hex_encode;
use decoupling::worlds::{Engine, SplitMix64, Topology, WorkloadBuilder, WorldSpec, Zipf};
use decoupling::{
    Odoh, OdohConfig, ParallelExecutor, RunOptions, Scenario, ScenarioReport as _,
    SequentialExecutor, SweepBuilder,
};
use proptest::prelude::*;

// ------------------------------------------------------ generators ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zipf_samples_stay_in_range_and_are_deterministic(
        n in 1usize..2_000,
        s in (0u32..600).prop_map(|s| f64::from(s) / 10.0),
        seed in any::<u64>(),
    ) {
        let z = Zipf::new(n, s).expect("valid population");
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..64 {
            let x = z.sample(&mut a);
            prop_assert!(x < n, "rank {x} out of population {n}");
            prop_assert_eq!(x, z.sample(&mut b), "sampling must be deterministic");
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform_and_large_exponent_is_head_heavy(
        n in 2usize..500,
        seed in any::<u64>(),
    ) {
        let uniform = Zipf::new(n, 0.0).unwrap();
        let peaked = Zipf::new(n, 50.0).unwrap();
        let mut rng = SplitMix64::new(seed);
        let mut head_uniform = 0u32;
        let mut head_peaked = 0u32;
        for _ in 0..256 {
            head_uniform += (uniform.sample(&mut rng) == 0) as u32;
            head_peaked += (peaked.sample(&mut rng) == 0) as u32;
        }
        // s=50 concentrates essentially all mass on rank 0; s=0 gives it
        // ~256/n. A generous margin keeps the test seed-stable.
        prop_assert!(head_peaked >= 250, "peaked head hits: {head_peaked}");
        if n >= 16 {
            prop_assert!(head_uniform <= 128, "uniform head hits: {head_uniform}");
        }
    }

    #[test]
    fn workload_arrivals_advance_and_respect_zero_rate(
        users in 1u64..200,
        rate in prop_oneof![Just(0.0), (1u32..500).prop_map(|r| f64::from(r) / 100.0)],
        seed in any::<u64>(),
    ) {
        let spec = WorldSpec::new().users(users).names(16).rate_hz(rate);
        let workload = WorkloadBuilder::new(&spec).build().unwrap();
        let mut rng = SplitMix64::new(seed);
        let (mut clock, end) = (1_000.0, 1u64 << 52);
        let next = workload.next_arrival(&mut clock, end, &mut rng);
        if rate == 0.0 {
            prop_assert!(next.is_none(), "zero rate must produce no arrivals");
            prop_assert_eq!(clock, end as f64, "a silent stream ends at once");
        } else {
            let t = next.unwrap();
            prop_assert!(t >= 1_000 && t < end, "arrivals advance time");
            prop_assert_eq!(t as f64, clock.ceil(), "at the clock, rounded up");
            let later = workload.next_arrival(&mut clock, end, &mut rng);
            prop_assert!(later.is_none_or(|u| u >= t), "and never go back");
        }
    }
}

#[test]
fn empty_populations_are_rejected_not_degenerate() {
    assert!(Zipf::new(0, 1.0).is_none());
    assert!(Zipf::new(10, f64::NAN).is_none());
    assert!(Zipf::new(10, -1.0).is_none());
    assert!(WorkloadBuilder::new(&WorldSpec::new().users(0))
        .build()
        .is_err());
    assert!(WorkloadBuilder::new(&WorldSpec::new().names(0))
        .build()
        .is_err());
}

// ------------------------------------------- thread-count invariance --

/// One population world per sweep seed; the report must not depend on
/// which executor (or how many threads) ran it.
#[test]
fn population_reports_are_identical_across_thread_counts() {
    fn run_all<X: decoupling::SweepExecutor>(spec: &WorldSpec, exec: &X) -> String {
        let builder = SweepBuilder::new(20221114).worlds(4);
        let run = builder.run_on(exec, |job| {
            let mut e = Engine::new(spec, &Topology::odoh(), job.seed).unwrap();
            e.run_to_end();
            e.report()
        });
        decoupling::obs::to_json(&run.entries.iter().map(|e| &e.result).collect::<Vec<_>>())
    }
    let spec = WorldSpec::smoke()
        .users(60)
        .names(30)
        .duration_us(1_000_000);
    let sequential = run_all(&spec, &SequentialExecutor);
    for threads in [1, 2, 3] {
        let parallel = run_all(&spec, &ParallelExecutor::with_threads(threads));
        assert_eq!(
            sequential, parallel,
            "population sweep diverged at {threads} threads"
        );
    }
}

// ------------------------------------------------- trace opt-out ------

#[test]
fn trace_opt_out_changes_nothing_but_the_trace() {
    let cfg = OdohConfig::new(3, 4);
    let with_trace = Odoh::run_with(&cfg, 7, &RunOptions::observed());
    let without_opts = RunOptions {
        record_trace: false,
        ..RunOptions::observed()
    };
    let without = Odoh::run_with(&cfg, 7, &without_opts);

    assert!(!with_trace.trace.is_empty(), "default records the trace");
    assert!(without.trace.is_empty(), "opt-out drops the trace");
    assert_eq!(with_trace.completed_units(), without.completed_units());
    assert_eq!(
        decoupling::obs::to_json(&with_trace.metrics),
        decoupling::obs::to_json(&without.metrics),
        "metrics must not depend on trace recording"
    );
    assert_eq!(
        decoupling::faults::dst::KnowledgeFingerprint::of(with_trace.world()),
        decoupling::faults::dst::KnowledgeFingerprint::of(without.world()),
        "knowledge must not depend on trace recording"
    );
}

// ---------------------------------------------- streaming metrics -----

#[test]
fn streaming_metrics_match_itemised_aggregates() {
    let cfg = OdohConfig::new(3, 4);
    let itemised = Odoh::run_with(&cfg, 9, &RunOptions::observed());
    let streamed = Odoh::run_with(&cfg, 9, &RunOptions::population());

    // The population profile keeps no unbounded vectors…
    assert!(streamed.metrics.spans.is_empty());
    assert!(streamed.metrics.knowledge.is_empty());
    assert!(streamed.trace.is_empty());
    // …but every folded aggregate matches the itemised run exactly.
    assert_eq!(itemised.metrics.span_stats, streamed.metrics.span_stats);
    assert_eq!(
        itemised.metrics.knowledge_by_entity,
        streamed.metrics.knowledge_by_entity
    );
    assert_eq!(
        itemised.metrics.messages_sent,
        streamed.metrics.messages_sent
    );
    assert_eq!(
        itemised.metrics.messages_delivered,
        streamed.metrics.messages_delivered
    );
    assert_eq!(itemised.completed_units(), streamed.completed_units());
}

// ------------------------------------------------ golden reports ------

/// The golden files' two sizes: the smoke spec, and a high-rate spec
/// (1,000 users × 100 Hz × 0.2 s) whose hop transits often fall due in
/// the same µs as an arrival or a batch flush, so any change to the
/// engine's `(time, seq)` order shows.
fn golden_sizes() -> [(&'static str, WorldSpec); 2] {
    [
        ("smoke", WorldSpec::smoke()),
        (
            "high-rate",
            WorldSpec::smoke()
                .users(1_000)
                .rate_hz(100.0)
                .duration_us(200_000),
        ),
    ]
}

/// Every preset × seeds 1–3 at both golden sizes.
fn golden_reports() -> String {
    let mut reports = Vec::new();
    for (_, spec) in &golden_sizes() {
        for name in Topology::preset_names() {
            for seed in 1..=3 {
                let topo = Topology::by_name(name).unwrap();
                let mut e = Engine::new(spec, &topo, seed).unwrap();
                e.run_to_end();
                reports.push(e.report());
            }
        }
    }
    serde_json::to_string_pretty(&reports).unwrap() + "\n"
}

/// The SHA-256 of a checkpoint of every preset × seeds 1–2 at both golden
/// sizes, taken after 0, 1, 10³, 3 × 10³ and 10⁴ events and at the end,
/// one JSON object a line.
fn golden_checkpoints() -> String {
    let mut lines = Vec::new();
    for (size, spec) in &golden_sizes() {
        for name in Topology::preset_names() {
            for seed in 1..=2 {
                let topo = Topology::by_name(name).unwrap();
                let mut e = Engine::new(spec, &topo, seed).unwrap();
                for at in [0, 1, 1_000, 3_000, 10_000, u64::MAX] {
                    e.run_until_events(at);
                    let bytes = e.checkpoint();
                    lines.push(format!(
                        "  {{\"size\": \"{size}\", \"preset\": \"{name}\", \"seed\": {seed}, \
                         \"events\": {}, \"bytes\": {}, \"sha256\": \"{}\"}}",
                        e.events_processed(),
                        bytes.len(),
                        hex_encode(&sha256(&bytes)),
                    ));
                }
            }
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Fail unless `got` is the golden file `name` byte for byte
/// (`tests/golden/README.md`). On a difference `got` is written next to
/// the test binary's scratch files, ready to diff or, for a deliberate
/// change, to commit.
fn assert_golden(name: &str, got: &str) {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::fs::read_to_string(&path).ok().as_deref() != Some(got) {
        let out = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&out, got).unwrap();
        panic!("{path} differs from this build's output, which is in {out}");
    }
}

/// The engine's output, pinned byte for byte.
#[test]
fn population_reports_match_the_golden_file() {
    assert_golden("worlds_reports.json", &golden_reports());
}

/// The engine's checkpoints, pinned by digest: a checkpoint records the
/// event loop's position, whichever thread draws the arrival stream.
#[test]
fn population_checkpoints_match_the_golden_file() {
    assert_golden("worlds_checkpoints.json", &golden_checkpoints());
}
