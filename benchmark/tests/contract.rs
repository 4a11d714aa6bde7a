//! The benchmark's contract, at toy size (`--check`): every workload
//! passes its correctness gates and emits exactly the metrics that
//! `BENCHMARK.json` names, each with its unit, end-to-end ones nonzero;
//! the seed drives the inputs.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;

use json::Json;

const WORKLOADS: [&str; 5] = [
    "sim-odoh",
    "sim-vpn",
    "sim-odoh-harsh",
    "pop-mixnet",
    "serve-odoh",
];

fn spec() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// Run one workload at toy size; returns the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_dcp-benchmark"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.2",
            "--trace",
            if trace { "1" } else { "0" },
            "--check",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn expected(kind: &str) -> Vec<(String, String)> {
    spec()
        .get(kind)
        .expect("metric list")
        .as_array()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_gates() {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .as_array()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = expected(kind);
        for w in WORKLOADS {
            let r = run(w, 7, trace);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{w} {kind}");
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            let got = r.get("metrics").expect("metrics").as_object();
            let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got_names, want_names, "{w} {kind}");
            for ((name, m), (_, unit)) in got.iter().zip(&want) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{w} {name}"
                );
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{w} {name} = {v}");
                if !trace {
                    assert!(v > 0.0, "{w} end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn the_seed_drives_the_inputs() {
    // The checkpoint of the first world, taken halfway, is a function of
    // that world's generated population alone.
    let checkpoint_bytes = |seed| {
        let r = run("pop-mixnet", seed, true);
        let m = r.get("metrics").expect("metrics");
        m.get("worlds.checkpoint_bytes")
            .and_then(|e| e.get("value"))
            .and_then(Json::as_f64)
            .expect("checkpoint size")
    };
    let (a, b) = (checkpoint_bytes(3), checkpoint_bytes(4));
    assert_ne!(a, b, "another seed generates another population");
    assert_eq!(
        a,
        checkpoint_bytes(3),
        "the same seed generates the same population"
    );
}
