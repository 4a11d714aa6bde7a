//! dcp-benchmark: one command that times the decoupling workspace end
//! to end and layer by layer, on five seeded workloads, checking the
//! knowledge tables of everything it times.
//!
//! ```text
//! dcp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--check]
//! dcp-benchmark run [--seed <n>] [--runs <k>] [--seconds <s>] [--traced] [--check] [--out <dir>]
//! dcp-benchmark compare <dir-a> <dir-b>
//! ```
//!
//! The first form measures one workload in this process and prints, as
//! its last stdout line, `{"correct", "attempted", "failed", "metrics"}`
//! with the end-to-end metrics of `BENCHMARK.json` (`--trace 0`) or its
//! per-layer metrics (`--trace 1`, which also writes
//! `out/benchmark/trace-<workload>-<seed>.json`). `run` runs every
//! workload, each in its own child process, and prints a table;
//! `compare` reads two `run --out` directories and gives a verdict per
//! workload and metric. `--check` shrinks every workload to toy size.
//! See README.md for the metric dictionary.

mod json;
mod layers;
mod pace;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use json::Json;
use pace::Pacer;
use stats::{best_by_key, median, quartiles};
use trace::Tracer;
use workloads::{Outcome, Sizes, Workload};

/// The benchmark's definition: workloads, metric names, units, bounds.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Seed used when `run` is given none. Results quoted in README.md use
/// it; 20221114 is the held-out seed for checking a claimed gain.
const DEFAULT_SEED: u64 = 1;

struct MetricDef {
    name: String,
    unit: String,
    lower_better: bool,
    bound: Option<f64>,
}

struct Spec {
    run_seconds: f64,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn spec() -> Spec {
    let doc = Json::parse(SPEC).expect("BENCHMARK.json parses");
    let metrics = |key: &str| -> Vec<MetricDef> {
        doc.get(key)
            .map(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| MetricDef {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("metric name")
                    .into(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .expect("metric unit")
                    .into(),
                lower_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds"),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    check: bool,
    runs: Option<u64>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = Some(value()?.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => a.runs = Some(value()?.parse().map_err(|_| "--runs: not a number")?),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--traced" => a.traced = true,
            "--check" => a.check = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => a.positional.push(other.to_string()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "setup-probe")) => (c, &raw[1..]),
        _ => ("workload", &raw[..]),
    };
    let result = parse_args(rest).and_then(|args| match cmd {
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "setup-probe" => cmd_setup_probe(&args),
        _ => cmd_workload(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dcp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn workload_of(args: &Args) -> Result<Workload, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn sizes(check: bool) -> Sizes {
    if check {
        Sizes::check()
    } else {
        Sizes::full()
    }
}

/// `setup-probe`: one cold set-up in this fresh process; prints seconds.
fn cmd_setup_probe(args: &Args) -> Result<bool, String> {
    let w = workload_of(args)?;
    let s = workloads::setup_once(w, &sizes(args.check), args.seed.unwrap_or(DEFAULT_SEED))?;
    println!("{s:?}");
    Ok(true)
}

/// Passes over the set-up probes. Like a unit of work, a probe keeps its
/// fastest pass: load from outside the benchmark comes in spells of
/// seconds that slow cold starts far more than warm work, so a median of
/// single set-ups follows the load whenever most of them fall in a spell.
const SETUP_PASSES: usize = 5;

/// Cold set-ups, each in a child process of its own so lazy
/// initialisation and first-touch costs are paid every time. They are
/// due at even intervals over the run, probe after probe, pass after
/// pass, so a probe's passes are a fifth of the run apart; `setup_s` is
/// the median over probes of each probe's fastest paced pass, the
/// host's pace being sampled before and after every probe.
struct SetupProbes {
    args: Vec<String>,
    probes: usize,
    due: Vec<Instant>,
    samples: Vec<f64>,
    pacer: Pacer,
    error: Option<String>,
}

impl SetupProbes {
    fn new(w: Workload, seed: u64, check: bool, probes: usize, seconds: f64) -> SetupProbes {
        let mut args = [
            "setup-probe",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ]
        .map(String::from)
        .to_vec();
        if check {
            args.push("--check".into());
        }
        let total = probes * SETUP_PASSES;
        let start = Instant::now();
        let step = Duration::from_secs_f64(seconds / total as f64);
        SetupProbes {
            args,
            probes,
            due: (0..total as u32).map(|k| start + step * k).collect(),
            samples: Vec::new(),
            pacer: Pacer::new(Duration::ZERO, w.elasticity()),
            error: None,
        }
    }

    /// Run every probe that is due by now.
    fn tick(&mut self) {
        while self.due.first().is_some_and(|&t| Instant::now() >= t) {
            self.due.remove(0);
            if let Err(e) = self.probe() {
                self.error.get_or_insert(e);
            }
        }
    }

    fn probe(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        self.pacer.tick();
        let out = Command::new(exe)
            .args(&self.args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(s) if out.status.success() => {
                self.samples.push(s);
                self.pacer.unit(s * 1e3);
                Ok(())
            }
            _ => Err(format!("setup probe failed: {}", text.trim())),
        }
    }

    /// Run the probes still outstanding, then the median over probes of
    /// each one's fastest pass, paced and (a diagnostic) wall seconds.
    fn finish(mut self) -> Result<(f64, f64), String> {
        for t in &mut self.due {
            *t = Instant::now();
        }
        self.tick();
        if let Some(e) = self.error {
            return Err(e);
        }
        let keys: Vec<usize> = (0..self.samples.len()).map(|v| v % self.probes).collect();
        let setup = |v: &[f64]| median(&best_by_key(&keys, v, self.probes, f64::min));
        let paced: Vec<f64> = self.pacer.finish().0.iter().map(|ms| ms / 1e3).collect();
        Ok((setup(&paced), setup(&self.samples)))
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Measure one workload and print its result line.
fn cmd_workload(args: &Args) -> Result<bool, String> {
    let spec = spec();
    let w = workload_of(args)?;
    let seed = args.seed.ok_or("--seed is required")?;
    let default_seconds = if args.check { 0.5 } else { spec.run_seconds };
    let seconds = args.seconds.unwrap_or(default_seconds);
    let sizes = sizes(args.check);

    let mut tracer = Tracer::new(args.trace);
    let mut probes =
        (!args.trace).then(|| SetupProbes::new(w, seed, args.check, sizes.setup_probes, seconds));
    let mut between = || {
        if let Some(p) = probes.as_mut() {
            p.tick();
        }
    };
    let mut out = workloads::measure(w, &sizes, seed, seconds, &mut tracer, &mut between);
    let setup = probes.map(SetupProbes::finish);
    let defs = if args.trace {
        let path = PathBuf::from(format!("out/benchmark/trace-{}-{seed}.json", w.name()));
        tracer
            .write(&path, w.name(), seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        for (layer, ms) in tracer.self_time_ms() {
            eprintln!("  self time {layer:<10} {ms:>10.1} ms");
        }
        &spec.per_layer
    } else {
        match setup {
            Some(Ok((paced, wall))) => {
                out.values.insert("setup_s".into(), paced);
                out.diagnostics.insert("wall_setup_s".into(), wall);
            }
            Some(Err(e)) => {
                out.failed += 1;
                out.failures.push(e);
            }
            None => {}
        }
        if let Some(mb) = peak_rss_mb() {
            out.values.insert("peak_rss_mb".into(), mb);
        }
        &spec.end_to_end
    };
    let line = result_line(w, &mut out, defs);
    for f in &out.failures {
        eprintln!("FAILED {}: {f}", w.name());
    }
    let diagnostics: Vec<(String, Value)> = out
        .diagnostics
        .iter()
        .map(|(k, v)| (k.clone(), Value::F64(*v)))
        .collect();
    println!(
        "{}",
        serde_json::to_string(&serde_json::json!({ "diagnostics": Value::Object(diagnostics) }))
            .expect("renders")
    );
    println!("{line}");
    Ok(out.failed == 0)
}

/// The result line: every metric in `defs`, by name with its unit. A
/// metric of a layer the workload does not run is 0; any other missing
/// or non-finite value is a failure of the benchmark itself.
fn result_line(w: Workload, out: &mut Outcome, defs: &[MetricDef]) -> String {
    if out.attempted == 0 {
        out.failed += 1;
        out.failures.push("no unit of work ran".into());
    }
    let mut metrics = Vec::new();
    for d in defs {
        let layer = d.name.split('.').next().unwrap_or("");
        let value = match out.values.get(&d.name) {
            Some(v) if v.is_finite() => *v,
            None if d.name.contains('.') && !w.layers().contains(&layer) => 0.0,
            other => {
                out.failed += 1;
                out.failures
                    .push(format!("metric {} not measured ({other:?})", d.name));
                0.0
            }
        };
        eprintln!("  {:<40} {value:>16.6} {}", d.name, d.unit);
        metrics.push((
            d.name.clone(),
            serde_json::json!({ "value": value, "unit": d.unit.as_str() }),
        ));
    }
    serde_json::to_string(&serde_json::json!({
        "correct": out.failed == 0,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    }))
    .expect("renders")
}

/// `run`: every workload in its own child process (so peak RSS is per
/// workload), end-to-end and optionally traced, for `--runs` seeds.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let first_seed = args.seed.unwrap_or(DEFAULT_SEED);
    let traces: &[&str] = if args.traced { &["0", "1"] } else { &["0"] };
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let mut ok = true;
    for seed in first_seed..first_seed + args.runs.unwrap_or(1) {
        for w in Workload::ALL {
            for &trace in traces {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name(), "--seed", &seed.to_string()]);
                cmd.args(["--trace", trace]);
                if let Some(s) = args.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if args.check {
                    cmd.arg("--check");
                }
                let child = cmd.output().map_err(|e| e.to_string())?;
                let text = String::from_utf8_lossy(&child.stdout).into_owned();
                let result = text.lines().last().and_then(|l| Json::parse(l).ok());
                let correct = result
                    .as_ref()
                    .and_then(|r| r.get("correct"))
                    .is_some_and(|c| *c == Json::Bool(true));
                ok &= child.status.success() && correct;
                println!(
                    "{} seed {seed} trace {trace}: {}",
                    w.name(),
                    if correct { "correct" } else { "FAILED" }
                );
                if !correct {
                    for line in String::from_utf8_lossy(&child.stderr).lines() {
                        if line.starts_with("FAILED") || line.starts_with("dcp-benchmark:") {
                            println!("  {line}");
                        }
                    }
                }
                for (name, m) in result
                    .as_ref()
                    .and_then(|r| r.get("metrics"))
                    .map_or(&[][..], Json::as_object)
                {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    println!("  {name:<40} {value:>16.6} {unit}");
                }
                if let Some(dir) = &args.out {
                    let path = dir.join(format!("{}.trace{trace}.seed{seed}.json", w.name()));
                    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
                }
            }
        }
    }
    Ok(ok)
}

/// One side of a comparison: `(workload, metric) → file name → value`.
type Side = BTreeMap<(String, String), BTreeMap<String, f64>>;

fn load_side(dir: &Path) -> Result<Side, String> {
    let mut side = Side::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let file = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or("")
            .to_string();
        let Some(workload) = file.split('.').next().filter(|_| file.ends_with(".json")) else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        for line in text.lines() {
            let Ok(doc) = Json::parse(line) else { continue };
            let mut put = |metric: &str, v: Option<f64>| {
                if let Some(v) = v {
                    side.entry((workload.to_string(), metric.to_string()))
                        .or_default()
                        .insert(file.clone(), v);
                }
            };
            for (name, m) in doc.get("metrics").map_or(&[][..], Json::as_object) {
                put(name, m.get("value").and_then(Json::as_f64));
            }
            for (name, v) in doc.get("diagnostics").map_or(&[][..], Json::as_object) {
                put(name, v.as_f64());
            }
        }
    }
    Ok(side)
}

/// The verdict rule: improved when B wins at least 9 of 10 pairs and
/// the medians differ by more than A's interquartile distance;
/// unresolved when A's own spread exceeds the bound (unless every B run
/// beats every A run); regressed when B's median is worse than A's by
/// more than the bound; otherwise within bound.
fn verdict(a: &[f64], b: &[f64], pairs: &[(f64, f64)], def: Option<&MetricDef>) -> String {
    let lower = def.is_none_or(|d| d.lower_better);
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let wins = pairs.iter().filter(|(pa, pb)| better(*pb, *pa)).count();
    let (q1, ma, q3) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let tally = format!("wins {wins}/{}", pairs.len());
    let Some(bound) = def.and_then(|d| d.bound) else {
        return format!("{tally}  (no bound)");
    };
    let verdict = if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && better(mb, ma)
        && (mb - ma).abs() > q3 - q1
    {
        "improved"
    } else {
        let worse_by = if lower {
            (mb - ma) / ma
        } else {
            (ma - mb) / ma
        };
        let every_b_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
        if (q3 - q1) / ma > bound && !every_b_better {
            "unresolved"
        } else if worse_by > bound {
            "regressed"
        } else {
            "within bound"
        }
    };
    format!("{tally}  {verdict}")
}

/// `compare A B`: per (workload, metric), each side's median and
/// quartiles, then the verdict for B against A as the parent.
fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a_dir, b_dir] = args.positional.as_slice() else {
        return Err("compare takes two directories".into());
    };
    let spec = spec();
    let (a, b) = (load_side(Path::new(a_dir))?, load_side(Path::new(b_dir))?);
    let defs: BTreeMap<&str, &MetricDef> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|d| (d.name.as_str(), d))
        .collect();
    let mut regressed = false;
    for (key, a_runs) in &a {
        let Some(b_runs) = b.get(key) else { continue };
        let pairs: Vec<(f64, f64)> = a_runs
            .iter()
            .filter_map(|(file, va)| b_runs.get(file).map(|vb| (*va, *vb)))
            .collect();
        let av: Vec<f64> = a_runs.values().copied().collect();
        let bv: Vec<f64> = b_runs.values().copied().collect();
        let (a1, am, a3) = quartiles(&av);
        let (b1, bm, b3) = quartiles(&bv);
        let v = verdict(&av, &bv, &pairs, defs.get(key.1.as_str()).copied());
        regressed |= v.ends_with("regressed");
        println!(
            "{:<15} {:<36} A {am:>12.4} [{a1:.4}, {a3:.4}]  B {bm:>12.4} [{b1:.4}, {b3:.4}]  {v}",
            key.0, key.1
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_every_workload_and_unique_metrics() {
        let doc = Json::parse(SPEC).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        let s = spec();
        let mut all: Vec<&str> = s
            .end_to_end
            .iter()
            .chain(&s.per_layer)
            .map(|d| d.name.as_str())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
        assert!(s.end_to_end.iter().all(|d| d.bound.is_some()));
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let def = MetricDef {
            name: "x".into(),
            unit: "ms".into(),
            lower_better: true,
            bound: Some(0.1),
        };
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        let same = a.clone();
        let pairs = |b: &[f64]| a.iter().copied().zip(b.iter().copied()).collect::<Vec<_>>();
        assert!(verdict(&a, &faster, &pairs(&faster), Some(&def)).ends_with("improved"));
        assert!(verdict(&a, &slower, &pairs(&slower), Some(&def)).ends_with("regressed"));
        assert!(verdict(&a, &same, &pairs(&same), Some(&def)).ends_with("within bound"));
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * i as f64).collect();
        assert!(verdict(&noisy, &noisy, &[], Some(&def)).ends_with("unresolved"));
    }
}
