//! The five workloads, their inputs, their correctness gates, and the
//! numbers each one reports.
//!
//! Every world, engine run and served query is checked while the run is
//! timed (the checks themselves sit outside the timed calls), so a
//! speed-up that changes who learns what shows up as a failure, not a
//! gain.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use dcp_core::sweep::{derive_seed, SequentialExecutor, SweepBuilder, SweepExecutor};
use dcp_core::{FaultConfig, MetricsReport, RunOptions, Scenario, ScenarioReport, World};
use dcp_faults::dst::KnowledgeFingerprint;
use dcp_obs::MetricsHandle;
use dcp_odns::serve::odoh_serve_spec;
use dcp_odns::{Odoh, OdohConfig};
use dcp_runtime::seam::{PeerId, RoleSpec, WireCtx, WireMsg, WireRole};
use dcp_serve::{run_loopback, ServeConfig};
use dcp_sweep::ParallelExecutor;
use dcp_vpn::{Vpn, VpnConfig, VpnReport};
use dcp_worlds::{Engine, PopReport, Topology, WorldSpec};

use crate::layers;
use crate::pace::Pacer;
use crate::stats::{at_lowest_by_key, best_by_key, median, quantile};
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sim(Sim),
    PopMixnet,
    ServeOdoh,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Sim(Sim::Odoh),
        Workload::Sim(Sim::Vpn),
        Workload::Sim(Sim::OdohHarsh),
        Workload::PopMixnet,
        Workload::ServeOdoh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim(Sim::Odoh) => "sim-odoh",
            Workload::Sim(Sim::Vpn) => "sim-vpn",
            Workload::Sim(Sim::OdohHarsh) => "sim-odoh-harsh",
            Workload::PopMixnet => "pop-mixnet",
            Workload::ServeOdoh => "serve-odoh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How much more than the pace kernel this workload's units slow
    /// down when the host does (see `pace`). For the simulated and
    /// population workloads, the slope of log unit time against log
    /// kernel time within a run is 1.2–1.5 (0.7–1.2 for the engine), and
    /// over ten runs taken while a spell slowed the host 1.6-fold, 1.4
    /// gave the smallest spread between runs on all four (worst 5.6%,
    /// against 14.5% at 1.0 and 41% for wall times). A served query is
    /// about half waiting on sockets and the engine's idle poll, which do
    /// not follow the host; 0.7 gave its smallest spread (4–5%, against
    /// 12% for wall times and 8% at 1.4).
    pub fn elasticity(self) -> f64 {
        match self {
            Workload::ServeOdoh => 0.7,
            _ => 1.4,
        }
    }

    /// The metric-name prefixes (layers) this workload exercises. A
    /// per-layer metric of any other layer is reported as 0: the
    /// workload does not run that layer.
    pub fn layers(self) -> &'static [&'static str] {
        match self {
            Workload::Sim(_) => &[
                "crypto",
                "transport",
                "simnet",
                "core",
                "runtime",
                "recover",
                "faults",
                "obs",
                "sweep",
            ],
            Workload::PopMixnet => &["worlds"],
            Workload::ServeOdoh => &["crypto", "transport", "core", "serve"],
        }
    }
}

/// Input sizes. `full()` is what the benchmark measures; `check()` runs
/// every workload at toy size, fast even in a debug build.
#[derive(Clone, Debug)]
pub struct Sizes {
    odoh: OdohConfig,
    odoh_worlds: u64,
    vpn: VpnConfig,
    vpn_worlds: u64,
    harsh: OdohConfig,
    harsh_worlds: u64,
    pop: WorldSpec,
    pop_worlds: u64,
    pop_slice_events: u64,
    serve: OdohConfig,
    serve_seeds: u64,
    battery_iters: u64,
    pub setup_probes: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            odoh: OdohConfig::new(2, 25),
            odoh_worlds: 80,
            vpn: VpnConfig::new(8, 50),
            vpn_worlds: 700,
            harsh: OdohConfig::new(2, 25).backup_proxies(1),
            harsh_worlds: 40,
            pop: WorldSpec::new()
                .users(100_000)
                .names(10_000)
                .rate_hz(1.0)
                .duration_us(5_000_000),
            pop_worlds: 3,
            pop_slice_events: 1_000_000,
            serve: OdohConfig::new(2, 200),
            serve_seeds: 3,
            battery_iters: 2_000,
            setup_probes: 9,
        }
    }

    pub fn check() -> Sizes {
        Sizes {
            odoh: OdohConfig::new(1, 1),
            odoh_worlds: 2,
            vpn: VpnConfig::new(1, 2),
            vpn_worlds: 2,
            harsh: OdohConfig::new(1, 4).backup_proxies(1),
            harsh_worlds: 2,
            pop: WorldSpec::smoke(),
            pop_worlds: 2,
            pop_slice_events: 1_000,
            serve: OdohConfig::new(2, 2),
            serve_seeds: 2,
            battery_iters: 10,
            setup_probes: 1,
        }
    }
}

/// What one run measured: counts for the result line, metric values by
/// name, and diagnostics that are printed but not gated.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    pub diagnostics: BTreeMap<String, f64>,
    pub failures: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn diag(&mut self, name: &str, value: f64) {
        self.diagnostics.insert(name.to_string(), value);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

fn seeds(master: u64, n: u64) -> Vec<u64> {
    (0..n).map(|i| derive_seed(master, i)).collect()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run one workload for `seconds`, tracing into `tracer` when enabled.
/// With tracing off the outcome carries the end-to-end values; with it
/// on, the per-layer values. `between` runs between units of work (the
/// caller spreads its set-up probes over the run with it).
pub fn measure(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(),
) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let root = tracer.begin("workload", w.name());
    match w {
        Workload::Sim(sim) if tracer.enabled() => {
            sim_traced(sim, sizes, seed, deadline, tracer, &mut out)
        }
        Workload::Sim(sim) => sim_plain(sim, sizes, seed, deadline, &mut out, between),
        Workload::PopMixnet => pop(sizes, seed, deadline, tracer, &mut out, between),
        Workload::ServeOdoh => serve(sizes, seed, deadline, tracer, &mut out, between),
    }
    tracer.end(root);
    out
}

/// One cold set-up, as a user pays it before the first unit of work:
/// for a simulated wiring the first (warm-up) world, for the population
/// engine `Engine::new`, for the served stack building the wiring and
/// starting it until the first client's `on_start`. Seconds.
pub fn setup_once(w: Workload, sizes: &Sizes, seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    match w {
        Workload::Sim(sim) => {
            match sim
                .run_opts(sizes, derive_seed(seed, 0), &sim.opts(false), false, None)
                .failure
            {
                None => Ok(t.elapsed().as_secs_f64()),
                Some(f) => Err(f),
            }
        }
        Workload::PopMixnet => {
            let engine = Engine::new(&sizes.pop, &Topology::mixnet(), derive_seed(seed, 0))?;
            let s = t.elapsed().as_secs_f64();
            drop(engine);
            Ok(s)
        }
        Workload::ServeOdoh => {
            let first_seed = derive_seed(seed, 0);
            let mut spec = odoh_serve_spec(&sizes.serve, first_seed);
            let first = Arc::new(OnceLock::new());
            for rs in spec
                .roles
                .iter_mut()
                .filter(|r| r.name.starts_with("client"))
            {
                rs.role = Box::new(ProbeClient(first.clone()));
            }
            run_loopback(spec, &serve_config(first_seed)).map_err(|e| e.to_string())?;
            let started = first.get().ok_or("no client started")?;
            Ok(started.duration_since(t).as_secs_f64())
        }
    }
}

// ------------------------------------------------------------ simulated --

/// The simulated wirings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sim {
    Odoh,
    Vpn,
    OdohHarsh,
}

struct WorldRun {
    ms: f64,
    failure: Option<String>,
    metrics: MetricsReport,
    world: Option<World>,
}

/// Each harsh seed's knowledge from its first run. Every later run of
/// the seed must match it, and after the timed passes it must match the
/// same world with recovery on and no faults (the repository's harsh
/// completion bar; see `check_twins`). The fault-free twins run after
/// the passes so that they do not take time from them.
type Twins = BTreeMap<u64, KnowledgeFingerprint>;

/// Run the fault-free twin of every harsh seed in `twins` and compare.
fn check_twins(sizes: &Sizes, twins: &Twins, out: &mut Outcome) {
    let calm = RunOptions::recovered(&FaultConfig::calm());
    for (&seed, fp) in twins {
        let twin = KnowledgeFingerprint::of(&Odoh::run_with(&sizes.harsh, seed, &calm).world);
        if twin != *fp {
            out.fail(format!(
                "{} seed {seed}: knowledge differs from its fault-free twin",
                Odoh::NAME
            ));
        }
    }
}

/// Time one `run_with`, then check it: every unit completed, no retry
/// linkage, and the knowledge `expected` describes.
fn run_checked<S: Scenario>(
    cfg: &S::Config,
    seed: u64,
    opts: &RunOptions,
    keep_world: bool,
    expected: &str,
    knowledge_ok: impl FnOnce(&S::Report) -> bool,
) -> WorldRun {
    let t = Instant::now();
    let r = S::run_with(cfg, seed, opts);
    let ms = ms_since(t);
    let failure = if Some(r.completed_units()) != r.expected_units() {
        Some(format!(
            "{} seed {seed}: {} of {:?} units completed",
            S::NAME,
            r.completed_units(),
            r.expected_units()
        ))
    } else if !r.retry_linkage().is_empty() {
        Some(format!(
            "{} seed {seed}: retry linkage {:?}",
            S::NAME,
            r.retry_linkage()
        ))
    } else if !knowledge_ok(&r) {
        Some(format!(
            "{} seed {seed}: knowledge differs from {expected}",
            S::NAME
        ))
    } else {
        None
    };
    WorldRun {
        ms,
        failure,
        metrics: r.metrics().clone(),
        world: keep_world.then(|| r.world().clone()),
    }
}

impl Sim {
    fn opts(self, observe: bool) -> RunOptions {
        match self {
            Sim::Odoh | Sim::Vpn => RunOptions::new().observe(observe),
            Sim::OdohHarsh => RunOptions::recovered(&FaultConfig::harsh()).observe(observe),
        }
    }

    fn worlds(self, sizes: &Sizes) -> u64 {
        match self {
            Sim::Odoh => sizes.odoh_worlds,
            Sim::Vpn => sizes.vpn_worlds,
            Sim::OdohHarsh => sizes.harsh_worlds,
        }
    }

    fn odoh_cfg(self, sizes: &Sizes) -> &OdohConfig {
        match self {
            Sim::OdohHarsh => &sizes.harsh,
            _ => &sizes.odoh,
        }
    }

    fn run(
        self,
        sizes: &Sizes,
        seed: u64,
        observe: bool,
        keep_world: bool,
        twins: &mut Twins,
    ) -> WorldRun {
        self.run_opts(sizes, seed, &self.opts(observe), keep_world, Some(twins))
    }

    /// A calm world's first user must have the paper's table; a harsh
    /// world is held to its seed's first run (unchecked without `twins`).
    fn run_opts(
        self,
        sizes: &Sizes,
        seed: u64,
        opts: &RunOptions,
        keep_world: bool,
        twins: Option<&mut Twins>,
    ) -> WorldRun {
        let paper = "the paper's table";
        match self {
            Sim::Vpn => run_checked::<Vpn>(&sizes.vpn, seed, opts, keep_world, paper, |r| {
                r.table(0) == VpnReport::paper_table()
            }),
            Sim::Odoh => run_checked::<Odoh>(&sizes.odoh, seed, opts, keep_world, paper, |r| {
                r.table(0) == dcp_odns::ScenarioReport::paper_table()
            }),
            Sim::OdohHarsh => {
                let cfg = &sizes.harsh;
                run_checked::<Odoh>(cfg, seed, opts, keep_world, "its first run", |r| {
                    let Some(twins) = twins else { return true };
                    let fp = KnowledgeFingerprint::of(&r.world);
                    *twins.entry(seed).or_insert_with(|| fp.clone()) == fp
                })
            }
        }
    }

    /// Knowledge fingerprints of a sweep's worlds on `exec`, and its
    /// wall time in ms.
    fn sweep<X: SweepExecutor>(
        self,
        sizes: &Sizes,
        plan: &SweepBuilder,
        exec: &X,
    ) -> (f64, Vec<KnowledgeFingerprint>) {
        let opts = self.opts(false);
        let t = Instant::now();
        let fps = match self {
            Sim::Vpn => plan.run_on(exec, |job| {
                KnowledgeFingerprint::of(&Vpn::run_with(&sizes.vpn, job.seed, &opts).world)
            }),
            Sim::Odoh | Sim::OdohHarsh => plan.run_on(exec, |job| {
                let cfg = self.odoh_cfg(sizes);
                KnowledgeFingerprint::of(&Odoh::run_with(cfg, job.seed, &opts).world)
            }),
        };
        (ms_since(t), fps.into_results())
    }
}

/// How often the pace is sampled while units of work run: before every
/// `sim-odoh-harsh` world, engine slice and served run, every other
/// `sim-odoh` world and every dozen `sim-vpn` worlds. A sample takes
/// about 1.5 ms, a few percent of the run.
const PACE_EVERY: Duration = Duration::from_millis(30);

/// Pass-major timing: every world of the list once per pass, passes
/// repeated until the deadline, so a seed's repeats are a whole pass
/// apart. Each world's time is the paced time of its fastest pass by
/// wall time; the fastest wall time itself is a diagnostic. Choosing the
/// pass by wall time finds the quietest one; choosing it by paced time
/// would instead favour the passes whose pace samples read slow by
/// chance, which over ten-run sets spread 5–7% against 1–3%.
fn sim_plain(
    sim: Sim,
    sizes: &Sizes,
    seed: u64,
    deadline: Instant,
    out: &mut Outcome,
    between: &mut dyn FnMut(),
) {
    let seeds = seeds(seed, sim.worlds(sizes));
    let mut pacer = Pacer::new(PACE_EVERY, Workload::Sim(sim).elasticity());
    let (mut keys, mut wall) = (Vec::new(), Vec::new());
    let mut twins = Twins::new();
    'passes: loop {
        for (i, &s) in seeds.iter().enumerate() {
            if !keys.is_empty() && Instant::now() >= deadline {
                break 'passes;
            }
            between();
            pacer.tick();
            let r = sim.run(sizes, s, false, false, &mut twins);
            pacer.unit(r.ms);
            out.attempted += 1;
            if let Some(f) = r.failure {
                out.fail(f);
            }
            keys.push(i);
            wall.push(r.ms);
        }
    }
    let (paced, pace_ms) = pacer.finish();
    check_twins(sizes, &twins, out);
    let best = at_lowest_by_key(&keys, &wall, &paced, seeds.len());
    out.set("unit_ms_p50", median(&best));
    // Worlds per second over one pass at each world's best time.
    out.set(
        "throughput_per_s",
        best.len() as f64 / (best.iter().sum::<f64>() / 1e3),
    );
    let best_wall = best_by_key(&keys, &wall, seeds.len(), f64::min);
    out.diag("wall_unit_ms_p50", median(&best_wall));
    out.diag(
        "world_ms_p50_pass1",
        median(&paced[..seeds.len().min(paced.len())]),
    );
    out.diag("world_ms_p95", quantile(&best, 0.95));
    out.diag("pace_ms", pace_ms);
}

/// Summed per-layer counts of a set of observed runs.
type Counts = BTreeMap<String, u64>;

fn add_counts(acc: &mut Counts, m: &MetricsReport) {
    let mut add = |k: String, v: u64| *acc.entry(k).or_insert(0) += v;
    add("messages_sent".into(), m.messages_sent);
    add("messages_delivered".into(), m.messages_delivered);
    add("messages_dropped".into(), m.messages_dropped);
    add("bytes_sent".into(), m.bytes_sent);
    add("recovery_retries".into(), m.recovery_retries);
    add("recovery_failovers".into(), m.recovery_failovers);
    add("faults".into(), m.faults.values().sum());
    add("knowledge".into(), m.knowledge_by_entity.values().sum());
    for (op, n) in &m.crypto_ops {
        add(format!("crypto.{op}"), *n);
    }
}

fn count(c: &Counts, key: &str) -> f64 {
    c.get(key).copied().unwrap_or(0) as f64
}

/// Each battery call's fastest time over the rounds run so far, by
/// metric name. The battery is rerun between passes, so a burst of
/// load from outside the benchmark spoils at most one round.
type Costs = BTreeMap<&'static str, f64>;

fn keep_min(acc: &mut Costs, round: Costs) {
    for (k, v) in round {
        let slot = acc.entry(k).or_insert(v);
        *slot = slot.min(v);
    }
}

fn cost(c: &Costs, key: &str) -> f64 {
    c.get(key).copied().unwrap_or(0.0)
}

fn hpke_battery(costs: &mut Costs, payload: usize, iters: u64, tracer: &mut Tracer) {
    let span = tracer.begin("crypto", "hpke battery");
    let h = layers::hpke_costs(payload, iters);
    tracer.end(span);
    costs.insert("crypto.hpke_seal.ns", h.seal_ns);
    costs.insert("crypto.hpke_open.ns", h.open_ns);
    costs.insert("crypto.session_seal.ns", h.session_seal_ns);
    costs.insert("crypto.session_open.ns", h.session_open_ns);
}

fn observe_battery(costs: &mut Costs, world: Option<&World>, iters: u64, tracer: &mut Tracer) {
    let span = tracer.begin("core", "observe battery");
    costs.insert(
        "core.observe.ns",
        world.map_or(0.0, |w| layers::observe_ns(w, iters)),
    );
    tracer.end(span);
}

/// Crypto ns per unit from call counts. With HPKE session reuse (an
/// encapsulation was counted) `hpke_seal`/`hpke_open` are AEAD calls on
/// an open session and the KEM cost rides on encap/decap; otherwise
/// every seal/open is single-shot.
fn crypto_ns_per_unit(c: &Counts, units: f64, costs: &Costs) -> f64 {
    let (seal, open) = (count(c, "crypto.hpke_seal"), count(c, "crypto.hpke_open"));
    let (encap, decap) = (count(c, "crypto.hpke_encap"), count(c, "crypto.hpke_decap"));
    let (full_seal, full_open) = (
        cost(costs, "crypto.hpke_seal.ns"),
        cost(costs, "crypto.hpke_open.ns"),
    );
    let (aead_seal, aead_open) = (
        cost(costs, "crypto.session_seal.ns"),
        cost(costs, "crypto.session_open.ns"),
    );
    let ns = if encap > 0.0 {
        encap * (full_seal - aead_seal)
            + decap * (full_open - aead_open)
            + seal * aead_seal
            + open * aead_open
    } else {
        seal * full_seal + open * full_open
    };
    ns / units
}

fn set_calls(out: &mut Outcome, c: &Counts, units: f64) {
    for op in ["hpke_seal", "hpke_open", "hpke_encap", "hpke_decap"] {
        out.set(
            &format!("crypto.{op}.calls_per_unit"),
            count(c, &format!("crypto.{op}")) / units,
        );
    }
}

/// Traced run of a simulated wiring: alternating plain and observed
/// passes (at least two of each) with a layer-battery round after each
/// pair, then a sequential-vs-parallel sweep.
fn sim_traced(
    sim: Sim,
    sizes: &Sizes,
    seed: u64,
    deadline: Instant,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let seeds = seeds(seed, sim.worlds(sizes));
    let n = seeds.len() as f64;
    let start = Instant::now();
    let passes_until = start + deadline.saturating_duration_since(start).mul_f64(0.5);
    let mut plain_best = vec![f64::INFINITY; seeds.len()];
    let mut obs_best = vec![f64::INFINITY; seeds.len()];
    let mut obs_counts: Vec<Counts> = Vec::new();
    let mut last_world = None;
    let mut first_obs_crypto = Vec::new();
    let mut costs = Costs::new();
    let mut twins = Twins::new();
    let iters = sizes.battery_iters;
    while obs_counts.len() < 2 || Instant::now() < passes_until {
        for observe in [false, true] {
            let pass = tracer.begin(
                "runtime",
                if observe {
                    "observed pass"
                } else {
                    "plain pass"
                },
            );
            let mut counts = Counts::new();
            for (i, &s) in seeds.iter().enumerate() {
                let span = tracer.begin("world", format!("world {i}"));
                let keep = observe && obs_counts.is_empty() && i + 1 == seeds.len();
                let r = sim.run(sizes, s, observe, keep, &mut twins);
                tracer.end(span);
                out.attempted += 1;
                if let Some(f) = r.failure {
                    out.fail(f);
                }
                let best = if observe {
                    &mut obs_best
                } else {
                    &mut plain_best
                };
                best[i] = best[i].min(r.ms);
                if observe {
                    add_counts(&mut counts, &r.metrics);
                    if obs_counts.is_empty() {
                        first_obs_crypto.push(r.metrics.crypto_total());
                    }
                }
                if r.world.is_some() {
                    last_world = r.world;
                }
            }
            tracer.end(pass);
            if observe {
                obs_counts.push(counts);
            }
        }
        let c = &obs_counts[0];
        let payload =
            (count(c, "bytes_sent") / count(c, "messages_sent").max(1.0)).round() as usize;
        let battery = tracer.begin("battery", "layer battery");
        let mut round = Costs::new();
        hpke_battery(&mut round, payload, iters / 10, tracer);
        let span = tracer.begin("transport", "wire codec battery");
        let (enc, dec) = layers::wire_codec_ns(payload, iters * 50);
        tracer.end(span);
        round.insert("transport.encode.ns", enc);
        round.insert("transport.decode.ns", dec);
        let span = tracer.begin("simnet", "dispatch and wheel battery");
        round.insert(
            "simnet.dispatch.ns_per_msg",
            layers::simnet_dispatch_ns(payload, iters * 20),
        );
        // Simulated links default to 10 ms; a world keeps a few events queued.
        round.insert(
            "simnet.wheel.ns_per_op",
            layers::wheel_ns_per_op(16, 10_000, 0.0, 0, iters * 50),
        );
        tracer.end(span);
        observe_battery(&mut round, last_world.as_ref(), iters * 20, tracer);
        tracer.end(battery);
        keep_min(&mut costs, round);
    }
    let span = tracer.begin("recover", "fault-free twins");
    check_twins(sizes, &twins, out);
    tracer.end(span);
    if obs_counts[0] != obs_counts[1] {
        out.fail(format!(
            "two observed passes counted differently: {:?} vs {:?}",
            obs_counts[0], obs_counts[1]
        ));
    }
    let c = &obs_counts[0];
    let world_ms = median(&plain_best);
    let world_ns = world_ms * 1e6;
    out.set("obs.overhead_ratio", median(&obs_best) / world_ms);

    // Parallel sweep vs sequential: same fingerprints, wall-time ratio.
    let span = tracer.begin("sweep", "sweep seq vs 2 threads");
    let plan = SweepBuilder::new(seed).worlds((seeds.len() as u64 / 2).max(1));
    let (seq_ms, seq_fp) = sim.sweep(sizes, &plan, &SequentialExecutor);
    let (par_ms, par_fp) = sim.sweep(sizes, &plan, &ParallelExecutor::with_threads(2));
    tracer.end(span);
    if seq_fp != par_fp {
        out.fail("parallel sweep knowledge differs from sequential".into());
    }
    out.set("sweep.speedup_2t", seq_ms / par_ms);

    for (k, v) in &costs {
        out.set(k, *v);
    }
    let (sent, delivered) = (count(c, "messages_sent"), count(c, "messages_delivered"));
    set_calls(out, c, n);
    let crypto_share = crypto_ns_per_unit(c, n, &costs) / world_ns;
    out.set("crypto.est_share", crypto_share);
    out.set("transport.frames_per_unit", sent / n);
    out.set(
        "transport.mean_frame_bytes",
        count(c, "bytes_sent") / sent.max(1.0),
    );
    let codec_ns = cost(&costs, "transport.encode.ns") + cost(&costs, "transport.decode.ns");
    let transport_share = sent / n * codec_ns / world_ns;
    out.set("transport.est_share", transport_share);
    out.set("simnet.messages_sent_per_unit", sent / n);
    out.set("simnet.messages_delivered_per_unit", delivered / n);
    out.set(
        "simnet.messages_dropped_per_unit",
        count(c, "messages_dropped") / n,
    );
    out.set("simnet.bytes_sent_per_unit", count(c, "bytes_sent") / n);
    let simnet_share = delivered / n * cost(&costs, "simnet.dispatch.ns_per_msg") / world_ns;
    out.set("simnet.est_share", simnet_share);
    out.set("core.knowledge_items_per_unit", count(c, "knowledge") / n);
    let core_share = delivered / n * cost(&costs, "core.observe.ns") / world_ns;
    out.set("core.est_share", core_share);
    out.set(
        "runtime.residual_share",
        1.0 - crypto_share - transport_share - simnet_share - core_share,
    );
    out.set("recover.retries_per_unit", count(c, "recovery_retries") / n);
    out.set(
        "recover.failovers_per_unit",
        count(c, "recovery_failovers") / n,
    );
    out.set("faults.injected_per_unit", count(c, "faults") / n);

    // Crypto amplification under faults: the same worlds' crypto calls,
    // faulted over calm.
    let amplification = match sim {
        Sim::OdohHarsh => {
            let k = first_obs_crypto.len().min(10);
            let span = tracer.begin("recover", "calm twins for amplification");
            let calm: u64 = seeds[..k]
                .iter()
                .map(|&s| {
                    let opts = RunOptions::observed();
                    sim.run_opts(sizes, s, &opts, false, None)
                        .metrics
                        .crypto_total()
                })
                .sum();
            tracer.end(span);
            first_obs_crypto[..k].iter().sum::<u64>() as f64 / calm.max(1) as f64
        }
        Sim::Odoh | Sim::Vpn => 1.0,
    };
    out.set("recover.crypto_amplification", amplification);
}

// ----------------------------------------------------------- population --

/// Population engine: `pop_worlds` worlds (seeds `derive_seed(S, i)`),
/// run pass-major until the deadline like the simulated wirings, each in
/// timed slices of `pop_slice_events` events. A slice covers the same
/// events in every pass, so its time is its minimum over the passes. A
/// world is not started unless the previous one's time still fits.
fn pop(
    sizes: &Sizes,
    seed: u64,
    deadline: Instant,
    tracer: &mut Tracer,
    out: &mut Outcome,
    between: &mut dyn FnMut(),
) {
    let topo = Topology::mixnet();
    let seeds = seeds(seed, sizes.pop_worlds);
    let slice = sizes.pop_slice_events;
    // slot[i][j] numbers slice j of world i; `events` holds its events.
    let mut slot: Vec<Vec<usize>> = vec![Vec::new(); seeds.len()];
    let mut events: Vec<u64> = Vec::new();
    let mut pacer = Pacer::new(PACE_EVERY, Workload::PopMixnet.elasticity());
    let (mut keys, mut wall) = (Vec::new(), Vec::new());
    let mut reports: Vec<Option<PopReport>> = vec![None; seeds.len()];
    let mut last_world_ms = 0.0;
    let mut costs = Costs::new();
    'passes: for pass in 0.. {
        for (i, &s) in seeds.iter().enumerate() {
            let remaining_ms = deadline
                .saturating_duration_since(Instant::now())
                .as_secs_f64()
                * 1e3;
            if (pass > 0 || i > 0) && remaining_ms < last_world_ms {
                break 'passes;
            }
            between();
            let world_start = Instant::now();
            let span = tracer.begin("worlds", format!("world {i} pass {pass}"));
            let mut engine = match Engine::new(&sizes.pop, &topo, s) {
                Ok(e) => e,
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("pop world {i}: Engine::new: {e}"));
                    break 'passes;
                }
            };
            for j in 0.. {
                let before = engine.events_processed();
                pacer.tick();
                let slice_span = tracer.begin("worlds", "engine slice");
                let t = Instant::now();
                let done = engine.run_until_events(before + slice);
                let ms = ms_since(t);
                tracer.end(slice_span);
                pacer.unit(ms);
                if j == slot[i].len() {
                    slot[i].push(events.len());
                    events.push(engine.events_processed() - before);
                }
                keys.push(slot[i][j]);
                wall.push(ms);
                if done {
                    break;
                }
            }
            tracer.end(span);
            let report = engine.report();
            out.attempted += 1;
            if report.queries_sent == 0 || report.queries_answered != report.queries_sent {
                out.fail(format!(
                    "pop world {i}: {} of {} queries answered",
                    report.queries_answered, report.queries_sent
                ));
            }
            match &reports[i] {
                Some(first) if *first != report => out.fail(format!(
                    "pop world {i}: pass {pass} reports differently from pass 0"
                )),
                Some(_) => {}
                None => reports[i] = Some(report),
            }
            last_world_ms = ms_since(world_start);
            if tracer.enabled() && pass == 0 && i == 0 {
                if let Some(straight) = &reports[0] {
                    pop_resume_check(sizes, &topo, s, straight, tracer, out);
                }
            }
        }
        if tracer.enabled() {
            keep_min(&mut costs, pop_battery(sizes, &topo, &reports, tracer));
        }
    }
    // Short tail slices say little about the rate; keep them only when
    // a world is a single slice.
    let events = &events;
    let kept: Vec<usize> = slot
        .iter()
        .flat_map(|w| {
            w.iter()
                .copied()
                .filter(move |&k| events[k] * 2 >= slice || w.len() == 1)
        })
        .collect();
    // Per slice kept: fastest ms and events; then the median ms per
    // million events and the events per second over all of them.
    let rate = |times: &[f64]| {
        let fastest = best_by_key(&keys, times, events.len(), f64::min);
        let best: Vec<(f64, u64)> = kept.iter().map(|&k| (fastest[k], events[k])).collect();
        let per_m: Vec<f64> = best.iter().map(|&(ms, ev)| ms * 1e6 / ev as f64).collect();
        let (ms, ev) = best.iter().fold((0.0, 0u64), |a, s| (a.0 + s.0, a.1 + s.1));
        (median(&per_m), ev as f64 / (ms / 1e3))
    };
    let (paced, pace_ms) = pacer.finish();
    let (per_m, per_s) = rate(&paced);
    let (wall_per_m, _) = rate(&wall);
    if !tracer.enabled() {
        out.set("unit_ms_p50", per_m);
        out.set("throughput_per_s", per_s);
        out.diag("wall_unit_ms_p50", wall_per_m);
        out.diag("pace_ms", pace_ms);
        return;
    }
    let per_m = wall_per_m;
    if costs.is_empty() {
        costs = pop_battery(sizes, &topo, &reports, tracer);
    }
    let reports: Vec<&PopReport> = reports.iter().flatten().collect();
    let n = reports.len() as f64;
    let sum = |f: fn(&PopReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let (ev, queries) = (sum(|r| r.events), sum(|r| r.queries_sent));
    out.set("worlds.events_per_unit", ev / n);
    out.set("worlds.messages_per_unit", sum(|r| r.messages) / n);
    out.set("worlds.batches_per_unit", sum(|r| r.batches) / n);
    out.set("worlds.queries_per_unit", queries / n);
    for (k, v) in &costs {
        out.set(k, *v);
    }
    // Per million events: a pop and a push of the wheel per event, and
    // one name draw and one inter-arrival draw per query.
    let draw_ns =
        cost(&costs, "worlds.zipf_sample.ns") + cost(&costs, "worlds.poisson_interarrival.ns");
    let est_ns = 2e6 * cost(&costs, "worlds.wheel.ns_per_op") + queries / ev * 1e6 * draw_ns;
    out.set("worlds.est_share", est_ns / (per_m * 1e6));
}

/// One battery round of the population engine's own structures.
fn pop_battery(
    sizes: &Sizes,
    topo: &Topology,
    reports: &[Option<PopReport>],
    tracer: &mut Tracer,
) -> Costs {
    let span = tracer.begin("battery", "worlds battery");
    let spec = &sizes.pop;
    let (queries, events) = reports
        .iter()
        .flatten()
        .fold((0, 0), |a, r| (a.0 + r.queries_sent, a.1 + r.events));
    // Users re-arm their next arrival about 1/rate ahead; every other
    // event schedules the next hop one link latency ahead.
    let wheel = layers::wheel_ns_per_op(
        spec.users as usize,
        topo.link_us,
        queries as f64 / events.max(1) as f64,
        (1e6 / spec.rate_hz) as u64,
        sizes.battery_iters * 200,
    );
    let (zipf, poisson) = layers::generator_ns(
        spec.names as usize,
        spec.name_exponent,
        spec.rate_hz,
        sizes.battery_iters * 200,
    );
    tracer.end(span);
    Costs::from([
        ("worlds.wheel.ns_per_op", wheel),
        ("worlds.zipf_sample.ns", zipf),
        ("worlds.poisson_interarrival.ns", poisson),
    ])
}

/// Re-run a world, checkpointing halfway and restoring from the bytes:
/// the resumed world must report exactly what the straight run did.
fn pop_resume_check(
    sizes: &Sizes,
    topo: &Topology,
    seed: u64,
    straight: &PopReport,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let span = tracer.begin("worlds", "checkpoint and resume");
    let resumed = Engine::new(&sizes.pop, topo, seed).and_then(|mut e| {
        e.run_until_events(straight.events / 2);
        let t = Instant::now();
        let bytes = e.checkpoint();
        out.set("worlds.checkpoint_ms", ms_since(t));
        out.set("worlds.checkpoint_bytes", bytes.len() as f64);
        drop(e);
        let t = Instant::now();
        let mut restored = Engine::restore(&bytes)?;
        out.set("worlds.restore_ms", ms_since(t));
        restored.run_to_end();
        Ok(restored.report())
    });
    tracer.end(span);
    match resumed {
        Ok(r) if &r == straight => {}
        Ok(_) => out.fail("pop: checkpoint/resume run differs from the straight run".into()),
        Err(e) => out.fail(format!("pop: checkpoint/resume failed: {e}")),
    }
}

// --------------------------------------------------------------- served --

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        deadline: Duration::from_secs(120),
        ..ServeConfig::default()
    }
}

/// Marks the first client start and does nothing else: the set-up probe
/// ends the served run as soon as clients would begin sending.
struct ProbeClient(Arc<OnceLock<Instant>>);

impl WireRole for ProbeClient {
    fn on_start(&mut self, _ctx: &mut WireCtx) {
        self.0.get_or_init(Instant::now);
    }
    fn on_frame(&mut self, _ctx: &mut WireCtx, _from: PeerId, _msg: WireMsg) {}
    fn finished(&self) -> bool {
        true
    }
}

/// Every callback of one role, timed: `(start, end, payload bytes)`.
struct RoleLog {
    class: &'static str,
    start: Option<(Instant, Instant)>,
    frames: Vec<(Instant, Instant, usize)>,
}

/// Wraps a served role and times its callbacks from outside; the log is
/// handed over when the engine drops the role at the end of the run.
struct Timed {
    inner: Box<dyn WireRole>,
    log: Option<RoleLog>,
    sink: Arc<Mutex<Vec<RoleLog>>>,
}

impl WireRole for Timed {
    fn on_start(&mut self, ctx: &mut WireCtx) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        if let Some(log) = &mut self.log {
            log.start = Some((t, Instant::now()));
        }
    }
    fn on_frame(&mut self, ctx: &mut WireCtx, from: PeerId, msg: WireMsg) {
        let bytes = msg.payload.len();
        let t = Instant::now();
        self.inner.on_frame(ctx, from, msg);
        if let Some(log) = &mut self.log {
            log.frames.push((t, Instant::now(), bytes));
        }
    }
    fn finished(&self) -> bool {
        self.inner.finished()
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        if let (Some(log), Ok(mut sink)) = (self.log.take(), self.sink.lock()) {
            sink.push(log);
        }
    }
}

const ROLE_CLASSES: [&str; 4] = ["client", "proxy", "target", "origin"];

fn role_class(name: &str) -> &'static str {
    ROLE_CLASSES
        .into_iter()
        .find(|c| name.starts_with(c))
        .unwrap_or("other")
}

/// Serve one wiring with every role timed; returns the outcome and the
/// role logs.
fn serve_once(
    cfg: &OdohConfig,
    seed: u64,
    observe: bool,
) -> Result<(dcp_serve::ServeOutcome, Option<MetricsReport>, Vec<RoleLog>), String> {
    let mut spec = odoh_serve_spec(cfg, seed);
    let handle = observe.then(|| MetricsHandle::install(&mut spec.world, Odoh::NAME, seed));
    let sink = Arc::new(Mutex::new(Vec::new()));
    spec.roles = spec
        .roles
        .into_iter()
        .map(
            |RoleSpec {
                 name,
                 entity,
                 kind,
                 role,
             }| RoleSpec {
                role: Box::new(Timed {
                    inner: role,
                    log: Some(RoleLog {
                        class: role_class(&name),
                        start: None,
                        frames: Vec::new(),
                    }),
                    sink: sink.clone(),
                }),
                name,
                entity,
                kind,
            },
        )
        .collect();
    let mut outcome = run_loopback(spec, &serve_config(seed)).map_err(|e| e.to_string())?;
    let metrics = handle.map(|h| h.finish(&mut outcome.world));
    let logs = std::mem::take(&mut *sink.lock().map_err(|_| "role log sink poisoned")?);
    Ok((outcome, metrics, logs))
}

/// Closed-loop query times from the client logs: with one query in
/// flight, a query's time is the gap between the ends of successive
/// client callbacks. Also returns the span from the first client start
/// to the last answer, seconds.
fn client_latencies(logs: &[RoleLog]) -> (Vec<f64>, f64) {
    let clients: Vec<&RoleLog> = logs.iter().filter(|l| l.class == "client").collect();
    let mut latencies = Vec::new();
    for l in &clients {
        let mut prev = l.start.map(|s| s.1);
        for &(_, end, _) in &l.frames {
            if let Some(p) = prev {
                latencies.push(end.duration_since(p).as_secs_f64() * 1e3);
            }
            prev = Some(end);
        }
    }
    let first = clients.iter().filter_map(|l| l.start.map(|s| s.0)).min();
    let last = clients
        .iter()
        .filter_map(|l| l.frames.last().map(|f| f.1))
        .max();
    let window = match (first, last) {
        (Some(f), Some(l)) => l.duration_since(f).as_secs_f64(),
        _ => 0.0,
    };
    (latencies, window)
}

/// The served ODoH stack over loopback TCP, closed loop: two clients with
/// one query in flight each. Runs cycle through `serve_seeds` seeds until
/// the deadline, like the simulated passes; each run's knowledge tables
/// are compared with the simulated twin of its seed, computed once per
/// seed after the timed runs. A seed's query p50 and rate are those of
/// its best run, and the median over seeds is reported.
fn serve(
    sizes: &Sizes,
    seed: u64,
    deadline: Instant,
    tracer: &mut Tracer,
    out: &mut Outcome,
    between: &mut dyn FnMut(),
) {
    let cfg = &sizes.serve;
    let seeds = seeds(seed, sizes.serve_seeds);
    let expected = (cfg.clients * cfg.queries_each) as u64;
    // Per seed, the best run: lowest query p50 and highest rate.
    let mut best_p50 = vec![f64::INFINITY; seeds.len()];
    let mut best_qps = vec![0.0f64; seeds.len()];
    let mut pacer = Pacer::new(PACE_EVERY, Workload::ServeOdoh.elasticity());
    let (mut keys, mut wall_p50, mut wall_qps) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_latencies = Vec::new();
    let mut served: Vec<(usize, KnowledgeFingerprint)> = Vec::new();
    let mut logs: Vec<RoleLog> = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let mut summed = Counts::new();
    let mut last_world = None;
    let mut last_run_ms = 0.0;
    let mut costs = Costs::new();
    for i in 0usize.. {
        let remaining_ms = deadline
            .saturating_duration_since(Instant::now())
            .as_secs_f64()
            * 1e3;
        // A traced run serves its first seed twice, to compare counts.
        let must = i == 0 || (tracer.enabled() && i <= seeds.len());
        if !must && remaining_ms < last_run_ms {
            break;
        }
        between();
        let k = i % seeds.len();
        pacer.tick();
        let span = tracer.begin("serve", format!("loopback run {i}"));
        let t = Instant::now();
        let result = serve_once(cfg, seeds[k], tracer.enabled());
        last_run_ms = ms_since(t);
        tracer.end(span);
        out.attempted += expected;
        let (outcome, metrics, run_logs) = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("serve run {i}: {e}"));
                break;
            }
        };
        if outcome.completed_units != expected {
            out.failed += expected.saturating_sub(outcome.completed_units).max(1);
            out.failures.push(format!(
                "serve run {i}: {} of {expected} queries answered",
                outcome.completed_units
            ));
        }
        served.push((k, KnowledgeFingerprint::of(&outcome.world)));
        let (latencies, window) = client_latencies(&run_logs);
        let (p50, qps) = (median(&latencies), latencies.len() as f64 / window);
        pacer.unit(p50);
        keys.push(k);
        wall_p50.push(p50);
        wall_qps.push(qps);
        best_p50[k] = best_p50[k].min(p50);
        best_qps[k] = best_qps[k].max(qps);
        all_latencies.extend(latencies);
        if let Some(m) = metrics {
            let mut c = Counts::new();
            add_counts(&mut c, &m);
            for l in &run_logs {
                *c.entry(format!("frames.{}", l.class)).or_insert(0) += l.frames.len() as u64;
                for &(s, e, _) in &l.frames {
                    tracer.record("serve", l.class, s, e, span);
                }
            }
            add_counts(&mut summed, &m);
            counts.push(c);
            logs.extend(run_logs);
        }
        last_world = Some(outcome.world);
        if tracer.enabled() && k + 1 == seeds.len() {
            keep_min(
                &mut costs,
                serve_battery(sizes, &logs, last_world.as_ref(), tracer),
            );
        }
    }

    // The twin check, outside every timed region.
    let span = tracer.begin("runtime", "simulated twins");
    for (k, &s) in seeds.iter().enumerate() {
        let runs: Vec<&KnowledgeFingerprint> = served
            .iter()
            .filter(|(sk, _)| *sk == k)
            .map(|(_, fp)| fp)
            .collect();
        if runs.is_empty() {
            continue;
        }
        let twin = KnowledgeFingerprint::of(&Odoh::run(cfg, s).world);
        let differing = runs.iter().filter(|fp| ***fp != twin).count();
        if differing > 0 {
            out.fail(format!(
                "serve seed {s}: {differing} runs differ from the simulated twin"
            ));
        }
    }
    tracer.end(span);

    if !tracer.enabled() {
        // A run's rate is paced by the same factor as its p50.
        let (paced_p50, pace_ms) = pacer.finish();
        let paced_qps: Vec<f64> = (0..keys.len())
            .map(|u| wall_qps[u] * wall_p50[u] / paced_p50[u])
            .collect();
        let n = seeds.len();
        let p50 = |v: &[f64]| median(&best_by_key(&keys, v, n, f64::min));
        out.set("unit_ms_p50", p50(&paced_p50));
        out.set(
            "throughput_per_s",
            median(&best_by_key(&keys, &paced_qps, n, f64::max)),
        );
        out.diag("wall_unit_ms_p50", p50(&wall_p50));
        out.diag("query_ms_p99", quantile(&all_latencies, 0.99));
        out.diag("pace_ms", pace_ms);
        return;
    }
    if counts.len() <= seeds.len() || counts[0] != counts[seeds.len()] {
        out.fail("two served runs of the same seed counted differently".into());
    }
    if costs.is_empty() {
        costs = serve_battery(sizes, &logs, last_world.as_ref(), tracer);
    }
    for (k, v) in &costs {
        out.set(k, *v);
    }
    let queries = all_latencies.len() as f64;
    let query_ns = median(&best_p50) * 1e6;
    let frames: usize = logs.iter().map(|l| l.frames.len()).sum();
    let frames_per_query = frames as f64 / queries;
    let mut busy_total_ms = 0.0;
    for class in ROLE_CLASSES {
        let durations: Vec<f64> = logs
            .iter()
            .filter(|l| l.class == class)
            .flat_map(|l| &l.frames)
            .map(|&(s, e, _)| e.duration_since(s).as_secs_f64() * 1e3)
            .collect();
        let busy: f64 = durations.iter().sum();
        busy_total_ms += busy;
        out.set(
            &format!("serve.{class}.handler_us_p50"),
            median(&durations) * 1e3,
        );
        out.set(
            &format!("serve.{class}.busy_us_per_query"),
            busy * 1e3 / queries,
        );
    }
    let handler_share = busy_total_ms / all_latencies.iter().sum::<f64>();
    out.set("serve.handler_share", handler_share);
    out.set("serve.wait_share", 1.0 - handler_share);
    out.set("serve.frames_per_query", frames_per_query);
    out.set("serve.query_ms_p99", quantile(&all_latencies, 0.99));
    set_calls(out, &summed, queries);
    out.set(
        "crypto.est_share",
        crypto_ns_per_unit(&summed, queries, &costs) / query_ns,
    );
    let codec_ns = cost(&costs, "transport.encode.ns") + cost(&costs, "transport.decode.ns");
    out.set("transport.frames_per_unit", frames_per_query);
    out.set("transport.mean_frame_bytes", mean_frame_bytes(&logs));
    out.set(
        "transport.est_share",
        frames_per_query * codec_ns / query_ns,
    );
    out.set(
        "core.knowledge_items_per_unit",
        count(&summed, "knowledge") / queries,
    );
    out.set(
        "core.est_share",
        frames_per_query * cost(&costs, "core.observe.ns") / query_ns,
    );
}

fn mean_frame_bytes(logs: &[RoleLog]) -> f64 {
    let (n, bytes) = logs
        .iter()
        .flat_map(|l| &l.frames)
        .fold((0usize, 0usize), |a, f| (a.0 + 1, a.1 + f.2));
    bytes as f64 / n.max(1) as f64
}

/// One battery round of the layers a served query crosses, at the mean
/// frame size served so far.
fn serve_battery(
    sizes: &Sizes,
    logs: &[RoleLog],
    world: Option<&World>,
    tracer: &mut Tracer,
) -> Costs {
    let iters = sizes.battery_iters;
    let payload = mean_frame_bytes(logs).round() as usize;
    let battery = tracer.begin("battery", "layer battery");
    let mut round = Costs::new();
    hpke_battery(&mut round, payload, iters / 10, tracer);
    let span = tracer.begin("transport", "frame codec battery");
    let (enc, dec) = layers::frame_codec_ns(payload, iters * 50);
    round.insert("transport.encode.ns", enc);
    round.insert("transport.decode.ns", dec);
    round.insert(
        "serve.frame_reader.ns",
        layers::frame_reader_ns(payload, iters * 50),
    );
    tracer.end(span);
    observe_battery(&mut round, world, iters * 20, tracer);
    tracer.end(battery);
    round
}
