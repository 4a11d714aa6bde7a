//! Experiment runners shared by the `experiments` harness binary and the
//! Criterion benches. Each public function regenerates one paper artifact
//! (see DESIGN.md §5 for the experiment index). [`probe`] is the
//! scaffold the DST probe binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probe;

use dcp_core::degrees::{DegreePoint, DegreeSweep};
use dcp_core::table::DecouplingTable;
use dcp_core::{analyze, collusion::entity_collusion};
use dcp_core::{SweepBuilder, SweepExecutor};
use decoupling::{ParallelExecutor, Scenario as _};
use serde::Serialize;

/// One reproduced table: experiment id, measured and paper versions.
#[derive(Clone, Debug, Serialize)]
pub struct TableResult {
    /// Experiment id (e.g. "T-3.1.1").
    pub id: String,
    /// Human name.
    pub name: String,
    /// Table derived from the simulation.
    pub measured: DecouplingTable,
    /// The paper's table.
    pub paper: DecouplingTable,
    /// Do they match?
    pub matches: bool,
    /// §2.4 verdict of the run.
    pub decoupled: bool,
    /// Minimal re-coupling coalition size (None = uncouplable).
    pub min_collusion: Option<usize>,
    /// A headline performance figure for the run (µs).
    pub latency_us: f64,
}

fn table_result(
    id: &str,
    name: &str,
    measured: DecouplingTable,
    paper: DecouplingTable,
    decoupled: bool,
    min_collusion: Option<usize>,
    latency_us: f64,
) -> TableResult {
    let matches = measured == paper;
    TableResult {
        id: id.into(),
        name: name.into(),
        measured,
        paper,
        matches,
        decoupled,
        min_collusion,
        latency_us,
    }
}

/// T-3.1.1 — blind-signature digital cash.
pub fn exp_blindcash(seed: u64) -> TableResult {
    let r = decoupling::Blindcash::run(&decoupling::BlindcashConfig::new(1, 2, 512), seed);
    let coll = entity_collusion(&r.world, r.buyers[0], 3);
    table_result(
        "T-3.1.1",
        "Blind-signature digital cash",
        r.table(0),
        decoupling::blindcash::scenario::ScenarioReport::paper_table(),
        analyze(&r.world).decoupled,
        coll.min_coalition_size,
        r.mean_cycle_us,
    )
}

/// F-1 / T-3.1.2 — mix-net.
pub fn exp_mixnet(seed: u64) -> TableResult {
    let config = decoupling::MixnetConfig {
        senders: 8,
        mixes: 2,
        batch_size: 4,
        window_us: 200_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: None,
        seed,
    };
    let r = decoupling::Mixnet::run(&config, seed);
    let coll = entity_collusion(&r.world, r.users[0], 3);
    table_result(
        "F-1/T-3.1.2",
        "Chaum mix-net (2 mixes)",
        r.table(0),
        decoupling::mixnet::scenario::MixnetReport::paper_table_two_mixes(),
        analyze(&r.world).decoupled,
        coll.min_coalition_size,
        r.mean_latency_us,
    )
}

/// F-2 / T-3.2.1 — Privacy Pass.
pub fn exp_privacypass(seed: u64) -> TableResult {
    let r = decoupling::Privacypass::run(&decoupling::PrivacypassConfig::new(1, 2), seed);
    let coll = entity_collusion(&r.world, r.users[0], 3);
    table_result(
        "F-2/T-3.2.1",
        "Privacy Pass",
        r.table(0),
        decoupling::privacypass::scenario::ScenarioReport::paper_table(),
        analyze(&r.world).decoupled,
        coll.min_coalition_size,
        r.mean_fetch_us,
    )
}

/// T-3.2.2 — Oblivious DNS.
pub fn exp_odns(seed: u64) -> TableResult {
    let r = decoupling::Odoh::run(&decoupling::OdohConfig::new(1, 5), seed);
    let coll = entity_collusion(&r.world, r.users[0], 3);
    table_result(
        "T-3.2.2",
        "Oblivious DNS (ODoH)",
        r.table(0),
        decoupling::odns::scenario::ScenarioReport::paper_table(),
        analyze(&r.world).decoupled,
        coll.min_coalition_size,
        r.mean_query_us,
    )
}

/// T-3.2.3 — PGPP.
pub fn exp_pgpp(seed: u64) -> TableResult {
    let config = decoupling::PgppConfig {
        mode: decoupling::pgpp::Mode::Pgpp,
        users: 6,
        cells: 3,
        epochs: 3,
        moves_per_epoch: 2,
        seed,
    };
    let r = decoupling::Pgpp::run(&config, seed);
    let coll = entity_collusion(&r.world, r.users[0], 3);
    table_result(
        "T-3.2.3",
        "Pretty Good Phone Privacy",
        r.table(0),
        decoupling::pgpp::scenario::PgppReport::paper_table(),
        analyze(&r.world).decoupled,
        coll.min_coalition_size,
        0.0,
    )
}

/// T-3.2.4 — Multi-Party Relay.
pub fn exp_mpr(seed: u64) -> TableResult {
    let config = decoupling::ChainConfig {
        relays: 2,
        users: 1,
        fetches_each: 3,
        geohint: false,
        seed,
    };
    let r = decoupling::Mpr::run(&config, seed);
    let coll = entity_collusion(&r.world, r.users[0], 4);
    table_result(
        "T-3.2.4",
        "Multi-Party Relay (2 hops)",
        r.table(0),
        decoupling::mpr::ScenarioReport::paper_table(),
        analyze(&r.world).decoupled,
        coll.min_coalition_size,
        r.mean_fetch_us,
    )
}

/// T-3.2.5 — Private aggregate statistics.
pub fn exp_ppm(seed: u64) -> TableResult {
    let config = decoupling::PpmConfig {
        clients: 10,
        bits: 8,
        malicious: 0,
        seed,
    };
    let r = decoupling::Ppm::run(&config, seed);
    let coll = entity_collusion(&r.world, r.users[0], 3);
    table_result(
        "T-3.2.5",
        "Private aggregate statistics (PPM)",
        r.table(0),
        decoupling::ppm::scenario::PpmReport::paper_table(),
        analyze(&r.world).decoupled,
        coll.min_coalition_size,
        0.0,
    )
}

/// T-3.3 — VPN cautionary tale.
pub fn exp_vpn(seed: u64) -> TableResult {
    let r = decoupling::Vpn::run(&decoupling::VpnConfig::new(1, 2), seed);
    let coll = entity_collusion(&r.world, r.users[0], 3);
    table_result(
        "T-3.3",
        "Centralized VPN (cautionary)",
        r.table(0),
        decoupling::vpn::VpnReport::paper_table(),
        analyze(&r.world).decoupled,
        coll.min_coalition_size,
        r.mean_fetch_us,
    )
}

/// All eight table reproductions.
pub fn all_tables(seed: u64) -> Vec<TableResult> {
    vec![
        exp_blindcash(seed),
        exp_mixnet(seed + 1),
        exp_privacypass(seed + 2),
        exp_odns(seed + 3),
        exp_pgpp(seed + 4),
        exp_mpr(seed + 5),
        exp_ppm(seed + 6),
        exp_vpn(seed + 7),
    ]
}

/// E-4.2 — degrees of decoupling: the cost/benefit sweep over relay
/// chains 0..=max_relays.
pub fn exp_degrees(max_relays: usize, seed: u64) -> DegreeSweep {
    let mut sweep = DegreeSweep::default();
    for k in 0..=max_relays {
        let config = match k {
            0 => "direct".to_string(),
            1 => "vpn".to_string(),
            2 => "mpr-2".to_string(),
            n => format!("chain-{n}"),
        };
        let chain = decoupling::ChainConfig {
            relays: k,
            users: 2,
            fetches_each: 3,
            geohint: false,
            seed,
        };
        let r = decoupling::Mpr::run(&chain, seed);
        let verdict = analyze(&r.world);
        let coll = entity_collusion(&r.world, r.users[0], k.max(1) + 1);
        sweep.push(DegreePoint {
            config,
            parties: k,
            decoupled: verdict.decoupled,
            min_collusion: coll.min_coalition_size,
            latency_us: r.mean_fetch_us,
            bytes_factor: r.bytes_factor,
            throughput_rps: if r.mean_fetch_us > 0.0 {
                1_000_000.0 / r.mean_fetch_us
            } else {
                0.0
            },
        });
    }
    sweep
}

/// One row of the E-4.3 traffic-analysis sweep.
#[derive(Clone, Debug, Serialize)]
pub struct TrafficRow {
    /// Mix batch threshold.
    pub batch_size: usize,
    /// Timing-correlation attack accuracy (mean over seeds).
    pub attack_accuracy: f64,
    /// Random-guess baseline.
    pub random_baseline: f64,
    /// Mean final-hop anonymity-set size.
    pub anonymity_set: f64,
    /// Mean message latency (µs).
    pub latency_us: f64,
}

/// E-4.3 — the batching/anonymity/latency tradeoff (parallel; see
/// [`exp_traffic_on`]).
pub fn exp_traffic(batch_sizes: &[usize], seeds: u64, base_seed: u64) -> Vec<TrafficRow> {
    exp_traffic_on(batch_sizes, seeds, base_seed, &ParallelExecutor::new())
}

/// [`exp_traffic`] on an explicit executor: fans the
/// `batch_sizes.len() × seeds` independent mix-net worlds across `exec`
/// (per-world seeds derived from `base_seed`), then folds each batch
/// size's rows in world-index order — the output is identical for any
/// conforming executor.
pub fn exp_traffic_on(
    batch_sizes: &[usize],
    seeds: u64,
    base_seed: u64,
    exec: &impl SweepExecutor,
) -> Vec<TrafficRow> {
    let per = seeds.max(1);
    let builder = SweepBuilder::new(base_seed).worlds(batch_sizes.len() as u64 * per);
    let run = builder.run_on(exec, |job| {
        let batch_size = batch_sizes[(job.index / per) as usize];
        let config = decoupling::MixnetConfig {
            senders: 10,
            mixes: 2,
            batch_size,
            window_us: 400_000,
            shuffle: true,
            chaff_per_sender: 0,
            mix_max_wait_us: None,
            seed: job.seed,
        };
        let r = decoupling::Mixnet::run(&config, job.seed);
        (
            r.attack.accuracy,
            r.attack.random_baseline,
            r.mean_anonymity_set,
            r.mean_latency_us,
        )
    });
    let worlds = run.into_results();
    batch_sizes
        .iter()
        .enumerate()
        .map(|(bi, &batch_size)| {
            let chunk = &worlds[bi * per as usize..(bi + 1) * per as usize];
            let n = per as f64;
            TrafficRow {
                batch_size,
                attack_accuracy: chunk.iter().map(|w| w.0).sum::<f64>() / n,
                random_baseline: chunk.iter().map(|w| w.1).sum::<f64>() / n,
                anonymity_set: chunk.iter().map(|w| w.2).sum::<f64>() / n,
                latency_us: chunk.iter().map(|w| w.3).sum::<f64>() / n,
            }
        })
        .collect()
}

/// One row of the fleet degrees-of-decoupling sweep: the §4.2
/// cost/benefit question asked of the *directory layer* — what does a
/// bigger relay fleet buy (selection entropy, churn absorption) and what
/// does it cost (latency under rotation + churn)?
#[derive(Clone, Debug, Serialize)]
pub struct FleetRow {
    /// Advertised relay pool size the directory selects from.
    pub pool: u16,
    /// Timing-correlation accuracy under churn (mean over seeds).
    pub attack_accuracy: f64,
    /// Mean final-hop anonymity-set size under churn.
    pub anonymity_set: f64,
    /// Mean message latency, calm fleet-enabled run (µs).
    pub calm_latency_us: f64,
    /// Mean message latency under `harsh_fleet` churn (µs).
    pub churn_latency_us: f64,
    /// Mean key rotations performed across the fleet per run.
    pub rotations: f64,
    /// Fraction of expected work units completed under churn (the DST
    /// completion bar demands 1.0; reported, not asserted, here).
    pub completed: f64,
}

/// Fleet sweep — directory-selected mix-nets at several pool sizes, each
/// run calm and under `harsh_fleet` (parallel; see [`exp_fleet_on`]).
pub fn exp_fleet(pools: &[u16], seeds: u64, base_seed: u64) -> Vec<FleetRow> {
    exp_fleet_on(pools, seeds, base_seed, &ParallelExecutor::new())
}

/// [`exp_fleet`] on an explicit executor: `pools.len() × seeds`
/// independent worlds, each a calm + churn pair at the same derived
/// seed, folded in world-index order.
pub fn exp_fleet_on(
    pools: &[u16],
    seeds: u64,
    base_seed: u64,
    exec: &impl SweepExecutor,
) -> Vec<FleetRow> {
    use decoupling::core::ScenarioReport as _;
    let per = seeds.max(1);
    let builder = SweepBuilder::new(base_seed).worlds(pools.len() as u64 * per);
    let run = builder.run_on(exec, |job| {
        let pool = pools[(job.index / per) as usize];
        let config = decoupling::MixnetConfig {
            senders: 8,
            mixes: 2,
            batch_size: 2,
            window_us: 100_000,
            shuffle: true,
            chaff_per_sender: 0,
            mix_max_wait_us: Some(50_000),
            seed: job.seed,
        };
        let fleet = decoupling::FleetConfig::standard().pool(pool);
        let calm = decoupling::Mixnet::run_with(
            &config,
            job.seed,
            &decoupling::RunOptions::recovered(&decoupling::FaultConfig::calm()).with_fleet(&fleet),
        );
        let churn = decoupling::Mixnet::run_with(
            &config,
            job.seed,
            &decoupling::RunOptions::recovered(&decoupling::FaultConfig::harsh_fleet())
                .with_fleet(&fleet),
        );
        let expected = churn.expected_units().unwrap_or(1).max(1) as f64;
        (
            churn.attack.accuracy,
            churn.mean_anonymity_set,
            calm.mean_latency_us,
            churn.mean_latency_us,
            churn.fleet.stats.rotations as f64,
            churn.delivered as f64 / expected,
        )
    });
    let worlds = run.into_results();
    pools
        .iter()
        .enumerate()
        .map(|(pi, &pool)| {
            let chunk = &worlds[pi * per as usize..(pi + 1) * per as usize];
            let n = per as f64;
            FleetRow {
                pool,
                attack_accuracy: chunk.iter().map(|w| w.0).sum::<f64>() / n,
                anonymity_set: chunk.iter().map(|w| w.1).sum::<f64>() / n,
                calm_latency_us: chunk.iter().map(|w| w.2).sum::<f64>() / n,
                churn_latency_us: chunk.iter().map(|w| w.3).sum::<f64>() / n,
                rotations: chunk.iter().map(|w| w.4).sum::<f64>() / n,
                completed: chunk.iter().map(|w| w.5).sum::<f64>() / n,
            }
        })
        .collect()
}

/// One row of the E-4.3 chaff sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ChaffRow {
    /// Decoys per sender.
    pub chaff_per_sender: usize,
    /// Timing-correlation accuracy (mean over seeds).
    pub attack_accuracy: f64,
    /// Total wire bytes relative to the chaff-free run.
    pub bandwidth_factor: f64,
}

/// E-4.3 (chaff axis) — cover traffic vs. the correlation attacker
/// (parallel; see [`exp_chaff_on`]).
pub fn exp_chaff(levels: &[usize], seeds: u64, base_seed: u64) -> Vec<ChaffRow> {
    exp_chaff_on(levels, seeds, base_seed, &ParallelExecutor::new())
}

/// [`exp_chaff`] on an explicit executor. World 0‥seeds is the
/// zero-chaff bandwidth baseline, then `seeds` worlds per level; every
/// world is independent, and the bandwidth factors are computed in a
/// final index-ordered fold.
pub fn exp_chaff_on(
    levels: &[usize],
    seeds: u64,
    base_seed: u64,
    exec: &impl SweepExecutor,
) -> Vec<ChaffRow> {
    // Timed-mix configuration: high threshold + short deadline, so each
    // flush round carries whatever arrived in the last 40 ms — chaff's
    // natural pairing.
    let run_cfg = |chaff: usize, seed: u64| {
        let config = decoupling::MixnetConfig {
            senders: 8,
            mixes: 2,
            batch_size: 1000,
            window_us: 400_000,
            shuffle: true,
            chaff_per_sender: chaff,
            mix_max_wait_us: Some(40_000),
            seed,
        };
        decoupling::Mixnet::run(&config, seed)
    };
    // Chunk 0 is the zero-chaff baseline; chunk i+1 is levels[i].
    let chunks: Vec<usize> = std::iter::once(0).chain(levels.iter().copied()).collect();
    let per = seeds.max(1);
    let builder = SweepBuilder::new(base_seed).worlds(chunks.len() as u64 * per);
    let run = builder.run_on(exec, |job| {
        let chaff = chunks[(job.index / per) as usize];
        let r = run_cfg(chaff, job.seed);
        (r.attack.accuracy, r.trace.total_bytes())
    });
    let worlds = run.into_results();
    let base_bytes: usize = worlds[..per as usize].iter().map(|w| w.1).sum();
    levels
        .iter()
        .enumerate()
        .map(|(li, &chaff)| {
            let chunk = &worlds[(li + 1) * per as usize..(li + 2) * per as usize];
            ChaffRow {
                chaff_per_sender: chaff,
                attack_accuracy: chunk.iter().map(|w| w.0).sum::<f64>() / per as f64,
                bandwidth_factor: chunk.iter().map(|w| w.1).sum::<usize>() as f64
                    / base_bytes as f64,
            }
        })
        .collect()
}

/// Circuit amortization data point (the Tor-shaped §4.2 operating mode).
#[derive(Clone, Debug, Serialize)]
pub struct CircuitRow {
    /// Hops in the circuit.
    pub hops: usize,
    /// First exchange including circuit build (µs).
    pub first_exchange_us: f64,
    /// Steady-state exchange (µs).
    pub steady_exchange_us: f64,
}

/// Session circuits: build-once, use-many amortization by hop count.
pub fn exp_circuits(max_hops: usize, seed: u64) -> Vec<CircuitRow> {
    (1..=max_hops)
        .map(|hops| {
            let r = decoupling::mixnet::circuit_scenario::run_circuit(hops, 5, seed);
            CircuitRow {
                hops,
                first_exchange_us: r.first_exchange_us,
                steady_exchange_us: r.steady_exchange_us,
            }
        })
        .collect()
}

/// One row of the E-5.1 striping sweep.
#[derive(Clone, Debug, Serialize)]
pub struct StripingRow {
    /// Number of resolvers queries are striped across.
    pub resolvers: usize,
    /// Largest fraction of distinct names any single resolver saw.
    pub max_view_fraction: f64,
    /// Mean fraction across resolvers.
    pub mean_view_fraction: f64,
}

/// E-5.1 — DNS query striping.
pub fn exp_striping(resolver_counts: &[usize], seed: u64) -> Vec<StripingRow> {
    resolver_counts
        .iter()
        .map(|&r| {
            let rep = decoupling::DirectDns::run(&decoupling::DirectDnsConfig::new(4, 50, r), seed);
            let total = rep.distinct_names.max(1) as f64;
            let max = *rep.resolver_views.iter().max().unwrap_or(&0) as f64;
            let mean =
                rep.resolver_views.iter().sum::<usize>() as f64 / rep.resolver_views.len() as f64;
            StripingRow {
                resolvers: r,
                max_view_fraction: max / total,
                mean_view_fraction: mean / total,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_matches_the_paper() {
        for t in all_tables(9000) {
            assert!(t.matches, "{}: measured {:?}", t.id, t.measured);
        }
    }

    #[test]
    fn degrees_sweep_has_the_right_shape() {
        let sweep = exp_degrees(4, 9100);
        sweep.check_shape().expect("shape");
    }
}

// ------------------------------------------------------------- E-OBS ----

/// One instrumented (calm) run of every §3 scenario, yielding the
/// per-scenario [`dcp_core::MetricsReport`] artifacts that the
/// `experiments` binary drops under `out/metrics/` (parallel; see
/// [`exp_metrics_on`]).
pub fn exp_metrics(seed: u64) -> Vec<dcp_core::MetricsReport> {
    exp_metrics_on(seed, &ParallelExecutor::new())
}

/// [`exp_metrics`] on an explicit executor: the eight instrumented
/// scenario runs are independent worlds, fanned across `exec` and
/// gathered in scenario order. Every run keeps the same fixed `seed` the
/// sequential version used, so the artifacts are unchanged.
pub fn exp_metrics_on(seed: u64, exec: &impl SweepExecutor) -> Vec<dcp_core::MetricsReport> {
    use decoupling::ScenarioReport as _;
    let mixnet = decoupling::MixnetConfig {
        senders: 8,
        mixes: 2,
        batch_size: 4,
        window_us: 200_000,
        shuffle: true,
        chaff_per_sender: 0,
        mix_max_wait_us: None,
        seed,
    };
    let pgpp = decoupling::PgppConfig {
        mode: decoupling::pgpp::Mode::Pgpp,
        users: 4,
        cells: 2,
        epochs: 2,
        moves_per_epoch: 2,
        seed,
    };
    let mpr = decoupling::ChainConfig {
        relays: 2,
        users: 2,
        fetches_each: 2,
        geohint: false,
        seed,
    };
    let ppm = decoupling::PpmConfig {
        clients: 4,
        bits: 8,
        malicious: 0,
        seed,
    };
    let observed = decoupling::RunOptions::observed();
    let builder = SweepBuilder::new(seed).worlds(8);
    builder
        .run_on(exec, |job| match job.index {
            0 => decoupling::Blindcash::run_with(
                &decoupling::BlindcashConfig::new(1, 2, 512),
                seed,
                &observed,
            )
            .metrics()
            .clone(),
            1 => decoupling::Mixnet::run_with(&mixnet, seed, &observed)
                .metrics()
                .clone(),
            2 => decoupling::Privacypass::run_with(
                &decoupling::PrivacypassConfig::new(1, 2),
                seed,
                &observed,
            )
            .metrics()
            .clone(),
            3 => decoupling::Odoh::run_with(&decoupling::OdohConfig::new(1, 5), seed, &observed)
                .metrics()
                .clone(),
            4 => decoupling::Pgpp::run_with(&pgpp, seed, &observed)
                .metrics()
                .clone(),
            5 => decoupling::Mpr::run_with(&mpr, seed, &observed)
                .metrics()
                .clone(),
            6 => decoupling::Ppm::run_with(&ppm, seed, &observed)
                .metrics()
                .clone(),
            _ => decoupling::Vpn::run_with(&decoupling::VpnConfig::new(1, 2), seed, &observed)
                .metrics()
                .clone(),
        })
        .into_results()
}

/// One point on the relays-vs-latency curve, measured from span records
/// rather than scenario-internal bookkeeping.
#[derive(Clone, Debug, Serialize)]
pub struct RelayLatencyRow {
    /// Which chain is being lengthened ("mpr" or "mixnet").
    pub scenario: String,
    /// Hop count: MPR relays or mix-net mixes.
    pub relays: usize,
    /// Mean end-to-end span duration (µs) at this hop count.
    pub mean_latency_us: f64,
    /// Wire load at this hop count.
    pub messages_sent: u64,
    /// Bytes offered to the wire at this hop count.
    pub bytes_sent: u64,
    /// Total crypto operations (seals, opens, blinds, …).
    pub crypto_ops: u64,
}

/// E-OBS-1 — relays vs latency, from the metrics layer: each added hop
/// buys decoupling (§4.2) and costs propagation plus crypto. Sweeps the
/// MPR chain over `0..=max_relays` and the mix-net over 1–3 mixes
/// (parallel; see [`exp_relay_latency_on`]).
pub fn exp_relay_latency(max_relays: usize, seed: u64) -> Vec<RelayLatencyRow> {
    exp_relay_latency_on(max_relays, seed, &ParallelExecutor::new())
}

/// [`exp_relay_latency`] on an explicit executor: every curve point is an
/// independent instrumented world, fanned across `exec` and gathered in
/// row order at the fixed `seed` the sequential version used.
pub fn exp_relay_latency_on(
    max_relays: usize,
    seed: u64,
    exec: &impl SweepExecutor,
) -> Vec<RelayLatencyRow> {
    use decoupling::ScenarioReport as _;
    let observed = decoupling::RunOptions::observed();
    let mpr_rows = max_relays as u64 + 1;
    let builder = SweepBuilder::new(seed).worlds(mpr_rows + 3);
    builder
        .run_on(exec, |job| {
            if job.index < mpr_rows {
                let relays = job.index as usize;
                let chain = decoupling::ChainConfig {
                    relays,
                    users: 2,
                    fetches_each: 2,
                    geohint: false,
                    seed,
                };
                let m = decoupling::Mpr::run_with(&chain, seed, &observed)
                    .metrics()
                    .clone();
                RelayLatencyRow {
                    scenario: "mpr".into(),
                    relays,
                    mean_latency_us: m.mean_span_us("fetch").unwrap_or(0.0),
                    messages_sent: m.messages_sent,
                    bytes_sent: m.bytes_sent,
                    crypto_ops: m.crypto_total(),
                }
            } else {
                let mixes = (job.index - mpr_rows) as usize + 1;
                let config = decoupling::MixnetConfig {
                    senders: 6,
                    mixes,
                    batch_size: 3,
                    window_us: 100_000,
                    shuffle: true,
                    chaff_per_sender: 0,
                    mix_max_wait_us: None,
                    seed,
                };
                let m = decoupling::Mixnet::run_with(&config, seed, &observed)
                    .metrics()
                    .clone();
                RelayLatencyRow {
                    scenario: "mixnet".into(),
                    relays: mixes,
                    mean_latency_us: m.mean_span_us("e2e").unwrap_or(0.0),
                    messages_sent: m.messages_sent,
                    bytes_sent: m.bytes_sent,
                    crypto_ops: m.crypto_total(),
                }
            }
        })
        .into_results()
}

/// One point on the padding-cost curve: chaff level vs measured wire
/// bytes, from the simulator's own accounting.
#[derive(Clone, Debug, Serialize)]
pub struct PaddingCostRow {
    /// Decoy messages injected per real sender.
    pub chaff_per_sender: usize,
    /// Bytes offered to the wire (real + chaff).
    pub bytes_sent: u64,
    /// Messages offered to the wire.
    pub messages_sent: u64,
    /// Bytes relative to the zero-chaff baseline.
    pub bytes_factor: f64,
    /// Mean end-to-end latency for *real* traffic (µs).
    pub mean_e2e_us: f64,
}

/// E-OBS-2 — the §4.3 padding cost, measured at the wire: cover traffic
/// multiplies bytes sent while real-traffic latency stays flat
/// (parallel; see [`exp_padding_cost_on`]).
pub fn exp_padding_cost(levels: &[usize], seed: u64) -> Vec<PaddingCostRow> {
    exp_padding_cost_on(levels, seed, &ParallelExecutor::new())
}

/// [`exp_padding_cost`] on an explicit executor: one independent world
/// per chaff level at the fixed `seed`, with the baseline-relative
/// `bytes_factor` computed afterwards in an index-ordered fold (the
/// baseline is the first level's measured bytes, as before).
pub fn exp_padding_cost_on(
    levels: &[usize],
    seed: u64,
    exec: &impl SweepExecutor,
) -> Vec<PaddingCostRow> {
    use decoupling::ScenarioReport as _;
    let observed = decoupling::RunOptions::observed();
    let builder = SweepBuilder::new(seed).worlds(levels.len() as u64);
    let run = builder.run_on(exec, |job| {
        let chaff = levels[job.index as usize];
        let config = decoupling::MixnetConfig {
            senders: 6,
            mixes: 2,
            batch_size: 3,
            window_us: 100_000,
            shuffle: true,
            chaff_per_sender: chaff,
            mix_max_wait_us: None,
            seed,
        };
        let m = decoupling::Mixnet::run_with(&config, seed, &observed)
            .metrics()
            .clone();
        PaddingCostRow {
            chaff_per_sender: chaff,
            bytes_sent: m.bytes_sent,
            messages_sent: m.messages_sent,
            bytes_factor: 0.0, // baseline-relative, filled in the fold below
            mean_e2e_us: m.mean_span_us("e2e").unwrap_or(0.0),
        }
    });
    let mut rows = run.into_results();
    let base = rows.first().map_or(0, |r: &PaddingCostRow| r.bytes_sent);
    for row in &mut rows {
        row.bytes_factor = row.bytes_sent as f64 / base.max(1) as f64;
    }
    rows
}
