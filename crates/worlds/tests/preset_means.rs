//! The merged arrival stream keeps the law of the per-user streams it
//! replaced. For each preset on `WorldSpec::smoke()`, the mean over
//! seeds 1–20 of five report statistics must lie within 4 standard
//! errors of the per-user engine's mean, the standard error being that
//! engine's own (its sample standard deviation over √20). Where that
//! engine's value did not vary across the seeds, every seed must match it
//! exactly.

use dcp_worlds::{Engine, PopReport, Topology, WorldSpec};

/// A report statistic, by name.
type Stat = (&'static str, fn(&PopReport) -> f64);

/// The statistics compared, in the order of [`PER_USER_ENGINE`].
const STATS: [Stat; 5] = [
    ("queries_sent", |r| r.queries_sent as f64),
    ("mean_anonymity_set", |r| r.mean_anonymity_set),
    ("resolver_user_coverage", |r| r.resolver_user_coverage),
    ("max_resolver_share", |r| r.max_resolver_share),
    ("mean_latency_us", |r| r.mean_latency_us),
];

/// `(mean, standard error)` of each statistic over seeds 1–20, recorded
/// from the per-user engine (one pending arrival per user on the timer
/// wheel) that the merged stream replaced. A standard error of 0 marks a
/// value that did not vary.
#[rustfmt::skip]
const PER_USER_ENGINE: [(&str, [(f64, f64); 5]); 9] = [
    ("odoh", [(2275.35, 12.61), (2.1086905, 0.008318), (0.9695, 0.001648), (0.66198636, 0.002231), (43677.6595, 6.816)]),
    ("mixnet", [(2275.35, 12.61), (9.61822101, 0.04493), (0.99775, 0.0006762), (1.0, 0.0), (131046.298, 27.97)]),
    ("mpr", [(2275.35, 12.61), (1.44489039, 0.004351), (0.8379375, 0.003165), (0.480139895, 0.002895), (49690.9577, 2.625)]),
    ("vpn", [(2275.35, 12.61), (0.0, 0.0), (0.99775, 0.0006762), (1.0, 0.0), (40000.0, 0.0)]),
    ("direct", [(2275.35, 12.61), (0.0, 0.0), (0.99775, 0.0006762), (1.0, 0.0), (20000.0, 0.0)]),
    ("pgpp", [(2275.35, 12.61), (2.06426597, 0.007125), (0.2494375, 0.000169), (1.0, 0.0), (47347.1506, 10.16)]),
    ("ppm", [(2275.35, 12.61), (21.1933006, 0.1094), (0.498875, 0.0003381), (1.0, 0.0), (66026.1808, 63.76)]),
    ("privacypass", [(2275.35, 12.61), (0.0, 0.0), (0.9695, 0.001648), (0.66198636, 0.002231), (40000.0, 0.0)]),
    ("blindcash", [(2275.35, 12.61), (1.45914877, 0.003804), (0.9695, 0.001648), (0.66198636, 0.002231), (40841.0695, 1.113)]),
];

#[test]
fn preset_means_match_the_per_user_engine() {
    const SEEDS: u64 = 20;
    for (preset, recorded) in PER_USER_ENGINE {
        let topo = Topology::by_name(preset).unwrap();
        let reports: Vec<PopReport> = (1..=SEEDS)
            .map(|seed| {
                let mut e = Engine::new(&WorldSpec::smoke(), &topo, seed).unwrap();
                e.run_to_end();
                e.report()
            })
            .collect();
        for ((stat, of), (mean, se)) in STATS.iter().zip(recorded) {
            let values: Vec<f64> = reports.iter().map(of).collect();
            if se == 0.0 {
                assert!(
                    values.iter().all(|&v| v == mean),
                    "{preset} {stat}: {values:?}, the per-user engine's was always {mean}"
                );
            } else {
                let got = values.iter().sum::<f64>() / SEEDS as f64;
                assert!(
                    (got - mean).abs() <= 4.0 * se,
                    "{preset} {stat}: mean {got} is {:.1} standard errors from {mean}",
                    (got - mean) / se
                );
            }
        }
    }
}
