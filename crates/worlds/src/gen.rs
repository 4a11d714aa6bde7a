//! Seeded workload generators: Zipf query populations, Poisson
//! arrivals, diurnal load curves.
//!
//! Real query workloads are nothing like `2 clients × 5 queries`: name
//! popularity is Zipf-distributed, per-user activity is heavy-tailed,
//! arrivals are Poisson within a diurnal envelope. These generators
//! produce that shape deterministically from a seed, so a 10⁶-user world
//! replays bit-for-bit.

use crate::rng::SplitMix64;

/// A Zipf(s) distribution over ranks `0..n` (rank 0 most popular):
/// `P(k) ∝ 1/(k+1)^s`. `s = 0` degenerates to uniform; large `s`
/// concentrates all mass on the head (weights underflow to zero
/// harmlessly — the CDF stays monotone).
///
/// Sampling is by inversion against a precomputed CDF, through a guide
/// table (Chen & Asau's indexed search): `K`, the power of two at or
/// above `n`, equal buckets of `[0, 1)`, each holding the first rank its
/// lower edge can draw. A draw `u` starts at its bucket's entry and scans
/// up, at most `1 + n/K ≤ 2` CDF entries on average, so a draw is O(1)
/// expected. The rank is exactly the binary search's. Memory: one `f64`
/// per rank and at most two `u32`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF exceeds `j / K` (at most
    /// the last rank), where `K = guide.len()`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Build the distribution; `None` for an empty population (`n = 0`),
    /// more ranks than a `u32` indexes, a non-finite/negative exponent, or
    /// tables the host cannot allocate.
    pub fn new(n: usize, s: f64) -> Option<Zipf> {
        Zipf::from_cdf(zipf_cdf(n, s)?)
    }

    /// Index a non-empty, non-decreasing CDF whose last entry is 1.
    fn from_cdf(cdf: Vec<f64>) -> Option<Zipf> {
        let buckets = cdf.len().checked_next_power_of_two()?;
        let last = u32::try_from(cdf.len() - 1).ok()?;
        let mut guide = Vec::new();
        guide.try_reserve_exact(buckets).ok()?;
        let mut rank = 0;
        for j in 0..buckets {
            // Exact: `buckets` is a power of two no larger than 2³².
            let edge = j as f64 / buckets as f64;
            while rank < last && cdf[rank as usize] <= edge {
                rank += 1;
            }
            guide.push(rank);
        }
        Some(Zipf { cdf, guide })
    }

    /// Population size.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// The probability weight of rank `k` (difference of adjacent CDF
    /// entries).
    pub fn weight(&self, k: usize) -> f64 {
        cdf_weight(&self.cdf, k)
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.rank(rng.next_f64())
    }

    /// The rank `u ∈ [0, 1)` inverts to: the number of CDF entries at or
    /// below `u`, capped at the last rank.
    fn rank(&self, u: f64) -> usize {
        // `u · K` only shifts the exponent, so the bucket is exact, and
        // every CDF entry below the guide's start is at most `j / K ≤ u`.
        let j = (u * self.guide.len() as f64) as usize;
        let mut rank = self.guide[j] as usize;
        let last = self.cdf.len() - 1;
        while rank < last && self.cdf[rank] <= u {
            rank += 1;
        }
        rank
    }
}

/// The normalised Zipf(s) CDF over `n` ranks, or `None` for an empty
/// population, a non-finite/negative exponent or a table the host cannot
/// allocate. Non-decreasing, with a last entry of exactly 1.
fn zipf_cdf(n: usize, s: f64) -> Option<Vec<f64>> {
    if n == 0 || !s.is_finite() || s < 0.0 {
        return None;
    }
    let mut cdf = Vec::new();
    cdf.try_reserve_exact(n).ok()?;
    let mut acc = 0.0f64;
    for k in 0..n {
        acc += ((k + 1) as f64).powf(-s);
        cdf.push(acc);
    }
    let total = acc;
    if total > 0.0 {
        for c in &mut cdf {
            *c /= total;
        }
    } else {
        // s so large every weight underflowed: all mass on rank 0
        // (a constant CDF of 1.0 makes inversion return rank 0).
        cdf.fill(1.0);
    }
    Some(cdf)
}

/// Rank `k`'s weight in a CDF.
fn cdf_weight(cdf: &[f64], k: usize) -> f64 {
    let hi = cdf[k];
    let lo = if k == 0 { 0.0 } else { cdf[k - 1] };
    hi - lo
}

/// Homogeneous Poisson arrivals at `rate_hz` events per simulated
/// second: exponential inter-arrival times via inversion. A rate of `0`
/// (or any non-positive/non-finite rate) produces no arrivals, ever.
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    rate_hz: f64,
}

impl Poisson {
    /// A process at `rate_hz` arrivals per simulated second.
    pub fn new(rate_hz: f64) -> Poisson {
        Poisson { rate_hz }
    }

    /// The configured rate.
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// Next inter-arrival gap in µs, or `None` if the process never
    /// fires (rate ≤ 0). Gaps are at least 1 µs so arrival times
    /// strictly advance.
    pub fn next_interarrival_us(&self, rng: &mut SplitMix64) -> Option<u64> {
        if self.rate_hz <= 0.0 || !self.rate_hz.is_finite() {
            return None;
        }
        let u = rng.next_f64(); // [0, 1) → 1-u ∈ (0, 1], ln is finite
        let gap_s = -(1.0 - u).ln() / self.rate_hz;
        Some(((gap_s * 1e6).ceil() as u64).max(1))
    }
}

/// A sinusoidal diurnal load envelope: instantaneous rate factor
/// `1 + amplitude · sin(2πt/period)`, so load swings between
/// `1 - amplitude` and `1 + amplitude` around the mean. `amplitude = 0`
/// or `period_us = 0` is flat.
#[derive(Clone, Copy, Debug)]
pub struct Diurnal {
    /// Swing around the mean rate, clamped to `[0, 0.99]` on
    /// construction so the trough never reaches zero.
    pub amplitude: f64,
    /// Cycle length in simulated µs.
    pub period_us: u64,
}

impl Diurnal {
    /// An envelope with the given swing and period (amplitude clamped to
    /// `[0, 0.99]`).
    pub fn new(amplitude: f64, period_us: u64) -> Diurnal {
        let amplitude = if amplitude.is_finite() {
            amplitude.clamp(0.0, 0.99)
        } else {
            0.0
        };
        Diurnal {
            amplitude,
            period_us,
        }
    }

    /// The rate factor at simulated time `t_us`.
    pub fn factor(&self, t_us: u64) -> f64 {
        if self.amplitude == 0.0 || self.period_us == 0 {
            return 1.0;
        }
        let phase = (t_us % self.period_us) as f64 / self.period_us as f64;
        1.0 + self.amplitude * (phase * core::f64::consts::TAU).sin()
    }
}

/// The assembled per-world workload: name popularity (Zipf), per-user
/// activity skew (Zipf weights as rate multipliers), Poisson arrivals
/// under the diurnal envelope. Built by
/// [`WorkloadBuilder`](crate::spec::WorkloadBuilder) from a
/// [`WorldSpec`](crate::spec::WorldSpec).
#[derive(Clone, Debug)]
pub struct Workload {
    names: Zipf,
    /// Per-user rate multiplier (mean 1.0 across the population).
    user_multiplier: Vec<f64>,
    /// Per-user mean arrival rate × multiplier, sampled at the diurnal
    /// *peak* and thinned down to the envelope.
    base: Poisson,
    diurnal: Diurnal,
}

impl Workload {
    pub(crate) fn assemble(
        users: usize,
        names: usize,
        name_exponent: f64,
        user_exponent: f64,
        rate_hz: f64,
        diurnal: Diurnal,
    ) -> Result<Workload, String> {
        let names = Zipf::new(names, name_exponent).ok_or_else(|| {
            format!("empty, invalid or unallocatable name population (n={names})")
        })?;
        // Activity is never sampled, so it needs the CDF alone.
        let activity = zipf_cdf(users, user_exponent).ok_or_else(|| {
            format!("empty, invalid or unallocatable user population (n={users})")
        })?;
        // Zipf weights sum to 1; scaling by n gives multipliers with
        // population mean exactly 1, so `rate_hz` stays the mean rate.
        let user_multiplier = (0..users)
            .map(|u| cdf_weight(&activity, u) * users as f64)
            .collect();
        Ok(Workload {
            names,
            user_multiplier,
            base: Poisson::new(rate_hz),
            diurnal,
        })
    }

    /// How many users this workload drives.
    pub fn users(&self) -> usize {
        self.user_multiplier.len()
    }

    /// Draw a query name (rank; 0 = most popular).
    pub fn sample_name(&self, rng: &mut SplitMix64) -> u32 {
        self.names.sample(rng) as u32
    }

    /// `user`'s next arrival strictly after `after_us`, or `None` if the
    /// user never queries (zero rate). Poisson thinning against the
    /// diurnal envelope: sample at the peak rate, accept with
    /// probability `factor(t) / (1 + amplitude)` — an exact
    /// inhomogeneous-Poisson draw, deterministic given the RNG.
    pub fn next_arrival_us(&self, user: u32, after_us: u64, rng: &mut SplitMix64) -> Option<u64> {
        let mult = self.user_multiplier.get(user as usize).copied()?;
        let peak_rate = self.base.rate_hz() * mult * (1.0 + self.diurnal.amplitude);
        let peak = Poisson::new(peak_rate);
        let mut t = after_us;
        loop {
            t = t.saturating_add(peak.next_interarrival_us(rng)?);
            let accept = self.diurnal.factor(t) / (1.0 + self.diurnal.amplitude);
            if rng.next_f64() < accept {
                return Some(t);
            }
            if t == u64::MAX {
                return None; // saturated past the end of time
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    use super::*;

    /// The binary search's rank, capped at the last: what a draw of `u`
    /// must return.
    fn searched_rank(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c <= u).min(z.n() - 1)
    }

    /// Every bucket edge and every CDF value, each with its neighbouring
    /// doubles, inside `[0, 1)`: the draws where a guide could be off by
    /// one.
    fn edge_draws(z: &Zipf) -> Vec<f64> {
        let k = z.guide.len() as f64;
        (0..z.guide.len())
            .map(|j| j as f64 / k)
            .chain(z.cdf.iter().copied())
            .flat_map(|u| [u.next_down(), u, u.next_up()])
            .filter(|u| (0.0..1.0).contains(u))
            .collect()
    }

    fn assert_guided_draws_match(z: &Zipf, draws: &[f64]) -> Result<(), TestCaseError> {
        for &u in edge_draws(z).iter().chain(draws) {
            prop_assert_eq!(z.rank(u), searched_rank(z, u), "u = {}", u);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The guide table only chooses where the scan starts: on any
        /// CDF, zero-weight runs and tiny weights included, a draw is the
        /// binary search's rank.
        #[test]
        fn guided_draws_match_the_binary_search(
            weights in collection::vec(
                (0u8..4, any::<f64>()).prop_map(|(kind, x)| match kind {
                    0 => 0.0,
                    1 => x * 1e-300,
                    2 => x,
                    _ => 1.0 + x * 1e6,
                }),
                1..300,
            ),
            draws in collection::vec(any::<f64>(), 0..64),
        ) {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = weights.iter().map(|w| { acc += w; acc }).collect();
            if acc > 0.0 {
                cdf.iter_mut().for_each(|c| *c /= acc);
            } else {
                cdf.fill(1.0);
            }
            let z = Zipf::from_cdf(cdf).unwrap();
            assert_guided_draws_match(&z, &draws)?;
        }

        /// The same for Zipf tables, from uniform (`s = 0`) to exponents
        /// so large that every weight but the head's underflows.
        #[test]
        fn guided_zipf_draws_match_the_binary_search(
            n in 1usize..2_000,
            s in prop_oneof![
                Just(0.0),
                any::<f64>().prop_map(|x| x * 3.0),
                Just(60.0),
                Just(5000.0),
                Just(1e300),
            ],
            seed in any::<u64>(),
        ) {
            let z = Zipf::new(n, s).unwrap();
            let mut rng = SplitMix64::new(seed);
            let draws: Vec<f64> = (0..64).map(|_| rng.next_f64()).collect();
            assert_guided_draws_match(&z, &draws)?;
        }
    }

    #[test]
    fn zipf_rejects_empty_population() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(0, 0.0).is_none());
        assert!(Zipf::new(5, f64::NAN).is_none());
        assert!(Zipf::new(5, -1.0).is_none());
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 0..4 {
            assert!((z.weight(k) - 0.25).abs() < 1e-12);
        }
        let mut rng = SplitMix64::new(3);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "roughly uniform: {counts:?}");
        }
    }

    #[test]
    fn zipf_large_exponent_concentrates_on_head() {
        let z = Zipf::new(1000, 60.0).unwrap();
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut rng), 0, "s=60: all mass at rank 0");
        }
        // Even more extreme: every weight underflows; still rank 0.
        let z = Zipf::new(1000, 5000.0).unwrap();
        assert_eq!(z.sample(&mut SplitMix64::new(1)), 0);
    }

    #[test]
    fn zipf_is_head_heavy() {
        let z = Zipf::new(100, 1.1).unwrap();
        assert!(z.weight(0) > z.weight(1));
        assert!(z.weight(1) > z.weight(50));
        let total: f64 = (0..100).map(|k| z.weight(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_rate_zero_never_fires() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(Poisson::new(0.0).next_interarrival_us(&mut rng), None);
        assert_eq!(Poisson::new(-3.0).next_interarrival_us(&mut rng), None);
        assert_eq!(Poisson::new(f64::NAN).next_interarrival_us(&mut rng), None);
        assert_eq!(
            Poisson::new(f64::INFINITY).next_interarrival_us(&mut rng),
            None
        );
    }

    #[test]
    fn poisson_mean_tracks_rate() {
        let p = Poisson::new(100.0); // 100 Hz → mean gap 10_000 µs
        let mut rng = SplitMix64::new(11);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| p.next_interarrival_us(&mut rng).unwrap())
            .sum();
        let mean = total as f64 / n as f64;
        assert!(
            (8_000.0..12_000.0).contains(&mean),
            "mean gap ≈ 10ms, got {mean}"
        );
    }

    #[test]
    fn diurnal_envelope_bounds_and_clamp() {
        let d = Diurnal::new(0.5, 1000);
        for t in 0..2000 {
            let f = d.factor(t);
            assert!((0.5..=1.5).contains(&f));
        }
        assert_eq!(Diurnal::new(7.0, 10).amplitude, 0.99, "clamped");
        assert_eq!(Diurnal::new(f64::NAN, 10).amplitude, 0.0);
        assert_eq!(Diurnal::new(0.9, 0).factor(123), 1.0, "no period → flat");
    }

    #[test]
    fn workload_arrivals_advance_and_respect_zero_rate() {
        let w = Workload::assemble(10, 10, 1.0, 0.5, 50.0, Diurnal::new(0.8, 1_000_000)).unwrap();
        let mut rng = SplitMix64::new(2);
        let mut t = 0;
        for _ in 0..200 {
            let next = w.next_arrival_us(3, t, &mut rng).unwrap();
            assert!(next > t, "arrivals strictly advance");
            t = next;
        }
        let silent = Workload::assemble(4, 4, 1.0, 0.0, 0.0, Diurnal::new(0.0, 0)).unwrap();
        assert_eq!(silent.next_arrival_us(0, 0, &mut rng), None);
        assert_eq!(w.next_arrival_us(999, 0, &mut rng), None, "unknown user");
    }

    #[test]
    fn workload_rejects_empty_populations() {
        assert!(Workload::assemble(0, 5, 1.0, 1.0, 1.0, Diurnal::new(0.0, 0)).is_err());
        assert!(Workload::assemble(5, 0, 1.0, 1.0, 1.0, Diurnal::new(0.0, 0)).is_err());
    }
}
