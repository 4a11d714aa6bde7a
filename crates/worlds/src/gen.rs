//! Seeded workload generators: Zipf query populations, Poisson
//! arrivals, diurnal load curves.
//!
//! Real query workloads are nothing like `2 clients × 5 queries`: name
//! popularity is Zipf-distributed, per-user activity is heavy-tailed,
//! arrivals are Poisson within a diurnal envelope. These generators
//! produce that shape deterministically from a seed, so a 10⁶-user world
//! replays bit-for-bit.
//!
//! The engine's arrival stream is a pure function of the seed and the
//! spec, so a producer thread draws it ahead of the event loop that
//! consumes it.

use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

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
        if acc > 0.0 {
            cdf.iter_mut().for_each(|c| *c /= acc);
        } else {
            // s so large every weight underflowed: all mass on rank 0
            // (a constant CDF of 1.0 makes inversion return rank 0).
            cdf.fill(1.0);
        }
        Zipf::from_cdf(cdf)
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
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
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

    /// Next inter-arrival gap in µs, unrounded and non-negative, or
    /// `None` if the process never fires (rate ≤ 0).
    pub(crate) fn next_gap_us(&self, rng: &mut SplitMix64) -> Option<f64> {
        if self.rate_hz <= 0.0 || !self.rate_hz.is_finite() {
            return None;
        }
        let u = rng.next_f64(); // [0, 1) → 1-u ∈ (0, 1], ln is finite
        Some(-(1.0 - u).ln() / self.rate_hz * 1e6)
    }

    /// Next inter-arrival gap in µs, or `None` if the process never
    /// fires (rate ≤ 0). Gaps are at least 1 µs so arrival times
    /// strictly advance.
    pub fn next_interarrival_us(&self, rng: &mut SplitMix64) -> Option<u64> {
        self.next_gap_us(rng).map(|gap| (gap.ceil() as u64).max(1))
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

    fn is_flat(&self) -> bool {
        self.amplitude == 0.0 || self.period_us == 0
    }

    /// The rate factor at simulated time `t_us`.
    pub fn factor(&self, t_us: u64) -> f64 {
        if self.is_flat() {
            return 1.0;
        }
        let phase = (t_us % self.period_us) as f64 / self.period_us as f64;
        self.level((phase * core::f64::consts::TAU).sin())
    }

    /// The factor where the sine reads `s`: monotone in `s`, also in
    /// floating point, which is what [`Squeeze`]'s bounds rest on.
    fn level(&self, s: f64) -> f64 {
        1.0 + self.amplitude * s
    }
}

/// Phase buckets of [`Squeeze`]'s table: a multiple of 4, so the sine's
/// extremes fall on bucket edges and it is monotone inside each bucket.
const PHASE_BUCKETS: usize = 1024;

/// How far the sine ranges are widened: far above the error of `sin` and
/// of [`Diurnal::factor`]'s phase arithmetic (about 10⁻¹⁵).
const SIN_MARGIN: f64 = 1e-9;

/// Thinning against the diurnal envelope: a candidate at `t` is kept
/// when a uniform draw `u` is below `factor(t) / (1 + amplitude)`; only a
/// draw between two tabled bounds on that acceptance evaluates it.
///
/// Bucket `j` of the phase holds bounds on the acceptance over buckets
/// `j - 1` to `j + 1`, computed through the acceptance's own expression
/// at their sine range widened by [`SIN_MARGIN`]; floating-point rounding
/// is monotone, so they bound every computed acceptance there. The bucket
/// estimated as `t · (buckets / period)` is off by far less than one
/// while `t` is under 2³⁰ periods, which the neighbours cover; later
/// times take the direct comparison.
#[derive(Clone, Debug)]
struct Squeeze {
    diurnal: Diurnal,
    /// `(lower, upper)` bounds on the acceptance, per phase bucket.
    bounds: Vec<(f64, f64)>,
    /// `PHASE_BUCKETS / period_us`; 0 for a flat envelope, whose one
    /// acceptance every bucket holds exactly.
    buckets_per_us: f64,
    /// Times below this have a bucket estimate within one bucket.
    safe_below: u64,
}

impl Squeeze {
    fn new(diurnal: Diurnal) -> Squeeze {
        let flat = diurnal.is_flat();
        let accept = |s: f64| diurnal.level(s) / (1.0 + diurnal.amplitude);
        let sin_at =
            |edge: usize| (edge as f64 / PHASE_BUCKETS as f64 * core::f64::consts::TAU).sin();
        let bounds = (0..PHASE_BUCKETS)
            .map(|j| {
                if flat {
                    // `factor` is exactly `level(0)`.
                    return (accept(0.0), accept(0.0));
                }
                let edges = [j + PHASE_BUCKETS - 1, j, j + 1, j + 2].map(sin_at);
                let lo = edges.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = edges.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (accept(lo - SIN_MARGIN), accept(hi + SIN_MARGIN))
            })
            .collect();
        let period = diurnal.period_us;
        let (buckets_per_us, safe_below) = match flat {
            true => (0.0, u64::MAX),
            false => (
                PHASE_BUCKETS as f64 / period as f64,
                period.saturating_mul(1 << 30),
            ),
        };
        Squeeze {
            diurnal,
            bounds,
            buckets_per_us,
            safe_below,
        }
    }

    /// Whether a candidate at `t_us` with uniform draw `u` is kept:
    /// exactly `u < factor(t_us) / (1 + amplitude)`.
    fn accepts(&self, t_us: u64, u: f64) -> bool {
        if t_us < self.safe_below {
            let j = (t_us as f64 * self.buckets_per_us) as usize % PHASE_BUCKETS;
            let (lo, hi) = self.bounds[j];
            if u < lo {
                return true;
            }
            if u >= hi {
                return false;
            }
        }
        u < self.diurnal.factor(t_us) / (1.0 + self.diurnal.amplitude)
    }
}

/// The assembled per-world workload: name popularity (Zipf), per-user
/// activity skew (Zipf), and the users' arrivals under the diurnal
/// envelope. Built by [`WorkloadBuilder`](crate::spec::WorkloadBuilder)
/// from a [`WorldSpec`](crate::spec::WorldSpec).
///
/// User `u` queries at `λᵤ · factor(t)`, `λᵤ` its activity weight's share
/// of `users × rate_hz`. Every user shares the envelope, so these Poisson
/// streams superpose into one at `Σλ · factor(t)` whose every arrival is
/// user `u`'s with probability `λᵤ / Σλ`; that stream is drawn at its
/// peak rate and thinned to the envelope (Lewis & Shedler, 1979).
#[derive(Clone, Debug)]
pub struct Workload {
    names: Zipf,
    /// Who issues an arrival: the activity Zipf.
    users: Zipf,
    /// The merged stream at the envelope's peak, `Σλ · (1 + amplitude)`.
    peak: Poisson,
    thinning: Squeeze,
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
        let activity = Zipf::new(users, user_exponent).ok_or_else(|| {
            format!("empty, invalid or unallocatable user population (n={users})")
        })?;
        // Activity weights sum to 1, so `rate_hz` stays the mean per-user
        // rate and the users together send `users × rate_hz`.
        let peak = Poisson::new(rate_hz * users as f64 * (1.0 + diurnal.amplitude));
        Ok(Workload {
            names,
            users: activity,
            peak,
            thinning: Squeeze::new(diurnal),
        })
    }

    /// Draw a query name (rank; 0 = most popular).
    pub fn sample_name(&self, rng: &mut SplitMix64) -> u32 {
        self.names.sample(rng) as u32
    }

    /// Draw the user who issues an arrival (rank; 0 = most active).
    pub(crate) fn sample_user(&self, rng: &mut SplitMix64) -> u32 {
        self.users.sample(rng) as u32
    }

    /// The merged stream's next arrival before `end_us`: its continuous
    /// time `clock_us` (µs, advanced to it) rounded up to the µs, so
    /// arrivals may share a µs. Once a candidate reaches `end_us`, or if
    /// the stream never fires, the clock stops at `end_us` and this is
    /// `None` from then on.
    pub fn next_arrival(
        &self,
        clock_us: &mut f64,
        end_us: u64,
        rng: &mut SplitMix64,
    ) -> Option<u64> {
        while *clock_us < end_us as f64 {
            let Some(gap) = self.peak.next_gap_us(rng) else {
                break;
            };
            *clock_us += gap;
            let t = clock_us.ceil() as u64;
            if t >= end_us {
                break;
            }
            if self.thinning.accepts(t, rng.next_f64()) {
                return Some(t);
            }
        }
        *clock_us = end_us as f64;
        None
    }

    /// The draws for the stream's pending arrival: its user, its name,
    /// then the next arrival before `end_us`
    /// ([`next_arrival`](Workload::next_arrival)).
    pub(crate) fn draw_query(
        &self,
        clock_us: &mut f64,
        end_us: u64,
        rng: &mut SplitMix64,
    ) -> Query {
        let user = self.sample_user(rng);
        let name = self.sample_name(rng);
        let next = self.next_arrival(clock_us, end_us, rng);
        Query {
            user,
            name,
            next,
            rng: rng.state(),
            clock_us: *clock_us,
        }
    }
}

/// One arrival of the merged stream, as [`Workload::draw_query`] drew
/// it: who asks, for which name, when the stream's next arrival falls,
/// and the generator's state and the stream's clock after those draws.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Query {
    pub user: u32,
    pub name: u32,
    /// The next arrival's time; `None` marks the stream's end.
    pub next: Option<u64>,
    pub rng: u64,
    pub clock_us: f64,
}

/// Queries per block the producer sends.
pub(crate) const BLOCK: usize = 1024;

/// Blocks the channel holds before the producer waits.
const BLOCKS_AHEAD: usize = 2;

/// The merged stream's queries, drawn ahead by a producer thread that
/// owns the stream's generator and clock and sends them in blocks of
/// [`BLOCK`] through a bounded channel.
///
/// The stream's last query carries `next: None`; the producer sends it
/// and returns, and its consumer asks for no query past it. A channel
/// that closes before then is a panic, never a short stream. Dropping
/// this hangs up, which wakes a producer waiting to send, and joins it.
#[derive(Debug)]
pub(crate) struct DrawnAhead {
    /// The current block's queries not yet taken.
    block: std::vec::IntoIter<Query>,
    /// `None` only while dropping.
    blocks: Option<Receiver<Vec<Query>>>,
    producer: Option<JoinHandle<()>>,
}

impl DrawnAhead {
    /// Draw from a pending arrival on: `rng` and `clock_us` are the
    /// generator and clock just after that arrival was drawn.
    pub(crate) fn spawn(
        workload: Arc<Workload>,
        end_us: u64,
        mut rng: SplitMix64,
        mut clock_us: f64,
    ) -> DrawnAhead {
        let (tx, blocks) = sync_channel(BLOCKS_AHEAD);
        let producer = std::thread::Builder::new()
            .name("dcp-worlds-arrivals".into())
            .spawn(move || loop {
                let mut block = Vec::with_capacity(BLOCK);
                let mut ended = false;
                while block.len() < BLOCK && !ended {
                    let query = workload.draw_query(&mut clock_us, end_us, &mut rng);
                    ended = query.next.is_none();
                    block.push(query);
                }
                // A failed send means the consumer was dropped.
                if tx.send(block).is_err() || ended {
                    return;
                }
            })
            .expect("the host refused a thread for the arrival stream");
        DrawnAhead {
            block: Vec::new().into_iter(),
            blocks: Some(blocks),
            producer: Some(producer),
        }
    }

    /// The next query of the stream.
    pub(crate) fn next(&mut self) -> Query {
        loop {
            if let Some(query) = self.block.next() {
                return query;
            }
            let blocks = self
                .blocks
                .as_ref()
                .expect("only dropping takes the channel");
            match blocks.recv() {
                Ok(block) => self.block = block.into_iter(),
                Err(_) => self.closed_early(),
            }
        }
    }

    /// The channel closed while a query was still due: the producer
    /// panicked, whose panic this passes on.
    fn closed_early(&mut self) -> ! {
        if let Some(Err(panic)) = self.producer.take().map(JoinHandle::join) {
            std::panic::resume_unwind(panic);
        }
        panic!("the arrival stream closed before its end");
    }
}

impl Drop for DrawnAhead {
    fn drop(&mut self) {
        drop(self.blocks.take());
        if let Some(producer) = self.producer.take() {
            // A producer's panic has nothing left to stop; `Drop` must not
            // panic in turn.
            let _ = producer.join();
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

    /// Every arrival of a fresh stream before `end_us`.
    fn arrivals(w: &Workload, end_us: u64, seed: u64) -> Vec<u64> {
        let (mut clock, mut rng) = (0.0, SplitMix64::new(seed));
        std::iter::from_fn(|| w.next_arrival(&mut clock, end_us, &mut rng)).collect()
    }

    #[test]
    fn workload_arrivals_advance_and_respect_zero_rate() {
        let w = Workload::assemble(10, 10, 1.0, 0.5, 50.0, Diurnal::new(0.8, 1_000_000)).unwrap();
        let times = arrivals(&w, 2_000_000, 2);
        assert!(times.len() > 100, "{} arrivals", times.len());
        assert!(times.windows(2).all(|p| p[0] <= p[1]), "never backwards");
        assert!(times.iter().all(|&t| t < 2_000_000));
        // The clock stops at the end, and an ended stream stays ended.
        let (mut clock, mut rng) = (1_999_999.5, SplitMix64::new(3));
        assert_eq!(w.next_arrival(&mut clock, 2_000_000, &mut rng), None);
        assert_eq!(clock, 2_000_000.0);
        let state = rng.state();
        assert_eq!(w.next_arrival(&mut clock, 2_000_000, &mut rng), None);
        assert_eq!(rng.state(), state, "no draws once ended");
        let silent = Workload::assemble(4, 4, 1.0, 0.0, 0.0, Diurnal::new(0.0, 0)).unwrap();
        let mut clock = 0.0;
        assert_eq!(silent.next_arrival(&mut clock, 10, &mut rng), None);
        assert_eq!(clock, 10.0);
    }

    /// Λ = 10⁵ arrivals/s, gaps of 10 µs on average: rounding each gap
    /// up to its µs would lose about 5% of them, 3σ past the bound.
    #[test]
    fn flat_stream_count_is_poisson() {
        let w = Workload::assemble(1_000, 10, 1.0, 0.6, 100.0, Diurnal::new(0.0, 0)).unwrap();
        let expected = 1e5; // ΛT, T = 1 s
        for seed in 1..=3 {
            let n = arrivals(&w, 1_000_000, seed).len() as f64;
            assert!(
                (n - expected).abs() <= 5.0 * expected.sqrt(),
                "seed {seed}: {n} arrivals"
            );
        }
    }

    /// Arrivals per eighth of the cycle follow `∫(1 + a·sin 2πφ) dφ`
    /// over that eighth: thinning shapes the stream to the envelope.
    #[test]
    fn arrivals_per_octant_follow_the_envelope() {
        let (a, period) = (0.9, 100_000);
        let w = Workload::assemble(1_000, 10, 1.0, 0.6, 100.0, Diurnal::new(a, period)).unwrap();
        for seed in 1..=3 {
            let mut octants = [0u64; 8];
            for t in arrivals(&w, 10 * period, seed) {
                octants[(t % period * 8 / period) as usize] += 1;
            }
            for (k, &n) in octants.iter().enumerate() {
                let cos = |x: f64| (x * core::f64::consts::TAU / 8.0).cos();
                let share =
                    0.125 + a / core::f64::consts::TAU * (cos(k as f64) - cos(k as f64 + 1.0));
                let expected = 1e5 * share; // ΛT = 10⁵ over whole cycles
                assert!(
                    (n as f64 - expected).abs() <= 5.0 * expected.sqrt(),
                    "seed {seed}, octant {k}: {n} arrivals, {expected:.0} expected"
                );
            }
        }
    }

    /// A time at phase `bucket / PHASE_BUCKETS` of cycle `cycle`, nudged
    /// by `nudge` µs: where a bucket estimate is off by one.
    fn bucket_edge(period: u64, cycle: u64, bucket: u64, nudge: i64) -> u64 {
        let p = u128::from(period);
        let t = p * u128::from(cycle) + p * u128::from(bucket) / PHASE_BUCKETS as u128;
        u64::try_from(t)
            .unwrap_or(u64::MAX)
            .saturating_add_signed(nudge)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The squeeze decides exactly as the direct comparison: for draws
        /// at the acceptance and the doubles beside it, at bucket edges,
        /// around and past the end of the safe range (the fallback), and
        /// for arbitrary times, draws, amplitudes and periods.
        #[test]
        fn squeezed_thinning_matches_the_direct_comparison(
            amplitude in prop_oneof![
                Just(0.0),
                Just(0.99),
                any::<f64>(),
                any::<u64>().prop_map(f64::from_bits),
            ],
            period in prop_oneof![Just(0u64), 1u64..64, 1u64..1 << 40, any::<u64>()],
            cycle in prop_oneof![0u64..4, 0u64..1 << 31],
            bucket in 0u64..PHASE_BUCKETS as u64,
            nudge in -2i64..=2,
            t_any in any::<u64>(),
            draws in collection::vec(
                prop_oneof![any::<f64>(), any::<u64>().prop_map(f64::from_bits)],
                0..8,
            ),
        ) {
            let d = Diurnal::new(amplitude, period);
            let squeeze = Squeeze::new(d);
            let times = [
                bucket_edge(period, cycle, bucket, nudge),
                squeeze.safe_below.saturating_add_signed(nudge),
                t_any,
            ];
            for t in times {
                let accept = d.factor(t) / (1.0 + d.amplitude);
                let at = [accept.next_down(), accept, accept.next_up()];
                for &u in at.iter().chain(&draws) {
                    prop_assert_eq!(
                        squeeze.accepts(t, u),
                        u < accept,
                        "t = {}, u = {}, {:?}",
                        t,
                        u,
                        d
                    );
                }
            }
        }
    }

    #[test]
    fn workload_rejects_empty_populations() {
        assert!(Workload::assemble(0, 5, 1.0, 1.0, 1.0, Diurnal::new(0.0, 0)).is_err());
        assert!(Workload::assemble(5, 0, 1.0, 1.0, 1.0, Diurnal::new(0.0, 0)).is_err());
    }
}
