//! The host's pace, and unit times corrected for it.
//!
//! The benchmark runs on a share of a host whose speed drifts with its
//! other tenants' load: the same world, seconds apart, takes anywhere
//! from 1.0× to 1.5× its fastest time, and a slow spell can cover a
//! whole run, so no statistic over one run's passes removes it. The
//! cure is a yardstick that drifts with the host but not with the code
//! under test: a fixed reference kernel that belongs to the benchmark
//! (integer multiplies, a sort, and ordered-map churn with small
//! allocations, like the mix a world runs), timed between units of
//! work. A unit's paced time is its wall time times
//! `(NOMINAL_MS / kernel time around it) ^ elasticity`, the elasticity
//! being how much more (or less) than the kernel the workload's units
//! slow down when the host does (`Workload::elasticity`); wall times are
//! reported beside.
//!
//! The kernel calls nothing in the workspace, so a change there cannot
//! move it. Kernels that also walk megabytes of memory tracked the host
//! no better and evicted the next unit's caches.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// About the kernel's fastest time on the 2-vCPU Intel Xeon the bounds
/// were measured on (0.30–0.35 ms): a unit timed while the kernel takes
/// this long has its wall time as its paced time.
pub const NOMINAL_MS: f64 = 0.3;

/// One pace sample is the fastest of this many kernel runs.
const REPS: usize = 5;

const TABLE: usize = 1 << 13;

/// Samples the pace at most every `every` and turns unit wall times
/// into paced times: each unit is paired with the samples just before
/// and just after it.
pub struct Pacer {
    table: Vec<u64>,
    every: Duration,
    elasticity: f64,
    last: Option<Instant>,
    samples: Vec<f64>,
    /// Wall ms of each unit and the index of the sample before it.
    units: Vec<(f64, usize)>,
}

impl Pacer {
    pub fn new(every: Duration, elasticity: f64) -> Pacer {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                s
            })
            .collect();
        Pacer {
            table,
            every,
            elasticity,
            last: None,
            samples: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Take a sample if the last one is `every` old; call before a unit.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= self.every) {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let ms = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(self.kernel());
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        self.samples.push(ms);
        self.last = Some(Instant::now());
    }

    /// Record one unit's wall time, ms. Units are numbered in the order
    /// they are recorded, from 0.
    pub fn unit(&mut self, wall_ms: f64) {
        if self.samples.is_empty() {
            self.sample();
        }
        self.units.push((wall_ms, self.samples.len() - 1));
    }

    /// Take the closing sample; the paced ms of every unit, in order, and
    /// the fastest kernel time seen (a diagnostic of the host's speed).
    pub fn finish(mut self) -> (Vec<f64>, f64) {
        self.sample();
        let fastest = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        (paced(&self.units, &self.samples, self.elasticity), fastest)
    }

    /// The reference kernel: about 0.3 ms of four-limb multiplies with
    /// table lookups, a sort, and a map filled with small allocations
    /// and half drained.
    fn kernel(&self) -> u64 {
        let t = &self.table;
        let mut x = [t[1] | 1, t[2] | 1, t[3] | 1, t[4] | 1];
        let mut idx = 0usize;
        for _ in 0..6_000 {
            let mut acc = [0u128; 4];
            for i in 0..4 {
                for j in 0..4 {
                    acc[(i + j) & 3] = acc[(i + j) & 3].wrapping_add(x[i] as u128 * x[j] as u128);
                }
            }
            for k in 0..4 {
                idx = (idx ^ acc[k] as usize) & (TABLE - 1);
                x[k] = (acc[k] as u64 ^ (acc[k] >> 64) as u64 ^ t[idx]) | 1;
            }
        }
        let mut sorted = t[..2048].to_vec();
        sorted.sort_unstable();
        let mut map = BTreeMap::new();
        for (i, &k) in t[..1024].iter().enumerate() {
            map.insert(k >> 40, vec![i as u8; 24]);
        }
        let mut h = x[0] ^ x[1] ^ x[2] ^ x[3] ^ sorted[100];
        for &k in &t[512..1536] {
            if let Some(v) = map.remove(&(k >> 40)) {
                h ^= v.len() as u64;
            }
        }
        h ^ map.len() as u64
    }
}

/// Each unit's wall ms times `(NOMINAL_MS / pace) ^ elasticity`, where
/// the pace is the mean of the samples before and after it.
fn paced(units: &[(f64, usize)], samples: &[f64], elasticity: f64) -> Vec<f64> {
    units
        .iter()
        .map(|&(ms, k)| {
            let pace = (samples[k] + samples[k + 1]) / 2.0;
            ms * (NOMINAL_MS / pace).powf(elasticity)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_paced_by_the_samples_around_them() {
        let k = NOMINAL_MS;
        let samples = [k, 2.0 * k, 3.0 * k];
        let units = [(10.0, 0), (30.0, 0), (25.0, 1)];
        let slower = |f: f64| f.powf(-1.4);
        let want = [10.0 * slower(1.5), 30.0 * slower(1.5), 25.0 * slower(2.5)];
        let got = paced(&units, &samples, 1.4);
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "{got:?}");
        }
        assert_eq!(paced(&[(7.0, 0)], &[k, k], 1.4), [7.0]);
        assert_eq!(paced(&[(7.0, 0)], &[k, 2.0 * k], 0.0), [7.0]);
    }

    #[test]
    fn a_pacer_pairs_every_unit_with_a_closing_sample() {
        let mut p = Pacer::new(Duration::from_secs(3600), 1.0);
        p.tick();
        p.unit(1.0);
        p.tick();
        p.unit(2.0);
        let (paced, fastest) = p.finish();
        assert_eq!(paced.len(), 2);
        assert!(paced.iter().all(|v| v.is_finite() && *v > 0.0));
        assert!(fastest > 0.0);
    }
}
