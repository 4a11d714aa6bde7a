//! Order statistics over timing samples.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Each key's best value under `better` (`f64::min` for times,
/// `f64::max` for rates): `keys[u]` is the key, below `n`, of unit `u`
/// and `values[u]` its value. Keys with no unit are left out.
pub fn best_by_key(
    keys: &[usize],
    values: &[f64],
    n: usize,
    better: fn(f64, f64) -> f64,
) -> Vec<f64> {
    let mut best: Vec<Option<f64>> = vec![None; n];
    for (&k, &v) in keys.iter().zip(values) {
        best[k] = Some(best[k].map_or(v, |b| better(b, v)));
    }
    best.into_iter().flatten().collect()
}

/// Each key's value at its unit with the lowest `by`: `keys[u]` is the
/// key, below `n`, of unit `u`. Keys with no unit are left out.
pub fn at_lowest_by_key(keys: &[usize], by: &[f64], values: &[f64], n: usize) -> Vec<f64> {
    let mut best: Vec<Option<(f64, f64)>> = vec![None; n];
    for ((&k, &b), &v) in keys.iter().zip(by).zip(values) {
        if best[k].is_none_or(|(lowest, _)| b < lowest) {
            best[k] = Some((b, v));
        }
    }
    best.into_iter().flatten().map(|(_, v)| v).collect()
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match
/// the ones computed from the raw JSON results by that function.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    if samples.len() < 2 {
        let m = median(samples);
        return (m, m, m);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        let m = (n + 1) * k;
        let j = (m / 4).clamp(1, n - 1);
        // Unclamped, like Python: small samples extrapolate.
        let delta = m as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), median(&v), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn values_are_taken_at_each_keys_lowest_unit() {
        let keys = [0, 1, 0, 1, 3];
        let by = [5.0, 2.0, 4.0, 3.0, 1.0];
        let values = [50.0, 20.0, 40.0, 30.0, 10.0];
        assert_eq!(at_lowest_by_key(&keys, &by, &values, 4), [40.0, 20.0, 10.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
