//! Order statistics and the named metric values a run reports.

/// Linear-interpolated percentile (`p` in `[0, 100]`) of `v`; 0 when
/// `v` is empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `v`; 0 when `v` is empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// First and third quartiles by the "exclusive" method Python's
/// `statistics.quantiles(v, n=4)` uses; both equal the value when `v`
/// has one element.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// One named metric: the reported value plus the spread of the samples
/// it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Metric {
    /// The median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::percentile(name, unit, samples, 50.0)
    }

    /// The `p`-th percentile of `samples`.
    pub fn percentile(name: &str, unit: &'static str, samples: &[f64], p: f64) -> Metric {
        let (q1, q3) = quartiles(samples);
        Metric {
            name: name.to_string(),
            unit,
            value: percentile(samples, p),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A single measured value.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric::median(name, unit, &[value])
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }
}
