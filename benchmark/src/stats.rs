//! Order statistics over a handful of round timings.

/// Minimum, quartiles and sample count of one set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), so spreads printed here can be held
/// against spreads computed from the JSON lines by an outside script.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller passes wall-clock
/// durations or finite simulated stats.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = v.len();
    let quartile = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        n,
        min: v[0],
        q1: quartile(1),
        median,
        q3: quartile(3),
    }
}

/// Median of `values`; 0 for an empty slice (a layer the workload never
/// entered reports 0).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        summarize(values).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = summarize(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!((s.n, s.min), (7, 1.0));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[3.5]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (3.5, 3.5, 3.5, 3.5));
        assert_eq!(s.iqr_share(), 0.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s.iqr_share(), 1.0);
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(median_or_zero(&[2.0, 9.0, 4.0]), 4.0);
    }
}
