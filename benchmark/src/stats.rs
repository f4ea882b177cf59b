//! Order statistics that refuse to claim more than their samples support.

use std::fmt;

/// Fewest samples that must lie beyond a percentile for it to be
/// reported as a value.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The requested percentile, in `(0, 100]`.
    pub p: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// The nearest-rank value, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub value: Option<f64>,
}

impl fmt::Display for Percentile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.value {
            Some(v) => write!(f, "p{}={v:.4} (n={})", self.p, self.n),
            None => write!(f, "p{}=insufficient (n={})", self.p, self.n),
        }
    }
}

/// Nearest-rank percentile `p` of `samples` (any order). The value is
/// withheld unless at least [`MIN_BEYOND`] samples lie strictly beyond
/// its rank, so 8 samples never yield a "p99" that is really the max.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let value = (n > 0 && rank >= 1 && n - rank.min(n) >= MIN_BEYOND).then(|| sorted[rank - 1]);
    Percentile { p, n, value }
}

/// Largest sample; recorded for the run record, never gated.
#[must_use]
pub fn max(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().max_by(f64::total_cmp)
}

/// Plain median (mean of the middle pair for even counts); `None` when
/// empty. Used for medians of per-run aggregates, where every sample is
/// a whole measurement rather than one draw from a latency tail.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method) computes them; `None` below two
/// samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the acceptance rule compares against a metric's bound.
#[must_use]
pub fn relative_iqr(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed serve report's passes have 8 requests each, and
    /// its "p99" equals the max: here that percentile is withheld.
    #[test]
    fn eight_requests_support_no_p99_and_no_median() {
        let pass: Vec<f64> = [
            6503.0, 5100.0, 6100.0, 8048.0, 5900.0, 7000.0, 6200.0, 6800.0,
        ]
        .to_vec();
        let p99 = percentile(&pass, 99.0);
        assert_eq!(p99.n, 8);
        assert_eq!(p99.value, None);
        assert_eq!(p99.to_string(), "p99=insufficient (n=8)");
        assert_eq!(percentile(&pass, 50.0).value, None);
        assert_eq!(max(&pass), Some(8048.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0).value, Some(90.0));
        assert_eq!(percentile(&xs, 50.0).value, Some(50.0));
        // Rank 91 leaves 9 beyond: withheld.
        assert_eq!(percentile(&xs, 91.0).value, None);
        assert_eq!(percentile(&xs[..99], 90.0).value, None);
        assert_eq!(percentile(&[], 50.0).value, None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_iqr(&xs).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
