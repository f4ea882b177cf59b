//! A time-correlated congestion model.
//!
//! The paper motivates latency uncertainty with "congestion in a
//! multipath interconnect" whose load *changes over time* (§1, §2: "the
//! worst scheduling situation exists when the actual latencies change
//! over time, for example, as congestion in the interconnect varies").
//! The `N(μ,σ)` model draws latencies i.i.d., which cannot express
//! bursts. This extension models congestion as a two-state Markov chain:
//! each load's latency is drawn from a *calm* or a *congested*
//! distribution, and the state persists between consecutive loads with
//! the configured probability — producing the bursty behaviour the
//! paper describes.
//!
//! Like [`LineCache`](crate::LineCache), the state is per-run and reset
//! by [`LatencyModel::begin_run`].

use std::cell::Cell;

use bsched_stats::Pcg32;

use crate::normal::DiscretizedNormal;
use crate::LatencyModel;

/// A two-state Markov-modulated network: calm ↔ congested.
#[derive(Debug)]
pub struct MarkovNetworkModel {
    calm: DiscretizedNormal,
    congested: DiscretizedNormal,
    /// Probability of staying in the current state at each load.
    persistence: f64,
    /// Long-run fraction of time spent congested (stationary probability
    /// of the symmetric chain = 1/2 unless biased; we keep it symmetric).
    in_congested: Cell<bool>,
}

impl MarkovNetworkModel {
    /// Creates a model alternating between `N(calm_mean, σ)` and
    /// `N(congested_mean, σ)` with the given state persistence.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ persistence ≤ 1`, means are positive and the
    /// congested mean is at least the calm mean.
    #[must_use]
    pub fn new(calm_mean: f64, congested_mean: f64, std_dev: f64, persistence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&persistence),
            "persistence must be a probability"
        );
        assert!(
            congested_mean >= calm_mean,
            "congested mean must be at least the calm mean"
        );
        Self {
            calm: DiscretizedNormal::new(calm_mean, std_dev),
            congested: DiscretizedNormal::new(congested_mean, std_dev),
            persistence,
            in_congested: Cell::new(false),
        }
    }

    /// A bursty configuration comparable to `N(2,2)`/`N(5,2)` in its two
    /// phases: calm mean 2, congested mean 5, σ = 2, 95% persistence.
    #[must_use]
    pub fn bursty() -> Self {
        Self::new(2.0, 5.0, 2.0, 0.95)
    }
}

impl LatencyModel for MarkovNetworkModel {
    fn name(&self) -> String {
        format!(
            "M({},{},{};p={})",
            self.calm.mean(),
            self.congested.mean(),
            self.calm.std_dev(),
            self.persistence
        )
    }

    fn sample(&self, rng: &mut Pcg32) -> u64 {
        // State transition first, then draw from the current phase.
        if !rng.bernoulli(self.persistence) {
            self.in_congested.set(!self.in_congested.get());
        }
        if self.in_congested.get() {
            self.congested.sample(rng)
        } else {
            self.calm.sample(rng)
        }
    }

    fn begin_run(&self) {
        self.in_congested.set(false);
    }

    fn optimistic_latency(&self) -> f64 {
        self.calm.mean()
    }

    /// Stationary expectation: the symmetric chain spends half its time
    /// in each phase.
    fn effective_latency(&self) -> f64 {
        (self.calm.discrete_mean() + self.congested.discrete_mean()) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_latencies() {
        let m = MarkovNetworkModel::bursty();
        assert_eq!(m.name(), "M(2,5,2;p=0.95)");
        assert_eq!(m.optimistic_latency(), 2.0);
        let eff = m.effective_latency();
        assert!(eff > 2.0 && eff < 6.0, "{eff}");
    }

    #[test]
    fn begins_calm_and_resets() {
        // A reset chain draws exactly what a fresh (calm) one does.
        let draws = |m: &MarkovNetworkModel| -> Vec<u64> {
            let mut rng = Pcg32::seed_from_u64(2);
            (0..200).map(|_| m.sample(&mut rng)).collect()
        };
        let m = MarkovNetworkModel::bursty();
        let fresh = draws(&m);
        let mut rng = Pcg32::seed_from_u64(1);
        for _ in 0..200 {
            let _ = m.sample(&mut rng);
        }
        m.begin_run();
        assert_eq!(draws(&m), fresh);
    }

    #[test]
    fn samples_are_bursty_not_iid() {
        // With 95% persistence, consecutive samples share their phase far
        // more often than an i.i.d. mixture would: measure the lag-1
        // agreement of "high" (≥ 4) indicators.
        let m = MarkovNetworkModel::new(2.0, 12.0, 1.0, 0.95);
        let mut rng = Pcg32::seed_from_u64(7);
        let samples: Vec<bool> = (0..20_000).map(|_| m.sample(&mut rng) >= 7).collect();
        let agree =
            samples.windows(2).filter(|w| w[0] == w[1]).count() as f64 / (samples.len() - 1) as f64;
        assert!(
            agree > 0.85,
            "lag-1 agreement {agree} should reflect persistence"
        );
        // And both phases actually occur.
        let high = samples.iter().filter(|&&h| h).count();
        assert!(high > 1000 && high < 19_000, "both phases visited: {high}");
    }

    #[test]
    fn persistence_one_never_leaves_calm() {
        let m = MarkovNetworkModel::new(2.0, 30.0, 0.0, 1.0);
        let mut rng = Pcg32::seed_from_u64(3);
        assert!((0..100).all(|_| m.sample(&mut rng) == 2));
    }

    #[test]
    fn long_run_mean_matches_effective() {
        let m = MarkovNetworkModel::bursty();
        let mut rng = Pcg32::seed_from_u64(11);
        let n = 200_000;
        let mean = (0..n).map(|_| m.sample(&mut rng) as f64).sum::<f64>() / f64::from(n);
        assert!(
            (mean - m.effective_latency()).abs() < 0.1,
            "{mean} vs {}",
            m.effective_latency()
        );
    }

    #[test]
    #[should_panic(expected = "congested mean must be at least")]
    fn inverted_means_panic() {
        let _ = MarkovNetworkModel::new(5.0, 2.0, 1.0, 0.9);
    }
}
