//! The open-loop rate ladder: per-step verdicts against a latency SLO.

use crate::stats::percentile;

/// The service-level objective a ladder step must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Limit on the 90th-percentile latency, measured from due time.
    pub p90_ms: f64,
    /// Largest tolerated share of failed requests.
    pub max_failed_share: f64,
}

/// One workload's frozen ladder and SLO.
///
/// The `light` rate and a closed-loop saturation step are measured
/// [`Ladder::repeats`] times, interleaved, and each reported over all its
/// repeats: on a shared host a slow second can then spoil one repeat but
/// not the reported value. Then the rungs — `heavy`,
/// then the probes above it — run once each, in order; a rung that fails
/// is run once more, and the ladder stops when both attempts fail.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    /// The low fixed rate, in requests per second.
    pub light: f64,
    /// The first rung, below the capacity measured when the ladder was
    /// frozen.
    pub heavy: f64,
    /// Ascending rates above `heavy` that find the capacity.
    pub probes: Vec<f64>,
    /// Times `light` and the saturation step are each measured.
    pub repeats: usize,
    /// Limits each step is judged against.
    pub slo: Slo,
}

impl Ladder {
    /// `serve-cold`: every request compiles. Frozen against an SLO
    /// capacity of 1,200–1,800 req/s measured on the 2-core reference
    /// host; `heavy` sits near half of it, where queueing has begun but a
    /// slower second on a shared host does not yet dominate the tail.
    #[must_use]
    pub fn cold() -> Ladder {
        Ladder {
            light: 300.0,
            heavy: 700.0,
            probes: vec![1000.0, 1150.0, 1300.0, 1500.0, 1700.0, 2000.0],
            repeats: 8,
            slo: Slo {
                p90_ms: 10.0,
                max_failed_share: 0.001,
            },
        }
    }

    /// `serve-warm`: cache hits only. Its SLO capacity on the reference
    /// host is set by admission refusals during short stalls and by the
    /// generator sharing the two cores, between 8,000 and 24,000 req/s.
    #[must_use]
    pub fn warm() -> Ladder {
        Ladder {
            light: 2000.0,
            heavy: 8000.0,
            probes: vec![10000.0, 12000.0, 15000.0, 18000.0, 21000.0, 24000.0],
            repeats: 8,
            slo: Slo {
                p90_ms: 2.0,
                max_failed_share: 0.001,
            },
        }
    }

    /// The ladder `--smoke` runs: `light`, saturation and `heavy` once
    /// each.
    #[must_use]
    pub fn smoke(&self) -> Ladder {
        Ladder {
            probes: Vec::new(),
            repeats: 1,
            ..self.clone()
        }
    }

    /// Units a run's window is split into: each repeat's light step (one
    /// unit) and saturation step ([`SATURATION_UNITS`]), and every rung
    /// plus one rung re-run ([`RUNG_UNITS`] each).
    #[must_use]
    pub fn budget_units(&self) -> f64 {
        self.repeats as f64 * (1.0 + SATURATION_UNITS) + RUNG_UNITS * (self.probes.len() + 2) as f64
    }
}

/// A saturation step's length in budget units. The gated throughput is
/// read from the saturation steps, so they get the largest share of
/// the window.
pub const SATURATION_UNITS: f64 = 2.0;

/// A rung's length in budget units: the rungs only find `max_rps_slo`,
/// which is recorded but not gated.
pub const RUNG_UNITS: f64 = 0.5;

/// Whether most of a fixed rate's repeats passed.
#[must_use]
pub fn majority_pass(verdicts: &[Verdict]) -> bool {
    2 * verdicts.iter().filter(|v| **v == Verdict::Pass).count() > verdicts.len()
}

/// What one ladder step measured (after its warm-up was discarded).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepOutcome {
    /// Offered rate.
    pub rate: f64,
    /// Requests due in the measured part of the step.
    pub sent: usize,
    /// Of those, requests refused, failed, timed out, unanswered or
    /// answered wrongly.
    pub failed: usize,
    /// Latency from due time of each answered request, in send order.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request.
    pub lag_ms: Vec<f64>,
}

/// A step's verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Met the SLO without a growing backlog.
    Pass,
    /// Missed the SLO or its backlog grew.
    Fail(String),
    /// The generator itself ran late; the step measured nothing.
    Invalid(String),
}

impl Verdict {
    /// One word for tables and records.
    #[must_use]
    pub fn word(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail(_) => "fail",
            Verdict::Invalid(_) => "invalid",
        }
    }
}

/// Judges one step. Refused and failed requests count as missing the
/// latency limit, so they sit above every answered one in the p90.
#[must_use]
pub fn judge(step: &StepOutcome, slo: &Slo) -> Verdict {
    let lag = percentile(&step.lag_ms, 90.0);
    let lag90 = lag
        .value
        .or_else(|| crate::stats::max(&step.lag_ms))
        .unwrap_or(0.0);
    if lag90 > 0.1 * slo.p90_ms {
        return Verdict::Invalid(format!(
            "generator lag p90 {lag90:.3} ms exceeds 10% of the {} ms SLO",
            slo.p90_ms
        ));
    }
    if step.sent == 0 {
        return Verdict::Fail("no requests measured".to_owned());
    }
    let failed_share = step.failed as f64 / step.sent as f64;
    if failed_share > slo.max_failed_share {
        return Verdict::Fail(format!("failed share {failed_share:.4}"));
    }
    let mut with_failures = step.latency_ms.clone();
    with_failures.extend(std::iter::repeat_n(f64::INFINITY, step.failed));
    let p90 = percentile(&with_failures, 90.0);
    match p90.value {
        None => return Verdict::Fail(format!("{p90}")),
        Some(v) if v > slo.p90_ms => {
            return Verdict::Fail(format!("latency {p90} over the {} ms SLO", slo.p90_ms))
        }
        Some(_) => {}
    }
    let third = step.latency_ms.len() / 3;
    let first = percentile(&step.latency_ms[..third], 50.0).value;
    let last = percentile(&step.latency_ms[step.latency_ms.len() - third..], 50.0).value;
    match (first, last) {
        (Some(first), Some(last)) if last > 2.0 * first => Verdict::Fail(format!(
            "backlog grows: p50 {first:.3} ms in the first third, {last:.3} ms in the last"
        )),
        (Some(_), Some(_)) => Verdict::Pass,
        _ => Verdict::Fail("too few samples to judge backlog growth".to_owned()),
    }
}

/// The highest passing rate among judged steps.
#[must_use]
pub fn max_passing(steps: &[(f64, Verdict)]) -> Option<f64> {
    steps
        .iter()
        .filter(|(_, v)| *v == Verdict::Pass)
        .map(|(rate, _)| *rate)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLO: Slo = Slo {
        p90_ms: 10.0,
        max_failed_share: 0.001,
    };

    fn step(latency_ms: Vec<f64>, failed: usize, lag_ms: f64) -> StepOutcome {
        StepOutcome {
            rate: 100.0,
            sent: latency_ms.len() + failed,
            failed,
            lag_ms: vec![lag_ms; latency_ms.len() + failed],
            latency_ms,
        }
    }

    #[test]
    fn a_steady_step_passes() {
        let lat: Vec<f64> = (0..600).map(|i| 1.0 + f64::from(i % 7) * 0.3).collect();
        assert_eq!(judge(&step(lat, 0, 0.05), &SLO), Verdict::Pass);
    }

    #[test]
    fn a_slow_p90_fails() {
        let lat: Vec<f64> = (0..600)
            .map(|i| if i % 5 == 0 { 25.0 } else { 1.0 })
            .collect();
        assert!(matches!(judge(&step(lat, 0, 0.05), &SLO), Verdict::Fail(r) if r.contains("SLO")));
    }

    #[test]
    fn a_growing_backlog_fails_even_under_the_slo() {
        // Latency climbs steadily from 1 ms to 5 ms: every value is under
        // the 10 ms limit, but the queue is growing.
        let lat: Vec<f64> = (0..600).map(|i| 1.0 + f64::from(i) / 150.0).collect();
        assert!(
            matches!(judge(&step(lat, 0, 0.05), &SLO), Verdict::Fail(r) if r.contains("backlog"))
        );
    }

    #[test]
    fn refusals_count_against_the_step() {
        let lat = vec![1.0; 600];
        assert!(
            matches!(judge(&step(lat, 3, 0.05), &SLO), Verdict::Fail(r) if r.contains("failed share"))
        );
    }

    #[test]
    fn a_late_generator_invalidates_the_step() {
        let lat = vec![1.0; 600];
        assert!(matches!(
            judge(&step(lat, 0, 1.5), &SLO),
            Verdict::Invalid(_)
        ));
    }

    #[test]
    fn capacity_is_the_highest_passing_rate() {
        let steps = vec![
            (300.0, Verdict::Pass),
            (1000.0, Verdict::Pass),
            (1100.0, Verdict::Fail("x".to_owned())),
            (1100.0, Verdict::Pass),
            (1200.0, Verdict::Invalid("x".to_owned())),
        ];
        assert_eq!(max_passing(&steps), Some(1100.0));
        let fail = Verdict::Fail("x".to_owned());
        assert!(majority_pass(&[Verdict::Pass, fail.clone(), Verdict::Pass]));
        assert!(!majority_pass(&[Verdict::Pass, fail.clone(), fail]));
        let ladder = Ladder::cold();
        assert_eq!(ladder.budget_units(), 28.0);
        assert_eq!(ladder.smoke().probes.len(), 0);
        assert_eq!(ladder.smoke().budget_units(), 4.0);
    }
}
