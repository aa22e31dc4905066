//! Streaming statistics and convergence diagnostics for the sampling
//! estimators.
//!
//! [`RunningStats`] is a numerically stable (Welford) accumulator of mean
//! and variance; [`ConvergenceTrace`] records estimate-vs-reference error as
//! sample counts grow, producing the series behind experiment E5
//! ("sampling error ∝ 1/√m").

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: usize,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            // Degenerate counts have no spread to report. Returning 0.0
            // (not NaN from a 0/0) keeps every downstream consumer —
            // std_dev, std_error, confidence intervals, and the anytime
            // checkpoint JSON — finite and serializable.
            0.0
        } else {
            // Welford's m2 is mathematically non-negative, but catastrophic
            // cancellation on near-constant large-magnitude streams can
            // leave it a hair below zero;
            // sqrt would then turn the epsilon into NaN. Clamp at 0.
            (self.m2 / (self.count - 1) as f64).max(0.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }
}

/// One point of a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Sample count at this checkpoint.
    pub samples: usize,
    /// Current estimate.
    pub estimate: f64,
    /// Absolute error against the reference value.
    pub abs_error: f64,
}

/// Records how an estimate approaches a known reference as samples accrue.
#[derive(Debug, Clone)]
pub struct ConvergenceTrace {
    reference: f64,
    points: Vec<TracePoint>,
}

impl ConvergenceTrace {
    /// Start a trace against a reference (e.g. exact Shapley) value.
    pub fn new(reference: f64) -> Self {
        ConvergenceTrace {
            reference,
            points: Vec::new(),
        }
    }

    /// Record a checkpoint.
    pub fn record(&mut self, samples: usize, estimate: f64) {
        self.points.push(TracePoint {
            samples,
            estimate,
            abs_error: (estimate - self.reference).abs(),
        });
    }

    /// The recorded checkpoints, in record order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The reference value the trace compares against.
    pub fn reference(&self) -> f64 {
        self.reference
    }

    /// Least-squares slope of `log(error)` against `log(samples)` — for an
    /// unbiased Monte-Carlo estimator this should be about `−1/2`.
    /// Checkpoints with zero error are skipped; returns `None` with fewer
    /// than two usable points.
    pub fn loglog_slope(&self) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.abs_error > 0.0 && p.samples > 0)
            .map(|p| ((p.samples as f64).ln(), p.abs_error.ln()))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|(x, _)| x).sum();
        let sy: f64 = pts.iter().map(|(_, y)| y).sum();
        let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            None
        } else {
            Some((n * sxy - sx * sy) / denom)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut s = RunningStats::new();
        for x in xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn empty_and_single_observation_edge_cases() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(5.0);
        assert_eq!(s1.mean(), 5.0);
        assert_eq!(s1.variance(), 0.0);
    }

    #[test]
    fn spread_is_finite_and_non_negative_on_adversarial_streams() {
        // Degenerate counts, constant streams, and huge magnitudes:
        // variance/std_dev/std_error must come back finite
        // and ≥ 0 (never the NaN a sqrt of a rounding-negative m2 or a 0/0
        // would produce). These values flow straight into serialized anytime
        // checkpoint payloads, where NaN would be invalid JSON.
        let streams: Vec<Vec<f64>> = vec![
            vec![],
            vec![2.5],
            vec![1e15 + 0.1; 100],
            vec![3.14e18; 7],
            vec![f64::MIN_POSITIVE; 9],
            vec![1e300, 1e300, 1e300],
        ];
        for xs in &streams {
            let mut s = RunningStats::new();
            for &x in xs {
                s.push(x);
            }
            assert!(s.variance().is_finite() && s.variance() >= 0.0, "{xs:?}");
            assert!(s.std_dev().is_finite() && s.std_dev() >= 0.0, "{xs:?}");
            assert!(s.std_error().is_finite() && s.std_error() >= 0.0, "{xs:?}");
        }
    }

    #[test]
    fn trace_records_errors() {
        let mut t = ConvergenceTrace::new(0.5);
        t.record(10, 0.8);
        t.record(100, 0.55);
        assert_eq!(t.points().len(), 2);
        assert!((t.points()[0].abs_error - 0.3).abs() < 1e-12);
        assert!((t.points()[1].abs_error - 0.05).abs() < 1e-12);
        assert_eq!(t.reference(), 0.5);
    }

    #[test]
    fn loglog_slope_of_perfect_sqrt_decay() {
        let mut t = ConvergenceTrace::new(0.0);
        for m in [10usize, 100, 1000, 10_000] {
            // error = 1/sqrt(m)
            t.record(m, 1.0 / (m as f64).sqrt());
        }
        let slope = t.loglog_slope().unwrap();
        assert!((slope + 0.5).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn loglog_slope_none_for_degenerate_traces() {
        let mut t = ConvergenceTrace::new(1.0);
        t.record(10, 1.0); // zero error — skipped
        assert_eq!(t.loglog_slope(), None);
    }
}
