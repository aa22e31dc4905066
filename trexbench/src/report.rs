//! Metric names, the percentile rule, and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics, printed by every workload with `--trace 0`.
/// Each workload maps them onto its own operations (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("request_ms", "ms"),
    ("scan_ms", "ms"),
    ("repair_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics that both the untraced and the traced pass
/// measure; the traced run reports their difference as tracing overhead.
pub const TRACED_E2E: [&str; 3] = ["request_ms", "scan_ms", "repair_ms"];

/// Constraint names of both schemas the workloads use (soccer reuses the
/// la Liga constraints), so per-DC metric names agree across workloads.
pub const DC_NAMES: [&str; 4] = ["C1", "C2", "C3", "C4"];

/// Endpoints whose HTTP overhead the traced run reports.
pub const ENDPOINTS: [&str; 4] = ["violations", "explain_constraints", "cell", "repair"];

/// The per-layer metrics, printed by every workload with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("datagen.generate_ms", "ms"),
        ("session.new_ms", "ms"),
        ("table.encode_ms", "ms"),
        ("table.clone_ms", "ms"),
        ("table.fingerprint_ms", "ms"),
        ("constraints.scan_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    out.extend(
        DC_NAMES
            .iter()
            .map(|dc| (format!("constraints.dc_scan_ms.{dc}"), "ms")),
    );
    out.extend(
        [
            ("constraints.witnesses", "count"),
            ("repair.calls", "count"),
            ("repair.busy_ms", "ms"),
            ("repair.call_p50_ms", "ms"),
            ("oracle.hits", "count"),
            ("oracle.misses", "count"),
            ("oracle.evictions", "count"),
            ("oracle.hit_rate", "ratio"),
            ("oracle.batches", "count"),
            ("oracle.batched_queries", "count"),
            ("oracle.self_ms", "ms"),
            ("shapley.walks", "count"),
            ("shapley.game_calls", "count"),
            ("shapley.self_ms", "ms"),
            ("shapley.exact_coalitions", "count"),
            ("core.coalition_table_ms", "ms"),
            ("core.explain_self_ms", "ms"),
            ("server.health_p50_ms", "ms"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    out.extend(
        ENDPOINTS
            .iter()
            .map(|e| (format!("server.overhead_ms.{e}"), "ms")),
    );
    out.push(("server.shed".to_string(), "count"));
    out.extend(TRACED_E2E.iter().map(|m| {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| n == m)
            .map(|(_, u)| *u)
            .expect("traced metrics are end-to-end metrics");
        (format!("trace.overhead.{m}"), unit)
    }));
    out
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Nearest-rank percentile `p` (in percent) of `samples`, or `None` unless
/// at least ten samples lie beyond it. A p50 thus needs 20 samples and a
/// p90 needs 100.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The central value of `samples`: the median where the percentile rule
/// allows one, the mean otherwise. `None` for no samples.
pub fn typical(samples: &[f64]) -> Option<(f64, &'static str)> {
    if samples.is_empty() {
        return None;
    }
    Some(match percentile(samples, 50.0) {
        Some(median) => (median, "median"),
        None => (samples.iter().sum::<f64>() / samples.len() as f64, "mean"),
    })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run of a workload found.
#[derive(Debug, Default)]
pub struct Report {
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations and output checks that failed, were refused or answered
    /// wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Human-readable lines: the workload's own metric names, statistics
    /// and sample counts.
    pub lines: Vec<String>,
    /// A digest of the generated inputs (same seed, same digest).
    pub inputs: u64,
}

impl Report {
    /// Record one metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Record an attempted operation or output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Record `attempted` operations of which those in `failures` failed.
    pub fn tally(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(failures.iter().take(room).cloned());
    }

    /// Print a sample set under the workload's own name for it, with its
    /// statistic and count.
    pub fn summarize(&mut self, label: &str, samples: &[f64]) {
        match typical(samples) {
            Some((value, stat)) => {
                let tail = percentile(samples, 90.0)
                    .map_or(String::new(), |p90| format!(", p90 {p90:.3} ms"));
                self.lines.push(format!(
                    "{label} = {value:.3} ms ({stat} of {}{tail})",
                    samples.len()
                ));
            }
            None => self.check(false, || format!("{label}: no samples")),
        }
    }

    /// Whether every operation and check passed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            // JSON has no NaN or infinity; a non-finite value already
            // makes the run incorrect, so write it as null.
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let s = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&s(19), 50.0), None);
        assert_eq!(percentile(&s(20), 50.0), Some(10.0));
        assert_eq!(percentile(&s(99), 90.0), None);
        assert_eq!(percentile(&s(100), 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&s(1), 50.0), None);
        // Below the rule's minimum the central value falls back to the mean.
        assert_eq!(typical(&[1.0, 2.0, 6.0]), Some((3.0, "mean")));
        assert_eq!(typical(&s(21)), Some((11.0, "median")));
        assert_eq!(typical(&[]), None);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report::default();
        r.metric("setup_s", "s", 0.25);
        r.check(true, String::new);
        let line = r.json_line();
        trex_server::json::validate(&line).expect("valid JSON");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        r.check(false, || "boom".to_string());
        assert!(!r.correct());
    }
}
