//! One execution-configuration surface for every layer.
//!
//! Threads, oracle capacity, and seed used to be scattered across
//! `Session` setters, `Explainer` builders, per-engine `with_threads`
//! methods, and three copies of CLI flag parsing. [`ExecConfig`] is the one
//! value they all accept now: build it once, hand it to
//! `Session::with_config` / `Explainer::with_config` / an engine's
//! `with_exec`, and every layer reads the same knobs.

use crate::parallel::Schedule;

/// Execution knobs shared by sessions, explainers, repair engines, and the
/// CLI: worker count, oracle cache bound, batched-dispatch bound, and
/// sampling seed.
///
/// A plain-old-data builder: all `with_*` methods consume and return the
/// config, unset options mean "use the layer's default".
///
/// ```
/// use trex_shapley::ExecConfig;
/// let cfg = ExecConfig::new()
///     .with_threads(4)
///     .with_oracle_cap(1 << 16)
///     .with_oracle_batch(64)
///     .with_seed(42);
/// assert_eq!(cfg.threads(), 4);
/// assert_eq!(cfg.oracle_cap(), Some(1 << 16));
/// assert_eq!(cfg.oracle_batch(), Some(64));
/// assert_eq!(cfg.seed(), Some(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
    oracle_cap: Option<usize>,
    oracle_batch: Option<usize>,
    seed: Option<u64>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            oracle_cap: None,
            oracle_batch: None,
            seed: None,
        }
    }
}

impl ExecConfig {
    /// The default configuration: 1 thread, unbounded oracle cache,
    /// layer-default seed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker thread count.
    ///
    /// # Panics
    /// Panics if `threads == 0`; resolve "all cores" to a concrete count
    /// first (the CLI maps `--threads 0` to the hardware thread count).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be >= 1 (resolve 0 first)");
        self.threads = threads;
        self
    }

    /// Ignored: returns the configuration unchanged. Sampling has one
    /// schedule, whose output does not depend on the thread count (see
    /// [`crate::parallel`]).
    pub fn with_schedule(self, _schedule: Schedule) -> Self {
        self
    }

    /// Bound the coalition-oracle cache to `cap` entries (default:
    /// unbounded). `0` disables caching.
    pub fn with_oracle_cap(mut self, cap: usize) -> Self {
        self.oracle_cap = Some(cap);
        self
    }

    /// Bound the number of coalition queries per batched oracle dispatch
    /// (default: unbounded — one dispatch per batch-capable solver step).
    /// Batching never changes any answer, only how many queries share one
    /// backend round trip; see the oracle-backend docs in `trex-repair`.
    ///
    /// # Panics
    /// Panics if `batch == 0`; a dispatch must be able to carry a query.
    pub fn with_oracle_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "oracle batch must be >= 1");
        self.oracle_batch = Some(batch);
        self
    }

    /// Set the sampling seed (default: each layer's documented default).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Worker thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ignored: always `None` (see [`ExecConfig::with_schedule`]).
    pub fn schedule(&self) -> Option<Schedule> {
        None
    }

    /// Oracle cache bound in entries, or `None` for unbounded.
    pub fn oracle_cap(&self) -> Option<usize> {
        self.oracle_cap
    }

    /// Batched-dispatch bound in queries, or `None` for unbounded.
    pub fn oracle_batch(&self) -> Option<usize> {
        self.oracle_batch
    }

    /// Sampling seed, or `None` for the layer default.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// The one warning/rejection message for an oracle batch size configured
    /// where no oracle backend (`trex-repair`'s `OracleBackend`) is attached.
    ///
    /// Batching only groups *backend* dispatches; without a backend every
    /// coalition query runs the local repair directly, so the knob is inert.
    /// The CLI warns with this message (local runs still work), the server
    /// API rejects the request with it (a remote client asking for batching
    /// it cannot get deserves an error, not silence). One string, so the two
    /// surfaces can never drift apart.
    pub const ORACLE_BATCH_WITHOUT_BACKEND: &'static str =
        "--oracle-batch is set but no oracle backend is attached; batching only groups \
         backend dispatches, so the setting has no effect";
}

/// Build an [`ExecConfig`] from string-valued execution knobs — the single
/// validation path shared by the CLI flags and the server's per-request
/// query parameters.
///
/// `get(name)` looks up the raw value of knob `name` (`None` when absent);
/// recognized names are `threads`, `oracle-cap`, `oracle-batch`, and
/// `seed` — callers reject any other name as unknown. Every absent knob
/// keeps `base`'s value: the CLI passes all hardware threads and nothing
/// else, the server the session's configuration, so the exec flags given
/// to `trex serve` are every request's defaults. Validation and error
/// wording are the contract here: a `threads` of `0` resolves to the
/// available parallelism via [`crate::parallel::resolve_threads`] (absurd
/// counts keep the offending value and the cap in the message),
/// `oracle-batch` must be ≥ 1. Callers surface the returned message
/// verbatim, so a bad `?threads=999999` on the server reads exactly like a
/// bad `--threads 999999` on the CLI.
pub fn exec_config_from_knobs<'v>(
    base: ExecConfig,
    get: impl Fn(&str) -> Option<&'v str>,
) -> Result<ExecConfig, String> {
    let mut cfg = base;
    if let Some(v) = get("threads") {
        let requested: usize = v
            .parse()
            .map_err(|_| format!("--threads: cannot parse {v:?}"))?;
        let threads = crate::parallel::resolve_threads(requested).map_err(|e| e.to_string())?;
        cfg = cfg.with_threads(threads);
    }
    if let Some(v) = get("oracle-cap") {
        let cap = v
            .parse::<usize>()
            .map_err(|_| format!("--oracle-cap: cannot parse {v:?}"))?;
        cfg = cfg.with_oracle_cap(cap);
    }
    if let Some(v) = get("oracle-batch") {
        let batch = v
            .parse::<usize>()
            .map_err(|_| format!("--oracle-batch: cannot parse {v:?}"))?;
        if batch == 0 {
            return Err(
                "--oracle-batch must be >= 1 (every dispatch carries at least one query)"
                    .to_string(),
            );
        }
        cfg = cfg.with_oracle_batch(batch);
    }
    if let Some(v) = get("seed") {
        let seed = v
            .parse::<u64>()
            .map_err(|_| format!("--seed: cannot parse {v:?}"))?;
        cfg = cfg.with_seed(seed);
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_serial_and_unset() {
        let cfg = ExecConfig::new();
        assert_eq!(cfg.threads(), 1);
        assert_eq!(cfg.schedule(), None);
        assert_eq!(cfg.oracle_cap(), None);
        assert_eq!(cfg.oracle_batch(), None);
        assert_eq!(cfg.seed(), None);
        assert_eq!(cfg, ExecConfig::default());
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = ExecConfig::new()
            .with_threads(8)
            .with_oracle_cap(0)
            .with_oracle_batch(32)
            .with_seed(7);
        assert_eq!(cfg.threads(), 8);
        assert_eq!(cfg.oracle_cap(), Some(0));
        assert_eq!(cfg.oracle_batch(), Some(32));
        assert_eq!(cfg.seed(), Some(7));
    }

    #[test]
    fn knobs_read_only_the_four_exec_names() {
        let asked = std::cell::RefCell::new(Vec::new());
        let cfg = exec_config_from_knobs(ExecConfig::new(), |name| {
            asked.borrow_mut().push(name.to_string());
            (name == "threads").then_some("3")
        })
        .unwrap();
        assert_eq!(cfg, ExecConfig::new().with_threads(3));
        assert_eq!(
            asked.into_inner(),
            ["threads", "oracle-cap", "oracle-batch", "seed"]
        );
        let pinned = ExecConfig::new().with_schedule(Schedule::WorkStealing);
        assert_eq!(pinned, ExecConfig::new());
    }

    #[test]
    fn absent_knobs_keep_the_base_values() {
        let base = ExecConfig::new()
            .with_threads(3)
            .with_oracle_cap(64)
            .with_oracle_batch(8)
            .with_seed(7);
        assert_eq!(exec_config_from_knobs(base, |_| None).unwrap(), base);
        let cfg = exec_config_from_knobs(base, |name| match name {
            "threads" => Some("1"),
            "seed" => Some("9"),
            _ => None,
        })
        .unwrap();
        assert_eq!(cfg, base.with_threads(1).with_seed(9));
        // `0` still means all hardware threads, whatever the base says.
        let all = exec_config_from_knobs(base, |name| (name == "threads").then_some("0"));
        assert_eq!(all.unwrap().threads(), crate::parallel::available_threads());
    }

    #[test]
    #[should_panic(expected = "threads must be >= 1")]
    fn zero_threads_panics() {
        let _ = ExecConfig::new().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "oracle batch must be >= 1")]
    fn zero_oracle_batch_panics() {
        let _ = ExecConfig::new().with_oracle_batch(0);
    }
}
