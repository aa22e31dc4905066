//! The explainer — T-REx's front door.
//!
//! T-REx answers one kind of question: for a repaired cell the user
//! selected, rank the constraints or the cells by Shapley value (§1, §3).
//! An [`ExplainRequest`] names the cell and the [`Players`] — which game to
//! play and how to solve it — and [`Explainer::explain`] answers it with
//! one [`Explanation`]. The constraint game is solved exactly (subset
//! enumeration, §2.3); the cell games are estimated by sampling, under
//! masked (§2.2) or random-replacement (§2.3) semantics.
//!
//! A request's game, its budget and the execution configuration (thread
//! count, oracle bounds, seed) meet in [`Explainer::explain_anytime`], the
//! one code path every request runs through.

use crate::games::{CellGameMasked, CellGameSampled, ConstraintGame, MaskMode};
use crate::ranking::Ranking;
use std::fmt;
use std::sync::Arc;
use trex_constraints::DenialConstraint;
use trex_repair::{
    BatchStats, OracleBackend, OracleCache, OracleStats, RepairAlgorithm, ShardedOracle,
};
use trex_shapley::{
    parallel, shapley_exact, shapley_exact_rational, AnytimeCheckpoint, AnytimeControl, Estimate,
    ExecConfig, Game, ParallelConfig, Rational,
};
use trex_table::{CellRef, Table, Value};

/// Errors an explanation request can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplainError {
    /// The chosen cell is not repaired by the full run — the paper only
    /// explains cells "whose value was changed" (§3).
    CellNotRepaired {
        /// The cell the user selected.
        cell: CellRef,
    },
    /// The cell row/attr is outside the table.
    CellOutOfRange {
        /// The offending reference.
        cell: CellRef,
    },
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::CellNotRepaired { cell } => {
                write!(
                    f,
                    "cell {cell} is not repaired by the full constraint set; only repaired cells can be explained"
                )
            }
            ExplainError::CellOutOfRange { cell } => write!(f, "cell {cell} is out of range"),
        }
    }
}

impl std::error::Error for ExplainError {}

/// Configuration of the adaptive (precision-targeted) cell explanation:
/// instead of a fixed per-player sample count, each cell is sampled in
/// batches until its confidence half-width meets `tolerance` or its
/// `max_samples` budget runs out. The seed is the execution
/// configuration's ([`ExecConfig::seed`]), laddered per player exactly
/// like fixed-budget replacement sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Target half-width of the per-cell confidence interval.
    pub tolerance: f64,
    /// Confidence multiplier (`1.96` ≈ 95%).
    pub z: f64,
    /// Samples per adaptive round, between convergence checks. Each cell
    /// runs the serial loop on one worker, so a round is exactly `batch`
    /// samples at any thread count.
    pub batch: usize,
    /// Per-cell cap on total samples.
    pub max_samples: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            tolerance: 0.05,
            z: 1.96,
            batch: 100,
            max_samples: 10_000,
        }
    }
}

/// The players an [`ExplainRequest`] ranks, and how their Shapley values
/// are computed. Every variant is one solver path; the seed of the sampled
/// ones is the execution configuration's ([`ExecConfig::seed`], default 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Players {
    /// The denial constraints, exactly: subset enumeration over all
    /// `2^|C|` coalitions, with oracle memoization. The left half of the
    /// demo's explanation screen.
    Constraints,
    /// The cells under the masked semantics of §2.2 (see [`MaskMode`]),
    /// estimated by `walks` shared permutation walks, each contributing
    /// one marginal sample to every cell.
    MaskedCells {
        /// How an out-of-coalition cell is masked.
        mode: MaskMode,
        /// Permutation walks (the budget).
        walks: usize,
    },
    /// The cells under the random-replacement semantics of §2.3 /
    /// Example 2.5 (common random numbers, per-player permutation
    /// sampling), `samples` per cell.
    ReplacedCells {
        /// Samples per cell (the budget).
        samples: usize,
    },
    /// The cells under random replacement, each sampled until its
    /// estimate is tight or its cap is spent (extension). Cells with tight
    /// estimates (dummies most of all) stop early; the budget concentrates
    /// on the contested ones.
    AdaptiveCells(AdaptiveConfig),
}

/// One explanation request: the repaired cell to explain and the players
/// to rank. The execution configuration travels beside it (the
/// explainer's, or the one a `Session` request passes), not inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainRequest {
    /// The repaired cell of interest.
    pub cell: CellRef,
    /// Which game to play, and its budget.
    pub players: Players,
}

/// The answer to an [`ExplainRequest`], whatever its players.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The repaired (target) value of the cell of interest.
    pub target: Value,
    /// Players ranked by (estimated) Shapley value; sampled rankings carry
    /// standard errors.
    pub ranking: Ranking,
    /// Raw values in player order (constraint order for the constraint
    /// game, index-aligned with `players` for the cell games).
    pub values: Vec<f64>,
    /// The player cells, index-aligned with `values`; empty for the
    /// constraint game.
    pub players: Vec<CellRef>,
    /// Exact values as rationals (denominator `|C|!`), in constraint
    /// order; only the constraint game has them.
    pub exact: Vec<(String, Rational)>,
    /// Per player cell: did its estimate converge within budget? Only the
    /// adaptive game has them.
    pub converged: Vec<bool>,
    /// Whether the full budget ran: `false` only when an anytime observer
    /// stopped a walk run early.
    pub finished: bool,
    /// The repair oracle's cache counters (hits, misses, evictions) over
    /// this request. The replacement games query the algorithm directly,
    /// so theirs are zero.
    pub oracle: OracleStats,
    /// The oracle's batched-dispatch counters: how many dispatches ran and
    /// how many cache-missing coalition queries they carried.
    pub batches: BatchStats,
}

/// The cell-game explanation of `estimates` over `players`, labeled in
/// `dirty`'s `t5[League]` notation.
fn cell_explanation(
    dirty: &Table,
    target: Value,
    players: Vec<CellRef>,
    estimates: &[Estimate],
) -> Explanation {
    let ranking = Ranking::with_errors(
        players
            .iter()
            .zip(estimates)
            .map(|(c, e)| {
                (
                    crate::games::cell_label(dirty, *c),
                    e.value,
                    Some(e.std_error()),
                )
            })
            .collect(),
    );
    Explanation {
        target,
        ranking,
        values: estimates.iter().map(|e| e.value).collect(),
        players,
        exact: Vec::new(),
        converged: Vec::new(),
        finished: true,
        oracle: OracleStats::default(),
        batches: BatchStats::default(),
    }
}

/// The T-REx explainer.
///
/// Wraps a black-box [`RepairAlgorithm`]; every request treats it purely
/// through repeated repair queries, per the paper's design.
///
/// Requests run under one [`ExecConfig`] ([`Explainer::with_config`]):
/// its thread count sets the parallel sampling engine's worker count
/// (`trex_shapley::parallel`; every count returns the serial estimates bit
/// for bit, so it only sets wall time), its seed seeds the sampled games,
/// and [`ExecConfig::with_oracle_cap`] bounds the memoizing repair oracle
/// behind the coalition games (entries, second-chance eviction) without
/// changing any result.
///
/// Oracle misses are answered by the wrapped algorithm by default.
/// [`Explainer::with_oracle_backend`] routes them through an
/// [`OracleBackend`] instead — misses then travel in bounded batches
/// ([`ExecConfig::with_oracle_batch`]), concurrent identical coalitions
/// dedup through single-flight, and batch formation orders constraint-game
/// coalitions by the static analyzer's scan-cost estimates. A faithful
/// backend (one honoring [`OracleBackend`]'s contract) never changes any
/// explanation — only who computes it, and how many round trips it takes.
pub struct Explainer<'a> {
    alg: &'a dyn RepairAlgorithm,
    cfg: ExecConfig,
    backend: Option<&'a dyn OracleBackend>,
    cache: Option<Arc<OracleCache>>,
}

impl<'a> Explainer<'a> {
    /// Wrap a repair algorithm (single sampling worker, seed 0, default
    /// oracle capacity, local oracle dispatch).
    pub fn new(alg: &'a dyn RepairAlgorithm) -> Self {
        Explainer {
            alg,
            cfg: ExecConfig::default(),
            backend: None,
            cache: None,
        }
    }

    /// Answer coalition oracle misses through `backend` — e.g. a
    /// `trex_repair::RemoteRepair` whose per-call latency the batching
    /// layer amortizes — instead of invoking the wrapped algorithm once
    /// per query. The backend must answer exactly what the wrapped
    /// algorithm would ([`OracleBackend`]'s fidelity contract); the
    /// full-table repair that determines a cell's repair target always
    /// runs on the local algorithm.
    pub fn with_oracle_backend(mut self, backend: &'a dyn OracleBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Memoize coalition repairs in `cache` instead of a fresh private
    /// cache per oracle. Several explainers (or several requests against
    /// one long-lived `Session`) sharing one [`OracleCache`] pool their
    /// coalition answers: oracle keys embed the table fingerprint and the
    /// DC-set hash, so entries computed under one `(table, constraints)`
    /// pair can never answer a query for another.
    ///
    /// A shared cache carries its own capacity, so it overrides
    /// [`ExecConfig::with_oracle_cap`] for this explainer.
    pub fn with_oracle_cache(mut self, cache: Arc<OracleCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Apply an execution configuration wholesale: thread count, oracle
    /// capacity, batch bound, and the seed of the sampled games (0 when
    /// unset), in one value shared with `Session` and the repair engines.
    pub fn with_config(mut self, cfg: ExecConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Build a coalition oracle carrying every configured knob: capacity
    /// bound, batch bound, and backend.
    fn build_oracle<'b>(&self) -> ShardedOracle<'b>
    where
        'a: 'b,
    {
        let mut oracle = match &self.cache {
            Some(cache) => ShardedOracle::with_shared_cache(self.alg, Arc::clone(cache)),
            None => match self.cfg.oracle_cap() {
                Some(cap) => ShardedOracle::with_capacity(self.alg, cap),
                None => ShardedOracle::new(self.alg),
            },
        };
        if let Some(batch) = self.cfg.oracle_batch() {
            oracle = oracle.with_batch(batch);
        }
        if let Some(backend) = self.backend {
            oracle = oracle.with_backend(backend);
        }
        oracle
    }

    /// Determine the repair target of `cell`: the clean value the full run
    /// assigns it. Errors if the cell is out of range or not repaired.
    pub fn repair_target(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        cell: CellRef,
    ) -> Result<Value, ExplainError> {
        if cell.row >= dirty.num_rows() || cell.attr.0 >= dirty.arity() {
            return Err(ExplainError::CellOutOfRange { cell });
        }
        let result = self.alg.repair(dcs, dirty);
        let target = result.clean.get(cell);
        if target == dirty.get(cell) {
            return Err(ExplainError::CellNotRepaired { cell });
        }
        Ok(target.clone())
    }

    /// Answer `req` over `dcs` and `dirty`: the ranking of the request's
    /// players for the repair of its cell, with the oracle and batch
    /// counters the run accumulated. Errors if the cell is out of range or
    /// not repaired by the full run.
    pub fn explain(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        req: &ExplainRequest,
    ) -> Result<Explanation, ExplainError> {
        self.explain_anytime(dcs, dirty, req, 0, |_| AnytimeControl::Continue)
    }

    /// [`Explainer::explain`], with an observer on the masked-cell walks:
    /// `on_checkpoint` sees the in-progress per-cell estimates (in player
    /// order) every `checkpoint_every` walks (`0`: once, at the end) and
    /// can stop the run early ([`AnytimeControl::Stop`]) — e.g. when a
    /// latency budget expires or the requesting client disconnects. The
    /// other games have no intermediate state to show: they never call
    /// the observer and always finish.
    ///
    /// Determinism contract: a run that finishes returns exactly what
    /// [`Explainer::explain`] returns — checkpointing never perturbs the
    /// sample stream. A stopped run (`finished == false`) returns the
    /// estimates of its last checkpoint, which equal a finished run with
    /// that smaller budget.
    pub fn explain_anytime(
        &self,
        dcs: &[DenialConstraint],
        dirty: &Table,
        req: &ExplainRequest,
        checkpoint_every: usize,
        on_checkpoint: impl FnMut(&AnytimeCheckpoint<'_>) -> AnytimeControl,
    ) -> Result<Explanation, ExplainError> {
        let cell = req.cell;
        let target = self.repair_target(dcs, dirty, cell)?;
        let seed = self.cfg.seed().unwrap_or(0);
        let threads = self.cfg.threads();
        match req.players {
            Players::Constraints => {
                let mut game = ConstraintGame::with_oracle(
                    self.build_oracle(),
                    dcs,
                    dirty,
                    cell,
                    target.clone(),
                );
                // Scan-cost estimates only pay off when batches form.
                if self.cfg.oracle_batch().is_some() || self.backend.is_some() {
                    game = game.with_dc_costs(trex_constraints::scan_cost_estimates(dcs, dirty));
                }
                let values = shapley_exact(&game).expect("constraint sets are small");
                let exact: Vec<(String, Rational)> = shapley_exact_rational(&game)
                    .expect("constraint sets are small")
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| (Game::player_label(&game, i), r))
                    .collect();
                let ranking = Ranking::new(
                    exact
                        .iter()
                        .zip(&values)
                        .map(|((label, _), v)| (label.clone(), *v))
                        .collect(),
                );
                Ok(Explanation {
                    target,
                    ranking,
                    values,
                    players: Vec::new(),
                    exact,
                    converged: Vec::new(),
                    finished: true,
                    oracle: game.oracle_stats(),
                    batches: game.oracle_batch_stats(),
                })
            }
            Players::MaskedCells { mode, walks } => {
                let game = CellGameMasked::with_oracle(
                    self.build_oracle(),
                    dcs,
                    dirty,
                    cell,
                    target.clone(),
                    mode,
                );
                let (estimates, finished) = parallel::estimate_all_walk_anytime(
                    &game,
                    ParallelConfig::new(walks, seed, threads),
                    checkpoint_every,
                    on_checkpoint,
                );
                Ok(Explanation {
                    finished,
                    oracle: game.oracle_stats(),
                    batches: game.oracle_batch_stats(),
                    ..cell_explanation(dirty, target, game.players().to_vec(), &estimates)
                })
            }
            Players::ReplacedCells { samples } => {
                let game = CellGameSampled::new(self.alg, dcs, dirty, cell, target.clone());
                let estimates =
                    parallel::estimate_all(&game, ParallelConfig::new(samples, seed, threads));
                Ok(cell_explanation(
                    dirty,
                    target,
                    game.players().to_vec(),
                    &estimates,
                ))
            }
            Players::AdaptiveCells(a) => {
                let game = CellGameSampled::new(self.alg, dcs, dirty, cell, target.clone());
                let (estimates, converged): (Vec<_>, Vec<_>) = parallel::estimate_all_adaptive(
                    &game,
                    a.tolerance,
                    a.z,
                    a.batch,
                    a.max_samples,
                    seed,
                    threads,
                )
                .into_iter()
                .unzip();
                Ok(Explanation {
                    converged,
                    ..cell_explanation(dirty, target, game.players().to_vec(), &estimates)
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trex_datagen::laliga;
    use trex_repair::NoOpRepair;
    use trex_table::AttrId;

    fn ask(cell: CellRef, players: Players) -> ExplainRequest {
        ExplainRequest { cell, players }
    }

    fn masked(cell: CellRef, walks: usize) -> ExplainRequest {
        ask(
            cell,
            Players::MaskedCells {
                mode: MaskMode::Null,
                walks,
            },
        )
    }

    fn seeded(seed: u64) -> ExecConfig {
        ExecConfig::new().with_seed(seed)
    }

    #[test]
    fn constraint_explanation_matches_figure_1() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let req = ask(laliga::cell_of_interest(&dirty), Players::Constraints);
        let out = ex.explain(&dcs, &dirty, &req).unwrap();
        assert_eq!(out.target, Value::str("Spain"));
        // Ranking: C3 first, C4 last with value 0.
        assert_eq!(out.ranking.top().unwrap().label, "C3");
        assert_eq!(out.ranking.rank_of("C4"), Some(3));
        // Exact rationals: 1/6, 1/6, 2/3, 0.
        let by_name: Vec<(&str, String)> = out
            .exact
            .iter()
            .map(|(n, r)| (n.as_str(), r.to_string()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("C1", "1/6".to_string()),
                ("C2", "1/6".to_string()),
                ("C3", "2/3".to_string()),
                ("C4", "0".to_string()),
            ]
        );
        // The float values follow constraint order; the game has no player
        // cells, no convergence flags, and always finishes.
        assert_eq!(out.values.len(), 4);
        assert!((out.values[2] - 2.0 / 3.0).abs() < 1e-12);
        assert!(out.players.is_empty() && out.converged.is_empty());
        assert!(out.finished);
        assert!(out.oracle.misses > 0, "{:?}", out.oracle);
    }

    #[test]
    fn unrepaired_cell_is_rejected() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        // t1[Team] is never repaired.
        let cell = CellRef::new(0, AttrId(0));
        let err = ex
            .explain(&dcs, &dirty, &ask(cell, Players::Constraints))
            .unwrap_err();
        assert!(matches!(err, ExplainError::CellNotRepaired { .. }));
    }

    #[test]
    fn out_of_range_cell_is_rejected() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg);
        let req = ask(CellRef::new(99, AttrId(0)), Players::Constraints);
        let err = ex.explain(&dcs, &dirty, &req).unwrap_err();
        assert!(matches!(err, ExplainError::CellOutOfRange { .. }));
    }

    #[test]
    fn noop_algorithm_repairs_nothing_so_nothing_to_explain() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let ex = Explainer::new(&NoOpRepair);
        let req = ask(laliga::cell_of_interest(&dirty), Players::Constraints);
        let err = ex.explain(&dcs, &dirty, &req).unwrap_err();
        assert!(matches!(err, ExplainError::CellNotRepaired { .. }));
    }

    #[test]
    fn sampled_cell_explanation_properties() {
        // The replacement-semantics estimator (Example 2.5 verbatim)
        // measures a *different* game than the §2.2 null-mask definition:
        // an out-of-coalition League cell is redrawn as "La Liga" 5 times
        // out of 6, so C3 usually fires anyway and the influence mass
        // shifts to the Country witness cells that make "Spain" win the
        // vote. (EXPERIMENTS.md E4 records this side-by-side; the paper's
        // Example-2.4 ranking is asserted on the masked game below.)
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg).with_config(seeded(7));
        let req = ask(
            laliga::cell_of_interest(&dirty),
            Players::ReplacedCells { samples: 800 },
        );
        let out = ex.explain(&dcs, &dirty, &req).unwrap();
        // Example 1.1: t1[Place] has no influence — exactly zero (no
        // constraint path from Place to Country under any replacement).
        let place = out.ranking.get("t1[Place]").unwrap();
        assert_eq!(place.value, 0.0);
        assert_eq!(place.std_error, Some(0.0));
        // The top of the ranking is a Country witness cell: one of the
        // (League, Country) = (La Liga, Spain) rows t1, t2, t3, t6.
        let top = out.ranking.top().unwrap();
        assert!(
            ["t1[Country]", "t2[Country]", "t3[Country]", "t6[Country]"]
                .contains(&top.label.as_str()),
            "unexpected top cell {}",
            top.label
        );
        // Every Country witness strictly beats every Place cell.
        for w in ["t1[Country]", "t2[Country]", "t3[Country]", "t6[Country]"] {
            for p in ["t1[Place]", "t2[Place]", "t3[Place]"] {
                assert!(
                    out.ranking.get(w).unwrap().value > out.ranking.get(p).unwrap().value,
                    "{w} vs {p}"
                );
            }
        }
        // Replacement draws query the algorithm directly: no oracle.
        assert_eq!(out.oracle, OracleStats::default());
    }

    #[test]
    fn masked_cell_explanation_reproduces_example_2_4_ranking() {
        // Example 2.4's headline claims, under the definition (null-mask)
        // semantics the example's counting argument uses:
        //   1. t5[League] has the highest Shapley value of all cells;
        //   2. t1[Place] has none (dummy player);
        //   3. t5[League] is more influential than t6[City] (Example 1.1).
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg).with_config(seeded(3));
        let out = ex
            .explain(&dcs, &dirty, &masked(laliga::cell_of_interest(&dirty), 600))
            .unwrap();
        assert_eq!(out.ranking.top().unwrap().label, "t5[League]");
        assert_eq!(out.ranking.get("t1[Place]").unwrap().value, 0.0);
        let league = out.ranking.get("t5[League]").unwrap().value;
        let t6city = out.ranking.get("t6[City]").unwrap().value;
        assert!(league > t6city, "{league} vs {t6city}");
    }

    #[test]
    fn masked_cell_explanation_agrees_on_the_top_cell() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let ex = Explainer::new(&alg).with_config(seeded(11));
        let out = ex
            .explain(&dcs, &dirty, &masked(laliga::cell_of_interest(&dirty), 300))
            .unwrap();
        assert_eq!(out.ranking.top().unwrap().label, "t5[League]");
        assert_eq!(out.players.len(), 35);
        assert_eq!(out.values.len(), 35);
        assert!(out.exact.is_empty() && out.converged.is_empty());
    }

    #[test]
    fn multithreaded_explainer_is_serial_identical_and_keeps_the_headline() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let req = masked(laliga::cell_of_interest(&dirty), 600);
        let run = |threads: usize| {
            Explainer::new(&alg)
                .with_config(seeded(3).with_threads(threads))
                .explain(&dcs, &dirty, &req)
                .unwrap()
        };
        // threads = 1 reproduces the serial estimates bit for bit.
        let serial = Explainer::new(&alg)
            .with_config(seeded(3))
            .explain(&dcs, &dirty, &req)
            .unwrap();
        let one = run(1);
        assert_eq!(serial.values, one.values);
        // Any thread count returns the serial estimates, so the paper's
        // headline ranking is the same on every machine.
        let a = run(4);
        assert_eq!(serial.values, a.values);
        assert_eq!(a.ranking.top().unwrap().label, "t5[League]");
        assert_eq!(a.ranking.get("t1[Place]").unwrap().value, 0.0);
    }

    #[test]
    fn adaptive_explanation_converges_dummies_early_and_is_deterministic() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let req = ask(
            laliga::cell_of_interest(&dirty),
            Players::AdaptiveCells(AdaptiveConfig {
                tolerance: 0.08,
                batch: 40,
                max_samples: 400,
                ..AdaptiveConfig::default()
            }),
        );
        let ex = Explainer::new(&alg).with_config(ExecConfig::new().with_threads(2));
        let a = ex.explain(&dcs, &dirty, &req).unwrap();
        let b = ex.explain(&dcs, &dirty, &req).unwrap();
        assert_eq!(a.values, b.values, "deterministic per seed");
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.converged.len(), a.players.len());
        // t1[Place] is a dummy: zero variance, so it converges in the
        // minimum number of rounds with a zero estimate.
        let place = a.ranking.get("t1[Place]").unwrap();
        assert_eq!(place.value, 0.0);
        let place_idx = a
            .players
            .iter()
            .position(|c| *c == CellRef::new(0, dirty.schema().id("Place")))
            .unwrap();
        assert!(a.converged[place_idx], "dummy cells stop early");
        // The seed is the execution configuration's.
        let reseeded = Explainer::new(&alg)
            .with_config(seeded(5))
            .explain(&dcs, &dirty, &req)
            .unwrap();
        assert_ne!(a.values, reseeded.values);
    }

    #[test]
    fn bounded_oracle_capacity_does_not_change_any_explanation() {
        // The bounded-memory acceptance criterion end to end: a tiny
        // eviction-thrashing capacity (and a disabled cache) must reproduce
        // the default explainer's output exactly, constraints and cells.
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let cons = ask(cell, Players::Constraints);
        let cells = masked(cell, 300);
        let reference = Explainer::new(&alg).with_config(seeded(3));
        let reference_cons = reference.explain(&dcs, &dirty, &cons).unwrap();
        let reference_cells = reference.explain(&dcs, &dirty, &cells).unwrap();
        for capacity in [0usize, 3, 17, 1 << 20] {
            let ex = Explainer::new(&alg).with_config(seeded(3).with_oracle_cap(capacity));
            let got = ex.explain(&dcs, &dirty, &cons).unwrap();
            assert_eq!(got.exact, reference_cons.exact, "capacity {capacity}");
            let got = ex.explain(&dcs, &dirty, &cells).unwrap();
            assert_eq!(got.values, reference_cells.values, "capacity {capacity}");
        }
    }

    #[test]
    fn batched_and_backend_explanations_match_the_plain_path() {
        // A faithful backend plus any batch bound must reproduce the
        // default explainer byte for byte — constraints and cells — while
        // actually routing misses through the backend.
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let cons = ask(cell, Players::Constraints);
        let cells = masked(cell, 120);
        let reference = Explainer::new(&alg).with_config(seeded(3));
        let reference_cons = reference.explain(&dcs, &dirty, &cons).unwrap();
        let reference_cells = reference.explain(&dcs, &dirty, &cells).unwrap();
        let remote =
            trex_repair::MockRemoteRepair::mock(laliga::algorithm1(), std::time::Duration::ZERO);
        for batch in [1usize, 7, 64] {
            let ex = Explainer::new(&alg)
                .with_config(seeded(3).with_oracle_batch(batch))
                .with_oracle_backend(&remote);
            let got = ex.explain(&dcs, &dirty, &cons).unwrap();
            assert_eq!(got.exact, reference_cons.exact, "batch {batch}");
            assert!(got.batches.batches > 0, "misses must travel in batches");
            let got = ex.explain(&dcs, &dirty, &cells).unwrap();
            assert_eq!(got.values, reference_cells.values, "batch {batch}");
        }
        assert!(remote.calls() > 0, "the backend answered real queries");
    }

    #[test]
    fn explanations_are_serial_identical_at_any_thread_count() {
        // The sampling contract end to end: the multi-threaded explanation
        // *is* the single-threaded one, for the walk and the
        // replacement-semantics per-player estimator alike.
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        for (req, seed) in [
            (masked(cell, 200), 3),
            (ask(cell, Players::ReplacedCells { samples: 60 }), 7),
        ] {
            let run = |threads: usize| {
                Explainer::new(&alg)
                    .with_config(seeded(seed).with_threads(threads))
                    .explain(&dcs, &dirty, &req)
                    .unwrap()
            };
            let serial = run(1);
            for threads in [2usize, 4] {
                assert_eq!(serial.values, run(threads).values, "{req:?} {threads}");
            }
        }
    }

    #[test]
    fn adaptive_explanations_are_serial_identical_at_any_thread_count() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let req = ask(
            laliga::cell_of_interest(&dirty),
            Players::AdaptiveCells(AdaptiveConfig {
                tolerance: 0.1,
                batch: 30,
                max_samples: 240,
                ..AdaptiveConfig::default()
            }),
        );
        let run = |threads: usize| {
            Explainer::new(&alg)
                .with_config(ExecConfig::new().with_threads(threads))
                .explain(&dcs, &dirty, &req)
                .unwrap()
        };
        let serial = run(1);
        for threads in [2usize, 4] {
            let multi = run(threads);
            assert_eq!(serial.values, multi.values, "threads {threads}");
            assert_eq!(serial.converged, multi.converged, "threads {threads}");
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let cell = CellRef::new(4, AttrId(2));
        let e1 = ExplainError::CellNotRepaired { cell };
        assert!(e1.to_string().contains("not repaired"));
        let e2 = ExplainError::CellOutOfRange { cell };
        assert!(e2.to_string().contains("out of range"));
    }

    #[test]
    fn anytime_completed_run_matches_batch_explain_bit_for_bit() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let req = masked(laliga::cell_of_interest(&dirty), 150);
        let serial = Explainer::new(&alg)
            .with_config(seeded(9))
            .explain(&dcs, &dirty, &req)
            .unwrap();
        for threads in [1usize, 2] {
            let ex = Explainer::new(&alg).with_config(seeded(9).with_threads(threads));
            let batch = ex.explain(&dcs, &dirty, &req).unwrap();
            assert_eq!(batch.values, serial.values, "threads {threads}");
            let mut checkpoints = 0usize;
            let anytime = ex
                .explain_anytime(&dcs, &dirty, &req, 40, |cp| {
                    checkpoints += 1;
                    assert_eq!(cp.estimates.len(), batch.players.len());
                    assert!(cp.estimates.iter().all(|e| e.value.is_finite()));
                    AnytimeControl::Continue
                })
                .unwrap();
            assert!(anytime.finished, "threads {threads}");
            assert!(checkpoints >= 3, "threads {threads}: {checkpoints}");
            assert_eq!(anytime.values, batch.values, "threads {threads}");
            assert_eq!(anytime.players, batch.players, "threads {threads}");
        }
    }

    #[test]
    fn only_the_walk_game_reports_checkpoints_or_stops_early() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let cell = laliga::cell_of_interest(&dirty);
        let ex = Explainer::new(&alg);
        for players in [
            Players::Constraints,
            Players::ReplacedCells { samples: 20 },
            Players::AdaptiveCells(AdaptiveConfig {
                max_samples: 100,
                ..AdaptiveConfig::default()
            }),
        ] {
            let out = ex
                .explain_anytime(&dcs, &dirty, &ask(cell, players), 1, |_| {
                    panic!("{players:?} has no checkpoints")
                })
                .unwrap();
            assert!(out.finished, "{players:?}");
        }
        // A walk stopped at its first checkpoint equals a finished run with
        // that budget.
        let stopped = ex
            .explain_anytime(&dcs, &dirty, &masked(cell, 100), 25, |_| {
                AnytimeControl::Stop
            })
            .unwrap();
        assert!(!stopped.finished);
        let short = ex.explain(&dcs, &dirty, &masked(cell, 25)).unwrap();
        assert_eq!(stopped.values, short.values);
    }
}
