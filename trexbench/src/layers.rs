//! The traced run's layer split: explain pipelines rebuilt from the
//! library's public parts around the timing decorators, and standalone
//! timings of table and constraint primitives on a workload's own inputs.
//!
//! The rebuilt pipelines do what `Explainer::explain_constraints` and
//! `Explainer::explain_cells_masked` do (repair target, game over the
//! session's shared oracle cache, solver), so their answers equal the
//! session's; only the game is wrapped in a [`TimedGame`].

use crate::probe::{ms_since, Clock, ClockReading, TimedGame};
use crate::report::{typical, Report, DC_NAMES};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trex::{CellGameMasked, ConstraintGame, Explainer, MaskMode, Session};
use trex_constraints::DenialConstraint;
use trex_repair::{OracleCache, OracleStats, RepairAlgorithm, ShardedOracle};
use trex_shapley::parallel::{estimate_all_walk, ParallelConfig, Schedule};
use trex_shapley::{
    estimate_all_walk_anytime, shapley_exact, shapley_exact_rational, AnytimeControl, Coalition,
    ExecConfig, Game, Rational, SamplingConfig,
};
use trex_table::{CellRef, EncodedTable, Table, Value};

/// Layer times and counts summed over the traced pass's requests.
///
/// Times are wall-clock shares of each request: work that ran on several
/// sampling workers at once is divided by the worker count. Inside the
/// walk (the solver's run), `oracle.self_ms` and `repair.busy_ms` come from
/// the decorators' clocks, while `shapley.self_ms` is measured apart, by
/// replaying the request's solver on a [`FreeGame`]. So their sum can
/// exceed the walk's wall time when a clock counts twice, and
/// [`LayerSums::report`] checks that it does not.
#[derive(Default)]
pub struct LayerSums {
    pub requests: u64,
    pub wall_ms: f64,
    pub solver_ms: f64,
    pub oracle_self_ms: f64,
    pub repair_busy_ms: f64,
    pub core_self_ms: f64,
    pub repair_calls: u64,
    pub repair_call_ms: Vec<f64>,
    pub game_calls: u64,
    pub walks: u64,
    pub exact_coalitions: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub batches: u64,
    pub batched_queries: u64,
    /// Each request's solver run, replayed by [`LayerSums::report`].
    runs: Vec<SolverRun>,
}

/// One traced request's raw readings.
struct Span {
    started: Instant,
    oracle0: (OracleStats, trex_repair::BatchStats),
}

/// What a request's walk did: the solver, its wall time, the game's clock
/// and the repair clock's work during it.
struct Walk {
    run: SolverRun,
    solver_ms: f64,
    game: ClockReading,
    repair: ClockReading,
    repair0: ClockReading,
    walks: u64,
    exact_coalitions: u64,
}

/// A solver run to replay on a [`FreeGame`].
#[derive(Debug, Clone, Copy)]
enum SolverRun {
    /// `shapley_exact` and `shapley_exact_rational` over `players`.
    Exact { players: usize },
    /// Permutation walks; `stop_at` is the anytime solver's checkpoint
    /// interval and the walk count it stopped at.
    Walks {
        players: usize,
        config: ParallelConfig,
        stop_at: Option<(usize, usize)>,
    },
}

impl SolverRun {
    fn workers(&self) -> usize {
        match self {
            SolverRun::Exact { .. } => 1,
            SolverRun::Walks { config, .. } => config.threads,
        }
    }

    /// The solver's own wall time: the least, over three replays on a free
    /// game, of the replay's wall time less the time inside the game's
    /// calls. The least is the replay with warm caches, which the request
    /// itself ran with.
    fn self_ms(&self) -> f64 {
        (0..3)
            .map(|_| self.replay_ms())
            .fold(f64::INFINITY, f64::min)
    }

    fn replay_ms(&self) -> f64 {
        let players = match *self {
            SolverRun::Exact { players } | SolverRun::Walks { players, .. } => players,
        };
        let game = TimedGame::new(FreeGame(players));
        let started = Instant::now();
        match *self {
            SolverRun::Exact { .. } => {
                std::hint::black_box(shapley_exact(&game).ok());
                std::hint::black_box(shapley_exact_rational(&game).ok());
            }
            SolverRun::Walks {
                config,
                stop_at: None,
                ..
            } => {
                std::hint::black_box(estimate_all_walk(&game, config));
            }
            SolverRun::Walks {
                config,
                stop_at: Some((every, completed)),
                ..
            } => {
                std::hint::black_box(estimate_all_walk_anytime(&game, config, every, |cp| {
                    if cp.completed >= completed {
                        AnytimeControl::Stop
                    } else {
                        AnytimeControl::Continue
                    }
                }));
            }
        }
        ms_since(started) - game.clock().read().busy_ms / self.workers() as f64
    }
}

/// A game in which every coalition is worth 0 at no cost. The solvers'
/// walks depend on the seed and the player count, not on the values, so a
/// replay on this game repeats a request's solver work without its oracle.
struct FreeGame(usize);

impl Game for FreeGame {
    fn num_players(&self) -> usize {
        self.0
    }

    fn value(&self, _: &Coalition) -> f64 {
        0.0
    }

    fn value_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        vec![0.0; coalitions.len()]
    }
}

impl LayerSums {
    fn open(&self, cache: &OracleCache) -> Span {
        Span {
            started: Instant::now(),
            oracle0: (cache.stats(), cache.batch_stats()),
        }
    }

    /// Close a request whose walk was `walk`.
    fn close(&mut self, span: Span, repair: &Clock, cache: &OracleCache, walk: Walk) {
        let wall = ms_since(span.started);
        let w = walk.run.workers() as f64;
        self.requests += 1;
        self.wall_ms += wall;
        self.solver_ms += walk.solver_ms;
        self.oracle_self_ms += (walk.game.busy_ms - walk.repair.busy_ms) / w;
        self.repair_busy_ms += walk.repair.busy_ms / w;
        self.core_self_ms += wall - walk.solver_ms;
        self.repair_calls += walk.repair.calls;
        self.repair_call_ms
            .extend(repair.durations_between(&walk.repair0, &walk.repair));
        self.game_calls += walk.game.units;
        self.walks += walk.walks;
        self.exact_coalitions += walk.exact_coalitions;
        self.runs.push(walk.run);
        // A flush inside the request would reset the cache counters; the
        // traced pipelines never mutate inputs, so the deltas are exact.
        let (s1, b1) = (cache.stats(), cache.batch_stats());
        let (s0, b0) = span.oracle0;
        self.hits += s1.hits.saturating_sub(s0.hits) as u64;
        self.misses += s1.misses.saturating_sub(s0.misses) as u64;
        self.evictions += s1.evictions.saturating_sub(s0.evictions) as u64;
        self.batches += b1.batches.saturating_sub(b0.batches) as u64;
        self.batched_queries += b1.queries.saturating_sub(b0.queries) as u64;
    }

    /// Replay every request's solver for `shapley.self_ms`, record the
    /// per-request means (and the per-call repair median), and check that
    /// the layers inside the walk fit in the walk's wall time.
    pub fn report(&self, r: &mut Report) {
        let n = self.requests.max(1) as f64;
        let shapley_self_ms: f64 = self.runs.iter().map(SolverRun::self_ms).sum();
        let call_p50 = typical(&self.repair_call_ms).map_or(0.0, |(v, _)| v);
        let lookups = self.hits + self.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        };
        r.metric("repair.calls", "count", self.repair_calls as f64 / n);
        r.metric("repair.busy_ms", "ms", self.repair_busy_ms / n);
        r.metric("repair.call_p50_ms", "ms", call_p50);
        r.metric("oracle.hits", "count", self.hits as f64 / n);
        r.metric("oracle.misses", "count", self.misses as f64 / n);
        r.metric("oracle.evictions", "count", self.evictions as f64 / n);
        r.metric("oracle.hit_rate", "ratio", hit_rate);
        r.metric("oracle.batches", "count", self.batches as f64 / n);
        r.metric(
            "oracle.batched_queries",
            "count",
            self.batched_queries as f64 / n,
        );
        r.metric("oracle.self_ms", "ms", self.oracle_self_ms / n);
        r.metric("shapley.walks", "count", self.walks as f64 / n);
        r.metric("shapley.game_calls", "count", self.game_calls as f64 / n);
        r.metric("shapley.self_ms", "ms", shapley_self_ms / n);
        r.metric(
            "shapley.exact_coalitions",
            "count",
            self.exact_coalitions as f64 / n,
        );
        r.metric("core.explain_self_ms", "ms", self.core_self_ms / n);
        let layered = shapley_self_ms + self.oracle_self_ms + self.repair_busy_ms;
        r.lines.push(format!(
            "layer split over {} traced request(s), per request: wall {:.3} ms, walk {:.3} ms, \
             shapley.self {:.3} + oracle.self {:.3} + repair.busy {:.3} = {:.3} ms, \
             core.explain_self {:.3} ms",
            self.requests,
            self.wall_ms / n,
            self.solver_ms / n,
            shapley_self_ms / n,
            self.oracle_self_ms / n,
            self.repair_busy_ms / n,
            layered / n,
            self.core_self_ms / n,
        ));
        r.check(self.oracle_self_ms >= 0.0, || {
            format!(
                "repair time inside the game exceeds the game time by {:.3} ms",
                -self.oracle_self_ms
            )
        });
        r.check(layered <= self.solver_ms, || {
            format!(
                "shapley.self + oracle.self + repair.busy = {layered:.3} ms exceeds \
                 the walk wall time {:.3} ms",
                self.solver_ms
            )
        });
    }
}

/// Everything a traced explain needs from the session it stands in for.
pub struct Inputs<'a> {
    pub alg: &'a dyn RepairAlgorithm,
    pub repair_clock: &'a Clock,
    pub cache: &'a Arc<OracleCache>,
    pub dcs: &'a [DenialConstraint],
    pub table: &'a Table,
    pub exec: ExecConfig,
}

impl<'a> Inputs<'a> {
    /// The inputs of `session`, explained through `alg`.
    pub fn of(
        session: &'a Session,
        alg: &'a dyn RepairAlgorithm,
        repair_clock: &'a Clock,
        exec: ExecConfig,
    ) -> Self {
        Inputs {
            alg,
            repair_clock,
            cache: session.oracle_cache(),
            dcs: session.constraints(),
            table: session.table(),
            exec,
        }
    }
}

/// `Session::explain_constraints_for`, traced. Returns the exact values
/// and the repair target.
pub fn explain_constraints(
    inp: &Inputs<'_>,
    cell: CellRef,
    sums: &mut LayerSums,
) -> Result<(Vec<Rational>, Value), String> {
    let span = sums.open(inp.cache);
    let explainer = Explainer::new(inp.alg).with_config(inp.exec);
    let target = explainer
        .repair_target(inp.dcs, inp.table, cell)
        .map_err(|e| e.to_string())?;
    let oracle = ShardedOracle::with_shared_cache(inp.alg, Arc::clone(inp.cache));
    let game = TimedGame::new(ConstraintGame::with_oracle(
        oracle,
        inp.dcs,
        inp.table,
        cell,
        target.clone(),
    ));
    let players = game.num_players();
    let solver_started = Instant::now();
    let repair0 = inp.repair_clock.read();
    let values = shapley_exact(&game).map_err(|e| e.to_string())?;
    let rationals = shapley_exact_rational(&game).map_err(|e| e.to_string())?;
    let solver_ms = ms_since(solver_started);
    let repair = inp.repair_clock.read();
    std::hint::black_box(values);
    sums.close(
        span,
        inp.repair_clock,
        inp.cache,
        Walk {
            run: SolverRun::Exact { players },
            solver_ms,
            game: game.clock().read(),
            repair: repair.since(&repair0),
            repair0,
            walks: 0,
            exact_coalitions: 2u64 << players,
        },
    );
    Ok((rationals, target))
}

/// `Session::explain_cells_masked_for` (or its anytime variant when
/// `budget` is set), traced. Returns the values, the completed walks and
/// the repair target.
pub fn explain_cells(
    inp: &Inputs<'_>,
    cell: CellRef,
    sampling: SamplingConfig,
    budget: Option<(Duration, usize)>,
    sums: &mut LayerSums,
) -> Result<(Vec<f64>, usize, Value), String> {
    let span = sums.open(inp.cache);
    let explainer = Explainer::new(inp.alg).with_config(inp.exec);
    let target = explainer
        .repair_target(inp.dcs, inp.table, cell)
        .map_err(|e| e.to_string())?;
    let oracle = ShardedOracle::with_shared_cache(inp.alg, Arc::clone(inp.cache));
    let game = TimedGame::new(CellGameMasked::with_oracle(
        oracle,
        inp.dcs,
        inp.table,
        cell,
        target.clone(),
        MaskMode::Null,
    ));
    let players = game.num_players();
    let threads = inp.exec.threads();
    let schedule = inp
        .exec
        .schedule()
        .unwrap_or_else(|| Schedule::auto(players, threads));
    let config = ParallelConfig::from_sampling(sampling, threads).with_schedule(schedule);
    let solver_started = Instant::now();
    let repair0 = inp.repair_clock.read();
    let (estimates, completed) = match budget {
        None => (estimate_all_walk(&game, config), sampling.samples),
        Some((budget, every)) => {
            let deadline = solver_started + budget;
            let mut completed = 0;
            let (estimates, _) = estimate_all_walk_anytime(&game, config, every, |cp| {
                completed = cp.completed;
                if Instant::now() >= deadline {
                    AnytimeControl::Stop
                } else {
                    AnytimeControl::Continue
                }
            });
            (estimates, completed)
        }
    };
    let solver_ms = ms_since(solver_started);
    let repair = inp.repair_clock.read();
    sums.close(
        span,
        inp.repair_clock,
        inp.cache,
        Walk {
            run: SolverRun::Walks {
                players,
                config,
                stop_at: budget.map(|(_, every)| (every, completed)),
            },
            solver_ms,
            game: game.clock().read(),
            repair: repair.since(&repair0),
            repair0,
            walks: completed as u64,
            exact_coalitions: 0,
        },
    );
    Ok((
        estimates.iter().map(|e| e.value).collect(),
        completed,
        target,
    ))
}

/// `v(N) - v(∅)` of the explained game, read through the session's oracle
/// cache (both coalitions were answered during the explain, so these are
/// cache hits unless evicted). The efficiency axiom says the Shapley
/// values sum to this.
pub fn grand_minus_empty(inp: &Inputs<'_>, cell: CellRef, target: &Value, cells: bool) -> f64 {
    let oracle = ShardedOracle::with_shared_cache(inp.alg, Arc::clone(inp.cache));
    let game: Box<dyn Game + '_> = if cells {
        Box::new(CellGameMasked::with_oracle(
            oracle,
            inp.dcs,
            inp.table,
            cell,
            target.clone(),
            MaskMode::Null,
        ))
    } else {
        Box::new(ConstraintGame::with_oracle(
            oracle,
            inp.dcs,
            inp.table,
            cell,
            target.clone(),
        ))
    };
    let n = game.num_players();
    game.value(&Coalition::full(n)) - game.value(&Coalition::empty(n))
}

/// Sum of rationals, reduced.
pub fn rational_sum(values: &[Rational]) -> Rational {
    values.iter().fold(Rational { num: 0, den: 1 }, |acc, r| {
        Rational {
            num: acc.num * r.den + r.num * acc.den,
            den: acc.den * r.den,
        }
        .reduced()
    })
}

/// Time `f` at least 20 times and for at least `min_total`; the typical
/// duration in ms.
fn time_repeated<T>(min_total: Duration, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 20 || (started.elapsed() < min_total && samples.len() < 10_000) {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(ms_since(t));
    }
    typical(&samples).map_or(f64::NAN, |(v, _)| v)
}

/// Standalone timings of the table, constraint and coalition-table
/// primitives on a workload's own inputs: `table.*`, `constraints.*` and
/// `core.coalition_table_ms`. `cell` is a cell the repair changes.
pub fn primitives(
    r: &mut Report,
    table: &Table,
    dcs: &[DenialConstraint],
    threads: usize,
    alg: &dyn RepairAlgorithm,
    cell: CellRef,
    seed: u64,
) {
    let min = Duration::from_millis(100);
    r.metric(
        "table.encode_ms",
        "ms",
        time_repeated(min, || EncodedTable::encode(table)),
    );
    r.metric("table.clone_ms", "ms", time_repeated(min, || table.clone()));
    r.metric(
        "table.fingerprint_ms",
        "ms",
        time_repeated(min, || table.fingerprint()),
    );
    let resolved: Vec<DenialConstraint> = dcs
        .iter()
        .map(|d| {
            d.resolved(table.schema())
                .expect("workload constraints resolve")
        })
        .collect();
    r.metric(
        "constraints.scan_ms",
        "ms",
        time_repeated(min, || {
            trex_constraints::find_all_violations_par(&resolved, table, threads)
        }),
    );
    for name in DC_NAMES {
        let dc = resolved
            .iter()
            .find(|d| d.name == name)
            .expect("both schemas name their constraints C1..C4");
        r.metric(
            &format!("constraints.dc_scan_ms.{name}"),
            "ms",
            time_repeated(min, || {
                trex_constraints::find_violations_par(dc, table, threads)
            }),
        );
    }
    let witnesses = trex_constraints::find_all_violations_par(&resolved, table, threads).len();
    r.metric("constraints.witnesses", "count", witnesses as f64);
    // A half-full coalition drawn from the seed: every other player masked.
    let game = CellGameMasked::new(alg, dcs, table, cell, Value::str("target"), MaskMode::Null);
    let n = game.num_players();
    let mut rng = crate::SplitMix(seed);
    let mut coalition = Coalition::empty(n);
    for i in 0..n {
        if rng.next_u64() & 1 == 1 {
            coalition.insert(i);
        }
    }
    r.metric(
        "core.coalition_table_ms",
        "ms",
        time_repeated(min, || game.coalition_table(&coalition)),
    );
}
