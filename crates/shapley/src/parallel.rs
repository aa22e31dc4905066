//! Deterministic multi-threaded permutation sampling.
//!
//! The paper's bottleneck is the Monte-Carlo cell game of §2.3: every
//! permutation sample queries the black-box repair oracle, and tables have
//! *many* cells. The drivers here spread that work over `threads` workers
//! under one **determinism contract**: the output equals the serial
//! estimator of [`crate::sampling`] bit for bit at every thread count.
//! `threads` only sets wall time.
//!
//! All drivers run on one claim queue. The calling thread and `threads - 1`
//! spawned workers claim the next unit of work under a lock, so units are
//! drawn in one serial order whichever thread claims them. They evaluate
//! the unit outside the lock, and the calling thread folds the results back
//! in claim order:
//!
//! * **Walk drivers** ([`estimate_all_walk`], [`estimate_all_walk_anytime`]):
//!   a unit is a block of permutations drawn from the single serial stream
//!   `StdRng::seed_from_u64(seed)`. Each walk evaluates its `n + 1` prefixes
//!   through one [`Game::value_batch`], exactly like
//!   [`crate::sampling::estimate_all_walk`], and its marginals are folded
//!   into per-player [`RunningStats`] in walk order. So every player sees
//!   the serial pushes in the serial order, at `n + 1` evaluations per walk.
//! * **Replacement-semantics drivers** ([`estimate_all`],
//!   [`estimate_all_adaptive`]): a [`StochasticGame`] draws from the RNG
//!   inside `eval_pair`, so its stream cannot be drawn ahead. A unit is a
//!   whole player, running the serial per-player loop with that player's
//!   [`crate::sampling::player_seed`].
//!
//! [`Schedule`], [`ParallelConfig::with_schedule`] and
//! `ExecConfig::with_schedule` are **ignored**: they remain so existing
//! callers compile, and no driver reads them.
//!
//! Games must be [`Sync`]: workers share one `&G`. The coalition games of
//! the T-REx core hold their oracle cache in a sharded mutex map
//! (`trex_repair::ShardedOracle`), so concurrent workers also share cache
//! hits.

use crate::convergence::RunningStats;
use crate::game::{Game, StochasticGame};
use crate::sampling::{
    player_seed, random_permutation_into, walk_marginals, Estimate, SamplingConfig, WalkScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

/// Upper bound on an explicit thread count. Far above any machine this
/// workload meaningfully scales to; requests beyond it are almost certainly
/// typos (`--threads 100000`) and are rejected instead of spawning workers
/// until the OS gives up.
pub const MAX_THREADS: usize = 1024;

/// Error for nonsensical thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsError {
    /// The rejected request.
    pub requested: usize,
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--threads {} exceeds the supported maximum of {MAX_THREADS} \
             (use 0 for available parallelism)",
            self.requested
        )
    }
}

impl std::error::Error for ThreadsError {}

/// Number of hardware threads, with a serial fallback when the platform
/// cannot say.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a user-requested thread count: `0` means "use available
/// parallelism", `1..=MAX_THREADS` is taken literally, anything larger is a
/// [`ThreadsError`].
pub fn resolve_threads(requested: usize) -> Result<usize, ThreadsError> {
    match requested {
        0 => Ok(available_threads()),
        n if n <= MAX_THREADS => Ok(n),
        n => Err(ThreadsError { requested: n }),
    }
}

/// The retired work schedules. **Ignored**: every driver in this module
/// runs the one claim queue described in the module docs, whatever
/// schedule a caller names. The type remains so existing callers compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Ignored (formerly: split every player's budget across workers).
    #[default]
    BudgetSplit,
    /// Ignored (formerly: workers claim whole players).
    PlayerSharded,
    /// Ignored (formerly: player claims plus adaptive round stealing).
    WorkStealing,
}

impl Schedule {
    /// Ignored: the schedule the retired `--schedule auto` picked for
    /// `players` over `threads` workers. No driver reads it.
    pub fn auto(players: usize, threads: usize) -> Schedule {
        if threads > 1 && players >= 4 * threads {
            Schedule::PlayerSharded
        } else {
            Schedule::BudgetSplit
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::BudgetSplit => write!(f, "budget"),
            Schedule::PlayerSharded => write!(f, "player"),
            Schedule::WorkStealing => write!(f, "steal"),
        }
    }
}

/// Configuration of the parallel drivers: a [`SamplingConfig`] plus a
/// worker count.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Monte-Carlo samples, exactly as in the serial drivers: permutation
    /// walks for the walk drivers, samples per player otherwise.
    pub samples: usize,
    /// Base RNG seed, exactly as in the serial drivers.
    pub seed: u64,
    /// Worker count (must be ≥ 1; see [`resolve_threads`]). Sets wall time
    /// only: the output is the same at every count.
    pub threads: usize,
}

impl ParallelConfig {
    /// Build from explicit values.
    pub fn new(samples: usize, seed: u64, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be >= 1 (resolve 0 first)");
        ParallelConfig {
            samples,
            seed,
            threads,
        }
    }

    /// Lift a serial [`SamplingConfig`] onto `threads` workers.
    pub fn from_sampling(config: SamplingConfig, threads: usize) -> Self {
        Self::new(config.samples, config.seed, threads)
    }

    /// Ignored: returns the configuration unchanged (see [`Schedule`]).
    pub fn with_schedule(self, _schedule: Schedule) -> Self {
        self
    }

    /// The serial view of this configuration (same samples and seed).
    pub fn sampling(&self) -> SamplingConfig {
        SamplingConfig {
            samples: self.samples,
            seed: self.seed,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::new(1000, 0, 1)
    }
}

/// The one parallel driver behind every estimator in this module.
///
/// `claim` draws the next unit of work, or `None` when none is left. It runs
/// under a lock, so units come out in one serial order whichever thread
/// claims them. Units are evaluated by `eval` outside the lock, each thread
/// with its own scratch from `new_scratch`: on `threads - 1` spawned
/// workers and on the calling thread, which also hands every result to
/// `fold` in claim order. `fold` returns `false` to stop: nothing more is
/// claimed and results still in flight are dropped.
///
/// Since units are drawn in one order and folded in that order, nothing
/// `fold` sees depends on `threads` or on timing. `threads <= 1` runs
/// inline without spawning.
fn claim_queue<U, R, W>(
    threads: usize,
    claim: impl FnMut() -> Option<U> + Send,
    new_scratch: impl Fn() -> W + Sync,
    eval: impl Fn(&mut W, U) -> R + Sync,
    mut fold: impl FnMut(R) -> bool,
) where
    R: Send,
{
    // (units claimed so far, whether the fold stopped, the claim function)
    let queue = Mutex::new((0usize, false, claim));
    let next_unit = || {
        let mut queue = queue.lock().expect("a claim panicked");
        if queue.1 {
            return None;
        }
        let unit = (queue.2)()?;
        queue.0 += 1;
        Some((queue.0 - 1, unit))
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 1..threads {
            let tx = tx.clone();
            let (next_unit, new_scratch, eval) = (&next_unit, &new_scratch, &eval);
            scope.spawn(move || {
                let mut scratch = new_scratch();
                while let Some((index, unit)) = next_unit() {
                    if tx.send((index, eval(&mut scratch, unit))).is_err() {
                        return; // the fold stopped
                    }
                }
            });
        }
        drop(tx);
        let mut scratch = new_scratch();
        let mut pending = BTreeMap::new();
        let mut next = 0;
        let mut drained = false;
        loop {
            pending.extend(rx.try_iter());
            while let Some(result) = pending.remove(&next) {
                next += 1;
                if !fold(result) {
                    queue.lock().expect("a claim panicked").1 = true;
                    return;
                }
            }
            // Evaluate a unit here too while any are left; after that,
            // wait for the workers' results.
            if !drained {
                match next_unit() {
                    Some((index, unit)) => {
                        pending.insert(index, eval(&mut scratch, unit));
                        continue;
                    }
                    None => drained = true,
                }
            }
            match rx.recv() {
                Ok((index, result)) => {
                    pending.insert(index, result);
                }
                Err(_) => return, // every worker is done and folded
            }
        }
    });
}

/// Run `work(p)` for every player `0..n` through the claim queue, one
/// player per unit, and return the results in player order.
fn per_player<T: Send>(n: usize, threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut players = 0..n;
    let mut out = Vec::with_capacity(n);
    claim_queue(
        threads,
        move || players.next(),
        || (),
        |_, p| work(p),
        |result| {
            out.push(result);
            true
        },
    );
    out
}

/// Parallel version of [`crate::sampling::estimate_all`]: workers claim
/// whole players and run the serial per-player loop with the player's
/// [`player_seed`]. Equal to the serial estimator at any thread count.
pub fn estimate_all<G: StochasticGame + ?Sized>(game: &G, config: ParallelConfig) -> Vec<Estimate> {
    per_player(game.num_players(), config.threads, |p| {
        crate::sampling::estimate_player(
            game,
            p,
            SamplingConfig {
                samples: config.samples,
                seed: player_seed(config.seed, p),
            },
        )
    })
}

/// All-player adaptive driver: every player runs the serial
/// [`crate::sampling::estimate_player_adaptive`] with its [`player_seed`],
/// and workers claim whole players. Returns one `(estimate, converged)` pair
/// per player, equal to the serial per-player loop at any thread count.
///
/// Adaptive budgets are uneven across players (dummies stop after two
/// batches, contested cells run to the cap); the claim queue balances them
/// across workers, but one player's budget always runs on one worker.
pub fn estimate_all_adaptive<G: StochasticGame + ?Sized>(
    game: &G,
    tolerance: f64,
    z: f64,
    batch: usize,
    max_samples: usize,
    seed: u64,
    threads: usize,
) -> Vec<(Estimate, bool)> {
    per_player(game.num_players(), threads, |p| {
        crate::sampling::estimate_player_adaptive(
            game,
            p,
            tolerance,
            z,
            batch,
            max_samples,
            player_seed(seed, p),
        )
    })
}

/// Permutation walks per claimed block of the walk drivers (fewer when an
/// anytime checkpoint comes sooner): enough that the claim lock is rarely
/// contended, few enough that a budget of a few hundred walks still spreads
/// over several workers.
const WALK_BLOCK: usize = 32;

/// Parallel version of [`crate::sampling::estimate_all_walk`] (the
/// Castro-style all-players estimator): equal to the serial estimator at
/// any thread count — efficiency axiom included — at the serial `n + 1`
/// evaluations per walk.
pub fn estimate_all_walk<G: Game + ?Sized>(game: &G, config: ParallelConfig) -> Vec<Estimate> {
    estimate_all_walk_anytime(game, config, 0, |_| AnytimeControl::Continue).0
}

/// One snapshot of a running [`estimate_all_walk_anytime`] estimate,
/// handed to the checkpoint callback.
///
/// `estimates` is index-aligned with the game's players and carries the
/// exact values a completed run with a budget of `completed` walks would
/// report — including finite (possibly 0.0) standard deviations at
/// degenerate counts, so a checkpoint can always be serialized.
pub struct AnytimeCheckpoint<'s> {
    /// Permutation walks folded so far.
    pub completed: usize,
    /// The full walk budget of the run (`config.samples`).
    pub total: usize,
    /// Current per-player estimates, in player order.
    pub estimates: &'s [Estimate],
}

/// What the checkpoint callback tells the anytime driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnytimeControl {
    /// Keep sampling toward the full budget.
    Continue,
    /// Stop after this checkpoint and return the current estimates —
    /// deadline exhausted, client gone, or the caller is satisfied.
    Stop,
}

/// Anytime version of [`estimate_all_walk`]: the same driver, but after
/// every `checkpoint_every` folded walks (and after the last) it hands the
/// caller an [`AnytimeCheckpoint`] snapshot of all current per-player
/// estimates. The callback returns [`AnytimeControl::Stop`] to cut the run
/// short (deadline, disconnect); the driver then returns that snapshot. The
/// second return value is `true` iff the full budget ran.
///
/// **Determinism contract.** Walks are folded in the serial stream's order,
/// so every checkpoint equals a completed run with that budget, and a run
/// that completes returns *bit-for-bit* what [`estimate_all_walk`] (and the
/// serial estimator) returns for the same seed, at any thread count.
///
/// `checkpoint_every = 0` means a single checkpoint at the end; a zero
/// budget still checkpoints once. The callback runs on the calling thread
/// (it needs no `Send`/`Sync`); walks already claimed when it says stop are
/// discarded.
pub fn estimate_all_walk_anytime<G: Game + ?Sized>(
    game: &G,
    config: ParallelConfig,
    checkpoint_every: usize,
    mut on_checkpoint: impl FnMut(&AnytimeCheckpoint<'_>) -> AnytimeControl,
) -> (Vec<Estimate>, bool) {
    let n = game.num_players();
    let total = config.samples;
    let every = if checkpoint_every == 0 {
        total.max(1)
    } else {
        checkpoint_every
    };
    let mut checkpoint = |stats: &[RunningStats], completed: usize| {
        let estimates: Vec<Estimate> = stats.iter().map(Estimate::from_stats).collect();
        let control = on_checkpoint(&AnytimeCheckpoint {
            completed,
            total,
            estimates: &estimates,
        });
        (estimates, control)
    };

    // A unit is (walks, their permutations laid end to end), drawn from the
    // one serial stream. Blocks end at every checkpoint, so a caller that
    // stops there wastes no evaluated walk.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut drawn = 0;
    let mut perm = Vec::with_capacity(n);
    let claim = move || {
        let walks = WALK_BLOCK.min(every - drawn % every).min(total - drawn);
        if walks == 0 {
            return None;
        }
        drawn += walks;
        let mut perms = Vec::with_capacity(walks * n);
        for _ in 0..walks {
            random_permutation_into(&mut perm, n, &mut rng);
            perms.extend_from_slice(&perm);
        }
        Some((walks, perms))
    };
    // ... evaluated into (walks, per-walk marginals in player order).
    let eval = |scratch: &mut WalkScratch, (walks, perms): (usize, Vec<usize>)| {
        let mut marginals = vec![0.0; walks * n];
        for w in 0..walks {
            let span = w * n..(w + 1) * n;
            walk_marginals(game, &perms[span.clone()], scratch, &mut marginals[span]);
        }
        (walks, marginals)
    };

    let mut stats = vec![RunningStats::new(); n];
    let mut completed = 0;
    let mut outcome = None;
    claim_queue(
        config.threads,
        claim,
        || WalkScratch::new(n),
        eval,
        |(walks, marginals): (usize, Vec<f64>)| {
            for w in 0..walks {
                for (st, &m) in stats.iter_mut().zip(&marginals[w * n..(w + 1) * n]) {
                    st.push(m);
                }
                completed += 1;
                if completed % every == 0 || completed == total {
                    let (estimates, control) = checkpoint(&stats, completed);
                    if completed == total || control == AnytimeControl::Stop {
                        outcome = Some((estimates, completed == total));
                        return false;
                    }
                }
            }
            true
        },
    );
    outcome.unwrap_or_else(|| {
        // Only a zero budget folds no walk.
        let (estimates, _) = checkpoint(&stats, 0);
        (estimates, true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::shapley_exact;
    use crate::game::{fixtures, Coalition, FnGame};
    use crate::sampling;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every thread count the contract is pinned at.
    const THREADS: [usize; 6] = [1, 2, 3, 4, 8, 16];

    #[test]
    fn estimate_all_is_serial_at_any_thread_count() {
        let g = fixtures::majority(9);
        let cfg = SamplingConfig {
            samples: 150,
            seed: 13,
        };
        let serial = sampling::estimate_all(&g, cfg);
        for threads in THREADS {
            let par = estimate_all(&g, ParallelConfig::from_sampling(cfg, threads));
            // Estimate is PartialEq over (value, std_dev, samples):
            // bit-for-bit equality, no tolerance.
            assert_eq!(serial, par, "threads {threads}");
        }
    }

    #[test]
    fn walk_is_serial_at_any_thread_count_and_block_seam() {
        // Budgets below one block, exactly one block, a ragged tail, and
        // several whole blocks.
        let g = fixtures::paper_example_2_3();
        for samples in [0usize, 5, 32, 33, 100] {
            let cfg = SamplingConfig { samples, seed: 17 };
            let serial = sampling::estimate_all_walk(&g, cfg);
            for threads in THREADS {
                let par = estimate_all_walk(&g, ParallelConfig::from_sampling(cfg, threads));
                assert_eq!(serial, par, "samples {samples}, threads {threads}");
            }
        }
    }

    /// A 6-player game that counts its `value_batch` calls and coalitions.
    #[derive(Default)]
    struct Counting {
        batches: AtomicUsize,
        coalitions: AtomicUsize,
    }

    impl Game for Counting {
        fn num_players(&self) -> usize {
            6
        }
        fn value(&self, s: &Coalition) -> f64 {
            s.len() as f64
        }
        fn value_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.coalitions
                .fetch_add(coalitions.len(), Ordering::Relaxed);
            coalitions.iter().map(|s| self.value(s)).collect()
        }
    }

    #[test]
    fn walk_evaluates_n_plus_one_coalitions_per_walk_in_one_batch_each() {
        // No replay: the parallel walk asks the game exactly what the
        // serial walk asks, one value_batch per walk.
        for threads in [1usize, 2, 4] {
            let g = Counting::default();
            estimate_all_walk(&g, ParallelConfig::new(70, 3, threads));
            assert_eq!(g.batches.into_inner(), 70, "threads {threads}");
            assert_eq!(g.coalitions.into_inner(), 70 * 7, "threads {threads}");
        }
    }

    #[test]
    fn anytime_blocks_end_at_checkpoints() {
        // One thread stopping at the first checkpoint has evaluated exactly
        // the walks that checkpoint covers, however small the stride.
        for every in [1usize, 2, 5, 40] {
            let g = Counting::default();
            let cfg = ParallelConfig::new(500, 3, 1);
            estimate_all_walk_anytime(&g, cfg, every, |_| AnytimeControl::Stop);
            assert_eq!(g.batches.into_inner(), every, "every {every}");
        }
    }

    #[test]
    fn multi_thread_estimates_converge_to_exact() {
        let g = fixtures::gloves(2, 3);
        let exact = shapley_exact(&g).unwrap();
        let ests = estimate_all(&g, ParallelConfig::new(20_000, 11, 4));
        for (p, want) in exact.iter().enumerate() {
            assert!(
                (ests[p].value - want).abs() < 0.02,
                "player {p}: {} vs {want}",
                ests[p].value
            );
        }
    }

    #[test]
    fn parallel_walk_is_exactly_efficient() {
        // The efficiency axiom survives the walk telescoping at every
        // thread count: the means sum to v(N) up to fp noise.
        let g = fixtures::paper_example_2_3();
        for threads in [1usize, 2, 4, 8] {
            let ests = estimate_all_walk(&g, ParallelConfig::new(1000, 3, threads));
            let total: f64 = ests.iter().map(|e| e.value).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "threads {threads}: total {total}"
            );
            let samples: usize = ests.iter().map(|e| e.samples).sum();
            assert_eq!(samples, 1000 * 4, "every walk touches every player");
        }
    }

    #[test]
    fn games_without_players_still_walk() {
        let g = FnGame::new(0, |_: &Coalition| 1.0);
        for threads in [1usize, 4] {
            assert!(estimate_all_walk(&g, ParallelConfig::new(40, 0, threads)).is_empty());
            assert!(estimate_all(&g, ParallelConfig::new(40, 0, threads)).is_empty());
        }
    }

    #[test]
    fn resolve_threads_contract() {
        assert!(resolve_threads(0).unwrap() >= 1);
        assert_eq!(resolve_threads(1), Ok(1));
        assert_eq!(resolve_threads(MAX_THREADS), Ok(MAX_THREADS));
        let err = resolve_threads(MAX_THREADS + 1).unwrap_err();
        assert_eq!(err.requested, MAX_THREADS + 1);
        assert!(err.to_string().contains("1024"));
    }

    #[test]
    fn config_conversions_roundtrip() {
        let s = SamplingConfig {
            samples: 250,
            seed: 9,
        };
        let p = ParallelConfig::from_sampling(s, 4);
        assert_eq!(p.threads, 4);
        let back = p.sampling();
        assert_eq!(back.samples, 250);
        assert_eq!(back.seed, 9);
        assert_eq!(ParallelConfig::default().threads, 1);
    }

    #[test]
    #[should_panic(expected = "threads must be >= 1")]
    fn zero_threads_panics() {
        let _ = ParallelConfig::new(10, 0, 0);
    }

    #[test]
    fn schedules_are_ignored() {
        let g = fixtures::gloves(3, 4);
        let plain = ParallelConfig::new(90, 4, 3);
        let reference = estimate_all_walk(&g, plain);
        for schedule in [
            Schedule::BudgetSplit,
            Schedule::PlayerSharded,
            Schedule::WorkStealing,
            Schedule::auto(7, 3),
        ] {
            let pinned = plain.with_schedule(schedule);
            assert_eq!(reference, estimate_all_walk(&g, pinned), "{schedule}");
            assert_eq!(
                estimate_all(&g, plain),
                estimate_all(&g, pinned),
                "{schedule}"
            );
        }
        assert_eq!(Schedule::WorkStealing.to_string(), "steal");
    }

    #[test]
    fn adaptive_is_the_serial_per_player_loop_at_any_thread_count() {
        // Uniform budgets (majority) and the skewed one-hot fixture, where
        // player 0 runs to the cap while the dummies stop at two batches.
        let majority = fixtures::majority(7);
        let one_hot = fixtures::one_hot(9, 0);
        let cases: [(&dyn StochasticGame, f64, usize, usize); 2] =
            [(&majority, 0.05, 40, 2000), (&one_hot, 0.03, 25, 2000)];
        for (g, tol, batch, cap) in cases {
            let serial: Vec<(Estimate, bool)> = (0..g.num_players())
                .map(|p| {
                    sampling::estimate_player_adaptive(
                        g,
                        p,
                        tol,
                        1.96,
                        batch,
                        cap,
                        player_seed(9, p),
                    )
                })
                .collect();
            for threads in THREADS {
                let par = estimate_all_adaptive(g, tol, 1.96, batch, cap, 9, threads);
                assert_eq!(serial, par, "threads {threads}");
            }
        }
    }

    #[test]
    fn per_player_covers_every_player_once_in_order() {
        for (n, threads) in [(0usize, 4usize), (1, 4), (5, 2), (9, 16), (100, 7)] {
            let got = per_player(n, threads, |p| p * p);
            let want: Vec<usize> = (0..n).map(|p| p * p).collect();
            assert_eq!(got, want, "n {n}, threads {threads}");
        }
    }

    #[test]
    fn every_anytime_checkpoint_is_a_completed_run_with_that_budget() {
        let g = fixtures::gloves(3, 4);
        for threads in [1usize, 2, 4] {
            let cfg = ParallelConfig::new(70, 99, threads);
            let mut seen = Vec::new();
            let (last, finished) = estimate_all_walk_anytime(&g, cfg, 17, |cp| {
                assert_eq!(cp.total, 70);
                seen.push((cp.completed, cp.estimates.to_vec()));
                AnytimeControl::Continue
            });
            assert!(finished);
            let budgets: Vec<usize> = seen.iter().map(|(c, _)| *c).collect();
            assert_eq!(budgets, [17, 34, 51, 68, 70], "threads {threads}");
            for (budget, estimates) in &seen {
                let serial = sampling::estimate_all_walk(
                    &g,
                    SamplingConfig {
                        samples: *budget,
                        seed: 99,
                    },
                );
                assert_eq!(*estimates, serial, "threads {threads}, budget {budget}");
            }
            assert_eq!(last, estimate_all_walk(&g, cfg), "threads {threads}");
        }
    }

    #[test]
    fn anytime_stop_returns_the_partial_estimate() {
        let g = fixtures::gloves(3, 4);
        for threads in [1usize, 2] {
            let mut seen = 0;
            let (partial, finished) =
                estimate_all_walk_anytime(&g, ParallelConfig::new(500, 5, threads), 20, |cp| {
                    seen = cp.completed;
                    AnytimeControl::Stop
                });
            assert!(!finished, "stopping early must report an unfinished run");
            assert_eq!(seen, 20, "stopped at the first checkpoint");
            let small = estimate_all_walk(&g, ParallelConfig::new(20, 5, threads));
            assert_eq!(partial, small);
        }
    }

    #[test]
    fn anytime_zero_budget_checkpoints_once_and_finishes() {
        let g = fixtures::gloves(2, 2);
        let mut checkpoints = 0;
        let (out, finished) =
            estimate_all_walk_anytime(&g, ParallelConfig::new(0, 1, 2), 10, |cp| {
                checkpoints += 1;
                assert_eq!(cp.completed, 0);
                for e in cp.estimates {
                    assert_eq!(e.samples, 0);
                    assert!(e.value.is_finite() && e.std_dev.is_finite());
                }
                AnytimeControl::Continue
            });
        assert!(finished);
        assert_eq!(checkpoints, 1);
        assert!(out.iter().all(|e| e.samples == 0));
    }
}
