//! Serial-vs-parallel equivalence of the Shapley sampling engine, on the
//! paper's own games (cross-crate: `trex-shapley` workers driving the
//! `trex-core` coalition games over the `trex-repair` sharded oracle).
//!
//! The determinism contract under test: every parallel driver —
//! `parallel::estimate_all_walk` (and its anytime variant),
//! `parallel::estimate_all`, `parallel::estimate_all_adaptive` — returns
//! its serial `sampling::` counterpart **bit for bit at every thread
//! count**, so `threads` only sets wall time. It holds end to end: a cell
//! explanation is the same on a 2-core and a 16-core machine, and pinning
//! one of the retired (ignored) schedules changes nothing. The walk
//! estimator also stays exactly efficient (per-permutation marginals
//! telescope to `v(N)`), and the giant-bucket block split keeps
//! `find_violations_par` serial-identical on a table whose rows all share
//! one equality-bucket key.
//!
//! CI's thread-matrix job re-runs this file with `TREX_TEST_THREADS` set to
//! 1/2/4/8 on a machine with real cores; the variable adds that count to
//! every thread sweep below.

use trex::{
    AdaptiveConfig, CellGameMasked, CellGameSampled, ExecConfig, ExplainRequest, Explainer,
    MaskMode, Players,
};
use trex_datagen::laliga;
use trex_shapley::{
    parallel, sampling, AnytimeControl, Estimate, Game, ParallelConfig, SamplingConfig, Schedule,
    StochasticGame,
};
use trex_table::Value;

/// Every thread count the contract is pinned at (plus `TREX_TEST_THREADS`).
const SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// The retired schedules, each of which must now be ignored.
const SCHEDULES: [Schedule; 3] = [
    Schedule::BudgetSplit,
    Schedule::PlayerSharded,
    Schedule::WorkStealing,
];

/// The thread counts a sweep exercises: `base`, plus the CI thread-matrix
/// count from `TREX_TEST_THREADS` when set.
fn thread_counts(base: &[usize]) -> Vec<usize> {
    let mut counts = base.to_vec();
    if let Ok(raw) = std::env::var("TREX_TEST_THREADS") {
        let extra: usize = raw
            .parse()
            .expect("TREX_TEST_THREADS must be a thread count");
        assert!(extra >= 1, "TREX_TEST_THREADS must be >= 1");
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

fn masked_game<'a>(
    alg: &'a trex_repair::RuleRepair,
    dcs: &'a [trex_constraints::DenialConstraint],
    dirty: &'a trex_table::Table,
) -> CellGameMasked<'a> {
    let cell = laliga::cell_of_interest(dirty);
    CellGameMasked::new(alg, dcs, dirty, cell, Value::str("Spain"), MaskMode::Null)
}

#[test]
fn one_thread_walk_matches_serial_on_the_laliga_cell_game() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let game = masked_game(&alg, &dcs, &dirty);
    let cfg = SamplingConfig {
        samples: 200,
        seed: 3,
    };
    let serial = sampling::estimate_all_walk(&game, cfg);
    let par = parallel::estimate_all_walk(&game, ParallelConfig::from_sampling(cfg, 1));
    assert_eq!(serial, par, "threads = 1 must replay the serial stream");
}

#[test]
fn one_thread_replacement_sampling_matches_serial() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    let game = CellGameSampled::new(&alg, &dcs, &dirty, cell, Value::str("Spain"));
    let cfg = SamplingConfig {
        samples: 40,
        seed: 7,
    };
    let serial = sampling::estimate_all(&game, cfg);
    let par = parallel::estimate_all(&game, ParallelConfig::from_sampling(cfg, 1));
    assert_eq!(serial, par);
}

#[test]
fn fixed_seed_threads_pair_is_reproducible_on_the_cell_game() {
    // Stronger than per-(seed, threads) reproducibility: every thread
    // count reproduces the serial stream.
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cfg = SamplingConfig {
        samples: 120,
        seed: 9,
    };
    let serial = sampling::estimate_all_walk(&masked_game(&alg, &dcs, &dirty), cfg);
    for threads in thread_counts(&SWEEP) {
        // Fresh games per run: the shared oracle cache must not be able to
        // mask a nondeterministic estimate.
        let par = parallel::estimate_all_walk(
            &masked_game(&alg, &dcs, &dirty),
            ParallelConfig::from_sampling(cfg, threads),
        );
        assert_eq!(serial, par, "threads = {threads}");
    }
}

#[test]
fn parallel_walk_keeps_the_efficiency_axiom_and_the_headline() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let game = masked_game(&alg, &dcs, &dirty);
    let n = Game::num_players(&game);
    for threads in [1usize, 3, 8, 16] {
        let ests = parallel::estimate_all_walk(&game, ParallelConfig::new(300, 3, threads));
        // Efficiency: the grand coalition repairs the cell (v(N) = 1), and
        // walk marginals telescope to it exactly at any chunking.
        let total: f64 = ests.iter().map(|e| e.value).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "threads {threads}: total {total}"
        );
        // Example 2.4's headline survives any thread count.
        let top = (0..n)
            .max_by(|a, b| ests[*a].value.total_cmp(&ests[*b].value))
            .unwrap();
        assert_eq!(Game::player_label(&game, top), "t5[League]");
    }
}

/// The la Liga replacement-semantics cell game (the stochastic game the
/// per-player estimators run on) with a fresh oracle cache.
fn sampled_game<'a>(
    alg: &'a trex_repair::RuleRepair,
    dcs: &'a [trex_constraints::DenialConstraint],
    dirty: &'a trex_table::Table,
) -> CellGameSampled<'a> {
    let cell = laliga::cell_of_interest(dirty);
    CellGameSampled::new(alg, dcs, dirty, cell, Value::str("Spain"))
}

/// The serial reference of `parallel::estimate_all_adaptive`: the
/// continuous-stream adaptive loop per player, seeds laddered by
/// `player_seed`.
fn serial_adaptive<G: StochasticGame>(
    game: &G,
    tolerance: f64,
    batch: usize,
    max_samples: usize,
    seed: u64,
) -> Vec<(Estimate, bool)> {
    (0..game.num_players())
        .map(|p| {
            sampling::estimate_player_adaptive(
                game,
                p,
                tolerance,
                1.96,
                batch,
                max_samples,
                trex_shapley::player_seed(seed, p),
            )
        })
        .collect()
}

#[test]
fn one_thread_adaptive_matches_serial_on_the_laliga_cell_game() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let game = sampled_game(&alg, &dcs, &dirty);
    // A converging run (loose tolerance) and a budget-capped run (absurd
    // tolerance) must both replay the serial stream exactly.
    for (tol, max) in [(0.2, 200), (1e-9, 60)] {
        let serial = serial_adaptive(&game, tol, 20, max, 7);
        let par = parallel::estimate_all_adaptive(&game, tol, 1.96, 20, max, 7, 1);
        assert_eq!(serial, par, "tol {tol}");
    }
}

#[test]
fn player_sharded_walk_is_serial_identical_on_the_laliga_cell_game() {
    // Bit-for-bit the serial `sampling::estimate_all_walk` at every thread
    // count, with or without one of the retired (now ignored) schedules
    // pinned, on the paper's own cell game over the shared repair oracle.
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cfg = SamplingConfig {
        samples: 150,
        seed: 3,
    };
    let serial = sampling::estimate_all_walk(&masked_game(&alg, &dcs, &dirty), cfg);
    for threads in thread_counts(&SWEEP) {
        for schedule in SCHEDULES {
            let par = parallel::estimate_all_walk(
                &masked_game(&alg, &dcs, &dirty),
                ParallelConfig::from_sampling(cfg, threads).with_schedule(schedule),
            );
            assert_eq!(serial, par, "threads = {threads}, {schedule}");
        }
    }
}

#[test]
fn player_sharded_estimate_all_is_serial_identical_on_the_laliga_cell_game() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cfg = SamplingConfig {
        samples: 30,
        seed: 7,
    };
    let serial = sampling::estimate_all(&sampled_game(&alg, &dcs, &dirty), cfg);
    for threads in thread_counts(&SWEEP) {
        for schedule in SCHEDULES {
            let par = parallel::estimate_all(
                &sampled_game(&alg, &dcs, &dirty),
                ParallelConfig::from_sampling(cfg, threads).with_schedule(schedule),
            );
            assert_eq!(serial, par, "threads = {threads}, {schedule}");
        }
    }
}

#[test]
fn player_sharded_adaptive_driver_is_serial_identical() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let serial = serial_adaptive(&sampled_game(&alg, &dcs, &dirty), 0.15, 15, 120, 9);
    for threads in thread_counts(&SWEEP) {
        let par = parallel::estimate_all_adaptive(
            &sampled_game(&alg, &dcs, &dirty),
            0.15,
            1.96,
            15,
            120,
            9,
            threads,
        );
        assert_eq!(serial, par, "threads = {threads}");
    }
}

#[test]
fn adaptive_driver_is_serial_identical_on_the_skewed_fixture() {
    // The one-hot fixture: player 0's ±1 coin-flip marginal needs > 10×
    // every other player's budget, so the hot player's worker is still
    // running long after every other player has been claimed and folded.
    let game = trex_shapley::game::fixtures::one_hot(9, 0);
    let (tol, batch, cap, seed) = (0.03f64, 25usize, 2000usize, 7u64);
    let serial = serial_adaptive(&game, tol, batch, cap, seed);
    // The skew is real: the hot player runs to the cap (2000 samples), the
    // dummies stop at two batches (50) — a 40× budget ratio.
    assert!(!serial[0].1, "the hot player must exhaust its budget");
    assert_eq!(serial[0].0.samples, cap);
    for dummy in &serial[1..] {
        assert!(dummy.1);
        assert_eq!(dummy.0.samples, 2 * batch);
    }
    for threads in thread_counts(&SWEEP) {
        let par = parallel::estimate_all_adaptive(&game, tol, 1.96, batch, cap, seed, threads);
        assert_eq!(serial, par, "threads = {threads}");
    }
}

#[test]
fn work_stealing_is_serial_identical_on_the_laliga_cell_game() {
    // Pinning the steal schedule (`--schedule steal --adaptive`) is
    // ignored: the answer is the continuous-stream serial loop's.
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    let req = ExplainRequest {
        cell,
        players: Players::AdaptiveCells(AdaptiveConfig {
            tolerance: 0.15,
            batch: 15,
            max_samples: 120,
            ..AdaptiveConfig::default()
        }),
    };
    let serial: Vec<f64> = serial_adaptive(&sampled_game(&alg, &dcs, &dirty), 0.15, 15, 120, 9)
        .iter()
        .map(|(e, _)| e.value)
        .collect();
    for threads in thread_counts(&SWEEP) {
        let exec = ExecConfig::new()
            .with_threads(threads)
            .with_seed(9)
            .with_schedule(Schedule::WorkStealing);
        let got = Explainer::new(&alg)
            .with_config(exec)
            .explain(&dcs, &dirty, &req)
            .unwrap();
        assert_eq!(serial, got.values, "threads = {threads}");
    }
}

#[test]
fn explanations_are_identical_at_every_core_count() {
    // With no schedule pinned — the CLI and server default on a machine
    // with that many cores — the masked, anytime, replacement, and adaptive
    // cell explanations at every thread count equal the one-thread answer.
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    let ask = |players| ExplainRequest { cell, players };
    let masked = ask(Players::MaskedCells {
        mode: MaskMode::Null,
        walks: 200,
    });
    let sampled = ask(Players::ReplacedCells { samples: 20 });
    let adaptive = ask(Players::AdaptiveCells(AdaptiveConfig {
        tolerance: 0.15,
        batch: 15,
        max_samples: 60,
        ..AdaptiveConfig::default()
    }));
    let explain = |threads: usize| {
        let ex = Explainer::new(&alg).with_config(ExecConfig::new().with_threads(threads));
        let masked_values = ex.explain(&dcs, &dirty, &masked).unwrap().values;
        let anytime = ex
            .explain_anytime(&dcs, &dirty, &masked, 64, |_| AnytimeControl::Continue)
            .unwrap();
        assert!(anytime.finished);
        let sampled_values = ex.explain(&dcs, &dirty, &sampled).unwrap().values;
        let adaptive_out = ex.explain(&dcs, &dirty, &adaptive).unwrap();
        (
            masked_values,
            anytime.values,
            sampled_values,
            adaptive_out.values,
            adaptive_out.converged,
        )
    };
    let one = explain(1);
    assert_eq!(one.0, one.1, "the anytime final equals the batch answer");
    for threads in thread_counts(&SWEEP) {
        let got = explain(threads);
        assert_eq!(one.0, got.0, "masked walk, threads = {threads}");
        assert_eq!(one.1, got.1, "anytime final, threads = {threads}");
        assert_eq!(one.2, got.2, "replacement sampling, threads = {threads}");
        assert_eq!(one.3, got.3, "adaptive, threads = {threads}");
        assert_eq!(one.4, got.4, "adaptive convergence, threads = {threads}");
    }
}

#[test]
fn giant_equality_bucket_detection_is_serial_identical() {
    // Regression for the block-split path: a pathological table whose rows
    // all share one equality-bucket key (every row the same Team) used to
    // land its entire pair scan on a single worker; the split must keep
    // the output — witnesses and order — exactly the serial scan's at
    // every thread count.
    let mut builder = trex_table::TableBuilder::new().str_columns(["Team", "City", "Country"]);
    for i in 0..53 {
        let city = format!("C{}", i % 5);
        builder = builder.str_row(["OneTeam", city.as_str(), "Y"]);
    }
    let table = builder.build();
    let dcs: Vec<trex_constraints::DenialConstraint> =
        trex_constraints::parse_dcs("C1: !(t1.Team = t2.Team & t1.City != t2.City)")
            .unwrap()
            .into_iter()
            .map(|dc| dc.resolved(table.schema()).unwrap())
            .collect();
    let serial = trex_constraints::find_all_violations_par(&dcs, &table, 1);
    assert!(!serial.is_empty(), "the bucket must conflict");
    for threads in thread_counts(&[1, 2, 4, 8, 16]) {
        let par = trex_constraints::find_all_violations_par(&dcs, &table, threads);
        assert_eq!(serial, par, "threads = {threads}");
    }
}

#[test]
fn sampled_game_estimates_stay_in_range_across_threads() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    let game = CellGameSampled::new(&alg, &dcs, &dirty, cell, Value::str("Spain"));
    let n = StochasticGame::num_players(&game);
    let ests = parallel::estimate_all(&game, ParallelConfig::new(30, 1, 4));
    assert_eq!(ests.len(), n);
    for (i, e) in ests.iter().enumerate() {
        assert_eq!(e.samples, 30, "player {i} lost samples");
        assert!(
            (-1.0..=1.0).contains(&e.value),
            "player {i}: marginal mean {} out of range",
            e.value
        );
    }
}
