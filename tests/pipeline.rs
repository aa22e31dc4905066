//! Cross-crate pipeline tests: CSV in → constraints parsed from text →
//! repair → explanation → rendered report, plus workload-scale smoke tests
//! and degenerate-input behaviour.

use trex::{ExecConfig, ExplainRequest, Explainer, Players, Session};
use trex_constraints::{parse_dcs, DenialConstraint};
use trex_datagen::{errors, laliga, soccer};
use trex_repair::{
    score_repair, FdChaseRepair, HolisticRepair, HoloCleanStyle, NoOpRepair, RepairAlgorithm,
};
use trex_table::{read_csv, write_csv, CellRef, DType, Value};

/// A user-shaped flow: table arrives as CSV text, constraints as text.
#[test]
fn csv_to_explanation_end_to_end() {
    let csv = "\
Team,City,Country
Real Madrid,Madrid,Spain
Atletico,Madrid,Spain
Getafe,Madrid,España
Barcelona,Barcelona,Spain
";
    let dirty = read_csv(csv, &[DType::Str, DType::Str, DType::Str]).unwrap();
    let dcs = parse_dcs("C2: !(t1.City = t2.City & t1.Country != t2.Country)").unwrap();
    let alg = HolisticRepair::new();
    let result = alg.repair(&dcs, &dirty);
    assert_eq!(result.changes.len(), 1);
    let cell = result.changes[0].cell;
    assert_eq!(cell, CellRef::new(2, dirty.schema().id("Country")));

    let out = Explainer::new(&alg)
        .explain(
            &dcs,
            &dirty,
            &ExplainRequest {
                cell,
                players: Players::Constraints,
            },
        )
        .unwrap();
    assert_eq!(out.ranking.get("C2").unwrap().value, 1.0);

    // Round-trip the repaired table back out through CSV.
    let text = write_csv(&result.clean);
    let back = read_csv(&text, &[DType::Str, DType::Str, DType::Str]).unwrap();
    assert_eq!(back, result.clean);
}

/// The paper pipeline at workload scale: 36-row generated standings with
/// injected errors; Algorithm 1 plus the paper's constraint set repairs
/// the Country errors and the explanation pipeline runs on one.
#[test]
fn generated_workload_end_to_end() {
    let clean = soccer::generate_clean(&soccer::SoccerConfig {
        countries: 3,
        cities_per_country: 3,
        teams_per_city: 2,
        years: 1,
        seed: 31,
    });
    let injected = errors::inject_errors(
        &clean,
        &errors::ErrorConfig {
            rate: 0.02,
            kind_weights: [0, 0, 1, 0, 0],
            columns: vec!["Country".to_string()],
            seed: 77,
            ..Default::default()
        },
    );
    let dcs = soccer::soccer_constraints();
    let alg = soccer::soccer_algorithm1();
    let result = alg.repair(&dcs, &injected.dirty);
    let quality = score_repair(&result.changes, &injected.truth);
    assert_eq!(quality.recall(), 1.0, "all injected errors repaired");
    assert_eq!(quality.precision(), 1.0, "no spurious repairs");

    let cell = injected.truth[0].cell;
    let cons = Explainer::new(&alg)
        .explain(
            &dcs,
            &injected.dirty,
            &ExplainRequest {
                cell,
                players: Players::Constraints,
            },
        )
        .unwrap();
    // Country repairs flow through C2/C3; C4 is always a dummy here.
    assert_eq!(cons.ranking.get("C4").unwrap().value, 0.0);
    assert!(cons.ranking.total() > 0.99);
}

/// Every repair engine at least detects the error cell on the generated
/// workload (value correctness varies by engine — that is experiment A4's
/// subject, not a test invariant).
#[test]
fn all_engines_detect_injected_errors() {
    let clean = soccer::generate_clean(&soccer::SoccerConfig {
        countries: 2,
        cities_per_country: 2,
        teams_per_city: 2,
        years: 1,
        seed: 3,
    });
    let injected = errors::inject_errors(
        &clean,
        &errors::ErrorConfig {
            rate: 0.03,
            kind_weights: [0, 0, 1, 0, 0],
            columns: vec!["Country".to_string()],
            seed: 41,
            ..Default::default()
        },
    );
    let dcs = soccer::soccer_constraints();
    let engines: Vec<Box<dyn RepairAlgorithm>> = vec![
        Box::new(soccer::soccer_algorithm1()),
        Box::new(HoloCleanStyle::new()),
        Box::new(FdChaseRepair::new()),
        Box::new(HolisticRepair::new()),
    ];
    for alg in engines {
        let result = alg.repair(&dcs, &injected.dirty);
        let q = score_repair(&result.changes, &injected.truth);
        assert!(
            q.detection_recall() > 0.99,
            "{} missed injected errors (detection recall {})",
            alg.name(),
            q.detection_recall()
        );
    }
}

/// Degenerate inputs must not panic anywhere in the pipeline.
#[test]
fn degenerate_inputs_are_handled() {
    let dirty = laliga::dirty_table();
    let dcs: Vec<DenialConstraint> = Vec::new();

    // No constraints: repair is a no-op; explanation refuses (cell not
    // repaired).
    let alg = laliga::algorithm1();
    let result = alg.repair(&dcs, &dirty);
    assert!(result.changes.is_empty());
    let err = Explainer::new(&alg)
        .explain(
            &dcs,
            &dirty,
            &ExplainRequest {
                cell: laliga::cell_of_interest(&dirty),
                players: Players::Constraints,
            },
        )
        .unwrap_err();
    assert!(matches!(err, trex::ExplainError::CellNotRepaired { .. }));

    // No-op engine: same.
    let err = Explainer::new(&NoOpRepair)
        .explain(
            &laliga::constraints(),
            &dirty,
            &ExplainRequest {
                cell: laliga::cell_of_interest(&dirty),
                players: Players::Constraints,
            },
        )
        .unwrap_err();
    assert!(matches!(err, trex::ExplainError::CellNotRepaired { .. }));

    // Empty table.
    let empty = trex_table::Table::empty(dirty.schema().clone());
    let result = alg.repair(&laliga::constraints(), &empty);
    assert!(result.changes.is_empty());
}

/// The session loop is stable across repeated repair invocations (repairing
/// the dirty table twice gives the same answer; the session never mutates
/// its input table on repair).
#[test]
fn session_repairs_are_stable() {
    let mut s = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let a = s.repair();
    let b = s.repair();
    assert_eq!(a.clean, b.clean);
    assert_eq!(s.table(), &laliga::dirty_table());
}

/// Sampled explanations are reproducible across identical configs and
/// differ across seeds (sanity of the seeding scheme).
#[test]
fn sampling_seeds_behave() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let req = ExplainRequest {
        cell: laliga::cell_of_interest(&dirty),
        players: Players::ReplacedCells { samples: 60 },
    };
    let run = |seed: u64| {
        Explainer::new(&alg)
            .with_config(ExecConfig::new().with_seed(seed))
            .explain(&dcs, &dirty, &req)
            .unwrap()
            .values
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2));
}

/// Labeled-null masking never leaks into repair output: a masked coalition
/// table's repair only ever writes concrete values (or leaves cells be).
#[test]
fn masked_tables_never_grow_labeled_nulls_in_repairs() {
    use trex::{CellGameMasked, MaskMode};
    use trex_shapley::{Coalition, Game};
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    let game = CellGameMasked::new(
        &alg,
        &dcs,
        &dirty,
        cell,
        Value::str("Spain"),
        MaskMode::Distinct,
    );
    // A handful of deterministic coalitions.
    for k in 0..8u64 {
        let coalition = Coalition::from_players(
            Game::num_players(&game),
            (0..Game::num_players(&game)).filter(|i| (*i as u64 + k).is_multiple_of(3)),
        );
        let table = game.coalition_table(&coalition);
        let result = alg.repair(&dcs, &table);
        for ch in &result.changes {
            assert!(
                ch.to.is_concrete(),
                "repair wrote a non-concrete value: {ch}"
            );
        }
    }
}
