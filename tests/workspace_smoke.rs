//! Workspace manifest smoke test: if a crate is dropped from the facade's
//! dependency list or a `pub use` re-export is renamed, this fails with a
//! readable message instead of an opaque downstream compile error. It also
//! runs one minimal end-to-end round trip (CSV text → parse_dcs → repair →
//! explain) through the facade paths only.

use trex_repro::constraints::parse_dcs;
use trex_repro::repair::{FixAction, RepairAlgorithm, Rule, RuleRepair};
use trex_repro::table::{read_csv_strings, write_csv, CellRef, Value};
use trex_repro::trex::{ExplainRequest, Explainer, Players};

/// Every facade module resolves and exposes its headline items. Each
/// statement names the re-export it guards, so a dropped dependency or a
/// renamed `pub use` fails here with that name in the error.
#[test]
fn facade_reexports_resolve() {
    let _table = trex_repro::table::read_csv("A\n1\n", &[trex_repro::table::DType::Int])
        .expect("trex_repro::table::read_csv");
    let _dcs = trex_repro::constraints::parse_dcs("").expect("trex_repro::constraints::parse_dcs");
    let _alg =
        trex_repro::repair::RuleRepair::parse_rules("").expect("trex_repro::repair::parse_rules");

    use trex_repro::shapley::{shapley_exact, Coalition, FnGame};
    let game = FnGame::new(2, |c: &Coalition| c.len() as f64);
    let phi = shapley_exact(&game).expect("trex_repro::shapley::shapley_exact");
    assert_eq!(phi.len(), 2);

    let dirty = trex_repro::datagen::laliga::dirty_table();
    let cell = trex_repro::datagen::laliga::cell_of_interest(&dirty);
    let players = trex_repro::trex::cell_players(&dirty, cell);
    assert_eq!(players.len(), 35, "36 cells minus the cell of interest");
}

#[test]
fn csv_to_explanation_round_trip_through_the_facade() {
    let csv = "\
Team,City
Real Madrid,Madrid
Real Madrid,Capital
Real Madrid,Madrid
";
    let table = read_csv_strings(csv).expect("facade CSV reader parses the smoke table");
    assert_eq!(table.num_rows(), 3, "smoke table should have 3 data rows");

    let dcs = parse_dcs("C1: !(t1.Team = t2.Team & t1.City != t2.City)")
        .expect("facade constraint parser accepts the paper's C1");
    assert_eq!(dcs.len(), 1);

    let alg = RuleRepair::new(vec![Rule::new(
        "C1",
        FixAction::MostCommon {
            attr: "City".to_string(),
        },
    )]);
    let repaired = alg.repair(&dcs, &table);
    let city = table.schema().id("City");
    assert_eq!(
        repaired.clean.value(1, city),
        &Value::str("Madrid"),
        "the majority-City rule should repair the outlier cell"
    );

    let cell = CellRef::new(1, city);
    let out = Explainer::new(&alg)
        .explain(
            &dcs,
            &table,
            &ExplainRequest {
                cell,
                players: Players::Constraints,
            },
        )
        .expect("facade explainer runs on the smoke scenario");
    assert_eq!(
        out.ranking.top().map(|e| e.label.as_str()),
        Some("C1"),
        "the only constraint must top its own explanation ranking"
    );

    // And back out to CSV text through the facade writer.
    let round = write_csv(&repaired.clean);
    assert!(
        round.contains("Real Madrid,Madrid"),
        "repaired table should serialize through the facade: {round}"
    );
}

#[test]
fn facade_exposes_the_paper_fixtures() {
    let dirty = trex_repro::datagen::laliga::dirty_table();
    let dcs = trex_repro::datagen::laliga::constraints();
    assert_eq!(dirty.num_rows(), 6, "Figure 2a has six rows");
    assert_eq!(dcs.len(), 4, "Figure 1 has four constraints");
}
