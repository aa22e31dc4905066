//! Quickstart: the full T-REx pipeline in one page.
//!
//! Walks the demo's three screens (paper Figure 3) on a small city/country
//! table: load data + denial constraints → repair with a black-box
//! algorithm → pick a repaired cell → rank constraints and cells by their
//! Shapley value for that repair.
//!
//! Run with: `cargo run --example quickstart`

use trex::{
    render_explanation_screen, render_input_screen, render_repair_screen, ExecConfig,
    ExplainRequest, Explainer, Players,
};
use trex_constraints::parse_dcs;
use trex_repair::{FixAction, RepairAlgorithm, Rule, RuleRepair};
use trex_table::{CellRef, TableBuilder};

fn main() {
    // 1. A dirty table: the last row's Country disagrees with every other
    //    Madrid row.
    let dirty = TableBuilder::new()
        .str_columns(["Team", "City", "Country"])
        .str_row(["Real Madrid", "Madrid", "Spain"])
        .str_row(["Atletico Madrid", "Madrid", "Spain"])
        .str_row(["Rayo Vallecano", "Madrid", "Spain"])
        .str_row(["Getafe", "Madrid", "España"])
        .build();

    // 2. Denial constraints, in the paper's syntax.
    let dcs = parse_dcs(
        "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n\
         C2: !(t1.City = t2.City & t1.Country != t2.Country)\n",
    )
    .expect("constraints parse");

    // 3. A black-box repair algorithm (the paper's Algorithm 1 scheme).
    let alg = RuleRepair::new(vec![
        Rule::new(
            "C1",
            FixAction::MostCommon {
                attr: "City".into(),
            },
        ),
        Rule::new(
            "C2",
            FixAction::MostCommonGiven {
                attr: "Country".into(),
                given: "City".into(),
            },
        ),
    ]);

    // Screen 1: input.
    println!("{}", render_input_screen(&dirty, &dcs));

    // Screen 2: repair.
    let result = alg.repair(&dcs, &dirty);
    println!("{}", render_repair_screen(&dirty, &result.changes));

    // Screen 3: explanation of the repaired cell t4[Country].
    let cell = CellRef::new(3, dirty.schema().id("Country"));
    let explainer = Explainer::new(&alg).with_config(ExecConfig::new().with_seed(42));
    let explain = |players| {
        explainer
            .explain(&dcs, &dirty, &ExplainRequest { cell, players })
            .expect("t4[Country] is repaired")
    };
    let constraints = explain(Players::Constraints);
    let cells = explain(Players::ReplacedCells { samples: 2000 });
    println!(
        "{}",
        render_explanation_screen("t4[Country]", Some(&constraints), Some(&cells))
    );

    println!(
        "Interpretation: only C2 can repair a Country cell here, so it gets\n\
         the entire Shapley mass; the influential cells are the Madrid rows'\n\
         City/Country values that C2 joins on and votes with."
    );
}
