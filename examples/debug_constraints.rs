//! The demo scenario of §4 (experiment E8): use explanations to *debug* a
//! constraint set.
//!
//! A curator cleans a soccer standings table with one bad constraint in the
//! mix: `B` declares that two teams of the same league must share a city —
//! plainly wrong, and it drags city values toward the league's most common
//! city. T-REx's constraint explanation ranks `B` as the top influencer of
//! the bogus repair; removing it (the demo's "act on the explanation" step)
//! fixes the repair. Repair quality against injected ground truth is
//! reported before and after.
//!
//! Run with: `cargo run --release --example debug_constraints`

use trex::{ExplainRequest, Players, Session};
use trex_constraints::parse_dcs;
use trex_datagen::{errors, soccer};
use trex_repair::{score_repair, FixAction, Rule, RuleRepair};
use trex_table::CellRef;

fn main() {
    // A clean 24-row standings table, then inject Country errors with known
    // ground truth (the demo's "errors will be manually added").
    let clean = soccer::generate_clean(&soccer::SoccerConfig {
        countries: 3,
        cities_per_country: 2,
        teams_per_city: 2,
        years: 2,
        seed: 5,
    });
    let injected = errors::inject_errors(
        &clean,
        &errors::ErrorConfig {
            rate: 0.04,
            kind_weights: [0, 0, 1, 0, 0], // out-of-domain garbage, like "España"
            columns: vec!["Country".to_string()],
            seed: 9,
            ..Default::default()
        },
    );
    println!(
        "workload: {} rows, {} injected Country errors\n",
        clean.num_rows(),
        injected.truth.len()
    );

    // Constraint set: two good rules plus one *bad* one.
    let dcs = parse_dcs(
        "C2: !(t1.City = t2.City & t1.Country != t2.Country)\n\
         C3: !(t1.League = t2.League & t1.Country != t2.Country)\n\
         B: !(t1.League = t2.League & t1.City != t2.City)\n",
    )
    .unwrap();
    let alg = RuleRepair::new(vec![
        Rule::new(
            "C2",
            FixAction::MostCommonGiven {
                attr: "Country".into(),
                given: "City".into(),
            },
        ),
        Rule::new(
            "C3",
            FixAction::MostCommonGiven {
                attr: "Country".into(),
                given: "League".into(),
            },
        ),
        Rule::new(
            "B",
            FixAction::MostCommon {
                attr: "City".into(),
            },
        ),
    ]);

    let mut session = Session::new(Box::new(alg), injected.dirty.clone(), dcs);

    // First repair: the bad constraint mangles City cells.
    let before = session.repair();
    let q_before = score_repair(&before.changes, &injected.truth);
    println!(
        "repair with bad constraint B: {} changes, precision {:.2}, recall {:.2}, F1 {:.2}",
        before.changes.len(),
        q_before.precision(),
        q_before.recall(),
        q_before.f1()
    );

    // Pick a cell that B wrongly repaired (a City change — no City cell is
    // actually dirty) and ask T-REx to explain it.
    let city_attr = injected.dirty.schema().id("City");
    let bogus: CellRef = before
        .changes
        .iter()
        .map(|c| c.cell)
        .find(|c| c.attr == city_attr)
        .expect("the bad constraint causes at least one City repair");
    let explanation = session
        .explain(
            &ExplainRequest {
                cell: bogus,
                players: Players::Constraints,
            },
            &session.config(),
        )
        .unwrap();
    println!(
        "\nexplanation for the bogus repair of t{}[City]:\n{}",
        bogus.row + 1,
        explanation.ranking
    );
    let culprit = explanation.ranking.top().unwrap().label.clone();
    println!("top-ranked constraint: {culprit} — removing it\n");
    assert_eq!(culprit, "B", "the bad constraint must rank first");

    // Act on the explanation: remove the culprit and repair again.
    session.remove_constraint(&culprit);
    let after = session.repair();
    let q_after = score_repair(&after.changes, &injected.truth);
    println!(
        "repair without {culprit}: {} changes, precision {:.2}, recall {:.2}, F1 {:.2}",
        after.changes.len(),
        q_after.precision(),
        q_after.recall(),
        q_after.f1()
    );
    assert!(
        q_after.precision() >= q_before.precision(),
        "removing the culprit must not hurt precision"
    );
    println!("\nsession history:");
    for h in session.history() {
        println!("  - {} ({} cells repaired)", h.action, h.cells_repaired);
    }
}
