//! Integration test E8: the §4 demo scenario — explanations drive
//! constraint debugging, and acting on them improves the repair.

use trex::{ExecConfig, ExplainRequest, Players, Session};
use trex_constraints::parse_dcs;
use trex_datagen::{errors, laliga, soccer};
use trex_repair::{score_repair, FixAction, Rule, RuleRepair};
use trex_table::{CellRef, Value};

fn bad_constraint_setup() -> (trex_datagen::InjectionResult, Session) {
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
            kind_weights: [0, 0, 1, 0, 0],
            columns: vec!["Country".to_string()],
            seed: 9,
            ..Default::default()
        },
    );
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
            FixAction::MostCommon {
                attr: "Country".into(),
            },
        ),
        Rule::new(
            "B",
            FixAction::MostCommon {
                attr: "City".into(),
            },
        ),
    ]);
    let session = Session::new(Box::new(alg), injected.dirty.clone(), dcs);
    (injected, session)
}

/// The bad constraint B causes spurious City repairs; T-REx ranks B first
/// for such a repair; removing B improves precision and never reduces
/// recall.
#[test]
fn removing_the_culprit_constraint_improves_the_repair() {
    let (injected, mut session) = bad_constraint_setup();
    let before = session.repair();
    let q_before = score_repair(&before.changes, &injected.truth);

    // B repairs City cells, none of which are actually dirty.
    let city_attr = injected.dirty.schema().id("City");
    let bogus = before
        .changes
        .iter()
        .map(|c| c.cell)
        .find(|c| c.attr == city_attr)
        .expect("B must cause a bogus City repair");
    let explanation = session
        .explain(
            &ExplainRequest {
                cell: bogus,
                players: Players::Constraints,
            },
            &session.config(),
        )
        .unwrap();
    assert_eq!(explanation.ranking.top().unwrap().label, "B");

    session.remove_constraint("B");
    let after = session.repair();
    let q_after = score_repair(&after.changes, &injected.truth);

    assert!(q_after.precision() > q_before.precision());
    assert!(q_after.recall() >= q_before.recall());
    assert!(q_after.f1() > q_before.f1());
    // And no more bogus City repairs.
    assert!(after.changes.iter().all(|c| c.cell.attr != city_attr));
}

/// The other demo direction: fix an *input cell* the explanation points at,
/// and the next repair changes accordingly (the §1 "changing specific cells
/// to make the repair more accurate" loop), on the paper's own table.
#[test]
fn editing_an_influential_cell_redirects_the_repair() {
    let mut session = Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    );
    let cell = laliga::cell_of_interest(session.table());
    // The masked explanation says t5[League] is the most influential cell.
    let req = ExplainRequest {
        cell,
        players: Players::MaskedCells {
            mode: trex::MaskMode::Null,
            walks: 400,
        },
    };
    let cells = session
        .explain(&req, &ExecConfig::new().with_seed(8))
        .unwrap();
    assert_eq!(cells.ranking.top().unwrap().label, "t5[League]");

    // Act on it: blank out t5[League]. C3 can then no longer fire for t5 —
    // but C1∧C2 still repair both dirty cells. The *explanation* changes:
    // C3's influence collapses to zero.
    let league = session.table().schema().id("League");
    session.set_cell(CellRef::new(4, league), Value::Null);
    let cons = session
        .explain(
            &ExplainRequest {
                cell,
                players: Players::Constraints,
            },
            &session.config(),
        )
        .unwrap();
    assert_eq!(cons.ranking.get("C3").unwrap().value, 0.0);
    assert_eq!(cons.exact[0].1.to_string(), "1/2"); // C1
    assert_eq!(cons.exact[1].1.to_string(), "1/2"); // C2
}

/// Session history records the full demo walk.
#[test]
fn session_history_reflects_the_demo_walk() {
    let (_injected, mut session) = bad_constraint_setup();
    session.repair();
    session.remove_constraint("B");
    session.repair();
    let actions: Vec<&str> = session
        .history()
        .iter()
        .map(|h| h.action.as_str())
        .collect();
    assert_eq!(actions, vec!["repair", "remove constraint B", "repair"]);
}
