//! Integration test E7: the explanation pipeline is genuinely black-box —
//! every repair engine in the workspace runs through the identical
//! `Explainer` code path with no engine-specific branches.

use trex::{ExecConfig, ExplainRequest, Explainer, Players};
use trex_constraints::parse_dcs;
use trex_repair::{
    FdChaseRepair, FixAction, HolisticRepair, HoloCleanStyle, RepairAlgorithm, Rule, RuleRepair,
};
use trex_table::{CellRef, Table, TableBuilder, Value};

fn workload() -> (Table, Vec<trex_constraints::DenialConstraint>) {
    let t = TableBuilder::new()
        .str_columns(["Team", "City", "Country"])
        .str_row(["Real Madrid", "Madrid", "Spain"])
        .str_row(["Real Madrid", "Madrid", "Spain"])
        .str_row(["Atletico", "Madrid", "Spain"])
        .str_row(["Barcelona", "Barcelona", "Spain"])
        .str_row(["Espanyol", "Barcelona", "Spain"])
        .str_row(["Girona", "Barcelona", "España"])
        .build();
    let dcs = parse_dcs(
        "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n\
         C2: !(t1.City = t2.City & t1.Country != t2.Country)\n",
    )
    .unwrap();
    (t, dcs)
}

fn engines() -> Vec<Box<dyn RepairAlgorithm>> {
    vec![
        Box::new(RuleRepair::new(vec![
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
        ])),
        Box::new(HoloCleanStyle::new()),
        Box::new(FdChaseRepair::new()),
        Box::new(HolisticRepair::new()),
    ]
}

/// Every engine repairs the España cell to Spain, and the same explanation
/// call works on each — with C2 carrying all constraint influence (it is
/// the only constraint that can touch a Country cell here).
#[test]
fn every_engine_explains_through_the_same_api() {
    let (dirty, dcs) = workload();
    let cell = CellRef::new(5, dirty.schema().id("Country"));
    for alg in engines() {
        let result = alg.repair(&dcs, &dirty);
        assert_eq!(
            result.clean.get(cell),
            &Value::str("Spain"),
            "{} failed to repair the cell",
            alg.name()
        );
        let explainer = Explainer::new(alg.as_ref());
        let cons = explainer
            .explain(
                &dcs,
                &dirty,
                &ExplainRequest {
                    cell,
                    players: Players::Constraints,
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_eq!(
            cons.ranking.top().unwrap().label,
            "C2",
            "{}: C2 must dominate",
            alg.name()
        );
        assert_eq!(
            cons.ranking.get("C1").unwrap().value,
            0.0,
            "{}: C1 is a dummy for a Country repair",
            alg.name()
        );
    }
}

/// Cell explanations also work across engines; influencing cells must be
/// within the constraint's join neighbourhood (the Barcelona rows), and
/// unrelated cells (the Real Madrid block's Team cells) must get zero.
#[test]
fn cell_explanations_work_across_engines() {
    let (dirty, dcs) = workload();
    let cell = CellRef::new(5, dirty.schema().id("Country"));
    for alg in engines() {
        let req = ExplainRequest {
            cell,
            players: Players::ReplacedCells { samples: 150 },
        };
        let out = Explainer::new(alg.as_ref())
            .with_config(ExecConfig::new().with_seed(2))
            .explain(&dcs, &dirty, &req)
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert_eq!(out.players.len(), dirty.num_cells() - 1);
        let top = out.ranking.top().unwrap();
        assert!(top.value > 0.0, "{}: no influential cell found", alg.name());
    }
}

/// The explanations *differ* across engines where the engines genuinely
/// behave differently — swapping the black box changes the explanation, not
/// the machinery. (The FD-chase repairs the cell even without C1 present;
/// Algorithm 1's rule list does too; but their Shapley profiles for a
/// City-repair cell differ.)
#[test]
fn different_engines_can_yield_different_shapley_profiles() {
    // A case engineered to split engines: the City error "Capital".
    let t = TableBuilder::new()
        .str_columns(["Team", "City", "Country"])
        .str_row(["Real Madrid", "Madrid", "Spain"])
        .str_row(["Real Madrid", "Madrid", "Spain"])
        .str_row(["Real Madrid", "Capital", "Spain"])
        .build();
    let dcs = parse_dcs(
        "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n\
         C2: !(t1.City = t2.City & t1.Country != t2.Country)\n",
    )
    .unwrap();
    let cell = CellRef::new(2, t.schema().id("City"));

    let rule = RuleRepair::new(vec![Rule::new(
        "C1",
        FixAction::MostCommon {
            attr: "City".into(),
        },
    )]);
    let chase = FdChaseRepair::new();

    let a = Explainer::new(&rule)
        .explain(
            &dcs,
            &t,
            &ExplainRequest {
                cell,
                players: Players::Constraints,
            },
        )
        .unwrap();
    let b = Explainer::new(&chase)
        .explain(
            &dcs,
            &t,
            &ExplainRequest {
                cell,
                players: Players::Constraints,
            },
        )
        .unwrap();
    // Both attribute everything to C1 (the only City-repairing constraint).
    assert_eq!(a.ranking.top().unwrap().label, "C1");
    assert_eq!(b.ranking.top().unwrap().label, "C1");
    assert_eq!(a.ranking.get("C1").unwrap().value, 1.0);
    assert_eq!(b.ranking.get("C1").unwrap().value, 1.0);
}
