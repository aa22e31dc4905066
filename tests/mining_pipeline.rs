//! End-to-end with *mined* constraints: discover DCs from clean data
//! (the paper's reference [2] workflow), then repair + explain a dirtied
//! table using only what was mined — no hand-written constraints anywhere.

use trex::{ExplainRequest, Explainer, Players};
use trex_constraints::{fds_of, mine_dcs, FunctionalDependency, MineConfig};
use trex_datagen::{errors, soccer};
use trex_repair::{score_repair, HoloCleanStyle, RepairAlgorithm};

fn standings() -> trex_table::Table {
    soccer::generate_clean(&soccer::SoccerConfig {
        countries: 2,
        cities_per_country: 2,
        teams_per_city: 2,
        years: 2, // teams repeat across seasons → FDs are minimal, not keys
        seed: 77,
    })
}

#[test]
fn mining_recovers_the_papers_constraint_shapes() {
    let clean = standings();
    let dcs = mine_dcs(&clean, &MineConfig::default());
    let fds = fds_of(&dcs);
    for (lhs, rhs) in [("Team", "City"), ("City", "Country"), ("League", "Country")] {
        assert!(
            fds.contains(&FunctionalDependency::new([lhs], rhs)),
            "{lhs} -> {rhs} not mined; got {}",
            fds.iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}

#[test]
fn mined_constraints_drive_repair_and_explanation() {
    let clean = standings();
    // Keep the FD-shaped subset (the repairable kind) to a manageable set.
    let mined = mine_dcs(&clean, &MineConfig::default());
    let dcs: Vec<trex_constraints::DenialConstraint> = mined
        .into_iter()
        .filter(|d| FunctionalDependency::from_dc(d).is_some())
        .take(6)
        .collect();
    assert!(dcs.len() >= 3);

    let injected = errors::inject_errors(
        &clean,
        &errors::ErrorConfig {
            rate: 0.02,
            kind_weights: [0, 0, 1, 0, 0],
            columns: vec!["Country".to_string()],
            seed: 5,
            ..Default::default()
        },
    );
    let alg = HoloCleanStyle::new();
    let result = alg.repair(&dcs, &injected.dirty);
    let q = score_repair(&result.changes, &injected.truth);
    assert!(
        q.detection_recall() > 0.99,
        "mined constraints must surface the injected errors (got {})",
        q.detection_recall()
    );

    // Explain the first successful repair through the standard pipeline.
    if let Some(ch) = result.changes.iter().find(|c| {
        injected
            .truth
            .iter()
            .any(|t| t.cell == c.cell && t.to == c.to)
    }) {
        let out = Explainer::new(&alg)
            .explain(
                &dcs,
                &injected.dirty,
                &ExplainRequest {
                    cell: ch.cell,
                    players: Players::Constraints,
                },
            )
            .unwrap();
        assert!(
            out.ranking.total() > 0.99,
            "some mined DC carries the repair"
        );
    }
}
