//! Integration tests E1–E4: every quantitative claim in the paper's worked
//! examples, end-to-end through the public API.

use trex::{ExecConfig, ExplainRequest, Explainer, MaskMode, Players};
use trex_datagen::laliga;
use trex_repair::{repairs_cell_to, RepairAlgorithm};
use trex_table::Value;

/// E3 / Figure 2: Algorithm 1 repairs the dirty La Liga table exactly to
/// the printed clean table (t5[City] → Madrid, t5[Country] → Spain).
#[test]
fn e3_figure_2_repair() {
    let dirty = laliga::dirty_table();
    let result = laliga::algorithm1().repair(&laliga::constraints(), &dirty);
    assert_eq!(result.clean, laliga::clean_table());
    assert_eq!(result.changes.len(), 2);
    let labels: Vec<String> = result.changes.iter().map(|c| c.to_string()).collect();
    assert!(labels.iter().any(|l| l.contains("Capital → Madrid")));
    assert!(labels.iter().any(|l| l.contains("España → Spain")));
}

/// E2 / Example 2.2: `Alg|t5[City]({C1,C2,C3}) = 1`, `Alg|t5[City]({C2,C3}) = 0`.
#[test]
fn e2_example_2_2_binary_oracle() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::city_cell(&dirty);
    let madrid = Value::str("Madrid");
    assert!(repairs_cell_to(&alg, &dcs[..3], &dirty, cell, &madrid));
    assert!(!repairs_cell_to(&alg, &dcs[1..3], &dirty, cell, &madrid));
}

/// E1 / Figure 1 + Example 2.3: the constraint Shapley values are exactly
/// (1/6, 1/6, 2/3, 0), computed through the full public pipeline.
#[test]
fn e1_figure_1_constraint_shapley_values() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let explainer = Explainer::new(&alg);
    let out = explainer
        .explain(
            &dcs,
            &dirty,
            &ExplainRequest {
                cell: laliga::cell_of_interest(&dirty),
                players: Players::Constraints,
            },
        )
        .unwrap();
    let exact: Vec<(String, String)> = out
        .exact
        .iter()
        .map(|(n, r)| (n.clone(), r.to_string()))
        .collect();
    assert_eq!(
        exact,
        vec![
            ("C1".to_string(), "1/6".to_string()),
            ("C2".to_string(), "1/6".to_string()),
            ("C3".to_string(), "2/3".to_string()),
            ("C4".to_string(), "0".to_string()),
        ]
    );
    // Ranking order: C3, then C1/C2 (tied), then C4.
    let order: Vec<&str> = out
        .ranking
        .entries()
        .iter()
        .map(|e| e.label.as_str())
        .collect();
    assert_eq!(order, vec!["C3", "C1", "C2", "C4"]);
    // Efficiency: values sum to 1 (the full set repairs the cell).
    assert!((out.ranking.total() - 1.0).abs() < 1e-12);
}

/// E1 cross-check: float and rational solvers agree through the pipeline.
#[test]
fn e1_float_matches_rational() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let out = Explainer::new(&alg)
        .explain(
            &dcs,
            &dirty,
            &ExplainRequest {
                cell: laliga::cell_of_interest(&dirty),
                players: Players::Constraints,
            },
        )
        .unwrap();
    for (name, rational) in &out.exact {
        let entry = out.ranking.get(name).unwrap();
        assert!((entry.value - rational.to_f64()).abs() < 1e-12, "{name}");
    }
}

/// E4 / Example 2.4 + Example 1.1: the cell ranking under the definition's
/// masked semantics — t5[League] on top, t1[Place] exactly zero,
/// t5[League] above t6[City].
#[test]
fn e4_example_2_4_cell_ranking_masked() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let out = Explainer::new(&alg)
        .with_config(ExecConfig::new().with_seed(12))
        .explain(
            &dcs,
            &dirty,
            &ExplainRequest {
                cell: laliga::cell_of_interest(&dirty),
                players: Players::MaskedCells {
                    mode: MaskMode::Null,
                    walks: 800,
                },
            },
        )
        .unwrap();
    assert_eq!(out.ranking.top().unwrap().label, "t5[League]");
    assert_eq!(out.ranking.get("t1[Place]").unwrap().value, 0.0);
    assert!(
        out.ranking.get("t5[League]").unwrap().value > out.ranking.get("t6[City]").unwrap().value
    );
    // All Place cells are dummies (no constraint path to Country).
    for r in 1..=6 {
        assert_eq!(
            out.ranking.get(&format!("t{r}[Place]")).unwrap().value,
            0.0,
            "t{r}[Place]"
        );
    }
}

/// E4 under the paper's `Distinct` (labeled-null) counting semantics: the
/// ranking headline is the same.
#[test]
fn e4_cell_ranking_distinct_mask() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let out = Explainer::new(&alg)
        .with_config(ExecConfig::new().with_seed(5))
        .explain(
            &dcs,
            &dirty,
            &ExplainRequest {
                cell: laliga::cell_of_interest(&dirty),
                players: Players::MaskedCells {
                    mode: MaskMode::Distinct,
                    walks: 600,
                },
            },
        )
        .unwrap();
    assert_eq!(out.ranking.top().unwrap().label, "t5[League]");
    assert_eq!(out.ranking.get("t1[Place]").unwrap().value, 0.0);
}

/// E4, replacement semantics (Example 2.5 verbatim): the dummy cell is
/// still exactly zero and Country witnesses dominate Place cells.
#[test]
fn e4_cell_ranking_replacement_sampler() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let out = Explainer::new(&alg)
        .with_config(ExecConfig::new().with_seed(4))
        .explain(
            &dcs,
            &dirty,
            &ExplainRequest {
                cell: laliga::cell_of_interest(&dirty),
                players: Players::ReplacedCells { samples: 600 },
            },
        )
        .unwrap();
    assert_eq!(out.ranking.get("t1[Place]").unwrap().value, 0.0);
    let top = out.ranking.top().unwrap();
    assert!(top.value > 0.0);
    // The sampler is seeded: the run is reproducible.
    let again = Explainer::new(&alg)
        .with_config(ExecConfig::new().with_seed(4))
        .explain(
            &dcs,
            &dirty,
            &ExplainRequest {
                cell: laliga::cell_of_interest(&dirty),
                players: Players::ReplacedCells { samples: 600 },
            },
        )
        .unwrap();
    assert_eq!(out.ranking, again.ranking);
}
