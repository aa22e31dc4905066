//! Black-box swap (experiment E7): explain the repairs of the
//! HoloClean-style probabilistic cleaner on a census-shaped workload.
//!
//! The paper's point is that T-REx "treats the repair algorithm as a black
//! box": the same explanation pipeline that dissected Algorithm 1 runs
//! unchanged over a completely different engine — here, our from-scratch
//! HoloClean-style cleaner (domain pruning → featurization → perceptron
//! calibration → ICM inference) on census data with FD constraints.
//!
//! Run with: `cargo run --release --example holoclean_style`

use trex::{render_repair_screen, ExecConfig, ExplainRequest, Explainer, Players};
use trex_datagen::{adult, errors};
use trex_repair::{score_repair, HoloCleanStyle, RepairAlgorithm};

fn main() {
    // Census-like data with two FDs and a range rule.
    let clean = adult::generate_census(&adult::CensusConfig { rows: 24, seed: 2 });
    let dcs = adult::census_constraints();
    let injected = errors::inject_errors(
        &clean,
        &errors::ErrorConfig {
            rate: 0.03,
            kind_weights: [1, 0, 0, 0, 0], // in-column swaps: realistic entry errors
            columns: vec!["EducationYears".to_string(), "Relationship".to_string()],
            seed: 13,
            ..Default::default()
        },
    );
    println!(
        "census workload: {} rows, {} injected errors",
        clean.num_rows(),
        injected.truth.len()
    );

    // The black box: HoloClean-style engine with perceptron calibration.
    let alg = HoloCleanStyle::new().with_training();
    let result = alg.repair(&dcs, &injected.dirty);
    let quality = score_repair(&result.changes, &injected.truth);
    println!(
        "holoclean-style repair: {} changes, precision {:.2}, recall {:.2}, F1 {:.2}\n",
        result.changes.len(),
        quality.precision(),
        quality.recall(),
        quality.f1()
    );
    // Show only the rows that changed, to keep the screen small.
    println!("{}", render_repair_screen(&injected.dirty, &result.changes));

    // Explain the first repaired cell, same API as with Algorithm 1.
    let Some(first) = result.changes.first() else {
        println!("nothing was repaired; nothing to explain");
        return;
    };
    let explainer = Explainer::new(&alg).with_config(ExecConfig::new().with_seed(21));
    let explain = |players| {
        let req = ExplainRequest {
            cell: first.cell,
            players,
        };
        explainer
            .explain(&dcs, &injected.dirty, &req)
            .expect("cell is repaired")
    };
    let cons = explain(Players::Constraints);
    println!(
        "constraint influence for the repair {} (same black-box API as Algorithm 1):\n{}",
        first, cons.ranking
    );

    // Cell explanation: every sample re-runs the full probabilistic
    // cleaner, so keep m modest here (the bench suite measures cost).
    let cells = explain(Players::ReplacedCells { samples: 25 });
    println!("top influencing cells:");
    for e in cells.ranking.top_k(5) {
        println!(
            "  {:<22} {:+.4} ± {:.4}",
            e.label,
            e.value,
            e.std_error.unwrap_or(0.0)
        );
    }
}
