//! Extension experiment X1: Shapley interaction indices and Banzhaf values
//! for the paper's constraint game.
//!
//! Example 2.3 explains *in prose* that C1 and C2 matter only "as a pair"
//! while C3 acts alone; the interaction index makes that machine-checkable:
//! `I(C1,C2) > 0` (complements), `I(C1,C3) < 0` (substitutes), and every
//! interaction with the dummy C4 is zero. Banzhaf values confirm the
//! ranking is not an artifact of Shapley's coalition-size weighting.
//!
//! Run: `cargo run --release -p trex-bench --bin exp_interaction`

use trex::{ConstraintGame, Explainer};
use trex_datagen::laliga;
use trex_shapley::{banzhaf_exact, shapley_exact, shapley_interaction_exact, Game};

/// The constraint game's attributions for the repair of t5[Country]:
/// labels, Shapley values, Banzhaf values and the pairwise Shapley
/// interaction matrix, all in constraint order.
struct Attribution {
    labels: Vec<String>,
    shapley: Vec<f64>,
    banzhaf: Vec<f64>,
    interactions: Vec<Vec<f64>>,
}

fn attribution() -> Attribution {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let cell = laliga::cell_of_interest(&dirty);
    let target = Explainer::new(&alg)
        .repair_target(&dcs, &dirty, cell)
        .expect("t5[Country] is repaired");
    let game = ConstraintGame::new(&alg, &dcs, &dirty, cell, target);
    Attribution {
        labels: (0..dcs.len()).map(|i| game.player_label(i)).collect(),
        shapley: shapley_exact(&game).expect("four constraints"),
        banzhaf: banzhaf_exact(&game).expect("four constraints"),
        interactions: shapley_interaction_exact(&game).expect("four constraints"),
    }
}

fn main() {
    let Attribution {
        labels,
        shapley,
        banzhaf,
        interactions: m,
    } = attribution();

    println!("constraint attribution for the repair of t5[Country] → Spain\n");
    println!("{:<5} {:>10} {:>10}", "DC", "Shapley", "Banzhaf");
    for (i, l) in labels.iter().enumerate() {
        println!("{:<5} {:>10.4} {:>10.4}", l, shapley[i], banzhaf[i]);
    }

    println!("\npairwise Shapley interaction indices (+ complements, − substitutes):\n");
    print!("{:<5}", "");
    for l in &labels {
        print!("{l:>9}");
    }
    println!();
    for (i, l) in labels.iter().enumerate() {
        print!("{l:<5}");
        for (j, value) in m[i].iter().enumerate() {
            if i == j {
                print!("{:>9}", "·");
            } else {
                print!("{value:>9.4}");
            }
        }
        println!();
    }
    println!(
        "\nreading: I(C1,C2) = {:+.4} > 0 — the pair carries the C1∧C2 repair\n\
         route together (the paper: \"the contribution of C1 and C2, as a\n\
         pair, is half that of C3\"); I(C1,C3) = {:+.4} < 0 — C3 makes C1\n\
         redundant; C4 is a dummy with all-zero interactions.",
        m[0][1], m[0][2]
    );
    assert!(m[0][1] > 0.0 && m[0][2] < 0.0 && m[0][3] == 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_interactions_show_c1_c2_complementarity() {
        let Attribution {
            labels,
            interactions: m,
            ..
        } = attribution();
        assert_eq!(labels, vec!["C1", "C2", "C3", "C4"]);
        assert!(m[0][1] > 0.0, "C1×C2 complementary: {}", m[0][1]);
        assert!(m[0][2] < 0.0, "C1×C3 substitutes: {}", m[0][2]);
        assert_eq!(m[0][3], 0.0, "C4 is a dummy");
        assert_eq!(m[0][1], m[1][0], "matrix symmetric");
    }

    #[test]
    fn constraint_banzhaf_agrees_on_the_ordering() {
        // Same ordering as Shapley: C3 ≻ C1 = C2 ≻ C4, with the known
        // exact Banzhaf values (3/4, 1/4, 1/4, 0).
        let Attribution {
            shapley, banzhaf, ..
        } = attribution();
        for (value, want) in banzhaf.iter().zip([0.25, 0.25, 0.75, 0.0]) {
            assert!((value - want).abs() < 1e-12, "{banzhaf:?}");
        }
        assert!(shapley[2] > shapley[0] && shapley[0] == shapley[1] && shapley[3] == 0.0);
    }
}
