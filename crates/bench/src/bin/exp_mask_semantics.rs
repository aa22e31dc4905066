//! Experiment E4: the three coalition semantics of the cell game, side by
//! side on the paper's own table and cell of interest:
//!
//! * `null` — the §2.2 definition (absent cell = plain null, witnesses
//!   nothing);
//! * `distinct` — labeled-null masking (absent cell still *differs* from
//!   concrete values), the semantics under which the paper's Example-2.4
//!   coalition counts come out;
//! * `replacement` — the Example-2.5 estimator (absent cell = random
//!   redraw from the column distribution).
//!
//! Run: `cargo run --release -p trex-bench --bin exp_mask_semantics`

use trex::{ExecConfig, ExplainRequest, Explainer, MaskMode, Players};
use trex_datagen::laliga;

fn main() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();
    let ex = Explainer::new(&alg).with_config(ExecConfig::new().with_seed(1));
    let cell = laliga::cell_of_interest(&dirty);
    let m = 3000;
    let explain = |players| {
        ex.explain(&dcs, &dirty, &ExplainRequest { cell, players })
            .unwrap()
    };
    let masked = |mode| Players::MaskedCells { mode, walks: m };

    let null = explain(masked(MaskMode::Null));
    let distinct = explain(masked(MaskMode::Distinct));
    let replacement = explain(Players::ReplacedCells { samples: m });

    println!("cell Shapley values for the repair of t5[Country] (m = {m}):\n");
    println!(
        "{:<14} | {:>10} | {:>10} | {:>12}",
        "cell", "null", "distinct", "replacement"
    );
    // Union of top-8 labels from each ranking, in null-ranking order.
    let mut labels: Vec<String> = Vec::new();
    for r in [&null.ranking, &distinct.ranking, &replacement.ranking] {
        for e in r.top_k(8) {
            if !labels.contains(&e.label) {
                labels.push(e.label.clone());
            }
        }
    }
    for l in &labels {
        let v = |r: &trex::Ranking| r.get(l).map_or(0.0, |e| e.value);
        println!(
            "{:<14} | {:>10.4} | {:>10.4} | {:>12.4}",
            l,
            v(&null.ranking),
            v(&distinct.ranking),
            v(&replacement.ranking)
        );
    }
    println!("\ntop-ranked cell:");
    println!("  null        → {}", null.ranking.top().unwrap().label);
    println!("  distinct    → {}", distinct.ranking.top().unwrap().label);
    println!(
        "  replacement → {}",
        replacement.ranking.top().unwrap().label
    );
    println!(
        "\nExample 2.4's claim (t5[League] most influential) holds under both\n\
         masked semantics; the replacement estimator measures a different\n\
         game where the Country witness cells carry the mass. t1[Place] is\n\
         exactly zero under all three (dummy player)."
    );
    assert_eq!(null.ranking.top().unwrap().label, "t5[League]");
    assert_eq!(distinct.ranking.top().unwrap().label, "t5[League]");
    assert_eq!(null.ranking.get("t1[Place]").unwrap().value, 0.0);
    assert_eq!(replacement.ranking.get("t1[Place]").unwrap().value, 0.0);
}
