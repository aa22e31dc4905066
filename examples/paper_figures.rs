//! Regenerate every figure and worked example of the paper (experiments
//! E1–E4 of DESIGN.md).
//!
//! * Figure 2a/2b — the dirty and clean La Liga tables;
//! * Example 2.2 — `Alg|t5[City]` with and without C1;
//! * Figure 1 / Example 2.3 — exact constraint Shapley values
//!   `(1/6, 1/6, 2/3, 0)` for `t5[Country]`;
//! * Example 2.4 — the cell ranking (t5[League] on top, t1[Place] at zero)
//!   under the definition's masked semantics, plus the replacement-sampler
//!   view of Example 2.5.
//!
//! Run with: `cargo run --release --example paper_figures`

use trex::{ExecConfig, ExplainRequest, Explainer, MaskMode, Players};
use trex_datagen::laliga;
use trex_repair::{repairs_cell_to, RepairAlgorithm};
use trex_table::Value;

fn main() {
    let dirty = laliga::dirty_table();
    let dcs = laliga::constraints();
    let alg = laliga::algorithm1();

    println!("== Figure 2a: dirty table T^d ==\n{dirty}");
    let result = alg.repair(&dcs, &dirty);
    println!(
        "== Figure 2b: clean table T^c = Alg(C, T^d) ==\n{}",
        result.clean
    );
    assert_eq!(
        result.clean,
        laliga::clean_table(),
        "repair must match Figure 2b"
    );
    println!(
        "repaired cells: {}\n",
        result
            .changes
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );

    // Example 2.2
    let city = laliga::city_cell(&dirty);
    let madrid = Value::str("Madrid");
    let with_c1 = repairs_cell_to(&alg, &dcs[..3], &dirty, city, &madrid);
    let without_c1 = repairs_cell_to(&alg, &dcs[1..3], &dirty, city, &madrid);
    println!("== Example 2.2 ==");
    println!("Alg|t5[City]({{C1,C2,C3}}, T^d) = {}", with_c1 as u8);
    println!("Alg|t5[City]({{C2,C3}},    T^d) = {}\n", without_c1 as u8);
    assert!(with_c1 && !without_c1);

    // Figure 1 / Example 2.3
    let cell = laliga::cell_of_interest(&dirty);
    let explainer = Explainer::new(&alg).with_config(ExecConfig::new().with_seed(3));
    let explain = |players| {
        explainer
            .explain(&dcs, &dirty, &ExplainRequest { cell, players })
            .expect("t5[Country] is repaired")
    };
    let cons = explain(Players::Constraints);
    println!("== Figure 1 / Example 2.3: constraint Shapley values for t5[Country] ==");
    for (name, r) in &cons.exact {
        println!("  Shap({name}) = {r}");
    }
    println!("{}", cons.ranking);

    // Example 2.4 under the definition's (masked) semantics.
    println!("== Example 2.4: cell influence (masked/null semantics, 2000 permutation walks) ==");
    let masked = explain(Players::MaskedCells {
        mode: MaskMode::Null,
        walks: 2000,
    });
    for e in masked.ranking.top_k(8) {
        println!(
            "  {:<12} {:+.4} ± {:.4}",
            e.label,
            e.value,
            e.std_error.unwrap_or(0.0)
        );
    }
    println!(
        "  t1[Place] = {:+.4} (dummy, exactly zero)\n",
        masked.ranking.get("t1[Place]").unwrap().value
    );

    // Example 2.5's replacement-sampling estimator, for comparison.
    println!("== Example 2.5: replacement-sampling estimator (per-player, m = 2000) ==");
    let sampled = explain(Players::ReplacedCells { samples: 2000 });
    for e in sampled.ranking.top_k(8) {
        println!(
            "  {:<12} {:+.4} ± {:.4}",
            e.label,
            e.value,
            e.std_error.unwrap_or(0.0)
        );
    }
    println!(
        "\nNote: the two estimators measure different coalition semantics\n\
         (absence-as-null vs absence-as-random-redraw); the paper's Example\n\
         2.4 ranking — t5[League] first — holds under the definition's\n\
         masked semantics, while the literal redraw estimator shifts mass to\n\
         the Country witness cells. EXPERIMENTS.md §E4 discusses this."
    );
}
