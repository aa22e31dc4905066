//! Experiment E8: the §4 demo scenario, quantified — acting on the
//! top-ranked explanation (removing the culprit constraint) improves the
//! repair, measured by precision/recall/F1 against injected ground truth,
//! across several seeds.
//!
//! Run: `cargo run --release -p trex-bench --bin exp_demo_scenario`

use trex::{ExplainRequest, Players, Session};
use trex_constraints::parse_dcs;
use trex_datagen::{errors, soccer};
use trex_repair::{score_repair, FixAction, Rule, RuleRepair};

fn main() {
    println!(
        "{:>5} {:>7} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | culprit ranked 1st?",
        "seed", "errors", "prec", "recall", "F1", "prec'", "recall'", "F1'"
    );
    let mut culprit_top = 0usize;
    let runs = 8u64;
    for seed in 0..runs {
        let clean = soccer::generate_clean(&soccer::SoccerConfig {
            countries: 3,
            cities_per_country: 2,
            teams_per_city: 2,
            years: 2,
            seed: 50 + seed,
        });
        let injected = errors::inject_errors(
            &clean,
            &errors::ErrorConfig {
                rate: 0.04,
                kind_weights: [0, 0, 1, 0, 0],
                columns: vec!["Country".to_string()],
                seed: 900 + seed,
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
        let before = session.repair();
        let qb = score_repair(&before.changes, &injected.truth);

        // Explain a bogus City repair, if any.
        let city_attr = injected.dirty.schema().id("City");
        let ranked_first = before
            .changes
            .iter()
            .map(|c| c.cell)
            .find(|c| c.attr == city_attr)
            .map(|bogus| {
                let explanation = session
                    .explain(
                        &ExplainRequest {
                            cell: bogus,
                            players: Players::Constraints,
                        },
                        &session.config(),
                    )
                    .unwrap();
                explanation.ranking.top().unwrap().label == "B"
            })
            .unwrap_or(false);
        if ranked_first {
            culprit_top += 1;
        }

        session.remove_constraint("B");
        let after = session.repair();
        let qa = score_repair(&after.changes, &injected.truth);
        println!(
            "{:>5} {:>7} | {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>8.3} | {}",
            seed,
            injected.truth.len(),
            qb.precision(),
            qb.recall(),
            qb.f1(),
            qa.precision(),
            qa.recall(),
            qa.f1(),
            if ranked_first {
                "yes"
            } else {
                "n/a (no bogus repair)"
            }
        );
    }
    println!(
        "\nculprit constraint ranked first in {culprit_top}/{runs} runs with a bogus repair;\n\
         F1 after removal should dominate F1 before in every run."
    );
}
