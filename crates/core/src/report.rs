//! Text renderings of the demo's three screens (Figure 3).
//!
//! The paper's GUI is a web application; per DESIGN.md §2 we substitute
//! deterministic terminal renderings carrying the same content:
//!
//! 1. **Input screen** — the dirty table and the constraint list;
//! 2. **Repair screen** — the repaired table with repaired cells
//!    highlighted as `old → new` (hover-for-old-value becomes inline);
//! 3. **Explanation screen** — constraints and cells "ranked from highest
//!    to lowest in terms of their Shapley value", with intensity bars for
//!    the green shading.

use crate::explain::Explanation;
use trex_constraints::DenialConstraint;
use trex_table::{CellChange, CellRef, Table};

/// Screen 1: the input — dirty table plus constraints.
pub fn render_input_screen(dirty: &Table, dcs: &[DenialConstraint]) -> String {
    let mut out = String::new();
    out.push_str("=== T-REx: Input ===\n\n");
    out.push_str(&dirty.render());
    out.push_str("\nDenial constraints:\n");
    for dc in dcs {
        out.push_str("  ");
        out.push_str(&dc.to_string());
        out.push('\n');
    }
    out
}

/// Screen 2: the repair — table with each repaired cell shown as
/// `[old → new]`.
pub fn render_repair_screen(dirty: &Table, changes: &[CellChange]) -> String {
    let mut out = String::new();
    out.push_str("=== T-REx: Repair ===\n\n");
    let headers: Vec<String> = dirty.schema().names().map(str::to_string).collect();
    let mut cells: Vec<Vec<String>> = Vec::with_capacity(dirty.num_rows());
    for r in 0..dirty.num_rows() {
        let mut row = Vec::with_capacity(dirty.arity());
        for (a, v) in dirty.row(r).iter().enumerate() {
            let cellref = CellRef::new(r, trex_table::AttrId(a));
            match changes.iter().find(|c| c.cell == cellref) {
                Some(ch) => row.push(format!("[{} → {}]", v, ch.to)),
                None => row.push(v.to_string()),
            }
        }
        cells.push(row);
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.chars().count());
        }
    }
    let push_row = |row: &[String], out: &mut String| {
        out.push('|');
        for (c, w) in row.iter().zip(&widths) {
            out.push(' ');
            out.push_str(c);
            for _ in c.chars().count()..*w {
                out.push(' ');
            }
            out.push_str(" |");
        }
        out.push('\n');
    };
    push_row(&headers, &mut out);
    let sep: String = widths
        .iter()
        .map(|w| format!("|{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "|\n";
    out.push_str(&sep);
    for row in &cells {
        push_row(row, &mut out);
    }
    out.push_str(&format!("\n{} cell(s) repaired.\n", changes.len()));
    out
}

/// Screen 3: the explanation — ranked constraints (an explanation of
/// [`crate::Players::Constraints`]) and/or cells (any cell game).
pub fn render_explanation_screen(
    cell_label: &str,
    constraints: Option<&Explanation>,
    cells: Option<&Explanation>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("=== T-REx: Explanation for {cell_label} ===\n"));
    if let Some(c) = constraints {
        out.push_str(&format!(
            "\nConstraint influence (repaired to {}):\n",
            c.target
        ));
        out.push_str(&c.ranking.to_string());
        out.push_str("Exact values: ");
        let parts: Vec<String> = c.exact.iter().map(|(n, r)| format!("{n} = {r}")).collect();
        out.push_str(&parts.join(", "));
        out.push('\n');
    }
    if let Some(ce) = cells {
        out.push_str("\nCell influence (top 10):\n");
        let top = ce.ranking.top_k(10);
        for (i, e) in top.iter().enumerate() {
            let bar = "█".repeat(ce.ranking.intensity(e));
            out.push_str(&format!(
                "{:>3}. {:<14} {:+.4}{}  {}\n",
                i + 1,
                e.label,
                e.value,
                e.std_error.map_or(String::new(), |s| format!(" ± {s:.4}")),
                bar
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{ExplainRequest, Explainer, Players};
    use trex_datagen::laliga;
    use trex_shapley::ExecConfig;

    #[test]
    fn input_screen_lists_table_and_constraints() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let s = render_input_screen(&dirty, &dcs);
        assert!(s.contains("Capital"));
        assert!(s.contains("España"));
        assert!(s.contains("C1: !(t1.Team = t2.Team & t1.City != t2.City)"));
        assert!(s.contains("C4:"));
    }

    #[test]
    fn repair_screen_highlights_changes() {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let result = trex_repair::RepairAlgorithm::repair(&alg, &dcs, &dirty);
        let s = render_repair_screen(&dirty, &result.changes);
        assert!(s.contains("[Capital → Madrid]"));
        assert!(s.contains("[España → Spain]"));
        assert!(s.contains("2 cell(s) repaired."));
    }

    fn explain(players: Players) -> Explanation {
        let dirty = laliga::dirty_table();
        let dcs = laliga::constraints();
        let alg = laliga::algorithm1();
        let req = ExplainRequest {
            cell: laliga::cell_of_interest(&dirty),
            players,
        };
        Explainer::new(&alg)
            .with_config(ExecConfig::new().with_seed(1))
            .explain(&dcs, &dirty, &req)
            .unwrap()
    }

    #[test]
    fn explanation_screen_shows_both_rankings() {
        let cons = explain(Players::Constraints);
        let cells = explain(Players::ReplacedCells { samples: 50 });
        let s = render_explanation_screen("t5[Country]", Some(&cons), Some(&cells));
        assert!(s.contains("t5[Country]"));
        assert!(s.contains("C3 = 2/3"));
        assert!(s.contains("Cell influence"));
        assert!(s.lines().count() > 10);
    }

    #[test]
    fn explanation_screen_with_constraints_only() {
        let cons = explain(Players::Constraints);
        let s = render_explanation_screen("t5[Country]", Some(&cons), None);
        assert!(s.contains("Constraint influence"));
        assert!(!s.contains("Cell influence"));
    }
}
