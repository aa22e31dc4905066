//! The `data/` files shipped for the CLI reproduce the paper end-to-end
//! through the file-based path (CSV text + constraint text + rule text).

use trex::{ExplainRequest, Explainer, Players};
use trex_constraints::parse_dcs;
use trex_repair::{RepairAlgorithm, RuleRepair};
use trex_table::{read_csv_strings, CellRef, Value};

fn data(name: &str) -> String {
    let path = format!("{}/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn shipped_files_reproduce_figure_1() {
    let table = read_csv_strings(&data("laliga_dirty.csv")).unwrap();
    let dcs = parse_dcs(&data("laliga.dcs")).unwrap();
    let alg = RuleRepair::parse_rules(&data("algorithm1.rules")).unwrap();

    // Note: the CSV path types every column as Str (Year/Place become
    // strings), which must not change any result — the constraints only
    // use equality on those attributes.
    let cell = CellRef::new(4, table.schema().id("Country"));
    let out = Explainer::new(&alg)
        .explain(
            &dcs,
            &table,
            &ExplainRequest {
                cell,
                players: Players::Constraints,
            },
        )
        .unwrap();
    let exact: Vec<String> = out.exact.iter().map(|(n, r)| format!("{n}={r}")).collect();
    assert_eq!(exact, vec!["C1=1/6", "C2=1/6", "C3=2/3", "C4=0"]);
}

#[test]
fn shipped_files_repair_matches_the_library_tables() {
    let table = read_csv_strings(&data("laliga_dirty.csv")).unwrap();
    let dcs = parse_dcs(&data("laliga.dcs")).unwrap();
    let alg = RuleRepair::parse_rules(&data("algorithm1.rules")).unwrap();
    let result = alg.repair(&dcs, &table);
    assert_eq!(result.changes.len(), 2);
    let city = table.schema().id("City");
    let country = table.schema().id("Country");
    assert_eq!(result.clean.value(4, city), &Value::str("Madrid"));
    assert_eq!(result.clean.value(4, country), &Value::str("Spain"));
}

#[test]
fn shipped_files_repair_is_thread_count_invariant() {
    // The repair/violations paths share the explain path's --threads knob;
    // parallel violation detection must not change a single witness or fix.
    let table = read_csv_strings(&data("laliga_dirty.csv")).unwrap();
    let dcs = parse_dcs(&data("laliga.dcs")).unwrap();
    let resolved: Vec<_> = dcs
        .iter()
        .map(|d| d.resolved(table.schema()).unwrap())
        .collect();
    let serial = trex_constraints::find_all_violations_par(&resolved, &table, 1);
    for threads in [1usize, 2, 4] {
        assert_eq!(
            serial,
            trex_constraints::find_all_violations_par(&resolved, &table, threads)
        );
        let alg = RuleRepair::parse_rules(&data("algorithm1.rules"))
            .unwrap()
            .with_exec(&trex::ExecConfig::new().with_threads(threads));
        let result = alg.repair(&dcs, &table);
        assert_eq!(result.changes.len(), 2, "threads {threads}");
    }
}

#[test]
fn dcs_file_parses_all_four_constraints() {
    let dcs = parse_dcs(&data("laliga.dcs")).unwrap();
    assert_eq!(dcs.len(), 4);
    assert_eq!(
        dcs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
        vec!["C1", "C2", "C3", "C4"]
    );
}
