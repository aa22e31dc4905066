//! Scenario-corpus determinism and skew regression (cross-crate:
//! `trex-datagen` scenarios driving the `trex-constraints` parallel
//! violation scan).
//!
//! The contracts under test:
//!
//! * **Byte-identity** — the same `(seed, ScenarioConfig)` yields a
//!   byte-identical clean table and `InjectionResult` on every run, for all
//!   four schemas, pinned against committed golden fingerprints so drift
//!   across *processes and machines* (not just within one run) fails loudly;
//! * **Thread-independence** — generation is single-threaded by design, so
//!   the fingerprints must not move under `TREX_TEST_THREADS` (CI re-runs
//!   this file at 1/2/4/8 threads);
//! * **Exact error accounting** — with `ErrorRates` set, the injected-cell
//!   count is exactly `floor(eligible × total_rate)` on every schema, every
//!   ground-truth cell differs from the clean value, and zero rates are a
//!   no-op;
//! * **Skew regression** — a Zipf-keyed 100k-row sensor table (one giant
//!   equality bucket) through `find_all_violations_par` returns the
//!   serial witness list, in order, at 1/2/4/8 threads;
//! * **Scan ≡ reference** — on every schema, the scan finds per DC exactly
//!   the witnesses of the nested-loop reference `find_violations`, at
//!   1/2/4/8 threads, including for the dead DCs it skips.

use trex_constraints::{
    find_all_violations_par, find_violations, find_violations_par, generate_dcs,
    statically_unviolable, DcGenConfig, DenialConstraint, Violation,
};
use trex_datagen::{generate_scenario, ErrorRates, ScenarioConfig, SchemaKind};
use trex_table::{CellRef, EncodedTable};

/// The thread counts a sweep exercises: `base`, plus the CI thread-matrix
/// count from `TREX_TEST_THREADS` when set.
fn thread_counts(base: &[usize]) -> Vec<usize> {
    let mut counts = base.to_vec();
    if let Ok(raw) = std::env::var("TREX_TEST_THREADS") {
        let extra: usize = raw
            .parse()
            .expect("TREX_TEST_THREADS must be a thread count");
        assert!(extra >= 1, "TREX_TEST_THREADS must be >= 1");
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

/// The corpus member each golden pin covers: 600-row target, seed 42, exact
/// rates at 1% total. Do not change without re-pinning the fingerprints.
fn golden_config(schema: SchemaKind) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(schema, 600, 42);
    config.error.rates = Some(ErrorRates::split(0.01));
    config
}

/// Committed golden fingerprints (FNV-1a over clean CSV, dirty CSV, and the
/// ground-truth diff). A change here means generated bytes moved — that is
/// a breaking change to the corpus, not a refresh to wave through: every
/// downstream experiment seeded from these scenarios silently shifts.
const GOLDEN: [(SchemaKind, u64); 4] = [
    (SchemaKind::Laliga, 0x6912_b5ac_492d_c785),
    (SchemaKind::Soccer, 0xd848_e518_37c2_bf81),
    (SchemaKind::Adult, 0x7fe8_df14_4518_7575),
    (SchemaKind::Sensor, 0xebdc_5ba4_9bb6_f674),
];

#[test]
fn fingerprints_match_the_committed_goldens() {
    for (schema, expected) in GOLDEN {
        let got = generate_scenario(&golden_config(schema)).fingerprint();
        assert_eq!(
            got, expected,
            "{schema}: fingerprint {got:#018x} != golden {expected:#018x} — \
             generated bytes moved; if intentional, re-pin GOLDEN"
        );
    }
}

#[test]
fn repeated_generation_is_byte_identical_under_any_thread_env() {
    // TREX_TEST_THREADS changes nothing: generation is single-threaded, so
    // the fingerprint (and the full InjectionResult) must be stable across
    // repeated runs in the same process regardless of the env matrix.
    for schema in SchemaKind::ALL {
        let config = golden_config(schema);
        let first = generate_scenario(&config);
        for _ in 0..2 {
            let again = generate_scenario(&config);
            assert_eq!(first.clean, again.clean, "{schema}: clean drifted");
            assert_eq!(
                first.injection, again.injection,
                "{schema}: injection drifted"
            );
            assert_eq!(first.fingerprint(), again.fingerprint(), "{schema}");
        }
    }
}

#[test]
fn exact_rates_account_every_cell_on_every_schema() {
    for schema in SchemaKind::ALL {
        let config = golden_config(schema);
        let scenario = generate_scenario(&config);
        let eligible = scenario.clean.num_cells();
        let want = (eligible as f64 * 0.01).floor() as usize;
        assert_eq!(
            scenario.injection.truth.len(),
            want,
            "{schema}: exact accounting must hit floor({eligible} × 0.01)"
        );
        for ch in &scenario.injection.truth {
            // `truth` maps dirty → clean, so `to` is the clean value and
            // `from` the corruption; a no-op entry would mean the injector
            // counted a cell it never changed.
            assert_ne!(ch.from, ch.to, "{schema}: no-op ground-truth entry");
        }
    }
}

#[test]
fn zero_rates_are_a_no_op_on_every_schema() {
    for schema in SchemaKind::ALL {
        let mut config = golden_config(schema);
        config.error.rates = Some(ErrorRates::default());
        let scenario = generate_scenario(&config);
        assert_eq!(scenario.clean, scenario.injection.dirty, "{schema}");
        assert!(scenario.injection.truth.is_empty(), "{schema}");
    }
}

#[test]
fn dictionary_encoding_preserves_the_goldens_and_the_witness_lists() {
    // The columnar-core contract on the whole corpus: routing every table
    // through per-column dictionary encoding is invisible. For each golden
    // scenario the fingerprint still matches the committed pin, the
    // encoded dirty table decodes cell-for-cell to the original, and the
    // (dictionary-backed) parallel violation scan returns the serial
    // witness list, in order, at 1/2/4/8 threads.
    for (schema, expected) in GOLDEN {
        let scenario = generate_scenario(&golden_config(schema));
        assert_eq!(
            scenario.fingerprint(),
            expected,
            "{schema}: fingerprint moved under the encoded pipeline"
        );

        let dirty = scenario.dirty();
        let encoded = EncodedTable::encode(dirty);
        assert_eq!(encoded.num_rows(), dirty.num_rows(), "{schema}");
        assert_eq!(encoded.arity(), dirty.schema().arity(), "{schema}");
        for row in 0..dirty.num_rows() {
            for (attr, _) in dirty.schema().iter() {
                assert_eq!(
                    encoded.decode(row, attr),
                    dirty.value(row, attr),
                    "{schema}: encode/decode corrupted t{row}[{attr}]"
                );
            }
        }

        let resolved: Vec<DenialConstraint> = scenario
            .constraints
            .iter()
            .map(|d| d.resolved(dirty.schema()).unwrap())
            .collect();
        let serial = find_all_violations_par(&resolved, dirty, 1);
        for threads in thread_counts(&[2, 4, 8]) {
            let par = find_all_violations_par(&resolved, dirty, threads);
            assert_eq!(
                serial, par,
                "{schema} @ {threads} thread(s): witness list diverged"
            );
        }
    }
}

#[test]
fn zipf_skewed_violation_scan_is_serial_identical_at_any_thread_count() {
    // The skew regression: a 100k-row sensor table whose Zipf-keyed
    // SensorId column concentrates a few percent of all rows in one
    // equality bucket — the shape the giant-bucket block splitter exists
    // for. The parallel scan must return the serial witness list, in
    // order, at every thread count.
    let mut config = ScenarioConfig::new(SchemaKind::Sensor, 100_000, 7);
    config.sensor.skew = 0.8;
    config.error.rates = Some(ErrorRates::split(0.0005));
    let scenario = generate_scenario(&config);
    let dirty = scenario.dirty();
    let resolved: Vec<DenialConstraint> = scenario
        .constraints
        .iter()
        .map(|d| d.resolved(dirty.schema()).unwrap())
        .collect();

    let serial = find_all_violations_par(&resolved, dirty, 1);
    assert!(
        !serial.is_empty(),
        "injected errors must produce violations for the sweep to mean anything"
    );
    for threads in thread_counts(&[2, 4, 8]) {
        let par = find_all_violations_par(&resolved, dirty, threads);
        assert_eq!(
            serial, par,
            "{threads} thread(s): witness list diverged from serial"
        );
    }
}

/// A witness list as an order-free set: sorted by rows, cells sorted.
fn as_set(vs: Vec<Violation>) -> Vec<(usize, Option<usize>, Vec<CellRef>)> {
    let mut out: Vec<_> = vs
        .into_iter()
        .map(|v| {
            let mut cells = v.cells;
            cells.sort();
            (v.row1, v.row2, cells)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn scan_finds_the_reference_witnesses_per_dc_on_every_schema() {
    // The differential check behind every scan: on a small dirty table of
    // each schema, run the schema's own constraints plus generated ones —
    // FD- and order-shaped, one redundant copy, and two dead DCs the
    // analyzer proves unviolable — and compare each DC's witnesses with
    // the brute-force nested loop. The dead DCs pin the always-on prune:
    // skipping them must agree with a reference that scans every pair.
    let gen = DcGenConfig {
        count: 4,
        max_lhs: 2,
        order_fraction: 0.5,
        seed: 13,
        redundant: 1,
        unsat: 2,
    };
    for schema in SchemaKind::ALL {
        let mut config = ScenarioConfig::new(schema, 300, 42);
        config.error.rates = Some(ErrorRates::split(0.02));
        let scenario = generate_scenario(&config);
        let dirty = scenario.dirty();
        let dcs: Vec<DenialConstraint> = scenario
            .constraints
            .iter()
            .cloned()
            .chain(generate_dcs(dirty.schema(), &gen))
            .map(|d| d.resolved(dirty.schema()).unwrap())
            .collect();
        let dead = dcs
            .iter()
            .filter(|dc| statically_unviolable(dc).is_some())
            .count();
        assert_eq!(
            dead, gen.unsat,
            "{schema}: the dead DCs must be proven dead"
        );
        let reference: Vec<_> = dcs
            .iter()
            .map(|dc| as_set(find_violations(dc, dirty)))
            .collect();
        assert!(
            reference.iter().any(|w| !w.is_empty()),
            "{schema}: the dirty table must violate something"
        );
        for threads in thread_counts(&[1, 2, 4, 8]) {
            let mut per_dc = Vec::new();
            for (dc, want) in dcs.iter().zip(&reference) {
                let got = find_violations_par(dc, dirty, threads);
                assert_eq!(
                    &as_set(got.clone()),
                    want,
                    "{schema} @ {threads} thread(s): {} diverged from the reference",
                    dc.name
                );
                per_dc.extend(got);
            }
            assert_eq!(
                find_all_violations_par(&dcs, dirty, threads),
                per_dc,
                "{schema} @ {threads} thread(s): the all-DC scan is not the per-DC concatenation"
            );
        }
    }
}
