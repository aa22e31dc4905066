//! `stress_soccer50k`: the soccer scenario at 50k rows. Rounds of the
//! interactive loop — look at the violations, press Repair, explain the
//! constraints of the next repaired cell — where every explained cell is
//! distinct, so its 16 coalition repairs all miss the oracle and each miss
//! clones, re-encodes and rescans the table. `table`, `constraints` and
//! `repair` carry the load; the exact Shapley solver does almost nothing.

use crate::http::{self, Req};
use crate::layers::{self, LayerSums};
use crate::probe::{ms_since, table_slowdown, Clock, TimedRepair};
use crate::report::Report;
use crate::{finish, raw, setups, Opts, Pass, Sample, SplitMix};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use trex::Session;
use trex_constraints::DenialConstraint;
use trex_datagen::{generate_scenario, ErrorRates, ScenarioConfig, SchemaKind};
use trex_repair::{RepairAlgorithm, RuleRepair};
use trex_shapley::ExecConfig;
use trex_table::{CellRef, Table};

/// Worker threads of the session (scans, repair engine, explanation).
pub const THREADS: usize = 2;
/// Scenario size and error rate.
const ROWS: usize = 50_000;
const ERROR_RATE: f64 = 1e-4;
/// Violation scans and repairs per round: a round takes 10 to 14 s, so a
/// 30 s run has three, and 21 scans and repairs for a median.
const SCANS_PER_ROUND: usize = 7;
const REPAIRS_PER_ROUND: usize = 7;

/// The scenario is the corpus member of this seed at every `--seed`, and
/// `--seed` draws the order of the explained cells. At 29 injected errors
/// the scenario's cost depends strongly on where they land (seeds 1-3
/// give 138 to 280 violations, and scans that differ by 1.8x), so a
/// per-seed scenario would make the spread between runs a property of the
/// data instead of the code.
const SCENARIO_SEED: u64 = 0;
/// Facts of the scenario: injected errors, violations, repaired cells.
const FACTS: (usize, usize, usize) = (29, 190, 23);
/// `Scenario::fingerprint` of the scenario (clean table, dirty table and
/// injected errors).
const FINGERPRINT: u64 = 0xa737_35ce_9b24_6f73;

fn exec() -> ExecConfig {
    ExecConfig::new().with_threads(THREADS)
}

struct Inputs {
    table: Table,
    dcs: Vec<DenialConstraint>,
    repairer: RuleRepair,
}

impl Inputs {
    fn session(&self, alg: Box<dyn RepairAlgorithm>) -> Session {
        Session::new(alg, self.table.clone(), self.dcs.clone()).with_config(exec())
    }
}

/// The distinct cells explained one after another: every repaired cell in
/// a seed-drawn order. Wrapping around flushes the oracle so the cells
/// stay cold.
struct CellQueue {
    cells: Vec<CellRef>,
    next: usize,
}

impl CellQueue {
    /// The next cell, and whether the queue wrapped around to it.
    fn pop(&mut self) -> (CellRef, bool) {
        let wrapped = self.next > 0 && self.next.is_multiple_of(self.cells.len());
        let cell = self.cells[self.next % self.cells.len()];
        self.next += 1;
        (cell, wrapped)
    }
}

pub fn run(o: &Opts, r: &mut Report) {
    let config = {
        let mut c = ScenarioConfig::new(SchemaKind::Soccer, ROWS, SCENARIO_SEED);
        c.error.rates = Some(ErrorRates::split(ERROR_RATE));
        // The stress harness's donor skew, which the seed-0 facts assume.
        c.error.duplicate_skew = 1.2;
        c
    };
    let mut fingerprints = Vec::new();
    let mut injected = 0;
    let ((inputs, mut session), setup) = setups(21, || {
        let started = Instant::now();
        let scenario = generate_scenario(&config);
        let gen_ms = ms_since(started);
        fingerprints.push(scenario.fingerprint());
        injected = scenario.injection.truth.len();
        let inputs = Inputs {
            table: scenario.injection.dirty,
            dcs: scenario.constraints,
            repairer: scenario.repairer.with_exec(&exec()),
        };
        let started = Instant::now();
        let session = inputs.session(Box::new(inputs.repairer.clone()));
        let session_ms = ms_since(started);
        ((inputs, session), gen_ms, session_ms)
    });
    for f in &fingerprints {
        r.check(*f == FINGERPRINT, || {
            format!("scenario fingerprint {f:016x}, expected {FINGERPRINT:016x}")
        });
    }

    let repaired: Vec<CellRef> = session.repair().changes.iter().map(|c| c.cell).collect();
    let violations = session.violations().map_or(0, |v| v.len());
    r.check(!repaired.is_empty(), || {
        "the repair changes no cell".to_string()
    });
    r.lines.push(format!(
        "scenario: {} rows, {injected} injected errors, {violations} violations, {} repaired cells, \
         fingerprint {:016x}",
        inputs.table.num_rows(),
        repaired.len(),
        fingerprints[0]
    ));
    r.check((injected, violations, repaired.len()) == FACTS, || {
        format!(
            "(errors, violations, repaired) = ({injected}, {violations}, {}), \
             expected {FACTS:?}",
            repaired.len()
        )
    });
    let mut order = repaired.clone();
    let mut rng = SplitMix(o.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut digest = DefaultHasher::new();
    (fingerprints[0], &order).hash(&mut digest);
    r.inputs = digest.finish();
    let mut queue = CellQueue {
        cells: order,
        next: 0,
    };
    let plain: &dyn RepairAlgorithm = &inputs.repairer;
    let clock = Clock::default();

    let untraced = measure(
        o,
        r,
        &mut session,
        &mut queue,
        violations,
        repaired.len(),
        |s, cell, r| {
            let started = Instant::now();
            let e = s.explain_constraints(cell).map_err(|e| e.to_string())?;
            let ms = ms_since(started);
            let inp = layers::Inputs::of(s, plain, &clock, exec());
            check_efficiency(
                r,
                &inp,
                cell,
                &e.target,
                &e.exact.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            );
            Ok(ms)
        },
    );
    if !o.trace {
        r.summarize("violations_ms", &raw(&untraced.scan));
        r.summarize("repair_ms", &raw(&untraced.repair));
        r.summarize(
            "explain_constraints_ms (per cold cell)",
            &raw(&untraced.request),
        );
        finish(r, o, &setup, &untraced, None);
        return;
    }
    drop(session);

    // The traced pass explains the same cells in the same order.
    queue.next = 0;
    let timed = TimedRepair::new(inputs.repairer.clone());
    let mut session = inputs.session(Box::new(timed.clone()));
    let mut sums = LayerSums::default();
    let mut compared = false;
    let traced = measure(
        o,
        r,
        &mut session,
        &mut queue,
        violations,
        repaired.len(),
        |s, cell, r| {
            let inp = layers::Inputs::of(s, &timed, timed.clock(), exec());
            let started = Instant::now();
            let (exact, target) = layers::explain_constraints(&inp, cell, &mut sums)?;
            let ms = ms_since(started);
            check_efficiency(r, &inp, cell, &target, &exact);
            // The rebuilt pipeline answers what the session answers.
            if !compared {
                compared = true;
                let direct = s
                    .explain_constraints(cell)
                    .map(|e| e.exact.into_iter().map(|(_, v)| v).collect::<Vec<_>>());
                r.check(direct.as_ref() == Ok(&exact), || {
                    format!("{cell}: the traced pipeline and the session disagree")
                });
            }
            Ok(ms)
        },
    );
    drop(session);
    sums.report(r);
    // The cold misses' repairs are the explain's work.
    let share = sums.repair_busy_ms / sums.wall_ms;
    r.check((0.5..=1.0).contains(&share), || {
        format!("repair.busy_ms is {share:.3} of the explain wall time, expected 0.5 to 1")
    });
    layers::primitives(
        r,
        &inputs.table,
        &inputs.dcs,
        THREADS,
        plain,
        repaired[0],
        o.seed,
    );

    // The served replay: the same calls over HTTP and directly.
    let cell = http::cell_spec(&inputs.table, queue.pop().0);
    let mut reqs = vec![
        Req::Violations,
        Req::Repair,
        http::identity_edit(&inputs.table),
    ];
    reqs = reqs.iter().cycle().take(3 * reqs.len()).cloned().collect();
    reqs.push(Req::ExplainConstraints(cell));
    http::probe(
        r,
        inputs.session(Box::new(inputs.repairer.clone())),
        &reqs,
        &format!("threads={THREADS}"),
        &mut inputs.session(Box::new(timed.clone())),
        &timed,
        timed.clock(),
        exec(),
    );
    finish(r, o, &setup, &untraced, Some(&traced));
}

/// Rounds of the loop until the time is up (at least one round): scans,
/// a repair, and one explain through `explain`, which returns its latency.
#[allow(clippy::too_many_arguments)]
fn measure(
    o: &Opts,
    r: &mut Report,
    session: &mut Session,
    queue: &mut CellQueue,
    violations: usize,
    repaired: usize,
    mut explain: impl FnMut(&Session, CellRef, &mut Report) -> Result<f64, String>,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    loop {
        // The table kernel takes about 0.1 s, so it is sampled between the
        // round's three blocks, and each block is scaled by the mean of the
        // samples before and after it.
        let mut ms = Vec::with_capacity(SCANS_PER_ROUND.max(REPAIRS_PER_ROUND));
        let before = table_slowdown();
        for _ in 0..SCANS_PER_ROUND {
            let t = Instant::now();
            let got = session.violations().map(|v| v.len());
            ms.push(ms_since(t));
            r.check(got == Ok(violations), || {
                format!("violation count {got:?}, expected {violations}")
            });
        }
        let after = table_slowdown();
        pass.scan.extend(ms.drain(..).map(|ms| Sample {
            ms,
            slowdown: (before + after) / 2.0,
        }));
        let before = after;
        for _ in 0..REPAIRS_PER_ROUND {
            let t = Instant::now();
            let got = session.repair().changes.len();
            ms.push(ms_since(t));
            r.check(got == repaired, || {
                format!("repair changed {got} cells, expected {repaired}")
            });
        }
        let after = table_slowdown();
        pass.repair.extend(ms.drain(..).map(|ms| Sample {
            ms,
            slowdown: (before + after) / 2.0,
        }));
        let before = after;
        let (cell, wrapped) = queue.pop();
        if wrapped {
            session.flush_oracle_cache();
        }
        match explain(session, cell, r) {
            Ok(ms) => {
                let after = table_slowdown();
                pass.request.push(Sample {
                    ms,
                    slowdown: (before + after) / 2.0,
                });
            }
            Err(e) => r.check(false, || format!("explain {cell}: {e}")),
        }
        pass.ops += (SCANS_PER_ROUND + REPAIRS_PER_ROUND + 1) as u64;
        if started.elapsed() >= o.seconds {
            break;
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// Efficiency: the exact constraint values sum to `v(N) - v(∅)`.
fn check_efficiency(
    r: &mut Report,
    inp: &layers::Inputs<'_>,
    cell: CellRef,
    target: &trex_table::Value,
    exact: &[trex_shapley::Rational],
) {
    let gap = layers::grand_minus_empty(inp, cell, target, false);
    let sum = layers::rational_sum(exact);
    r.check(sum.num == gap as i128 * sum.den, || {
        format!("{cell}: constraint values sum to {sum}, v(N) - v(∅) = {gap}")
    });
}
