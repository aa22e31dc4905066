//! `cells_laliga`: the paper's masked cell game on the la Liga table (35
//! player cells). Each request is one round of the loop — violations,
//! Repair, then a cell explanation with a fixed walk budget and a fresh
//! seed — on one session whose bounded oracle cache all requests share.
//! Tens of thousands of microsecond repairs per second, so the sampling
//! walks and the oracle's bookkeeping dominate and table size does not
//! matter.

use crate::http::{self, Req};
use crate::layers::{self, LayerSums};
use crate::probe::{ms_since, slowdown, Clock, TimedRepair};
use crate::report::Report;
use crate::{finish, raw, setups, Opts, Pass, Sample, SplitMix};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use trex::{MaskMode, Session};
use trex_datagen::laliga;
use trex_repair::RepairAlgorithm;
use trex_shapley::{ExecConfig, SamplingConfig};
use trex_table::CellRef;

/// Sampling workers per request.
pub const THREADS: usize = 2;
/// Permutation walks per request.
const WALKS: usize = 200;
/// Oracle cache bound, in coalition answers. Small enough that the cache
/// fills within the first second of a run, so the rest of the run sees a
/// steady hit rate and steady memory instead of a cache that grows for as
/// long as the run lasts.
const ORACLE_CAP: usize = 1 << 16;

fn exec() -> ExecConfig {
    ExecConfig::new()
        .with_threads(THREADS)
        .with_oracle_cap(ORACLE_CAP)
}

fn session(alg: Box<dyn RepairAlgorithm>) -> Session {
    Session::new(alg, laliga::dirty_table(), laliga::constraints()).with_config(exec())
}

/// The seed of request `i`: a pure function of the run seed.
fn request_seed(seed: u64, i: u64) -> u64 {
    let mut rng = SplitMix(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
    rng.next_u64()
}

pub fn run(o: &Opts, r: &mut Report) {
    let (mut session, setup) = setups(1001, || {
        let started = Instant::now();
        let (table, dcs) = (laliga::dirty_table(), laliga::constraints());
        let gen_ms = ms_since(started);
        let started = Instant::now();
        let session = Session::new(Box::new(laliga::algorithm1()), table, dcs).with_config(exec());
        (session, gen_ms, ms_since(started))
    });
    let mut digest = DefaultHasher::new();
    (0..16)
        .map(|i| request_seed(o.seed, i))
        .for_each(|s| s.hash(&mut digest));
    r.inputs = digest.finish();
    let cell = laliga::cell_of_interest(session.table());
    let violations = session.violations().map_or(0, |v| v.len());
    let repaired = session.repair().changes.len();
    let walks = WALKS;
    let plain = laliga::algorithm1();
    let clock = Clock::default();

    let mut first: Option<(u64, Vec<f64>)> = None;
    let mut next_request = 0u64;
    let untraced = measure(o, r, &mut session, violations, repaired, |s, r| {
        let seed = request_seed(o.seed, next_request);
        next_request += 1;
        let sampling = SamplingConfig {
            samples: walks,
            seed,
        };
        let started = Instant::now();
        let e = s
            .explain_cells_masked_for(cell, MaskMode::Null, sampling, &exec())
            .map_err(|e| e.to_string())?;
        let ms = ms_since(started);
        let inp = layers::Inputs::of(s, &plain, &clock, exec());
        check_efficiency(r, &inp, cell, &e.target, &e.values);
        first.get_or_insert((seed, e.values));
        Ok(ms)
    });
    // Determinism: the same (seed, threads) on a fresh session, with a
    // cold private cache, gives bit-identical values.
    if let Some((seed, values)) = &first {
        let again = session_values(cell, *seed, walks);
        r.check(again.as_ref() == Ok(values), || {
            format!("seed {seed}: a fresh session gave different values")
        });
    }
    if !o.trace {
        let explain_ms = raw(&untraced.request);
        r.summarize("violations_ms", &raw(&untraced.scan));
        r.summarize("repair_ms", &raw(&untraced.repair));
        r.summarize("explain_cells_ms", &explain_ms);
        let walks_per_s =
            (explain_ms.len() * walks) as f64 / (explain_ms.iter().sum::<f64>() / 1e3);
        r.lines
            .push(format!("walks per explain-second = {walks_per_s:.1}"));
        finish(r, o, &setup, &untraced, None);
        return;
    }
    drop(session);

    let timed = TimedRepair::new(laliga::algorithm1());
    let mut session = self::session(Box::new(timed.clone()));
    let mut sums = LayerSums::default();
    let mut compared = false;
    let traced = measure(o, r, &mut session, violations, repaired, |s, r| {
        let seed = request_seed(o.seed, next_request);
        next_request += 1;
        let sampling = SamplingConfig {
            samples: walks,
            seed,
        };
        let inp = layers::Inputs::of(s, &timed, timed.clock(), exec());
        let started = Instant::now();
        let (values, _, target) = layers::explain_cells(&inp, cell, sampling, None, &mut sums)?;
        let ms = ms_since(started);
        check_efficiency(r, &inp, cell, &target, &values);
        // The rebuilt pipeline answers what the session answers.
        if !compared {
            compared = true;
            let direct = session_values(cell, seed, walks);
            r.check(direct.as_ref() == Ok(&values), || {
                format!("seed {seed}: the traced pipeline and the session disagree")
            });
        }
        Ok(ms)
    });
    drop(session);
    sums.report(r);
    let table = laliga::dirty_table();
    layers::primitives(
        r,
        &table,
        &laliga::constraints(),
        THREADS,
        &plain,
        cell,
        o.seed,
    );

    // The served replay: the same calls over HTTP and directly.
    let round = [
        Req::Violations,
        Req::Repair,
        http::identity_edit(&table),
        Req::ExplainConstraints(http::cell_spec(&table, cell)),
    ];
    let reqs: Vec<Req> = round
        .iter()
        .cycle()
        .take(20 * round.len())
        .cloned()
        .collect();
    http::probe(
        r,
        self::session(Box::new(laliga::algorithm1())),
        &reqs,
        &format!("threads={THREADS}&oracle-cap={ORACLE_CAP}"),
        &mut self::session(Box::new(timed.clone())),
        &timed,
        timed.clock(),
        exec(),
    );
    finish(r, o, &setup, &untraced, Some(&traced));
}

/// A fresh session's values for `(seed, THREADS)`.
fn session_values(cell: CellRef, seed: u64, walks: usize) -> Result<Vec<f64>, String> {
    let sampling = SamplingConfig {
        samples: walks,
        seed,
    };
    session(Box::new(laliga::algorithm1()))
        .explain_cells_masked_for(cell, MaskMode::Null, sampling, &exec())
        .map(|e| e.values)
        .map_err(|e| e.to_string())
}

/// Requests until the time is up (at least one): a scan, a repair, and
/// the explain `explain` makes and times.
fn measure(
    o: &Opts,
    r: &mut Report,
    session: &mut Session,
    violations: usize,
    repaired: usize,
    mut explain: impl FnMut(&Session, &mut Report) -> Result<f64, String>,
) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    loop {
        // One kernel sample per round: the round takes about 0.1 s.
        let slowdown = slowdown();
        let t = Instant::now();
        let got = session.violations().map(|v| v.len());
        pass.scan.push(Sample {
            ms: ms_since(t),
            slowdown,
        });
        r.check(got == Ok(violations), || {
            format!("violation count {got:?}, expected {violations}")
        });
        let t = Instant::now();
        let got = session.repair().changes.len();
        pass.repair.push(Sample {
            ms: ms_since(t),
            slowdown,
        });
        r.check(got == repaired, || {
            format!("repair changed {got} cells, expected {repaired}")
        });
        match explain(session, r) {
            Ok(ms) => pass.request.push(Sample { ms, slowdown }),
            Err(e) => r.check(false, || format!("explain: {e}")),
        }
        pass.ops += 3;
        if started.elapsed() >= o.seconds {
            break;
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// Efficiency: the estimates sum to `v(N) - v(∅)` (every permutation walk
/// telescopes), up to floating-point rounding.
fn check_efficiency(
    r: &mut Report,
    inp: &layers::Inputs<'_>,
    cell: CellRef,
    target: &trex_table::Value,
    values: &[f64],
) {
    let gap = layers::grand_minus_empty(inp, cell, target, true);
    let residual = (values.iter().sum::<f64>() - gap).abs();
    r.check(residual <= 1e-9, || {
        format!("efficiency residual {residual:e} > 1e-9")
    });
}
