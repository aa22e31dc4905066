//! `serve_laliga_rw`: an in-process `trex-server` over the la Liga table,
//! driven by a closed loop of two clients (each sends its next request
//! when the previous answer is in). About 80% of requests read —
//! constraint explanations of the cells the repair changes, violation
//! lists, time-budgeted cell-explanation streams — and about 20% write:
//! cell edits, each reverted by the same client's next edit, and repairs.
//! Every edit flushes the shared oracle cache under the session's write
//! lock, so reads and writes contend for the `RwLock` and the cache.

use crate::http::{self, Logged, Req};
use crate::layers::{self, LayerSums};
use crate::probe::{ms_since, slowdown, TimedRepair};
use crate::report::{typical, Report};
use crate::{finish, raw, setups, Opts, Pass, Sample, SplitMix};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::time::Instant;
use trex::Session;
use trex_datagen::laliga;
use trex_repair::RepairAlgorithm;
use trex_server::{serve, ServerConfig, ServerHandle};
use trex_shapley::ExecConfig;
use trex_table::{CellRef, Table, Value};

/// Sampling threads per request.
pub const THREADS: usize = 1;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Server worker threads.
const HTTP_THREADS: usize = 2;
/// Time budget of a streamed cell explanation.
const STREAM_BUDGET_MS: u64 = 25;
/// Walks between a stream's checkpoints (the resolution of its
/// `completed` count).
const CHECKPOINT: usize = 2;
/// Requests a client sends between two samples of the slowdown.
const REFERENCE_EVERY: usize = 64;
/// Candidate edits drawn per client; at most `EDITS_KEPT` survive.
const EDIT_DRAWS: usize = 16;
const EDITS_KEPT: usize = 3;
/// The explained cell of the paper's Figure 1 and its exact values.
const FIGURE_1_CELL: &str = "t5.Country";
const FIGURE_1: [(&str, &str); 4] = [("C1", "1/6"), ("C2", "1/6"), ("C3", "2/3"), ("C4", "0")];

fn knobs() -> String {
    format!("threads={THREADS}")
}

fn exec() -> ExecConfig {
    ExecConfig::new().with_threads(THREADS)
}

fn session(alg: Box<dyn RepairAlgorithm>) -> Session {
    Session::new(alg, laliga::dirty_table(), laliga::constraints())
}

fn start(session: Session) -> std::io::Result<ServerHandle> {
    serve(
        session,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            http_threads: HTTP_THREADS,
        },
    )
}

/// A cell edit and the value that reverts it.
#[derive(Debug, Clone, Hash)]
struct Edit {
    cell: String,
    value: String,
    original: String,
}

/// The generated inputs: the explained cells, each client's edits, and
/// the violation count of the unedited table.
#[derive(Debug, Hash)]
struct Plan {
    rotating: Vec<String>,
    edits: Vec<Vec<Edit>>,
    violations: usize,
}

/// Whether every read of the mix still succeeds with `edits` applied:
/// each rotating cell is still repaired, so it can be explained.
fn edits_keep_reads_valid(edits: &[&Edit], rotating: &[String]) -> bool {
    let mut s = session(Box::new(laliga::algorithm1()));
    for e in edits {
        let Ok(cell) = http::parse_cell(s.table(), &e.cell) else {
            return false;
        };
        let dtype = s.table().schema().attr(cell.attr).dtype;
        let Ok(value) = Value::parse_as(&e.value, dtype) else {
            return false;
        };
        s.set_cell(cell, value);
    }
    rotating.iter().all(|spec| {
        http::parse_cell(s.table(), spec).is_ok_and(|cell| s.explain_constraints(cell).is_ok())
    })
}

/// Draw each client's edits from the seed: cells outside the explained
/// row, set to another value of their column, kept only when the reads
/// stay valid under them alone and under any pairing with the other
/// client's edits. Client 0 edits rows 1-3, client 1 rows 4 and 6, so
/// the two never edit the same cell.
fn plan(seed: u64) -> Plan {
    let table = laliga::dirty_table();
    let mut base = session(Box::new(laliga::algorithm1()));
    let violations = base.violations().map_or(0, |v| v.len());
    let rotating: Vec<String> = base
        .repair()
        .changes
        .iter()
        .map(|c| http::cell_spec(&table, c.cell))
        .collect();
    let rows: [&[usize]; CLIENTS] = [&[0, 1, 2], &[3, 5]];
    let mut rng = SplitMix(seed ^ 0x5eed_ed17);
    let mut edits: Vec<Vec<Edit>> = Vec::new();
    for client_rows in rows {
        let mut kept = Vec::new();
        for _ in 0..EDIT_DRAWS {
            if kept.len() == EDITS_KEPT {
                break;
            }
            let row = client_rows[rng.below(client_rows.len())];
            let attr = trex_table::AttrId(rng.below(table.arity()));
            let cell = CellRef::new(row, attr);
            let original = table.get(cell).render().into_owned();
            // Values must travel in a query string unescaped.
            let mut values: Vec<String> = table
                .column(attr)
                .map(|v| v.render().into_owned())
                .filter(|v| *v != original && v.chars().all(|c| c.is_ascii_alphanumeric()))
                .collect();
            values.sort();
            values.dedup();
            if values.is_empty() {
                continue;
            }
            let edit = Edit {
                cell: http::cell_spec(&table, cell),
                value: values[rng.below(values.len())].clone(),
                original,
            };
            let fits = !kept.iter().any(|k: &Edit| k.cell == edit.cell)
                && edits_keep_reads_valid(&[&edit], &rotating)
                && edits
                    .iter()
                    .flatten()
                    .all(|other| edits_keep_reads_valid(&[other, &edit], &rotating));
            if fits {
                kept.push(edit);
            }
        }
        if kept.is_empty() {
            // No safe change drawn: write a cell's own value back.
            let cell = CellRef::new(client_rows[0], trex_table::AttrId(0));
            let original = table.get(cell).render().into_owned();
            kept.push(Edit {
                cell: http::cell_spec(&table, cell),
                value: original.clone(),
                original,
            });
        }
        edits.push(kept);
    }
    Plan {
        rotating,
        edits,
        violations,
    }
}

/// What the clients saw, kept compact: the server runs in this process,
/// so bookkeeping that grew with the request count would show in
/// `peak_rss_mb` and make a faster server look bigger.
#[derive(Default)]
struct Tally {
    /// Non-streamed reads.
    request: Vec<Sample>,
    scan: Vec<Sample>,
    repair: Vec<Sample>,
    /// Cell edits and repairs, unscaled.
    write: Vec<f64>,
    /// Completed walks of each stream.
    walks: Vec<f64>,
    /// The client's latest slowdown.
    slowdown: f64,
    ops: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, l: &Logged) {
        self.ops += 1;
        if let Some(e) = &l.error {
            self.errors.push(e.clone());
            return;
        }
        let sample = Sample {
            ms: l.ms,
            slowdown: self.slowdown,
        };
        match l.req {
            Req::Violations => {
                self.scan.push(sample);
                self.request.push(sample);
            }
            Req::ExplainConstraints(_) => self.request.push(sample),
            Req::Cell { .. } => self.write.push(l.ms),
            Req::Repair => {
                self.write.push(l.ms);
                self.repair.push(sample);
            }
            Req::Stream { .. } => self.walks.extend(l.completed.map(|c| c as f64)),
            Req::Health => {}
        }
    }

    fn merge(&mut self, other: Tally) {
        self.request.extend(other.request);
        self.scan.extend(other.scan);
        self.write.extend(other.write);
        self.repair.extend(other.repair);
        self.walks.extend(other.walks);
        self.ops += other.ops;
        self.errors.extend(other.errors);
    }
}

/// One client's closed loop until `deadline` (and until it has sent every
/// kind of request once), then the revert of its outstanding edit. The full request log is kept only
/// when `keep_log` is set (for the traced replay).
fn client(
    addr: SocketAddr,
    plan: &Plan,
    c: usize,
    seed: u64,
    deadline: Instant,
    keep_log: bool,
) -> (Tally, Vec<Logged>) {
    let mut rng = SplitMix(seed.wrapping_add((c as u64 + 1) * 0x9e37_79b9));
    let mut tally = Tally::default();
    let mut log = Vec::new();
    let mut outstanding: Option<&Edit> = None;
    let mut next_edit = 0;
    let knobs = knobs();
    let edit_req = |e: &Edit, revert: bool| Req::Cell {
        cell: e.cell.clone(),
        value: if revert {
            e.original.clone()
        } else {
            e.value.clone()
        },
    };
    let kind = |req: &Req| match req {
        Req::ExplainConstraints(_) => 0,
        Req::Violations | Req::Health => 1,
        Req::Stream { .. } => 2,
        Req::Cell { .. } => 3,
        Req::Repair => 4,
    };
    let mut seen = 0u8;
    let mut send = |req: &Req| {
        if tally.ops.is_multiple_of(REFERENCE_EVERY as u64) {
            tally.slowdown = slowdown();
        }
        let l = http::logged(addr, req, &knobs);
        tally.add(&l);
        if keep_log {
            log.push(l);
        }
    };
    loop {
        let roll = rng.below(100);
        let req = if roll < 35 {
            Req::ExplainConstraints(plan.rotating[rng.below(plan.rotating.len())].clone())
        } else if roll < 76 {
            Req::Violations
        } else if roll < 80 {
            // Few enough that most writes do not wait behind a stream,
            // which holds the read lock for its whole budget.
            Req::Stream {
                cell: FIGURE_1_CELL.to_string(),
                seed: rng.next_u64() >> 16,
                budget_ms: STREAM_BUDGET_MS,
                checkpoint: CHECKPOINT,
            }
        } else if roll < 92 {
            match outstanding.take() {
                Some(e) => edit_req(e, true),
                None => {
                    let e = &plan.edits[c][next_edit % plan.edits[c].len()];
                    next_edit += 1;
                    outstanding = Some(e);
                    edit_req(e, false)
                }
            }
        } else {
            Req::Repair
        };
        seen |= 1 << kind(&req);
        send(&req);
        // Past the deadline, stop once every kind of request was sent.
        if Instant::now() >= deadline && seen == 0b11111 {
            break;
        }
    }
    if let Some(e) = outstanding {
        send(&edit_req(e, true));
    }
    (tally, log)
}

/// Drive the server with the closed loop, check the answers, and check
/// that the reverted table explains as in Figure 1.
fn load(
    o: &Opts,
    r: &mut Report,
    addr: SocketAddr,
    plan: &Plan,
    keep_log: bool,
) -> (Pass, Tally, Vec<Logged>) {
    let started = Instant::now();
    let deadline = started + o.seconds;
    let (tally, log) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(addr, plan, c, o.seed, deadline, keep_log)))
            .collect();
        let mut all = (Tally::default(), Vec::new());
        for w in workers {
            let (tally, log) = w.join().expect("client thread panicked");
            all.0.merge(tally);
            all.1.extend(log);
        }
        all
    });
    let wall_s = started.elapsed().as_secs_f64();
    r.tally(tally.ops, &tally.errors);
    let mut tally = tally;
    let pass = Pass {
        request: std::mem::take(&mut tally.request),
        scan: std::mem::take(&mut tally.scan),
        repair: std::mem::take(&mut tally.repair),
        ops: tally.ops,
        wall_s,
    };

    // After every edit is reverted: the paper's Figure 1, and the
    // original violations.
    let knobs = knobs();
    let exact = http::send(
        addr,
        &Req::ExplainConstraints(FIGURE_1_CELL.to_string()),
        &knobs,
    )
    .map_or_else(|(_, why)| why, |resp| resp.body);
    r.check(
        FIGURE_1
            .iter()
            .all(|(dc, v)| exact.contains(&format!("{{\"label\":\"{dc}\",\"value\":\"{v}\"}}"))),
        || format!("{FIGURE_1_CELL} after the reverts: {exact}"),
    );
    let count = http::send(addr, &Req::Violations, &knobs)
        .ok()
        .and_then(|resp| http::json_usize(&resp.body, "count"));
    r.check(count == Some(plan.violations), || {
        format!(
            "violations after the reverts: {count:?}, expected {}",
            plan.violations
        )
    });
    (pass, tally, log)
}

pub fn run(o: &Opts, r: &mut Report) {
    let plan = plan(o.seed);
    let mut digest = DefaultHasher::new();
    plan.hash(&mut digest);
    SplitMix(o.seed).next_u64().hash(&mut digest);
    r.inputs = digest.finish();
    r.lines.push(format!(
        "explained cells {:?}; edits {:?}",
        plan.rotating,
        plan.edits
            .iter()
            .map(|es| es
                .iter()
                .map(|e| format!("{}={}", e.cell, e.value))
                .collect::<Vec<_>>())
            .collect::<Vec<_>>()
    ));

    let (server, setup) = setups(301, || {
        let started = Instant::now();
        let (table, dcs) = (laliga::dirty_table(), laliga::constraints());
        let gen_ms = ms_since(started);
        let started = Instant::now();
        let server = start(Session::new(Box::new(laliga::algorithm1()), table, dcs));
        (server, gen_ms, ms_since(started))
    });
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            r.check(false, || format!("cannot start the server: {e}"));
            return;
        }
    };
    let (untraced, tally, _) = load(o, r, server.addr(), &plan, false);
    drop(server);
    if !o.trace {
        r.summarize("read_ms (non-streamed reads)", &raw(&untraced.request));
        r.summarize("violations_ms", &raw(&untraced.scan));
        r.summarize("write_ms (POST /cell, POST /repair)", &tally.write);
        r.summarize("repair_ms (POST /repair)", &raw(&untraced.repair));
        if let Some((w, stat)) = typical(&tally.walks) {
            r.lines.push(format!(
                "anytime_walks = {w} walks per {STREAM_BUDGET_MS} ms stream ({stat} of {})",
                tally.walks.len()
            ));
        }
        r.lines.push(format!(
            "req_per_s = {:.2} ({} requests, {CLIENTS} clients)",
            untraced.ops as f64 / untraced.wall_s,
            untraced.ops
        ));
        finish(r, o, &setup, &untraced, None);
        return;
    }

    // Traced: the same load against a session whose repair engine is
    // timed, then the served sequence replayed directly on a session.
    let timed = TimedRepair::new(laliga::algorithm1());
    let server = match start(session(Box::new(timed.clone()))) {
        Ok(s) => s,
        Err(e) => {
            r.check(false, || format!("cannot start the server: {e}"));
            return;
        }
    };
    let (traced, _, log) = load(o, r, server.addr(), &plan, true);
    http::health(r, server.addr());
    drop(server);
    let mut replay = session(Box::new(timed.clone()));
    let mut sums = LayerSums::default();
    http::replay_overhead(
        r,
        &log,
        &mut replay,
        &timed,
        timed.clock(),
        exec(),
        &mut sums,
    );
    sums.report(r);
    let table: Table = laliga::dirty_table();
    let cell = laliga::cell_of_interest(&table);
    let plain = laliga::algorithm1();
    layers::primitives(
        r,
        &table,
        &laliga::constraints(),
        THREADS,
        &plain,
        cell,
        o.seed,
    );
    finish(r, o, &setup, &untraced, Some(&traced));
}
