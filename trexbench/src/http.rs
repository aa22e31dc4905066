//! The server-facing half of the benchmark: requests, a minimal HTTP
//! client, the same requests made directly on a `Session`, and the
//! per-endpoint HTTP overhead that the difference gives.

use crate::layers::{self, LayerSums};
use crate::probe::{ms_since, Clock};
use crate::report::{typical, Report, ENDPOINTS};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use trex::Session;
use trex_repair::RepairAlgorithm;
use trex_shapley::{ExecConfig, SamplingConfig};
use trex_table::{CellRef, Table, Value};

/// Walk budget of a streamed explain: far more than any time budget
/// allows, so the `budget_ms` deadline always ends the stream.
pub const STREAM_SAMPLES: usize = 1_000_000;

/// One request of the served mix.
#[derive(Debug, Clone)]
pub enum Req {
    Health,
    Violations,
    /// `GET /explain?kind=constraints` for a `tROW.Attr` cell.
    ExplainConstraints(String),
    /// Streamed `GET /explain?kind=cells` with a time budget.
    Stream {
        cell: String,
        seed: u64,
        budget_ms: u64,
        checkpoint: usize,
    },
    /// `POST /cell`: set a cell to a value.
    Cell {
        cell: String,
        value: String,
    },
    Repair,
}

impl Req {
    /// The endpoint name used in metric names.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Req::Health => "health",
            Req::Violations => "violations",
            Req::ExplainConstraints(_) => "explain_constraints",
            Req::Stream { .. } => "explain_stream",
            Req::Cell { .. } => "cell",
            Req::Repair => "repair",
        }
    }

    /// Method and target, with the workload's execution knobs appended.
    fn target(&self, knobs: &str) -> (&'static str, String) {
        match self {
            Req::Health => ("GET", "/health".to_string()),
            Req::Violations => ("GET", format!("/violations?{knobs}")),
            Req::ExplainConstraints(cell) => (
                "GET",
                format!("/explain?kind=constraints&cell={cell}&{knobs}"),
            ),
            Req::Stream {
                cell,
                seed,
                budget_ms,
                checkpoint,
            } => (
                "GET",
                format!(
                    "/explain?kind=cells&cell={cell}&samples={STREAM_SAMPLES}&budget_ms={budget_ms}\
                     &checkpoint={checkpoint}&seed={seed}&{knobs}"
                ),
            ),
            Req::Cell { cell, value } => {
                ("POST", format!("/cell?cell={cell}&value={value}&{knobs}"))
            }
            Req::Repair => ("POST", format!("/repair?{knobs}")),
        }
    }
}

/// A checked response.
pub struct Resp {
    pub status: u16,
    pub body: String,
    /// The `completed` walks of a stream's final line.
    pub completed: Option<usize>,
}

/// Send `req` over a fresh connection and check the answer: a 2xx status,
/// a JSON body, and for a stream, JSON on every line ending in the final
/// line. `Err` carries the reason (status 503 included, as a refusal).
pub fn send(addr: SocketAddr, req: &Req, knobs: &str) -> Result<Resp, (u16, String)> {
    let (method, target) = req.target(knobs);
    let io = |e: std::io::Error| (0, format!("{target}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
    )
    .map_err(io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io)?;
    let bad = |status: u16, why: String| (status, format!("{target}: {why}"));
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad(0, "no header/body split".to_string()))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(0, "no status".to_string()))?;
    if !(200..300).contains(&status) {
        return Err(bad(status, format!("status {status}: {body}")));
    }
    let chunked = head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked");
    if !chunked {
        trex_server::json::validate(body).map_err(|e| bad(status, format!("body: {e}")))?;
        return Ok(Resp {
            status,
            body: body.to_string(),
            completed: None,
        });
    }
    let mut payload = String::new();
    let mut rest = body;
    loop {
        let (size_line, tail) = rest
            .split_once("\r\n")
            .ok_or_else(|| bad(status, "truncated chunk".to_string()))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(status, format!("chunk size {size_line:?}")))?;
        if size == 0 {
            break;
        }
        if tail.len() < size + 2 {
            return Err(bad(status, "truncated chunk".to_string()));
        }
        payload.push_str(&tail[..size]);
        rest = &tail[size + 2..];
    }
    let lines: Vec<&str> = payload.lines().collect();
    for line in &lines {
        trex_server::json::validate(line).map_err(|e| bad(status, format!("line {line}: {e}")))?;
    }
    let last = lines
        .last()
        .ok_or_else(|| bad(status, "empty stream".to_string()))?;
    if !last.starts_with("{\"final\":true,") {
        return Err(bad(
            status,
            format!("stream ends without a final line: {last}"),
        ));
    }
    Ok(Resp {
        status,
        completed: json_usize(last, "completed"),
        body: payload,
    })
}

/// The unsigned integer after `"key":` in a flat JSON text.
pub fn json_usize(text: &str, key: &str) -> Option<usize> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Parse a `tROW.Attr` cell spec (1-based row), as the server does.
pub fn parse_cell(table: &Table, spec: &str) -> Result<CellRef, String> {
    let (row, attr) = spec
        .strip_prefix('t')
        .and_then(|s| s.split_once('.'))
        .ok_or_else(|| format!("cell {spec:?}"))?;
    let row: usize = row.parse().map_err(|_| format!("cell {spec:?}"))?;
    let attr = table
        .schema()
        .resolve(attr)
        .ok_or_else(|| format!("cell {spec:?}"))?;
    if row == 0 || row > table.num_rows() {
        return Err(format!("cell {spec:?}: row out of range"));
    }
    Ok(CellRef::new(row - 1, attr))
}

/// The `tROW.Attr` spec of a cell.
pub fn cell_spec(table: &Table, cell: CellRef) -> String {
    format!("t{}.{}", cell.row + 1, table.schema().attr(cell.attr).name)
}

/// An edit that writes `t1.Year`'s own value back: it takes the write
/// lock and flushes the oracle like any edit, but changes no answer.
pub fn identity_edit(table: &Table) -> Req {
    let attr = table
        .schema()
        .resolve("Year")
        .expect("the workloads' schemas have a Year");
    let cell = CellRef::new(0, attr);
    Req::Cell {
        cell: cell_spec(table, cell),
        value: table.get(cell).render().into_owned(),
    }
}

/// Make `req` directly on `session` through the library, timing the
/// explains through the traced pipelines into `sums`. Returns the
/// completed walks of a stream.
pub fn direct(
    session: &mut Session,
    alg: &dyn RepairAlgorithm,
    clock: &Clock,
    exec: ExecConfig,
    req: &Req,
    sums: &mut LayerSums,
) -> Result<Option<usize>, String> {
    match req {
        Req::Health => Ok(None),
        Req::Violations => session
            .violations_for(&exec)
            .map(|v| {
                std::hint::black_box(v);
                None
            })
            .map_err(|e| e.to_string()),
        Req::ExplainConstraints(spec) => {
            let cell = parse_cell(session.table(), spec)?;
            let inp = layers::Inputs {
                alg,
                repair_clock: clock,
                cache: session.oracle_cache(),
                dcs: session.constraints(),
                table: session.table(),
                exec,
            };
            layers::explain_constraints(&inp, cell, sums).map(|_| None)
        }
        Req::Stream {
            cell,
            seed,
            budget_ms,
            checkpoint,
        } => {
            let cell = parse_cell(session.table(), cell)?;
            let inp = layers::Inputs {
                alg,
                repair_clock: clock,
                cache: session.oracle_cache(),
                dcs: session.constraints(),
                table: session.table(),
                exec,
            };
            let sampling = SamplingConfig {
                samples: STREAM_SAMPLES,
                seed: *seed,
            };
            let budget = (Duration::from_millis(*budget_ms), *checkpoint);
            layers::explain_cells(&inp, cell, sampling, Some(budget), sums)
                .map(|(_, completed, _)| Some(completed))
        }
        Req::Cell { cell, value } => {
            let cell = parse_cell(session.table(), cell)?;
            let dtype = session.table().schema().attr(cell.attr).dtype;
            let value = Value::parse_as(value, dtype).map_err(|e| e.to_string())?;
            session.set_cell(cell, value);
            Ok(None)
        }
        Req::Repair => {
            std::hint::black_box(session.repair());
            Ok(None)
        }
    }
}

/// One request as a client saw it.
#[derive(Debug, Clone)]
pub struct Logged {
    pub req: Req,
    pub started: Instant,
    pub ms: f64,
    pub status: u16,
    pub completed: Option<usize>,
    /// Why the request failed, if it did.
    pub error: Option<String>,
}

/// Send `req` and log what the client saw.
pub fn logged(addr: SocketAddr, req: &Req, knobs: &str) -> Logged {
    let started = Instant::now();
    let got = send(addr, req, knobs);
    let ms = ms_since(started);
    let (status, completed, error) = match got {
        Ok(resp) => (resp.status, resp.completed, None),
        Err((status, why)) => (status, None, Some(why)),
    };
    Logged {
        req: req.clone(),
        started,
        ms,
        status,
        completed,
        error,
    }
}

/// Send `reqs` one after another from a single client, checking each.
pub fn send_all(addr: SocketAddr, reqs: &[Req], knobs: &str, r: &mut Report) -> Vec<Logged> {
    let log: Vec<Logged> = reqs.iter().map(|req| logged(addr, req, knobs)).collect();
    for l in &log {
        r.check(l.error.is_none(), || l.error.clone().unwrap_or_default());
    }
    log
}

/// Make `req` directly on `session`, checked; its endpoint and latency.
#[allow(clippy::too_many_arguments)]
fn timed_direct(
    r: &mut Report,
    session: &mut Session,
    alg: &dyn RepairAlgorithm,
    clock: &Clock,
    exec: ExecConfig,
    req: &Req,
    sums: &mut LayerSums,
) -> (&'static str, f64) {
    let started = Instant::now();
    let got = direct(session, alg, clock, exec, req, sums);
    let ms = ms_since(started);
    r.check(got.is_ok(), || {
        format!(
            "direct {}: {}",
            req.endpoint(),
            got.err().unwrap_or_default()
        )
    });
    (req.endpoint(), ms)
}

/// Record `server.overhead_ms.<endpoint>` (typical client latency minus
/// typical library latency) and `server.shed` (503 answers).
fn record_overhead(r: &mut Report, log: &[Logged], library: &[(&'static str, f64)]) {
    for endpoint in ENDPOINTS {
        let client: Vec<f64> = log
            .iter()
            .filter(|l| l.req.endpoint() == endpoint)
            .map(|l| l.ms)
            .collect();
        let direct: Vec<f64> = library
            .iter()
            .filter(|(e, _)| *e == endpoint)
            .map(|(_, ms)| *ms)
            .collect();
        let overhead = match (typical(&client), typical(&direct)) {
            (Some((c, _)), Some((d, _))) => c - d,
            _ => f64::NAN,
        };
        r.metric(&format!("server.overhead_ms.{endpoint}"), "ms", overhead);
    }
    let shed = log.iter().filter(|l| l.status == 503).count();
    r.metric("server.shed", "count", shed as f64);
}

/// Replay a served `log` in start order directly on `session` and record
/// the HTTP overhead. Explains replay through the traced pipelines into
/// `sums`.
pub fn replay_overhead(
    r: &mut Report,
    log: &[Logged],
    session: &mut Session,
    alg: &dyn RepairAlgorithm,
    clock: &Clock,
    exec: ExecConfig,
    sums: &mut LayerSums,
) {
    let mut ordered: Vec<&Logged> = log.iter().collect();
    ordered.sort_by_key(|l| l.started);
    let library: Vec<(&'static str, f64)> = ordered
        .iter()
        .map(|l| timed_direct(r, session, alg, clock, exec, &l.req, sums))
        .collect();
    record_overhead(r, log, &library);
}

/// The HTTP split of a workload without a served load: each of `reqs` is
/// sent to an idle server over `served` and then made directly on
/// `direct`, alternating so that drift in machine speed hits both sides
/// alike; then `/health` is timed and the HTTP overhead recorded.
#[allow(clippy::too_many_arguments)]
pub fn probe(
    r: &mut Report,
    served: Session,
    reqs: &[Req],
    knobs: &str,
    direct: &mut Session,
    alg: &dyn RepairAlgorithm,
    clock: &Clock,
    exec: ExecConfig,
) {
    let config = trex_server::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        http_threads: 2,
    };
    let server = match trex_server::serve(served, &config) {
        Ok(s) => s,
        Err(e) => return r.check(false, || format!("cannot start the server: {e}")),
    };
    let mut scratch = LayerSums::default();
    let mut log = Vec::new();
    let mut library = Vec::new();
    for req in reqs {
        log.extend(send_all(server.addr(), std::slice::from_ref(req), knobs, r));
        library.push(timed_direct(r, direct, alg, clock, exec, req, &mut scratch));
    }
    health(r, server.addr());
    drop(server);
    record_overhead(r, &log, &library);
}

/// `server.health_p50_ms`: an idle server's `/health` round trip.
pub fn health(r: &mut Report, addr: SocketAddr) {
    let log = send_all(addr, &vec![Req::Health; 40], "", r);
    let ms: Vec<f64> = log.iter().map(|l| l.ms).collect();
    r.metric(
        "server.health_p50_ms",
        "ms",
        typical(&ms).map_or(f64::NAN, |(v, _)| v),
    );
}
