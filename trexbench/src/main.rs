//! The T-REx benchmark: three workloads over the explain loop.
//!
//! ```text
//! cargo run --release --manifest-path trexbench/Cargo.toml -- \
//!     --workload stress_soccer50k --seed 0 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no decorators in the
//! way. `--trace 1` measures the same pass again through the timing
//! decorators and prints the per-layer metrics, including the tracing
//! overhead (traced minus untraced, per shared end-to-end metric).
//! `--workload all` runs every workload in its own process. The last line
//! of standard output is the result object; the exit code is non-zero when
//! any operation or output check failed. See `README.md` for the
//! workloads and the layer map.

mod cells;
mod http;
mod layers;
mod probe;
mod report;
mod serve;
mod stress;

use report::{per_layer, typical, Report, END_TO_END, TRACED_E2E};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["stress_soccer50k", "cells_laliga", "serve_laliga_rw"];

/// One run's options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// SplitMix64: the benchmark's seeded generator for request mixes, cell
/// orders and request seeds.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One timed operation, with the machine's slowdown ([`probe::slowdown`]
/// or [`probe::table_slowdown`]) sampled just before it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub slowdown: f64,
}

impl Sample {
    /// The operation's time at the reference speed.
    fn scaled(&self) -> f64 {
        self.ms / self.slowdown
    }
}

/// The operations' times, unscaled.
pub fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.ms).collect()
}

/// The latencies one measuring pass collected.
#[derive(Debug, Default)]
pub struct Pass {
    /// The workload's headline request.
    pub request: Vec<Sample>,
    /// Violation scans.
    pub scan: Vec<Sample>,
    /// Repairs: the Repair button.
    pub repair: Vec<Sample>,
    /// Operations of every kind completed.
    pub ops: u64,
    /// Wall time of the pass.
    pub wall_s: f64,
}

impl Pass {
    /// The end-to-end values this pass gives, in [`TRACED_E2E`] order, at
    /// the reference speed.
    fn values(&self) -> [f64; 3] {
        let central = |s: &[Sample]| {
            let scaled: Vec<f64> = s.iter().map(Sample::scaled).collect();
            typical(&scaled).map_or(f64::NAN, |(v, _)| v)
        };
        [
            central(&self.request),
            central(&self.scan),
            central(&self.repair),
        ]
    }

    /// The typical slowdown over the pass's samples.
    fn slowdown(&self) -> f64 {
        let all: Vec<f64> = [&self.request, &self.scan, &self.repair]
            .into_iter()
            .flatten()
            .map(|s| s.slowdown)
            .collect();
        typical(&all).map_or(f64::NAN, |(v, _)| v)
    }
}

/// Set-up timing: run `make` `count` times, keep the last result, and
/// report medians (or means, under the percentile rule) of the total and
/// of its two parts (input generation, session or server construction),
/// with the small kernel's slowdown sampled between them (about 20 times).
pub struct Setup {
    pub setup_s: f64,
    pub datagen_ms: f64,
    pub session_ms: f64,
    /// The typical slowdown during the set-ups.
    pub slowdown: f64,
}

pub fn setups<T>(count: usize, mut make: impl FnMut() -> (T, f64, f64)) -> (T, Setup) {
    let (mut total, mut datagen, mut session) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = Vec::new();
    let mut kept = None;
    let every = (count / 20).max(1);
    // The first run of the kernel pays for the allocator's first growth.
    probe::slowdown();
    for i in 0..count.max(1) {
        if i % every == 0 {
            reference.push(probe::slowdown());
        }
        // Drop the previous instance first, outside the timed region.
        drop(kept.take());
        let (made, gen_ms, session_ms) = make();
        kept = Some(made);
        total.push((gen_ms + session_ms) / 1e3);
        datagen.push(gen_ms);
        session.push(session_ms);
    }
    let central = |s: &[f64]| typical(s).map_or(f64::NAN, |(v, _)| v);
    (
        kept.expect("at least one set-up"),
        Setup {
            setup_s: central(&total),
            datagen_ms: central(&datagen),
            session_ms: central(&session),
            slowdown: central(&reference),
        },
    )
}

/// Record the run's metrics: the end-to-end set for an untraced run; the
/// per-layer set's set-up split and tracing overhead for a traced one (the
/// workload records the other per-layer metrics itself).
/// Timings are scaled to the reference speed: each operation by the
/// slowdown sampled just before it, set-up by the set-ups' typical one.
pub fn finish(r: &mut Report, o: &Opts, setup: &Setup, untraced: &Pass, traced: Option<&Pass>) {
    let u = untraced.values();
    let scale = 1.0 / setup.slowdown;
    r.lines.push(format!(
        "slowdown = {:.4} in the set-ups, {:.4} in the pass; \
         timings scaled to the reference speed",
        setup.slowdown,
        untraced.slowdown(),
    ));
    match traced {
        None => {
            r.metric("setup_s", "s", setup.setup_s * scale);
            for (name, value) in TRACED_E2E.iter().zip(u) {
                let unit = END_TO_END
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, unit)| *unit)
                    .expect("traced metrics are end-to-end metrics");
                r.metric(name, unit, value);
            }
            r.metric(
                "peak_rss_mb",
                "MB",
                probe::peak_rss_mb().unwrap_or(f64::NAN),
            );
        }
        Some(t) => {
            r.metric("datagen.generate_ms", "ms", setup.datagen_ms * scale);
            r.metric("session.new_ms", "ms", setup.session_ms * scale);
            let t = t.values();
            for (i, name) in TRACED_E2E.iter().enumerate() {
                let unit = END_TO_END
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, unit)| *unit)
                    .expect("traced metrics are end-to-end metrics");
                r.metric(&format!("trace.overhead.{name}"), unit, t[i] - u[i]);
                r.lines.push(format!(
                    "tracing overhead {name}: traced {:.4} - untraced {:.4} = {:+.4} {unit}",
                    t[i],
                    u[i],
                    t[i] - u[i]
                ));
            }
        }
    }
    r.lines.push(format!(
        "setup_s unscaled = {:.6} s (datagen {:.3} ms + session {:.3} ms); ops {} in {:.2} s; \
         seed {}",
        setup.setup_s, setup.datagen_ms, setup.session_ms, untraced.ops, untraced.wall_s, o.seed
    ));
}

/// The commit of the checkout, read from `.git` without running git; the
/// benchmark may run in a plain source tree, where it is "unknown".
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            other => {
                return Err(format!(
                    "unknown flag {other:?} (known: --workload --seed --seconds --trace)"
                ))
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: all, {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
        },
    })
}

/// Run one workload in this process.
pub fn run(workload: &str, o: &Opts) -> Report {
    let mut r = Report::default();
    match workload {
        "stress_soccer50k" => stress::run(o, &mut r),
        "cells_laliga" => cells::run(o, &mut r),
        "serve_laliga_rw" => serve::run(o, &mut r),
        other => unreachable!("workload {other} passed argument validation"),
    }
    let mut want: Vec<String> = if o.trace {
        per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    let mut got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
    want.sort();
    got.sort();
    r.check(got == want, || {
        format!("emitted metrics {got:?} differ from the declared {want:?}")
    });
    r
}

/// `--workload all`: each workload in a child process of this binary, so
/// each one's peak memory is its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("trexbench: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("validated")
            + 1;
        child_args[at] = w.to_string();
        println!("== {w}");
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("trexbench: {w} failed ({status})");
                ok = false;
            }
            Err(e) => {
                eprintln!("trexbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trexbench: {e}");
            return ExitCode::from(2);
        }
    };
    if parsed.workload == "all" {
        return run_all(&args);
    }
    let o = parsed.opts;
    let started = Instant::now();
    let r = run(&parsed.workload, &o);
    let (threads, clients) = match parsed.workload.as_str() {
        "serve_laliga_rw" => (serve::THREADS, serve::CLIENTS),
        "cells_laliga" => (cells::THREADS, 1),
        _ => (stress::THREADS, 1),
    };
    println!(
        "manifest {{\"workload\": \"{}\", \"nproc\": {}, \"threads\": {threads}, \
         \"clients\": {clients}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": \"{}\", \"inputs\": \"{:016x}\", \"elapsed_s\": {:.1}}}",
        parsed.workload,
        trex_shapley::available_threads(),
        o.seed,
        o.seconds.as_secs(),
        u8::from(o.trace),
        commit(),
        r.inputs,
        started.elapsed().as_secs_f64(),
    );
    for line in &r.lines {
        println!("  {line}");
    }
    for m in &r.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "  failed_share = {} ({} of {} operations and checks)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    println!("{}", r.json_line());
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One round of each pass on the workload's real inputs.
    fn smoke(seed: u64, trace: bool) -> Opts {
        Opts {
            seed,
            seconds: Duration::ZERO,
            trace,
        }
    }

    /// The metric names `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside trexbench/");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let section = &text[start..];
        let end = section.find(']').expect("list closes");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted")].to_string())
            .collect()
    }

    fn names(r: &Report) -> Vec<String> {
        r.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn declared_metrics_match_the_code() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads = declared("workloads");
        assert_eq!(workloads, WORKLOADS.to_vec());
    }

    #[test]
    fn each_workload_emits_exactly_its_declared_metrics() {
        let mut e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        e2e.sort();
        let mut layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        layers.sort();
        for w in WORKLOADS {
            for (trace, want) in [(false, &e2e), (true, &layers)] {
                let r = run(w, &smoke(3, trace));
                assert!(r.correct(), "{w} trace={trace}: {:?}", r.failures);
                let mut got = names(&r);
                got.sort();
                assert_eq!(&got, want, "{w} trace={trace}");
                let units: Vec<&str> = r.metrics.iter().map(|m| m.unit).collect();
                assert!(units.iter().all(|u| !u.is_empty()));
            }
        }
    }

    #[test]
    fn another_seed_changes_inputs_but_not_metric_names() {
        for w in WORKLOADS {
            let a = run(w, &smoke(1, false));
            let b = run(w, &smoke(2, false));
            let again = run(w, &smoke(1, false));
            assert_ne!(
                a.inputs, b.inputs,
                "{w}: seeds 1 and 2 gave the same inputs"
            );
            assert_eq!(a.inputs, again.inputs, "{w}: seed 1 is not reproducible");
            assert_eq!(names(&a), names(&b), "{w}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload cells_laliga --seed 4 --seconds 3 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload all --trace 2")).is_err());
        assert!(parse_args(&args("--workload all --bogus 1")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
