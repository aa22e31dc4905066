//! Decorators that time calls into the repair engine and the Shapley games
//! from outside the program, the process memory reading, and the reference
//! kernels that measure the machine's speed.
//!
//! Nothing here changes what the wrapped object computes: [`TimedRepair`]
//! forwards `repair`, and [`TimedGame`] forwards `value` and `value_batch`
//! separately, so a game's batched oracle path runs exactly as without the
//! wrapper.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trex_constraints::DenialConstraint;
use trex_repair::{RepairAlgorithm, RepairResult};
use trex_shapley::{Coalition, Game};
use trex_table::Table;

/// Call counter and busy-time accumulator shared between threads. The
/// counters are statistics that publish no other data, so `Relaxed` is
/// enough; the per-call durations sit behind a mutex.
#[derive(Default)]
pub struct Clock {
    calls: AtomicU64,
    units: AtomicU64,
    busy_ns: AtomicU64,
    durations_ms: Mutex<Vec<f64>>,
}

/// A reading of a [`Clock`]; subtract two to get the work between them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockReading {
    /// Calls made.
    pub calls: u64,
    /// Work items the calls carried (coalitions for a game, calls for a
    /// repair engine).
    pub units: u64,
    /// Time spent inside the calls, summed over threads.
    pub busy_ms: f64,
    /// Index into the per-call durations, for [`Clock::durations_between`].
    pub mark: usize,
}

impl ClockReading {
    /// The work done between `earlier` and `self`.
    pub fn since(&self, earlier: &ClockReading) -> ClockReading {
        ClockReading {
            calls: self.calls - earlier.calls,
            units: self.units - earlier.units,
            busy_ms: self.busy_ms - earlier.busy_ms,
            mark: self.mark,
        }
    }
}

impl Clock {
    fn record(&self, started: Instant, units: u64) {
        let elapsed = started.elapsed();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.durations_ms
            .lock()
            .expect("a timed call panicked while recording")
            .push(elapsed.as_secs_f64() * 1e3);
    }

    /// The counters now.
    pub fn read(&self) -> ClockReading {
        ClockReading {
            calls: self.calls.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            busy_ms: self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
            mark: self
                .durations_ms
                .lock()
                .expect("a timed call panicked while recording")
                .len(),
        }
    }

    /// Durations of the calls recorded between two readings.
    pub fn durations_between(&self, earlier: &ClockReading, later: &ClockReading) -> Vec<f64> {
        self.durations_ms
            .lock()
            .expect("a timed call panicked while recording")[earlier.mark..later.mark]
            .to_vec()
    }
}

/// A repair engine that counts and times every `repair` call. Clones share
/// one [`Clock`], so the copy boxed into a `Session` and the copy an
/// `Explainer` borrows report together.
#[derive(Clone)]
pub struct TimedRepair<A> {
    inner: A,
    clock: Arc<Clock>,
}

impl<A: RepairAlgorithm> TimedRepair<A> {
    /// Wrap `inner` with a fresh clock.
    pub fn new(inner: A) -> Self {
        TimedRepair {
            inner,
            clock: Arc::new(Clock::default()),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }
}

impl<A: RepairAlgorithm> RepairAlgorithm for TimedRepair<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn repair(&self, dcs: &[DenialConstraint], dirty: &Table) -> RepairResult {
        let started = Instant::now();
        let result = self.inner.repair(dcs, dirty);
        self.clock.record(started, 1);
        result
    }
}

/// A game that counts and times `value` and `value_batch`.
pub struct TimedGame<G> {
    inner: G,
    clock: Clock,
}

impl<G: Game> TimedGame<G> {
    /// Wrap `inner` with a fresh clock.
    pub fn new(inner: G) -> Self {
        TimedGame {
            inner,
            clock: Clock::default(),
        }
    }

    /// The clock: `calls` counts `value`/`value_batch` invocations, `units`
    /// the coalitions they carried.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}

impl<G: Game> Game for TimedGame<G> {
    fn num_players(&self) -> usize {
        self.inner.num_players()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let started = Instant::now();
        let v = self.inner.value(coalition);
        self.clock.record(started, 1);
        v
    }

    fn value_batch(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let started = Instant::now();
        let values = self.inner.value_batch(coalitions);
        self.clock.record(started, coalitions.len() as u64);
        values
    }

    fn player_label(&self, i: usize) -> String {
        self.inner.player_label(i)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The small kernel's time, in ms, on the host the benchmark was tuned on
/// (an idle 2-vCPU Xeon VM at 2.0 GHz). See [`slowdown`].
pub const REFERENCE_MS: f64 = 4.0;

/// The table kernel's time, in ms, on the same host when the small kernel
/// takes [`REFERENCE_MS`]. See [`table_slowdown`].
pub const TABLE_REFERENCE_MS: f64 = 80.0;

/// How many times slower than the reference speed the machine runs work
/// that fits in the cache now, by the small kernel: the least of three runs
/// over [`REFERENCE_MS`].
///
/// The kernel formats strings, groups them in a hash map, grows vectors and
/// sorts — the kind of work the oracle and the la Liga repairs do — on a
/// fixed input, in the benchmark's own code. On a shared host the speed of
/// such work drifts by up to 2x over minutes while a pure arithmetic loop
/// stays within 5%, and the workloads' timings drift with the kernel's.
/// Sampled between a run's operations, it lets the run report its timings
/// at the reference speed (an operation's time over the slowdown sampled
/// before it), which cancels most of that drift. A single run right after
/// a 50k-row operation can take several times as long as the next one, so
/// the least of three is taken.
pub fn slowdown() -> f64 {
    (0..3).map(|_| kernel_ms()).fold(f64::INFINITY, f64::min) / REFERENCE_MS
}

/// [`slowdown`] for 50k-row work, by the table kernel: one run over
/// [`TABLE_REFERENCE_MS`].
///
/// The table kernel builds 50k rows of six short strings, clones them and
/// sorts the clone: about 20 MB of small allocations, like a 50k-row table
/// clone, encode or scan. Work on that much memory slows down when other
/// tenants of the host use the memory system, which the small kernel, whose
/// data stays in the cache, does not see. Over 77 rounds of the
/// `stress_soccer50k` loop (18 minutes), repair medians per round ranged
/// from 447 to 714 ms; the table kernel followed them and the small kernel
/// did not: taken three rounds at a time, the spread (IQR over median) of
/// the repair medians was 0.096 unscaled, 0.088 scaled by the small kernel
/// and 0.075 by the table kernel, and that of the explain times 0.071,
/// 0.245 and 0.064.
pub fn table_slowdown() -> f64 {
    table_kernel_ms() / TABLE_REFERENCE_MS
}

fn table_kernel_ms() -> f64 {
    let started = Instant::now();
    let mut x = 7u64;
    let rows: Vec<Vec<String>> = (0..50_000u64)
        .map(|i| {
            (0..6u64)
                .map(|c| {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    format!("v{c}_{}", (x >> 33) % (1000 * (c + 1)) + i % 3)
                })
                .collect()
        })
        .collect();
    let mut copy = rows.clone();
    copy.sort();
    std::hint::black_box(copy.len() + rows.len());
    ms_since(started)
}

fn kernel_ms() -> f64 {
    let started = Instant::now();
    let mut groups: HashMap<String, Vec<u64>> = HashMap::new();
    let mut x = 1u64;
    for i in 0..20_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        groups.entry(format!("k{}", x % 5000)).or_default().push(i);
    }
    let mut keys: Vec<&String> = groups.keys().collect();
    keys.sort();
    std::hint::black_box(keys.len() + groups.values().map(Vec::len).sum::<usize>());
    ms_since(started)
}
