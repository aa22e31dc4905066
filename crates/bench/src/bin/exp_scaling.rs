//! Experiment E6: wall-clock scaling of the two solvers — exact Shapley is
//! exponential in the player count (fine for constraint sets, "usually
//! small"), sampling is linear in m·players (the only option for cells) —
//! plus the thread-scaling of the parallel walk and adaptive estimators
//! (whose output is asserted equal to the serial estimators at every
//! thread count) and of constraint violation detection (the row-pair scan
//! behind `trex violations` / `trex repair`).
//!
//! Run: `cargo run --release -p trex-bench --bin exp_scaling`
//!
//! Flags (all optional):
//!   --json PATH     also write the machine-readable scaling record (the
//!                   exp_scaling.json the CI bench-smoke job uploads as an
//!                   artifact next to bench_current.json)

use std::time::{Duration, Instant};
use trex::{ExecConfig, ExplainRequest, Explainer, Players};
use trex_bench::RandomBinaryGame;
use trex_constraints::{
    find_all_violations_par, find_violations_par, generate_dcs, parse_dcs, statically_unviolable,
    DcGenConfig, DenialConstraint,
};
use trex_datagen::laliga;
use trex_repair::MockRemoteRepair;
use trex_shapley::{
    estimate_player, estimate_player_adaptive, parallel, player_seed, sampling, shapley_exact,
    Estimate, ParallelConfig, SamplingConfig, StochasticGame,
};
use trex_table::{Table, TableBuilder};

/// A synthetic league table with planted conflicts: `rows` rows bucketed
/// into 60 teams (7 cities each, so every bucket violates the Team→City FD)
/// plus a sprinkling of Country disagreements.
fn synthetic_table(rows: usize) -> Table {
    let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
    for i in 0..rows {
        let team = format!("T{}", i % 60);
        let city = format!("C{}", i % 7);
        let country = if i % 97 == 0 { "X" } else { "Y" }.to_string();
        b = b.str_row([team.as_str(), city.as_str(), country.as_str()]);
    }
    b.build()
}

fn violation_dcs(table: &Table) -> Vec<DenialConstraint> {
    parse_dcs(
        "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n\
         C2: !(t1.City = t2.City & t1.Country != t2.Country)\n",
    )
    .unwrap()
    .into_iter()
    .map(|dc| dc.resolved(table.schema()).unwrap())
    .collect()
}

/// FNV-1a over the exact bits of a result set: the output fingerprint CI
/// compares between the parallel drivers and their serial references.
fn estimates_hash(results: &[(Estimate, bool)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mix = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (e, converged) in results {
        mix(&mut h, e.value.to_bits());
        mix(&mut h, e.std_dev.to_bits());
        mix(&mut h, e.samples as u64);
        mix(&mut h, u64::from(*converged));
    }
    h
}

/// [`estimates_hash`] of a fixed-budget result set.
fn walk_hash_of(estimates: &[Estimate]) -> u64 {
    let results: Vec<(Estimate, bool)> = estimates.iter().map(|e| (*e, true)).collect();
    estimates_hash(&results)
}

/// Minimal `--json PATH` reader (the experiment binaries stay
/// dependency-free). Any other flag is fatal: a typo in the CI command must
/// fail the job, not silently mislabel the artifact.
fn json_flag() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.into_iter();
    let mut path = None;
    while let Some(flag) = iter.next() {
        assert!(flag == "--json", "unknown flag {flag:?} (known: --json)");
        let value = iter.next().expect("--json: missing value");
        assert!(!value.starts_with("--"), "--json: missing value");
        path = Some(value);
    }
    path
}

fn main() {
    let json_path = json_flag();
    println!("== exact subset enumeration: time vs players (2^n growth) ==");
    println!("{:>4} {:>12} {:>14}", "n", "coalitions", "time");
    for n in [4usize, 8, 12, 16, 20] {
        let game = RandomBinaryGame::new(n, 3, 7);
        let start = Instant::now();
        let phi = shapley_exact(&game).unwrap();
        let dt = start.elapsed();
        assert_eq!(phi.len(), n);
        println!("{n:>4} {:>12} {:>14.3?}", 1u64 << n, dt);
    }

    println!("\n== permutation sampling: time vs m (linear), n = 40 ==");
    println!("{:>8} {:>14} {:>14}", "m", "time", "time/sample");
    let game = RandomBinaryGame::new(40, 5, 11);
    for m in [1_000usize, 10_000, 100_000] {
        let start = Instant::now();
        let est = estimate_player(
            &game,
            0,
            SamplingConfig {
                samples: m,
                seed: 3,
            },
        );
        let dt = start.elapsed();
        println!("{m:>8} {:>14.3?} {:>14.1?}", dt, dt / m as u32);
        let _ = est;
    }

    println!("\n== parallel walk estimation: time vs threads (n = 40, m = 2000) ==");
    println!(
        "({} hardware thread(s) available; past that, extra workers only queue)",
        parallel::available_threads()
    );
    println!("(one permutation stream drawn serially, walks evaluated in parallel and");
    println!(" folded in walk order: the output is asserted equal to the serial");
    println!(" estimator at every thread count while we measure. This game's");
    println!(" coalition values are nearly free, so the serial draw and the fold");
    println!(" bound the speed-up; repair-oracle games spend their time in the walks)");
    println!("{:>8} {:>14} {:>10}", "threads", "walk", "speedup");
    let game = RandomBinaryGame::new(40, 5, 11);
    let walk_cfg = SamplingConfig {
        samples: 2000,
        seed: 3,
    };
    let start = Instant::now();
    let walk_serial = sampling::estimate_all_walk(&game, walk_cfg);
    let walk_serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let walk_hash = walk_hash_of(&walk_serial);
    let mut walk_base = None;
    let mut walk_rows: Vec<(usize, f64, u64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let ests =
            parallel::estimate_all_walk(&game, ParallelConfig::from_sampling(walk_cfg, threads));
        let dt = start.elapsed();
        // The determinism contract, asserted while we measure.
        assert_eq!(
            ests, walk_serial,
            "parallel walk output diverged from serial at {threads} threads"
        );
        let base = *walk_base.get_or_insert(dt);
        println!(
            "{threads:>8} {dt:>14.3?} {:>9.2}x",
            base.as_secs_f64() / dt.as_secs_f64().max(1e-12)
        );
        walk_rows.push((threads, dt.as_secs_f64() * 1e3, walk_hash_of(&ests)));
    }

    println!("\n== adaptive budgets, one hot player: time vs threads ==");
    println!("(16 players; player 0 is a ±1 coin flip that runs to the 6000-sample");
    println!(" cap, the rest are dummies that stop at two batches — so one player");
    println!(" owns ~80% of the budget, and that budget runs on one worker. The");
    println!(" output is asserted equal to the serial per-player loop at every");
    println!(" thread count while we measure.)");
    println!("{:>8} {:>14} {:>10}", "threads", "adaptive", "speedup");
    let hot_game = trex_shapley::game::fixtures::one_hot(16, 20_000);
    let hot_players = StochasticGame::num_players(&hot_game);
    let (tol, z, batch, cap, hot_seed) = (0.02f64, 1.96f64, 50usize, 6000usize, 17u64);
    let adaptive_serial: Vec<(Estimate, bool)> = (0..hot_players)
        .map(|p| {
            estimate_player_adaptive(&hot_game, p, tol, z, batch, cap, player_seed(hot_seed, p))
        })
        .collect();
    assert!(!adaptive_serial[0].1, "the hot player must run to the cap");
    assert!(adaptive_serial[1].1, "dummies must converge early");
    let adaptive_hash = estimates_hash(&adaptive_serial);
    let mut adaptive_base = None;
    let mut adaptive_rows: Vec<(usize, f64, u64)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        // Best of 3: one preempted run on a shared runner must not skew
        // the curve.
        let mut best: Option<(Duration, Vec<(Estimate, bool)>)> = None;
        for _ in 0..3 {
            let start = Instant::now();
            let out =
                parallel::estimate_all_adaptive(&hot_game, tol, z, batch, cap, hot_seed, threads);
            let dt = start.elapsed();
            if best.as_ref().is_none_or(|(b, _)| dt < *b) {
                best = Some((dt, out));
            }
        }
        let (dt, out) = best.expect("three runs produce a best");
        assert_eq!(
            out, adaptive_serial,
            "adaptive output diverged from serial at {threads} threads"
        );
        let base = *adaptive_base.get_or_insert(dt);
        println!(
            "{threads:>8} {dt:>14.3?} {:>9.2}x",
            base.as_secs_f64() / dt.as_secs_f64().max(1e-12)
        );
        adaptive_rows.push((threads, dt.as_secs_f64() * 1e3, estimates_hash(&out)));
    }

    println!("\n== violation detection: time vs threads (2000 rows, 2 DCs) ==");
    println!("(the row-pair scan behind `trex violations` / `trex repair`;");
    println!(" output is identical at every thread count — wall time only)");
    println!(
        "{:>8} {:>14} {:>10} {:>12}",
        "threads", "time", "speedup", "violations"
    );
    let table = synthetic_table(2000);
    let dcs = violation_dcs(&table);
    let mut baseline: Option<(std::time::Duration, usize)> = None;
    let mut violation_rows: Vec<(usize, f64, usize)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let violations = find_all_violations_par(&dcs, &table, threads);
        let dt = start.elapsed();
        let (base, count) = *baseline.get_or_insert((dt, violations.len()));
        assert_eq!(
            violations.len(),
            count,
            "parallel detection changed the violation count"
        );
        println!(
            "{threads:>8} {dt:>14.3?} {:>9.2}x {:>12}",
            base.as_secs_f64() / dt.as_secs_f64().max(1e-12),
            violations.len()
        );
        violation_rows.push((threads, dt.as_secs_f64() * 1e3, violations.len()));
    }

    println!("\n== static pruning: full vs pruned scan (2000 rows, 2 real + 3 dead DCs) ==");
    println!("(the analyzer proves the injected X* constraints can never be violated;");
    println!(" the scan skips them. \"full\" scans every DC one by one; the output is");
    println!(" asserted identical while we measure — only the dead DCs' pair scans go)");
    // The live constraints are the same two FDs as the curve above; the
    // generator only injects the dead ones (contradictory order pairs with
    // no equality join key, so each costs a full nested-loop pass).
    let gen_cfg = DcGenConfig {
        count: 0,
        max_lhs: 2,
        order_fraction: 0.0,
        seed: 11,
        redundant: 0,
        unsat: 3,
    };
    let mut noisy_dcs = violation_dcs(&table);
    noisy_dcs.extend(
        generate_dcs(table.schema(), &gen_cfg)
            .iter()
            .map(|dc| dc.resolved(table.schema()).unwrap()),
    );
    let pruned_away = noisy_dcs
        .iter()
        .filter(|dc| statically_unviolable(dc).is_some())
        .count();
    assert_eq!(
        pruned_away, gen_cfg.unsat,
        "every injected X* constraint must be proven unviolable"
    );
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>12}",
        "threads", "full", "pruned", "saved", "violations"
    );
    // Best of 3 per measurement, same rationale as the adaptive curve: the
    // pruned-beats-full assertion gates CI, so a single preempted run must
    // not flip the comparison.
    let scan_best_of = |threads: usize, pruned: bool| {
        let mut best: Option<std::time::Duration> = None;
        let mut out = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            out = if pruned {
                find_all_violations_par(&noisy_dcs, &table, threads)
            } else {
                noisy_dcs
                    .iter()
                    .flat_map(|dc| find_violations_par(dc, &table, threads))
                    .collect()
            };
            let dt = start.elapsed();
            if best.is_none_or(|b| dt < b) {
                best = Some(dt);
            }
        }
        (best.expect("three runs produce a best"), out)
    };
    let mut prune_rows: Vec<(usize, f64, f64, usize)> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (full_dt, full) = scan_best_of(threads, false);
        let (pruned_dt, pruned) = scan_best_of(threads, true);
        // The pruning contract, asserted while we measure: skipping
        // statically-unviolable DCs is invisible in the witness list.
        assert_eq!(
            full, pruned,
            "pruned scan changed the output at {threads} threads"
        );
        // The injected dead DCs have no equality-join key, so each costs a
        // full nested-loop pass when unpruned — the pruned scan must win.
        assert!(
            pruned_dt < full_dt,
            "pruning must beat the full scan at {threads} threads \
             ({pruned_dt:?} vs {full_dt:?})"
        );
        println!(
            "{threads:>8} {full_dt:>14.3?} {pruned_dt:>14.3?} {:>9.2}x {:>12}",
            full_dt.as_secs_f64() / pruned_dt.as_secs_f64().max(1e-12),
            full.len()
        );
        prune_rows.push((
            threads,
            full_dt.as_secs_f64() * 1e3,
            pruned_dt.as_secs_f64() * 1e3,
            full.len(),
        ));
    }

    println!("\n== batched oracle dispatch: throughput vs batch size (1ms/call remote) ==");
    println!("(the constraint explanation's 16 coalition repairs, answered by a");
    println!(" MockRemoteRepair that sleeps 1ms per answer_batch round trip — the");
    println!(" per-call-latency profile of a repair service. --oracle-batch style");
    println!(" caps trade dispatches for batch size; the explanation is asserted");
    println!(" byte-identical to the inline path at every cap while we measure)");
    println!(
        "{:>8} {:>12} {:>14} {:>16} {:>10}",
        "batch", "dispatches", "time", "queries/s", "speedup"
    );
    let alg = laliga::algorithm1();
    let demo_table = laliga::dirty_table();
    let demo_dcs = laliga::constraints();
    let demo_cell = laliga::cell_of_interest(&demo_table);
    let demo_req = ExplainRequest {
        cell: demo_cell,
        players: Players::Constraints,
    };
    let inline_reference = Explainer::new(&alg)
        .explain(&demo_dcs, &demo_table, &demo_req)
        .expect("the demo cell explains");
    let remote_latency = Duration::from_millis(1);
    let mut unbatched_throughput = None;
    let mut best_throughput = 0f64;
    let mut batched_rows: Vec<(usize, usize, usize, f64, f64)> = Vec::new();
    for batch in [1usize, 2, 4, 8, 16] {
        let remote = MockRemoteRepair::mock(laliga::algorithm1(), remote_latency);
        let explainer = Explainer::new(&alg)
            .with_config(ExecConfig::new().with_oracle_batch(batch))
            .with_oracle_backend(&remote);
        // Best of 3, same rationale as the adaptive curve: the ≥2× assertion
        // below gates CI. Each explanation rebuilds its oracle, so every
        // run pays the full cold-cache dispatch schedule.
        let mut best: Option<(Duration, trex_repair::BatchStats)> = None;
        for _ in 0..3 {
            let start = Instant::now();
            let cons = explainer
                .explain(&demo_dcs, &demo_table, &demo_req)
                .expect("the demo cell explains");
            let dt = start.elapsed();
            // The transport contract, asserted while we measure: routing
            // the coalition repairs through a batching remote backend is
            // invisible in the explanation.
            assert_eq!(
                cons.exact, inline_reference.exact,
                "batched explanation diverged at batch size {batch}"
            );
            if best.as_ref().is_none_or(|(b, _)| dt < *b) {
                best = Some((dt, cons.batches));
            }
        }
        let (dt, stats) = best.expect("three runs produce a best");
        assert_eq!(stats.queries, 16, "4 DCs -> 16 cold coalitions per run");
        assert_eq!(stats.batches, 16usize.div_ceil(batch), "batch size {batch}");
        let throughput = stats.queries as f64 / dt.as_secs_f64().max(1e-12);
        let base = *unbatched_throughput.get_or_insert(throughput);
        best_throughput = best_throughput.max(throughput);
        println!(
            "{batch:>8} {:>12} {dt:>14.3?} {throughput:>16.0} {:>9.2}x",
            stats.batches,
            throughput / base.max(1e-12)
        );
        batched_rows.push((
            batch,
            stats.batches,
            stats.queries,
            dt.as_secs_f64() * 1e3,
            throughput,
        ));
    }
    let batched_speedup = best_throughput / unbatched_throughput.expect("batch 1 ran").max(1e-12);
    // The headline claim: against a per-call-latency backend, batching must
    // recover at least 2× the per-call-dispatch throughput (16 round trips
    // collapse into 1 at batch 16, so the expected margin is ~an order of
    // magnitude; simulated latency makes this hold on any hardware).
    assert!(
        batched_speedup >= 2.0,
        "batched dispatch must be >= 2x per-call dispatch ({batched_speedup:.2}x)"
    );
    println!("best over per-call dispatch: {batched_speedup:.2}x");

    println!("\ninterpretation: exact doubles per added player; sampling is flat per sample");
    println!("and splits across workers — and so does the violation scan, which is why");
    println!("repair loops (detect → fix → re-detect) take --threads too. This is the");
    println!("asymmetry behind the paper's two-solver design (§2.3).");

    // Machine-readable record for the CI artifact: the walk and the
    // skewed-budget adaptive curves (each with the output fingerprint CI
    // re-checks against the serial hash), and the violation-detection
    // curve, per thread count.
    if let Some(path) = json_path {
        let curve_json = |rows: &[(usize, f64, u64)], field: &str| -> String {
            rows.iter()
                .map(|(threads, ms, hash)| {
                    format!(
                        "    {{ \"threads\": {threads}, \"{field}\": {ms:.3}, \
                         \"hash\": \"{hash:016x}\" }}"
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let violation_json: Vec<String> = violation_rows
            .iter()
            .map(|(threads, ms, count)| {
                let rows_per_sec = 2000.0 / (ms / 1e3).max(1e-12);
                format!(
                    "    {{ \"threads\": {threads}, \"wall_ms\": {ms:.3}, \
                     \"rows_per_sec\": {rows_per_sec:.1}, \"violations\": {count} }}"
                )
            })
            .collect();
        let prune_json: Vec<String> = prune_rows
            .iter()
            .map(|(threads, full_ms, pruned_ms, count)| {
                format!(
                    "    {{ \"threads\": {threads}, \"full_ms\": {full_ms:.3}, \
                     \"pruned_ms\": {pruned_ms:.3}, \"violations\": {count} }}"
                )
            })
            .collect();
        let batched_json: Vec<String> = batched_rows
            .iter()
            .map(|(batch, dispatches, queries, ms, throughput)| {
                format!(
                    "    {{ \"batch\": {batch}, \"dispatches\": {dispatches}, \
                     \"queries\": {queries}, \"wall_ms\": {ms:.3}, \
                     \"queries_per_sec\": {throughput:.1} }}"
                )
            })
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"scaling\",\n",
                "  \"hardware_threads\": {hw},\n",
                "  \"walk\": {{\n",
                "    \"players\": 40,\n",
                "    \"samples\": 2000,\n",
                "    \"serial_ms\": {walk_serial_ms:.3},\n",
                "    \"serial_hash\": \"{walk_hash:016x}\",\n",
                "    \"per_thread\": [\n{walk}\n    ]\n",
                "  }},\n",
                "  \"adaptive\": {{\n",
                "    \"players\": 16,\n",
                "    \"batch\": 50,\n",
                "    \"max_samples\": 6000,\n",
                "    \"serial_hash\": \"{adaptive_hash:016x}\",\n",
                "    \"per_thread\": [\n{adaptive}\n    ]\n",
                "  }},\n",
                "  \"violations\": {{\n",
                "    \"rows\": 2000,\n",
                "    \"dcs\": 2,\n",
                "    \"per_thread\": [\n{violations}\n    ]\n",
                "  }},\n",
                "  \"prune\": {{\n",
                "    \"rows\": 2000,\n",
                "    \"dcs_total\": {dcs_total},\n",
                "    \"dcs_pruned\": {dcs_pruned},\n",
                "    \"per_thread\": [\n{prune}\n    ]\n",
                "  }},\n",
                "  \"batched\": {{\n",
                "    \"latency_ms\": {latency_ms},\n",
                "    \"dcs\": 4,\n",
                "    \"speedup_best_vs_unbatched\": {batched_speedup:.2},\n",
                "    \"per_batch\": [\n{batched}\n    ]\n",
                "  }}\n",
                "}}\n",
            ),
            hw = parallel::available_threads(),
            walk_serial_ms = walk_serial_ms,
            walk_hash = walk_hash,
            walk = curve_json(&walk_rows, "walk_ms"),
            adaptive_hash = adaptive_hash,
            adaptive = curve_json(&adaptive_rows, "adaptive_ms"),
            violations = violation_json.join(",\n"),
            dcs_total = noisy_dcs.len(),
            dcs_pruned = pruned_away,
            prune = prune_json.join(",\n"),
            latency_ms = remote_latency.as_millis(),
            batched_speedup = batched_speedup,
            batched = batched_json.join(",\n"),
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}
