//! End-to-end contracts of the batched oracle layer, exercised through the
//! public `Session`/`Explainer` surface rather than the `ShardedOracle`
//! unit tests:
//!
//! * batched answers are byte-identical to the unbatched path at 1/2/4/8
//!   threads, for both the exact constraint solver and the sampled masked
//!   cell game;
//! * `OracleStats` is scheduling-independent — the same counters at every
//!   batch size and thread count;
//! * a zero-latency `MockRemoteRepair` backend reproduces the inline path
//!   exactly, and single-flight dedup holds through the full game path
//!   (the remote answers each distinct coalition exactly once);
//! * the parallel walk stays bit-identical to serial while its coalition
//!   values flow through batches.

use std::time::Duration;
use trex::{ExecConfig, ExplainRequest, Explainer, MaskMode, Players, Session};
use trex_datagen::laliga;
use trex_repair::MockRemoteRepair;
use trex_table::CellRef;

fn session(cfg: ExecConfig) -> Session {
    Session::new(
        Box::new(laliga::algorithm1()),
        laliga::dirty_table(),
        laliga::constraints(),
    )
    .with_config(cfg)
}

fn constraints(cell: CellRef) -> ExplainRequest {
    ExplainRequest {
        cell,
        players: Players::Constraints,
    }
}

fn masked(cell: CellRef, walks: usize) -> ExplainRequest {
    ExplainRequest {
        cell,
        players: Players::MaskedCells {
            mode: MaskMode::Null,
            walks,
        },
    }
}

/// Explain `req` under the session's own configuration.
fn explain(s: &Session, req: &ExplainRequest) -> trex::Explanation {
    s.explain(req, &s.config()).unwrap()
}

#[test]
fn batched_answers_are_byte_identical_to_unbatched_at_any_thread_count() {
    let reference = session(ExecConfig::new());
    let cell = laliga::cell_of_interest(reference.table());
    let want_cons = explain(&reference, &constraints(cell));
    for threads in [1usize, 2, 4, 8] {
        for batch in [1usize, 3, 64] {
            let exec = ExecConfig::new().with_threads(threads).with_seed(9);
            let plain = session(exec);
            let batched = session(exec.with_oracle_batch(batch));
            // Exact constraint solver: identical to the global serial
            // reference, and the cache counters don't budge either —
            // batching only regroups misses, it never creates or hides one.
            let cons = explain(&batched, &constraints(cell));
            assert_eq!(
                cons.exact, want_cons.exact,
                "threads {threads}, batch {batch}"
            );
            assert_eq!(
                cons.oracle, want_cons.oracle,
                "threads {threads}, batch {batch}"
            );
            // Sampled masked cells: batched equals unbatched at the same
            // (seed, threads) pair, bit for bit.
            let want = explain(&plain, &masked(cell, 300));
            let got = explain(&batched, &masked(cell, 300));
            assert_eq!(got.values, want.values, "threads {threads}, batch {batch}");
            assert_eq!(got.target, want.target);
        }
    }
}

#[test]
fn zero_latency_remote_backend_reproduces_the_inline_path() {
    let alg = laliga::algorithm1();
    let table = laliga::dirty_table();
    let dcs = laliga::constraints();
    let req = constraints(laliga::cell_of_interest(&table));
    let want = Explainer::new(&alg).explain(&dcs, &table, &req).unwrap();
    let remote = MockRemoteRepair::mock(laliga::algorithm1(), Duration::ZERO);
    let cons = Explainer::new(&alg)
        .with_config(ExecConfig::new().with_oracle_batch(4))
        .with_oracle_backend(&remote)
        .explain(&dcs, &table, &req)
        .unwrap();
    assert_eq!(cons.exact, want.exact);
    // Every cache miss went over the wire, nothing else did: single-flight
    // and the memo dedup upstream of the transport, so the remote answered
    // each distinct coalition exactly once.
    let (stats, batches) = (cons.oracle, cons.batches);
    assert_eq!(remote.queries(), stats.misses);
    assert_eq!(batches.queries, stats.misses);
    assert_eq!(batches.batches, stats.misses.div_ceil(4));
    assert_eq!(remote.calls(), batches.batches);
}

#[test]
fn remote_backed_session_matches_the_plain_session_on_cells() {
    let exec = ExecConfig::new().with_threads(2).with_seed(5);
    let plain = session(exec);
    let remote = session(exec.with_oracle_batch(8)).with_oracle_backend(Box::new(
        MockRemoteRepair::mock(laliga::algorithm1(), Duration::ZERO),
    ));
    let req = masked(laliga::cell_of_interest(plain.table()), 200);
    let want = explain(&plain, &req);
    let got = explain(&remote, &req);
    assert_eq!(got.values, want.values);
    assert_eq!(
        remote.oracle_backend().unwrap().name(),
        "remote(algorithm1)"
    );
}

#[test]
fn parallel_walk_over_batches_stays_bit_identical_to_serial() {
    let serial = session(ExecConfig::new().with_seed(11));
    let req = masked(laliga::cell_of_interest(serial.table()), 128);
    let want = explain(&serial, &req);
    for threads in [1usize, 2, 4, 8] {
        let parallel = session(
            ExecConfig::new()
                .with_threads(threads)
                .with_seed(11)
                .with_oracle_batch(16),
        );
        let got = explain(&parallel, &req);
        assert_eq!(got.values, want.values, "threads {threads}");
    }
}
