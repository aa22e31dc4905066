//! The interactive session of the demo scenario (§4).
//!
//! The demo's loop: load table + DCs → repair → pick a repaired cell →
//! explain → *act on the explanation* (change DCs or cell values) → repair
//! again → compare. [`Session`] packages that loop as an owned, mutable
//! object so example binaries and integration tests can drive exactly the
//! workflow the demonstration walks the audience through.
//!
//! Every explanation goes through one entry point,
//! [`Session::explain`] (with [`Session::explain_anytime`] for the
//! streaming observer): an [`ExplainRequest`] plus the request's
//! [`ExecConfig`]. `trex explain` and `trex serve` both call it.

use crate::explain::{ExplainError, ExplainRequest, Explainer, Explanation, Players};
use crate::games::MaskMode;
use std::sync::Arc;
use trex_constraints::{DenialConstraint, ResolveError, Violation};
use trex_repair::{OracleBackend, OracleCache, RepairAlgorithm, RepairResult, ShardedOracle};
use trex_shapley::{AnytimeCheckpoint, AnytimeControl, ExecConfig, SamplingConfig};
use trex_table::{CellRef, Table, Value};

/// One entry of the session's repair history.
#[derive(Debug, Clone)]
pub struct HistoryEntry {
    /// What the user changed before this repair (human-readable).
    pub action: String,
    /// Number of cells the repair changed.
    pub cells_repaired: usize,
}

/// An interactive T-REx session.
///
/// `Session` is `Send + Sync`: the server shares one behind an `RwLock`,
/// explanation methods take `&self`, and concurrent explanations pool
/// their coalition answers through one shared [`OracleCache`].
pub struct Session {
    alg: Box<dyn RepairAlgorithm>,
    table: Table,
    dcs: Vec<DenialConstraint>,
    history: Vec<HistoryEntry>,
    cfg: ExecConfig,
    backend: Option<Box<dyn OracleBackend>>,
    oracle_cache: Arc<OracleCache>,
}

impl Session {
    /// Start a session over a dirty table and constraint set. Explanations
    /// run single-threaded by default; see [`Session::with_config`].
    pub fn new(alg: Box<dyn RepairAlgorithm>, table: Table, dcs: Vec<DenialConstraint>) -> Self {
        Session {
            alg,
            table,
            dcs,
            history: Vec::new(),
            cfg: ExecConfig::default(),
            backend: None,
            oracle_cache: Arc::new(OracleCache::new()),
        }
    }

    /// Apply an execution configuration wholesale: thread count, oracle
    /// capacity, batch bound, and seed in one value shared with `Explainer`
    /// and the repair engines. It is the default every request starts
    /// from; the server overrides it knob by knob per request.
    ///
    /// Rebuilds the session's shared coalition cache at the config's
    /// oracle capacity ([`ShardedOracle::DEFAULT_CAPACITY`] when unset).
    pub fn with_config(mut self, cfg: ExecConfig) -> Self {
        self.cfg = cfg;
        self.oracle_cache = Arc::new(OracleCache::with_capacity(
            cfg.oracle_cap().unwrap_or(ShardedOracle::DEFAULT_CAPACITY),
        ));
        self
    }

    /// The session's execution configuration.
    pub fn config(&self) -> ExecConfig {
        self.cfg
    }

    /// Route the session's coalition queries through an [`OracleBackend`]
    /// instead of calling the wrapped algorithm inline — e.g. a
    /// [`trex_repair::RemoteRepair`] adapter for a per-call-latency repair
    /// service. Combine with [`ExecConfig::with_oracle_batch`] to bound how
    /// many cache-missing coalitions each backend call carries. Explanations
    /// are byte-identical with or without a backend.
    pub fn with_oracle_backend(mut self, backend: Box<dyn OracleBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The installed oracle backend, if any.
    pub fn oracle_backend(&self) -> Option<&dyn OracleBackend> {
        self.backend.as_deref()
    }

    /// The wrapped repair algorithm.
    pub fn algorithm(&self) -> &dyn RepairAlgorithm {
        self.alg.as_ref()
    }

    /// The session's shared coalition-answer cache. Every explanation run
    /// under a compatible oracle capacity memoizes into (and reads from)
    /// this one cache, so a burst of requests against the same
    /// `(table, constraints)` pair pays for each distinct coalition repair
    /// once. Exposed for telemetry ([`OracleCache::stats`]) and explicit
    /// flushes ([`Session::flush_oracle_cache`]).
    pub fn oracle_cache(&self) -> &Arc<OracleCache> {
        &self.oracle_cache
    }

    /// Drop every memoized coalition answer.
    ///
    /// The session calls this itself after every input mutation
    /// ([`Session::set_cell`], [`Session::upsert_constraint`],
    /// [`Session::remove_constraint`]): cache keys embed the table
    /// fingerprint and DC-set hash, so stale entries were already
    /// unreachable, but flushing returns their memory and keeps the
    /// hit-rate telemetry honest about the new inputs.
    pub fn flush_oracle_cache(&self) {
        self.oracle_cache.clear();
    }

    /// The current (possibly user-edited) dirty table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The current constraint set.
    pub fn constraints(&self) -> &[DenialConstraint] {
        &self.dcs
    }

    /// The session history (one entry per repair run).
    pub fn history(&self) -> &[HistoryEntry] {
        &self.history
    }

    /// The input screen's violation list: every witness of the current
    /// constraint set against the current table, detected on the session's
    /// worker threads (identical output at any thread count). Re-runs
    /// cheaply after each edit, which is what keeps the §4 debugging loop
    /// interactive on large tables.
    pub fn violations(&self) -> Result<Vec<Violation>, ResolveError> {
        self.violations_for(&self.cfg)
    }

    /// [`Session::violations`] under a per-request execution configuration
    /// (its thread count; identical output at any setting).
    pub fn violations_for(&self, exec: &ExecConfig) -> Result<Vec<Violation>, ResolveError> {
        let resolved: Result<Vec<_>, _> = self
            .dcs
            .iter()
            .map(|d| d.resolved(self.table.schema()))
            .collect();
        Ok(trex_constraints::find_all_violations_par(
            &resolved?,
            &self.table,
            exec.threads(),
        ))
    }

    /// The "Repair" button: run the black box on the current inputs.
    pub fn repair(&mut self) -> RepairResult {
        let result = self.alg.repair(&self.dcs, &self.table);
        self.history.push(HistoryEntry {
            action: "repair".to_string(),
            cells_repaired: result.changes.len(),
        });
        result
    }

    /// The "Explain" button: answer `req` over the session's current
    /// inputs under the execution configuration `exec` — the session
    /// default ([`Session::config`]) or a per-request override (the server
    /// parses `?threads=…&seed=…` into one). The values depend only on
    /// the request and `exec`'s seed; the other knobs steer resource use.
    ///
    /// The session's shared coalition cache answers the request whenever
    /// `exec`'s oracle capacity agrees with the cache's; a request
    /// demanding a different capacity gets a private, correctly-sized
    /// oracle instead (results are identical either way — only memo
    /// reuse differs).
    pub fn explain(
        &self,
        req: &ExplainRequest,
        exec: &ExecConfig,
    ) -> Result<Explanation, ExplainError> {
        self.explain_anytime(req, exec, 0, |_| AnytimeControl::Continue)
    }

    /// [`Session::explain`] with an anytime observer on the masked-cell
    /// walks (see [`Explainer::explain_anytime`]): `on_checkpoint` sees the
    /// in-progress per-cell estimates every `checkpoint_every` walks and
    /// can stop the run when a latency budget expires or the requesting
    /// client goes away. A run that finishes returns bit for bit what
    /// [`Session::explain`] returns.
    pub fn explain_anytime(
        &self,
        req: &ExplainRequest,
        exec: &ExecConfig,
        checkpoint_every: usize,
        on_checkpoint: impl FnMut(&AnytimeCheckpoint<'_>) -> AnytimeControl,
    ) -> Result<Explanation, ExplainError> {
        let mut ex = Explainer::new(self.alg.as_ref()).with_config(*exec);
        if let Some(backend) = self.backend.as_deref() {
            ex = ex.with_oracle_backend(backend);
        }
        let requested = exec.oracle_cap().unwrap_or(ShardedOracle::DEFAULT_CAPACITY);
        if requested == self.oracle_cache.capacity() {
            ex = ex.with_oracle_cache(Arc::clone(&self.oracle_cache));
        }
        ex.explain_anytime(&self.dcs, &self.table, req, checkpoint_every, on_checkpoint)
    }

    /// The constraint explanation of `cell` under the session's
    /// configuration: [`Session::explain`] with [`Players::Constraints`].
    /// Kept for trexbench/; remove in the next benchmark PR.
    pub fn explain_constraints(&self, cell: CellRef) -> Result<Explanation, ExplainError> {
        let req = ExplainRequest {
            cell,
            players: Players::Constraints,
        };
        self.explain(&req, &self.cfg)
    }

    /// The masked cell explanation of `cell`, `config.samples` walks seeded
    /// by `config.seed`: [`Session::explain`] with
    /// [`Players::MaskedCells`]. Kept for trexbench/; remove in the next
    /// benchmark PR.
    pub fn explain_cells_masked_for(
        &self,
        cell: CellRef,
        mode: MaskMode,
        config: SamplingConfig,
        exec: &ExecConfig,
    ) -> Result<Explanation, ExplainError> {
        let req = ExplainRequest {
            cell,
            players: Players::MaskedCells {
                mode,
                walks: config.samples,
            },
        };
        self.explain(&req, &exec.with_seed(config.seed))
    }

    /// User edit: overwrite a cell of the input table ("changing specific
    /// cells to make the repair more accurate", §1). Returns the previous
    /// value.
    pub fn set_cell(&mut self, cell: CellRef, value: Value) -> Value {
        self.history.push(HistoryEntry {
            action: format!("set {cell} := {value}"),
            cells_repaired: 0,
        });
        self.flush_oracle_cache();
        self.table.set(cell, value)
    }

    /// User edit: remove a constraint by name ("modify the most influencing
    /// constraints", §1). Returns it if present.
    pub fn remove_constraint(&mut self, name: &str) -> Option<DenialConstraint> {
        let idx = self.dcs.iter().position(|d| d.name == name)?;
        self.history.push(HistoryEntry {
            action: format!("remove constraint {name}"),
            cells_repaired: 0,
        });
        self.flush_oracle_cache();
        Some(self.dcs.remove(idx))
    }

    /// User edit: add (or replace, by name) a constraint.
    ///
    /// # Errors
    /// A constraint that does not resolve against the session table's
    /// schema (an unknown attribute) is rejected and the session is left
    /// untouched — the repair engines assume resolvable constraints.
    pub fn upsert_constraint(&mut self, dc: DenialConstraint) -> Result<(), ResolveError> {
        dc.resolved(self.table.schema())?;
        self.history.push(HistoryEntry {
            action: format!("upsert constraint {}", dc.name),
            cells_repaired: 0,
        });
        self.flush_oracle_cache();
        match self.dcs.iter_mut().find(|d| d.name == dc.name) {
            Some(slot) => *slot = dc,
            None => self.dcs.push(dc),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::AdaptiveConfig;
    use trex_datagen::laliga;
    use trex_table::Value;

    fn session() -> Session {
        Session::new(
            Box::new(laliga::algorithm1()),
            laliga::dirty_table(),
            laliga::constraints(),
        )
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

    #[test]
    fn repair_then_explain_loop() {
        let mut s = session();
        let r = s.repair();
        assert_eq!(r.changes.len(), 2);
        let cell = laliga::cell_of_interest(s.table());
        let cons = s.explain(&constraints(cell), &s.config()).unwrap();
        assert_eq!(cons.ranking.top().unwrap().label, "C3");
        assert_eq!(s.history().len(), 1);
        assert_eq!(s.algorithm().name(), "algorithm1");
    }

    #[test]
    fn removing_the_top_constraint_changes_the_repair_path() {
        // Demo scenario: act on the explanation by removing C3; the repair
        // still happens (via C1∧C2) but the explanation shifts.
        let mut s = session();
        let cell = laliga::cell_of_interest(s.table());
        let removed = s.remove_constraint("C3").unwrap();
        assert_eq!(removed.name, "C3");
        assert_eq!(s.constraints().len(), 3);
        let cons = s.explain_constraints(cell).unwrap();
        // With C3 gone, C1 and C2 carry the repair equally (1/2 each).
        assert_eq!(cons.exact[0].1.to_string(), "1/2"); // C1
        assert_eq!(cons.exact[1].1.to_string(), "1/2"); // C2
    }

    #[test]
    fn editing_a_cell_affects_the_next_repair() {
        // Fix t5[City] by hand; C1 then has nothing to do and the repair
        // touches only t5[Country].
        let mut s = session();
        let city = s.table().schema().id("City");
        let old = s.set_cell(CellRef::new(4, city), Value::str("Madrid"));
        assert_eq!(old, Value::str("Capital"));
        let r = s.repair();
        assert_eq!(r.changes.len(), 1);
        assert_eq!(r.changes[0].cell.attr, s.table().schema().id("Country"));
    }

    #[test]
    fn upsert_replaces_by_name() {
        let mut s = session();
        let replacement = trex_constraints::parse_dc_named(
            "C3: !(t1.League = t2.League & t1.Year != t2.Year)",
            "C3",
        )
        .unwrap();
        s.upsert_constraint(replacement.clone()).unwrap();
        assert_eq!(s.constraints().len(), 4);
        assert_eq!(
            s.constraints()
                .iter()
                .find(|d| d.name == "C3")
                .unwrap()
                .predicates,
            replacement.predicates
        );
        // And adding a brand-new one grows the set.
        let extra = trex_constraints::parse_dc_named("C5: !(t1.Place < 1)", "C5").unwrap();
        s.upsert_constraint(extra).unwrap();
        assert_eq!(s.constraints().len(), 5);
    }

    #[test]
    fn upserting_an_unresolvable_constraint_leaves_the_session_untouched() {
        let mut s = session();
        s.explain_constraints(laliga::cell_of_interest(s.table()))
            .unwrap();
        let cached = s.oracle_cache().stats();
        let bad = trex_constraints::parse_dc_named("!(t1.Nope = t2.Nope)", "C9").unwrap();
        let err = s.upsert_constraint(bad).unwrap_err();
        assert!(err.to_string().contains("Nope"), "{err}");
        assert_eq!(s.constraints().len(), 4);
        assert!(s.history().is_empty());
        assert!(!s.oracle_cache().is_empty(), "no flush on a rejected edit");
        assert_eq!(s.oracle_cache().stats(), cached);
        // The next repair runs on the untouched inputs.
        assert_eq!(s.repair().changes.len(), 2);
    }

    #[test]
    fn history_records_actions() {
        let mut s = session();
        let city = s.table().schema().id("City");
        s.set_cell(CellRef::new(4, city), Value::str("Madrid"));
        s.remove_constraint("C4");
        s.repair();
        let actions: Vec<&str> = s.history().iter().map(|h| h.action.as_str()).collect();
        assert_eq!(actions.len(), 3);
        assert!(actions[0].starts_with("set t5["));
        assert_eq!(actions[1], "remove constraint C4");
        assert_eq!(actions[2], "repair");
        assert_eq!(s.history()[2].cells_repaired, 1);
    }

    #[test]
    fn session_threads_do_not_change_explanations() {
        let s = session();
        assert_eq!(s.config().threads(), 1);
        let s = s.with_config(ExecConfig::new().with_threads(2).with_seed(3));
        assert_eq!(s.config().threads(), 2);
        let req = masked(laliga::cell_of_interest(s.table()), 400);
        let a = s.explain(&req, &s.config()).unwrap();
        let serial = session()
            .explain(&req, &ExecConfig::new().with_seed(3))
            .unwrap();
        assert_eq!(a.values, serial.values);
        assert_eq!(a.ranking.top().unwrap().label, "t5[League]");
    }

    #[test]
    fn session_violations_match_direct_detection_at_any_thread_count() {
        let s = session();
        let serial = s.violations().unwrap();
        assert!(!serial.is_empty(), "the demo table starts dirty");
        let mut s = s.with_config(ExecConfig::new().with_threads(4));
        assert_eq!(s.violations().unwrap(), serial);
        // Fixing the table empties the list.
        let r = s.repair();
        for c in &r.changes {
            s.set_cell(c.cell, c.to.clone());
        }
        assert!(s.violations().unwrap().is_empty());
    }

    #[test]
    fn session_oracle_capacity_preserves_results() {
        let bounded = session().with_config(ExecConfig::new().with_oracle_cap(4));
        let reference = session();
        assert_eq!(bounded.config().oracle_cap(), Some(4));
        assert_eq!(reference.config().oracle_cap(), None);
        assert_eq!(bounded.oracle_cache().capacity(), 4);
        let cell = laliga::cell_of_interest(bounded.table());
        let cons = bounded.explain_constraints(cell).unwrap();
        let want = reference.explain_constraints(cell).unwrap();
        assert_eq!(cons.exact, want.exact);
        let req = masked(cell, 200);
        let exec = ExecConfig::new().with_seed(5);
        let cells = bounded.explain(&req, &exec.with_oracle_cap(4)).unwrap();
        let want = reference.explain(&req, &exec).unwrap();
        assert_eq!(cells.values, want.values);
    }

    #[test]
    fn explanations_report_oracle_pressure() {
        let bounded = session().with_config(ExecConfig::new().with_oracle_cap(4));
        let cell = laliga::cell_of_interest(bounded.table());
        let cons = bounded.explain_constraints(cell).unwrap();
        // Identical explanation to the unbounded session...
        let want = session().explain_constraints(cell).unwrap();
        assert_eq!(cons.exact, want.exact);
        // ...but capacity 4 cannot hold the 16 coalition values, so the
        // bounded run must report evictions where the unbounded one
        // reports none.
        assert!(cons.oracle.misses > 0);
        assert!(
            cons.oracle.evictions > 0,
            "capacity 4 must evict: {:?}",
            cons.oracle
        );
        assert_eq!(want.oracle.evictions, 0, "{:?}", want.oracle);
        assert!(want.oracle.hits > 0, "the rational pass re-reads the memo");
    }

    #[test]
    fn session_backend_and_batching_reproduce_the_inline_path() {
        let remote = session()
            .with_config(ExecConfig::new().with_oracle_batch(8))
            .with_oracle_backend(Box::new(trex_repair::MockRemoteRepair::mock(
                Box::new(laliga::algorithm1()),
                std::time::Duration::ZERO,
            )));
        let reference = session();
        assert_eq!(
            remote.oracle_backend().unwrap().name(),
            "remote(algorithm1)"
        );
        assert!(reference.oracle_backend().is_none());
        let cell = laliga::cell_of_interest(remote.table());
        let cons = remote.explain_constraints(cell).unwrap();
        let want = reference.explain_constraints(cell).unwrap();
        assert_eq!(cons.exact, want.exact);
        assert_eq!(
            cons.batches.queries, want.batches.queries,
            "same misses either way"
        );
        assert!(
            cons.batches.batches > want.batches.batches,
            "a batch cap of 8 splits the 16-coalition dispatch: {:?} vs {:?}",
            cons.batches,
            want.batches
        );
        let req = masked(cell, 200);
        let exec = ExecConfig::new().with_seed(5);
        let cells = remote.explain(&req, &exec.with_oracle_batch(8)).unwrap();
        let want = reference.explain(&req, &exec).unwrap();
        assert_eq!(cells.values, want.values);
    }

    #[test]
    fn dead_constraints_leave_the_violation_list_unchanged() {
        let mut s = session();
        let before = s.violations().unwrap();
        s.upsert_constraint(
            trex_constraints::parse_dc_named(
                "Dead: !(t1.Year < t2.Year & t1.Year > t2.Year)",
                "Dead",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            s.violations().unwrap(),
            before,
            "a dead DC contributes no witnesses"
        );
        let s = s.with_config(ExecConfig::new().with_threads(2));
        assert_eq!(s.violations().unwrap(), before);
    }

    #[test]
    fn removing_missing_constraint_is_none() {
        let mut s = session();
        assert!(s.remove_constraint("C9").is_none());
        assert_eq!(s.history().len(), 0);
    }

    #[test]
    fn session_is_send_and_sync() {
        // The server shares one Session behind an RwLock across request
        // threads; both auto traits are load-bearing.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
    }

    #[test]
    fn shared_cache_pools_answers_across_requests() {
        let s = session();
        let cell = laliga::cell_of_interest(s.table());
        let _ = s.explain_constraints(cell).unwrap();
        let first = s.oracle_cache().stats();
        assert!(first.misses > 0);
        // A second identical request must be answered from the shared
        // cache: no new misses, only hits.
        let _ = s.explain_constraints(cell).unwrap();
        let second = s.oracle_cache().stats();
        assert_eq!(second.misses, first.misses, "{second:?}");
        assert!(second.hits > first.hits, "{second:?}");
        // A request pinning a different oracle capacity gets a private
        // oracle and leaves the shared cache untouched.
        let exec = ExecConfig::new().with_oracle_cap(4);
        let _ = s.explain(&constraints(cell), &exec).unwrap();
        assert_eq!(s.oracle_cache().stats(), second);
    }

    #[test]
    fn mutations_flush_the_shared_cache_and_explanations_stay_fresh() {
        // A long-lived session that mutates its inputs must not serve
        // explanations influenced by pre-mutation oracle state. The cache
        // keys already embed the inputs; this pins the flush *and* the
        // freshness of the answers: for every mutation and every request
        // kind, explaining after the mutation equals a fresh session over
        // the mutated inputs, bit for bit, at 1 and 2 threads.
        type Mutation = fn(&mut Session);
        let mutations: [(&str, Mutation); 3] = [
            ("set_cell", |s| {
                let year = s.table().schema().id("Year");
                s.set_cell(CellRef::new(0, year), Value::Int(1999));
            }),
            ("upsert_constraint", |s| {
                let dc = trex_constraints::parse_dc_named("C9: !(t1.Place < 1)", "C9");
                s.upsert_constraint(dc.unwrap()).unwrap();
            }),
            ("remove_constraint", |s| {
                s.remove_constraint("C3").unwrap();
            }),
        ];
        let cell = laliga::cell_of_interest(&laliga::dirty_table());
        let masked_in = |mode| ExplainRequest {
            cell,
            players: Players::MaskedCells { mode, walks: 20 },
        };
        let requests = [
            constraints(cell),
            masked_in(MaskMode::Null),
            masked_in(MaskMode::Distinct),
            ExplainRequest {
                cell,
                players: Players::ReplacedCells { samples: 4 },
            },
            ExplainRequest {
                cell,
                players: Players::AdaptiveCells(AdaptiveConfig {
                    tolerance: 0.1,
                    batch: 4,
                    max_samples: 12,
                    ..AdaptiveConfig::default()
                }),
            },
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 2] {
            let exec = ExecConfig::new().with_threads(threads).with_seed(5);
            for (name, mutate) in &mutations {
                let mut s = session().with_config(exec);
                for req in &requests {
                    s.explain(req, &exec).unwrap();
                }
                assert!(!s.oracle_cache().is_empty());
                mutate(&mut s);
                assert!(s.oracle_cache().is_empty(), "{name} must flush");
                let fresh = Session::new(
                    Box::new(laliga::algorithm1()),
                    s.table().clone(),
                    s.constraints().to_vec(),
                )
                .with_config(exec);
                for req in &requests {
                    let got = s.explain(req, &exec).unwrap();
                    let want = fresh.explain(req, &exec).unwrap();
                    let what = format!("{name}, {:?}, {threads} thread(s)", req.players);
                    assert_eq!(bits(&got.values), bits(&want.values), "{what}");
                    assert_eq!(got.exact, want.exact, "{what}");
                    assert_eq!(got.players, want.players, "{what}");
                }
                if *name == "remove_constraint" {
                    let after = s.explain(&requests[0], &exec).unwrap();
                    assert_eq!(after.exact[0].1.to_string(), "1/2");
                }
            }
        }
    }

    #[test]
    fn concurrent_explanations_match_solo_runs_bit_for_bit() {
        // N threads hammer one shared Session (one shared coalition cache)
        // with mixed seeds and thread counts; every result must equal the
        // same request run solo against its own session.
        let s = session().with_config(ExecConfig::new().with_threads(2));
        let req = masked(laliga::cell_of_interest(s.table()), 120);
        let requests: Vec<ExecConfig> = vec![
            ExecConfig::new().with_threads(1).with_seed(3),
            ExecConfig::new().with_threads(2).with_seed(3),
            ExecConfig::new().with_threads(2).with_seed(11),
            ExecConfig::new().with_threads(3).with_seed(7),
            ExecConfig::new().with_threads(4).with_seed(11),
            ExecConfig::new().with_threads(1).with_seed(7),
        ];
        let shared: Vec<Explanation> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|exec| {
                    let (s, req) = (&s, &req);
                    scope.spawn(move || s.explain(req, exec).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (exec, got) in requests.iter().zip(&shared) {
            let solo = session().with_config(*exec);
            let want = solo.explain(&req, &solo.config()).unwrap();
            assert_eq!(got.values, want.values, "{exec:?}");
            assert_eq!(got.players, want.players, "{exec:?}");
        }
        assert!(
            s.oracle_cache().stats().hits > 0,
            "the hammer must actually share the cache"
        );
    }
}
