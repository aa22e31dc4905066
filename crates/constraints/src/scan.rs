//! Violation detection: the one scan behind every caller.
//!
//! Violation detection is the inner loop of every repair engine
//! (detect → fix → re-detect), of each coalition repair the Shapley oracle
//! runs, and of the CLI's `violations` screen. This module is its only fast
//! implementation; [`crate::eval::find_violations`] is the nested-loop
//! reference it is tested against.
//!
//! **Equality partition.** Most useful DCs (and all four of the paper's)
//! contain at least one *equality join* predicate `t1.A = t2.A`. Rows are
//! partitioned by their dictionary codes on the join attributes; only pairs
//! within a partition can violate, turning the `O(n²)` nested loop into
//! `O(n + Σ b_i²)` for bucket sizes `b_i`. Rows with a null on any join
//! attribute are excluded outright: a null never satisfies `t1.A = t2.A`.
//! DCs without an equality join, and unary DCs, run the nested loop over
//! the compiled predicates.
//!
//! **Threads.** The scan splits across a fixed worker count with
//! [`std::thread::scope`], and its output is **identical at any thread
//! count** — same witnesses, same order; a thread count changes wall time
//! only. Work is always cut into contiguous pieces whose results are
//! concatenated in worker order:
//!
//! * equality groups are decomposed into outer-row *blocks*
//!   ([`pair_blocks`]) — small groups are one block, giant buckets are cut
//!   along the outer-row axis — and the block list is cut into contiguous
//!   ranges balanced by pair count, so a single degenerate all-rows bucket
//!   spreads across the workers instead of landing on one;
//! * the nested loop chunks its outer row range.
//!
//! A scan never runs more workers than its pair work pays for: each worker
//! must get at least `MIN_PAIRS_PER_WORKER` row pairs, so small scans
//! run on the calling thread. One worker runs the serial bucket loop
//! directly (no blocks, no spawn): the repair engines call
//! [`find_violations_par`] for every rule in every round of every
//! coalition repair, on tables of a few rows.
//!
//! **Pruning.** [`find_all_violations_par`] skips every DC that
//! [`crate::analyze::statically_unviolable`] proves can never be violated.
//! Such a DC's witness list is empty on every table, so skipping it never
//! changes the output — only the wasted pair scan disappears.

use crate::ast::DenialConstraint;
use crate::compiled::CompiledDc;
use crate::eval::{violation_for, Violation};
use std::collections::HashMap;
use std::ops::Range;
use trex_table::{AttrId, CellRef, EncodedTable, Table};

/// Find all violations of a single resolved DC on `threads` workers.
///
/// The witness set is exactly [`crate::eval::find_violations`]'s, in the
/// scan's own deterministic order (bucket by bucket), which is the same at
/// every thread count.
///
/// # Panics
/// Panics if `threads == 0`, or if `dc` is not resolved.
pub fn find_violations_par(dc: &DenialConstraint, table: &Table, threads: usize) -> Vec<Violation> {
    let enc = EncodedTable::encode(table);
    scan_dc(dc, table, &enc, threads)
}

/// Find all violations of every DC in `dcs` (resolved) on `threads`
/// workers, concatenated in constraint order. The table is encoded once and
/// shared across the DC scans, and statically unviolable DCs are not
/// scanned (see the module docs): the output equals the concatenation of
/// [`find_violations_par`] over `dcs`.
pub fn find_all_violations_par(
    dcs: &[DenialConstraint],
    table: &Table,
    threads: usize,
) -> Vec<Violation> {
    let enc = EncodedTable::encode(table);
    dcs.iter()
        .filter(|dc| crate::analyze::statically_unviolable(dc).is_none())
        .flat_map(|dc| scan_dc(dc, table, &enc, threads))
        .collect()
}

/// The distinct cells implicated in any violation of `dcs` — the "noisy
/// cells" a repair engine considers changing — sorted. Identical at any
/// thread count.
pub fn noisy_cells_par(dcs: &[DenialConstraint], table: &Table, threads: usize) -> Vec<CellRef> {
    let mut out: Vec<CellRef> = find_all_violations_par(dcs, table, threads)
        .into_iter()
        .flat_map(|v| v.cells)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The fewest row pairs a scan worker must get before the scan splits
/// (unary DCs count one check per row as a pair).
///
/// Spawning and joining a scoped worker costs about 50–70 µs on a 2-vCPU
/// Linux host, while one pair probe costs about 5–15 ns. Timed there
/// (release, best of 5), a 2-worker scan lost to the serial one at 4,032
/// pairs (bucket 77 → 126 µs, nested loop 70 → 104 µs), was mixed at 9,120
/// and won at 16,256 (310 → 245 µs, 209 → 185 µs). The 6-row laliga scan of
/// four DCs took 8 µs serial and 150 µs at 2 threads. At 8,192 pairs per
/// worker a split starts at 16,384 pairs, where it measured ahead.
const MIN_PAIRS_PER_WORKER: usize = 8192;

/// The workers a scan of `pairs` row pairs gets out of `threads`.
fn workers_for(pairs: usize, threads: usize) -> usize {
    threads.min(pairs / MIN_PAIRS_PER_WORKER).max(1)
}

/// The ordered row pairs within the equality groups.
fn pair_count(groups: &[Vec<usize>]) -> usize {
    groups.iter().map(|g| g.len() * (g.len() - 1)).sum()
}

/// [`find_violations_par`] against a pre-built encoding of `table`.
fn scan_dc(
    dc: &DenialConstraint,
    table: &Table,
    enc: &EncodedTable,
    threads: usize,
) -> Vec<Violation> {
    assert!(threads >= 1, "threads must be >= 1 (resolve 0 first)");
    let cdc = CompiledDc::compile(dc);
    let Some((key, groups)) = equality_groups(dc, table, enc) else {
        let n = table.num_rows();
        let pairs = if dc.is_binary() {
            n * n.saturating_sub(1)
        } else {
            n
        };
        let ranges = chunk_ranges(n, workers_for(pairs, threads));
        return scan_on_workers(ranges, |rows| nested_loop(&cdc, table, enc, rows));
    };
    let threads = workers_for(pair_count(&groups), threads);
    if threads == 1 {
        let mut out = Vec::new();
        for rows in &groups {
            scan_group_block(&cdc, table, enc, &key, rows, 0..rows.len(), &mut out);
        }
        return out;
    }
    let blocks = pair_blocks(&groups, threads);
    let threads = threads.min(blocks.len()).max(1);
    let costs: Vec<usize> = blocks
        .iter()
        .map(|blk| blk.outer.len() * (groups[blk.group].len() - 1))
        .collect();
    let ranges = partition_by_cost(&costs, threads);
    scan_on_workers(ranges, |range| {
        let mut out = Vec::new();
        for blk in &blocks[range] {
            let rows = &groups[blk.group];
            scan_group_block(&cdc, table, enc, &key, rows, blk.outer.clone(), &mut out);
        }
        out
    })
}

// --- the equality partition ----------------------------------------------

/// Build the partition key of `row` on `attrs` as dictionary codes; `None`
/// if any key cell is null. Code equality is exactly representational
/// `Value` equality (the dictionary interns by it).
fn key_of(enc: &EncodedTable, row: usize, attrs: &[AttrId]) -> Option<Vec<u32>> {
    let mut key = Vec::with_capacity(attrs.len());
    for a in attrs {
        let code = enc.code(row, *a);
        if enc.dict(*a).null_code() == Some(code) {
            return None;
        }
        key.push(code);
    }
    Some(key)
}

/// [`key_of`] for joins of at most two attributes, packed into one `u64`
/// (code equality on each attribute ⇔ equality of the packed word). Joins
/// on one or two columns are the overwhelmingly common shape, and the
/// oracle re-partitions a tiny masked table on every coalition repair — a
/// heap-allocated `Vec<u32>` key per row is measurable there.
fn packed_key_of(enc: &EncodedTable, row: usize, attrs: &[AttrId]) -> Option<u64> {
    let mut key = 0u64;
    for a in attrs {
        let code = enc.code(row, *a);
        if enc.dict(*a).null_code() == Some(code) {
            return None;
        }
        key = (key << 32) | u64::from(code);
    }
    Some(key)
}

/// The equality-join partition of a binary DC: the resolved key attributes
/// and the row groups sharing a key on them, sorted by first member (the
/// deterministic scan order). `None` when the DC is unary, has no equality
/// join, or its join attributes do not resolve — the nested loop runs
/// instead.
fn equality_groups(
    dc: &DenialConstraint,
    table: &Table,
    enc: &EncodedTable,
) -> Option<(Vec<AttrId>, Vec<Vec<usize>>)> {
    if !dc.is_binary() {
        return None;
    }
    let join_names = dc.equality_join_attrs();
    if join_names.is_empty() {
        return None;
    }
    let attrs: Vec<AttrId> = join_names
        .iter()
        .filter_map(|n| table.schema().resolve(n))
        .collect();
    if attrs.len() != join_names.len() {
        // Unresolvable name (shouldn't happen for a resolved DC) — fall back.
        return None;
    }

    // Same buckets either way — the packed key is just `Vec<u32>` equality
    // without the per-row allocation when the join is narrow enough.
    let mut groups: Vec<Vec<usize>> = if attrs.len() <= 2 {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for row in 0..table.num_rows() {
            if let Some(key) = packed_key_of(enc, row, &attrs) {
                buckets.entry(key).or_default().push(row);
            }
        }
        buckets.into_values().collect()
    } else {
        let mut buckets: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for row in 0..table.num_rows() {
            if let Some(key) = key_of(enc, row, &attrs) {
                buckets.entry(key).or_default().push(row);
            }
        }
        buckets.into_values().collect()
    };

    // Deterministic order: iterate buckets by their first row index.
    groups.sort_by_key(|g| g[0]);
    Some((attrs, groups))
}

/// Scan one *block* of an equality group's pair matrix: the outer rows
/// `rows[outer]` against every row of the group, appending witnesses in
/// scan order. `key` is the partition key of [`equality_groups`] — its
/// equality-join predicates are skipped, they hold by construction within
/// a group. Blocks tile the outer loop in order, so concatenating them
/// reproduces the whole-group scan.
fn scan_group_block(
    cdc: &CompiledDc<'_>,
    table: &Table,
    enc: &EncodedTable,
    key: &[AttrId],
    rows: &[usize],
    outer: Range<usize>,
    out: &mut Vec<Violation>,
) {
    let bound = cdc.bind(enc, key);
    for &i in &rows[outer] {
        for &j in rows {
            if i == j {
                continue;
            }
            if bound.holds(table, i, j) {
                out.push(cdc.witness(i, j));
            }
        }
    }
}

/// Nested-loop scan with the compiled pre-filter over the outer rows
/// `outer`: each row `i` against every `j ≠ i` for binary DCs, or alone for
/// unary ones — exactly [`crate::eval::find_violations`] restricted to
/// those rows, same witnesses, same order.
fn nested_loop(
    cdc: &CompiledDc<'_>,
    table: &Table,
    enc: &EncodedTable,
    outer: Range<usize>,
) -> Vec<Violation> {
    let dc = cdc.dc();
    let bound = cdc.bind(enc, &[]);
    let n = table.num_rows();
    let mut out = Vec::new();
    for i in outer {
        if dc.is_binary() {
            for j in 0..n {
                if i != j && bound.holds(table, i, j) {
                    out.push(violation_for(dc, table, i, j).expect("pre-filter agreed"));
                }
            }
        } else if bound.holds(table, i, i) {
            out.push(violation_for(dc, table, i, i).expect("pre-filter agreed"));
        }
    }
    out
}

// --- splitting the work ----------------------------------------------------

/// Split `0..items` into `threads` contiguous ranges whose sizes differ by
/// at most one (front-loaded remainder).
fn chunk_ranges(items: usize, threads: usize) -> Vec<Range<usize>> {
    let base = items / threads;
    let extra = items % threads;
    let mut start = 0;
    (0..threads)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

/// Split `0..costs.len()` into `threads` contiguous ranges with roughly
/// equal cumulative cost (deterministic: cut points are the prefix-sum
/// thresholds `total·(w+1)/threads`). The last range absorbs the tail.
fn partition_by_cost(costs: &[usize], threads: usize) -> Vec<Range<usize>> {
    let total: usize = costs.iter().sum();
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut cum = 0usize;
    for w in 0..threads {
        if w + 1 == threads {
            ranges.push(start..costs.len());
            break;
        }
        let target = total * (w + 1) / threads;
        let mut end = start;
        while end < costs.len() && cum < target {
            cum += costs[end];
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Run `work` over each range on its own scoped thread and concatenate the
/// results in range (= worker) order. Empty ranges contribute nothing and
/// are not spawned; a single non-empty range runs inline (no scope, no
/// spawn) — `--threads` defaults to all hardware threads, so tiny tables
/// must not pay thread overhead for scans that take microseconds.
fn scan_on_workers<F>(mut ranges: Vec<Range<usize>>, work: F) -> Vec<Violation>
where
    F: Fn(Range<usize>) -> Vec<Violation> + Sync,
{
    ranges.retain(|r| !r.is_empty());
    match ranges.len() {
        0 => return Vec::new(),
        1 => return work(ranges.pop().expect("checked len")),
        _ => {}
    }
    let per_worker = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || work(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("violation-scan worker panicked"))
            .collect::<Vec<_>>()
    });
    per_worker.into_iter().flatten().collect()
}

/// One block of within-bucket pair work: the rows `outer` of group
/// `group`, to be scanned against the whole group.
struct PairBlock {
    group: usize,
    outer: Range<usize>,
}

/// Decompose the equality groups' pair matrices into scan blocks: a group
/// whose ordered-pair count fits the per-worker cost share stays one block;
/// a *giant* bucket is cut along its outer-row axis into blocks of roughly
/// the share, so it spreads across workers instead of landing on one.
/// Every outer row of a size-`b` group costs the same `b − 1` inner
/// probes, so equal row counts are equal costs and the split stays
/// balanced whatever the bucket shape. Blocks tile each group's outer loop
/// in order and groups stay in order, so concatenating block outputs
/// reproduces the serial scan exactly.
fn pair_blocks(groups: &[Vec<usize>], threads: usize) -> Vec<PairBlock> {
    let share = (pair_count(groups) / threads).max(1);
    let mut blocks = Vec::new();
    for (group, rows) in groups.iter().enumerate() {
        let b = rows.len();
        if b < 2 {
            continue; // no ordered pairs — nothing a scan could emit
        }
        let cost = b * (b - 1);
        if cost <= share {
            blocks.push(PairBlock { group, outer: 0..b });
            continue;
        }
        let rows_per_block = (share / (b - 1)).max(1);
        let mut start = 0;
        while start < b {
            let end = (start + rows_per_block).min(b);
            blocks.push(PairBlock {
                group,
                outer: start..end,
            });
            start = end;
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::find_violations;
    use crate::parser::parse_dc;
    use trex_table::{TableBuilder, Value};

    /// A table with several bucket sizes, null keys, and both satisfied and
    /// violated DCs.
    fn table(rows: usize) -> Table {
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..rows {
            let team = format!("T{}", i % 5);
            let city = format!("C{}", i % 3);
            let country = if i % 7 == 0 { "X" } else { "Y" }.to_string();
            b = b.str_row([team.as_str(), city.as_str(), country.as_str()]);
        }
        let mut t = b.build();
        if rows > 4 {
            let team = t.schema().id("Team");
            t.set(CellRef::new(4, team), Value::Null);
        }
        t
    }

    fn resolved(src: &str, t: &Table) -> DenialConstraint {
        let mut dc = parse_dc(src).unwrap();
        dc.resolve(t.schema()).unwrap();
        dc
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

    const DCS: [&str; 4] = [
        "!(t1.Team = t2.Team & t1.City != t2.City)",
        "!(t1.City = t2.City & t1.Country != t2.Country)",
        // No equality join: exercises the nested-loop path.
        "!(t1.Country != t2.Country & t1.City != t2.City)",
        // Unary.
        "!(t1.Country = \"X\")",
    ];

    #[test]
    fn scan_finds_exactly_the_reference_witnesses() {
        let t = table(17);
        for src in DCS {
            let dc = resolved(src, &t);
            for threads in [1usize, 4] {
                assert_eq!(
                    as_set(find_violations(&dc, &t)),
                    as_set(find_violations_par(&dc, &t, threads)),
                    "{src} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn output_is_identical_at_every_thread_count() {
        let t = table(23);
        for src in DCS {
            let dc = resolved(src, &t);
            let serial = find_violations_par(&dc, &t, 1);
            for threads in [2usize, 3, 4, 8, 16] {
                let par = find_violations_par(&dc, &t, threads);
                assert_eq!(serial, par, "{src} at {threads} threads");
            }
        }
    }

    #[test]
    fn null_join_keys_never_violate() {
        let t = table(9);
        let dc = resolved(DCS[0], &t);
        let found = as_set(find_violations_par(&dc, &t, 1));
        assert_eq!(found, as_set(find_violations(&dc, &t)));
        assert!(!found.is_empty());
        assert!(!found.iter().any(|(r1, r2, _)| *r1 == 4 || *r2 == Some(4)));
    }

    #[test]
    fn unary_dc_reports_single_rows() {
        let t = table(9);
        let dc = resolved(DCS[3], &t);
        let vs = find_violations_par(&dc, &t, 1);
        assert_eq!(vs.len(), 2, "rows 0 and 7 have Country X");
        assert!(vs.iter().all(|v| v.row2.is_none()));
    }

    #[test]
    fn all_violations_concatenate_the_per_dc_scans_and_skip_dead_dcs() {
        let t = table(19);
        let mut dcs: Vec<DenialConstraint> = DCS.iter().map(|s| resolved(s, &t)).collect();
        // Dead: no row pair can be both below and above; the scan skips it.
        let mut dead = resolved("!(t1.City < t2.City & t1.City > t2.City)", &t);
        dead.name = "Dead".to_string();
        assert!(crate::analyze::statically_unviolable(&dead).is_some());
        assert!(find_violations(&dead, &t).is_empty());
        dcs.insert(1, dead);
        for threads in [1usize, 2, 5] {
            let per_dc: Vec<Violation> = dcs
                .iter()
                .flat_map(|dc| find_violations_par(dc, &t, threads))
                .collect();
            assert_eq!(per_dc, find_all_violations_par(&dcs, &t, threads));
        }
    }

    #[test]
    fn noisy_cells_are_the_sorted_distinct_witness_cells() {
        let t = table(19);
        let dcs: Vec<DenialConstraint> = DCS.iter().map(|s| resolved(s, &t)).collect();
        let mut want: Vec<CellRef> = dcs
            .iter()
            .flat_map(|dc| find_violations(dc, &t))
            .flat_map(|v| v.cells)
            .collect();
        want.sort();
        want.dedup();
        assert!(!want.is_empty());
        for threads in [1usize, 2, 5] {
            assert_eq!(want, noisy_cells_par(&dcs, &t, threads));
        }
    }

    #[test]
    fn empty_and_tiny_tables() {
        let t = table(0);
        let dc = resolved(DCS[0], &t);
        assert!(find_violations_par(&dc, &t, 4).is_empty());
        let t1 = table(1);
        let dc1 = resolved(DCS[0], &t1);
        assert!(find_violations_par(&dc1, &t1, 4).is_empty());
    }

    #[test]
    fn more_threads_than_rows_or_groups() {
        let t = table(3);
        for src in DCS {
            let dc = resolved(src, &t);
            assert_eq!(
                find_violations_par(&dc, &t, 1),
                find_violations_par(&dc, &t, 64),
                "{src}"
            );
        }
    }

    #[test]
    fn partition_by_cost_tiles_and_balances() {
        let costs = [6usize, 0, 2, 12, 2, 0, 6, 2];
        for threads in [1usize, 2, 3, 4, 8, 12] {
            let ranges = partition_by_cost(&costs, threads);
            assert_eq!(ranges.len(), threads);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, costs.len());
        }
        // The big group lands alone-ish: no worker gets everything when the
        // cost spread allows better.
        let ranges = partition_by_cost(&costs, 2);
        let first: usize = costs[ranges[0].clone()].iter().sum();
        let second: usize = costs[ranges[1].clone()].iter().sum();
        assert!(first > 0 && second > 0, "{ranges:?}");
    }

    #[test]
    #[should_panic(expected = "threads must be >= 1")]
    fn zero_threads_panics() {
        let t = table(3);
        let dc = resolved(DCS[0], &t);
        let _ = find_violations_par(&dc, &t, 0);
    }

    /// The pathological shape the block split exists for: every row shares
    /// one equality-bucket key, so pre-split scheduling put the entire
    /// `n·(n−1)` pair scan on a single worker.
    fn giant_bucket_table(rows: usize) -> Table {
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..rows {
            let city = format!("C{}", i % 4);
            b = b.str_row(["SameTeam", city.as_str(), "Y"]);
        }
        b.build()
    }

    #[test]
    fn giant_bucket_is_serial_identical_at_every_thread_count() {
        let t = giant_bucket_table(61);
        let dc = resolved(DCS[0], &t);
        let serial = find_violations_par(&dc, &t, 1);
        assert!(!serial.is_empty(), "the bucket must actually conflict");
        for threads in [2usize, 3, 4, 8, 16, 61, 64] {
            let par = find_violations_par(&dc, &t, threads);
            assert_eq!(serial, par, "{threads} threads");
        }
    }

    #[test]
    fn giant_bucket_splits_into_multiple_blocks() {
        // One 61-row bucket at 4 threads must not be a single work unit.
        let t = giant_bucket_table(61);
        let dc = resolved(DCS[0], &t);
        let enc = EncodedTable::encode(&t);
        let (_, groups) = equality_groups(&dc, &t, &enc).unwrap();
        assert_eq!(groups.len(), 1, "all rows share the Team key");
        let blocks = pair_blocks(&groups, 4);
        assert!(blocks.len() >= 4, "got {} block(s)", blocks.len());
        // Blocks tile the group's outer rows in order.
        let mut next = 0;
        for blk in &blocks {
            assert_eq!(blk.group, 0);
            assert_eq!(blk.outer.start, next);
            next = blk.outer.end;
        }
        assert_eq!(next, 61);
    }

    #[test]
    fn pair_blocks_keep_small_groups_whole_and_skip_singletons() {
        let groups: Vec<Vec<usize>> = vec![vec![0], vec![1, 2], vec![3], vec![4, 5, 6]];
        // One worker: every group fits the share, singletons vanish.
        let spans = |threads: usize| -> Vec<(usize, Range<usize>)> {
            pair_blocks(&groups, threads)
                .iter()
                .map(|b| (b.group, b.outer.clone()))
                .collect()
        };
        assert_eq!(spans(1), vec![(1, 0..2), (3, 0..3)]);
        // Two workers: the 3-row group's cost (6) exceeds the share (4),
        // so it splits along its outer rows; the 2-row group stays whole.
        assert_eq!(spans(2), vec![(1, 0..2), (3, 0..2), (3, 2..3)]);
    }

    #[test]
    fn all_singleton_buckets_yield_no_violations() {
        // Every row its own bucket: no pairs, no blocks, empty output at
        // any thread count (and no spawns).
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..9 {
            let team = format!("T{i}");
            b = b.str_row([team.as_str(), "C", "Y"]);
        }
        let t = b.build();
        let dc = resolved(DCS[0], &t);
        for threads in [1usize, 4] {
            assert!(find_violations_par(&dc, &t, threads).is_empty());
        }
    }

    #[test]
    fn worker_count_follows_the_pair_work() {
        assert_eq!(workers_for(0, 8), 1);
        assert_eq!(workers_for(2 * MIN_PAIRS_PER_WORKER - 1, 8), 1);
        assert_eq!(workers_for(2 * MIN_PAIRS_PER_WORKER, 8), 2);
        assert_eq!(workers_for(100 * MIN_PAIRS_PER_WORKER, 8), 8);
        assert_eq!(workers_for(100 * MIN_PAIRS_PER_WORKER, 1), 1);
        // laliga-sized scans stay on the calling thread.
        assert_eq!(workers_for(6 * 5, 4), 1);
    }

    #[test]
    fn scans_big_enough_to_split_are_identical_at_every_thread_count() {
        // 600 rows: five Team buckets of 120 rows (71,400 pairs), three
        // City buckets (119,600) and the 359,400-pair nested loop all
        // clear the per-worker floor, so every binary DC really splits;
        // the unary DC's 600 checks do not.
        let t = table(600);
        for src in DCS {
            let dc = resolved(src, &t);
            let serial = find_violations_par(&dc, &t, 1);
            for threads in [2usize, 3, 8] {
                assert_eq!(serial, find_violations_par(&dc, &t, threads), "{src}");
            }
        }
        // One giant bucket: the block split spreads it over the workers.
        let mut b = TableBuilder::new().str_columns(["Team", "City", "Country"]);
        for i in 0..300 {
            let city = format!("C{}", i % 7);
            b = b.str_row(["Same", city.as_str(), "Y"]);
        }
        let giant = b.build();
        let dc = resolved(DCS[0], &giant);
        let serial = find_violations_par(&dc, &giant, 1);
        let same_city: usize = (0..7)
            .map(|c| (0..300).filter(|i| i % 7 == c).count())
            .map(|k| k * (k - 1))
            .sum();
        assert_eq!(serial.len(), 300 * 299 - same_city);
        for threads in [2usize, 4, 8] {
            assert_eq!(serial, find_violations_par(&dc, &giant, threads));
        }
    }
}
