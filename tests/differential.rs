//! Differential pruning-oracle suite: for many seeded random workloads
//! (random schemas, layouts, predicates, LIMIT / top-k / join shapes), the
//! executor with **all four pruning techniques enabled** must return
//! results identical to the **all-pruning-disabled oracle** — sequentially
//! and with the whole workload running concurrently on the shared morsel
//! pool ("Sparsity May Cry": pruning claims only count under an
//! adversarial, result-checked harness).
//!
//! Determinism contract per query shape:
//! * filter / scan / join / aggregation queries: row *multisets* must be
//!   byte-identical (order canonicalized — joins and pooled scans may
//!   legally reorder);
//! * top-k over a unique ORDER BY key: the exact ordered rows must be
//!   byte-identical;
//! * LIMIT without ORDER BY: SQL allows any k matching rows, so every
//!   engine must return exactly `min(k, |matching|)` rows, each contained
//!   in the oracle's unlimited result.
//!
//! The pool worker count honours `SNOWPRUNE_SCAN_THREADS` (CI runs this
//! suite at 1, 4, and 8 workers), the default prefetch depth honours
//! `SNOWPRUNE_PREFETCH_DEPTH` (CI runs depths 1 and 8), and the execution
//! batch size honours `SNOWPRUNE_BATCH_ROWS` (CI runs 1 and 1024); the
//! dedicated prefetch leg additionally pins depths 1 and 4, and the
//! vectorized-batch leg pins `batch_rows ∈ {1, 3, 1024}` against the
//! whole-partition row-order oracle.

use snowprune::exec::{
    admission_queue_cap_from_env, batch_rows_from_env, predicate_cache_from_env,
    predicate_cache_mode_from_env, prefetch_depth_from_env, scan_threads_from_env,
    tenant_max_concurrent_from_env, CacheOutcome, PredicateCacheMode,
};
use snowprune::prelude::*;
use snowprune::workload::diffgen::{
    build_workload, cacheable_queries, joinagg_queries, random_queries, Check, Workload,
};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const WORKLOADS: u64 = 50;

fn pool_threads() -> usize {
    scan_threads_from_env().unwrap_or(4)
}

fn env_prefetch_depth() -> usize {
    prefetch_depth_from_env().unwrap_or(2)
}

fn env_batch_rows() -> usize {
    batch_rows_from_env().unwrap_or(ExecConfig::default().batch_rows)
}

/// Cache admission follows the analyzer: with a cache attached, a query
/// consults it exactly when its cacheability report carries a shape.
fn assert_admission_follows_analyzer(out: &QueryOutput, ctx: &str) {
    assert_eq!(
        out.report.cache != CacheOutcome::NotConsulted,
        out.report.cacheability.shape.is_some(),
        "{ctx}: cache admission diverged from the analyzer: {:?} vs {:?}",
        out.report.cache,
        out.report.cacheability
    );
}

/// The prefetch pipeline's counter invariant: every considered scan-set
/// entry was loaded, skipped before submission, or cancelled in flight.
fn assert_pipeline_invariant(out: &QueryOutput, ctx: &str) {
    let s = &out.report.scan_stats;
    assert_eq!(
        s.loaded + s.skipped_by_boundary + s.cancelled_in_flight(),
        s.considered,
        "{ctx}: loaded + skipped + cancelled != considered ({s:?})"
    );
    assert_eq!(
        out.io.partitions_loaded, s.loaded,
        "{ctx}: IoStats and scan counters disagree on loads"
    );
}

// ---- random workload generation -----------------------------------------
//
// The generator lives in `snowprune::workload::diffgen` so the analyzer
// property suite (`crates/analyze/tests/prop_analyze.rs`) runs over the
// identical plan corpus this harness executes.

// ---- comparison helpers --------------------------------------------------

fn cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_ord_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| cmp_rows(a, b));
    rows
}

// ---- the oracle ----------------------------------------------------------

#[test]
fn pruning_is_result_invariant_across_50_workloads() {
    let threads = pool_threads();
    let pruned_cfg = ExecConfig::default()
        .with_prefetch_depth(env_prefetch_depth())
        .with_batch_rows(env_batch_rows());
    let oracle_cfg = ExecConfig::no_pruning()
        .with_prefetch_depth(env_prefetch_depth())
        .with_batch_rows(env_batch_rows());
    for w in 0..WORKLOADS {
        let seed = 0xD1FF_0000 + w;
        let wl = build_workload(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let queries = random_queries(&mut rng, &wl);
        let plans: Vec<Plan> = queries.iter().map(|(p, _)| p.clone()).collect();

        // Sequential engines.
        let pruned_seq = Executor::new(wl.catalog.clone(), pruned_cfg.clone());
        let oracle_seq = Executor::new(wl.catalog.clone(), oracle_cfg.clone());
        // Pooled engines: the whole workload runs as one concurrent batch
        // on a shared pool, so morsels of different queries interleave.
        let pruned_pool = Session::new(
            wl.catalog.clone(),
            pruned_cfg.clone().with_scan_threads(threads),
        );
        let oracle_pool = Session::new(
            wl.catalog.clone(),
            oracle_cfg.clone().with_scan_threads(threads),
        );
        let pruned_batch = pruned_pool.run_batch(&plans);
        let oracle_batch = oracle_pool.run_batch(&plans);

        for (qi, (plan, check)) in queries.iter().enumerate() {
            let ctx = format!("workload {w} query {qi} (threads {threads})");
            let ps = pruned_seq
                .run(plan)
                .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            let os = oracle_seq
                .run(plan)
                .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            let pp = pruned_batch[qi]
                .as_ref()
                .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            let op = oracle_batch[qi]
                .as_ref()
                .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            // Pruning must never scan more than the oracle.
            assert!(
                ps.report.pruning.partitions_scanned <= os.report.pruning.partitions_scanned,
                "{ctx}: pruned scanned more than oracle"
            );
            for (label, out) in [("seq pruned", &ps), ("seq oracle", &os)] {
                assert_pipeline_invariant(out, &format!("{ctx} {label}"));
            }
            for (label, out) in [("pool pruned", pp), ("pool oracle", op)] {
                assert_pipeline_invariant(out, &format!("{ctx} {label}"));
            }
            match check {
                Check::Sorted => {
                    let expect = canonical(os.rows.rows.clone());
                    assert_eq!(canonical(ps.rows.rows.clone()), expect, "{ctx}: seq pruned");
                    assert_eq!(
                        canonical(pp.rows.rows.clone()),
                        expect,
                        "{ctx}: pool pruned"
                    );
                    assert_eq!(
                        canonical(op.rows.rows.clone()),
                        expect,
                        "{ctx}: pool oracle"
                    );
                }
                Check::Ordered => {
                    let expect = &os.rows.rows;
                    assert_eq!(&ps.rows.rows, expect, "{ctx}: seq pruned (ordered)");
                    assert_eq!(&pp.rows.rows, expect, "{ctx}: pool pruned (ordered)");
                    assert_eq!(&op.rows.rows, expect, "{ctx}: pool oracle (ordered)");
                }
                Check::Limited { k, unlimited } => {
                    let full = canonical(oracle_seq.run(unlimited).unwrap().rows.rows);
                    let expect_len = (*k).min(full.len());
                    for (label, out) in [
                        ("seq pruned", &ps),
                        ("pool pruned", pp),
                        ("pool oracle", op),
                    ] {
                        assert_eq!(out.rows.len(), expect_len, "{ctx}: {label} row count");
                        for row in &out.rows.rows {
                            assert!(
                                full.binary_search_by(|probe| cmp_rows(probe, row)).is_ok(),
                                "{ctx}: {label} returned a row outside the oracle result"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---- the predicate-cache leg ---------------------------------------------

/// Random DML statement applied *through the session*, so the predicate
/// cache sees every result. Inserted rows use fresh unique `a` keys and
/// `a`-updates shift by a large disjoint offset, preserving the unique-key
/// invariant the Ordered checks rely on.
fn apply_random_dml(rng: &mut StdRng, session: &Session, wl: &Workload, next_a: &mut i64) {
    let schema = &wl.fact_schema;
    let a = schema.index_of("a").unwrap();
    let c = schema.index_of("c").unwrap();
    let cats = ["red", "green", "blue", "teal"];
    let hi = wl.fact_rows as i64;
    let lo = rng.random_range(0..hi);
    let span = rng.random_range(0..hi / 8 + 1);
    let in_band = |row: &[Value]| match &row[a] {
        Value::Int(x) => *x >= lo && *x <= lo + span,
        _ => false,
    };
    match rng.random_range(0u32..5) {
        0 => {
            // INSERT 1..3 rows with fresh unique keys.
            let n = rng.random_range(1usize..4);
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let mut row = Vec::with_capacity(schema.len());
                for f in schema.fields() {
                    row.push(match f.name.as_str() {
                        "a" => {
                            *next_a += 1;
                            Value::Int(*next_a)
                        }
                        "b" => Value::Int(rng.random_range(-500i64..500)),
                        "c" => Value::Str(cats[rng.random_range(0usize..cats.len())].into()),
                        _ => Value::Int(rng.random_range(0i64..1000)),
                    });
                }
                rows.push(row);
            }
            session.insert_rows("fact", rows).unwrap();
        }
        1 => {
            // DELETE an `a` band (unsafe for top-k entries).
            session.delete_rows("fact", |row| in_band(row)).unwrap();
        }
        2 => {
            // UPDATE the predicate column `b` (moves rows into/out of
            // predicate ranges in arbitrary partitions).
            let delta = rng.random_range(-300i64..300);
            session
                .update_rows("fact", |row| {
                    let mut r = row.to_vec();
                    if in_band(row) {
                        if let Value::Int(b) = r[schema.index_of("b").unwrap()] {
                            r[schema.index_of("b").unwrap()] = Value::Int(b + delta);
                        }
                    }
                    r
                })
                .unwrap();
        }
        3 => {
            // UPDATE the category column `c`.
            let cat = cats[rng.random_range(0usize..cats.len())];
            session
                .update_rows("fact", |row| {
                    let mut r = row.to_vec();
                    if in_band(row) {
                        r[c] = Value::Str(cat.into());
                    }
                    r
                })
                .unwrap();
        }
        _ => {
            // UPDATE the ordering/unique column `a` by a disjoint offset
            // (unsafe for top-k entries ordered on `a`; keys stay unique).
            session
                .update_rows("fact", |row| {
                    let mut r = row.to_vec();
                    if in_band(row) {
                        if let Value::Int(x) = r[a] {
                            r[a] = Value::Int(x + 10_000_000);
                        }
                    }
                    r
                })
                .unwrap();
        }
    }
}

/// Cacheable query shapes (top-k above scan, filter chains) for the cache
/// leg. LIMIT-without-ORDER-BY is deliberately absent: its result set is
/// legally nondeterministic, so "byte-identical to a cold oracle" is not a
/// meaningful contract for it (and the engine does not cache it).
/// Fingerprint modes to sweep: the env override when set (the CI
/// cache-matrix pins one mode per job), both modes otherwise.
fn cache_modes() -> Vec<PredicateCacheMode> {
    match predicate_cache_mode_from_env() {
        Some(mode) => vec![mode],
        None => vec![PredicateCacheMode::Exact, PredicateCacheMode::Shape],
    }
}

/// §8.2 differential leg: replay every workload's cacheable shapes
/// cold-then-warm on a cached session, interleaved with random safe and
/// unsafe DML routed through the session, and require each replay to be
/// byte-identical to a cold no-pruning oracle run over the live table —
/// in both fingerprint modes (`SNOWPRUNE_PREDICATE_CACHE_MODE` pins one;
/// under shape mode the random literal-sharing queries also exercise the
/// subsumption fallback). `SNOWPRUNE_PREDICATE_CACHE=0` runs the identical
/// protocol with the cache disabled (the CI matrix covers all settings).
#[test]
fn predicate_cache_warm_replays_match_cold_oracle() {
    let threads = pool_threads();
    let cache_on = predicate_cache_from_env().unwrap_or(true);
    for mode in cache_modes() {
        let cfg = ExecConfig::default()
            .with_prefetch_depth(env_prefetch_depth())
            .with_batch_rows(env_batch_rows())
            .with_scan_threads(threads)
            .with_predicate_cache(cache_on)
            .with_predicate_cache_mode(mode);
        for w in 0..WORKLOADS {
            let seed = 0xCAC4_0000 + w;
            let wl = build_workload(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
            let session = Session::new(wl.catalog.clone(), cfg.clone());
            let oracle = Executor::new(wl.catalog.clone(), ExecConfig::no_pruning());
            let queries = cacheable_queries(&mut rng, &wl);
            let mut next_a = wl.fact_rows as i64 * 1_000;
            for (qi, (plan, check)) in queries.iter().enumerate() {
                let ctx = format!(
                    "workload {w} query {qi} (threads {threads}, cache {cache_on}, {mode:?})"
                );
                // Cold run populates the cache (or hits an entry recorded
                // by a colliding earlier shape — both are fine).
                let cold = session.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_pipeline_invariant(&cold, &format!("{ctx} cold"));
                // Interleave random DML through the session.
                for _ in 0..rng.random_range(0u32..3) {
                    apply_random_dml(&mut rng, &session, &wl, &mut next_a);
                }
                // Replay after DML, then replay again with the cache
                // certainly populated; both must match a cold oracle over
                // the live table.
                let warm = session.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let warm2 = session.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let oracle_out = oracle.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                for (label, out) in [("warm", &warm), ("warm2", &warm2)] {
                    assert_pipeline_invariant(out, &format!("{ctx} {label}"));
                    match check {
                        Check::Sorted => assert_eq!(
                            canonical(out.rows.rows.clone()),
                            canonical(oracle_out.rows.rows.clone()),
                            "{ctx}: {label} diverged from cold oracle"
                        ),
                        Check::Ordered => assert_eq!(
                            &out.rows.rows, &oracle_out.rows.rows,
                            "{ctx}: {label} diverged from cold oracle (ordered)"
                        ),
                        Check::Limited { .. } => unreachable!("not generated here"),
                    }
                }
                // With the cache enabled, the second replay (no DML since
                // the first) must be served — exactly in exact mode, via
                // either path in shape mode (the warm run may itself have
                // been a shape hit, recording nothing under this exact
                // fingerprint). Disabled, the cache is never consulted.
                if cache_on {
                    for (label, out) in [("cold", &cold), ("warm", &warm), ("warm2", &warm2)] {
                        assert_admission_follows_analyzer(out, &format!("{ctx} {label}"));
                    }
                    match mode {
                        PredicateCacheMode::Exact => assert_eq!(
                            warm2.report.cache,
                            CacheOutcome::Hit,
                            "{ctx}: immediate replay must hit"
                        ),
                        PredicateCacheMode::Shape => assert!(
                            matches!(
                                warm2.report.cache,
                                CacheOutcome::Hit | CacheOutcome::ShapeHit
                            ),
                            "{ctx}: immediate replay must be served, got {:?}",
                            warm2.report.cache
                        ),
                    }
                } else {
                    assert_eq!(warm2.report.cache, CacheOutcome::NotConsulted);
                }
            }
            if cache_on {
                // The generic mix adds shapes the analyzer does not cache
                // (top-k over GROUP BY, joins without ORDER BY, bare
                // LIMITs): those must never consult the cache.
                let mut uncached = 0;
                for (qi, (plan, _)) in random_queries(&mut rng, &wl).iter().enumerate() {
                    let ctx = format!("workload {w} mixed query {qi} ({mode:?})");
                    let out = session.run(plan).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                    assert_admission_follows_analyzer(&out, &ctx);
                    uncached += usize::from(out.report.cacheability.shape.is_none());
                }
                assert!(uncached > 0, "workload {w}: no uncacheable shape ran");
                let stats = session.cache_stats();
                assert!(
                    stats.hits + stats.shape_hits >= queries.len() as u64,
                    "workload {w} ({mode:?}): no hits"
                );
            }
        }
    }
}

/// Shape-mode subsumption under the cold oracle: for every workload, a
/// wide filter (`b >= X`) and a top-k (`... LIMIT k`) are recorded cold,
/// then replayed *narrowed* (`b >= X + δ`, `LIMIT k' < k`) — in shape mode
/// the narrowed replays must be served by subsumption (`ShapeHit`) and in
/// exact mode they must miss; either way, results after interleaved DML
/// stay byte-identical to a cold no-pruning oracle over the live table.
#[test]
fn predicate_cache_shape_subsumption_matches_cold_oracle() {
    let threads = pool_threads();
    if !predicate_cache_from_env().unwrap_or(true) {
        return; // the cache-off matrix leg has nothing to subsume
    }
    for mode in cache_modes() {
        let cfg = ExecConfig::default()
            .with_prefetch_depth(env_prefetch_depth())
            .with_batch_rows(env_batch_rows())
            .with_scan_threads(threads)
            .with_predicate_cache(true)
            .with_predicate_cache_mode(mode);
        for w in 0..WORKLOADS {
            let seed = 0xC0DE_0000 + w;
            let wl = build_workload(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD00D);
            let fs = &wl.fact_schema;
            let threshold = rng.random_range(-300i64..200);
            let delta = rng.random_range(1i64..150);
            let k_wide = rng.random_range(8u64..30);
            let k_narrow = rng.random_range(1u64..k_wide);
            let filter = |lo: i64| {
                PlanBuilder::scan("fact", fs.clone())
                    .filter(col("b").ge(lit(lo)))
                    .build()
            };
            let topk = |k: u64| {
                PlanBuilder::scan("fact", fs.clone())
                    .filter(col("b").ge(lit(threshold)))
                    .order_by("a", true)
                    .limit(k)
                    .build()
            };
            let pairs: [(Plan, Plan, Check); 2] = [
                (filter(threshold), filter(threshold + delta), Check::Sorted),
                (topk(k_wide), topk(k_narrow), Check::Ordered),
            ];
            for (pi, (wide, narrow, check)) in pairs.iter().enumerate() {
                let ctx = format!("workload {w} pair {pi} (threads {threads}, {mode:?})");
                // Fresh session per pair: the wide cold run always records.
                let session = Session::new(wl.catalog.clone(), cfg.clone());
                let cold = session.run(wide).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_eq!(cold.report.cache, CacheOutcome::Miss, "{ctx}: cold");
                assert_admission_follows_analyzer(&cold, &format!("{ctx} cold"));
                // The narrowed replay (no DML yet): shape mode serves it by
                // subsumption, exact mode must miss.
                let narrowed = session
                    .run(narrow)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_pipeline_invariant(&narrowed, &format!("{ctx} narrowed"));
                assert_admission_follows_analyzer(&narrowed, &format!("{ctx} narrowed"));
                match mode {
                    PredicateCacheMode::Shape => assert_eq!(
                        narrowed.report.cache,
                        CacheOutcome::ShapeHit,
                        "{ctx}: narrowed replay must be served by subsumption"
                    ),
                    PredicateCacheMode::Exact => assert_eq!(
                        narrowed.report.cache,
                        CacheOutcome::Miss,
                        "{ctx}: exact mode must not subsume"
                    ),
                }
                let oracle = Executor::new(wl.catalog.clone(), ExecConfig::no_pruning());
                let oracle_out = oracle
                    .run(narrow)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let compare = |out: &QueryOutput, oracle_out: &QueryOutput, label: &str| match check
                {
                    Check::Sorted => assert_eq!(
                        canonical(out.rows.rows.clone()),
                        canonical(oracle_out.rows.rows.clone()),
                        "{ctx}: {label} diverged from cold oracle"
                    ),
                    Check::Ordered => assert_eq!(
                        &out.rows.rows, &oracle_out.rows.rows,
                        "{ctx}: {label} diverged from cold oracle (ordered)"
                    ),
                    Check::Limited { .. } => unreachable!("not generated here"),
                };
                compare(&narrowed, &oracle_out, "narrowed");
                assert!(
                    narrowed.io.partitions_loaded <= oracle_out.io.partitions_loaded,
                    "{ctx}: narrowed replay loaded more than the oracle"
                );
                // Interleave DML, then replay the narrowed query again: the
                // serve path may change (invalidation, appends), but the
                // result must still match a cold oracle on the live table.
                let mut next_a = wl.fact_rows as i64 * 2_000;
                for _ in 0..rng.random_range(1u32..3) {
                    apply_random_dml(&mut rng, &session, &wl, &mut next_a);
                }
                let after_dml = session
                    .run(narrow)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_pipeline_invariant(&after_dml, &format!("{ctx} after-dml"));
                assert_admission_follows_analyzer(&after_dml, &format!("{ctx} after-dml"));
                let oracle_after = oracle
                    .run(narrow)
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                compare(&after_dml, &oracle_after, "after-dml");
            }
        }
    }
}

// ---- the prefetch leg ----------------------------------------------------

/// The same 50 workloads × 6 query shapes, executed with all pruning on at
/// `prefetch_depth ∈ {1, 4}` (sequentially and as concurrent pool
/// batches), must stay byte-identical to the blocking sequential oracle —
/// and every run must satisfy the pipeline counter invariant
/// `loaded + skipped + cancelled == considered`. Cancellation is I/O
/// accounting only; it can never change results.
#[test]
fn prefetch_depths_match_sequential_oracle() {
    let threads = pool_threads();
    let oracle_cfg = ExecConfig::no_pruning()
        .with_prefetch_depth(1)
        .with_batch_rows(env_batch_rows());
    for w in 0..WORKLOADS {
        let seed = 0xD1FF_0000 + w;
        let wl = build_workload(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let queries = random_queries(&mut rng, &wl);
        let plans: Vec<Plan> = queries.iter().map(|(p, _)| p.clone()).collect();
        // Blocking sequential oracle: no pruning, no prefetching. Its runs
        // are depth-independent and deterministic — execute each query (and
        // each LIMIT shape's unlimited variant) once, outside the depth
        // sweep.
        let oracle = Executor::new(wl.catalog.clone(), oracle_cfg.clone());
        let oracle_outs: Vec<QueryOutput> = plans
            .iter()
            .map(|p| {
                oracle
                    .run(p)
                    .unwrap_or_else(|e| panic!("workload {w} oracle: {e:?}"))
            })
            .collect();
        let oracle_full: Vec<Option<Vec<Vec<Value>>>> = queries
            .iter()
            .map(|(_, check)| match check {
                Check::Limited { unlimited, .. } => {
                    Some(canonical(oracle.run(unlimited).unwrap().rows.rows))
                }
                _ => None,
            })
            .collect();

        for depth in [1usize, 4] {
            let cfg = ExecConfig::default()
                .with_prefetch_depth(depth)
                .with_batch_rows(env_batch_rows());
            let seq = Executor::new(wl.catalog.clone(), cfg.clone());
            let pool = Session::new(wl.catalog.clone(), cfg.with_scan_threads(threads));
            let batch = pool.run_batch(&plans);
            for (qi, (_, check)) in queries.iter().enumerate() {
                let ctx = format!("workload {w} query {qi} depth {depth} (threads {threads})");
                let os = &oracle_outs[qi];
                let ps = seq
                    .run(&plans[qi])
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let pp = batch[qi]
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_pipeline_invariant(&ps, &format!("{ctx} seq"));
                assert_pipeline_invariant(pp, &format!("{ctx} pool"));
                assert!(
                    ps.io.bytes_loaded <= os.io.bytes_loaded,
                    "{ctx}: prefetching loaded more bytes than the oracle"
                );
                match check {
                    Check::Sorted => {
                        let expect = canonical(os.rows.rows.clone());
                        assert_eq!(canonical(ps.rows.rows.clone()), expect, "{ctx}: seq");
                        assert_eq!(canonical(pp.rows.rows.clone()), expect, "{ctx}: pool");
                    }
                    Check::Ordered => {
                        assert_eq!(&ps.rows.rows, &os.rows.rows, "{ctx}: seq (ordered)");
                        assert_eq!(&pp.rows.rows, &os.rows.rows, "{ctx}: pool (ordered)");
                    }
                    Check::Limited { k, .. } => {
                        let full = oracle_full[qi]
                            .as_ref()
                            .expect("limited oracle precomputed");
                        let expect_len = (*k).min(full.len());
                        for (label, out) in [("seq", &ps), ("pool", pp)] {
                            assert_eq!(out.rows.len(), expect_len, "{ctx}: {label} row count");
                            for row in &out.rows.rows {
                                assert!(
                                    full.binary_search_by(|probe| cmp_rows(probe, row)).is_ok(),
                                    "{ctx}: {label} row outside the oracle result"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---- the vectorized-batch leg --------------------------------------------

/// The same 50 workloads × 6 query shapes, executed at
/// `batch_rows ∈ {1, 3, 1024}`, must be indistinguishable from the
/// whole-partition row-order oracle (`batch_rows = usize::MAX`: one
/// window per partition — exactly the pre-vectorization delivery
/// granularity). Batching is post-load CPU-side chunking, so on the
/// sequential engine nothing may move at all: rows are byte-identical in
/// order (for *every* shape, including racing LIMIT — the sticky-break
/// contract keeps partition-granular early stop exact), and the full
/// [`IoSnapshot`], scan counters, and pruning report are equal. On the
/// shared pool, morsel interleaving makes I/O for top-k / racing-LIMIT
/// shapes legally timing-dependent, so pooled runs are held to the same
/// per-shape determinism contract as the pruning leg instead.
#[test]
fn vectorized_matches_row_oracle() {
    run_batch_size_sweep(random_queries, 0xD1FF_0000, 0x5EED, ExecConfig::default());
}

// ---- the batch-native join/agg leg ---------------------------------------

/// Join/aggregation shapes that historically dropped to the row-at-a-time
/// fallback at the first join or GROUP BY. Both engines must agree on them
/// whether the batch-native operators are on or off.
/// Join/aggregation differential: the batch-native operators at
/// `batch_rows ∈ {1, 3, 1024}` must be indistinguishable from the
/// row-at-a-time fallback oracle (`batch_native(false)` with
/// whole-partition windows — exactly the pre-batch execution). On the
/// sequential engine rows, the full [`IoSnapshot`], scan counters, the
/// pruning report, and the bloom-skip accounting must all be
/// bit-identical; pooled runs are held to the per-shape determinism
/// contract.
#[test]
fn joinagg_batch_matches_row_oracle() {
    run_batch_size_sweep(
        joinagg_queries,
        0x10A6_0000,
        0xBA7C,
        ExecConfig::default().with_batch_native(false),
    );
}

// ---- the admission leg ---------------------------------------------------

/// Admission differential: the same seeded workloads' query shapes, run as
/// admission-controlled multi-tenant bursts (`Session::run_admitted` with
/// tight per-tenant caps and adaptive prefetch depth), must satisfy the
/// exact per-shape determinism contract against the sequential pruned
/// engine — and the rejections themselves must be a pure function of
/// arrival order and the caps. Afterwards the *same* session re-runs every
/// plan (including the just-rejected ones) as an ordinary pooled batch: a
/// rejected query must leave no stranded morsels or lane state behind, so
/// the follow-up batch completes and matches the oracle too.
///
/// The caps honour `SNOWPRUNE_TENANT_MAX_CONCURRENT` /
/// `SNOWPRUNE_ADMISSION_QUEUE_CAP` (the CI pool matrix sweeps the
/// concurrency cap); the default 1 running + 1 queued rejects each
/// tenant's third arrival, while wider caps exercise the all-admitted
/// windowed dispatch path.
#[test]
fn admitted_bursts_match_sequential_oracle_and_leave_no_residue() {
    let threads = pool_threads();
    let c = tenant_max_concurrent_from_env().unwrap_or(1);
    let q = admission_queue_cap_from_env().unwrap_or(1);
    // Per-tenant admission window: arrivals past `c + q` are rejected.
    let cap = c + q;
    let cfg = ExecConfig::default()
        .with_prefetch_depth(env_prefetch_depth())
        .with_batch_rows(env_batch_rows())
        .with_scan_threads(threads)
        .with_tenant_max_concurrent(c)
        .with_admission_queue_cap(q)
        .with_adaptive_prefetch(true)
        .with_prefetch_max_depth(6);
    for w in 0..WORKLOADS / 2 {
        let seed = 0xD1FF_0000 + w;
        let wl = build_workload(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let queries = random_queries(&mut rng, &wl);
        let plans: Vec<Plan> = queries.iter().map(|(p, _)| p.clone()).collect();
        let arrivals: Vec<(u64, Plan)> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| ((i % 2) as u64, p.clone()))
            .collect();

        let oracle = Executor::new(
            wl.catalog.clone(),
            ExecConfig::default()
                .with_prefetch_depth(env_prefetch_depth())
                .with_batch_rows(env_batch_rows()),
        );
        let session = Session::new(wl.catalog.clone(), cfg.clone());
        let run = session.run_admitted(&arrivals);
        assert_eq!(run.outcomes.len(), arrivals.len());

        let check_output = |out: &QueryOutput, qi: usize, label: &str| {
            let ctx = format!("workload {w} query {qi} (threads {threads})");
            assert_pipeline_invariant(out, &format!("{ctx} {label}"));
            let os = oracle
                .run(&plans[qi])
                .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            match &queries[qi].1 {
                Check::Sorted => assert_eq!(
                    canonical(out.rows.rows.clone()),
                    canonical(os.rows.rows),
                    "{ctx}: {label} diverged from the sequential oracle"
                ),
                Check::Ordered => assert_eq!(
                    &out.rows.rows, &os.rows.rows,
                    "{ctx}: {label} diverged from the sequential oracle (ordered)"
                ),
                Check::Limited { k, unlimited } => {
                    let full = canonical(oracle.run(unlimited).unwrap().rows.rows);
                    assert_eq!(
                        out.rows.len(),
                        (*k).min(full.len()),
                        "{ctx}: {label} row count"
                    );
                    for row in &out.rows.rows {
                        assert!(
                            full.binary_search_by(|probe| cmp_rows(probe, row)).is_ok(),
                            "{ctx}: {label} returned a row outside the oracle result"
                        );
                    }
                }
            }
        };

        for (qi, outcome) in run.outcomes.iter().enumerate() {
            // Burst admission over alternating arrivals: arrival `qi` is
            // its tenant's `qi / 2`-th query, rejected exactly when that
            // index overflows the `cap`-wide window — independent of
            // timing, depth, or pool size.
            if qi / 2 >= cap {
                assert!(
                    outcome.is_rejected(),
                    "workload {w}: arrival {qi} overflowed its tenant window (cap {cap}) \
                     and must be rejected"
                );
                continue;
            }
            let out = outcome
                .output()
                .unwrap_or_else(|| panic!("workload {w}: arrival {qi} must be admitted"));
            check_output(out, qi, "admitted");
        }

        // No residue: the same session (same pool, same lanes) runs every
        // plan again as a plain batch — the rejected arrivals' lanes must
        // not exist, and nothing may block or diverge.
        let batch = session.run_batch(&plans);
        for (qi, res) in batch.iter().enumerate() {
            let out = res
                .as_ref()
                .unwrap_or_else(|e| panic!("workload {w} follow-up query {qi}: {e:?}"));
            check_output(out, qi, "follow-up batch");
        }
    }
}

/// Shared harness for the vectorized and join/agg legs: for each seeded
/// workload, run `make_queries` shapes on sequential and pooled engines at
/// `batch_rows ∈ {1, 3, 1024}` against a sequential whole-partition oracle
/// built from `oracle_base` (row-fallback when `batch_native` is off).
fn run_batch_size_sweep(
    make_queries: fn(&mut StdRng, &Workload) -> Vec<(Plan, Check)>,
    seed_base: u64,
    seed_mix: u64,
    oracle_base: ExecConfig,
) {
    let threads = pool_threads();
    let base_cfg = ExecConfig::default().with_prefetch_depth(env_prefetch_depth());
    for w in 0..WORKLOADS {
        let seed = seed_base + w;
        let wl = build_workload(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ seed_mix);
        let queries = make_queries(&mut rng, &wl);
        let plans: Vec<Plan> = queries.iter().map(|(p, _)| p.clone()).collect();

        // Whole-partition row-order oracle: sequential, all pruning on.
        let oracle = Executor::new(
            wl.catalog.clone(),
            oracle_base
                .clone()
                .with_prefetch_depth(env_prefetch_depth())
                .with_batch_rows(usize::MAX),
        );
        let oracle_outs: Vec<QueryOutput> = plans
            .iter()
            .map(|p| {
                oracle
                    .run(p)
                    .unwrap_or_else(|e| panic!("workload {w} oracle: {e:?}"))
            })
            .collect();
        let oracle_full: Vec<Option<Vec<Vec<Value>>>> = queries
            .iter()
            .map(|(_, check)| match check {
                Check::Limited { unlimited, .. } => {
                    Some(canonical(oracle.run(unlimited).unwrap().rows.rows))
                }
                _ => None,
            })
            .collect();

        for batch_rows in [1usize, 3, 1024] {
            let cfg = base_cfg.clone().with_batch_rows(batch_rows);
            let seq = Executor::new(wl.catalog.clone(), cfg.clone());
            let pool = Session::new(wl.catalog.clone(), cfg.with_scan_threads(threads));
            let batch = pool.run_batch(&plans);
            for (qi, (_, check)) in queries.iter().enumerate() {
                let ctx =
                    format!("workload {w} query {qi} batch_rows {batch_rows} (threads {threads})");
                let os = &oracle_outs[qi];
                let ps = seq
                    .run(&plans[qi])
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                let pp = batch[qi]
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                assert_pipeline_invariant(&ps, &format!("{ctx} seq"));
                assert_pipeline_invariant(pp, &format!("{ctx} pool"));
                // Sequential: the batch size must be invisible, bit for bit.
                assert_eq!(
                    &ps.rows.rows, &os.rows.rows,
                    "{ctx}: seq rows diverged from the whole-partition oracle"
                );
                assert_eq!(
                    ps.io, os.io,
                    "{ctx}: seq I/O accounting moved with the batch size"
                );
                assert_eq!(
                    ps.report.scan_stats, os.report.scan_stats,
                    "{ctx}: seq scan counters moved with the batch size"
                );
                assert_eq!(
                    ps.report.pruning, os.report.pruning,
                    "{ctx}: seq pruning report moved with the batch size"
                );
                assert_eq!(
                    ps.report.bloom_skipped_rows, os.report.bloom_skipped_rows,
                    "{ctx}: seq bloom-skip accounting diverged"
                );
                // Pooled: per-shape determinism contract.
                match check {
                    Check::Sorted => {
                        assert_eq!(
                            canonical(pp.rows.rows.clone()),
                            canonical(os.rows.rows.clone()),
                            "{ctx}: pool"
                        );
                    }
                    Check::Ordered => {
                        assert_eq!(&pp.rows.rows, &os.rows.rows, "{ctx}: pool (ordered)");
                    }
                    Check::Limited { k, .. } => {
                        let full = oracle_full[qi]
                            .as_ref()
                            .expect("limited oracle precomputed");
                        let expect_len = (*k).min(full.len());
                        assert_eq!(pp.rows.len(), expect_len, "{ctx}: pool row count");
                        for row in &pp.rows.rows {
                            assert!(
                                full.binary_search_by(|probe| cmp_rows(probe, row)).is_ok(),
                                "{ctx}: pool row outside the oracle result"
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---- the SQL round-trip leg ----------------------------------------------
//
// Every plan shape the generator produces must survive the full SQL loop:
// emit SQL text, lex/parse/bind it against the workload catalog, and get
// back a *structurally identical* plan — then execution of the lowered
// plan must be byte-identical (rows and IO counters) to the hand-built
// plan, sequentially and on the shared morsel pool.

#[test]
fn sql_round_trip_is_byte_identical_across_50_workloads() {
    use snowprune::sql::{bind_sql, Statement};
    use snowprune::workload::emit_sql;

    let threads = pool_threads();
    let cfg = ExecConfig::default()
        .with_prefetch_depth(env_prefetch_depth())
        .with_batch_rows(env_batch_rows());
    for w in 0..WORKLOADS {
        let seed = 0xD1FF_0000 + w;
        let wl = build_workload(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let queries = random_queries(&mut rng, &wl);

        // Emit + parse + bind: the lowered plan must equal the hand-built
        // one structurally, before anything executes.
        let mut lowered_plans = Vec::with_capacity(queries.len());
        for (qi, (plan, _)) in queries.iter().enumerate() {
            let ctx = format!("workload {w} query {qi}");
            let sql =
                emit_sql(plan).unwrap_or_else(|| panic!("{ctx}: no SQL spelling for\n{plan}"));
            let lowered = match bind_sql(&sql, &wl.catalog) {
                Ok(Statement::Query(p)) => p,
                Ok(_) => panic!("{ctx}: `{sql}` bound to a DML statement"),
                Err(e) => panic!("{ctx}: `{sql}` failed to bind: {e}"),
            };
            assert_eq!(lowered, *plan, "{ctx}: `{sql}` lowered to a different plan");
            lowered_plans.push(lowered);
        }

        // Sequential: fresh engines per side, so per-query IO snapshots of
        // structurally equal plans must agree bit for bit.
        let hand_seq = Executor::new(wl.catalog.clone(), cfg.clone());
        let sql_seq = Executor::new(wl.catalog.clone(), cfg.clone());
        for (qi, (plan, _)) in queries.iter().enumerate() {
            let ctx = format!("workload {w} query {qi} (sequential)");
            let h = hand_seq
                .run(plan)
                .unwrap_or_else(|e| panic!("{ctx}: hand-built: {e:?}"));
            let s = sql_seq
                .run(&lowered_plans[qi])
                .unwrap_or_else(|e| panic!("{ctx}: lowered: {e:?}"));
            assert_eq!(s.rows.rows, h.rows.rows, "{ctx}: rows diverge");
            assert_eq!(s.io, h.io, "{ctx}: IO snapshots diverge");
            assert_eq!(
                s.report.pruning.partitions_scanned, h.report.pruning.partitions_scanned,
                "{ctx}: pruning effectiveness diverges"
            );
        }

        // Pooled: the whole lowered workload runs as one concurrent batch;
        // compare against the hand-built batch under each shape's check
        // contract (pool scheduling may legally reorder Sorted results).
        let hand_pool = Session::new(wl.catalog.clone(), cfg.clone().with_scan_threads(threads));
        let sql_pool = Session::new(wl.catalog.clone(), cfg.clone().with_scan_threads(threads));
        let hand_plans: Vec<Plan> = queries.iter().map(|(p, _)| p.clone()).collect();
        let hand_batch = hand_pool.run_batch(&hand_plans);
        let sql_batch = sql_pool.run_batch(&lowered_plans);
        for (qi, (_, check)) in queries.iter().enumerate() {
            let ctx = format!("workload {w} query {qi} (pooled, threads {threads})");
            let h = hand_batch[qi]
                .as_ref()
                .unwrap_or_else(|e| panic!("{ctx}: hand-built: {e:?}"));
            let s = sql_batch[qi]
                .as_ref()
                .unwrap_or_else(|e| panic!("{ctx}: lowered: {e:?}"));
            match check {
                Check::Sorted => assert_eq!(
                    canonical(s.rows.rows.clone()),
                    canonical(h.rows.rows.clone()),
                    "{ctx}: row multisets diverge"
                ),
                Check::Ordered => {
                    assert_eq!(s.rows.rows, h.rows.rows, "{ctx}: ordered rows diverge")
                }
                Check::Limited { k, unlimited } => {
                    let full = canonical(hand_seq.run(unlimited).unwrap().rows.rows);
                    let expect_len = (*k).min(full.len());
                    assert_eq!(s.rows.len(), expect_len, "{ctx}: lowered row count");
                    for row in &s.rows.rows {
                        assert!(
                            full.binary_search_by(|probe| cmp_rows(probe, row)).is_ok(),
                            "{ctx}: lowered plan returned a row outside the oracle result"
                        );
                    }
                }
            }
        }
    }
}
