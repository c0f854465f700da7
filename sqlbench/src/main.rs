//! sqlbench: SQL text in, rows out.
//!
//! A single-process, closed-loop benchmark with one client thread. It
//! generates a seeded catalog and SQL statement stream, sends each
//! statement through `Session::run_sql` and times every call from
//! outside. A `--trace 1` run instead calls each layer's public entry
//! point one after another inside spans. Either way every result is
//! checked against a no-pruning, cache-off oracle session, and the last
//! line of standard output is one JSON object with the metrics.
//!
//! ```text
//! sqlbench --workload <mix|lake|dashboard> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```

mod check;
mod trace;
mod workloads;

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use snowprune_exec::{ExecConfig, QueryOutput, ScanRunStats, Session};
use snowprune_sql::{SessionSqlExt, SqlOutcome};
use snowprune_storage::IoSnapshot;

use check::Observed;
use trace::{Traced, Tracer};
use workloads::{generate_workload, Kind, Scale, Shape, Stmt, Verb, Workload};

/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_owned(), v.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {argv:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"));
    let workload =
        Workload::parse(get("workload")?).ok_or("--workload must be mix, lake or dashboard")?;
    let seconds = num("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let traced = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let scale = match flags.get("scale").map(String::as_str) {
        None | Some("full") => Scale::Full,
        Some("tiny") => Scale::Tiny,
        Some(other) => return Err(format!("--scale must be full or tiny, got {other}")),
    };
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace", "scale"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        scale,
    })
}

/// Per-SELECT counters: the executor's I/O delta and scan counters, plus
/// the pruning and join tallies of its report.
#[derive(Clone, Copy, Default)]
struct Counters {
    io: IoSnapshot,
    scan: ScanRunStats,
    partitions_total: u64,
    pruned_by_filter: u64,
    pruned_by_limit: u64,
    pruned_by_topk: u64,
    pruned_by_join: u64,
    fully_matching: u64,
    rows_out: u64,
    bloom_skipped_rows: u64,
    join_summary_bytes: u64,
    pruned_by_cache: u64,
}

impl Counters {
    fn of(out: &QueryOutput) -> Counters {
        let (r, p) = (&out.report, &out.report.pruning);
        Counters {
            io: out.io,
            scan: r.scan_stats,
            partitions_total: p.partitions_total,
            pruned_by_filter: p.pruned_by_filter,
            pruned_by_limit: p.pruned_by_limit,
            pruned_by_topk: p.pruned_by_topk,
            pruned_by_join: p.pruned_by_join,
            fully_matching: p.fully_matching,
            rows_out: out.rows.len() as u64,
            bloom_skipped_rows: r.bloom_skipped_rows,
            join_summary_bytes: r.join_summary_bytes,
            pruned_by_cache: r.pruned_by_cache,
        }
    }

    fn add(&mut self, o: &Counters) {
        self.io.merge(&o.io);
        self.scan.merge(&o.scan);
        self.partitions_total += o.partitions_total;
        self.pruned_by_filter += o.pruned_by_filter;
        self.pruned_by_limit += o.pruned_by_limit;
        self.pruned_by_topk += o.pruned_by_topk;
        self.pruned_by_join += o.pruned_by_join;
        self.fully_matching += o.fully_matching;
        self.rows_out += o.rows_out;
        self.bloom_skipped_rows += o.bloom_skipped_rows;
        self.join_summary_bytes += o.join_summary_bytes;
        self.pruned_by_cache += o.pruned_by_cache;
    }
}

/// One closed-loop pass over the statement stream, by stream position.
struct LoopRun {
    observed: Vec<Observed>,
    latency_ns: Vec<u64>,
    counters: Vec<Option<Counters>>,
    /// Cache counters when the first full pass over the stream ended.
    first_pass_cache: snowprune_cache::CacheStats,
    /// Compile-time survivors vs exhaustive zone-map survivors over the
    /// first pass (traced loop only).
    survivors: (u64, u64),
    tracer: Option<Tracer>,
}

/// Send statements for `seconds`, cycling over the stream; with
/// `full_pass`, keep going until every statement ran once, so counters
/// are taken over the same statements however fast the engine is.
fn timed_loop(
    session: &Session,
    stmts: &[Stmt],
    seconds: f64,
    traced: bool,
    full_pass: bool,
) -> LoopRun {
    let budget = Duration::from_secs_f64(seconds);
    let mut run = LoopRun {
        observed: Vec::new(),
        latency_ns: Vec::new(),
        counters: Vec::new(),
        first_pass_cache: Default::default(),
        survivors: (0, 0),
        tracer: traced.then(Tracer::new),
    };
    let start = Instant::now();
    let mut pos = 0;
    while start.elapsed() < budget || (full_pass && pos < stmts.len()) {
        let stmt = &stmts[pos % stmts.len()];
        let shape = match stmt.kind {
            Kind::Select(s) => Some(s),
            Kind::Dml(_) => None,
        };
        let (observed, counters, ns) = match &mut run.tracer {
            None => {
                let t0 = Instant::now();
                let res = session.run_sql(&stmt.sql);
                let ns = t0.elapsed().as_nanos() as u64;
                let counters = match &res {
                    Ok(SqlOutcome::Rows(out)) => Some(Counters::of(out)),
                    _ => None,
                };
                (check::observe(res, &stmt.check), counters, ns)
            }
            Some(tr) => {
                let root = tr.spans.len();
                let res = trace::run_traced(session, &stmt.sql, shape, pos as u64, tr);
                let ns = tr.spans[root].end_ns - tr.spans[root].start_ns;
                match res {
                    Ok(Traced::Rows(out, scans)) => {
                        if pos < stmts.len() {
                            let (kept, exhaustive) = trace::filter_survivors(&scans);
                            run.survivors.0 += kept;
                            run.survivors.1 += exhaustive;
                        }
                        (
                            check::digest(&out.rows, &stmt.check),
                            Some(Counters::of(&out)),
                            ns,
                        )
                    }
                    Ok(Traced::Dml(n)) => (Observed::Dml(n), None, ns),
                    Err(e) => (Observed::Err(e.to_string()), None, ns),
                }
            }
        };
        run.observed.push(observed);
        run.counters.push(counters);
        run.latency_ns.push(ns);
        pos += 1;
        if pos == stmts.len() {
            run.first_pass_cache = session.cache_stats();
        }
    }
    run
}

/// Linear-interpolated percentile of `v` (sorted in place); 0 when empty.
fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * p;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind a percentile, when the metric is one.
    samples: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

fn pctl(
    name: impl Into<String>,
    mut v: Vec<f64>,
    p: f64,
    scale: f64,
    unit: &'static str,
) -> Metric {
    Metric {
        samples: Some(v.len()),
        ..metric(name, percentile(&mut v, p) / scale, unit)
    }
}

/// A set-up: catalog and statements generated, session created.
struct Setup {
    session: Session,
    stmts: Vec<Stmt>,
}

fn setup(args: &Args, workers: usize) -> Result<Setup, String> {
    let g = generate_workload(args.workload, args.scale, args.seed)?;
    let session = Session::new(g.catalog, args.workload.exec_config(workers));
    Ok(Setup {
        session,
        stmts: g.stmts,
    })
}

/// Latencies in ms of the statements whose kind passes `keep`.
fn latencies_ms(run: &LoopRun, stmts: &[Stmt], keep: impl Fn(Kind) -> bool) -> Vec<f64> {
    run.latency_ns
        .iter()
        .enumerate()
        .filter(|(pos, _)| keep(stmts[pos % stmts.len()].kind))
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect()
}

fn is_select(k: Kind) -> bool {
    matches!(k, Kind::Select(_))
}

/// Counter totals and SELECT count over the first pass of `run`.
fn first_pass(run: &LoopRun, stmts: &[Stmt]) -> (Counters, u64) {
    let mut total = Counters::default();
    let mut selects = 0;
    for c in run.counters.iter().take(stmts.len()).flatten() {
        total.add(c);
        selects += 1;
    }
    (total, selects)
}

/// Latencies and throughput over every statement of the loop; counters
/// over its first pass. `stmts_per_s` divides by the time spent inside
/// `run_sql` calls, leaving out the harness's digesting between them.
fn end_to_end(run: &LoopRun, stmts: &[Stmt], setups: &[f64], rss: f64) -> Vec<Metric> {
    let (c, selects) = first_pass(run, stmts);
    let busy_s = run.latency_ns.iter().sum::<u64>() as f64 / 1e9;
    vec![
        pctl("setup_s", setups.to_vec(), 0.5, 1.0, "s"),
        pctl(
            "select_p50_ms",
            latencies_ms(run, stmts, is_select),
            0.5,
            1.0,
            "ms",
        ),
        pctl(
            "select_p99_ms",
            latencies_ms(run, stmts, is_select),
            0.99,
            1.0,
            "ms",
        ),
        metric("stmts_per_s", run.latency_ns.len() as f64 / busy_s, "1/s"),
        metric(
            "partitions_loaded_pct",
            100.0 * ratio(c.io.partitions_loaded, c.partitions_total),
            "%",
        ),
        metric(
            "bytes_loaded_per_select",
            ratio(c.io.bytes_loaded, selects),
            "bytes",
        ),
        metric(
            "io_virtual_ms_per_select",
            ratio(c.io.simulated_wall_ns, selects) / 1e6,
            "ms-virtual",
        ),
        metric("peak_rss_mb", rss, "MB"),
    ]
}

/// DML latencies, reported beside the end-to-end metrics on workloads
/// that issue DML.
fn dml_metrics(run: &LoopRun, stmts: &[Stmt]) -> Vec<Metric> {
    let dml = latencies_ms(run, stmts, |k| !is_select(k));
    if dml.is_empty() {
        return Vec::new();
    }
    vec![
        pctl("dml_p50_ms", dml.clone(), 0.5, 1.0, "ms"),
        pctl("dml_p99_ms", dml, 0.99, 1.0, "ms"),
    ]
}

/// Statement keys whose `partitions_loaded` or `bytes_loaded` differ
/// between two executions. Loops start from identical catalogs, so the
/// same stream position is the same statement on the same data; on a
/// read-only stream every repetition of a statement is too.
fn nondeterministic(runs: &[&LoopRun], stmts: &[Stmt]) -> usize {
    let read_only = stmts.iter().all(|s| is_select(s.kind));
    let mut seen: HashMap<usize, (u64, u64)> = HashMap::new();
    let mut differ = HashSet::new();
    for run in runs {
        for (pos, c) in run.counters.iter().enumerate() {
            let Some(c) = c else { continue };
            let key = if read_only { pos % stmts.len() } else { pos };
            let now = (c.io.partitions_loaded, c.io.bytes_loaded);
            if *seen.entry(key).or_insert(now) != now {
                differ.insert(key);
            }
        }
    }
    differ.len()
}

fn per_layer(untraced: &LoopRun, traced: &LoopRun, stmts: &[Stmt]) -> Vec<Metric> {
    let tr = traced
        .tracer
        .as_ref()
        .expect("the traced loop has a tracer");
    let us = |name: String, span: &str, p: f64| pctl(name, tr.durations(span), p, 1e3, "us");
    let p50 = |span: &str| us(format!("{span}_us_p50"), span, 0.5);
    let (c, selects) = first_pass(traced, stmts);
    let count = |name: &str, v: u64| metric(name, ratio(v, selects), "count/select");
    let bytes = |name: &str, v: u64| metric(name, ratio(v, selects), "bytes/select");
    let cache = &traced.first_pass_cache;
    let lookups = cache.hits + cache.shape_hits + cache.misses;
    // Overhead over the positions both loops reached.
    let both = untraced.latency_ns.len().min(traced.latency_ns.len());
    let plain: u64 = untraced.latency_ns[..both].iter().sum();
    let with_spans: u64 = traced.latency_ns[..both].iter().sum();
    let mut m = vec![
        p50("sql.lex"),
        p50("sql.parse"),
        p50("sql.bind"),
        p50("analyze.verify"),
        p50("exec.compile_scan"),
        us("exec.compile_scan_us_p99".into(), "exec.compile_scan", 0.99),
        count("core.pruned_by_filter", c.pruned_by_filter),
        count("core.pruned_by_limit", c.pruned_by_limit),
        count("core.pruned_by_topk", c.pruned_by_topk),
        count("core.pruned_by_join", c.pruned_by_join),
        count("core.fully_matching", c.fully_matching),
        metric(
            "core.filter_survivors_vs_exhaustive",
            ratio(traced.survivors.0, traced.survivors.1.max(1)),
            "ratio",
        ),
    ];
    for shape in Shape::ALL {
        let name = format!("exec.run_us_p50.{}", shape.name());
        m.push(us(name, trace::run_span(shape), 0.5));
    }
    m.extend([
        count("exec.scan.considered", c.scan.considered),
        count("exec.scan.skipped_by_boundary", c.scan.skipped_by_boundary),
        count(
            "exec.scan.cancelled_in_flight",
            c.scan.cancelled_in_flight(),
        ),
        count("exec.scan.rows_emitted", c.scan.rows_emitted),
        metric(
            "exec.rows_out_per_row_emitted",
            ratio(c.rows_out, c.scan.rows_emitted),
            "ratio",
        ),
        count("exec.join.bloom_skipped_rows", c.bloom_skipped_rows),
        bytes("exec.join.summary_bytes", c.join_summary_bytes),
    ]);
    for verb in Verb::ALL {
        let name = format!("exec.dml_us_p50.{}", verb.name());
        m.push(us(name, trace::dml_span(verb), 0.5));
    }
    let loaded_or_cancelled = c.io.partitions_loaded + c.io.loads_cancelled;
    m.extend([
        count("storage.partitions_loaded", c.io.partitions_loaded),
        bytes("storage.bytes_loaded", c.io.bytes_loaded),
        count("storage.metadata_reads", c.io.metadata_reads),
        count("storage.loads_cancelled", c.io.loads_cancelled),
        metric(
            "storage.prefetch_waste_ratio",
            ratio(c.io.loads_cancelled, loaded_or_cancelled),
            "ratio",
        ),
        metric(
            "storage.io_overlap_ratio",
            ratio(c.io.io_overlapped_ns, c.io.load_io_ns()),
            "ratio",
        ),
        count("cache.hits", cache.hits),
        count("cache.shape_hits", cache.shape_hits),
        count("cache.misses", cache.misses),
        count("cache.subsumption_rejections", cache.subsumption_rejections),
        count("cache.invalidations", cache.invalidations),
        count("cache.evictions", cache.evictions),
        metric(
            "cache.hit_ratio",
            ratio(cache.hits + cache.shape_hits, lookups),
            "ratio",
        ),
        count("cache.pruned_by_cache", c.pruned_by_cache),
        metric(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(plain, with_spans.max(1))),
            "%",
        ),
        metric(
            "counters.nondeterministic_stmts",
            nondeterministic(&[untraced, traced], stmts) as f64,
            "count",
        ),
    ]);
    let stmts_traced = traced.latency_ns.len() as f64;
    let self_ns = tr.self_time_by_layer();
    for layer in trace::LAYERS {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        m.push(metric(
            format!("trace.self_us.{layer}"),
            ns as f64 / 1e3 / stmts_traced,
            "us",
        ));
    }
    m
}

/// Run context: what produced these numbers.
fn context(
    args: &Args,
    workers: usize,
    pinned_to: Option<&str>,
    stmts: &[Stmt],
    session: &Session,
) -> Vec<(&'static str, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--show-toplevel", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let mut lines = text.lines();
            let top = std::fs::canonicalize(lines.next()?).ok()?;
            (top == std::fs::canonicalize(&root).ok()?).then(|| lines.next().map(str::to_owned))?
        });
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut tables = String::from("[");
    let mut names = session.catalog().table_names();
    names.sort();
    for (i, name) in names.iter().enumerate() {
        if let Ok(t) = session.catalog().get(name) {
            let t = t.read();
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                tables,
                "{sep}{{\"name\":{},\"partitions\":{},\"rows\":{}}}",
                json_str(name),
                t.partition_count(),
                t.total_rows()
            );
        }
    }
    tables.push(']');
    let selects = stmts.iter().filter(|s| is_select(s.kind)).count();
    vec![
        ("commit", commit.map_or("null".into(), |c| json_str(&c))),
        ("source_fingerprint", json_str(&source_fingerprint(&root))),
        (
            "statements_fingerprint",
            json_str(&statements_fingerprint(stmts)),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("pool_workers", workers.to_string()),
        (
            "loops_pinned_to_cpu",
            pinned_to.map_or("null".into(), json_str),
        ),
        ("cpu_model", json_str(&cpu)),
        (
            "build_profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.traced as u8).to_string()),
        (
            "scale",
            json_str(match args.scale {
                Scale::Full => "full",
                Scale::Tiny => "tiny",
            }),
        ),
        ("tables", tables),
        ("stream_statements", stmts.len().to_string()),
        ("stream_selects", selects.to_string()),
        ("stream_dml", (stmts.len() - selects).to_string()),
    ]
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn statements_fingerprint(stmts: &[Stmt]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for s in stmts {
        fnv(&mut h, s.sql.as_bytes());
        fnv(&mut h, b"\n");
    }
    format!("{h:016x}")
}

/// FNV-1a over the engine's sources and manifests, path and content: a
/// build identity that also holds where no git metadata exists.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            fnv(
                &mut h,
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            fnv(&mut h, &bytes);
        }
    }
    format!("{h:016x}")
}

/// The CPUs this process may run on, as `taskset -c` spells them.
fn allowed_cpus() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line.split(':').nth(1)?.trim().to_owned())
}

/// Restrict every thread of this process, and those it creates later, to
/// `cpus` with `taskset`. Returns whether that worked.
fn set_affinity(cpus: &str) -> bool {
    std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1);
    // The client thread waits while the pool worker scans, so the loops
    // run on one CPU: unpinned, the hand-off between two vCPUs made
    // whole-run throughput vary by a quarter from run to run.
    let allowed = allowed_cpus();
    let pinned_to = allowed
        .as_deref()
        .and_then(|list| list.rsplit([',', '-']).next())
        .filter(|cpu| set_affinity(cpu))
        .map(str::to_owned);

    // Set-up, timed; the last one is measured. A traced run sets up once
    // more: the untraced and traced loops each start from a fresh,
    // identical catalog.
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(&args, workers)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Setup { session, stmts } = last.expect("at least one set-up");
    let ctx = context(&args, workers, pinned_to.as_deref(), &stmts, &session);

    let (untraced, traced) = if args.traced {
        let half = args.seconds / 2.0;
        let untraced = timed_loop(&session, &stmts, half, false, false);
        drop(session);
        let fresh = setup(&args, workers)?;
        let traced = timed_loop(&fresh.session, &fresh.stmts, half, true, true);
        (untraced, Some(traced))
    } else {
        let untraced = timed_loop(&session, &stmts, args.seconds, false, true);
        drop(session);
        (untraced, None)
    };
    // Measured after the loops and before the oracle catalog exists.
    let rss = peak_rss_mb();

    // The client is idle while the oracle runs, so it gets every core.
    if let (Some(all), Some(_)) = (&allowed, &pinned_to) {
        set_affinity(all);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oracle_cfg = ExecConfig::no_pruning().with_scan_threads(cores);
    let oracle = Session::new(
        generate_workload(args.workload, args.scale, args.seed)?.catalog,
        oracle_cfg,
    );
    let mut observed: Vec<&[Observed]> = vec![&untraced.observed];
    if let Some(t) = &traced {
        observed.push(&t.observed);
    }
    let (failed, notes) = check::gate(&oracle, &stmts, &observed);
    drop(oracle);
    let attempted: usize = observed.iter().map(|o| o.len()).sum();

    let metrics = match &traced {
        Some(t) => per_layer(&untraced, t, &stmts),
        None => end_to_end(&untraced, &stmts, &setups, rss),
    };
    let extra = if args.traced {
        Vec::new()
    } else {
        dml_metrics(&untraced, &stmts)
    };

    // Human-readable report, then the run context file, then the result.
    println!(
        "sqlbench {} seed {} ({} s, trace {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.traced as u8
    );
    for (k, v) in &ctx {
        println!("  {k:<24} {v}");
    }
    println!(
        "  executed                 {} (untraced){}",
        untraced.latency_ns.len(),
        traced.as_ref().map_or(String::new(), |t| format!(
            ", {} (traced)",
            t.latency_ns.len()
        ))
    );
    println!(
        "  gate                     attempted {attempted}, failed {failed}, failed_pct {}",
        100.0 * ratio(failed as u64, attempted as u64)
    );
    for n in &notes {
        println!("  FAILED {n}");
    }
    for m in metrics.iter().chain(&extra) {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<40} {:>16.6} {}{samples}", m.name, m.value, m.unit);
    }

    // The run context file holds everything above, sample counts and
    // the DML latencies included; the spans go beside it.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.traced as u8
    );
    let mut report = String::from("{");
    for (k, v) in &ctx {
        let _ = write!(report, "{}:{v},", json_str(k));
    }
    let _ = write!(
        report,
        "\"executed_untraced\":{},\"executed_traced\":{},\"attempted\":{attempted},\"failed\":{failed},\"failures\":[{}],\"metrics\":{}}}",
        untraced.latency_ns.len(),
        traced.as_ref().map_or(0, |t| t.latency_ns.len()),
        notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(","),
        metrics_json(metrics.iter().chain(&extra), true)
    );
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::fs::write(out_dir.join(format!("{stem}.json")), report).map_err(|e| e.to_string())?;
    if let Some(tr) = traced.as_ref().and_then(|t| t.tracer.as_ref()) {
        tr.write(&out_dir.join(format!("{stem}.spans.jsonl")))
            .map_err(|e| e.to_string())?;
    }

    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(metrics.iter(), false)
    );
    Ok(())
}

/// `{"name": {"value": v, "unit": u[, "samples": n]}, ...}`
fn metrics_json<'a>(ms: impl Iterator<Item = &'a Metric>, with_samples: bool) -> String {
    let mut s = String::from("{");
    for (i, m) in ms.enumerate() {
        let samples = match m.samples {
            Some(n) if with_samples => format!(",\"samples\":{n}"),
            _ => String::new(),
        };
        let _ = write!(
            s,
            "{}{}:{{\"value\":{},\"unit\":{}{samples}}}",
            if i > 0 { "," } else { "" },
            json_str(&m.name),
            m.value,
            json_str(m.unit),
        );
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sqlbench: {e}");
            ExitCode::from(2)
        }
    }
}
