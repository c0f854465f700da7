//! The traced run: each layer's public entry point is called one after
//! another for every statement, inside spans kept in memory and written
//! out when the run ends. Tracing inside the engine is not used; the
//! spans sit at the crate boundaries the benchmark calls.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use snowprune_core::filter::{FilterPruneConfig, FilterPruner};
use snowprune_exec::{CompiledScan, QueryOutput, Session};
use snowprune_expr::{eval_predicate, eval_value, Expr};
use snowprune_plan::Plan;
use snowprune_sql::{bind::bind, lex, parse_statement, Statement};
use snowprune_storage::{IoStats, PartitionMeta};
use snowprune_types::{Result, Value};

use crate::workloads::{Shape, Verb};

/// One timed call: `parent` indexes the enclosing span; spans of one
/// statement share `stmt`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub stmt: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, stmt: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            stmt,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    fn time<T>(&mut self, name: &'static str, stmt: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, stmt);
        let out = f();
        self.exit();
        out
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per layer, in nanoseconds: each span's duration less the
    /// part its children cover (children never overlap: calls are made
    /// one after another). The layer is the span name up to its first
    /// dot; the per-statement root span is the harness's own time.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *by_layer.entry(layer(s.name)).or_insert(0) += ns;
        }
        by_layer
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.stmt,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.to_string())
            )?;
        }
        f.flush()
    }
}

pub const ROOT: &str = "stmt";

/// Every layer a span can belong to.
pub const LAYERS: [&str; 4] = ["harness", "sql", "analyze", "exec"];

pub fn layer(name: &'static str) -> &'static str {
    if name == ROOT {
        "harness"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

pub fn run_span(shape: Shape) -> &'static str {
    match shape {
        Shape::Filter => "exec.run.filter",
        Shape::Limit => "exec.run.limit",
        Shape::TopK => "exec.run.topk",
        Shape::Join => "exec.run.join",
        Shape::Agg => "exec.run.agg",
    }
}

pub fn dml_span(verb: Verb) -> &'static str {
    match verb {
        Verb::Insert => "exec.dml.insert",
        Verb::Update => "exec.dml.update",
        Verb::Delete => "exec.dml.delete",
    }
}

/// What a traced statement produced.
pub enum Traced {
    Rows(Box<QueryOutput>, Vec<CompiledScan>),
    Dml(u64),
}

/// Run one statement layer by layer: lex, parse, bind, verify, compile
/// each scan, then `Session::run` (SELECT) or the session's DML wrapper.
/// Verification and scan compilation run again inside `Session::run`;
/// the separate calls time those layers on their own.
pub fn run_traced(
    session: &Session,
    sql: &str,
    shape: Option<Shape>,
    id: u64,
    tr: &mut Tracer,
) -> Result<Traced> {
    tr.enter(ROOT, id);
    let out = traced_body(session, sql, shape, id, tr);
    tr.exit();
    out
}

fn traced_body(
    session: &Session,
    sql: &str,
    shape: Option<Shape>,
    id: u64,
    tr: &mut Tracer,
) -> Result<Traced> {
    tr.time("sql.lex", id, || lex(sql))?;
    let ast = tr.time("sql.parse", id, || parse_statement(sql))?;
    let bound = tr.time("sql.bind", id, || bind(&ast, session.catalog()))?;
    let cfg = session.config();
    let qualifies = |p: &Option<Expr>, row: &[Value]| {
        p.as_ref()
            .is_none_or(|p| eval_predicate(p, row).qualifies())
    };
    match bound {
        Statement::Query(plan) => {
            tr.time("analyze.verify", id, || {
                snowprune_analyze::verify_with(&plan, cfg.enable_topk_pruning)
            })?;
            let scans = tr.time("exec.compile_scan", id, || compile_scans(session, &plan))?;
            let span = run_span(shape.unwrap_or(Shape::Filter));
            let out = tr.time(span, id, || session.run(&plan))?;
            Ok(Traced::Rows(Box::new(out), scans))
        }
        Statement::Insert { table, rows } => {
            let n = rows.len() as u64;
            tr.time(dml_span(Verb::Insert), id, || {
                session.insert_rows(&table, rows)
            })?;
            Ok(Traced::Dml(n))
        }
        Statement::Delete { table, predicate } => {
            let res = tr.time(dml_span(Verb::Delete), id, || {
                session.delete_rows(&table, |row| qualifies(&predicate, row))
            })?;
            Ok(Traced::Dml(res.rows_affected))
        }
        Statement::Update {
            table,
            sets,
            predicate,
        } => {
            let res = tr.time(dml_span(Verb::Update), id, || {
                session.update_rows(&table, |row| {
                    let mut out = row.to_vec();
                    if qualifies(&predicate, row) {
                        for (idx, e) in &sets {
                            out[*idx] = eval_value(e, row);
                        }
                    }
                    out
                })
            })?;
            Ok(Traced::Dml(res.rows_affected))
        }
    }
}

/// `CompiledScan::compile` for every scan of `plan`, with the session's
/// configuration: metadata read plus compile-time filter pruning.
fn compile_scans(session: &Session, plan: &Plan) -> Result<Vec<CompiledScan>> {
    let cfg = session.config();
    let io = IoStats::new();
    plan.scans()
        .into_iter()
        .filter_map(|scan| match scan {
            Plan::Scan {
                table, predicate, ..
            } => Some((table, predicate)),
            _ => None,
        })
        .map(|(table, predicate)| {
            let snapshot = snowprune_exec::exec::snapshot_table(session.catalog(), table)?;
            CompiledScan::compile(
                table,
                snapshot,
                predicate.as_ref(),
                cfg.enable_filter_pruning,
                &cfg.filter,
                &io,
                &cfg.io_cost,
            )
        })
        .collect()
}

/// Partitions the executor's compile-time pruning kept, and partitions an
/// exhaustive zone-map check keeps (`FilterPruner` with reorder and cutoff
/// off), summed over the filtered scans.
pub fn filter_survivors(scans: &[CompiledScan]) -> (u64, u64) {
    let exhaustive_cfg = FilterPruneConfig {
        reorder: false,
        cutoff: false,
        ..FilterPruneConfig::default()
    };
    let (mut kept, mut exhaustive) = (0, 0);
    for scan in scans {
        let Some(pred) = &scan.predicate else {
            continue;
        };
        let metas: Vec<PartitionMeta> = scan.table.metadata().into_iter().cloned().collect();
        let res = FilterPruner::new(pred, exhaustive_cfg.clone()).prune(&metas);
        kept += scan.scan_set.entries.len() as u64;
        exhaustive += res.scan_set.entries.len() as u64;
    }
    (kept, exhaustive)
}
