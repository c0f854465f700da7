//! The three workloads: a seeded catalog plus the SQL statement stream a
//! single closed-loop client sends. The engine only ever sees the catalog
//! and the SQL text; the plan each SELECT was generated from is used here
//! to derive how its result is checked and which plan shape it has.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snowprune_exec::{ExecConfig, PredicateCacheMode};
use snowprune_expr::dsl::{col, lit};
use snowprune_plan::{AggFunc, Plan, PlanBuilder};
use snowprune_storage::{Catalog, Field, Schema};
use snowprune_types::ScalarType;
use snowprune_workload::{
    emit_sql, generate, production_scale, ProductionScaleConfig, WorkloadConfig,
};

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table-1-calibrated production stream over the `events_*` tables.
    Mix,
    /// Dashboard and report windows plus dim joins over a lake of many
    /// 8-row partitions.
    Lake,
    /// Recurring dashboard panels with interleaved DML, predicate cache on.
    Dashboard,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "mix" => Some(Workload::Mix),
            "lake" => Some(Workload::Lake),
            "dashboard" => Some(Workload::Dashboard),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mix => "mix",
            Workload::Lake => "lake",
            Workload::Dashboard => "dashboard",
        }
    }

    /// The engine configuration under test: defaults everywhere, except
    /// that the dashboard turns the predicate cache on in shape mode.
    pub fn exec_config(self, workers: usize) -> ExecConfig {
        let cfg = ExecConfig::default().with_scan_threads(workers);
        match self {
            Workload::Dashboard => cfg
                .with_predicate_cache(true)
                .with_predicate_cache_mode(PredicateCacheMode::Shape),
            Workload::Mix | Workload::Lake => cfg,
        }
    }
}

/// Full size for measurement; tiny for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Plan shape of a SELECT, for the per-shape `Session::run` timings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Filter,
    Limit,
    TopK,
    Join,
    Agg,
}

impl Shape {
    pub const ALL: [Shape; 5] = [
        Shape::Filter,
        Shape::Limit,
        Shape::TopK,
        Shape::Join,
        Shape::Agg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Filter => "filter",
            Shape::Limit => "limit",
            Shape::TopK => "topk",
            Shape::Join => "join",
            Shape::Agg => "agg",
        }
    }
}

/// DML verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Insert,
    Update,
    Delete,
}

impl Verb {
    pub const ALL: [Verb; 3] = [Verb::Insert, Verb::Update, Verb::Delete];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Insert => "insert",
            Verb::Update => "update",
            Verb::Delete => "delete",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Select(Shape),
    Dml(Verb),
}

/// How a statement's result is compared with the oracle's.
#[derive(Clone, Debug)]
pub enum Check {
    /// Rows compared as multisets.
    Multiset,
    /// `ORDER BY keys LIMIT k`: the oracle runs `unlimited` (the statement
    /// without its LIMIT). Sort keys must match in order; rows must match
    /// as multisets, except that rows tied with the last key may be any of
    /// the oracle's rows with that key. On a unique key this is exact
    /// ordered equality.
    TopK {
        k: usize,
        keys: Vec<String>,
        unlimited: String,
    },
    /// LIMIT without ORDER BY: `min(k, n)` rows, each contained in the
    /// oracle's result of `unlimited`.
    Limited { k: usize, unlimited: String },
    /// DML: the oracle must affect the same number of rows.
    RowsAffected,
}

#[derive(Clone, Debug)]
pub struct Stmt {
    pub sql: String,
    pub kind: Kind,
    pub check: Check,
}

/// A generated workload: what one set-up produces besides the session.
pub struct Generated {
    pub catalog: Catalog,
    pub stmts: Vec<Stmt>,
}

/// `(fact partitions, rows per partition, statements)`; the run context
/// records the resulting table sizes. The `lake` size keeps both defects
/// it exposes visible (see `predictions.json`) while a run fits its time.
fn sizes(workload: Workload, scale: Scale) -> (usize, usize, usize) {
    match (workload, scale) {
        (Workload::Mix, Scale::Full) => (80, 200, 6000),
        (Workload::Mix, Scale::Tiny) => (8, 100, 60),
        (Workload::Lake, Scale::Full) => (1_500, 8, 4000),
        (Workload::Lake, Scale::Tiny) => (400, 8, 30),
        (Workload::Dashboard, Scale::Full) => (40, 500, 4000),
        (Workload::Dashboard, Scale::Tiny) => (6, 100, 160),
    }
}

pub fn generate_workload(workload: Workload, scale: Scale, seed: u64) -> Result<Generated, String> {
    let (fact_partitions, rows_per_partition, statements) = sizes(workload, scale);
    match workload {
        Workload::Mix => {
            let wl = generate(
                &WorkloadConfig {
                    queries: statements,
                    rows_per_partition,
                    fact_partitions,
                },
                seed,
            );
            let stmts = wl
                .queries
                .iter()
                .map(|q| select(&q.plan))
                .collect::<Result<_, _>>()?;
            Ok(Generated {
                catalog: wl.catalog,
                stmts,
            })
        }
        Workload::Lake => {
            let wl = production_scale(
                &ProductionScaleConfig {
                    tenants: 1,
                    queries: statements,
                    fact_partitions,
                    rows_per_partition,
                    ..ProductionScaleConfig::default()
                },
                seed,
            );
            let stmts = wl
                .arrivals
                .iter()
                .map(|(_, q)| select(&q.plan))
                .collect::<Result<_, _>>()?;
            Ok(Generated {
                catalog: wl.catalog,
                stmts,
            })
        }
        Workload::Dashboard => {
            let wl = generate(
                &WorkloadConfig {
                    queries: 0,
                    rows_per_partition,
                    fact_partitions,
                },
                seed,
            );
            let max_ts = (rows_per_partition * fact_partitions) as i64 * 10;
            let stmts = dashboard_stream(statements, max_ts, seed)?;
            Ok(Generated {
                catalog: wl.catalog,
                stmts,
            })
        }
    }
}

/// Spell a generated SELECT plan as SQL and derive its check and shape.
fn select(plan: &Plan) -> Result<Stmt, String> {
    let spell = |p: &Plan| emit_sql(p).ok_or_else(|| format!("no SQL spelling for plan:\n{p}"));
    let check = match plan {
        Plan::Limit { input, k, .. } => match &**input {
            Plan::Sort { keys, .. } => Check::TopK {
                k: *k as usize,
                keys: keys
                    .iter()
                    .map(|key| match &key.expr {
                        snowprune_expr::Expr::Column(c) => Ok(c.name.clone()),
                        other => Err(format!("computed sort key {other}")),
                    })
                    .collect::<Result<_, _>>()?,
                unlimited: spell(input)?,
            },
            _ => Check::Limited {
                k: *k as usize,
                unlimited: spell(input)?,
            },
        },
        _ => Check::Multiset,
    };
    Ok(Stmt {
        sql: spell(plan)?,
        kind: Kind::Select(shape_of(plan)),
        check,
    })
}

fn shape_of(plan: &Plan) -> Shape {
    let (mut join, mut agg) = (false, false);
    plan.visit(&mut |p| match p {
        Plan::Join { .. } => join = true,
        Plan::Aggregate { .. } => agg = true,
        _ => {}
    });
    match plan {
        _ if join => Shape::Join,
        Plan::Limit { input, .. } if matches!(**input, Plan::Sort { .. }) => Shape::TopK,
        Plan::Limit { .. } => Shape::Limit,
        _ if agg => Shape::Agg,
        _ => Shape::Filter,
    }
}

fn events_schema() -> Schema {
    Schema::new(vec![
        Field::new("ts", ScalarType::Int),
        Field::new("user_id", ScalarType::Int),
        Field::new("category", ScalarType::Str),
        Field::new("metric", ScalarType::Int),
        Field::new("name", ScalarType::Str),
    ])
}

/// Statements between two DML statements: one DML in twenty (5%).
const EPOCH: usize = 20;
/// Base window of each dashboard, as a share of the table's `ts` range.
/// Each dashboard narrows the previous one's window.
const DASHBOARD_WINDOWS: [i64; 3] = [5, 10, 20];

/// The dashboard stream. A dashboard is a fixed set of panels over one
/// window on the recent end of `events_clustered` (filter, narrowed
/// filter, top-k on `ts` at two `k`, top-k on `metric`, category filter,
/// filtered aggregate); each dashboard's window lies inside the previous
/// one's, so shape-mode cache hits happen within and across dashboards.
/// Every epoch starts with one DML statement, cycling INSERT of fresh rows
/// past the end of the table, UPDATE `metric + 1` over a window, DELETE of
/// the inserted rows and UPDATE `metric - 1` over the same window: each
/// cycle restores the table's rows, so repeated passes see the same data.
/// Then one dashboard, in turn, is refreshed by several viewers: each
/// panel about equally often, in a seeded order. Window widths are fixed
/// shares and the seed moves only their ends, values and order, so seeds
/// differ in inputs but not in how much work a pass holds.
fn dashboard_stream(len: usize, max_ts: i64, seed: u64) -> Result<Vec<Stmt>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA5B_0A2D);
    let t = || PlanBuilder::scan("events_clustered", events_schema());
    let between = |lo: i64, hi: i64| col("ts").between(lit(lo), lit(hi));
    let mut dashboards: Vec<Vec<Stmt>> = Vec::new();
    for share in DASHBOARD_WINDOWS {
        let lo = max_ts - max_ts / share - rng.random_range(0..max_ts / 100);
        let hi = max_ts + rng.random_range(1_000..1_000_000i64);
        let narrow_lo = lo + (max_ts - lo) / 2;
        let panels = [
            t().filter(between(lo, hi))
                .project(vec!["ts", "user_id", "metric"])
                .build(),
            t().filter(between(narrow_lo, hi))
                .project(vec!["ts", "user_id", "metric"])
                .build(),
            t().filter(between(lo, hi))
                .order_by("ts", true)
                .limit(10)
                .build(),
            t().filter(between(lo, hi))
                .order_by("ts", true)
                .limit(5)
                .build(),
            t().filter(between(lo, hi))
                .order_by("metric", true)
                .limit(10)
                .build(),
            t().filter(between(lo, hi).and(col("category").eq(lit("iot"))))
                .build(),
            t().filter(between(lo, hi))
                .aggregate(
                    vec!["category"],
                    vec![
                        AggFunc::CountStar,
                        AggFunc::Sum("metric".into()),
                        AggFunc::Max("metric".into()),
                    ],
                )
                .build(),
        ];
        dashboards.push(panels.iter().map(select).collect::<Result<_, _>>()?);
    }

    let mut stmts = Vec::with_capacity(len);
    let mut epoch = 0usize;
    while stmts.len() < len {
        stmts.push(dml(epoch, max_ts, &mut rng));
        let panels = &dashboards[epoch % dashboards.len()];
        let mut order: Vec<usize> = (0..EPOCH - 1).map(|i| i % panels.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        stmts.extend(order.iter().map(|&i| panels[i].clone()));
        epoch += 1;
    }
    stmts.truncate(len);
    Ok(stmts)
}

/// The DML of one epoch; four consecutive epochs restore the table.
fn dml(epoch: usize, max_ts: i64, rng: &mut StdRng) -> Stmt {
    // The window of this cycle's UPDATE pair, inside the recent fifth; a
    // function of the cycle alone, so the pair cancels out.
    let width = max_ts / 200;
    let upd_lo = max_ts - max_ts / 5 + (epoch / 4) as i64 * 7919 * 10 % (max_ts / 5 - width);
    let (verb, sql) = match epoch % 4 {
        0 => {
            let rows: Vec<String> = (0..8)
                .map(|i| {
                    format!(
                        "({}, {}, '{}', {}, 'name-{:06}')",
                        max_ts + 10 * (i + 1),
                        rng.random_range(0..100_000i64),
                        ["web", "mobile", "iot"][rng.random_range(0..3usize)],
                        rng.random_range(0..1_000_000i64),
                        rng.random_range(0..100_000i64),
                    )
                })
                .collect();
            (
                Verb::Insert,
                format!("INSERT INTO events_clustered VALUES {}", rows.join(", ")),
            )
        }
        1 => (
            Verb::Update,
            format!(
                "UPDATE events_clustered SET metric = metric + 1 WHERE ts BETWEEN {upd_lo} AND {}",
                upd_lo + width
            ),
        ),
        2 => (
            Verb::Delete,
            format!("DELETE FROM events_clustered WHERE ts > {max_ts}"),
        ),
        _ => (
            Verb::Update,
            format!(
                "UPDATE events_clustered SET metric = metric - 1 WHERE ts BETWEEN {upd_lo} AND {}",
                upd_lo + width
            ),
        ),
    };
    Stmt {
        sql,
        kind: Kind::Dml(verb),
        check: Check::RowsAffected,
    }
}
