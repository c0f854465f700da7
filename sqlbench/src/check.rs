//! The correctness gate. Results from the timed loops are reduced to
//! compact digests as they arrive; after the loops, every statement is
//! replayed in order on a no-pruning, cache-off session over an
//! identically generated catalog, DML included, and each digest is
//! compared with the oracle's result.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use snowprune_exec::{RowSet, Session};
use snowprune_sql::{SessionSqlExt, SqlOutcome};
use snowprune_types::Value;

use crate::workloads::{Check, Kind, Stmt};

/// What one execution of a statement returned, reduced for comparison.
#[derive(Clone, Debug)]
pub enum Observed {
    Err(String),
    Rows(Digest),
    Dml(u64),
}

/// A result's rows: their count and multiset hash, plus the per-row
/// `(sort key, hash)` list that top-k and LIMIT checks need.
#[derive(Clone, Debug)]
pub struct Digest {
    count: usize,
    multiset: u64,
    rows: Option<Vec<(Vec<Value>, u64)>>,
}

fn row_hash(row: &[Value]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in row {
        match v {
            Value::Null => 0u8.hash(&mut h),
            Value::Bool(b) => (1u8, b).hash(&mut h),
            Value::Int(i) => (2u8, i).hash(&mut h),
            // Sums may be accumulated in another order by the oracle.
            Value::Float(f) => (3u8, format!("{f:.9e}")).hash(&mut h),
            Value::Str(s) => (4u8, s).hash(&mut h),
            Value::Date(d) => (5u8, d).hash(&mut h),
            Value::Timestamp(t) => (6u8, t).hash(&mut h),
        }
    }
    h.finish()
}

fn sort_key_indices(rows: &RowSet, check: &Check) -> Result<Vec<usize>, String> {
    match check {
        Check::TopK { keys, .. } => keys
            .iter()
            .map(|k| rows.schema.index_of(k).map_err(|e| e.to_string()))
            .collect(),
        _ => Ok(Vec::new()),
    }
}

/// Digest a result for `check`. Per-row entries are kept only where the
/// check needs them (top-k and LIMIT results, which are small).
pub fn digest(rows: &RowSet, check: &Check) -> Observed {
    let keys = match sort_key_indices(rows, check) {
        Ok(k) => k,
        Err(e) => return Observed::Err(e),
    };
    let keep = matches!(check, Check::TopK { .. } | Check::Limited { .. });
    let mut multiset = 0u64;
    let mut kept = Vec::new();
    for row in &rows.rows {
        let h = row_hash(row);
        multiset = multiset.wrapping_add(mix(h));
        if keep {
            kept.push((keys.iter().map(|&i| row[i].clone()).collect(), h));
        }
    }
    Observed::Rows(Digest {
        count: rows.len(),
        multiset,
        rows: keep.then_some(kept),
    })
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

pub fn observe(outcome: snowprune_types::Result<SqlOutcome>, check: &Check) -> Observed {
    match outcome {
        Ok(SqlOutcome::Rows(out)) => digest(&out.rows, check),
        Ok(SqlOutcome::Dml { rows_affected, .. }) => Observed::Dml(rows_affected),
        Err(e) => Observed::Err(e.to_string()),
    }
}

/// What the oracle expects of one statement.
enum Expected {
    Rows {
        count: usize,
        multiset: u64,
    },
    /// Oracle rows of the unlimited top-k statement, in order: the first
    /// `min(k, n)` `(key, hash)` entries, and the hashes of every row tied
    /// with the last of those keys.
    TopK {
        head: Vec<(Vec<Value>, u64)>,
        ties: HashMap<u64, usize>,
    },
    Limited {
        k: usize,
        all: HashMap<u64, usize>,
        count: usize,
    },
    Dml(u64),
    Err(String),
}

fn expect(oracle: &Session, stmt: &Stmt) -> Expected {
    let sql = match &stmt.check {
        Check::TopK { unlimited, .. } | Check::Limited { unlimited, .. } => unlimited,
        Check::Multiset | Check::RowsAffected => &stmt.sql,
    };
    let rows = match oracle.run_sql(sql) {
        Ok(SqlOutcome::Rows(out)) => out.rows,
        Ok(SqlOutcome::Dml { rows_affected, .. }) => return Expected::Dml(rows_affected),
        Err(e) => return Expected::Err(format!("oracle: {e}")),
    };
    match &stmt.check {
        Check::TopK { k, .. } => {
            let keys = match sort_key_indices(&rows, &stmt.check) {
                Ok(k) => k,
                Err(e) => return Expected::Err(e),
            };
            let key =
                |row: &[Value]| -> Vec<Value> { keys.iter().map(|&i| row[i].clone()).collect() };
            let n = (*k).min(rows.len());
            let head: Vec<_> = rows.rows[..n]
                .iter()
                .map(|r| (key(r), row_hash(r)))
                .collect();
            let mut ties = HashMap::new();
            if let Some((last, _)) = head.last() {
                for r in rows.rows.iter().filter(|r| key(r) == *last) {
                    *ties.entry(row_hash(r)).or_insert(0) += 1;
                }
            }
            Expected::TopK { head, ties }
        }
        Check::Limited { k, .. } => {
            let mut all = HashMap::new();
            for r in &rows.rows {
                *all.entry(row_hash(r)).or_insert(0) += 1;
            }
            Expected::Limited {
                k: *k,
                all,
                count: rows.len(),
            }
        }
        Check::Multiset | Check::RowsAffected => match digest(&rows, &Check::Multiset) {
            Observed::Rows(d) => Expected::Rows {
                count: d.count,
                multiset: d.multiset,
            },
            _ => unreachable!("a multiset digest is always rows"),
        },
    }
}

fn multiset_of<'a>(hashes: impl Iterator<Item = &'a u64>) -> HashMap<u64, usize> {
    let mut m = HashMap::new();
    for h in hashes {
        *m.entry(*h).or_insert(0) += 1;
    }
    m
}

fn contained(sub: &HashMap<u64, usize>, sup: &HashMap<u64, usize>) -> bool {
    sub.iter().all(|(h, n)| sup.get(h).is_some_and(|m| m >= n))
}

/// `None` when `got` agrees with `want`, else why not.
fn compare(got: &Observed, want: &Expected) -> Option<String> {
    match (got, want) {
        (Observed::Err(e), _) => Some(format!("error: {e}")),
        (_, Expected::Err(e)) => Some(e.clone()),
        (Observed::Dml(a), Expected::Dml(b)) => {
            (a != b).then(|| format!("{a} rows affected, oracle {b}"))
        }
        (Observed::Rows(d), Expected::Rows { count, multiset }) => (d.count != *count
            || d.multiset != *multiset)
            .then(|| format!("{} rows differ from the oracle's {count}", d.count)),
        (Observed::Rows(d), Expected::TopK { head, ties }) => {
            let rows = d.rows.as_deref().unwrap_or_default();
            if rows.len() != head.len() {
                return Some(format!("{} rows, oracle {}", rows.len(), head.len()));
            }
            if rows.iter().zip(head).any(|(a, b)| a.0 != b.0) {
                return Some("sort keys differ from the oracle's".into());
            }
            let (last, _) = head.last()?;
            let strict = |r: &&(Vec<Value>, u64)| r.0 != *last;
            let got = multiset_of(rows.iter().filter(strict).map(|r| &r.1));
            let want = multiset_of(head.iter().filter(strict).map(|r| &r.1));
            let tied = multiset_of(rows.iter().filter(|r| r.0 == *last).map(|r| &r.1));
            (got != want || !contained(&tied, ties)).then(|| "rows differ from the oracle's".into())
        }
        (Observed::Rows(d), Expected::Limited { k, all, count }) => {
            let rows = d.rows.as_deref().unwrap_or_default();
            if rows.len() != (*k).min(*count) {
                return Some(format!(
                    "{} rows, expected {}",
                    rows.len(),
                    (*k).min(*count)
                ));
            }
            (!contained(&multiset_of(rows.iter().map(|r| &r.1)), all))
                .then(|| "rows not contained in the oracle's".into())
        }
        _ => Some("result kind differs from the oracle's".into()),
    }
}

/// Replay `stmts` on the oracle session, position by position, and check
/// every observation. `observed[l]` holds one loop's observations by
/// stream position; loops start from identical catalogs, so position `p`
/// of every loop sees the same data. The oracle reuses a SELECT's
/// expectation until the next DML statement. Returns how many
/// observations failed and a few failure descriptions.
pub fn gate(oracle: &Session, stmts: &[Stmt], observed: &[&[Observed]]) -> (usize, Vec<String>) {
    let positions = observed.iter().map(|o| o.len()).max().unwrap_or(0);
    let mut failed = 0;
    let mut notes = Vec::new();
    let mut memo: HashMap<&str, Expected> = HashMap::new();
    for pos in 0..positions {
        let stmt = &stmts[pos % stmts.len()];
        let fresh;
        let want = match stmt.kind {
            Kind::Dml(_) => {
                memo.clear();
                fresh = expect(oracle, stmt);
                &fresh
            }
            Kind::Select(_) => memo
                .entry(stmt.sql.as_str())
                .or_insert_with(|| expect(oracle, stmt)),
        };
        for got in observed.iter().filter_map(|obs| obs.get(pos)) {
            if let Some(why) = compare(got, want) {
                failed += 1;
                if notes.len() < 5 {
                    notes.push(format!("position {pos}: {why}: {}", stmt.sql));
                }
            }
        }
    }
    (failed, notes)
}
