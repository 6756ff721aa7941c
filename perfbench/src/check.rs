//! Response verification, shared by every run.
//!
//! The checks follow the network load driver (`crates/bench/src/driver.rs`)
//! and tighten them where the benchmark knows the seeded data exactly:
//!
//! * lookups echo the key and return exactly the seeded tuple;
//! * join rows pair kind `k{v}` with label `variant {v}`, for the seeded
//!   kind of the probed id;
//! * per-kind counts and sums never drop below the seeded values (and equal
//!   them when nothing writes);
//! * every scan row carries kind `k7`: it is a seeded `k7` id with its
//!   seeded `v7` value (and, when nothing writes, the ids are exactly the
//!   seeded `k7` ids);
//! * an acknowledged insert is found by its later delete, or it counts as a
//!   lost write.

use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_server::{ErrorCode, Response};
use flexrel_workload::wide_variant_attr;

use crate::workload::{Oracle, Stmt, SCAN_KIND};

/// How one response was classified.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Answered and correct; carries the result row count.
    Ok(usize),
    /// Answered, but the answer is wrong.
    Mismatch(String),
    /// An acknowledged insert that its delete could not find.
    LostWrite,
    /// Refused by admission control.
    Busy,
    /// Cancelled at the statement deadline.
    Timeout,
    /// Any other typed error.
    Error(String),
    /// A response of the wrong type for the request.
    Protocol(String),
}

/// Checks `rsp` against what `stmt` must return.  `exact` says that no
/// writer runs, so aggregates and scans must equal the seeded data.
pub fn verify(stmt: &Stmt, rsp: &Response, oracle: &Oracle, exact: bool) -> Verdict {
    if let Response::Error { code, message } = rsp {
        return match code {
            ErrorCode::Busy => Verdict::Busy,
            ErrorCode::Timeout => Verdict::Timeout,
            _ => Verdict::Error(format!("{}: {}", code, message)),
        };
    }
    match (stmt, rsp) {
        (Stmt::Insert { .. }, Response::TxnOk { inserted, deleted }) => {
            if (*inserted, *deleted) == (1, 0) {
                Verdict::Ok(0)
            } else {
                Verdict::Mismatch(format!("insert acked ({}, {})", inserted, deleted))
            }
        }
        (Stmt::Delete { .. }, Response::TxnOk { inserted, deleted }) => match (*inserted, *deleted)
        {
            (0, 1) => Verdict::Ok(0),
            (0, 0) => Verdict::LostWrite,
            other => Verdict::Mismatch(format!("delete acked {:?}", other)),
        },
        (Stmt::Insert { .. } | Stmt::Delete { .. }, other) => {
            Verdict::Protocol(format!("write answered with {:?}", other))
        }
        (_, Response::Rows(rows)) => match check_rows(stmt, rows, oracle, exact) {
            Ok(()) => Verdict::Ok(rows.len()),
            Err(why) => Verdict::Mismatch(why),
        },
        (_, other) => Verdict::Protocol(format!("query answered with {:?}", other)),
    }
}

fn int(t: &Tuple, attr: &str) -> Option<i64> {
    match t.get_name(attr) {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

/// Checks the rows of a query statement.
pub fn check_rows(stmt: &Stmt, rows: &[Tuple], oracle: &Oracle, exact: bool) -> Result<(), String> {
    match stmt {
        Stmt::Lookup { id } => {
            let seeded = &oracle.tuples[*id as usize];
            if rows.len() != 1 || rows[0] != *seeded {
                return Err(format!(
                    "lookup {} returned {:?}, seeded {}",
                    id, rows, seeded
                ));
            }
        }
        Stmt::Join { id } => {
            let k = oracle.kind_of[*id as usize];
            let ok = rows.len() == 1
                && rows[0].arity() == 2
                && rows[0].get_name("kind") == Some(&Value::tag(format!("k{}", k)))
                && rows[0].get_name("label") == Some(&Value::Str(format!("variant {}", k).into()));
            if !ok {
                return Err(format!("join {} (kind k{}) returned {:?}", id, k, rows));
            }
        }
        Stmt::Agg { kind } => {
            let (floor_n, floor_sum) = (oracle.counts[*kind] as i64, oracle.sums[*kind]);
            let got = rows.first().filter(|_| rows.len() == 1).map(|t| {
                (
                    int(t, "count"),
                    int(t, &format!("sum-{}", wide_variant_attr(*kind))),
                )
            });
            let ok = match got {
                Some((Some(n), Some(sum))) if exact => n == floor_n && sum == floor_sum,
                Some((Some(n), Some(sum))) => n >= floor_n && sum >= floor_sum,
                _ => false,
            };
            if !ok {
                return Err(format!(
                    "aggregate over k{} returned {:?}, seeded count {} sum {}",
                    kind, rows, floor_n, floor_sum
                ));
            }
        }
        Stmt::Scan => {
            let attr = wide_variant_attr(SCAN_KIND);
            let mut ids = Vec::with_capacity(rows.len());
            for t in rows {
                let id = int(t, "id").ok_or_else(|| format!("scan row without id: {}", t))?;
                let seeded_k7 = id >= 0
                    && (id as usize) < oracle.n
                    && oracle.kind_of[id as usize] as usize == SCAN_KIND;
                if !seeded_k7 || t.arity() != 2 || int(t, &attr) != Some(id * 7 % 1000) {
                    return Err(format!("scan row {} is not a seeded k{} row", t, SCAN_KIND));
                }
                ids.push(id);
            }
            ids.sort_unstable();
            if exact && ids != oracle.scan_ids {
                return Err(format!(
                    "scan returned {} ids, seeded {}",
                    ids.len(),
                    oracle.scan_ids.len()
                ));
            }
        }
        Stmt::Insert { .. } | Stmt::Delete { .. } => {
            return Err("rows returned for a write".into());
        }
    }
    Ok(())
}

/// Sorted copy, so two row sets compare as multisets.
pub fn multiset(rows: &[Tuple]) -> Vec<Tuple> {
    let mut v = rows.to_vec();
    v.sort();
    v
}
