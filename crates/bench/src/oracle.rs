//! The reference evaluator: the paper's algebra as the semantics every
//! executed plan is checked against.
//!
//! [`evaluate`] maps each [`LogicalPlan`] node onto the materializing
//! operators of [`flexrel_algebra::ops`] over [`Database::snapshot`]:
//!
//! * `Filter` is the selection `σ_F` ([`ops::select`]), `Project` the
//!   projection `π_X` ([`ops::project`]), `Join` the natural join
//!   ([`ops::natural_join`]), `UnionAll` the union ([`ops::union`]) and
//!   `Extend` the extension `ε_{A:a}` ([`ops::extend`]);
//! * `Scan`, `Guard` and `IndexLookup` filter the snapshot tuple by tuple
//!   on the shape predicate, the guarded attributes and the probed key;
//! * `Aggregate` folds its input with [`GroupedAggs::add_tuple`].
//!
//! Where an algebra precondition rejects a plan the executor accepts, the
//! node falls back to the operator's tuple-level definition; each such
//! place names the precondition.
//!
//! The result keeps the snapshot's tuple order (partition, segment, slot),
//! which is the executor's serial order, so aggregate folds over floats
//! agree with the executor bit for bit.

use std::collections::{BTreeMap, BTreeSet};

use flexrel_algebra::ops;
use flexrel_core::attr::AttrSet;
use flexrel_core::dep::DependencySet;
use flexrel_core::error::Result;
use flexrel_core::relation::FlexRelation;
use flexrel_core::scheme::FlexScheme;
use flexrel_core::tuple::Tuple;
use flexrel_query::{GroupedAggs, LogicalPlan, ShapePredicate};
use flexrel_storage::Database;

/// Evaluates `plan` with the algebra over fresh snapshots of the relations
/// it reads, returning the result tuples.
pub fn evaluate(plan: &LogicalPlan, db: &Database) -> Result<Vec<Tuple>> {
    Ok(eval(plan, db)?.tuples().to_vec())
}

fn eval(plan: &LogicalPlan, db: &Database) -> Result<FlexRelation> {
    Ok(match plan {
        LogicalPlan::Empty => derived("∅", Vec::new(), AttrSet::empty()),
        LogicalPlan::Scan {
            relation,
            qualification,
            shape,
        } => {
            let base = keep(&db.snapshot(relation)?, |t| admitted(shape, t));
            match qualification {
                Some(q) => ops::select(&base, q),
                None => base,
            }
        }
        LogicalPlan::IndexLookup {
            relation,
            key,
            key_value,
            shapes,
        } => keep(&db.snapshot(relation)?, |t| {
            t.defined_on(key) && t.project(key) == *key_value && admitted(shapes, t)
        }),
        LogicalPlan::Filter { input, predicate } => ops::select(&eval(input, db)?, predicate),
        LogicalPlan::Guard { input, attrs } => keep(&eval(input, db)?, |t| t.defined_on(attrs)),
        LogicalPlan::Project { input, attrs } => {
            let input = eval(input, db)?;
            // `ops::project` requires the projection to retain an attribute
            // of the input scheme; the executor projects every tuple anyway.
            ops::project(&input, attrs).unwrap_or_else(|_| {
                let mut seen = BTreeSet::new();
                let rows = input
                    .tuples()
                    .iter()
                    .map(|t| t.project(attrs))
                    .filter(|p| seen.insert(p.clone()))
                    .collect();
                derived("π", rows, AttrSet::empty())
            })
        }
        LogicalPlan::Join { left, right } => {
            ops::natural_join(&eval(left, db)?, &eval(right, db)?)?
        }
        LogicalPlan::UnionAll { inputs } => {
            let inputs = inputs
                .iter()
                .map(|p| eval(p, db))
                .collect::<Result<Vec<_>>>()?;
            match inputs.first() {
                // `ops::union` requires both operands to share one flexible
                // scheme.  Folding from the empty relation over that scheme
                // also removes duplicates inside the first input.
                Some(first) if inputs.iter().all(|r| r.scheme() == first.scheme()) => {
                    let empty = FlexRelation::new("∅", first.scheme().clone());
                    inputs
                        .iter()
                        .try_fold(empty, |acc, r| ops::union(&acc, r))?
                }
                // Inputs over different schemes: the tuple-level union.
                _ => {
                    let mut seen = BTreeSet::new();
                    let rows = inputs
                        .iter()
                        .flat_map(|r| r.tuples())
                        .filter(|t| seen.insert((*t).clone()))
                        .cloned()
                        .collect();
                    derived("∪", rows, AttrSet::empty())
                }
            }
        }
        LogicalPlan::Extend { input, attr, value } => {
            let input = eval(input, db)?;
            // `ops::extend` requires the new attribute to be outside the
            // input scheme; the executor overwrites it when present.
            ops::extend(&input, attr.clone(), value.clone()).unwrap_or_else(|_| {
                let rows = input
                    .tuples()
                    .iter()
                    .map(|t| t.clone().with(attr.clone(), value.clone()))
                    .collect();
                derived("ε", rows, AttrSet::empty())
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut state = GroupedAggs::new(group_by.clone(), aggs.clone());
            for t in eval(input, db)?.tuples() {
                state.add_tuple(t);
            }
            let mut declared = group_by.clone();
            for a in aggs {
                declared.insert(a.output.clone());
            }
            derived("γ", state.finish(), declared)
        }
    })
}

fn admitted(shapes: &Option<ShapePredicate>, t: &Tuple) -> bool {
    shapes.as_ref().map(|s| s.admits(t.shape())).unwrap_or(true)
}

/// The tuples of `rel` that satisfy `pred`, over `rel`'s scheme and
/// dependencies (a subset of an instance stays an instance).
fn keep(rel: &FlexRelation, mut pred: impl FnMut(&Tuple) -> bool) -> FlexRelation {
    FlexRelation::from_parts(
        rel.name(),
        rel.scheme().clone(),
        rel.domains().clone(),
        rel.deps().clone(),
        rel.tuples().iter().filter(|t| pred(t)).cloned().collect(),
    )
}

/// A relation over computed tuples: its scheme covers the tuples' shapes
/// plus the `declared` one (when not empty).  Tuples without any attribute
/// get the empty relational scheme.
fn derived(name: &str, tuples: Vec<Tuple>, declared: AttrSet) -> FlexRelation {
    let mut shapes: BTreeSet<AttrSet> = tuples.iter().map(|t| t.attrs()).collect();
    if !declared.is_empty() {
        shapes.insert(declared);
    }
    let scheme = flexrel_algebra::schemes::covering_scheme(&shapes)
        .unwrap_or_else(|_| FlexScheme::relational(AttrSet::empty()));
    FlexRelation::from_parts(name, scheme, BTreeMap::new(), DependencySet::new(), tuples)
}
