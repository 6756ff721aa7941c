//! Late-materialization differential suite: every plan must return the
//! reference evaluator's tuple multiset (`flexrel_bench::oracle`, the
//! algebra over `Database::snapshot`) through the executor, serial and
//! partition-parallel — across the experiment-style workloads (partial
//! attributes, negated presence, compound predicates, joins on both access
//! paths, index probes, aggregates), under mid-query concurrent writers
//! (snapshot semantics), and after rollback.  `ExecStats` is pinned on the
//! index paths, and index probes are checked to return scan order exactly.
//! The aggregation kernels are additionally property-tested against a
//! naive fold over materialized tuples, including wrapping `i64` sums,
//! all-filtered selections, and shapes wide enough to spill the attribute
//! bitset past one word.

use proptest::prelude::*;

use flexrel_algebra::predicate::Predicate;
use flexrel_bench::experiments::wide_access_path_db;
use flexrel_bench::oracle;
use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_query::prelude::*;
use flexrel_query::{aggregate_selected, GroupedAggs};
use flexrel_storage::column::SEGMENT_SIZE;
use flexrel_storage::{ColumnHeap, Database, RelationDef, SelVec, Transaction};
use flexrel_workload::{
    employee_relation, generate_employees, generate_wide, wide_relation, EmployeeConfig, JobType,
    WideConfig,
};

fn employee_db(n: usize, seed: u64) -> Database {
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    for t in generate_employees(&EmployeeConfig {
        n,
        violation_rate: 0.0,
        seed,
    }) {
        db.insert("employee", t).unwrap();
    }
    db
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Every scan of more than one partition fans out, however small.
fn parallel() -> ExecOptions {
    ExecOptions::parallel(4).with_min_parallel_rows(1)
}

/// Runs `plan` through the executor, serial and partition-parallel, and
/// through the reference evaluator, and asserts all three return the same
/// tuple multiset, which is then handed back sorted.
fn assert_pipelines_agree(db: &Database, plan: &LogicalPlan, label: &str) -> Vec<Tuple> {
    let reference = sorted(oracle::evaluate(plan, db).unwrap());
    let late = sorted(execute_with(plan, db, &ExecOptions::serial()).unwrap());
    let late_par = sorted(execute_with(plan, db, &parallel()).unwrap());
    assert_eq!(late, reference, "executor vs reference disagree on {label}");
    assert_eq!(
        late_par, reference,
        "parallel executor disagrees on {label}"
    );
    reference
}

/// The FRQL catalogue, in both its naive and database-aware optimized
/// plan forms.
fn frql_catalogue() -> Vec<&'static str> {
    vec![
        "SELECT * FROM employee",
        "SELECT * FROM employee WHERE salary > 4000",
        "SELECT * FROM employee WHERE salary > 3000 AND jobtype = 'secretary'",
        "SELECT * FROM employee WHERE typing-speed > 200 OR salary <= 2500",
        "SELECT * FROM employee WHERE NOT PRESENT(typing-speed)",
        "SELECT * FROM employee WHERE NOT (jobtype = 'secretary' AND salary > 3000)",
        "SELECT empno, name FROM employee WHERE salary >= 2000",
        "SELECT empno, typing-speed FROM employee GUARD typing-speed",
        "SELECT * FROM employee WHERE jobtype = 'secretary' GUARD typing-speed",
        "SELECT COUNT(*) FROM employee",
        "SELECT COUNT(typing-speed), SUM(salary), MIN(salary), MAX(salary) FROM employee",
        "SELECT COUNT(*), SUM(salary) FROM employee WHERE salary > 9999999",
        "SELECT jobtype, COUNT(*), SUM(salary), MAX(empno) FROM employee GROUP BY jobtype",
        "SELECT jobtype, salary, COUNT(*) FROM employee \
         WHERE salary > 2000 GROUP BY jobtype, salary",
    ]
}

#[test]
fn late_pipeline_matches_the_row_oracle_on_the_frql_catalogue() {
    let db = employee_db(600, 11);
    for frql in frql_catalogue() {
        let plan = plan_query(&parse(frql).unwrap(), &db.catalog()).unwrap();
        let naive_rows = assert_pipelines_agree(&db, &plan, frql);
        let (optimized, _) = optimize_with_db(plan, &db);
        let optimized_rows = assert_pipelines_agree(&db, &optimized, frql);
        assert_eq!(naive_rows, optimized_rows, "optimizer changed {frql}");
    }
}

/// Joins on every access path the planner can choose: hash joins (against
/// the index-free shadow relation), index-nested-loop joins driven by the
/// small key list, and a three-way join — serial, parallel and against the
/// reference, from both the catalog-only and the database-aware plans.
#[test]
fn late_pipeline_matches_the_row_oracle_on_joins_and_index_paths() {
    let db = wide_access_path_db(800, 4, 0.5, 16);
    let plans = vec![
        (
            "wide JOIN ids",
            LogicalPlan::scan("wide").join(LogicalPlan::scan("ids")),
        ),
        (
            "ids JOIN wide_nx (hash only)",
            LogicalPlan::scan("ids").join(LogicalPlan::scan("wide_nx")),
        ),
        (
            "wide JOIN wide_nx (full key overlap)",
            LogicalPlan::scan("wide")
                .filter(Predicate::lt("id", 200i64))
                .join(LogicalPlan::scan("wide_nx")),
        ),
        (
            "ids JOIN wide JOIN wide_nx",
            LogicalPlan::scan("ids")
                .join(LogicalPlan::scan("wide"))
                .join(LogicalPlan::scan("wide_nx")),
        ),
        (
            "indexed point lookup + residual",
            LogicalPlan::scan("wide")
                .filter(Predicate::eq("kind", Value::tag("k1")))
                .filter(Predicate::ge("id", 100i64)),
        ),
    ];
    for (label, plan) in plans {
        let naive_rows = assert_pipelines_agree(&db, &plan, label);
        let (optimized, _) = optimize_with_db(plan, &db);
        let optimized_rows = assert_pipelines_agree(&db, &optimized, label);
        assert_eq!(naive_rows, optimized_rows, "optimizer changed {label}");
    }
}

/// Snapshot semantics under mid-query writers: serial and parallel streams
/// opened before a burst of concurrent inserts/deletes keep yielding the
/// reference multiset of the pre-write state; fresh executions then agree
/// with the reference on the post-write state.
#[test]
fn mid_query_writers_leave_both_pipelines_on_the_same_snapshot() {
    const VARIANTS: usize = 4;
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&wide_relation(VARIANTS)))
        .unwrap();
    for t in generate_wide(&WideConfig::new(1_000, VARIANTS)) {
        db.insert("wide", t).unwrap();
    }
    let plan = LogicalPlan::scan("wide").filter(Predicate::ge("id", 0i64));
    let before = sorted(oracle::evaluate(&plan, &db).unwrap());

    // Both streams capture their snapshots now; pull a prefix from each so
    // the writes land genuinely mid-query.
    let mut late = execute_stream_with(&plan, &db, &ExecOptions::serial()).unwrap();
    let mut late_par = execute_stream_with(&plan, &db, &parallel()).unwrap();
    let mut late_rows: Vec<Tuple> = (&mut late).take(37).collect();
    let mut par_rows: Vec<Tuple> = (&mut late_par).take(37).collect();

    // The concurrent writer: new tuples and a deletion burst.
    for t in generate_wide(&WideConfig::new(200, VARIANTS)) {
        let mut t = t;
        let id = t.get(&Attr::new("id")).cloned().unwrap();
        if let Value::Int(i) = id {
            t.insert("id", i + 1_000_000);
        }
        db.insert("wide", t).unwrap();
    }
    let victims: Vec<_> = db
        .lookup_eq(
            "wide",
            &AttrSet::singleton("kind"),
            &Tuple::new().with("kind", Value::tag("k0")),
        )
        .unwrap();
    for (rid, _) in victims.iter().take(100) {
        db.delete("wide", *rid).unwrap();
    }

    late_rows.extend(late);
    par_rows.extend(late_par);
    assert_eq!(
        late_rows.len(),
        1_000,
        "the serial stream kept its snapshot"
    );
    assert_eq!(sorted(late_rows), before, "serial stream left its snapshot");
    assert_eq!(
        sorted(par_rows),
        before,
        "parallel stream left its snapshot"
    );

    // Fresh executions agree with the reference on the mutated state too,
    // for scans and for a grouped aggregate over the churned dictionary
    // column.
    assert_pipelines_agree(&db, &plan, "post-write scan");
    let agg = plan_query(
        &parse("SELECT kind, COUNT(*), SUM(id) FROM wide GROUP BY kind").unwrap(),
        &db.catalog(),
    )
    .unwrap();
    assert_pipelines_agree(&db, &agg, "post-write aggregate");
}

/// After a rolled-back transaction the executor (serial and parallel) and
/// the reference read back exactly the pre-transaction state — for scans and for the columnar aggregation
/// path over the partitions the aborted batch had touched.
#[test]
fn post_rollback_state_is_identical_through_both_pipelines() {
    let db = employee_db(150, 3);
    let scan = plan_query(
        &parse("SELECT * FROM employee WHERE salary > 3000").unwrap(),
        &db.catalog(),
    )
    .unwrap();
    let agg = plan_query(
        &parse("SELECT jobtype, COUNT(*), SUM(salary) FROM employee GROUP BY jobtype").unwrap(),
        &db.catalog(),
    )
    .unwrap();
    let scan_before = assert_pipelines_agree(&db, &scan, "pre-txn scan");
    let agg_before = assert_pipelines_agree(&db, &agg, "pre-txn aggregate");

    let mut txn = Transaction::begin();
    for (i, mut t) in generate_employees(&EmployeeConfig {
        n: 60,
        violation_rate: 0.0,
        seed: 4,
    })
    .into_iter()
    .enumerate()
    {
        t.insert("empno", 70_000 + i as i64);
        db.insert_txn(&mut txn, "employee", t).unwrap();
    }
    db.rollback(txn).unwrap();

    assert_eq!(
        assert_pipelines_agree(&db, &scan, "post-rollback scan"),
        scan_before,
        "rollback must restore the scanned state"
    );
    assert_eq!(
        assert_pipelines_agree(&db, &agg, "post-rollback aggregate"),
        agg_before,
        "rollback must restore the aggregated state"
    );
}

/// `ExecStats` counts the work of the index paths: an `IndexLookup` feeds
/// column chunks (counted in `chunks()`, materialized only where they
/// leave the columns), and the index-nested-loop join counts its probe
/// rows and every inner tuple it fetches.
#[test]
fn exec_stats_count_index_path_work() {
    let db = wide_access_path_db(5_000, 8, 1.0, 16);
    let optimized = |frql: &str| {
        let plan = plan_query(&parse(frql).unwrap(), &db.catalog()).unwrap();
        optimize_with_db(plan, &db).0
    };
    let serial = ExecOptions::serial();

    let agg = optimized("SELECT COUNT(*), SUM(v0) FROM wide WHERE kind = 'k0'");
    assert_eq!(agg.index_lookup_count(), 1, "{agg}");
    let (rows, stats) = execute_collect(&agg, &db, &serial).unwrap();
    assert_eq!(sorted(rows), sorted(oracle::evaluate(&agg, &db).unwrap()));
    assert_eq!(stats.materialized(), 0, "the aggregate folds the columns");
    assert!(stats.chunks() >= 2, "chunks = {}", stats.chunks());

    let point = optimized("SELECT * FROM wide WHERE id = 17");
    assert_eq!(point.index_lookup_count(), 1, "{point}");
    let (rows, stats) = execute_collect(&point, &db, &serial).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(stats.materialized(), 1);
    assert_eq!(stats.chunks(), 1);

    let ids = LogicalPlan::scan("ids");
    let wide = LogicalPlan::scan("wide");
    assert_eq!(
        join_strategy(&ids, &wide, &db),
        JoinStrategy::IndexNestedLoopRight
    );
    let join = ids.join(wide);
    let (rows, stats) = execute_collect(&join, &db, &serial).unwrap();
    assert_eq!(rows.len(), 16);
    assert_eq!(stats.materialized(), 32, "16 probe rows plus 16 inner rows");
}

/// An employee database after a random insert/delete/re-insert sequence:
/// freed slots are reused, so the order of an index chain (insertion
/// order) differs from slot order — across segments too, once a jobtype
/// partition outgrows one 1024-slot segment.  Salaries are fractional so
/// that float sums depend on summation order.
fn churned_employee_db(seed: u64, n: usize, churn: usize) -> Database {
    let mut rng = TestRng::new(seed);
    let db = Database::new();
    db.create_relation(RelationDef::from_relation(&employee_relation()))
        .unwrap();
    let pool = generate_employees(&EmployeeConfig {
        n: n + churn,
        violation_rate: 0.0,
        seed,
    });
    let mut live = Vec::with_capacity(n);
    for (i, t) in pool.into_iter().enumerate() {
        if i >= n {
            let victim = live.swap_remove((rng.next_u64() as usize) % live.len());
            db.delete("employee", victim).unwrap();
        }
        let salary = 2_000.0 + (rng.next_u64() % 800_000) as f64 / 97.0;
        live.push(db.insert("employee", t.with("salary", salary)).unwrap());
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Index probes return exactly the pruned scan: the same rows in the
    /// same order (rid order is scan order even when the hash chain is
    /// not), the reference evaluator's multiset, and a float `SUM` equal
    /// to the reference fold bit for bit.
    #[test]
    fn index_probes_return_scan_order_and_the_reference_sum(
        seed in 0u64..5_000,
        n in 20usize..4_000,
        churn in 0usize..600,
        job_idx in 0usize..3,
        restrict in 0u8..2,
    ) {
        let db = churned_employee_db(seed, n, churn);
        let job = Value::tag(JobType::all()[job_idx].tag());
        let shapes = (restrict == 1).then(|| ShapePredicate {
            required: AttrSet::singleton("typing-speed"),
            regions: Vec::new(),
        });
        let lookup = LogicalPlan::IndexLookup {
            relation: "employee".into(),
            key: AttrSet::singleton("jobtype"),
            key_value: Tuple::new().with("jobtype", job.clone()),
            shapes: shapes.clone(),
        };
        let scan = LogicalPlan::Scan {
            relation: "employee".into(),
            qualification: None,
            shape: shapes,
        }
        .filter(Predicate::eq("jobtype", job));
        let probed = execute(&lookup, &db).unwrap();
        prop_assert_eq!(&probed, &execute(&scan, &db).unwrap());
        prop_assert_eq!(sorted(probed), sorted(oracle::evaluate(&lookup, &db).unwrap()));

        let sum = lookup.aggregate(
            AttrSet::empty(),
            vec![AggExpr::new(AggFunc::Sum, Some(Attr::new("salary")))],
        );
        let got = execute(&sum, &db).unwrap();
        let expect = oracle::evaluate(&sum, &db).unwrap();
        let as_float = |rows: &[Tuple]| match rows[0].iter().next().map(|(_, v)| v.clone()) {
            Some(Value::Float(f)) => Some(f.to_bits()),
            Some(Value::Int(0)) | None => None,
            other => panic!("unexpected SUM {other:?}"),
        };
        prop_assert_eq!(as_float(&got), as_float(&expect));
    }
}

fn finished_sorted(state: GroupedAggs) -> Vec<Tuple> {
    let mut v = state.finish();
    v.sort();
    v
}

fn standard_aggs() -> Vec<AggExpr> {
    vec![
        AggExpr::new(AggFunc::Count, None),
        AggExpr::new(AggFunc::Count, Some(Attr::new("x"))),
        AggExpr::new(AggFunc::Sum, Some(Attr::new("x"))),
        AggExpr::new(AggFunc::Sum, Some(Attr::new("y"))),
        AggExpr::new(AggFunc::Min, Some(Attr::new("y"))),
        AggExpr::new(AggFunc::Max, Some(Attr::new("x"))),
        AggExpr::new(AggFunc::Min, Some(Attr::new("g"))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The columnar aggregation kernels against the naive fold: random
    /// typed columns (dictionary tags, ints seeded with near-`i64::MAX`
    /// values so sums wrap, floats) under random per-segment selection
    /// masks — including empty masks (all-filtered segments) — grouped
    /// globally and by the dictionary column.  Both sides share the `Acc`
    /// semantics; what this pins down is the bulk kernels (popcount
    /// counts, word-skipping slice sums, dict bucketing) against the
    /// row-at-a-time fold.
    #[test]
    fn aggregation_kernels_match_the_tuple_fold(
        seed in 0u64..5_000,
        n in 0usize..2_400,
        density in 0u64..5,
    ) {
        let mut rng = TestRng::new(seed);
        let mut heap = ColumnHeap::new(AttrSet::from_names(["g", "x", "y"]));
        for _ in 0..n {
            let x = if rng.next_u64().is_multiple_of(16) {
                i64::MAX - (rng.next_u64() % 3) as i64
            } else {
                (rng.next_u64() % 1_000) as i64
            };
            heap.insert(
                Tuple::new()
                    .with("g", Value::tag(format!("g{}", rng.next_u64() % 5)))
                    .with("x", x)
                    .with("y", (rng.next_u64() % 1_000) as f64 / 8.0),
            );
        }
        for group_by in [AttrSet::empty(), AttrSet::singleton("g")] {
            let mut kernel = GroupedAggs::new(group_by.clone(), standard_aggs());
            let mut naive = GroupedAggs::new(group_by, standard_aggs());
            for si in 0..heap.segment_count() {
                let seg = heap.segment(si).unwrap();
                // `density` 0 keeps every mask empty — the all-filtered
                // segment case the kernels must skip without touching
                // accumulators.
                let mut sel = SelVec::none();
                for row in 0..SEGMENT_SIZE {
                    if rng.next_u64() % 5 < density {
                        sel.set(row);
                    }
                }
                sel.and(&seg.live_sel());
                for row in sel.iter() {
                    naive.add_tuple(&heap.materialize(seg, row));
                }
                aggregate_selected(&heap, si, &sel, &mut kernel);
            }
            prop_assert_eq!(finished_sorted(kernel), finished_sorted(naive));
        }
    }
}

/// A shape wide enough that its attribute set spills past one 64-bit
/// word: the kernels must still line the aggregate inputs up with the
/// right columns, and grouping by the trailing attributes must work.
#[test]
fn aggregation_over_a_spilled_wide_shape_matches_the_tuple_fold() {
    const ATTRS: usize = 70;
    let names: Vec<String> = (0..ATTRS).map(|i| format!("a{i:02}")).collect();
    let shape = AttrSet::from_names(names.iter().map(|s| s.as_str()));
    let mut heap = ColumnHeap::new(shape);
    for i in 0..1_500i64 {
        let mut t = Tuple::new();
        for (j, name) in names.iter().enumerate() {
            t.insert(name.as_str(), i.wrapping_mul(71) + j as i64);
        }
        t.insert("a69", i % 7); // a small group domain on the spilled word
        heap.insert(t);
    }
    let aggs = vec![
        AggExpr::new(AggFunc::Count, None),
        AggExpr::new(AggFunc::Sum, Some(Attr::new("a00"))),
        AggExpr::new(AggFunc::Min, Some(Attr::new("a68"))),
        AggExpr::new(AggFunc::Max, Some(Attr::new("a01"))),
    ];
    for group_by in [AttrSet::empty(), AttrSet::singleton("a69")] {
        let mut kernel = GroupedAggs::new(group_by.clone(), aggs.clone());
        let mut naive = GroupedAggs::new(group_by, aggs.clone());
        for si in 0..heap.segment_count() {
            let seg = heap.segment(si).unwrap();
            let sel = seg.live_sel();
            for row in sel.iter() {
                naive.add_tuple(&heap.materialize(seg, row));
            }
            aggregate_selected(&heap, si, &sel, &mut kernel);
        }
        assert_eq!(finished_sorted(kernel), finished_sorted(naive));
    }
}
