//! The traced breakdown: spans around the benchmark's own calls into each
//! layer's public functions, for statements of the seeded stream, run one
//! at a time.
//!
//! Per read statement the root span `stmt` holds, in order:
//! `storage.table_stats` (rebuilding whatever statistics earlier writes
//! made stale, which would otherwise land in whichever run comes first),
//! `query.prime` (one embedded run that warms the caches for the runs
//! after it), `client.rtt` (the statement over the wire through
//! `Connection`),
//! `query.run_statement` (the same statement embedded), then the embedded
//! stages one by one — `query.parse`, `query.plan`, `query.optimize`,
//! `query.estimate`, `query.execute` — and `proto.encode` /
//! `proto.decode` of the actual result set.  Per commit it holds
//! `client.rtt` (the `Transact` over the wire) and `storage.commit` (the
//! same operation through `Database::transact`, on a probe id of its own).
//! A span's self time is its duration minus its children's; the root's self
//! time is the residual no layer span covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use flexrel_client::Connection;
use flexrel_core::attrs;
use flexrel_core::tuple::Tuple;
use flexrel_query::{
    estimate_rows, execute_collect, optimize_with_db, parse, plan_query, run_statement,
    ExecOptions, StatementOutcome,
};
use flexrel_server::{
    decode_response, encode_request, encode_response, Request, Response, WriteOp,
};
use flexrel_storage::Database;

use crate::check::{check_rows, multiset, verify, Verdict};
use crate::load::{newest_wal_segment, roundtrip, wal_bytes, Target};
use crate::workload::{written_tuple, Kind, Stmt, StmtGen, Workload, PROBE_ID_BASE};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `query.optimize`.
    pub name: &'static str,
    /// Kind of the statement the call served.
    pub kind: Kind,
    /// Statement id, shared by every span of one statement.
    pub stmt: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Spans in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, kind: Kind, stmt: u64, parent: Option<usize>) -> usize {
        let now = (Instant::now() - self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            kind,
            stmt,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, span: usize) -> f64 {
        let s = &mut self.spans[span];
        s.end_ns = (Instant::now() - self.epoch).as_nanos() as u64;
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Times `f` as a child span of `parent`; returns its result and
    /// duration in microseconds.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let (kind, stmt) = (self.spans[parent].kind, self.spans[parent].stmt);
        let span = self.begin(name, kind, stmt, Some(parent));
        let out = f();
        let us = self.end(span);
        (out, us)
    }

    /// Self time in microseconds of every span named in the trace, keyed
    /// `<name>_us.<kind>` (the root's self time is `trace.residual_us`).
    pub fn self_times(&self, from: usize) -> BTreeMap<String, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let self_us = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3;
            let name = if s.parent.is_none() {
                "trace.residual"
            } else {
                s.name
            };
            out.entry(format!("{}_us.{}", name, s.kind.name()))
                .or_default()
                .push(self_us);
        }
        out
    }

    /// Writes every span as a tab-separated line.
    pub fn dump(&self, extra: &[Span], path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\tname\tkind\tstmt\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().chain(extra).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i,
                s.name,
                s.kind.name(),
                s.stmt,
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Fewest samples per statement kind the breakdown takes.
const MIN_PER_KIND: usize = 10;
/// Samples per kind after which the breakdown stops early.
const MAX_PER_KIND: usize = 200;

/// Samples of one breakdown, keyed by metric name (`<metric>.<kind>`).
pub type Samples = BTreeMap<String, Vec<f64>>;

fn push(samples: &mut Samples, key: String, v: f64) {
    samples.entry(key).or_default().push(v);
}

/// Applies a single-tuple write batch in one transaction, exactly as the
/// server applies a `Transact` request.
fn embedded_transact(db: &Database, ops: &[WriteOp]) -> Result<(u64, u64), String> {
    db.transact(&["wide"], |tx| {
        let mut done = (0u64, 0u64);
        for op in ops {
            match op {
                WriteOp::Insert(t) => {
                    tx.insert("wide", t.clone())?;
                    done.0 += 1;
                }
                WriteOp::DeleteEq { key, key_value } => {
                    let victims: Vec<_> = tx
                        .scan("wide")?
                        .into_iter()
                        .filter(|(_, t)| key.is_subset(&t.attrs()) && t.project(key) == *key_value)
                        .map(|(rid, _)| rid)
                        .collect();
                    for rid in victims {
                        tx.delete("wide", rid)?;
                        done.1 += 1;
                    }
                }
            }
        }
        Ok(done)
    })
    .map_err(|e| format!("embedded transact: {}", e))
}

/// Runs the per-layer breakdown over the workload's seeded read stream (and,
/// on `mixed-rw`, over probe commits), for about `budget_s` seconds.
/// Every response is verified, and every wire result is compared with the
/// embedded one.
pub fn breakdown(
    target: Target<'_>,
    db: &Database,
    seed: u64,
    budget_s: f64,
    tracer: &mut Tracer,
) -> Result<Samples, String> {
    let Target {
        addr,
        workload,
        oracle,
        dir,
        ..
    } = target;
    let mut samples = Samples::new();
    let mut conn = Connection::connect(addr).map_err(|e| format!("connect: {}", e))?;
    for token in 0..200u64 {
        let t = Instant::now();
        conn.ping(token).map_err(|e| format!("ping: {}", e))?;
        push(
            &mut samples,
            "client.ping_us".into(),
            t.elapsed().as_secs_f64() * 1e6,
        );
    }

    // The reader's stream: client 0 on the read-only workloads, client 1
    // (the reader) on mixed-rw.
    let reader = usize::from(workload == Workload::MixedRw);
    let mut gen = StmtGen::new(workload, seed, reader);
    let kinds: Vec<Kind> = workload.mix().iter().map(|(k, _)| *k).collect();
    let mut taken = [0usize; 5];
    let opts = ExecOptions::serial();
    let exact = workload != Workload::MixedRw;
    let first_span = tracer.spans.len();
    let start = Instant::now();
    let (mut wal_growth, mut user_bytes) = (0u64, 0u64);
    let mut probe = PROBE_ID_BASE;
    let mut stmt_id = 1u64 << 60;
    loop {
        let least = kinds.iter().map(|k| taken[k.idx()]).min().unwrap_or(0);
        let over = start.elapsed().as_secs_f64() > budget_s;
        if least >= MAX_PER_KIND || (over && least >= MIN_PER_KIND) {
            break;
        }
        // Fill the kind with the fewest samples, in stream order.
        let want = *kinds
            .iter()
            .min_by_key(|k| taken[k.idx()])
            .expect("every workload has a kind");
        taken[want.idx()] += 1;
        if want == Kind::Commit {
            // One sample is an insert and the delete that undoes it, each
            // over the wire on `probe` and embedded on `probe + 1`, so the
            // breakdown leaves the data as it found it.
            let dir = dir.ok_or("commits need a durable database")?;
            let (id, embedded_id) = (probe, probe + 1);
            probe += 2;
            let pairs = [
                (
                    Stmt::Insert { id, kind: 0 },
                    vec![WriteOp::Insert(written_tuple(embedded_id, 0))],
                    (1, 0),
                ),
                (
                    Stmt::Delete { id, kind: 0 },
                    vec![WriteOp::DeleteEq {
                        key: attrs!["id"],
                        key_value: Tuple::new().with("id", embedded_id),
                    }],
                    (0, 1),
                ),
            ];
            for (wire, embedded_ops, expect) in pairs {
                stmt_id += 1;
                let (before, segment) = (wal_bytes(dir), newest_wal_segment(dir));
                let root = tracer.begin("stmt", Kind::Commit, stmt_id, None);
                let (rsp, rtt) = tracer.time("client.rtt", root, || roundtrip(&mut conn, &wire));
                let (done, commit) = tracer.time("storage.commit", root, || {
                    embedded_transact(db, &embedded_ops)
                });
                tracer.end(root);
                let rsp = rsp.map_err(|e| format!("commit: {}", e))?;
                if verify(&wire, &rsp, oracle, false) != Verdict::Ok(0) || done? != expect {
                    return Err(format!("probe commit {:?} answered {:?}", wire, rsp));
                }
                // A rotation in between means a checkpoint replaced WAL
                // bytes; such a sample says nothing about WAL growth.
                if newest_wal_segment(dir) == segment {
                    wal_growth += wal_bytes(dir).saturating_sub(before);
                    let embedded_req = Request::Transact {
                        relation: "wide".into(),
                        ops: embedded_ops,
                    };
                    user_bytes += (encode_request(&wire.request()).len()
                        + encode_request(&embedded_req).len())
                        as u64;
                }
                push(
                    &mut samples,
                    "server.frontend_us.commit".into(),
                    rtt - commit,
                );
            }
            continue;
        }
        let stmt = loop {
            let s = gen.next(oracle);
            if s.kind() == want {
                break s;
            }
        };
        let frql = stmt.frql().expect("reads have FRQL text");
        stmt_id += 1;
        let root = tracer.begin("stmt", want, stmt_id, None);
        // Statistics a write made stale are rebuilt first, and one
        // embedded run warms the caches, so the wire and embedded runs
        // below meet the same state and their difference is the front end.
        let (stats, _) = tracer.time("storage.table_stats", root, || db.table_stats("wide"));
        stats.map_err(|e| format!("table_stats: {}", e))?;
        let (primed, _) = tracer.time("query.prime", root, || run_statement(db, &frql, &opts));
        primed.map_err(|e| format!("{}: {}", frql, e))?;
        let (wire, rtt) = tracer.time("client.rtt", root, || roundtrip(&mut conn, &stmt));
        let (embedded, run) = tracer.time("query.run_statement", root, || {
            run_statement(db, &frql, &opts)
        });
        let (query, _) = tracer.time("query.parse", root, || parse(&frql));
        let query = query.map_err(|e| format!("parse: {}", e))?;
        let (plan, _) = tracer.time("query.plan", root, || plan_query(&query, &db.catalog()));
        let plan = plan.map_err(|e| format!("plan: {}", e))?;
        let ((optimized, notes), _) =
            tracer.time("query.optimize", root, || optimize_with_db(plan, db));
        let (estimate, _) = tracer.time("query.estimate", root, || estimate_rows(&optimized, db));
        let (executed, _) = tracer.time("query.execute", root, || {
            execute_collect(&optimized, db, &opts)
        });
        let (rows, stats) = executed.map_err(|e| format!("execute: {}", e))?;
        let rsp = Response::Rows(rows);
        let (bytes, _) = tracer.time("proto.encode", root, || encode_response(&rsp));
        let (decoded, _) = tracer.time("proto.decode", root, || decode_response(&bytes));
        tracer.end(root);
        let rows = match &rsp {
            Response::Rows(rows) => rows.as_slice(),
            _ => &[],
        };
        let (n_rows, executed_rows) = (rows.len(), multiset(rows));

        let wire = wire.map_err(|e| format!("{}: {}", frql, e))?;
        let Response::Rows(wire_rows) = &wire else {
            return Err(format!("{} answered {:?}", frql, wire));
        };
        check_rows(&stmt, wire_rows, oracle, exact).map_err(|e| format!("wire: {}", e))?;
        let embedded = match embedded {
            Ok(StatementOutcome::Rows(r)) => r,
            other => return Err(format!("{} embedded: {:?}", frql, other)),
        };
        let wire_rows = multiset(wire_rows);
        if multiset(&embedded) != wire_rows || executed_rows != wire_rows {
            return Err(format!("{}: wire and embedded results differ", frql));
        }
        if decoded.map_err(|e| format!("decode: {}", e))? != rsp {
            return Err(format!("{}: codec round trip changed the rows", frql));
        }

        let k = want.name();
        push(&mut samples, format!("server.frontend_us.{}", k), rtt - run);
        push(
            &mut samples,
            format!("proto.bytes.{}", k),
            bytes.len() as f64,
        );
        push(
            &mut samples,
            format!("query.rewrites.{}", k),
            notes.len() as f64,
        );
        push(
            &mut samples,
            format!("query.index_lookups.{}", k),
            optimized.index_lookup_count() as f64,
        );
        if let Some(est) = estimate {
            let (e, a) = (est.max(1) as f64, n_rows.max(1) as f64);
            push(
                &mut samples,
                format!("query.q_error.{}", k),
                (e / a).max(a / e),
            );
        }
        push(
            &mut samples,
            format!("query.materialized_per_row.{}", k),
            stats.materialized() as f64 / n_rows.max(1) as f64,
        );
        push(
            &mut samples,
            format!("query.chunks.{}", k),
            stats.chunks() as f64,
        );
    }
    conn.close().map_err(|e| format!("close: {}", e))?;
    samples.extend(tracer.self_times(first_span));
    if user_bytes > 0 {
        push(
            &mut samples,
            "storage.wal_bytes_per_user_byte".into(),
            wal_growth as f64 / user_bytes as f64,
        );
    }
    Ok(samples)
}
